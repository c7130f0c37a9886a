"""Transfinite Euclidean functions at desk scale.

Exact ordinal arithmetic in Cantor normal form, length functions on
finite posets, finite commutative rings with ideal enumeration, the
pointwise-least Euclidean table and its transforms, and bounded models
of the classical infinite domains.
"""

from types import ModuleType as _ModuleType

from .errors import (
    DomainError,
    EngineError,
    NotEuclideanRing,
    ParseError,
    ResourceError,
)
from .euclidean import (
    DivisionWitness,
    EuclideanTable,
    PairTable,
    bottom_euclidean,
    check_l_euclidean,
    collapse_pair_table,
    divide,
    division_counterexample,
    is_euclidean_function,
    is_isotone_euclidean,
    isotone_minimization,
    make_table,
    nagata_product,
    order_type,
    pair_divide,
    pair_less,
    pair_value,
    quotient_euclidean,
    residual_euclidean,
    table_to_dict,
)
from .models import (
    LengthWitness,
    RingSpec,
    SampledCheck,
    StabilizationCertificate,
    WindowedBottom,
    check_localization_euclidean,
    check_not_l_euclidean_integers,
    check_not_l_euclidean_polys,
    localization_function,
    order_type_of_spec,
    product_bounds,
    realize_ordinal,
    windowed_bottom_integers,
    windowed_bottom_polynomials,
    windowed_polynomial_levels,
)
from .ordinal import (
    Ordinal,
    format_ordinal,
    left_subtract,
    natural_sum,
    omega,
    omega_power,
    product_left,
)
from .parsing import (
    parse_element,
    parse_ordinal,
    parse_poset,
    parse_ring_spec,
    table_from_dict,
)
from .poset import (
    FinitePoset,
    brookfield_sum_finite,
    chain,
    is_isotone,
    length,
    length_function,
    pointwise_min,
    product_poset,
)
from .rings import (
    FiniteRing,
    GaloisField,
    PolyQuotient,
    ProductRing,
    QuotientRing,
    TableRing,
    Zmod,
    crt_decompose,
    format_poly,
    truncated_bivariate_fixture,
)

__version__ = "0.1.0"

# every public name imported above, in import order
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
