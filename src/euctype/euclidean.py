"""Euclidean-function tables on finite rings.

A table assigns every nonzero element an ordinal value; the value at zero
is always the supremum of the nonzero values plus one.  Tables are either
validated at construction or explicitly carry ``validated=False``; all
transforms insist on validated inputs.  Validation is the check of the
division property.  On Z/n, GF(q)[t]/(f), their products and quotients,
a table is checked on the lattice of ideals, the product of the chains
0..k_i, by boxes of vectors, and only the divisors the boxes leave are
swept against the carrier; on other rings every divisor is.  The
product and quotient tables of bottom tables on principal
rings are validated by equality with the bottom table of their ring,
which they match at every element (the bottom function of a finite
principal ring is the sum of its local valuations; Fletcher 1971,
Samuel 1971).

The centerpiece is the bottom table: the pointwise-least Euclidean
function.  A finite principal ring is a product of chain rings R_i of
lengths k_i, and there the bottom value of x is the sum of its local
valuations v_i(x) (k_i for a zero coordinate): the sum is Euclidean by
the coordinate shift of :func:`pair_divide`, and the bottom table lies
above it since it lies above the ideal-chain length (Motzkin 1949;
Samuel 1971).  Each value is then read from the ideal class of x alone.
A Euclidean ring is principal, so a finite ring that is not principal
admits no Euclidean function.  There the finding names the elements that
Motzkin's levels never reach, read from the same vectors (those of x that
are no unit at some local factor with a maximal ideal that is not
principal), and the level of every other element.  Isotonicity and
minimization also run on the vectors: (a) lies in (b) exactly when
v(a) >= v(b).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from operator import indexOf, itemgetter, le, lt, mul
from typing import Dict, List, Optional, Tuple

from .errors import DomainError, NotEuclideanRing
from .ordinal import Ordinal, left_subtract, natural_sum
from .rings import FiniteRing, ProductRing


@dataclass
class EuclideanTable:
    ring: FiniteRing
    values: Dict[object, Ordinal]          # total on nonzero elements
    value_at_zero: Ordinal
    validated: bool
    is_bottom: bool = False

    def value(self, x) -> Ordinal:
        """Value including the extension at zero."""
        if x == self.ring.zero:
            return self.value_at_zero
        return self.values[x]


@dataclass
class PairTable:
    ring: ProductRing
    values: Dict[object, Tuple[Ordinal, Ordinal]]   # total on nonzero elements
    components: Tuple[EuclideanTable, EuclideanTable]


@dataclass
class DivisionWitness:
    quotient: object
    remainder: object


def _sup_plus_one(values: Dict[object, Ordinal]) -> Ordinal:
    return max(values.values()).successor() if values else Ordinal(1)


def _ranks(table_values: Dict[object, Ordinal]) -> Dict[object, int]:
    """Element -> rank of its value; ranks compare like the ordinals do.

    Tables share their value objects, so the values are deduplicated by
    identity first, and each distinct object is hashed once, when equal
    values are grouped."""
    values = table_values.values()
    groups: Dict[Ordinal, list] = {}
    for i, v in dict(zip(map(id, values), values)).items():
        groups.setdefault(v, []).append(i)
    rank_of_id = {}
    for r, (_, ids) in enumerate(sorted(groups.items(), key=itemgetter(0))):
        rank_of_id.update(dict.fromkeys(ids, r))
    return dict(zip(table_values, map(rank_of_id.__getitem__, map(id, values))))


def _down(bits: int, stride: int, below: int, steps: int) -> int:
    """The vectors of the bitset ``bits`` and those up to ``steps`` below
    them along one coordinate, whose digit has the given stride; ``below``
    is the set of vectors where that digit is under its length, the only
    ones a step down may reach."""
    for _ in range(steps):
        bits |= (bits >> stride) & below
    return bits


def _up(bits: int, stride: int, below: int, steps: int) -> int:
    """The vectors 1 to ``steps`` above ``bits`` along one coordinate (``bits`` left out)."""
    up = 0
    for _ in range(steps):
        bits = (bits & below) << stride
        up |= bits
    return up


def _uncertified(ring: FiniteRing, keys: list, rank: Dict[object, int]) -> set:
    """The (key, rank) pairs of the carrier's divisors that the boxes
    cannot certify; a table with none is Euclidean.

    The ring is a product of chain rings of lengths k_i.  For b of vector
    beta and a outside (b) of vector alpha, the vectors met by the coset
    a + (b) form a box, coordinate by coordinate by CRT: gamma_i = alpha_i
    where alpha_i < beta_i, and beta_i <= gamma_i <= k_i elsewhere.  So b
    of rank r is safe when each box holds a gamma whose largest rank
    r+(gamma) is below r, and on a function of the vector only then.  Take
    G, the coordinates where alpha_i < beta_i, and F, the others.  For each
    rank r, with the vectors as the bits of an integer in mixed radix
    k_i + 1: those with r+ below r, closed downwards along F, must cover
    the vectors carrying rank r taken strictly downwards along G, for every
    G not empty; the bits left, shifted back up along G, are the vectors
    that fail at r.  Vectors are grouped by value, not by key: a quotient
    names one ideal by several keys of its base ring.
    """
    valuations = ring.valuations
    pairs = set(zip(keys, map(rank.get, ring.elements)))
    peak: Dict[Tuple[int, ...], int] = {}  # vector -> r+
    extra = []  # (vector, rank) below r+; empty on a function of the vector
    for key, r in pairs:
        if r is None:  # the key of zero
            top = valuations(key)
        elif (s := peak.setdefault(v := valuations(key), r)) != r:
            extra.append((v, min(r, s)))
            peak[v] = max(r, s)
    strides = list(itertools.accumulate((k + 1 for k in top[:-1]), mul, initial=1))
    every = (1 << math.prod(k + 1 for k in top)) - 1
    below = [every ^ (((1 << s) - 1) << k * s) * (every // ((1 << s * (k + 1)) - 1))
             for k, s in zip(top, strides)]  # clear the layer where coordinate i is k_i
    levels = [0] * (max(peak.values()) + 1)  # the vectors carrying each rank
    for v, r in peak.items():
        levels[r] |= 1 << sum(map(mul, v, strides))
    peaks = levels.copy()  # the vectors by r+
    for v, r in extra:
        levels[r] |= 1 << sum(map(mul, v, strides))
    splits = range(1, 1 << len(top))
    lower, failed = 0, {}  # the vectors with r+ below the rank; rank -> the vectors failing
    for r, level in enumerate(levels):
        closed, strict = [lower], [level]  # indexed by the coordinates taken downwards
        for coords in splits:
            i, rest = (coords & -coords).bit_length() - 1, coords & (coords - 1)
            stride, mask, k = strides[i], below[i], top[i]
            closed.append(_down(closed[rest], stride, mask, k))
            strict.append(_down((strict[rest] >> stride) & mask, stride, mask, k - 1))
        for g in splits:
            fail = strict[g] & ~closed[splits[-1] ^ g]
            if fail:
                for i in range(len(top)):
                    if g >> i & 1:
                        fail = _up(fail, strides[i], below[i], top[i])
                failed[r] = failed.get(r, 0) | fail & level
        lower |= peaks[r]
    if not failed:
        return set()
    return {(key, r) for key, r in pairs
            if r in failed and failed[r] >> sum(map(mul, valuations(key), strides)) & 1}


def division_counterexample(ring: FiniteRing, values: Dict[object, Ordinal]):
    """Least (a, b) with no valid quotient, or None if the table is Euclidean.

    A pair (a, b) is satisfied iff the coset a + (b) contains 0 or some r
    with value below the value of b.  On a ring whose valuations are
    arithmetic (``_known_principal``), the table is first checked on the
    product of chains 0..k_i by :func:`_uncertified`, at a cost that
    depends on the number of ideals, not on n.  A certified divisor holds
    no counterexample, so only the (class, rank) pairs it leaves are
    swept; on other rings every pair is.  Each class is swept once with
    its divisors in rank order.  The cosets met grow with the rank, and a
    class is done once every coset is met.  They are labelled a batch at a
    time by ``ring.coset_labels``: zero, then the elements of the ranks
    below each divisor's in one call.  Only a (class, rank) that leaves a
    coset unmet walks the carrier, labelling it lazily from the last
    position reached, for the least element outside the cosets met.  On
    Z/n, GF(q)[t]/(f) and their products a label is arithmetic (x mod d,
    x mod g, a tuple of those), so the check builds no ideal, at O(n) label
    reads per class swept.  The ideal-class keys of the carrier are kept on
    the ring (:meth:`FiniteRing.carrier_classes`), so a second check of the
    same ring computes none; table rings and quotients, whose labels are
    coset ids found by addition, keep them per key.
    """
    zero, elements = ring.zero, ring.elements
    rank = _ranks(values)
    keys = ring.carrier_classes()
    unsure = (_uncertified(ring, keys, rank) if ring._known_principal else
              set(zip(keys, map(rank.get, elements))) - {(keys[elements.index(zero)], None)})
    if not unsure:
        return None
    # class key -> rank -> index of the least divisor of that rank in the class
    classes: Dict[object, Dict[int, int]] = {}
    swept = {key for key, _ in unsure}
    for i in itertools.compress(range(len(keys)), map(swept.__contains__, keys)):
        if (pair := (keys[i], rank.get(elements[i]))) in unsure:
            classes.setdefault(pair[0], {}).setdefault(pair[1], i)
    by_rank = sorted(rank, key=rank.__getitem__) if max(r for _, r in unsure) else []
    best = None
    for key, divisors in classes.items():
        labels, count = ring.coset_labels(key)
        met = set(labels([zero]))
        done = pos = 0  # the cosets of by_rank[:done] and of elements[:pos] are met
        for rb in sorted(divisors):
            end = bisect.bisect_left(by_rank, rb, done, key=rank.__getitem__)
            met.update(labels(by_rank[done:end]))
            done = end
            if len(met) == count:
                break  # every coset is met for this rank and all above it
            # the first False of the lazy membership map is the least unmet element
            pos += indexOf(map(met.__contains__, labels(elements[pos:])), False)
            pair = (pos, divisors[rb])
            if best is None or pair < best:
                best = pair
    return None if best is None else (elements[best[0]], elements[best[1]])


def is_euclidean_function(table: EuclideanTable):
    """(ok, counterexample) for the division property, checked exhaustively."""
    cex = division_counterexample(table.ring, table.values)
    return cex is None, cex


def make_table(ring: FiniteRing, values: Dict[object, Ordinal]) -> EuclideanTable:
    """The table of ``values``, validated exhaustively."""
    if set(values) != set(ring.elements) - {ring.zero}:
        raise DomainError("table must assign exactly the nonzero elements")
    cex = division_counterexample(ring, values)
    if cex is not None:
        a, b = cex
        raise DomainError(
            f"not a Euclidean function on {ring.name}: no quotient for "
            f"a={ring.format_element(a)}, b={ring.format_element(b)}"
        )
    return EuclideanTable(ring, dict(values), _sup_plus_one(values), validated=True)


def _certified_table(ring: FiniteRing, values: Dict[object, Ordinal],
                     known: Optional[EuclideanTable]) -> EuclideanTable:
    """The table of ``values``, validated by equality with the validated
    table ``known`` on the same ring where they agree at every element, and
    by :func:`make_table` otherwise (``known`` None included).  Each caller
    has just built ``values``, so on equality the table keeps it uncopied."""
    if known is not None and known.ring is ring and known.validated and values == known.values:
        return EuclideanTable(ring, values, _sup_plus_one(values), validated=True)
    return make_table(ring, values)


def divide(table: EuclideanTable, a, b) -> DivisionWitness:
    """First witness a = qb + r with r = 0 or value(r) < value(b), scanning
    quotients in canonical element order."""
    ring = table.ring
    if b == ring.zero:
        raise DomainError("division by zero")
    values = table.values
    vb = values[b]
    for q in ring.elements:
        r = ring.sub(a, ring.mul(q, b))
        if r == ring.zero or values[r] < vb:
            return DivisionWitness(q, r)
    raise DomainError(f"table on {ring.name} is not Euclidean at ({a!r}, {b!r})")


# ---------------------------------------------------------------------------
# the bottom table


def bottom_euclidean(ring: FiniteRing) -> EuclideanTable:
    """Least Euclidean table of the ring.

    On a principal ring the value of x is the sum of its local
    valuations, and the value at zero the sum of the local lengths: one
    ideal-class key per element and one valuation tuple per key, with no
    ring operation on the keyed rings.  A ring that is not principal
    admits no Euclidean function, and :func:`_not_euclidean` names the
    elements that get no value.
    """
    if not ring.is_principal():
        raise _not_euclidean(ring)
    top = Ordinal(ring.element_length(ring.zero))  # the sum of the local lengths
    return EuclideanTable(ring, _length_values(ring), top, validated=True, is_bottom=True)


def _by_class(ring: FiniteRing, f) -> Dict[object, object]:
    """x -> f(the ideal-class key of x), in carrier order, with f called once
    per key, so elements of one class share one value object."""
    keys = ring.carrier_classes()
    by_key = {key: f(key) for key in dict.fromkeys(keys)}
    return dict(zip(ring.elements, map(by_key.__getitem__, keys)))


def _not_euclidean(ring: FiniteRing) -> NotEuclideanRing:
    """The finding on a ring that is not principal, from its local split and
    one :meth:`FiniteRing._local_vector` per ideal-class key, which a product
    reads from its factors: only a table ring, or a quotient of a ring built
    on one, scans its carrier.  Motzkin's levels never reach x where ex lies
    in m_e, for a local factor eR whose maximal ideal m_e is not principal:
    for a in m_e outside (ex) at e and 0 elsewhere, a + (x) stays in m_e at
    e, where every element of a level is a unit.  Any other x generates
    each such eR, so its level is the sum of its valuations."""
    chain = [principal for *_, principal in ring._local_split()]

    def level(key):  # None where x is stuck
        v = ring._local_vector(key)
        return None if any(i and not p for i, p in zip(v, chain)) else sum(v)

    levels = _by_class(ring, level)
    del levels[ring.zero]
    stuck = [x for x, v in levels.items() if v is None]
    partial = {x: v for x, v in levels.items() if v is not None}
    return NotEuclideanRing(ring, stuck, partial)


def order_type(table: EuclideanTable) -> Ordinal:
    """The ordinal of distinct bottom values; equals the value at zero."""
    if not table.is_bottom:
        raise DomainError("order type is defined for the bottom table only")
    return table.value_at_zero


# ---------------------------------------------------------------------------
# transforms


def _require_validated(table: EuclideanTable):
    if not table.validated:
        raise DomainError("operation requires a validated table")


def isotone_minimization(table: EuclideanTable) -> EuclideanTable:
    """Largest divisibility-isotone Euclidean table below the input:
    each x is sent to the least value on the nonzero multiples of x.  On a
    Euclidean table that is the least value on the associates of x, the
    elements of its valuation vector: were other multiples below them all,
    x divided by the least of those, y, would leave x - qy, a nonzero
    multiple of x below y."""
    _require_validated(table)
    ring = table.ring
    vector = _by_class(ring, ring.valuations)
    least: Dict[Tuple[int, ...], Ordinal] = {}
    for x, value in table.values.items():
        v = vector[x]
        least[v] = min(least.get(v, value), value)
    new_values = {x: least[vector[x]] for x in table.values}
    out = make_table(ring, new_values)
    out.is_bottom = table.is_bottom and new_values == table.values
    return out


def _divisibility_monotone(table: EuclideanTable, strict: bool) -> bool:
    # Isotonicity on the ordered quotient by association, in both modes:
    # associates (equal vectors) must share a value, and the values must
    # rise along each step v -> v + e_i: (a) lies in (b) exactly when
    # v(a) >= v(b) at every coordinate, and the steps generate that order.
    # The vector of zero is left out: the value at zero lies above every
    # other value, so no step into it decides the answer.  This is the
    # reading under which a Euclidean table is isotone iff it is weakly
    # isotone.
    _require_validated(table)
    vector = _by_class(table.ring, table.ring.valuations)
    value: Dict[Tuple[int, ...], Ordinal] = {}
    for x, v in table.values.items():
        if value.setdefault(vector[x], v) != v:
            return False
    rise = lt if strict else le
    return all(rise(value[v], value[w]) for v in value for i in range(len(v))
               if (w := v[:i] + (v[i] + 1,) + v[i + 1:]) in value)


def is_isotone_euclidean(table: EuclideanTable) -> bool:
    return _divisibility_monotone(table, strict=True)


def is_weakly_isotone_euclidean(table: EuclideanTable) -> bool:
    return _divisibility_monotone(table, strict=False)


def quotient_euclidean(table: EuclideanTable, b) -> EuclideanTable:
    """Push the table down to R/(b) by taking minimal-value lifts.

    From the bottom table of a principal ring this is the bottom table of
    R/(b): the least of the sum of the v_i over x + (b) is the sum of the
    min(v_i(x), v_i(b)), since by CRT every coordinate reaches its minimum
    at once.  There the result is validated by equality with
    ``bottom_euclidean(R/(b))``; every other table is checked exhaustively.
    """
    _require_validated(table)
    ring = table.ring
    quot = ring.quotient_ring(b)
    cid, least = quot._cid, {}
    for x, v in table.values.items():
        i = cid[x]
        if i not in least or v < least[i]:
            least[i] = v
    values = {xbar: least[i] for i, xbar in enumerate(quot.elements) if xbar != quot.zero}
    known = bottom_euclidean(quot) if table.is_bottom else None
    return _certified_table(quot, values, known)


def nagata_product(t1: EuclideanTable, t2: EuclideanTable) -> PairTable:
    """Componentwise pair-valued function on R1 x R2; division witnesses
    come from :func:`pair_divide`."""
    _require_validated(t1)
    _require_validated(t2)
    ring = ProductRing([t1.ring, t2.ring])
    values = {x: (t1.value(x[0]), t2.value(x[1])) for x in ring.elements if x != ring.zero}
    return PairTable(ring, values, (t1, t2))


def pair_divide(pt: PairTable, x, y) -> DivisionWitness:
    """Division witness for the pair table, remainder strictly below the
    value of y in the componentwise order.

    Componentwise division can leave one remainder zero while the matching
    divisor coordinate is not; the fix is to shift that quotient
    coordinate down by one so the remainder picks up the divisor
    coordinate itself.
    """
    ring = pt.ring
    t1, t2 = pt.components
    r1ring, r2ring = ring.factors
    if y == ring.zero:
        raise DomainError("division by zero")
    for q in ring.elements:
        if ring.mul(q, y) == x:
            return DivisionWitness(q, ring.zero)

    def component(t, fac, a, b):
        if b == fac.zero:
            return fac.zero, a
        w = divide(t, a, b)
        return w.quotient, w.remainder

    q1, r1 = component(t1, r1ring, x[0], y[0])
    q2, r2 = component(t2, r2ring, x[1], y[1])
    z1, z2 = r1ring.zero, r2ring.zero
    if r1 == z1 and y[0] != z1:
        # remainder must pick up the first divisor coordinate
        return DivisionWitness((r1ring.sub(q1, r1ring.one), q2), (y[0], r2))
    if r2 == z2 and y[1] != z2:
        return DivisionWitness((q1, r2ring.sub(q2, r2ring.one)), (r1, y[1]))
    return DivisionWitness((q1, q2), (r1, r2))


def pair_value(pt: PairTable, x) -> Tuple[Ordinal, Ordinal]:
    if x == pt.ring.zero:
        t1, t2 = pt.components
        return (t1.value_at_zero, t2.value_at_zero)
    return pt.values[x]


def pair_less(a: Tuple[Ordinal, Ordinal], b: Tuple[Ordinal, Ordinal]) -> bool:
    """Strictly below in the componentwise (product) order."""
    return a[0] <= b[0] and a[1] <= b[1] and a != b


def collapse_pair_table(pt: PairTable,
                        product_bottom: Optional[EuclideanTable] = None) -> EuclideanTable:
    """Ordinal-valued table obtained by composing with the length function
    of the product value poset, i.e. the natural sum of the components.

    On bottom components over principal factors the natural sum of the two
    valuation sums is the valuation sum of the product, so the result is
    validated by equality with the product's bottom table: ``product_bottom``
    where the caller has built it, else ``bottom_euclidean(pt.ring)``.
    Other components are checked exhaustively.
    """
    sums = {pair: natural_sum(*pair) for pair in set(pt.values.values())}
    values = {x: sums[pair] for x, pair in pt.values.items()}
    t1, t2 = pt.components
    known = None
    if t1.is_bottom and t2.is_bottom:
        known = product_bottom or bottom_euclidean(pt.ring)
    return _certified_table(pt.ring, values, known)


def residual_euclidean(table: EuclideanTable, factor: int = 1) -> EuclideanTable:
    """Euclidean function on one factor of a product, recovered from the
    bottom table of the product by left subtraction.

    With u the indicator carrying 1 in the chosen factor and 0 elsewhere,
    y is sent to -value(u) + value(u with 1 replaced by y).
    """
    _require_validated(table)
    if not table.is_bottom:
        raise DomainError("residual table is defined from the bottom table")
    ring = table.ring
    if not isinstance(ring, ProductRing) or len(ring.factors) != 2:
        raise DomainError("residual table needs a two-factor product ring")
    if factor not in (0, 1):
        raise DomainError("factor index must be 0 or 1")
    fac = ring.factors[factor]
    base = table.values[ring.inject(factor, fac.one)]
    values = {y: left_subtract(base, table.values[ring.inject(factor, y)])
              for y in fac.elements if y != fac.zero}
    return make_table(fac, values)


def _length_values(ring: FiniteRing) -> Dict[object, Ordinal]:
    """x -> ideal-chain length, the sum of the local valuations, on the
    nonzero elements of a principal ring: the values of its bottom table."""
    valuations = ring.valuations
    values = _by_class(ring, lambda key: Ordinal(sum(valuations(key))))
    del values[ring.zero]
    return values


def check_l_euclidean(ring: FiniteRing):
    """(ok, counterexample) for x -> ideal-chain length as a candidate
    Euclidean function."""
    cex = division_counterexample(ring, _length_values(ring))
    return cex is None, cex


def length_table(ring: FiniteRing) -> EuclideanTable:
    """The x -> ideal-chain-length table, validated; fails if not Euclidean."""
    return make_table(ring, _length_values(ring))


# ---------------------------------------------------------------------------
# serialization


def value_texts(table: EuclideanTable) -> Tuple[List[str], List[str]]:
    """The names of the nonzero elements in carrier order, and the text of
    the value of each.  Names come from :meth:`FiniteRing.element_names`,
    zero is skipped by its position, and each distinct value object is
    formatted once: the tables share one value per ideal class."""
    ring = table.ring
    elements, names = ring.elements, ring.element_names()
    z = elements.index(ring.zero)
    values = list(map(table.values.__getitem__, itertools.chain(elements[:z], elements[z + 1:])))
    ids = list(map(id, values))
    text = {i: str(v) for i, v in dict(zip(ids, values)).items()}
    return names[:z] + names[z + 1:], list(map(text.__getitem__, ids))


def table_to_dict(table: EuclideanTable) -> dict:
    """The table as JSON-ready data: the ring's name, the value text of each
    nonzero element under its name, in carrier order, the value at zero and
    the two flags.  :func:`~euctype.parsing.table_from_dict` reads it back."""
    ring = table.ring
    return {
        "ring": ring.name,
        "values": dict(zip(*value_texts(table))),
        "value_at_zero": str(table.value_at_zero),
        "validated": table.validated,
        "bottom": table.is_bottom,
    }
