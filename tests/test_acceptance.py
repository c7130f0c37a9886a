"""Acceptance suite: one test per headline criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test also prints its own summary line.
"""

import random
import time

import pytest

from euctype.errors import NotEuclideanRing
from euctype.euclidean import (
    bottom_euclidean,
    collapse_pair_table,
    division_counterexample,
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
)
from euctype.models import (
    check_not_l_euclidean_integers,
    check_not_l_euclidean_polys,
    order_type_of_spec,
    realize_ordinal,
    windowed_bottom_integers,
    windowed_bottom_polynomials,
)
from euctype.ordinal import Ordinal, natural_sum, omega
from euctype.poset import brookfield_sum_finite
from euctype.rings import (
    GaloisField,
    PolyQuotient,
    ProductRing,
    Zmod,
    truncated_bivariate_fixture,
)

from ideal_oracles import _bottom_fixed_point, _class_pair_oracle


def gf(q, *modulus):
    return PolyQuotient(GaloisField(q), modulus)


def corpus_rings():
    """Principal rings exercised throughout the suite."""
    return [
        Zmod(4), Zmod(8), Zmod(9), Zmod(12), Zmod(16), Zmod(24),
        Zmod(27), Zmod(36), Zmod(49),
        gf(2, 0, 0, 1), gf(2, 0, 0, 0, 1), gf(2, 1, 1, 1),
        gf(3, 0, 0, 1), gf(4, 0, 0, 1),
        ProductRing([Zmod(4), Zmod(9)]),
        ProductRing([Zmod(8), gf(2, 0, 0, 1)]),
        ProductRing([Zmod(2), Zmod(3)]),
        ProductRing([gf(2, 0, 0, 1), Zmod(9)]),
    ]


def corpus_products():
    """Factor pairs whose product carrier stays at or below 512."""
    pairs = [
        (Zmod(4), Zmod(9)), (Zmod(4), Zmod(25)), (Zmod(4), Zmod(27)),
        (Zmod(4), Zmod(49)), (Zmod(8), Zmod(9)), (Zmod(8), Zmod(27)),
        (Zmod(8), Zmod(49)), (Zmod(16), Zmod(9)), (Zmod(16), Zmod(27)),
        (Zmod(32), Zmod(9)), (Zmod(2), Zmod(3)), (Zmod(2), Zmod(9)),
        (Zmod(3), Zmod(4)), (Zmod(9), Zmod(25)), (Zmod(5), Zmod(49)),
        (Zmod(7), Zmod(8)), (Zmod(64), Zmod(4)), (Zmod(121), Zmod(4)),
        (gf(2, 0, 0, 1), Zmod(9)), (gf(2, 0, 0, 0, 1), Zmod(25)),
        (gf(4, 0, 0, 1), Zmod(27)), (gf(3, 0, 0, 1), Zmod(49)),
        (gf(2, 1, 1, 1), Zmod(121)),
    ]
    assert len(pairs) >= 20
    assert all(len(a) * len(b) <= 512 for a, b in pairs)
    return pairs


def _primes(limit):
    sieve = [True] * (limit + 1)
    sieve[0:2] = [False, False]
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i:: i] = [False] * len(sieve[i * i:: i])
    return [i for i, ok in enumerate(sieve) if ok]


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_local_artinian_order_types():
    # Z/p^k sends u * p^a to a and has order type k, for all p^k <= 512
    start = time.time()
    checked = 0
    for p in _primes(512):
        pk = p
        k = 1
        while pk <= 512:
            t = bottom_euclidean(Zmod(pk))
            assert order_type(t) == k
            for x in range(1, pk):
                a, y = 0, x
                while y % p == 0:
                    y //= p
                    a += 1
                assert t.values[x] == a
            checked += 1
            pk *= p
            k += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(1, f"{checked} local rings Z/p^k verified in {elapsed:.1f}s")


def test_criterion_02_product_theorem_finite_scale():
    count = 0
    for r1, r2 in corpus_products():
        e1 = order_type(bottom_euclidean(r1))
        e2 = order_type(bottom_euclidean(r2))
        e = order_type(bottom_euclidean(ProductRing([r1, r2])))
        assert e == e1 + e2
        count += 1
    _report(2, f"e(R1 x R2) = e1 + e2 on {count} product rings")


def test_criterion_03_quotient_identity():
    checked = 0
    for ring in corpus_rings():
        t = bottom_euclidean(ring)
        for b in ring.elements:
            if b == ring.zero or ring.is_unit(b):
                continue
            q = quotient_euclidean(t, b)
            assert q.value_at_zero == t.values[b]
            checked += 1
    _report(3, f"value at zero of the quotient equals bottom(b) for {checked} divisors")


def test_criterion_04_brookfield_equals_hessenberg():
    for m in range(31):
        for n in range(31):
            assert brookfield_sum_finite(m, n) == natural_sum(m, n).to_int()
    rng = random.Random(20240817)

    def random_cnf():
        # nonzero ordinal below w^w (the product upper bound needs both
        # arguments nonzero)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.randint(0, 4)] = rng.randint(1, 6)
        return Ordinal.from_terms(
            tuple((Ordinal(e), c) for e, c in sorted(terms.items(), reverse=True))
        )

    for _ in range(10_000):
        a, b = random_cnf(), random_cnf()
        ns = natural_sum(a, b)
        assert a + b <= ns and b + a <= ns
        assert ns <= a * b + b * a
    _report(4, "poset sums match the natural sum to 30, inequality chain on 10^4 pairs")


def test_criterion_05_windowed_integers():
    import math

    start = time.time()
    m = windowed_bottom_integers(report_bound=1024)
    assert m.values[1] == 0
    for n in range(2, 1025):
        assert m.values[n] == math.floor(math.log2(n))
        assert len(bin(n)) - 2 == m.values[n] + 1  # the digit-count reading
    elapsed = time.time() - start
    assert elapsed < 60.0
    cert = m.certificate
    _report(5, f"values to 1024 stabilized on windows {cert.window_a}/{cert.window_b} "
               f"in {elapsed:.1f}s")


def test_criterion_06_windowed_polynomials():
    m = windowed_bottom_polynomials(2, report_degree=10)
    assert all(v == len(p) - 1 for p, v in m.values.items())
    assert {len(p) - 1 for p in m.values} == set(range(11))
    _report(6, "GF(2)[t] values equal the degree up to degree 10")


def test_criterion_07_negative_findings():
    fixture = truncated_bivariate_fixture()
    assert not fixture.is_principal()
    with pytest.raises(NotEuclideanRing):
        bottom_euclidean(fixture)
    wz = check_not_l_euclidean_integers()
    assert (wz.divisor, wz.target) == (5, 2)
    assert all((wz.target - r) % wz.divisor != 0 for r in wz.allowed_remainders)
    wp = check_not_l_euclidean_polys(2)
    assert (wp.divisor, wp.target) == ((1, 1, 1), (0, 1))
    _report(7, "fixture not Euclidean; length-function witnesses (5, 2) and (t^2+t+1, t)")


def _perturbed(ring, rng):
    bottom = bottom_euclidean(ring)
    shift = 0
    remap = {}
    for v in sorted(set(bottom.values.values())):
        shift += rng.randint(0, 2)
        remap[v] = Ordinal(v.to_int() + shift)
    values = {x: remap[v] for x, v in bottom.values.items()}
    for _ in range(rng.randint(0, 3)):
        x = rng.choice([e for e in ring.elements if e != ring.zero])
        bumped = dict(values)
        bumped[x] = bumped[x] + rng.randint(1, 3)
        if division_counterexample(ring, bumped) is None:
            values = bumped
    return make_table(ring, values)


def test_criterion_08_isotone_minimization():
    rng = random.Random(8)
    small = [r for r in corpus_rings() if len(r) <= 128]
    for i in range(100):
        ring = small[i % len(small)]
        t = _perturbed(ring, rng)
        m = isotone_minimization(t)
        assert m.validated
        assert is_isotone_euclidean(m)
        assert all(m.values[x] <= t.values[x] for x in t.values)
        assert isotone_minimization(m).values == m.values
        assert is_isotone_euclidean(t) == _class_pair_oracle(t, False)
        b = bottom_euclidean(ring)
        assert isotone_minimization(b).values == b.values
    _report(8, "100 perturbed tables minimized; strict isotonicity equals the weak oracle")


def test_criterion_09_nagata_construction():
    for r1, r2 in ((Zmod(4), Zmod(9)), (Zmod(8), gf(2, 0, 0, 1))):
        pt = nagata_product(bottom_euclidean(r1), bottom_euclidean(r2))
        ring = pt.ring
        for x in ring.elements:
            for y in ring.elements:
                if y == ring.zero:
                    continue
                w = pair_divide(pt, x, y)
                assert ring.add(ring.mul(w.quotient, y), w.remainder) == x
                assert w.remainder == ring.zero or pair_less(
                    pair_value(pt, w.remainder), pair_value(pt, y)
                )
        assert collapse_pair_table(pt).validated
    _report(9, "pair division verified exhaustively on both products; collapses validated")


def test_criterion_10_length_bounds_and_residuals():
    for ring in corpus_rings():
        t = bottom_euclidean(ring)
        for x, v in t.values.items():
            assert ring.element_length(x) <= v.to_int()
    residuals = 0
    for ring in corpus_rings():
        if not isinstance(ring, ProductRing):
            continue
        t = bottom_euclidean(ring)
        for i in (0, 1):
            res = residual_euclidean(t, i)
            assert res.validated
            residuals += 1
    _report(10, f"length below bottom everywhere; {residuals} residual tables validated")


def test_criterion_10_bottom_equals_length():
    # the lower bound above is attained: the fixed point is the length
    for ring in corpus_rings():
        t = _bottom_fixed_point(ring)
        for x, v in t.values.items():
            assert ring.element_length(x) == v.to_int(), ring.name
        assert ring.element_length(ring.zero) == t.value_at_zero.to_int(), ring.name
    _report(10, "the level-at-a-time fixed point equals the ideal-chain length everywhere")


def test_criterion_11_realization_below_omega_squared():
    rng = random.Random(11)
    done = 0
    while done < 50:
        r = rng.randint(0, 5)
        n = rng.randint(0, 8)
        a = omega * r + n
        if a.is_zero:
            continue
        spec = realize_ordinal(a)
        assert order_type_of_spec(spec) == a
        if r == 0:
            concrete = order_type(bottom_euclidean(Zmod(2 ** n)))
            assert concrete == a
        done += 1
    _report(11, "50 ordinals below w^2 realized and round-tripped")
