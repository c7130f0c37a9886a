import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from euctype import rings
from euctype.errors import DomainError, ResourceError
from euctype.models import _check_primes
from euctype.parsing import parse_ring_spec
from euctype.rings import (
    MILLER_RABIN_LIMIT,
    GaloisField,
    PolyQuotient,
    ProductRing,
    QuotientRing,
    Zmod,
    _digits,
    _int_factor,
    _is_prime,
    _least_prime_factor,
    _monic_polys,
    _poly_multiplicity,
    _prime_power,
    _undigits,
    crt_decompose,
    format_poly,
    poly_add,
    poly_divmod,
    poly_factor,
    poly_is_irreducible,
    poly_mod,
    poly_mul,
    poly_neg,
    poly_trim,
    truncated_bivariate_fixture,
)


class TestGaloisField:
    def test_prime_field(self):
        F = GaloisField(5)
        assert F.add(3, 4) == 2
        assert F.mul(3, 4) == 2
        assert F.mul(3, F.inv(3)) == 1

    def test_gf4(self):
        F = GaloisField(4)
        # additive group is elementary abelian 2-group
        assert all(F.add(a, a) == 0 for a in range(4))
        # multiplicative group is cyclic of order 3
        assert sorted(F.mul(2, b) for b in (1, 2, 3)) == [1, 2, 3]
        assert F.mul(F.mul(2, 2), 2) == 1

    def test_field_axiom_spot_checks(self):
        for q in (2, 3, 4, 8, 9):
            F = GaloisField(q)
            rng = random.Random(q)
            for _ in range(40):
                a, b, c = (rng.randrange(q) for _ in range(3))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(a, b) == F.mul(b, a)
            for a in range(1, q):
                assert F.mul(a, F.inv(a)) == 1

    def test_modulus_irreducible(self):
        for q in (4, 8, 9, 16, 25, 27):
            F = GaloisField(q)
            assert poly_is_irreducible(GaloisField(F.p), F.modulus)

    def test_not_prime_power(self):
        with pytest.raises(DomainError):
            GaloisField(6)
        with pytest.raises(DomainError):
            GaloisField(1)

    def test_instances_cached(self):
        assert GaloisField(9) is GaloisField(9)


class TestPolynomials:
    def test_divmod_round_trip(self):
        F = GaloisField(3)
        rng = random.Random(0)
        for _ in range(60):
            a = tuple(rng.randrange(3) for _ in range(rng.randint(0, 6)))
            b = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
            if not any(b):
                continue
            q, r = poly_divmod(F, a, b)
            back = poly_mul(F, q, b)
            from euctype.rings import poly_add, poly_trim

            assert poly_add(F, back, r) == poly_trim(a)
            assert len(poly_trim(r)) - 1 < len(poly_trim(b)) - 1

    def test_irreducibility(self):
        F = GaloisField(2)
        assert poly_is_irreducible(F, (1, 1, 1))      # t^2+t+1
        assert not poly_is_irreducible(F, (1, 0, 1))  # t^2+1 = (t+1)^2
        assert not poly_is_irreducible(F, (1,))       # constants

    def test_factor(self):
        F = GaloisField(2)
        assert poly_factor(F, (0, 0, 1)) == {(0, 1): 2}            # t^2
        assert poly_factor(F, (0, 1, 1)) == {(0, 1): 1, (1, 1): 1}  # t^2+t
        assert poly_factor(F, (1, 1, 1)) == {(1, 1, 1): 1}

    def test_format(self):
        assert format_poly(()) == "0"
        assert format_poly((1, 1, 1)) == "t^2+t+1"
        assert format_poly((0, 2)) == "2*t"
        assert format_poly((3,)) == "3"


class TestZmod:
    def test_arithmetic(self):
        R = Zmod(12)
        assert R.add(7, 8) == 3
        assert R.mul(7, 8) == 8
        assert R.neg(5) == 7
        assert R.sub(3, 5) == 10

    def test_too_small(self):
        with pytest.raises(DomainError):
            Zmod(1)

    def test_units(self):
        assert Zmod(12).units() == frozenset({1, 5, 7, 11})
        assert Zmod(7).units() == frozenset(range(1, 7))

    def test_ideals(self):
        R = Zmod(12)
        ideals = R.all_ideals()
        assert len(ideals) == 6  # divisors of 12
        assert R.is_principal()

    def test_divides(self):
        R = Zmod(12)
        assert R.divides(2, 4)
        assert R.divides(2, 6)
        assert not R.divides(4, 2)
        assert R.divides(5, 1)  # unit divides everything
        assert R.strictly_divides(2, 4)
        assert not R.strictly_divides(2, 2)

    def test_element_length(self):
        R = Zmod(12)
        assert R.element_length(1) == 0
        assert R.element_length(2) == 1
        assert R.element_length(4) == 2
        assert R.element_length(0) == 3

    def test_prime_power_lengths(self):
        R = Zmod(27)
        for a in range(3):
            u = 2  # a unit
            assert R.element_length((u * 3 ** a) % 27) == a
        assert R.element_length(0) == 3

    @given(st.integers(2, 60))
    @settings(max_examples=20, deadline=None)
    def test_divisor_oracle(self, n):
        R = Zmod(n)
        import math

        for x in range(n):
            for y in range(n):
                assert R.divides(x, y) == (y % math.gcd(x, n) == 0)


class TestPolyQuotient:
    def test_gf2_quadratic_field(self):
        R = PolyQuotient(GaloisField(2), (1, 1, 1))
        t = (0, 1)
        assert R.mul(t, t) == (1, 1)  # t^2 = t+1
        assert len(R.units()) == 3

    def test_truncated(self):
        R = PolyQuotient(GaloisField(2), (0, 0, 1))  # t^2
        t = (0, 1)
        assert R.mul(t, t) == (0, 0)
        assert R.element_length(t) == 1
        assert R.element_length(R.zero) == 2

    def test_monic_normalization(self):
        F = GaloisField(3)
        a = PolyQuotient(F, (1, 0, 2))      # 2t^2+1
        b = PolyQuotient(F, (2, 0, 1))      # monic associate t^2+2
        assert a.modulus == b.modulus

    def test_degree_zero_rejected(self):
        with pytest.raises(DomainError):
            PolyQuotient(GaloisField(2), (1,))

    def test_reduce(self):
        R = PolyQuotient(GaloisField(2), (1, 1, 1))
        assert R.reduce((0, 0, 1)) == (1, 1)
        assert R.reduce(()) == (0, 0)


class TestProductAndQuotient:
    def test_product_basics(self):
        P = ProductRing([Zmod(2), Zmod(3)])
        assert len(P) == 6
        assert P.one == (1, 1)
        assert P.mul((1, 2), (1, 2)) == (1, 1)
        assert P.inject(1, 2) == (0, 2)
        assert P.format_element((1, 2)) == "(1, 2)"

    def test_product_units(self):
        P = ProductRing([Zmod(4), Zmod(9)])
        assert len(P.units()) == 2 * 6

    def test_quotient_of_zmod(self):
        Q = Zmod(12).quotient_ring(4)
        assert len(Q) == 4
        assert {Q.add(x, x) for x in Q.elements} <= set(Q.elements)
        # behaves like Z/4
        assert Q.mul(Q.projection(2), Q.projection(2)) == Q.projection(0)

    def test_quotient_by_unit_rejected(self):
        with pytest.raises(DomainError):
            Zmod(12).quotient_ring(5)

    def test_quotient_of_product(self):
        P = ProductRing([Zmod(2), Zmod(3)])
        Q = P.quotient_ring((0, 1))  # kill the Z/3 factor
        assert len(Q) == 2
        assert Q.one != Q.zero

    def test_cosets_partition(self):
        R = Zmod(12)
        Q = R.quotient_ring(3)
        for xbar in Q.elements:
            members = [x for x in R.elements if Q.projection(x) == xbar]
            assert xbar in members and len(members) == 4
        assert set(map(Q.projection, R.elements)) == set(Q.elements)


class TestFixture:
    def test_shape(self):
        R = truncated_bivariate_fixture()
        assert len(R) == 8
        assert R.name == "GF(2)[x,y]/(x,y)^2"
        assert R.mul("x", "x") == "0"
        assert R.mul("x", "y") == "0"
        assert R.add("x", "y") == "x+y"
        assert R.neg("x") == "x"

    def test_not_principal(self):
        R = truncated_bivariate_fixture()
        assert not R.is_principal()
        # the maximal ideal {0, x, y, x+y} is not any principal ideal
        maximal = frozenset({"0", "x", "y", "x+y"})
        assert maximal in R.all_ideals()
        assert maximal not in set(R.principal_ideals().values())

    def test_units(self):
        R = truncated_bivariate_fixture()
        assert R.units() == frozenset({"1", "1+x", "1+y", "1+x+y"})


class TestCRT:
    def _check_iso(self, ring):
        locals_, coords = crt_decompose(ring)
        product = ProductRing(locals_) if len(locals_) > 1 else locals_[0]

        def wrap(x):
            return coords(x) if len(locals_) > 1 else coords(x)[0]

        assert len(set(map(coords, ring.elements))) == len(ring.elements)
        for x in ring.elements:
            for y in ring.elements:
                assert wrap(ring.add(x, y)) == product.add(wrap(x), wrap(y))
                assert wrap(ring.mul(x, y)) == product.mul(wrap(x), wrap(y))
        assert wrap(ring.one) == product.one

    def test_zmod(self):
        self._check_iso(Zmod(12))
        self._check_iso(Zmod(30))
        assert [r.name for r in crt_decompose(Zmod(12))[0]] == ["Z/4", "Z/3"]

    def test_local_zmod_unchanged(self):
        locals_, _ = crt_decompose(Zmod(8))
        assert len(locals_) == 1 and locals_[0].n == 8

    def test_poly_quotient(self):
        R = PolyQuotient(GaloisField(2), (0, 1, 1))  # t^2+t = t(t+1)
        locals_, _ = crt_decompose(R)
        assert len(locals_) == 2
        assert all(len(loc) == 2 for loc in locals_)
        self._check_iso(R)

    def test_product(self):
        self._check_iso(ProductRing([Zmod(6), Zmod(10)]))

    def test_quotient(self):
        self._check_iso(Zmod(360).quotient_ring(12))
        self._check_iso(ProductRing([Zmod(8), Zmod(27)]).quotient_ring((2, 3)))
        assert [r.name for r in crt_decompose(Zmod(360).quotient_ring(12))[0]] == [
            "Z/8/(4)", "Z/9/(3)"]
        # a quotient of a local ring stays local
        assert crt_decompose(Zmod(12).quotient_ring(4))[0][0].name == "Z/12/(4)"

    def test_non_principal_rejected(self):
        with pytest.raises(DomainError):
            crt_decompose(truncated_bivariate_fixture())

    def test_principal_quotient_of_the_specimen(self):
        # GF(2)[x,y]/(x,y)^2/(x) is GF(2)[y]/(y^2): principal and local
        quot = truncated_bivariate_fixture().quotient_ring("x")
        locals_, coords = crt_decompose(quot)
        assert locals_ == [quot] and [coords(x) for x in quot.elements] == [
            (x,) for x in quot.elements]
        self._check_iso(ProductRing([quot, Zmod(3)]))
        assert [r.name for r in crt_decompose(ProductRing([quot, Zmod(3)]))[0]] == [
            "GF(2)[x,y]/(x,y)^2/(x)", "Z/3"]
        # principal but not local: split by the primitive idempotents
        fixture = truncated_bivariate_fixture()
        for m, b, sizes in ((3, ("x", 0), [3, 4]), (4, ("y", 0), [4, 4])):
            mixed = ProductRing([fixture, Zmod(m)]).quotient_ring(b)
            assert mixed.is_principal()
            self._check_iso(mixed)
            locals_, _ = crt_decompose(mixed)
            assert [len(loc) for loc in locals_] == sizes
            assert [len(parse_ring_spec(loc.name)) for loc in locals_] == sizes

    def test_coordinates_are_a_bijection_onto_the_product(self):
        fixture = truncated_bivariate_fixture()
        quot = fixture.quotient_ring("x")
        rings = [Zmod(12), Zmod(30), Zmod(8), PolyQuotient(GaloisField(2), (0, 1, 1)),
                 ProductRing([Zmod(6), Zmod(10)]), Zmod(360).quotient_ring(12),
                 ProductRing([Zmod(8), Zmod(27)]).quotient_ring((2, 3)),
                 Zmod(12).quotient_ring(4), quot, ProductRing([quot, Zmod(3)]),
                 ProductRing([fixture, Zmod(3)]).quotient_ring(("x", 0)),
                 ProductRing([fixture, Zmod(4)]).quotient_ring(("y", 0))]
        for ring in rings:
            locals_, coords = crt_decompose(ring)
            image = list(map(coords, ring.elements))
            assert len(set(image)) == len(ring.elements), ring.name
            assert set(image) == set(itertools.product(*(loc.elements for loc in locals_))), \
                ring.name


class TestBounds:
    def test_ideal_enumeration_bound(self, monkeypatch):
        with pytest.raises(ResourceError, match="Z/600 has 600 elements; ideal enumeration "
                                                "is bounded at 512$"):
            Zmod(600).all_ideals()
        monkeypatch.setattr(rings, "IDEAL_ENUMERATION_BOUND", 599)
        with pytest.raises(ResourceError, match="is bounded at 599$"):
            Zmod(600).all_ideals()
        monkeypatch.setattr(rings, "IDEAL_ENUMERATION_BOUND", 600)
        assert len(Zmod(600).all_ideals()) == 24

    def test_ideal_list_is_built_once_and_still_bounded(self, monkeypatch):
        R = truncated_bivariate_fixture()
        ideals = R.all_ideals()
        assert R.all_ideals() is ideals and len(ideals) == 6
        monkeypatch.setattr(rings, "IDEAL_ENUMERATION_BOUND", 4)
        with pytest.raises(ResourceError):
            R.all_ideals()

    def test_element_length_needs_principal(self):
        with pytest.raises(DomainError):
            truncated_bivariate_fixture().element_length("x")


@pytest.fixture
def collector_state():
    """Puts the cyclic collector back as the test found it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


class TestCarrierBuild:
    """Carriers are built with the cyclic collector paused, and the caller's
    collector state is left as it was."""

    def test_the_collector_state_is_restored(self, collector_state):
        F = GaloisField(3)
        builds = [lambda: Zmod(360), lambda: PolyQuotient(F, (0, 0, 0, 1)),
                  lambda: ProductRing([Zmod(4), PolyQuotient(F, (1, 0, 1))]),
                  lambda: parse_ring_spec("GF(2)[t]/(t^5) x Z/6")]
        for enabled in (True, False, True):
            (gc.enable if enabled else gc.disable)()
            for build in builds:
                ring = build()
                assert gc.isenabled() == enabled, ring.name
                assert len(ring.elements) == len(set(ring.elements)) > 1, ring.name

    def test_the_collector_is_paused_during_the_build(self, collector_state):
        seen = []

        def elements(fail):
            seen.append(gc.isenabled())
            yield 0
            if fail:
                raise ValueError("stop")

        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert rings._build_carrier(elements(False)) == (0,)
            assert gc.isenabled() == enabled
            with pytest.raises(ValueError, match="stop"):
                rings._build_carrier(elements(True))
            assert gc.isenabled() == enabled
        assert seen == [False] * 4


# ---------------------------------------------------------------------------
# the former factoring loops, kept as oracles for the shared ones


def _former_poly_factor(F, f):
    """poly_factor as it was: the least irreducible divisor, one at a time."""
    f = poly_trim(f)
    factors = {}
    f = poly_mul(F, f, (F.inv(f[-1]),))
    d = 1
    while len(f) - 1 >= 1:
        hit = False
        for g in _monic_polys(F, d):
            if len(g) - 1 > len(f) - 1:
                break
            if poly_is_irreducible(F, g) and not poly_mod(F, f, g):
                factors[g] = factors.get(g, 0) + 1
                f = poly_divmod(F, f, g)[0]
                hit = True
                break
        if not hit:
            d += 1
    return factors


def _sieved_factorizations(limit):
    """n -> {p: exponent} for 2 <= n < limit, from a sieve of Eratosthenes."""
    composite = [False] * limit
    primes = []
    for n in range(2, limit):
        if not composite[n]:
            primes.append(n)
            for m in range(n * n, limit, n):
                composite[m] = True
    out = {}
    for n in range(2, limit):
        fac = {}
        for p in primes:
            if n % p == 0:
                fac[p] = max(k for k in range(1, n.bit_length() + 1) if n % p ** k == 0)
        out[n] = fac
    return out


class TestFactoringOracles:
    @pytest.mark.parametrize("q, max_degree", [(2, 8), (3, 5), (4, 4), (5, 3)])
    def test_poly_factor_matches_the_former_loop(self, q, max_degree):
        F = GaloisField(q)
        for d in range(max_degree + 1):
            for f in _monic_polys(F, d):
                fac = poly_factor(F, f)
                assert list(fac.items()) == list(_former_poly_factor(F, f).items())
                for g, k in fac.items():
                    assert _poly_multiplicity(F, f, g)[0] == k

    def test_poly_multiplicity_cofactor(self):
        F = GaloisField(3)
        g, h = (1, 1), (1, 0, 1)  # t+1 and t^2+1, which t+1 does not divide
        f = h
        for k in range(5):
            assert _poly_multiplicity(F, f, g) == (k, h)
            f = poly_mul(F, f, g)

    def test_integer_factoring_against_a_sieve(self):
        for n, fac in _sieved_factorizations(5000).items():
            assert _int_factor(n) == fac
            assert _least_prime_factor(n) == min(fac)
            if len(fac) == 1:
                assert _prime_power(n) == next(iter(fac.items()))
            else:
                with pytest.raises(DomainError, match="is not a prime power"):
                    _prime_power(n)
            if fac == {n: 1}:
                assert _check_primes([n]) == (n,)
            else:
                with pytest.raises(DomainError, match=f"^{n} is not prime$"):
                    _check_primes([n])

    def test_miller_rabin_against_a_sieve_and_pseudoprimes(self):
        for n, fac in _sieved_factorizations(5000).items():
            if n > 41:
                assert _is_prime(n) == (fac == {n: 1}), n
        # strong pseudoprimes to the bases 2..23 and 2..37, Carmichael numbers
        # and a product of two primes
        for n in (3825123056546413051, 318665857834031151167461, 561, 41041, 825265,
                  1000000007 * 998244353):
            assert not _is_prime(n), n
        assert _is_prime(2 ** 61 - 1) and _is_prime(10 ** 20 + 39)
        # the least strong pseudoprime to all thirteen bases: the bound is strict
        assert _is_prime(MILLER_RABIN_LIMIT)

    def test_large_primes_take_no_trial_division(self, monkeypatch):
        assert _least_prime_factor(100000000000031) == 100000000000031
        assert _least_prime_factor(3 * (2 ** 61 - 1)) == 3
        assert _least_prime_factor(1000003 * 1000033) == 1000003
        # primes above (10^7 + 1)^2, proven so, are their own least factor
        assert _least_prime_factor(1000000000000037) == 1000000000000037
        assert _least_prime_factor(10 ** 20 + 39) == 10 ** 20 + 39
        with pytest.raises(ResourceError, match="^318665857834031151167461 has no prime factor "
                                                "up to 10000000, where trial division stops$"):
            _least_prime_factor(399165290221 * 798330580441)
        monkeypatch.setattr(rings, "TRIAL_DIVISION_BOUND", 10)
        assert _least_prime_factor(2 ** 61 - 1) == 2 ** 61 - 1
        with pytest.raises(ResourceError, match="^1000036000099 has no prime factor up to 10,"):
            _least_prime_factor(1000003 * 1000033)

    def test_trial_division_stops_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(rings, "TRIAL_DIVISION_BOUND", 10)
        for n, fac in _sieved_factorizations(121).items():  # every n below (10 + 1)^2
            assert _int_factor(n) == fac
        for n in (121, 11 * 13, 101 * 103):
            with pytest.raises(ResourceError, match="no prime factor up to 10"):
                _least_prime_factor(n)
        assert _int_factor(2 * 3 * 101) == {2: 1, 3: 1, 101: 1}
        with pytest.raises(ResourceError):
            _int_factor(2 * 11 * 11)
        with pytest.raises(ResourceError):
            _check_primes([127])


# ---------------------------------------------------------------------------
# the former field arithmetic, kept as the oracle for the logarithm tables

NON_PRIME_FIELDS = [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256]


def _former_field(q):
    """The modulus and the q x q product table that GaloisField(q) built, k > 1."""
    p, k = _prime_power(q)
    base = GaloisField(p)
    for m in range(q):
        modulus = poly_trim(_digits(m, p, k) + (1,))
        if poly_is_irreducible(base, modulus):
            break
    table = {}
    for a in range(q):
        pa = _digits(a, p, k)
        for b in range(q):
            prod = poly_mod(base, poly_mul(base, pa, _digits(b, p, k)), modulus)
            table[(a, b)] = _undigits(prod, p)
    return modulus, table


def _former_inverse(q, table, a):
    for b in range(1, q):
        if table[(a, b)] == 1:
            return b
    raise AssertionError("field element without inverse")


class TestFieldOracle:
    def test_the_oracle_covers_every_non_prime_field_up_to_256(self):
        expected = [q for q in range(2, 257) if len(_int_factor(q)) == 1
                    and max(_int_factor(q).values()) > 1]
        assert NON_PRIME_FIELDS == expected

    @pytest.mark.parametrize("q", NON_PRIME_FIELDS)
    def test_logarithm_tables_match_the_former_product_table(self, q):
        F = GaloisField(q)
        modulus, table = _former_field(q)
        assert F.modulus == modulus
        base, p, k = GaloisField(F.p), F.p, F.k
        for a in range(q):
            da = _digits(a, p, k)
            assert F.neg(a) == _undigits(poly_neg(base, da), p)
            for b in range(q):
                assert F.add(a, b) == _undigits(poly_add(base, da, _digits(b, p, k)), p)
                assert F.mul(a, b) == table[(a, b)]
        for a in range(1, q):
            assert F.inv(a) == _former_inverse(q, table, a)
        with pytest.raises(DomainError, match="zero has no inverse"):
            F.inv(0)


def _digit_add(F, a, b):
    """The former GaloisField.add for k > 1: digit tuples and back."""
    p, k = F.p, F.k
    return _undigits([(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)


def _digit_neg(F, a):
    return _undigits([(-x) % F.p for x in _digits(a, F.p, F.k)], F.p)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 4, 8, 9, 27, 256])
def test_integer_addition_matches_the_digit_form(q):
    F = GaloisField(q)
    for a in range(q):
        assert F.neg(a) == _digit_neg(F, a)
        for b in range(q):
            assert F.add(a, b) == _digit_add(F, a, b)
