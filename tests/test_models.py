import functools
import math
import random
import time
from fractions import Fraction

import pytest

from euctype import euclidean, models
from euctype.errors import DomainError, ResourceError
from euctype.models import (
    RingSpec,
    _integer_window_table,
    _localized_divide,
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
from euctype.ordinal import Ordinal, natural_sum, omega, omega_power


# ---------------------------------------------------------------------------
# the former implementations, kept as oracles for the integer kernels


def _double_loop_window_table(window):
    """The level construction on 1..window, one coset at a time."""
    phi = {}
    for b in range(1, window + 1):
        worst = 0
        for r in range(1, b):
            best = phi[r]
            other = b - r  # magnitude of r - b, also below b
            if phi[other] < best:
                best = phi[other]
            if best + 1 > worst:
                worst = best + 1
        phi[b] = worst
    return phi


def _fraction_exponent(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _fraction_in_localization(x, primes):
    return all(x.denominator % p for p in primes)


def _fraction_value(primes, x):
    return sum(_fraction_exponent(abs(x.numerator), p) for p in primes)


def _fraction_divide(primes, a, b, search=64):
    """(q, r) with a = q b + r in the localization and r = 0 or of smaller
    value than b, on Fractions; None if the scan finds none."""
    vb = _fraction_value(primes, b)
    m = 1
    for p in primes:
        m *= p ** _fraction_exponent(abs(b.numerator), p)
    if m == 1:
        return a / b, Fraction(0)
    num = a.numerator % m
    den_inv = pow(a.denominator, -1, m)
    abar = (num * den_inv) % m
    if abar == 0:
        return a / b, Fraction(0)
    for k in range(-search, search + 1):
        r = Fraction(abar + k * m)
        if r == 0:
            continue
        if _fraction_value(primes, r) < vb:
            q = (a - r) / b
            if _fraction_in_localization(q, primes):
                return q, r
    return None


def _fraction_samples(primes, samples, seed, height):
    rng = random.Random(seed)

    def sample_element():
        num = rng.randint(-height, height)
        while True:
            den = rng.randint(1, height)
            if all(den % p for p in primes):
                return Fraction(num, den)

    for _ in range(samples):
        a = sample_element()
        b = sample_element()
        while b == 0:
            b = sample_element()
        yield a, b


def _fraction_failures(primes, samples, seed, height=50, search=64):
    primes = tuple(sorted(set(primes)))
    return [(a, b) for a, b in _fraction_samples(primes, samples, seed, height)
            if _fraction_divide(primes, a, b, search) is None]


def _per_sample_check(primes, samples, seed=0, height=50):
    """The former check, one ``_localized_divide`` call per sample and one
    gcd per denominator draw, kept as the oracle for the per-call tables."""
    primes = tuple(sorted(set(primes)))
    getrandbits = random.Random(seed).getrandbits
    radical = math.prod(primes)
    span = 2 * height + 1
    num_bits, den_bits = span.bit_length(), height.bit_length()

    def sample_element():
        num = getrandbits(num_bits)
        while num >= span:
            num = getrandbits(num_bits)
        while True:
            den = getrandbits(den_bits) + 1
            if den <= height and math.gcd(den, radical) == 1:
                return num - height, den

    failures = []
    for _ in range(samples):
        a_num, a_den = sample_element()
        b_num, b_den = sample_element()
        while b_num == 0:
            b_num, b_den = sample_element()
        if models._localized_divide(primes, a_num, a_den, b_num) is None:
            failures.append((Fraction(a_num, a_den), Fraction(b_num, b_den)))
    return failures


class TestWindowedIntegers:
    def test_values(self):
        m = windowed_bottom_integers(report_bound=256)
        assert m.values[1] == 0
        for n in range(2, 257):
            assert m.values[n] == int(math.log2(n))

    def test_binary_digit_relation(self):
        # the count of binary digits of n is the reported value plus one
        m = windowed_bottom_integers(report_bound=64)
        for n, v in m.values.items():
            assert len(bin(n)) - 2 == v + 1

    def test_certificate(self):
        m = windowed_bottom_integers(report_bound=100, start_window=100)
        a, b = m.certificate.window_a, m.certificate.window_b
        assert 100 <= a < b

    def test_monotone_in_magnitude(self):
        m = windowed_bottom_integers(report_bound=128)
        for n in range(1, 128):
            assert m.values[n] <= m.values[n + 1]

    def test_bad_bound(self):
        with pytest.raises(DomainError):
            windowed_bottom_integers(report_bound=0)
        with pytest.raises(DomainError):
            windowed_bottom_integers(report_bound=100, growth_factor=1)

    def test_report_is_the_same_on_every_window(self):
        # the value of b reads only values below b
        big = _integer_window_table(512)
        for bound in (1, 7, 64, 100, 300):
            m = windowed_bottom_integers(report_bound=bound)
            assert m.values == {n: big[n] for n in range(1, bound + 1)}

    def test_certificate_names_the_schedule(self):
        for args, windows in [((1,), (64, 128)), ((64,), (64, 128)), ((65,), (128, 256)),
                              ((100, 100), (100, 200)), ((10, 3, 3), (27, 81)),
                              ((8192,), (8192, 1 << 14)), ((5000, 5000, 3), (5000, 15000))]:
            cert = windowed_bottom_integers(*args).certificate
            assert (cert.window_a, cert.window_b) == windows

    def test_resource_bound(self):
        # a next window above MAX_WINDOW = 2^14 is refused
        assert models.MAX_WINDOW == 1 << 14
        with pytest.raises(ResourceError):
            windowed_bottom_integers(report_bound=8193)  # default cap: 8192
        with pytest.raises(ResourceError):
            windowed_bottom_integers(report_bound=5000, start_window=5000, growth_factor=4)
        with pytest.raises(ResourceError):
            windowed_bottom_integers(report_bound=100, start_window=1 << 14)

    def test_bitset_levels_match_the_double_loop(self):
        # the value of b reads only values below b, so the double loop on
        # 1..1024 holds the oracle for every smaller bound.  The slots of
        # the level sets widen from one byte to two at 128 and to three at
        # 32768, where the oracle is the bit length, as in the next test
        oracle = _double_loop_window_table(1024)
        for bound in list(range(1, 601)) + [1024]:
            assert _integer_window_table(bound) == {n: oracle[n] for n in range(1, bound + 1)}
        for bound in (32767, 32768):
            table = _integer_window_table(bound)
            assert table == {n: n.bit_length() - 1 for n in range(1, bound + 1)}

    def test_value_plus_one_is_the_bit_length(self):
        # the claim in the model-z note, up to the largest bound it accepts
        table = _integer_window_table(8192)
        assert all(v + 1 == n.bit_length() for n, v in table.items())
        assert len(table) == 8192


class TestWindowedPolynomials:
    def test_gf2(self):
        m = windowed_bottom_polynomials(2, report_degree=10)
        for p, v in m.values.items():
            assert v == len(p) - 1
        degrees = {len(p) - 1 for p in m.values}
        assert degrees == set(range(11))

    def test_gf3_small(self):
        m = windowed_bottom_polynomials(3, report_degree=4)
        for p, v in m.values.items():
            assert v == len(p) - 1
        assert len(m.values) == 3 ** 5 - 1

    def test_units_at_zero(self):
        m = windowed_bottom_polynomials(2, report_degree=3)
        assert m.values[(1,)] == 0

    def test_certificate_names_the_schedule(self):
        for args, windows in [((2, 0), (8, 12)), ((2, 8), (8, 12)), ((2, 9), (12, 16)),
                              ((3, 10), (12, 16)), ((2, 13), (16, 20))]:
            cert = windowed_bottom_polynomials(*args).certificate
            assert (cert.window_a, cert.window_b) == windows
            assert windowed_polynomial_levels(*args).certificate == cert

    def test_every_admitted_degree_has_a_bounded_window(self):
        # the carrier bound refuses degree 18 and above, so the degree
        # windows stay at most 20 and 24, reached at degree 17 over GF(2)
        for q in (2, 3, 4, 5, 7, 8, 9, 1 << 18):
            degree = 0
            while q ** (degree + 1) <= models.MAX_POLY_CARRIER:
                cert = windowed_polynomial_levels(q, report_degree=degree).certificate
                assert degree <= cert.window_a <= 20 and cert.window_b <= 24
                degree += 1
            with pytest.raises(ResourceError):
                windowed_polynomial_levels(q, report_degree=degree)
        cert = windowed_polynomial_levels(2, report_degree=17).certificate
        assert (cert.window_a, cert.window_b) == (20, 24)

    def test_carrier_bound(self):
        # q^(d+1) polynomials at most: 2^18
        for q, d in ((4, 10), (4, 9), (2, 18), (3, 12), (1 << 20, 0), (2, 10 ** 9)):
            with pytest.raises(ResourceError):
                windowed_bottom_polynomials(q, report_degree=d)
        with pytest.raises(DomainError):
            windowed_bottom_polynomials(6, report_degree=2)
        with pytest.raises(DomainError):
            windowed_bottom_polynomials(2, report_degree=-1)
        assert len(windowed_bottom_polynomials(4, report_degree=8).values) == 4 ** 9 - 1


class TestLocalization:
    def test_examples(self):
        assert localization_function([2, 3], Fraction(12, 5)) == 3
        assert localization_function([2, 3], Fraction(7, 5)) == 0
        assert localization_function([2], Fraction(8)) == 3

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            localization_function([2], Fraction(0))

    def test_outside_localization(self):
        with pytest.raises(DomainError):
            localization_function([2, 3], Fraction(1, 6))

    def test_not_prime(self):
        with pytest.raises(DomainError):
            localization_function([4], Fraction(3))
        with pytest.raises(DomainError):
            localization_function([], Fraction(3))

    def test_sampled_division(self):
        result = check_localization_euclidean([2, 3], samples=2000, seed=0)
        assert result.ok
        assert result.samples == 2000
        assert result.seed == 0
        assert result.failures == []

    def test_other_prime_sets(self):
        assert check_localization_euclidean([5], samples=500, seed=3).ok
        assert check_localization_euclidean([2, 3, 5], samples=500, seed=4).ok

    def test_sample_count_is_bounded(self, monkeypatch):
        monkeypatch.setattr(models, "MAX_SAMPLES", 5)
        assert check_localization_euclidean([2], samples=5).samples == 5
        with pytest.raises(ResourceError, match="bounded at 5"):
            check_localization_euclidean([2], samples=6)

    def test_samples_are_the_randint_stream(self, monkeypatch):
        # with every division failing, the failures list every sampled pair
        monkeypatch.setattr(models, "_localized_divide", lambda *args: None)
        for primes in [(2,), (3, 7), (2, 3, 5, 7)]:
            for seed in range(50):
                for height in range(1, 61):
                    result = check_localization_euclidean(primes, samples=4, seed=seed,
                                                          height=height)
                    assert result.failures == list(_fraction_samples(primes, 4, seed, height))

    def test_height_below_one_is_refused(self):
        for height in (0, -1):
            with pytest.raises(DomainError, match="height must be at least 1"):
                check_localization_euclidean([2], samples=1, height=height)

    def test_integer_kernel_matches_the_fraction_code(self):
        prime_sets = [(2,), (3,), (97,), (2, 3), (5, 7, 11), (2, 3, 5, 7, 11, 13)]
        for seed in range(6):
            for primes in prime_sets:
                for height in (5, 50, 500, 5000):
                    result = check_localization_euclidean(primes, samples=60, seed=seed,
                                                          height=height)
                    assert result.failures == _fraction_failures(primes, 60, seed, height)

    PRIME_SETS = [(2,), (3, 7), (2, 3, 5, 7), (97,), (2, 3, 5, 7, 11, 13)]

    @staticmethod
    def _key_moduli(primes, height):
        """The m <= height that are products of powers of the primes, by a scan."""
        return [m for m in range(1, height + 1)
                if math.prod(p ** _fraction_exponent(m, p) for p in primes) == m]

    def _key_count(self, primes, height):
        """The number of keys (m, abar) with m <= height."""
        return sum(self._key_moduli(primes, height))

    @pytest.mark.parametrize("search", [0, 64])
    def test_tables_match_the_per_sample_loop(self, monkeypatch, search):
        # search=0 makes many divisions fail, so the failures lists are long.
        # Besides 12 samples, one count below the key count, where keys are
        # decided as they are drawn, and one equal to it, where every key is
        # decided first: on every seed where the keys number at most 30, on
        # seeds 0-2 up to 10^4 keys
        monkeypatch.setattr(models, "_localized_divide",
                            functools.partial(_localized_divide, search=search))
        sides, failed = set(), 0
        for primes in self.PRIME_SETS:
            for height in [*range(1, 61), 5000]:
                keys = self._key_count(primes, height)
                for seed in range(50):
                    counts = [12]
                    if keys <= 30 or (seed < 3 and keys <= 10_000):
                        counts += [keys - 1, keys]
                    for samples in counts:
                        result = check_localization_euclidean(primes, samples=samples,
                                                              seed=seed, height=height)
                        assert result.failures == _per_sample_check(primes, samples, seed,
                                                                    height)
                        assert result.ok == (not result.failures)
                        assert result.samples == samples and result.seed == seed
                        sides.add((samples >= keys, result.ok))
                        failed += len(result.failures)
        assert (failed > 1000) == (search == 0)
        assert sides == ({(False, True), (True, True), (False, False), (True, False)}
                         if search == 0 else {(False, True), (True, True)})

    @pytest.mark.parametrize("search", [0, 64])
    def test_decided_keys_match_the_fraction_code(self, monkeypatch, search):
        monkeypatch.setattr(models, "_localized_divide",
                            functools.partial(_localized_divide, search=search))
        for primes in self.PRIME_SETS:
            for height in (1, 2, 7, 12, 30, 60, 5000):
                keys = self._key_count(primes, height)
                if keys > 1200:
                    continue
                for seed in range(3):
                    for samples in (keys - 1, keys, keys + 1):
                        result = check_localization_euclidean(primes, samples=samples,
                                                              seed=seed, height=height)
                        assert result.failures == _fraction_failures(primes, samples, seed,
                                                                     height, search)

    def test_key_moduli_are_the_products_of_prime_powers(self):
        for primes in self.PRIME_SETS:
            for height in [*range(1, 61), 5000]:
                keys = self._key_count(primes, height)
                moduli = models._smooth_moduli(primes, height, keys)
                assert sorted(moduli) == self._key_moduli(primes, height)
                assert models._smooth_moduli(primes, height, keys - 1) is None

    def test_no_draw_when_every_key_divides(self, monkeypatch):
        def refuse(seed):
            raise AssertionError("a random generator was made")

        monkeypatch.setattr(models.random, "Random", refuse)
        for primes, height in [((2,), 1), ((2, 3), 30), ((2, 3, 5, 7), 50), ((97,), 5000)]:
            keys = self._key_count(primes, height)
            for samples in (keys, keys + 1, models.MAX_SAMPLES):
                assert check_localization_euclidean(primes, samples=samples, seed=3,
                                                    height=height) == models.SampledCheck(
                    True, samples, 3, [])
            with pytest.raises(AssertionError, match="random generator"):
                check_localization_euclidean(primes, samples=keys - 1, height=height)

    def test_huge_height_enumerates_no_range(self):
        # the powers of 2 up to 10^12 sum past 10 after four of them, so the
        # keys are never listed and the ten samples are drawn
        start = time.perf_counter()
        result = check_localization_euclidean([2], samples=10, height=10 ** 12)
        assert result.ok and result.samples == 10
        assert models._smooth_moduli((2,), 10 ** 12, 10) is None
        assert time.perf_counter() - start < 1.0

    def test_one_division_per_modulus_and_residue(self, monkeypatch):
        calls = []

        def counted(primes, a_num, a_den, b_num, search=64):
            m = math.prod(p ** _fraction_exponent(abs(b_num), p) for p in primes)
            calls.append((m, a_num * pow(a_den, -1, m) % m))
            return _localized_divide(primes, a_num, a_den, b_num, search)

        monkeypatch.setattr(models, "_localized_divide", counted)
        result = check_localization_euclidean((2, 3), samples=5000, seed=1, height=30)
        assert result.ok and result.failures == []
        assert len(calls) == len(set(calls)) <= 30 * 30
        assert len(calls) < 1000

    def test_failures_match_the_fraction_code_on_a_short_scan(self, monkeypatch):
        # a scan of 2 * search + 1 remainders fails now and then: both sides
        # find the same remainder or both fail, on short scans and on the
        # full one, and the check reports the same failures
        failed = 0
        for primes in [(2,), (2, 3), (3, 5, 7), (2, 3, 5, 7, 11, 13)]:
            for search in (0, 1, 2, 64):
                for a, b in _fraction_samples(primes, 300, search, 200):
                    old = _fraction_divide(primes, a, b, search)
                    new = _localized_divide(primes, a.numerator, a.denominator, b.numerator,
                                            search)
                    assert new == (None if old is None else old[1])
                    failed += new is None
        assert failed > 100
        monkeypatch.setattr(models, "_localized_divide",
                            functools.partial(_localized_divide, search=0))
        for primes in [(2, 3), (3, 5, 7), (2, 3, 5, 7, 11, 13)]:
            result = check_localization_euclidean(primes, samples=300, seed=5, height=200)
            assert result.failures == _fraction_failures(primes, 300, 5, 200, search=0)
            assert result.failures and not result.ok


class TestNotLengthEuclidean:
    def test_integers(self):
        w = check_not_l_euclidean_integers()
        assert w.divisor == 5 and w.target == 2
        assert set(w.allowed_remainders) == {0, 1, -1}
        # the residue check is complete: no allowed remainder matches
        assert all((w.target - r) % w.divisor != 0 for r in w.allowed_remainders)

    def test_gf2(self):
        w = check_not_l_euclidean_polys(2)
        assert w.divisor == (1, 1, 1)
        assert w.target == (0, 1)
        assert set(w.allowed_remainders) == {(), (1,)}

    def test_gf3(self):
        w = check_not_l_euclidean_polys(3)
        assert w.divisor == (1, 0, 1)  # t^2+1, irreducible over GF(3)
        assert set(w.allowed_remainders) == {(), (1,), (2,)}

    def test_field_size_is_bounded(self, monkeypatch):
        monkeypatch.setattr(models, "MAX_WITNESS_FIELD", 4)
        assert len(check_not_l_euclidean_polys(4).allowed_remainders) == 4
        for q in (5, 8, 100003):
            with pytest.raises(ResourceError, match="more than 4 elements"):
                check_not_l_euclidean_polys(q)
        with pytest.raises(DomainError, match="not a prime power"):  # checked first
            check_not_l_euclidean_polys(6)


class TestRingSpec:
    def test_invariants(self):
        with pytest.raises(DomainError):
            RingSpec((), ())
        with pytest.raises(DomainError):
            RingSpec(("Q",), ())
        with pytest.raises(DomainError):
            RingSpec(("Z",), (0,))

    def test_str(self):
        assert str(RingSpec(("GF(2)[t]", "GF(2)[t]"), (3,))) == \
            "GF(2)[t] x GF(2)[t] x Z/8"
        assert str(RingSpec(("Z",), ())) == "Z"

    def test_order_type(self):
        assert order_type_of_spec(RingSpec(("Z", "Z"), (3,))) == omega * 2 + 3
        assert order_type_of_spec(RingSpec((), (2, 3))) == 5
        assert order_type_of_spec(RingSpec(("Z",), ())) == omega

    def test_permutation_and_concatenation(self):
        a = order_type_of_spec(RingSpec(("Z", "GF(2)[t]"), (1, 4)))
        b = order_type_of_spec(RingSpec(("GF(2)[t]", "Z"), (4, 1)))
        assert a == b == omega * 2 + 5


class TestProductBounds:
    def test_examples(self):
        assert product_bounds([omega, omega]) == (omega * 2, omega * 2)
        assert product_bounds([Ordinal(3), Ordinal(4)]) == (Ordinal(7), Ordinal(7))
        assert product_bounds([omega + 1, omega]) == (omega * 2, omega * 2 + 1)

    def test_empty(self):
        assert product_bounds([]) == (Ordinal(0), Ordinal(0))

    def test_lower_below_upper(self):
        samples = [omega, omega + 3, omega_power(2), Ordinal(5), omega * 4 + 1]
        lower, upper = product_bounds(samples)
        assert lower <= upper

    def test_collapse_criterion(self):
        # bounds agree exactly when every adjacent pair merges additively
        assert product_bounds([omega, omega, omega])[0] == \
            product_bounds([omega, omega, omega])[1]
        lower, upper = product_bounds([omega + 1, omega + 1])
        assert lower < upper


class TestRealize:
    def test_examples(self):
        assert str(realize_ordinal(omega * 2 + 3)) == "GF(2)[t] x GF(2)[t] x Z/8"
        assert realize_ordinal(Ordinal(5)) == RingSpec((), (5,))
        assert realize_ordinal(omega) == RingSpec(("GF(2)[t]",), ())

    def test_round_trip(self):
        for r in range(4):
            for n in range(4):
                a = omega * r + n
                if a.is_zero:
                    continue
                assert order_type_of_spec(realize_ordinal(a)) == a

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            realize_ordinal(Ordinal(0))

    def test_too_large(self):
        with pytest.raises(DomainError):
            realize_ordinal(omega_power(2))
        with pytest.raises(DomainError):
            realize_ordinal(omega_power(2) + 1)

    def test_spec_round_trip(self):
        spec = RingSpec(("GF(2)[t]",) * 2, (4,))
        assert realize_ordinal(order_type_of_spec(spec)) == spec


class TestCrossChecks:
    def test_finite_specs_match_fixed_point(self):
        # symbolic order type of a purely Artinian spec agrees with the
        # concrete fixed-point computation on the realizing ring
        from euctype.euclidean import bottom_euclidean, order_type
        from euctype.rings import Zmod

        for n in range(1, 6):
            spec = RingSpec((), (n,))
            e = order_type_of_spec(spec)
            concrete = order_type(bottom_euclidean(Zmod(2 ** n)))
            assert e == concrete

    def test_natural_sum_consistency(self):
        # the upper bound for two Artinian specs equals the order type of
        # their concatenation
        a = order_type_of_spec(RingSpec((), (2,)))
        b = order_type_of_spec(RingSpec((), (3,)))
        assert natural_sum(a, b) == order_type_of_spec(RingSpec((), (2, 3)))


class TestRecordContracts:
    """The result records print, compare and hash as the dataclasses they
    replaced did; ``EuclideanTable`` stays a writable class."""

    @pytest.mark.parametrize("record, text", [
        (lambda: models.StabilizationCertificate(3, 4),
         "StabilizationCertificate(window_a=3, window_b=4)"),
        (lambda: models.WindowedBottom({1: 0}, models.StabilizationCertificate(3, 4)),
         "WindowedBottom(values={1: 0}, certificate="
         "StabilizationCertificate(window_a=3, window_b=4))"),
        (lambda: models.SampledCheck(False, 3, 4, [(Fraction(1, 2), Fraction(3))]),
         "SampledCheck(ok=False, samples=3, seed=4, "
         "failures=[(Fraction(1, 2), Fraction(3, 1))])"),
        (lambda: models.LengthWitness(5, 2, (0, 1, -1), "d"),
         "LengthWitness(divisor=5, target=2, allowed_remainders=(0, 1, -1), description='d')"),
        (lambda: RingSpec(("Z",), (2,)), "RingSpec(pid_factors=('Z',), artinian_lengths=(2,))"),
        (lambda: euclidean.DivisionWitness(1, 2), "DivisionWitness(quotient=1, remainder=2)"),
        (lambda: euclidean.PairTable(1, {2: 3}, (4, 5)),
         "PairTable(ring=1, values={2: 3}, components=(4, 5))"),
        (lambda: euclidean.EuclideanTable("R", {1: 2}, 3, True),
         "EuclideanTable(ring='R', values={1: 2}, value_at_zero=3, validated=True, "
         "is_bottom=False)"),
    ])
    def test_repr_is_the_dataclass_text(self, record, text):
        assert repr(record()) == text

    def test_ring_spec_compares_and_hashes_by_its_fields(self):
        spec = RingSpec(pid_factors=("Z",), artinian_lengths=(2,))
        assert spec == RingSpec(("Z",), (2,)) and spec != RingSpec(("Z",), (3,))
        assert hash(spec) == hash(RingSpec(("Z",), (2,))) == hash((("Z",), (2,)))
        assert RingSpec(artinian_lengths=(1,)).pid_factors == ()
        with pytest.raises(AttributeError):
            spec.pid_factors = ()
        for args, message in [((), "a ring spec needs at least one factor"),
                              ((("Q",),), "unsupported PID factor 'Q'"),
                              ((("Z",), (0,)), "Artinian local lengths must be >= 1")]:
            with pytest.raises(DomainError) as info:
                RingSpec(*args)
            assert str(info.value) == message

    def test_euclidean_table_is_writable_and_compares_five_fields(self):
        table = euclidean.EuclideanTable("R", {1: 2}, 3, True)
        assert table.is_bottom is False
        assert table == euclidean.EuclideanTable("R", {1: 2}, 3, True, False)
        for name, other in [("ring", "S"), ("values", {1: 1}), ("value_at_zero", 4),
                            ("validated", False), ("is_bottom", True)]:
            changed = euclidean.EuclideanTable("R", {1: 2}, 3, True)
            setattr(changed, name, other)
            assert getattr(changed, name) == other and changed != table
        assert table != ("R", {1: 2}, 3, True, False)
        with pytest.raises(TypeError):
            hash(table)
