"""Bounded computational models of the classical infinite examples.

The integers and the polynomial rings over a finite field are explored
on finite windows by the least-Euclidean-value level construction.  The
value of b reads only values below b (or of lower degree), so the report
is the same on every window at or above the report range, and one pass
over that range computes it.  The certificate names two such windows of
a fixed schedule; the cost of the pass is bounded and stated, and larger
requests stop with :class:`ResourceError`.

The module also houses the symbolic side: order types of ring
descriptions with PID factors and an Artinian part, the additive bounds
for order types of products, and the realization of every ordinal below
omega^2 by a concrete small ring description.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .errors import DomainError, ResourceError
from .ordinal import Ordinal, natural_sum, omega, omega_power
from .rings import (GaloisField, _least_prime_factor, _monic_polys, _multiplicity,
                    _prime_power, poly_add, poly_mod, poly_neg, poly_trim)


# ---------------------------------------------------------------------------
# windowed bottom function on Z


class StabilizationCertificate(NamedTuple):
    window_a: int
    window_b: int


class WindowedBottom(NamedTuple):
    values: Dict[object, int]  # reporting-range element or degree -> value (units at 0)
    certificate: StabilizationCertificate


def _integer_window_table(window: int) -> Dict[int, int]:
    """Least-value assignment on 1..window, one level at a time.

    The coset test for b consults only elements of magnitude strictly
    below b: within that range the coset of r modulo b is {r, r-b}, so
    phi(b) >= k + 1 exactly when some r and b - r both have value >= k.
    Values are symmetric in the sign, so only positive representatives
    are stored.  The levels are therefore A_0 = [1, window] and
    A_(k+1) = (A_k + A_k) & [1, window], and phi(b) is the number of
    levels that hold b, minus 1.

    A level is an integer with one slot of s bits per element, 1 in slot
    b when b is in the level.  Its square holds in slot b the number of
    pairs (r, b - r) in the level, at most window < 2^(s-1) because
    s >= bit_length(window) + 1, so no slot carries; adding 2^(s-1) - 1
    to every slot then moves each nonzero count to its slot's top bit.
    s is a whole number of bytes, so phi(b) is the byte of slot b in the
    sum of A_1, A_2, ...  Every element of A_k is at least 2^k, so the
    table costs about log2(window) + 1 squares of window * s bits.
    """
    width = (window.bit_length() + 8) // 8  # bytes per slot
    s = 8 * width
    ones = int.from_bytes(bytes(width) + (b"\x01" + bytes(width - 1)) * window, "little")
    tops = ones << (s - 1)
    fill = tops - ones  # 2^(s-1) - 1 in every slot of [1, window]
    level, counts = ones, 0
    while level:
        level = ((level * level + fill) & tops) >> (s - 1)
        counts += level
    data = counts.to_bytes(width * (window + 1), "little")[width::width]
    return dict(zip(range(1, window + 1), data))


MAX_WINDOW = 1 << 14


def windowed_bottom_integers(report_bound: int = 1024, start_window: int = 64,
                             growth_factor: int = 2) -> WindowedBottom:
    """Least Euclidean values on 1 <= n <= report_bound, in one pass.

    Units get value 0; the count of binary digits of |n| is this value
    plus one.  The value of b reads only values below b, so every window
    of the schedule start_window * growth_factor^k at or above the bound
    gives this report; the certificate names the first such window and
    the next.  A next window above MAX_WINDOW = 2^14 stops with
    :class:`ResourceError`: under the default schedule, a bound above
    8192.  The pass is about log2(report_bound) + 1 squares of integers
    of report_bound * s bits, s = 8 or 16 (:func:`_integer_window_table`).
    """
    if report_bound < 1:
        raise DomainError("reporting bound must be positive")
    if growth_factor < 2:
        raise DomainError("window growth factor must be at least 2")
    window = max(start_window, 2)
    while window < report_bound:
        window *= growth_factor
    if window * growth_factor > MAX_WINDOW:
        raise ResourceError(
            f"reporting bound {report_bound} needs windows up to "
            f"{window * growth_factor}, above {MAX_WINDOW}"
        )
    cert = StabilizationCertificate(window, window * growth_factor)
    return WindowedBottom(_integer_window_table(report_bound), cert)


# ---------------------------------------------------------------------------
# windowed bottom function on GF(q)[t]


MAX_POLY_CARRIER = 1 << 18


def windowed_polynomial_levels(q: int, report_degree: int = 10) -> WindowedBottom:
    """Least Euclidean value of the nonzero polynomials over GF(q) of each
    degree up to report_degree; ``values`` maps each degree to its value.

    A nonzero multiple of b has degree at least deg b, so the only coset
    member of r below b's degree is r itself: every polynomial of degree
    d gets one more than the largest value at lower degree (units get 0),
    which is d.  So one value per degree is the whole level construction,
    and no polynomial is listed.  The value of b reads only values at lower
    degree, so every degree window of the schedule 8 + 4k at or above the
    report degree gives this report; the certificate names the first such
    window and the next.  A request whose polynomials, q^(report_degree+1)
    of them, number more than MAX_POLY_CARRIER = 2^18 stops with
    :class:`ResourceError`: :func:`windowed_bottom_polynomials` lists them.
    """
    if report_degree < 0:
        raise DomainError("reporting degree must be nonnegative")
    # q >= 2 gives q^19 > 2^18, so the capped exponent decides exactly
    if q >= 2 and q ** min(report_degree + 1, 19) > MAX_POLY_CARRIER:
        raise ResourceError(
            f"GF({q})[t] up to degree {report_degree} has more than "
            f"{MAX_POLY_CARRIER} polynomials"
        )
    _prime_power(q)  # GF(q) exists; only its size is needed
    window = 8
    while window < report_degree:
        window += 4
    values = {d: d for d in range(report_degree + 1)}
    return WindowedBottom(values, StabilizationCertificate(window, window + 4))


def windowed_bottom_polynomials(q: int, report_degree: int = 10) -> WindowedBottom:
    """Least Euclidean values on polynomials over GF(q) of degree at most
    report_degree, one entry per polynomial: its coefficient tuple from
    the constant up.

    The values and the certificate are those of
    :func:`windowed_polynomial_levels`, which refuses the same requests;
    this expands its one value per degree to the q^(report_degree+1) - 1
    nonzero polynomials, at most MAX_POLY_CARRIER = 2^18 of them.
    """
    model = windowed_polynomial_levels(q, report_degree)
    phi = {lower + (lead,): value for d, value in model.values.items()
           for lower in itertools.product(range(q), repeat=d) for lead in range(1, q)}
    return WindowedBottom(phi, model.certificate)


# ---------------------------------------------------------------------------
# semilocal localizations of Z

MAX_SAMPLES = 10 ** 6


def _check_primes(primes: Sequence[int]) -> Tuple[int, ...]:
    primes = tuple(sorted(set(primes)))
    if not primes:
        raise DomainError("the prime set must be nonempty")
    for p in primes:
        if p < 2 or _least_prime_factor(p) != p:
            raise DomainError(f"{p} is not prime")
    return primes


def localization_function(primes: Sequence[int], x: Fraction) -> int:
    """Sum of the exponents of the distinguished primes in the numerator.

    Defined on nonzero elements of the ring of fractions with denominator
    coprime to the prime set.
    """
    from fractions import Fraction
    primes = _check_primes(primes)
    x = Fraction(x)
    if x == 0:
        raise DomainError("value at zero is not finite")
    if any(x.denominator % p == 0 for p in primes):
        raise DomainError(f"{x} is not in the localization away from {primes}")
    return sum(_multiplicity(x.numerator, p) for p in primes)


class SampledCheck(NamedTuple):
    ok: bool
    samples: int
    seed: int
    failures: List[Tuple[Fraction, Fraction]]


def _localized_divide(primes: Sequence[int], a_num: int, a_den: int, b_num: int,
                      search: int = 64):
    """The remainder r of a = q b + r in the localization, with r = 0 or of
    smaller value than b, for a = a_num / a_den and b = b_num / unit; None
    if no r = abar + k m with |k| <= search serves.  Here b = m * unit with
    m the product of the p^v_p(b), so (b) = (m) and abar is a modulo m."""
    vb, m = 0, 1
    for p in primes:
        while b_num % p == 0:
            b_num //= p
            vb += 1
            m *= p
    abar = a_num * pow(a_den, -1, m) % m
    if abar == 0:
        return 0
    for k in range(-search, search + 1):
        r = abar + k * m
        if r and sum(_multiplicity(r, p) for p in primes) < vb and (a_num - r * a_den) % m == 0:
            return r
    return None


def _smooth_moduli(primes: Sequence[int], height: int, budget: int):
    """The products m <= height of powers of the primes, or None when their
    sum exceeds budget; the enumeration stops as soon as it does."""
    moduli, total = [1], 1
    for p in primes:
        for m in moduli[:]:
            m *= p
            while m <= height and total <= budget:
                moduli.append(m)
                total += m
                m *= p
    return moduli if total <= budget else None


def check_localization_euclidean(primes: Sequence[int], samples: int = 10_000,
                                 seed: int = 0, height: int = 50) -> SampledCheck:
    """Division check for the exponent-sum function on ``samples`` sampled
    pairs (a, b), with every failing pair reported.

    Samples are integer pairs (numerator, denominator), more than
    MAX_SAMPLES of them stop with :class:`ResourceError`.  They are the
    draws of ``randint(-height, height)`` and ``randint(1, height)`` on
    ``random.Random(seed)``, made by the same rejection of random bits.

    The division of a by b depends only on the key (m, abar), where m, the
    product of the p^v_p(b), is a product of powers of the primes up to
    height, and abar = a_num / a_den mod m: :func:`_localized_divide`
    scans at most 129 remainders abar + k m, and every r = abar (mod m)
    leaves a - r b divisible by m.  When the keys number no more than
    ``samples`` (they are the sum of those m), every key is decided first,
    from a = abar: if none fails, every pair the samples could hold
    divides, the report is the same for every seed, and nothing is drawn.
    Otherwise the samples are drawn, each pair is divided, and the pairs
    that fail are listed.
    """
    primes = _check_primes(primes)
    if samples < 0:
        raise DomainError("the sample count must be nonnegative")
    if samples > MAX_SAMPLES:
        raise ResourceError(f"{samples} samples requested; the check is bounded at {MAX_SAMPLES}")
    if height < 1:
        raise DomainError("the sample height must be at least 1")
    moduli = _smooth_moduli(primes, height, samples)
    if moduli is not None and all(_localized_divide(primes, abar, 1, m) is not None
                                  for m in moduli for abar in range(m)):
        return SampledCheck(True, samples, seed, [])
    getrandbits = random.Random(seed).getrandbits
    radical = math.prod(primes)
    span = 2 * height + 1
    num_bits, den_bits = span.bit_length(), height.bit_length()

    def sample_element() -> Tuple[int, int]:
        num = getrandbits(num_bits)
        while num >= span:
            num = getrandbits(num_bits)
        bits = getrandbits(den_bits)
        # den = bits + 1 is redrawn above height or sharing a prime
        while bits >= height or math.gcd(bits + 1, radical) != 1:
            bits = getrandbits(den_bits)
        return num - height, bits + 1

    failures = []
    for _ in range(samples):
        a_num, a_den = sample_element()
        b_num, b_den = sample_element()
        while b_num == 0:
            b_num, b_den = sample_element()
        if _localized_divide(primes, a_num, a_den, b_num) is None:
            from fractions import Fraction
            failures.append((Fraction(a_num, a_den), Fraction(b_num, b_den)))
    return SampledCheck(not failures, samples, seed, failures)


# ---------------------------------------------------------------------------
# negative length-function findings

MAX_WITNESS_FIELD = 1 << 14


class LengthWitness(NamedTuple):
    divisor: object
    target: object
    allowed_remainders: Tuple
    description: str


def check_not_l_euclidean_integers() -> LengthWitness:
    """Concrete failure of x -> number-of-prime-factors as a Euclidean
    function on the integers, verified by a complete residue check.

    The divisor is prime, so the allowed remainders are the units and 0;
    the finite set makes the negative check complete rather than sampled.
    """
    b, a = 5, 2
    allowed = (0, 1, -1)               # length below 1 means unit; plus 0
    for r in allowed:
        assert (a - r) % b != 0
    return LengthWitness(b, a, allowed,
                         f"no remainder for {a} modulo {b} among units and zero")


def check_not_l_euclidean_polys(q: int) -> LengthWitness:
    """Same finding for GF(q)[t]: an irreducible quadratic b and target t.

    Allowed remainders are the nonzero constants and 0, and none is
    congruent to t modulo an irreducible quadratic.  All q remainders are
    listed, so q above MAX_WITNESS_FIELD stops with ResourceError.  A
    quadratic is irreducible exactly when it has no root in the field.
    """
    _prime_power(q)
    if q > MAX_WITNESS_FIELD:
        raise ResourceError(f"GF({q}) has more than {MAX_WITNESS_FIELD} elements, the witness bound")
    F = GaloisField(q)
    quad = next(g for g in _monic_polys(F, 2)  # (x + c1) x + c0 is t^2 + c1 t + c0 at x
                if all(F.add(F.mul(F.add(x, g[1]), x), g[0]) for x in range(q)))
    t = (0, 1)
    allowed = tuple([()] + [(c,) for c in range(1, F.size)])
    for r in allowed:
        diff = poly_mod(F, poly_add(F, t, poly_neg(F, r)), quad)
        assert poly_trim(diff)  # t - r is never divisible by the quadratic
    return LengthWitness(quad, t, allowed,
                         "no constant or zero remainder for t modulo an "
                         "irreducible quadratic")


# ---------------------------------------------------------------------------
# symbolic order types


def _valid_pid_tag(tag: str) -> bool:
    return tag == "Z" or tag.startswith("GF(") and tag.endswith(")[t]")


class RingSpec(NamedTuple("RingSpec", [("pid_factors", Tuple[str, ...]),
                                         ("artinian_lengths", Tuple[int, ...])])):
    """Symbolic ring description: PID factors plus Artinian local lengths."""

    __slots__ = ()

    def __new__(cls, pid_factors: Tuple[str, ...] = (), artinian_lengths: Tuple[int, ...] = ()):
        if not pid_factors and not artinian_lengths:
            raise DomainError("a ring spec needs at least one factor")
        for tag in pid_factors:
            if not _valid_pid_tag(tag):
                raise DomainError(f"unsupported PID factor {tag!r}")
        for n in artinian_lengths:
            if n < 1:
                raise DomainError("Artinian local lengths must be >= 1")
        return super().__new__(cls, pid_factors, artinian_lengths)

    def __str__(self):
        return " x ".join([*self.pid_factors, *(f"Z/{2 ** n}" for n in self.artinian_lengths)])


def order_type_of_spec(spec: RingSpec) -> Ordinal:
    """omega times the PID factor count, plus the total Artinian length.

    Every supported PID factor has order type omega; the PID part of the
    result is a limit ordinal and is at least omega times the factor
    count, both asserted.
    """
    r = len(spec.pid_factors)
    pid_part = omega * r
    assert r == 0 or pid_part.is_limit()
    return pid_part + Ordinal(sum(spec.artinian_lengths))


def product_bounds(order_types: Sequence[Ordinal]) -> Tuple[Ordinal, Ordinal]:
    """(iterated ordinary sum, iterated natural sum): the two bounds on the
    order type of a product in terms of its factors."""
    lower = Ordinal(0)
    upper = Ordinal(0)
    for e in order_types:
        lower = lower + e
        upper = natural_sum(upper, e)
    assert lower <= upper
    return lower, upper


def realize_ordinal(a: Ordinal) -> RingSpec:
    """A small ring description whose order type is the given ordinal.

    Works exactly below omega^2: write a = omega*r + n and take r
    polynomial-ring factors over GF(2) plus a local Artinian part of
    length n.  GF(2)[t] stands in for the classical field-of-coefficients
    examples: any Euclidean domain of order type omega does.
    """
    if a.is_zero:
        raise DomainError("no ring has order type 0")
    if not a < omega_power(2):
        raise DomainError(f"{a} is not realizable by small ring descriptions")
    r = 0
    n = 0
    for (e, c) in a.terms:
        if e == 1:
            r = c
        elif e == 0:
            n = c
    spec = RingSpec(("GF(2)[t]",) * r, (n,) if n else ())
    assert order_type_of_spec(spec) == a
    return spec
