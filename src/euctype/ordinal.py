"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

An ordinal is stored as a tuple of ``(exponent, coefficient)`` terms with
the exponents strictly decreasing and every coefficient a positive int;
the empty tuple is 0.  A finite exponent is a plain ``int`` and an
infinite one an :class:`Ordinal`, so the normal form is unique and an
ordinal below omega^omega holds only ints: it compares, hashes and merges
in C.  The order of ordinals is the tuple order of these normal forms:
terms compare exponent first, then coefficient, and a proper prefix is
smaller.  A finite ordinal equals, and hashes as, the int it names.  All
operations are pure and return new values, so ordinals can be shared freely.

Product conventions.  ``a * b`` is the standard ordinal product, the order
type of b copies of a, so ``omega * 2 == omega + omega`` while
``Ordinal(2) * omega == omega``.  :func:`product_left` reads its arguments
the other way around -- ``product_left(a, b)`` is a copies of b -- which is
the convention in which ``2 . w`` denotes ``w + w``.  The two are mirror
images: ``product_left(a, b) == b * a``.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Iterable

from .errors import DomainError, ResourceError


@functools.total_ordering
class Ordinal:
    """An ordinal below epsilon_0, canonical on construction."""

    __slots__ = ("terms",)

    terms: tuple[tuple[Ordinal | int, int], ...]

    def __init__(self, value: int = 0):
        if _int(value, "an ordinal") < 0:
            raise DomainError("ordinals are non-negative")
        self.terms = ((0, value),) if value else ()

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Ordinal | int, int]]) -> "Ordinal":
        """Build from CNF terms; exponents must be strictly decreasing."""
        terms = tuple((_as_exponent(e), _int(c, "a CNF coefficient")) for (e, c) in terms)
        if any(c < 1 for (_, c) in terms):
            raise DomainError("CNF coefficients must be positive")
        if any(not e2 < e1 for (e1, _), (e2, _) in zip(terms, terms[1:])):
            raise DomainError("CNF exponents must be strictly decreasing")
        return _normal(terms)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or self.terms[0][0] == 0

    def to_int(self) -> int:
        if not self.is_finite:
            raise DomainError(f"{self} is not a finite ordinal")
        return self.terms[0][1] if self.terms else 0

    def is_limit(self) -> bool:
        """True iff nonzero with no finite tail (0 itself is not a limit)."""
        return bool(self.terms) and self.terms[-1][0] != 0

    def successor(self) -> "Ordinal":
        return self + 1

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is int:
            return self.terms == (((0, other),) if other else ())
        return self.terms == other.terms if other.__class__ is Ordinal else NotImplemented

    def __lt__(self, other) -> bool:
        if other.__class__ is int and other < 0:
            return False  # as the integers answer: no ordinal lies below a negative int
        other = other if other.__class__ is Ordinal else _ordinal(other)
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.terms < other.terms

    def __hash__(self) -> int:
        # a finite ordinal hashes as the int it equals
        t = self.terms
        return (hash(t[0][1]) if t[0][0] == 0 else hash(t)) if t else 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Ordinal | int) -> "Ordinal":
        other = _ordinal(other)
        if not other.terms:
            return self
        terms = self.terms
        if not terms:
            return other
        lead = other.terms[0][0]
        # the terms of self with exponent at most the lead of other are
        # absorbed; they form a tail, found from the last term
        k = len(terms)
        while k and terms[k - 1][0] <= lead:
            k -= 1
        if k < len(terms) and terms[k][0] == lead:
            merged = (lead, terms[k][1] + other.terms[0][1])
            return _normal(terms[:k] + (merged,) + other.terms[1:])
        return _normal(terms[:k] + other.terms)

    def __mul__(self, other: Ordinal | int) -> "Ordinal":
        """Standard product: the order type of ``other`` copies of ``self``."""
        other = _ordinal(other)
        if self.is_zero or other.is_zero:
            return Ordinal(0)
        lead_exp, lead_coeff = self.terms[0]
        out = Ordinal(0)
        for (e, c) in other.terms:
            if e == 0:
                # finite part of the multiplier
                out = out + _normal(((lead_exp, lead_coeff * c),)) + _normal(self.terms[1:])
            else:
                # the lead as an Ordinal: an int has no sum with an infinite one
                out = out + omega_power(_ordinal(lead_exp) + e, c)
        return out

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal[{format_ordinal(self)}]"


def _ordinal(x):
    """An int as the finite ordinal it names; anything else unchanged."""
    return Ordinal(x) if isinstance(x, int) else x


def _int(x, what: str) -> int:
    """``x``, refused unless it is an int (a bool is not one here)."""
    if x.__class__ is not int:
        raise DomainError(f"{what} must be an int, not {type(x).__name__}")
    return x


def _as_exponent(e: Ordinal | int) -> Ordinal | int:
    """An exponent in normal form: its int when finite, else its Ordinal."""
    if e.__class__ is Ordinal:
        return e.to_int() if e.is_finite else e
    if _int(e, "a CNF exponent") < 0:
        raise DomainError("CNF exponents are non-negative")
    return e


def _normal(terms) -> Ordinal:
    """The ordinal of terms already in normal form, taken unchecked."""
    out = object.__new__(Ordinal)
    out.terms = terms
    return out


omega = _normal(((1, 1),))


def omega_power(exponent: Ordinal | int, coefficient: int = 1) -> Ordinal:
    exponent = _as_exponent(exponent)
    if _int(coefficient, "a CNF coefficient") == 0:
        return Ordinal(0)
    if coefficient < 1:
        raise DomainError("CNF coefficients must be positive")
    return _normal(((exponent, coefficient),))


def product_left(a: Ordinal | int, b: Ordinal | int) -> Ordinal:
    """The product reading ``a . b`` as a copies of b (2 . w == w + w)."""
    return _ordinal(b) * a


def natural_sum(a: Ordinal | int, b: Ordinal | int) -> Ordinal:
    """Coefficient-wise sum of the two normal forms on a shared support,
    taken as one linear merge of their decreasing exponents.  Commutative,
    associative, cancellative and strictly monotone in each argument,
    unlike the ordinary ordinal sum.
    """
    a, b = _ordinal(a).terms, _ordinal(b).terms
    terms, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        (ea, ca), (eb, cb) = a[i], b[j]
        if ea == eb:
            terms.append((ea, ca + cb))
            i, j = i + 1, j + 1
        elif eb < ea:
            terms.append(a[i])
            i += 1
        else:
            terms.append(b[j])
            j += 1
    return _normal(tuple(terms) + a[i:] + b[j:])


def left_subtract(a: Ordinal | int, b: Ordinal | int) -> Ordinal:
    """The unique g with a + g == b; defined only for a <= b."""
    a, b = _ordinal(a), _ordinal(b)
    at, bt = a.terms, b.terms
    if bt < at:
        raise DomainError(f"left subtraction undefined: {a} > {b}")
    i = 0
    while i < len(at) and i < len(bt) and at[i] == bt[i]:
        i += 1
    if i == len(at):
        return _normal(bt[i:])
    ea, ca = at[i]
    eb, cb = bt[i]
    if ea == eb:
        # a's tail is absorbed into the replaced coefficient
        return _normal(((eb, cb - ca),) + bt[i + 1:])
    # ea < eb: the whole remaining tail of a is absorbed by b's next term
    return _normal(bt[i:])


def format_ordinal(a: Ordinal) -> str:
    """Canonical ASCII rendering, e.g. ``w^2*3 + w + 5``.  An integer longer
    than ``str`` writes hits a bound, as a numeral too long for ``int``
    does on input."""
    if not a.terms:
        return "0"
    parts = []
    try:
        for (e, c) in a.terms:
            if e.__class__ is int:
                if not e:
                    parts.append(str(c))
                    continue
                s = "w" if e == 1 else f"w^{e}"
            elif e.terms == omega.terms:
                s = "w^w"
            else:
                s = f"w^({format_ordinal(e)})"
            if c > 1:
                s += f"*{c}"
            parts.append(s)
    except ValueError:
        raise ResourceError("the result holds an integer of more than "
                            f"{sys.get_int_max_str_digits()} digits, the limit for printing one")
    return " + ".join(parts)
