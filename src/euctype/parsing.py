"""Text syntax for ordinals, ring specs, and ring elements.

Ordinal grammar (ASCII ``w`` for the least infinite ordinal; the Unicode
letter is accepted on input)::

    expr    := '(' '-' expr ')' '+' expr      -- left subtraction
             | sum
    sum     := product (('+' | '#') product)* -- '#' is the natural sum
    product := atom ('.' atom)*               -- 2 . w  ==  w + w
    atom    := 'w' ['^' exponent] ['*' nat] | nat | '(' expr ')'
    exponent:= nat | 'w' ['^' exponent] | '(' expr ')'

Ring spec grammar: factors joined by `` x ``; a factor is ``Z/<n>``,
``GF(<q>)[t]/(<poly>)``, the symbolic PID factors ``Z`` and
``GF(<q>)[t]``, or a spec in parentheses.  A suffix ``/(<element>)``
names the quotient by that element and binds to the whole spec before
it whenever that spec is a concrete ring: ``Z/8 x Z/27/((2, 3))`` is a
quotient of the product, which is how quotient rings name themselves.
A spec with a symbolic factor parses to a
:class:`~euctype.models.RingSpec`; otherwise to a concrete ring.

Polynomial coefficients in a ring spec are integers reduced into the
prime subfield.  Ring *elements* are read by the ring itself, in the
syntax it prints them in.  Over a prime field a polynomial coefficient
is an integer reduced modulo p; over a non-prime field GF(q) it is a
field-element encoding, so it must lie below q, and a larger integer is
a :class:`ParseError`.
"""

from __future__ import annotations

import functools
import re
import sys
from typing import Dict, List, Tuple, Union

from .errors import DomainError, ParseError, ResourceError
from .euclidean import EuclideanTable, bottom_euclidean, division_counterexample
from .models import RingSpec
from .ordinal import Ordinal, _normal, left_subtract, natural_sum, omega_power, product_left
from .poset import FinitePoset
from .rings import (
    FiniteRing,
    GaloisField,
    PolyQuotient,
    ProductRing,
    QuotientRing,
    Zmod,
    _prime_power,
    poly_trim,
    truncated_bivariate_fixture,
)

MAX_EXPONENT_DEPTH = 32
MAX_POLY_DEGREE = 2 ** 20  # the largest exponent of t a polynomial may write


def _nat(digits: str) -> int:
    """The integer a digit string names; one too long for ``int`` hits a bound."""
    try:
        return int(digits)
    except ValueError:
        raise ResourceError(f"a numeral of {len(digits)} digits is longer than "
                            f"the limit of {sys.get_int_max_str_digits()} digits")


# ---------------------------------------------------------------------------
# ordinal expressions


class _Scanner:
    """The tokens of ``src``, read in one pass: digit runs and single other
    characters, with the whitespace (``str.isspace``) between them dropped.
    Errors name the position of a token in ``src``."""

    TOKEN = re.compile(r"\d+|\S")

    def __init__(self, src: str):
        self.src = src
        self.tokens = self.TOKEN.findall(src) + [""]  # "" marks the end
        self.i = 0

    def where(self) -> int:
        """The position of the current token in ``src``, or its length at the end."""
        starts = [m.start() for m in self.TOKEN.finditer(self.src)] + [len(self.src)]
        return starts[self.i]

    def peek(self) -> str:  # the first character of the current token
        return self.tokens[self.i][:1]

    def take(self, ch: str) -> bool:
        if self.tokens[self.i] == ch:
            self.i += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected {ch!r}", self.where())

    def nat(self) -> int:
        token = self.tokens[self.i]
        if not token[:1].isdecimal():  # what \d matches
            raise ParseError("expected a number", self.where())
        self.i += 1
        return _nat(token)


# The text format_ordinal writes for a nonzero ordinal below w^w: terms
# w^n*c, w^n, w*c and w with n, c >= 2, then a constant c >= 1, joined by
# exactly " + ", in ASCII digits without leading zeros.  Exponents and
# coefficients written as 1 are read as well.
_CNF_TEXT = re.compile(r"(?:w(?:\^[1-9][0-9]*)?(?:\*[1-9][0-9]*)?"
                       r"(?: \+ w(?:\^[1-9][0-9]*)?(?:\*[1-9][0-9]*)?)*"
                       r"(?: \+ [1-9][0-9]*)?|[1-9][0-9]*)")


def parse_ordinal(src: str) -> Ordinal:
    """The ordinal an expression names (see the grammar above).

    Text in the form :func:`~euctype.ordinal.format_ordinal` writes below
    w^w is read in one pass: one ``fullmatch``, then each term straight
    into the normal form, numerals through :func:`_nat`.  Any other text,
    and such text whose exponents do not strictly decrease, goes to the
    recursive descent, which reads canonical text to the same value; a
    numeral past the digit limit is refused with the same message on both
    paths, since both read the numerals from left to right.
    """
    if _CNF_TEXT.fullmatch(src):
        terms = []
        last = None
        for term in src.split(" + "):
            if term[0] != "w":  # the constant, last by the pattern
                terms.append((0, _nat(term)))
                continue
            head, _, coeff = term.partition("*")
            n = _nat(head[2:]) if len(head) > 1 else 1
            if last is not None and n >= last:
                return _parse_expression(src)
            last = n
            terms.append((n, _nat(coeff) if coeff else 1))
        return _normal(tuple(terms))
    return _parse_expression(src)


def _parse_expression(src: str) -> Ordinal:
    """The recursive descent over every expression of the grammar."""
    if not src or not src.strip():
        raise ParseError("empty ordinal expression")
    sc = _Scanner(src)
    value = _expr(sc, 0)
    if sc.peek():
        raise ParseError(f"unexpected {sc.peek()!r}", sc.where())
    return value


def _expr(sc: _Scanner, depth: int) -> Ordinal:
    if depth > MAX_EXPONENT_DEPTH:
        raise ResourceError(f"parenthesis nesting deeper than {MAX_EXPONENT_DEPTH}")
    tokens = sc.tokens
    minuends = []  # a chain (-a) + (-b) + ... + c, read without recursion
    while tokens[sc.i] == "(" and tokens[sc.i + 1] == "-":
        sc.i += 2
        minuends.append(_expr(sc, depth + 1))
        sc.expect(")")
        sc.expect("+")
    value = _sum(sc, depth)
    for minuend in reversed(minuends):
        value = left_subtract(minuend, value)
    return value


def _sum(sc: _Scanner, depth: int) -> Ordinal:
    tokens = sc.tokens
    value = _product(sc, depth)
    while True:
        op = tokens[sc.i]
        if op == "+":
            sc.i += 1
            value = value + _product(sc, depth)
        elif op == "#":
            sc.i += 1
            value = natural_sum(value, _product(sc, depth))
        else:
            return value


def _product(sc: _Scanner, depth: int) -> Ordinal:
    tokens = sc.tokens
    value = _atom(sc, depth)
    while tokens[sc.i] == ".":
        sc.i += 1
        value = product_left(value, _atom(sc, depth))
    return value


def _atom(sc: _Scanner, depth: int) -> Ordinal:
    tokens, i = sc.tokens, sc.i
    token = tokens[i]
    if token == "w" or token == "ω":
        exponent = 1  # of a bare w
        sc.i = i + 1
        if tokens[i + 1] == "^":
            sc.i = i + 2
            exponent = _exponent(sc, depth + 1)
        coeff = 1
        if tokens[sc.i] == "*":
            sc.i += 1
            coeff = sc.nat()
        return omega_power(exponent, coeff)
    if token[:1].isdigit():
        return Ordinal(sc.nat())
    if token == "(":
        sc.i = i + 1
        value = _expr(sc, depth + 1)
        sc.expect(")")
        return value
    raise ParseError(f"unexpected {token!r}" if token else "unexpected end of input", sc.where())


def _exponent(sc: _Scanner, depth: int) -> Union[int, Ordinal]:
    if depth > MAX_EXPONENT_DEPTH:
        raise ResourceError(f"exponent nesting deeper than {MAX_EXPONENT_DEPTH}")
    ch = sc.peek()
    if ch.isdigit():
        return sc.nat()
    if ch in ("w", "ω"):
        sc.i += 1
        if sc.take("^"):
            return omega_power(_exponent(sc, depth + 1))
        return omega_power(1)
    if sc.take("("):
        value = _expr(sc, depth)
        sc.expect(")")
        return value
    raise ParseError("expected an exponent", sc.where())


# ---------------------------------------------------------------------------
# polynomials in t


def parse_poly(src: str, field: GaloisField, encode) -> Tuple[int, ...]:
    """Coefficient tuple (constant first) of a polynomial in t.

    ``encode`` maps each written nonnegative integer to a field element;
    one leading sign, the signs between terms and repeated same-degree
    terms are handled with the field's own arithmetic.  Every term names
    a numeral or t, a ``*`` joins a numeral to t only, and a written
    exponent above ``MAX_POLY_DEGREE`` is refused before any coefficient
    list is built.
    """
    sc = _Scanner(src)
    coeffs: List[int] = []

    def bump(degree: int, c: int):
        while len(coeffs) <= degree:
            coeffs.append(0)
        coeffs[degree] = field.add(coeffs[degree], c)

    sign = -1 if sc.take("-") else 1
    if sign > 0:
        sc.take("+")
    while True:
        c = 1
        ch = sc.peek()
        if ch.isdigit():
            c = sc.nat()
            if sc.take("*") and sc.peek() != "t":
                raise ParseError("expected t after '*' in polynomial", sc.where())
        elif ch != "t":
            raise ParseError(f"unexpected {ch!r} in polynomial" if ch
                             else "unexpected end of polynomial", sc.where())
        degree = 0
        if sc.peek() == "t":
            sc.i += 1
            degree = 1
            if sc.take("^"):
                degree = sc.nat()
                if degree > MAX_POLY_DEGREE:
                    raise ResourceError(f"exponent {degree} is above the limit of "
                                        f"{MAX_POLY_DEGREE}")
        value = encode(c)
        if sign < 0:
            value = field.neg(value)
        bump(degree, value)
        ch = sc.peek()
        if ch == "+":
            sc.i += 1
            sign = 1
        elif ch == "-":
            sc.i += 1
            sign = -1
        elif ch == "":
            break
        else:
            raise ParseError(f"unexpected {ch!r} in polynomial", sc.where())
    return poly_trim(coeffs)


# ---------------------------------------------------------------------------
# ring specs


_GF_QUOT = re.compile(r"^GF\((\d+)\)\[t\]/\((.+)\)$")
_GF_PID = re.compile(r"^GF\((\d+)\)\[t\]$")
_ZMOD = re.compile(r"^Z/(\d+)$")


def parse_ring_spec(src: str) -> Union[FiniteRing, RingSpec]:
    if not src or not src.strip():
        raise ParseError("empty ring spec")
    concrete, symbolic = _parse_factors(src)
    if symbolic:
        # the local lengths k_i, in CRT order: the valuations of zero
        lengths = [k for ring in concrete for k in ring.valuations(ring.ideal_class(ring.zero))]
        return RingSpec(tuple(symbolic), tuple(lengths))
    return _join(concrete)


def _join(concrete: List[FiniteRing]) -> FiniteRing:
    return concrete[0] if len(concrete) == 1 else ProductRing(concrete)


def _parse_factors(src: str, depth: int = 0,
                   product: bool = True) -> Tuple[List[FiniteRing], List[str]]:
    """The concrete and the symbolic factors of a spec, in order; ``depth``
    counts the parentheses and quotient suffixes around it, and ``product``
    is False on a factor already split off a product."""
    if depth > MAX_EXPONENT_DEPTH:
        raise ResourceError(f"ring spec nesting deeper than {MAX_EXPONENT_DEPTH}")
    src = src.strip()
    group = _last_group(src)
    if group > 1 and src[group - 1] == "/":
        concrete, symbolic = _parse_factors(src[:group - 1], depth + 1, product)
        if not symbolic:
            base = _join(concrete)
            return [QuotientRing(base, parse_element(base, src[group + 1:-1]))], []
    parts = split_top_level(src, r"\s+x\s+") if product else [src]
    if len(parts) > 1:
        concrete, symbolic = [], []
        for part in parts:
            c, s = _parse_factors(part, depth, product=False)
            # a concrete product in parentheses stays one factor; symbolic
            # specs are flat products anyway
            concrete.extend(c if s else [_join(c)])
            symbolic.extend(s)
        return concrete, symbolic
    if group == 0:
        return _parse_factors(src[1:-1], depth + 1)
    kind, value = _parse_factor(src)
    return ([value], []) if kind == "ring" else ([], [value])


def _last_group(src: str) -> int:
    """Index of the parenthesis that a final ``)`` closes, or -1."""
    if not src.endswith(")"):
        return -1
    depth = 0
    for i in range(len(src) - 1, -1, -1):
        if src[i] == ")":
            depth += 1
        elif src[i] == "(":
            depth -= 1
            if depth == 0:
                return i
    return -1


_top_level_pattern = functools.lru_cache(maxsize=None)(lambda sep: re.compile(r"[()]|" + sep))


def split_top_level(src: str, separator: str) -> List[str]:
    """Split at the matches of the ``separator`` pattern outside parentheses."""
    pieces, depth, start = [], 0, 0
    for m in _top_level_pattern(separator).finditer(src):
        token = m.group()
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
        elif depth == 0:
            pieces.append(src[start:m.start()])
            start = m.end()
    pieces.append(src[start:])
    return pieces


def _parse_factor(part: str):
    part = part.strip()
    if part == "Z":
        return "pid", "Z"
    if part == "GF(2)[x,y]/(x,y)^2":
        return "ring", truncated_bivariate_fixture()
    m = _ZMOD.match(part)
    if m:
        return "ring", Zmod(_nat(m.group(1)))
    m = _GF_PID.match(part)
    if m:
        q = _nat(m.group(1))
        _prime_power(q)  # GF(q) exists; its tables are not needed
        return "pid", f"GF({q})[t]"
    m = _GF_QUOT.match(part)
    if m:
        q = _nat(m.group(1))
        field = GaloisField(q)
        coeffs = parse_poly(m.group(2), field, field.embed_int)
        return "ring", PolyQuotient(field, coeffs)
    raise ParseError(f"unrecognized ring factor {part!r}")


# ---------------------------------------------------------------------------
# ring elements


def parse_element(ring: FiniteRing, src: str):
    """The element of ``ring`` that ``src`` names, in the syntax the ring
    prints: see the ``parse_element`` method of each ring class."""
    return ring.parse_element(src.strip())


# ---------------------------------------------------------------------------
# posets as edge lists


def parse_poset(src: str):
    """Poset from edge-list text: one ``a < b`` cover per line.

    Labels are arbitrary whitespace-free strings; blank lines and lines
    starting with ``#`` are skipped.  Isolated elements can be listed on
    a line of their own.
    """
    elements: List[str] = []
    seen = set()
    pairs = []

    def note(label: str):
        if label not in seen:
            seen.add(label)
            elements.append(label)

    for lineno, line in enumerate(src.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("<")
        if len(parts) == 1:
            note(line)
            continue
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise ParseError(f"expected 'a < b' on line {lineno}, got {line!r}")
        lo, hi = parts[0].strip(), parts[1].strip()
        note(lo)
        note(hi)
        pairs.append((lo, hi))
    return FinitePoset(elements, pairs)


# ---------------------------------------------------------------------------
# table round trip


def table_from_dict(data: dict) -> EuclideanTable:
    """Table read back from :func:`~euctype.euclidean.table_to_dict` output.

    Every nonzero element needs exactly one value, under its canonical
    name (as the ring prints it, up to whitespace).  Keys are looked up in
    the ring's list of element names (:meth:`FiniteRing.element_names`),
    so a key written as the ring prints it formats and parses no element;
    any other key is parsed, then checked against its element's name.  The value at zero
    must lie above every value: at least their supremum plus one, which
    is what a written table holds.  A larger one is kept, since a table
    edited to fail the division property may keep its old value at zero.
    The ``validated`` and ``bottom`` flags are claims, checked before they
    are kept: bottom needs the bottom table's values and the supremum plus
    one at zero, and keeps validated; validated needs the division
    property, which is checked only when the values are not the bottom
    table's.
    """
    fields = {"ring": str, "values": dict, "value_at_zero": str}
    if not isinstance(data, dict) or not all(
            isinstance(data.get(name), kind) for name, kind in fields.items()):
        raise DomainError("a table needs the string fields 'ring' and 'value_at_zero' "
                          "and the object 'values'")
    ring = parse_ring_spec(data["ring"])
    if not isinstance(ring, FiniteRing):
        raise DomainError("tables exist for concrete finite rings only")
    values = {}
    parsed: Dict[str, Ordinal] = {}  # tables repeat few values; parse each text once
    named = dict(zip(ring.element_names(), ring.elements))
    for key, text in data["values"].items():
        if key in named:
            x, name = named[key], key
        else:
            x = parse_element(ring, key)
            name = ring.format_element(x)
            if key != name and "".join(key.split()) != "".join(name.split()):
                raise DomainError(f"table key {key!r} is not canonical; the element is {name!r}")
        if x == ring.zero:
            raise DomainError("the value at zero belongs in 'value_at_zero', not in 'values'")
        if x in values:
            raise DomainError(f"two table keys name the element {name!r}")
        if not isinstance(text, str):
            raise DomainError(f"the value of {name!r} is not an ordinal expression")
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_ordinal(text)
        values[x] = value
    if len(values) < len(ring.elements) - 1:
        missing = next(x for x in ring.elements if x != ring.zero and x not in values)
        raise DomainError(f"the table has no value for {ring.format_element(missing)!r}")
    value_at_zero = parse_ordinal(data["value_at_zero"])
    sup_plus_one = max(parsed.values()).successor()
    if value_at_zero < sup_plus_one:
        raise DomainError(
            f"value_at_zero {data['value_at_zero']!r} is below the supremum of the values plus one"
        )
    validated = bool(data.get("validated", False))
    # the bottom table is Euclidean, so a table equal to it needs no check
    equals_bottom = bool(data.get("bottom", False)) and _equals_bottom(ring, values)
    if validated and not equals_bottom:
        validated = division_counterexample(ring, values) is None
    is_bottom = equals_bottom and value_at_zero == sup_plus_one
    return EuclideanTable(ring, values, value_at_zero, validated or is_bottom, is_bottom)


def _equals_bottom(ring: FiniteRing, values: dict) -> bool:
    """Whether ``values`` are those of the bottom table of ``ring``; false
    on a ring that is not principal, which has no Euclidean function."""
    return ring.is_principal() and values == bottom_euclidean(ring).values
