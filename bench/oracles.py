"""Reference computations that check euctype's outputs from first principles.

Nothing here imports euctype.  Rings are rebuilt from their structure
(Z/n, chain quotients GF(q)[t]/(t^k), the non-principal specimen, and
products of these), and every expected answer comes from a closed form
or a brute-force search over the carrier:

* on a finite principal ring the bottom Euclidean value of x is its
  length, the sum over local chain factors of min(v_i(x), k_i);
* the order type is the total local length, and for a product it is the
  sum of the factors' order types;
* the value at zero of a quotient R/(b) equals the value of b;
* ordinals below w^w are handled by a small coefficient-vector model.

Element texts follow the documented output format: integers for Z/n,
polynomials in t (highest degree first, coefficients as field-element
codes) for chain quotients, and parenthesized tuples for products.
"""

from __future__ import annotations

import itertools
import random
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple


def int_factor(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and int_factor(n) == {n: 1}


def poly_text(coeffs: Sequence[int]) -> str:
    """Polynomial in t, highest degree first; ``c*t^i`` with c omitted at 1."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            t = "t" if i == 1 else f"t^{i}"
            parts.append(t if c == 1 else f"{c}*{t}")
    return "+".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# rings rebuilt from their structure


class Local:
    """One local chain factor: residue field size and length."""

    def __init__(self, residue: int, length: int):
        self.residue = residue
        self.length = length

    def units(self) -> int:
        return self.residue ** self.length - self.residue ** (self.length - 1)


class ZmodR:
    principal = True

    def __init__(self, n: int):
        self.n = n
        self.name = f"Z/{n}"
        self.elements = list(range(n))
        self.zero = 0
        self._primes = sorted(int_factor(n).items())
        self.locals = [Local(p, k) for p, k in self._primes]
        self.local_names = [f"Z/{p ** k}" for p, k in self._primes]

    def valuations(self, x) -> List[int]:
        out = []
        for p, k in self._primes:
            v = 0
            while v < k and x % p == 0:
                x //= p
                v += 1
            out.append(v)
        return out

    def text(self, x) -> str:
        return str(x)

    def coset_rep(self, x, b):
        g = gcd(b, self.n)
        return x % g

    def add(self, x, y):
        return (x + y) % self.n

    def sub(self, x, y):
        return (x - y) % self.n

    def mul(self, x, y):
        return (x * y) % self.n


class ChainR:
    """GF(q)[t]/(t^k) on coefficient tuples, constant term first."""

    principal = True

    def __init__(self, q: int, k: int):
        self.q, self.k = q, k
        self.name = f"GF({q})[t]/({'t' if k == 1 else f't^{k}'})"
        self.elements = list(itertools.product(range(q), repeat=k))
        self.zero = (0,) * k
        self.locals = [Local(q, k)]
        self.local_names = [self.name]

    def valuations(self, x) -> List[int]:
        for i, c in enumerate(x):
            if c:
                return [i]
        return [self.k]

    def text(self, x) -> str:
        return poly_text(x)

    def coset_rep(self, x, b):
        j = self.valuations(b)[0]
        return tuple(x[:j]) + (0,) * (self.k - j)

    def _require_prime_field(self):
        if not is_prime(self.q):
            raise ValueError("arithmetic is modelled over prime fields only")

    def add(self, x, y):
        self._require_prime_field()
        return tuple((a + b) % self.q for a, b in zip(x, y))

    def sub(self, x, y):
        self._require_prime_field()
        return tuple((a - b) % self.q for a, b in zip(x, y))

    def mul(self, x, y):
        self._require_prime_field()
        out = [0] * self.k
        for i, a in enumerate(x):
            if a:
                for j in range(self.k - i):
                    out[i + j] = (out[i + j] + a * y[j]) % self.q
        return tuple(out)


class SpecimenR:
    """GF(2)[x,y]/(x,y)^2: a + bX + cY with X^2 = XY = Y^2 = 0."""

    principal = False
    name = "GF(2)[x,y]/(x,y)^2"

    def __init__(self):
        self.elements = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        self.zero = (0, 0, 0)

    def text(self, v) -> str:
        parts = [s for s, coef in zip(("1", "x", "y"), v) if coef]
        return "+".join(parts) if parts else "0"

    def add(self, u, v):
        return tuple((a + b) % 2 for a, b in zip(u, v))

    sub = add

    def mul(self, u, v):
        return ((u[0] * v[0]) % 2, (u[0] * v[1] + u[1] * v[0]) % 2,
                (u[0] * v[2] + u[2] * v[0]) % 2)


class ProductR:
    def __init__(self, factors: Sequence):
        self.factors = list(factors)
        self.name = " x ".join(f.name for f in self.factors)
        self.elements = list(itertools.product(*(f.elements for f in self.factors)))
        self.zero = tuple(f.zero for f in self.factors)
        self.principal = all(f.principal for f in self.factors)
        if self.principal:
            self.locals = [loc for f in self.factors for loc in f.locals]
            self.local_names = [n for f in self.factors for n in f.local_names]

    def valuations(self, x) -> List[int]:
        return [v for f, a in zip(self.factors, x) for v in f.valuations(a)]

    def text(self, x) -> str:
        return "(" + ", ".join(f.text(a) for f, a in zip(self.factors, x)) + ")"

    def coset_rep(self, x, b):
        return tuple(f.coset_rep(a, c) for f, a, c in zip(self.factors, x, b))

    def add(self, x, y):
        return tuple(f.add(a, b) for f, a, b in zip(self.factors, x, y))

    def sub(self, x, y):
        return tuple(f.sub(a, b) for f, a, b in zip(self.factors, x, y))

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))


def build_factor(desc):
    """A factor from its description: ["Z", n], ["P", q, k] or ["S"]."""
    kind = desc[0]
    if kind == "Z":
        return ZmodR(desc[1])
    if kind == "P":
        return ChainR(desc[1], desc[2])
    if kind == "S":
        return SpecimenR()
    raise ValueError(f"unknown factor {desc!r}")


def build_ring(desc):
    """A ring from a list of factor descriptions, or nested lists for a
    product whose factors are themselves products."""
    if isinstance(desc[0], str):
        return build_factor(desc)
    parts = [build_ring(d) for d in desc]
    return parts[0] if len(parts) == 1 else ProductR(parts)


# ---------------------------------------------------------------------------
# closed forms on principal rings


def length(ring, x) -> int:
    """sum_i min(v_i(x), k_i); a zero coordinate counts as k_i."""
    return sum(min(v, loc.length) for v, loc in zip(ring.valuations(x), ring.locals))


def order_type(ring) -> int:
    return sum(loc.length for loc in ring.locals)


def unit_count(ring) -> int:
    out = 1
    for loc in ring.locals:
        out *= loc.units()
    return out


def ideal_count(ring) -> int:
    out = 1
    for loc in ring.locals:
        out *= loc.length + 1
    return out


def bottom_values(ring) -> Dict[str, int]:
    """Element text -> bottom value, over the nonzero elements."""
    return {ring.text(x): length(ring, x) for x in ring.elements if x != ring.zero}


def quotient_values(ring, b) -> Dict[str, int]:
    """Bottom values of R/(b) on canonical coset representatives.

    Locally R/(b) is a chain ring of length min(v_i(b), k_i), so the value
    of a representative x is sum_i min(v_i(x), v_i(b), k_i).
    """
    caps = [min(v, loc.length) for v, loc in zip(ring.valuations(b), ring.locals)]
    out = {}
    for x in ring.elements:
        if ring.coset_rep(x, b) != x:
            continue
        value = sum(min(v, c) for v, c in zip(ring.valuations(x), caps))
        if value < sum(caps):  # x is not in (b)
            out[ring.text(x)] = value
    return out


# ---------------------------------------------------------------------------
# brute force over the carrier


def units(ring) -> List:
    one = identity(ring)
    return [x for x in ring.elements if any(ring.mul(x, y) == one for y in ring.elements)]


def identity(ring):
    """The unique e with e*x == x for every x."""
    for e in ring.elements:
        if all(ring.mul(e, x) == x for x in ring.elements):
            return e
    raise ValueError(f"{ring.name} has no identity")


def division_witness(ring, value, a, b) -> Optional[Tuple]:
    """(q, r) with a = q b + r and r = 0 or value(r) < value(b), by search."""
    vb = value[b]
    for q in ring.elements:
        r = ring.sub(a, ring.mul(q, b))
        if r == ring.zero or value[r] < vb:
            return q, r
    return None


def motzkin_levels(ring) -> Tuple[Dict, List]:
    """Least Euclidean levels by the direct level construction.

    b joins level L when every a has some q with a - q b equal to 0 or to
    an element of a level below L.  Returns (levels, never-assigned).
    """
    nonzero = [x for x in ring.elements if x != ring.zero]
    levels: Dict = {}
    level = 0
    while True:
        ready = []
        for b in nonzero:
            if b in levels:
                continue
            ok = all(any(
                (r := ring.sub(a, ring.mul(q, b))) == ring.zero or r in levels
                for q in ring.elements) for a in ring.elements)
            if ok:
                ready.append(b)
        if not ready:
            break
        for b in ready:
            levels[b] = level
        level += 1
    stuck = [x for x in nonzero if x not in levels]
    return levels, stuck


def all_ideals_bruteforce(ring) -> List[frozenset]:
    """Every subset closed under addition and multiplication by the ring."""
    elems = ring.elements
    found = []
    nonzero = [x for x in elems if x != ring.zero]
    for mask in range(1 << len(nonzero)):
        s = {ring.zero} | {x for i, x in enumerate(nonzero) if mask >> i & 1}
        if all(ring.add(a, b) in s for a in s for b in s) and all(
                ring.mul(r, a) in s for r in elems for a in s):
            found.append(frozenset(s))
    return found


# ---------------------------------------------------------------------------
# ordinals below w^w as coefficient maps {exponent: coefficient}


class Ord:
    """An ordinal below w^w; ``terms`` lists (exponent, coefficient) with
    exponents strictly decreasing and coefficients positive."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = tuple((e, c) for e, c in terms if c)
        assert all(self.terms[i][0] > self.terms[i + 1][0] for i in range(len(self.terms) - 1))

    @classmethod
    def nat(cls, n: int) -> "Ord":
        return cls([(0, n)])

    def __eq__(self, other):
        return isinstance(other, Ord) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __le__(self, other):
        return self.terms <= other.terms

    def __lt__(self, other):
        return self.terms < other.terms

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
                continue
            s = "w" if e == 1 else f"w^{e}"
            parts.append(s if c == 1 else f"{s}*{c}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Ord[{self.text()}]"

    @classmethod
    def parse(cls, text: str) -> "Ord":
        """Inverse of :meth:`text` (canonical texts only)."""
        if text == "0":
            return cls()
        terms = []
        for part in text.split(" + "):
            head, _, coeff = part.partition("*")
            c = int(coeff) if coeff else 1
            if head == "w":
                terms.append((1, c))
            elif head.startswith("w^"):
                terms.append((int(head[2:]), c))
            else:
                terms.append((0, int(head)))
        return cls(terms)


def o_add(a: Ord, b: Ord) -> Ord:
    """Ordinary sum: a's terms below b's leading exponent are absorbed."""
    if not b.terms:
        return a
    lead, lc = b.terms[0]
    kept = [t for t in a.terms if t[0] > lead]
    same = [c for e, c in a.terms if e == lead]
    head = [(lead, lc + (same[0] if same else 0))]
    return Ord(kept + head + list(b.terms[1:]))


def o_nsum(a: Ord, b: Ord) -> Ord:
    """Natural (Hessenberg) sum: coefficient-wise on a shared support."""
    coeffs: Dict[int, int] = {}
    for e, c in a.terms + b.terms:
        coeffs[e] = coeffs.get(e, 0) + c
    return Ord(sorted(coeffs.items(), reverse=True))


def o_left_sub(a: Ord, b: Ord) -> Ord:
    """The g with a + g == b, for a <= b, found by searching b's tails.

    a + g == b forces g to agree with b below its leading exponent, and
    its leading coefficient is b's coefficient there minus whatever a
    contributes; trying each tail of b with each possible head coefficient
    covers every candidate.
    """
    if not a <= b:
        raise ValueError("left subtraction needs a <= b")
    for i in range(len(b.terms) + 1):
        tail = list(b.terms[i + 1:])
        if i == len(b.terms):
            cands = [Ord()]
        else:
            e, c = b.terms[i]
            cands = [Ord([(e, h)] + tail) for h in range(c, 0, -1)]
        for g in cands:
            if o_add(a, g) == b:
                return g
    raise AssertionError("no left difference found")


def random_ordinal(rng: random.Random, max_exp: int = 4, max_coeff: int = 5,
                   max_terms: int = 3) -> Ord:
    exps = sorted(rng.sample(range(max_exp + 1), rng.randint(1, max_terms)), reverse=True)
    return Ord([(e, rng.randint(1, max_coeff)) for e in exps])


# Expression trees for ordinal-eval inputs: ("lit", Ord) | ("+", x, y) |
# ("#", x, y) | ("-", x, y) for the g with x + g == y.


def expr_value(tree) -> Ord:
    op = tree[0]
    if op == "lit":
        return tree[1]
    x, y = expr_value(tree[1]), expr_value(tree[2])
    if op == "+":
        return o_add(x, y)
    if op == "#":
        return o_nsum(x, y)
    return o_left_sub(x, y)


def expr_text(tree) -> str:
    op = tree[0]
    if op == "lit":
        return tree[1].text().replace(" ", "")
    x, y = expr_text(tree[1]), expr_text(tree[2])
    if op == "-":
        return f"(- {x}) + ({y})"
    return f"({x}) {op} ({y})"


def random_expr(rng: random.Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.25:
        return ("lit", random_ordinal(rng))
    op = rng.choice("+#-")
    x = random_expr(rng, depth - 1)
    y = random_expr(rng, depth - 1)
    if op == "-":
        y = ("+", x, y)  # guarantees x <= y
    return (op, x, y)
