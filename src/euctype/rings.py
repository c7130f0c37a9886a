"""Concrete finite commutative rings with enumerable carriers.

Supported carriers: residue rings Z/n, polynomial quotients GF(q)[t]/(f),
finite products of those, quotients by a principal ideal, and explicitly
table-presented rings (used for non-principal specimens).  Elements are
plain hashable values -- ints for Z/n, coefficient tuples for polynomial
quotients, tuples for products, labels for table rings -- and the list
``ring.elements`` fixes the canonical order used everywhere (witness
search, counterexample reporting, coset representatives).

Ideal-theoretic operations rest on one ideal-class layer.  Each ring
names the principal ideal (x) by a cheap hashable key -- gcd(x, n) in
Z/n, the monic gcd with the modulus in GF(q)[t]/(f), the tuple of factor
keys in a product, the base ring's key in a quotient -- keeps the keys of
its carrier, computed a batch at a time (``ideal_classes``), and builds
the members of each ideal once per key, without multiplying.
Divisibility and the ideals of a principal ring read this map.  A finite
ring is the product of its local factors eR (e a primitive idempotent),
and it is principal exactly when each maximal ideal is, each eR then a
chain ring R_i of length k_i (Hungerford 1968).  ``_local_split()`` has
one entry per local factor eR: |eR| > 1, the size q of its residue field
and whether its maximal ideal is principal; ``_local_vector(key)``, the
one vector path, the valuation v_i of the ideal in each eR (0 where ex is
a unit of eR, k_i >= 1 at zero).  The units are the elements whose
vector is zero, prod(|eR| - |eR|/q) of them, and lengths and bottom
tables are sums of the vectors.  The keyed rings compute both: Z/n and
GF(q)[t]/(f) from the prime powers of the modulus (the multiplicity of
each prime in gcd(x, n); with f = t^e * f' and f' prime to t, the
leading zeros of the key for t and the factors of f' divided out, none
on a chain quotient GF(q)[t]/(t^k), which keys a batch with one
bisection of each element), a product from its factors', a quotient
R/(b) of a keyed ring from R's factors where b is no unit, cut at v(b).
Only table rings and quotients of rings that are not keyed scan the
carrier, for their keys, their vectors (kept per key) and once for the
primitive idempotents; they are the test oracle of the keyed rings and
the only rings the CLI builds ``principal_ideals`` on.  A principal ring
counts its ideals from the lengths k_i, a product multiplies its
factors' counts, and any other ring closes sums of ideals on at most
IDEAL_ENUMERATION_BOUND elements.

A coset layer sits on the ideals.  ``coset_labels(key)`` labels the
cosets x + I of the ideal I with class key ``key`` a whole batch of
elements at a time, and counts the cosets: by arithmetic on the keyed
rings (x mod d in Z/n, x mod g in GF(q)[t]/(f), which is a slice of the
coefficients when g is a power of t, and in a product the factors' labels
of the transposed batch, zipped back into tuples), so the division check
builds no ideal there.  Table rings and quotients split the carrier into
the cosets once per key, by adding I to the elements, and label each
coset by its id.  These labels are the only way the library reads
cosets: a quotient R/(b) labels the carrier of R once by the cosets of
(b) and takes its elements (the least member of each coset) and its
projection from the labels.  Each ring class owns the rest of what is
ring-specific: its element syntax (``format_element`` and its inverse
``parse_element``, with the names of the whole carrier kept by
``element_names``, built in one batch on products and polynomial
quotients) and, on the keyed rings, its CRT split into local rings
(``local_factors``: the factors, and a function from an element to its
coordinates in them); other rings split into the quotients R/(1 - e).
"""

from __future__ import annotations

import bisect
import functools
import gc
import itertools
import math
import operator
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from .errors import DomainError, ParseError, ResourceError

IDEAL_ENUMERATION_BOUND = 512
CARRIER_BOUND = 1 << 22  # GF(2)[t]/(t^22); a carrier is a tuple of its elements
TRIAL_DIVISION_BOUND = 10 ** 7
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981  # the least strong pseudoprime to them all


# ---------------------------------------------------------------------------
# polynomials over a finite field (coefficient tuples, constant term first)


def poly_trim(a: Sequence[int]) -> Tuple[int, ...]:
    a = tuple(a)
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def poly_add(F, a, b) -> Tuple[int, ...]:
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return poly_trim(F.add(x, y) for x, y in zip(a, b))


def poly_neg(F, a) -> Tuple[int, ...]:
    return tuple(F.neg(x) for x in a)


def poly_mul(F, a, b) -> Tuple[int, ...]:
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        return ()
    add, mul = F.add, F.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = add(out[i + j], mul(x, y))
    return poly_trim(out)


def poly_divmod(F, a, b) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    a, b = list(poly_trim(a)), poly_trim(b)
    if not b:
        raise DomainError("polynomial division by zero")
    add, mul, neg = F.add, F.mul, F.neg
    db = len(b) - 1
    inv_lead = F.inv(b[-1])
    q = [0] * max(0, len(a) - db)
    for d in range(len(a) - 1 - db, -1, -1):
        c = a[d + db]
        if c == 0:
            continue
        c = q[d] = mul(c, inv_lead)
        c = neg(c)
        for i, y in enumerate(b):
            if y:
                a[d + i] = add(a[d + i], mul(c, y))
    return poly_trim(q), poly_trim(a[:db])


def poly_mod(F, a, b) -> Tuple[int, ...]:
    return poly_divmod(F, a, b)[1]


def poly_gcd(F, a, b) -> Tuple[int, ...]:
    """Monic greatest common divisor of two polynomials, not both zero."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(F, a, b)
    if a[-1] == 1:
        return a
    return poly_mul(F, a, (F.inv(a[-1]),))


def _monic_polys(F, degree: int):
    """All monic polynomials of the given degree, smallest encoding first."""
    for lower in itertools.product(range(F.size), repeat=degree):
        yield poly_trim(lower + (1,)) if degree else (1,)


def poly_is_irreducible(F, f) -> bool:
    f = poly_trim(f)
    d = len(f) - 1
    if d < 1:
        return False
    for e in range(1, d // 2 + 1):
        for g in _monic_polys(F, e):
            if not poly_mod(F, f, g):
                return False
    return True


def _poly_multiplicity(F, f, g) -> Tuple[int, Tuple[int, ...]]:
    """The exponent k of the non-constant g in the nonzero polynomial f,
    and the cofactor f / g^k."""
    k = 0
    while True:
        q, r = poly_divmod(F, f, g)
        if r:
            return k, f
        f, k = q, k + 1


def poly_factor(F, f) -> Dict[Tuple[int, ...], int]:
    """Factor a nonzero polynomial into monic irreducibles with multiplicity.
    The monic g of degree 1, 2, ... are divided out in turn, so each g that
    divides is irreducible, and so is the rest of f once 2 deg g > deg f."""
    f = poly_trim(f)
    if not f:
        raise DomainError("cannot factor the zero polynomial")
    factors: Dict[Tuple[int, ...], int] = {}
    # normalize to monic; the unit factor does not matter for ideals
    f = poly_mul(F, f, (F.inv(f[-1]),))
    d = 1
    while 2 * d <= len(f) - 1:
        for g in _monic_polys(F, d):
            k, f = _poly_multiplicity(F, f, g)
            if k:
                factors[g] = k
        d += 1
    if len(f) > 1:
        factors[f] = 1
    return factors


# ---------------------------------------------------------------------------
# finite fields GF(p^k)


def _prime_power(q: int) -> Tuple[int, int]:
    if q < 2:
        raise DomainError(f"GF({q}) does not exist")
    p = _least_prime_factor(q)
    k = _multiplicity(q, p)
    if p ** k != q:
        raise DomainError(f"GF({q}) does not exist: {q} is not a prime power")
    return p, k


class GaloisField:
    """GF(p^k) with elements 0..q-1 encoded as base-p coefficient vectors.

    For k > 1 arithmetic is modulo a fixed irreducible polynomial over
    GF(p): the monic degree-k irreducible with the smallest base-p
    encoding of its non-leading coefficients.  The choice is recorded in
    ``modulus`` so runs are reproducible.  Products and inverses are
    lookups in two tables of discrete logarithms: ``_exp`` holds the powers
    g^0..g^(q-2) of the first primitive element g in encoding order, twice
    over, and ``_log`` inverts it.  Each candidate g costs at most q - 1
    polynomial products modulo ``modulus``; addition adds base-p digits
    of the integers, an XOR for p = 2.
    """

    _cache: Dict[int, "GaloisField"] = {}

    def __new__(cls, q: int):
        if q in cls._cache:
            return cls._cache[q]
        self = super().__new__(cls)
        cls._cache[q] = self
        return self

    def __init__(self, q: int):
        if hasattr(self, "size"):
            return
        p, k = _prime_power(q)
        self.p, self.k, self.size = p, k, q
        self.name = f"GF({q})"
        if k == 1:
            self.modulus: Tuple[int, ...] = ()
        else:
            base = GaloisField(p)
            monic = (poly_trim(_digits(m, p, k) + (1,)) for m in range(q))
            self.modulus = next(f for f in monic if poly_is_irreducible(base, f))
            exp, candidates = [], (_digits(g, p, k) for g in range(2, q))
            while len(exp) < q - 1:  # a candidate is primitive once its powers reach every unit
                x, power, exp = next(candidates), (1,), [1]
                while (power := poly_mod(base, poly_mul(base, power, x), self.modulus)) != (1,):
                    exp.append(_undigits(power, p))
            self._exp = exp + exp  # a sum of two logarithms needs no reduction
            self._log = {e: i for i, e in enumerate(exp)}

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        out, place = 0, 1
        while a or b:  # base-p digits, least significant first
            out += (a + b) % p * place
            a, b, place = a // p, b // p, place * p
        return out

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)  # the encoding p - 1 is the constant -1

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("zero has no inverse")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.size - 1 - self._log[a]]

    def embed_int(self, c: int) -> int:
        """Integer coefficient reduced into the prime subfield."""
        return c % self.p


def _digits(n: int, p: int, k: int) -> Tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(n % p)
        n //= p
    return tuple(out)


def _undigits(digs: Sequence[int], p: int) -> int:
    out = 0
    for d in reversed(tuple(digs)):
        out = out * p + d
    return out


# ---------------------------------------------------------------------------
# ring interface


def _check_carrier(name: str, size: int) -> None:
    """Refuses a carrier of more than CARRIER_BOUND elements, before it is built."""
    if size > CARRIER_BOUND:
        raise ResourceError(f"{name} has {size} elements; carriers are bounded at {CARRIER_BOUND}")


def _build_carrier(elements: Iterable) -> Tuple:
    """``tuple(elements)`` with the cyclic collector paused: the tuples of a
    carrier are then scanned by one collection after the build, not by the
    thousand or more that building a large one would trigger.  The
    caller's collector state is restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return tuple(elements)
    finally:
        if enabled:
            gc.enable()


def _own_coordinate(x) -> Tuple:
    """The coordinates of x in a ring that is its own single local factor."""
    return (x,)


class FiniteRing:
    """Base class: subclasses set elements/zero/one/name and add/mul/neg."""

    elements: Tuple
    zero: object
    one: object
    name: str

    def add(self, x, y):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    # True on the keyed rings, principal by construction: a quotient then cuts
    # its base's split, and the division check tries the certificate first
    _known_principal = False

    def __len__(self):
        return len(self.elements)

    def index(self, x) -> int:
        try:
            return self._index[x]
        except AttributeError:
            self._index = {e: i for i, e in enumerate(self.elements)}
            return self._index[x]

    def format_element(self, x) -> str:
        return str(x)

    def element_names(self) -> List[str]:
        """The :meth:`format_element` name of each element, in carrier
        order, built once per ring and kept."""
        try:
            return self._names
        except AttributeError:
            self._names = self._build_names()
            return self._names

    def _build_names(self) -> List[str]:
        return list(map(str, self.elements))  # a ring that formats otherwise builds its own

    def parse_element(self, src: str):
        """The element that ``src`` (stripped) names, in the syntax of
        :meth:`format_element`; here a carrier label."""
        if src in self.elements:
            return src
        raise ParseError(f"unknown element label {src!r}")

    # -- units and divisibility -------------------------------------------

    def units(self) -> FrozenSet:
        """The elements whose :meth:`_local_vector` is zero, x with ex a unit
        of eR in every local factor eR, read one vector per carrier key."""
        try:
            return self._units
        except AttributeError:
            keys = self.carrier_classes()
            unit = {key: not any(self._local_vector(key)) for key in dict.fromkeys(keys)}
            self._units = frozenset(itertools.compress(self.elements, map(unit.__getitem__, keys)))
            return self._units

    def unit_count(self) -> int:
        """prod(|eR| - |eR|/q) over the local factors of :meth:`_local_split`,
        whose units lie outside the maximal ideal; no element is read."""
        return math.prod(size - size // q for size, q, _ in self._local_split())

    def is_unit(self, x) -> bool:
        return x in self.units()

    def divides(self, x, y) -> bool:
        """True iff y = qx for some q."""
        return y in self.principal_ideal(x)

    def strictly_divides(self, x, y) -> bool:
        return self.divides(x, y) and not self.divides(y, x)

    # -- ideals ------------------------------------------------------------

    def ideal_class(self, x):
        """Hashable key of the principal ideal (x); elements with equal keys
        generate the same ideal.  This default scans the carrier once per
        element and keeps the result, so the key is the ideal itself; the
        concrete rings use a canonical generator."""
        try:
            keys = self._keys
        except AttributeError:
            keys = self._keys = {}
        key = keys.get(x)
        if key is None:
            mul = self.mul
            key = keys[x] = frozenset(mul(q, x) for q in self.elements)
        return key

    def ideal_classes(self, xs: Sequence) -> List:
        """The ideal-class key of each x of the sequence ``xs``, in order."""
        return list(map(self.ideal_class, xs))

    def carrier_classes(self) -> List:
        """The ideal-class keys of the carrier, in carrier order, computed
        by :meth:`ideal_classes` once per ring and kept."""
        try:
            return self._carrier_keys
        except AttributeError:
            self._carrier_keys = self.ideal_classes(self.elements)
            return self._carrier_keys

    def ideal_members(self, key) -> Iterable:
        """The elements of the principal ideal whose class key is ``key``."""
        return key

    def principal_ideal(self, x) -> FrozenSet:
        return self.principal_ideals()[x]

    def principal_ideals(self) -> Dict[object, FrozenSet]:
        """The map x -> (x), computed once for the whole carrier.

        Members are built once per class key, and every distinct ideal is
        one shared frozenset, also where two keys name the same ideal (a
        quotient ring uses the keys of its base ring).
        """
        try:
            return self._pids
        except AttributeError:
            members = self.ideal_members
            by_key: Dict[object, FrozenSet] = {}
            seen: Dict[FrozenSet, FrozenSet] = {}
            pids = {}
            for x, key in zip(self.elements, self.carrier_classes()):
                ideal = by_key.get(key)
                if ideal is None:
                    ideal = frozenset(members(key))
                    ideal = by_key[key] = seen.setdefault(ideal, ideal)
                pids[x] = ideal
            self._pids = pids
            return pids

    def coset_labels(self, key) -> Tuple[Callable[[Sequence], Iterator], int]:
        """A batch labeller and the number of cosets of I, the principal
        ideal with class key ``key``: ``labels(xs)`` yields a label of the
        coset x + I for each x of the sequence ``xs``, in order.  This
        default splits the carrier once per key by adding I to the elements
        and labels each coset by its id, the ids counting the cosets in the
        carrier order of their least members; the keyed rings compute the
        labels by arithmetic, without building I."""
        cache = self.__dict__.setdefault("_cosets", {})
        if key not in cache:
            ideal, add = frozenset(self.ideal_members(key)), self.add
            cid: Dict[object, int] = {}
            count = 0
            for x in self.elements:
                if x not in cid:
                    for i in ideal:
                        cid[add(x, i)] = count
                    count += 1
            cache[key] = cid, count
        cid, count = cache[key]
        return functools.partial(map, cid.__getitem__), count

    def all_ideals(self) -> List[FrozenSet]:
        """Every ideal, smallest first, as one list built once per ring.

        In a principal ring these are the distinct principal ideals;
        otherwise generated subsets are closed one generator at a time.  A
        carrier of more than IDEAL_ENUMERATION_BOUND elements is refused."""
        if len(self.elements) > IDEAL_ENUMERATION_BOUND:
            raise ResourceError(f"{self.name} has {len(self.elements)} elements; "
                                f"ideal enumeration is bounded at {IDEAL_ENUMERATION_BOUND}")
        try:
            return self._ideals
        except AttributeError:
            pids = self.principal_ideals()
            found = set(pids.values()) if self.is_principal() else self._closed_ideals(pids)
            self._ideals = sorted(found, key=lambda s: (len(s), sorted(self.index(e) for e in s)))
            return self._ideals

    def _closed_ideals(self, pids) -> set:
        add = self.add
        # (I, x) = I + (x) for x outside I: sum I with each distinct
        # principal ideal it does not contain
        distinct = list(dict.fromkeys(pids.values()))
        found = {frozenset([self.zero])}
        work = [frozenset([self.zero])]
        while work:
            ideal = work.pop()
            for p in distinct:
                if p <= ideal:
                    continue
                bigger = frozenset(add(a, b) for a in ideal for b in p)
                if bigger not in found:
                    found.add(bigger)
                    work.append(bigger)
        return found

    def ideal_count(self) -> int:
        """The number of ideals: on a principal ring the vectors 0 <= v <= k
        of valuations below the local lengths k_i, prod(k_i + 1) of them;
        otherwise the length of :meth:`all_ideals`, with its bound."""
        if self.is_principal():
            return math.prod(k + 1 for k in self._local_vector(self.ideal_class(self.zero)))
        return len(self.all_ideals())

    def is_principal(self) -> bool:
        """True iff the maximal ideal of every local factor eR is principal."""
        return all(principal for *_, principal in self._local_split())

    def _require_principal(self):
        if not self.is_principal():
            raise DomainError(f"{self.name} is not a principal ring")

    def _local_split(self) -> List[Tuple[int, int, bool]]:
        """(|eR|, q, m principal) for each local factor eR, where m is the
        maximal ideal of eR, its x with x + 1 - e no unit of R, and q = |eR|
        / |m|.  This default scans the carrier once and keeps the split, with
        the primitive idempotents e in carrier order in ``_idempotents``."""
        if hasattr(self, "_split"):
            return self._split
        mul, pids, one = self.mul, self.principal_ideals(), self.one
        idempotents = [x for x in self.elements if x != self.zero and mul(x, x) == x]
        units, distinct = {x for x, ideal in pids.items() if one in ideal}, set(pids.values())
        self._idempotents = [e for e in idempotents  # primitive: no other f has fe = f
                             if not any(f != e and mul(f, e) == f for f in idempotents)]
        self._split = []
        for e in self._idempotents:
            local, shift = pids[e], self.sub(one, e)
            maximal = frozenset(x for x in local if self.add(x, shift) not in units)
            self._split.append((len(local), len(local) // len(maximal), maximal in distinct))
        return self._split

    def valuations(self, key) -> Tuple[int, ...]:
        """The :meth:`_local_vector` of a principal ring, checked on each
        call: the valuations v_i in its local factors R_i (k_i at zero)."""
        self._require_principal()
        return self._local_vector(key)

    def _local_vector(self, key) -> Tuple[int, ...]:
        """log_q(|eR| / |e(x)|) in each factor eR of :meth:`_local_split`,
        (x) the ideal with class key ``key``: v_e(x) in a chain ring eR, as
        |m^v| = q^(k - v) there, and in any eR 0 exactly when ex is a unit.
        This default scans the ideal once per key and keeps the vector."""
        vectors = self.__dict__.setdefault("_vectors", {})
        if key not in vectors:
            split, members, mul = self._local_split(), list(self.ideal_members(key)), self.mul
            out = []
            for e, (size, q, _) in zip(self._idempotents, split):
                ratio, v = size // len({mul(e, m) for m in members}), 0
                while ratio > 1:
                    ratio, v = ratio // q, v + 1
                out.append(v)
            vectors[key] = tuple(out)
        return vectors[key]

    def element_length(self, x) -> int:
        """Longest strictly increasing chain of ideals from (x) up to R in a
        principal ring: the sum of the local valuations of x."""
        return sum(self.valuations(self.ideal_class(x)))

    def quotient_ring(self, b) -> "QuotientRing":
        return QuotientRing(self, b)

    # -- CRT decomposition -------------------------------------------------

    def local_factors(self):
        """Split into local factors; returns (locals, coords), where the
        function ``coords`` maps x to its tuple of local coordinates.

        Multiplying the local factors back together gives a ring isomorphic
        to this one, the isomorphism being exactly ``coords``.  This default
        takes the quotients R/(1 - e), isomorphic to eR, for the primitive
        idempotents e the scan keeps (``_idempotents``), with their
        projections as coordinates; a local ring is its own single factor.
        """
        self._require_principal()
        if len(self._idempotents) == 1:
            return [self], _own_coordinate
        parts = [self.quotient_ring(self.sub(self.one, e)) for e in self._idempotents]
        return parts, lambda x: tuple(part.projection(x) for part in parts)


class Zmod(FiniteRing):
    def __init__(self, n: int):
        if n < 2:
            raise DomainError(f"Z/{n} has fewer than two elements")
        self.n = n
        self.name = f"Z/{n}"
        _check_carrier(self.name, n)
        self.elements = _build_carrier(range(n))
        self.zero, self.one = 0, 1
        self._known_principal = True

    def add(self, x, y):
        return (x + y) % self.n

    def mul(self, x, y):
        return (x * y) % self.n

    def neg(self, x):
        return (-x) % self.n

    def ideal_class(self, x):
        return math.gcd(x, self.n)  # n for x = 0

    def ideal_classes(self, xs):
        return list(map(math.gcd, xs, itertools.repeat(self.n)))

    def ideal_members(self, d):
        return range(0, self.n, d)

    def coset_labels(self, d):
        return functools.partial(map, d.__rmod__), d  # x -> x mod d

    @functools.cached_property
    def _prime_powers(self) -> List[Tuple[int, int]]:
        """The (p, k) with p^k exactly dividing n, smallest p first: one
        local factor Z/p^k each, in the order of :meth:`local_factors`."""
        return sorted(_int_factor(self.n).items())

    def _local_split(self):
        """Z/p^k for each (p, k) of :attr:`_prime_powers`, with maximal ideal (p)."""
        return [(p ** k, p, True) for p, k in self._prime_powers]

    def _local_vector(self, d):
        """The multiplicity in d = gcd(x, n) of each prime of n, in the
        order of :attr:`_prime_powers`."""
        return tuple(_multiplicity(d, p) for p, _ in self._prime_powers)

    def parse_element(self, src: str):
        try:
            return int(src) % self.n
        except ValueError:
            digits = src[1:] if src[:1] in "+-" else src
            if digits.isdecimal():  # too long for int: a ResourceError
                from .parsing import _nat  # parsing imports this module
                _nat(digits)
            raise ParseError(f"expected an integer element, got {src!r}")

    def local_factors(self):
        moduli = [p ** k for p, k in self._prime_powers]
        if len(moduli) == 1:  # a local ring is its own single factor
            return [self], _own_coordinate
        return [Zmod(m) for m in moduli], lambda x: tuple(x % m for m in moduli)


class PolyQuotient(FiniteRing):
    """GF(q)[t]/(f): coefficient tuples of fixed length deg(f), constant first."""

    def __init__(self, field: GaloisField, modulus: Sequence[int]):
        modulus = poly_trim(modulus)
        if len(modulus) - 1 < 1:
            raise DomainError("quotient modulus must have degree >= 1")
        # normalize to monic; same ideal, deterministic representatives
        if modulus[-1] != 1:
            modulus = poly_mul(field, modulus, (field.inv(modulus[-1]),))
        self.field = field
        self.modulus = modulus
        self.deg = len(modulus) - 1
        self.name = f"{field.name}[t]/({format_poly(modulus)})"
        _check_carrier(self.name, field.size ** self.deg)
        self.elements = _build_carrier(itertools.product(range(field.size), repeat=self.deg))
        self.zero = (0,) * self.deg
        self.one = (1,) + (0,) * (self.deg - 1)
        self._known_principal = True
        # f = t^e * f' with f' prime to t, for the ideal-class keys
        self._t_exp = next(i for i, c in enumerate(modulus) if c)
        self._cofactor = modulus[self._t_exp:]
        if self._cofactor == (1,):
            # x has at least k leading zeros exactly when x < t^(k-1) as a
            # tuple, so the keys t^d, ..., t^0 past the first are thresholds
            self._chain_keys = [(0,) * v + (1,) for v in range(self.deg, -1, -1)]
            self._thresholds = self._chain_keys[1:]

    def _pad(self, coeffs) -> Tuple[int, ...]:
        coeffs = tuple(coeffs)
        return coeffs + (0,) * (self.deg - len(coeffs))

    def add(self, x, y):
        F = self.field
        return tuple(F.add(a, b) for a, b in zip(x, y))

    def neg(self, x):
        F = self.field
        return tuple(F.neg(a) for a in x)

    def mul(self, x, y):
        return self.reduce(poly_mul(self.field, x, y))

    def ideal_class(self, x):
        """The monic gcd(x, f) = t^min(v, e) * gcd(x, f'), where v counts the
        leading zero coefficients of x; the power of t needs no division,
        and on a chain quotient (f' = 1, e = d) the key is t^v alone."""
        v = next((i for i, c in enumerate(x) if c), self.deg)
        rest = poly_gcd(self.field, x, self._cofactor) if len(self._cofactor) > 1 else (1,)
        return (0,) * min(v, self._t_exp) + rest

    def ideal_classes(self, xs):
        """On a chain quotient (f' = 1) the key t^v of each x, from one
        ``bisect_right`` of x against the thresholds t^(d-1), ..., t^0,
        which counts the d - v of them at or below x; other moduli need
        gcd(x, f') and key each x by :meth:`ideal_class`."""
        if len(self._cofactor) > 1:
            return list(map(self.ideal_class, xs))
        rank = functools.partial(bisect.bisect_right, self._thresholds)
        return list(map(self._chain_keys.__getitem__, map(rank, xs)))

    def ideal_members(self, g):
        # g divides f, so the multiples g*h with deg h < deg f - deg g are
        # already reduced and are exactly the ideal
        F = self.field
        for h in itertools.product(range(F.size), repeat=self.deg + 1 - len(g)):
            yield self._pad(poly_mul(F, g, h))

    def coset_labels(self, g):
        """x mod g for g of degree j: the low j coefficients of x, plus x_i
        times the residue of t^i modulo g for each i >= j.  Zero residues
        are dropped, so where g leaves none (g = t^j, every divisor of a
        chain quotient GF(q)[t]/(t^k)) the label is a slice of x."""
        F, j = self.field, len(g) - 1
        add, mul = F.add, F.mul
        residues = []
        for i in range(j, self.deg):
            terms = [(k, c) for k, c in enumerate(poly_mod(F, (0,) * i + (1,), g)) if c]
            if terms:
                residues.append((i, terms))
        if not residues:
            return functools.partial(map, operator.itemgetter(slice(0, j))), F.size ** j

        def label(x):
            low = list(x[:j])
            for i, terms in residues:
                a = x[i]
                if a:
                    for k, c in terms:
                        low[k] = add(low[k], mul(a, c))
            return tuple(low)

        return functools.partial(map, label), F.size ** j

    @functools.cached_property
    def _prime_powers(self) -> List[Tuple[Tuple[int, ...], int]]:
        """The (g, e) with g^e exactly dividing f, one local factor
        GF(q)[t]/(g^e) each: t first at e = ``_t_exp`` when it divides f,
        then the factors of f' in sorted order, as every monic irreducible
        but t has a nonzero constant term.  Only f' is factored, so a chain
        quotient GF(q)[t]/(t^k) factors nothing."""
        out = [((0, 1), self._t_exp)] if self._t_exp else []
        if len(self._cofactor) > 1:
            out += sorted(poly_factor(self.field, self._cofactor).items())
        return out

    def _local_split(self):
        """GF(q)[t]/(g^e) for each (g, e) of :attr:`_prime_powers`, with
        maximal ideal (g) of index q^deg(g)."""
        q = self.field.size
        return [(q ** (e * (len(g) - 1)), q ** (len(g) - 1), True) for g, e in self._prime_powers]

    def _local_vector(self, g):
        """The multiplicity in the monic gcd g of each irreducible factor
        of f, in the order of :attr:`_prime_powers`.  That of t is the
        count of leading zeros of g; only the factors of f' are divided
        out."""
        F = self.field
        v = next(i for i, c in enumerate(g) if c)  # the power of t in g
        return tuple(v if p == (0, 1) else _poly_multiplicity(F, g[v:], p)[0]
                     for p, _ in self._prime_powers)

    def reduce(self, coeffs) -> Tuple[int, ...]:
        """Canonical representative of an arbitrary coefficient tuple."""
        return self._pad(poly_mod(self.field, coeffs, self.modulus))

    def format_element(self, x) -> str:
        return format_poly(x)

    def _build_names(self) -> List[str]:
        """The names of :func:`format_poly`, built one coefficient at a time
        from the top: the carrier varies its last coefficient fastest, so
        the names of the polynomials in t^i..t^(deg-1) repeat once for each
        coefficient of t^(i-1), which is written after them."""
        names = [""]  # the zero polynomial, until the end
        for i in range(self.deg - 1, -1, -1):
            t = "t" if i == 1 else f"t^{i}"
            terms = [""] + [str(c) if i == 0 else t if c == 1 else f"{c}*{t}"
                            for c in range(1, self.field.size)]
            names = [high + "+" + term if high and term else high or term
                     for term in terms for high in names]
        names[0] = "0"
        return names

    def parse_element(self, src: str):
        """A polynomial in t whose integer coefficients are field-element
        encodings, as printed; over a prime field any integer is reduced."""
        from .parsing import parse_poly

        F = self.field

        def encode(c: int) -> int:
            if F.k > 1 and c >= F.size:
                raise ParseError(f"coefficient {c} encodes no element of {F.name}")
            return c % F.size

        return self.reduce(parse_poly(src, F, encode))

    def local_factors(self):
        F = self.field
        if len(self._prime_powers) == 1:  # a local ring is its own single factor
            return [self], _own_coordinate
        parts = [PolyQuotient(F, functools.reduce(functools.partial(poly_mul, F), [g] * e))
                 for g, e in self._prime_powers]
        return parts, lambda x: tuple(part.reduce(x) for part in parts)


def format_poly(coeffs: Sequence[int]) -> str:
    coeffs = poly_trim(coeffs)
    if not coeffs:
        return "0"
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
    return "+".join(parts)


class ProductRing(FiniteRing):
    def __init__(self, factors: Sequence[FiniteRing]):
        if not factors:
            raise DomainError("a product ring needs at least one factor")
        self.factors = tuple(factors)
        # a factor that is itself a product or a quotient is parenthesized,
        # so that the name parses back to the same nesting
        self.name = " x ".join(
            f"({f.name})" if isinstance(f, (ProductRing, QuotientRing)) else f.name
            for f in factors
        )
        _check_carrier(self.name, math.prod(map(len, factors)))
        self.elements = _build_carrier(itertools.product(*(f.elements for f in factors)))
        self.zero = tuple(f.zero for f in factors)
        self.one = tuple(f.one for f in factors)
        self._known_principal = all(f._known_principal for f in factors)

    def add(self, x, y):
        return tuple(f.add(a, b) for f, a, b in zip(self.factors, x, y))

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def neg(self, x):
        return tuple(f.neg(a) for f, a in zip(self.factors, x))

    def ideal_class(self, x):
        return tuple([f.ideal_class(a) for f, a in zip(self.factors, x)])

    def ideal_classes(self, xs):
        """The tuples of the factors' keys: the batch is transposed into one
        column per factor, each factor keys the distinct entries of its
        column, and the keyed columns are zipped back into tuples."""
        columns = []
        for f, column in zip(self.factors, zip(*xs)):
            distinct = list(dict.fromkeys(column))
            columns.append(map(dict(zip(distinct, f.ideal_classes(distinct))).__getitem__, column))
        return list(zip(*columns))

    def ideal_members(self, key):
        return itertools.product(*(f.ideal_members(k) for f, k in zip(self.factors, key)))

    def coset_labels(self, key):
        """The tuples of the factors' labels: the batch is transposed into
        one column per factor, each column is labelled by its factor, and
        the labelled columns are zipped back into tuples."""
        labellers, counts = zip(*(f.coset_labels(k) for f, k in zip(self.factors, key)))

        def labels(xs):
            return zip(*[label(column) for label, column in zip(labellers, zip(*xs))])

        return labels, math.prod(counts)

    def _local_split(self):
        """The factors' splits, concatenated in factor order."""
        return [entry for f in self.factors for entry in f._local_split()]

    def _local_vector(self, key):
        return sum((f._local_vector(k) for f, k in zip(self.factors, key)), ())

    def _require_principal(self):  # the error names a factor that is not principal
        for f in self.factors:
            f._require_principal()

    def ideal_count(self) -> int:
        """The product of the factors' counts: with a 1 in every factor, each
        ideal is the product of its projections.  No bound of its own."""
        return math.prod(f.ideal_count() for f in self.factors)

    def format_element(self, x) -> str:
        return "(" + ", ".join([f.format_element(a) for f, a in zip(self.factors, x)]) + ")"

    def _build_names(self) -> List[str]:
        """The factors' names joined over the product of their name lists,
        which runs in carrier order."""
        names = itertools.product(*(f.element_names() for f in self.factors))
        return list(map("({})".format, map(", ".join, names)))

    def parse_element(self, src: str):
        from .parsing import split_top_level

        if not (src.startswith("(") and src.endswith(")")):
            raise ParseError(f"expected a tuple element, got {src!r}")
        pieces = split_top_level(src[1:-1], ",")
        if len(pieces) != len(self.factors):
            raise ParseError(f"expected {len(self.factors)} coordinates, got {len(pieces)}")
        return tuple(f.parse_element(piece.strip()) for f, piece in zip(self.factors, pieces))

    def local_factors(self):
        splits = [f.local_factors() for f in self.factors]
        locals_ = [loc for locs, _ in splits for loc in locs]
        return locals_, lambda x: sum((coords(a) for (_, coords), a in zip(splits, x)), ())

    def inject(self, i: int, value) -> Tuple:
        """The element with ``value`` in factor i and 0 elsewhere."""
        return tuple(value if j == i else f.zero for j, f in enumerate(self.factors))


class QuotientRing(FiniteRing):
    """R/(b) on the least elements of the cosets of (b), labelled once on
    the base carrier by its :meth:`~FiniteRing.coset_labels`; the coset ids
    ``_cid`` follow the carrier order of the least members.  On a keyed
    base no ideal is built and no ring operation is made."""

    def __init__(self, base: FiniteRing, b):
        labels, count = base.coset_labels(base.ideal_class(b))
        if count == 1:
            raise DomainError(
                f"quotient of {base.name} by the unit ideal ({base.format_element(b)}) "
                "has one element"
            )
        self.base = base
        self.modulus_element = b
        labelled = list(labels(base.elements))
        # read backwards, so the last write for a label is its least member
        least = dict(zip(reversed(labelled), reversed(base.elements)))
        ids = dict(zip(dict.fromkeys(labelled), itertools.count()))
        self.elements = tuple(map(least.__getitem__, ids))
        self._cid = dict(zip(base.elements, map(ids.__getitem__, labelled)))
        self.zero = self.projection(base.zero)
        self.one = self.projection(base.one)
        self.name = f"{base.name}/({base.format_element(b)})"
        self._known_principal = base._known_principal

    def projection(self, x):
        return self.elements[self._cid[x]]

    def add(self, x, y):
        return self.elements[self._cid[self.base.add(x, y)]]

    def mul(self, x, y):
        return self.elements[self._cid[self.base.mul(x, y)]]

    def neg(self, x):
        return self.elements[self._cid[self.base.neg(x)]]

    def ideal_class(self, x):
        return self.base.ideal_class(x)

    def ideal_classes(self, xs):
        return self.base.ideal_classes(xs)

    def ideal_members(self, key):
        return {self.projection(m) for m in self.base.ideal_members(key)}

    @functools.cached_property
    def _cap(self) -> Tuple[Tuple[int, int], ...]:
        """(i, v_i(b)) for each factor R_i of a keyed base where b is no unit."""
        cap = self.base._local_vector(self.base.ideal_class(self.modulus_element))
        return tuple((i, v) for i, v in enumerate(cap) if v)

    def _local_split(self):
        """On a keyed base, the chain rings R_i/(b_i) of q^v_i(b) elements
        for the factors R_i of ``_cap``; on any other base the carrier scan."""
        if not self.base._known_principal:
            return super()._local_split()
        split = self.base._local_split()
        return [(split[i][1] ** v, split[i][1], True) for i, v in self._cap]

    def _local_vector(self, key):
        """min(v_i(x), v_i(b)) on a keyed base, for the factors of ``_cap``:
        the ideal (x) + (b) there."""
        if not self.base._known_principal:
            return super()._local_vector(key)
        v = self.base._local_vector(key)
        return tuple([min(v[i], cap) for i, cap in self._cap])

    def format_element(self, x) -> str:
        return self.base.format_element(x)

    def _build_names(self) -> List[str]:
        return list(map(self.base.format_element, self.elements))

    def parse_element(self, src: str):
        return self.projection(self.base.parse_element(src))

    def local_factors(self):
        if not self.base._known_principal:
            return super().local_factors()
        # R/(b) splits as the product of the R_i/(b_i) where b_i is no unit
        locs, base_coords = self.base.local_factors()
        b = base_coords(self.modulus_element)
        kept = [i for i, _ in self._cap]
        if len(kept) == 1:
            return [self], _own_coordinate
        parts = [locs[i].quotient_ring(b[i]) for i in kept]

        def coords(x):
            at = base_coords(x)
            return tuple(part.projection(at[i]) for i, part in zip(kept, parts))

        return parts, coords


class TableRing(FiniteRing):
    """A ring presented by explicit operation tables over opaque labels."""

    def __init__(self, labels: Sequence, add_table: Dict, mul_table: Dict, zero, one, name: str):
        self.elements = tuple(labels)
        self._add = add_table
        self._mul = mul_table
        self.zero, self.one = zero, one
        self.name = name

    def add(self, x, y):
        return self._add[(x, y)]

    def mul(self, x, y):
        return self._mul[(x, y)]

    def neg(self, x):
        for y in self.elements:
            if self._add[(x, y)] == self.zero:
                return y
        raise DomainError(f"{x!r} has no additive inverse; not a ring table")


def truncated_bivariate_fixture() -> TableRing:
    """The 8-element ring of a + bX + cY over GF(2) with X^2 = XY = Y^2 = 0.

    Its ideal (X, Y) needs two generators, so the ring is not principal and
    hence admits no Euclidean function; it is the stock negative specimen.
    """

    def label(v):
        a, b, c = v
        parts = [s for s, coef in (("1", a), ("x", b), ("y", c)) if coef]
        return "+".join(parts) if parts else "0"

    vectors = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    add_t, mul_t = {}, {}
    for u in vectors:
        for v in vectors:
            s = tuple((x + y) % 2 for x, y in zip(u, v))
            p = ((u[0] * v[0]) % 2, (u[0] * v[1] + u[1] * v[0]) % 2, (u[0] * v[2] + u[2] * v[0]) % 2)
            add_t[(label(u), label(v))] = label(s)
            mul_t[(label(u), label(v))] = label(p)
    labels = [label(v) for v in vectors]
    return TableRing(labels, add_t, mul_t, "0", "1", "GF(2)[x,y]/(x,y)^2")


# ---------------------------------------------------------------------------
# CRT decomposition


def _is_prime(n: int) -> bool:
    """Miller-Rabin (n - 1 = 2^s d, d odd: a^d = 1 or a^(2^j d) = n - 1 for
    some j < s), exact for 41 < n < MILLER_RABIN_LIMIT (Jiang and Deng 2014)."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    return all(x == 1 or n - 1 in itertools.accumulate(range(1, s), lambda y, _: y * y % n,
                                                        initial=x)
               for x in (pow(a, (n - 1) >> s, n) for a in MILLER_RABIN_BASES))


def _least_prime_factor(n: int) -> int:
    """The least prime factor of n >= 2: n if :func:`_is_prime` says so, else
    by trial division up to TRIAL_DIVISION_BOUND; a larger n with no factor
    up to it is refused."""
    root = math.isqrt(n)
    top = 1 if root > 1 << 16 and n < MILLER_RABIN_LIMIT and _is_prime(n) else root
    p = next((d for d in range(2, min(top, TRIAL_DIVISION_BOUND) + 1) if n % d == 0), n)
    if p == n and root > TRIAL_DIVISION_BOUND:
        raise ResourceError(f"{n} has no prime factor up to {TRIAL_DIVISION_BOUND}, "
                            "where trial division stops")
    return p


def _int_factor(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    while n > 1:
        p = _least_prime_factor(n)
        out[p] = _multiplicity(n, p)
        n //= p ** out[p]
    return out


def _multiplicity(n: int, p: int) -> int:
    """The exponent of the prime p in the nonzero integer n."""
    k = 0
    while n % p == 0:
        n, k = n // p, k + 1
    return k


def crt_decompose(ring: FiniteRing):
    """The local factors of ``ring`` and the function that maps an element
    to its coordinates in them: see :meth:`FiniteRing.local_factors`."""
    return ring.local_factors()
