"""Finite strict orders, their least isotone map, and finite Brookfield sums.

A poset is given by an element set plus any generating set of strict pairs,
and is read from those pairs alone; no transitive closure is stored.  The
least isotone map assigns each element the length of the longest strict
chain strictly below it, which on a finite poset coincides with the staged
least-value construction.  It is built as that construction is, one level
at a time: one walk over the generating pairs by rounds (Kahn's algorithm)
puts each element in the round after its last predecessor.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from .errors import DomainError


class FinitePoset:
    def __init__(self, elements: Iterable[Hashable], pairs: Iterable[tuple[Hashable, Hashable]]):
        self.elements = tuple(elements)
        self._elemset = set(self.elements)
        if len(self._elemset) != len(self.elements):
            raise DomainError("duplicate element labels")
        self.pairs = tuple(pairs)
        for lo, hi in self.pairs:
            if lo not in self._elemset or hi not in self._elemset:
                raise DomainError(f"pair ({lo!r}, {hi!r}) mentions unknown labels")
        self._walked = None  # Kahn order over the generating pairs, predecessors
        self._rounds: dict[Hashable, int] = {}  # each element's round of that walk

    def _walk(self):
        """Kahn order over the generating pairs, and each element's
        generating predecessors; rejects cycles.  The walk goes by rounds,
        each element in the round after its last generating predecessor,
        and keeps each element's round in ``_rounds``."""
        if self._walked is not None:
            return self._walked
        preds: dict[Hashable, set] = {x: set() for x in self.elements}
        for lo, hi in self.pairs:
            preds[hi].add(lo)
        succs: dict[Hashable, list] = {x: [] for x in self.elements}
        for hi, lows in preds.items():
            for lo in lows:
                succs[lo].append(hi)
        indeg = {x: len(lows) for x, lows in preds.items()}
        level = [x for x in self.elements if not indeg[x]]
        order: list = []
        rounds: dict[Hashable, int] = {}
        k = 0
        while level:
            rounds.update(dict.fromkeys(level, k))
            order += level
            later = []
            for x in level:
                for y in succs[x]:
                    indeg[y] -= 1
                    if not indeg[y]:
                        later.append(y)
            level, k = later, k + 1
        if len(order) != len(self.elements):
            raise DomainError("relation has a cycle; not a strict order")
        self._walked, self._rounds = (order, preds), rounds
        return self._walked

    def less(self, a: Hashable, b: Hashable) -> bool:
        _, preds = self._walk()
        below, todo = set(), [b]
        while todo and a not in below:
            new = preds[todo.pop()] - below
            below |= new
            todo.extend(new)
        return a in below

    def maximal_elements(self) -> tuple[Hashable, ...]:
        # in a strict order, x lies below something iff it is the lower end
        # of a generating pair
        self._walk()  # rejects cycles
        lower = {lo for lo, _ in self.pairs}
        return tuple(x for x in self.elements if x not in lower)

    def top(self) -> Hashable:
        maxes = self.maximal_elements()
        if len(maxes) != 1:
            raise DomainError(f"poset has {len(maxes)} maximal elements, no unique top")
        return maxes[0]


def chain(n: int) -> FinitePoset:
    """The linear order 0 < 1 < ... < n-1."""
    if n < 1:
        raise DomainError("chain needs at least one element")
    return FinitePoset(range(n), [(i, i + 1) for i in range(n - 1)])


def product_poset(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """Componentwise order on the Cartesian product.

    Only one-coordinate pairs are emitted; their transitive closure is the
    full componentwise order, so comparability queries see the usual
    product ordering.
    """
    elements = [(x, y) for x in p.elements for y in q.elements]
    pairs = [((lo, y), (hi, y)) for (lo, hi) in p.pairs for y in q.elements]
    pairs += [((x, lo), (x, hi)) for (lo, hi) in q.pairs for x in p.elements]
    return FinitePoset(elements, pairs)


def length_function(p: FinitePoset) -> dict[Hashable, int]:
    """The pointwise-least isotone map: longest-chain depth below each element.

    That depth is the element's round in the walk by rounds, since a
    longest path over the generating pairs is a longest chain of the
    closure."""
    if not p.elements:
        raise DomainError("length function of the empty poset is undefined")
    p._walk()
    return dict(p._rounds)


def length(p: FinitePoset) -> int:
    """Value of the length function at the unique top element."""
    return length_function(p)[p.top()]


def brookfield_sum_finite(m: int, n: int) -> int:
    """len((m+1) x (n+1)) computed poset-theoretically on chains."""
    return length(product_poset(chain(m + 1), chain(n + 1)))


def is_isotone(f: Mapping[Hashable, int], p: FinitePoset) -> bool:
    for x in p.elements:
        if x not in f:
            raise DomainError(f"assignment is not total: missing {x!r}")
    p._walk()  # rejects cycles
    # rising along every generating pair is rising along the closure, since
    # the values are transitively ordered
    return all(f[lo] < f[hi] for lo, hi in p.pairs)


def pointwise_min(maps: Iterable[Mapping[Hashable, int]], p: FinitePoset) -> dict[Hashable, int]:
    """Greatest lower bound of a nonempty family of isotone maps.

    The result is again isotone; this is exactly why least elements of
    isotone-map families exist at all.
    """
    maps = list(maps)
    if not maps:
        raise DomainError("pointwise_min of an empty family")
    for f in maps:
        if not is_isotone(f, p):
            raise DomainError("pointwise_min requires isotone inputs")
    return {x: min(f[x] for f in maps) for x in p.elements}
