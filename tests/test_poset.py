import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from euctype.errors import DomainError
from euctype.ordinal import Ordinal, omega
from euctype.poset import (
    FinitePoset,
    brookfield_sum_finite,
    chain,
    is_isotone,
    length,
    length_function,
    pointwise_min,
    product_poset,
)


class TestConstruction:
    def test_duplicate_labels(self):
        with pytest.raises(DomainError):
            FinitePoset([1, 1], [])

    def test_unknown_label_in_pair(self):
        with pytest.raises(DomainError):
            FinitePoset([1, 2], [(1, 3)])

    def test_cycle_rejected(self):
        p = FinitePoset([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
        with pytest.raises(DomainError):
            p.less(1, 2)

    def test_transitive_closure(self):
        p = FinitePoset("abc", [("a", "b"), ("b", "c")])
        assert p.less("a", "c")
        assert not p.less("c", "a")
        assert not p.less("a", "a")


class TestLength:
    def test_chain(self):
        for n in range(1, 8):
            assert length(chain(n)) == n - 1

    def test_antichain_has_no_top(self):
        with pytest.raises(DomainError):
            length(FinitePoset("ab", []))

    def test_diamond(self):
        p = FinitePoset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        assert length_function(p) == {"a": 0, "b": 1, "c": 1, "d": 2}
        assert length(p) == 2

    def test_grid(self):
        g = product_poset(chain(6), chain(8))
        lam = length_function(g)
        assert lam[(5, 7)] == 12
        assert all(lam[(i, j)] == i + j for i, j in g.elements)

    def test_empty_poset(self):
        with pytest.raises(DomainError):
            length_function(FinitePoset([], []))

    def test_top_and_length_skip_the_closure(self):
        g = product_poset(chain(4), chain(5))
        assert length(g) == 7
        assert g.top() == (3, 4)
        with pytest.raises(DomainError):
            FinitePoset([1, 2, 3], [(1, 2), (2, 3), (3, 1)]).top()

    def test_maximal_elements_match_the_closure(self):
        # generated by the covers only, so the pairs are not the whole order
        for n in range(1, 5):
            labels = tuple(range(n))
            for rel in _all_posets(labels):
                covers = [(a, b) for a, b in sorted(rel)
                          if not any((a, c) in rel and (c, b) in rel for c in labels)]
                closed = FinitePoset(labels, covers)
                expected = tuple(x for x in labels
                                 if not any(closed.less(x, y) for y in labels))
                assert FinitePoset(labels, covers).maximal_elements() == expected


class TestProductPoset:
    def test_componentwise_order(self):
        g = product_poset(chain(3), chain(3))
        for a in g.elements:
            for b in g.elements:
                expected = a != b and a[0] <= b[0] and a[1] <= b[1]
                assert g.less(a, b) == expected

    def test_brookfield_examples(self):
        assert brookfield_sum_finite(0, 0) == 0
        assert brookfield_sum_finite(2, 3) == 5
        assert brookfield_sum_finite(7, 11) == 18

    def test_matches_addition(self):
        for m in range(31):
            for n in range(31):
                assert brookfield_sum_finite(m, n) == m + n, (m, n)


def _all_posets(labels):
    """Every strict order on the labels, as a set of strict pairs."""
    pairs = [(a, b) for a in labels for b in labels if a != b]
    for subset in itertools.product([False, True], repeat=len(pairs)):
        rel = {p for p, keep in zip(pairs, subset) if keep}
        # transitive and irreflexive?
        if any((a, c) not in rel
               for (a, b) in rel for (b2, c) in rel if b == b2 and a != c):
            continue
        if any((a, b) in rel and (b, a) in rel for (a, b) in rel):
            continue
        yield rel


class TestIsotoneMaps:
    def test_non_total_rejected(self):
        p = chain(3)
        with pytest.raises(DomainError):
            is_isotone({0: 0, 1: 1}, p)

    def test_predicates(self):
        p = chain(3)
        assert is_isotone({0: 0, 1: 1, 2: 2}, p)
        assert not is_isotone({0: 0, 1: 0, 2: 2}, p)

    def test_length_function_minimal_small(self):
        # exhaustive over every strict order on up to 4 labels: the length
        # function is isotone and pointwise below every isotone map
        for n in range(1, 5):
            labels = tuple(range(n))
            for rel in _all_posets(labels):
                p = FinitePoset(labels, sorted(rel))
                lam = length_function(p)
                assert is_isotone(lam, p)
                for values in itertools.product(range(n), repeat=n):
                    f = dict(zip(labels, values))
                    if is_isotone(f, p):
                        assert all(lam[x] <= f[x] for x in labels)

    @given(st.integers(5, 6), st.integers(0, 2 ** 30))
    @settings(max_examples=25, deadline=None)
    def test_length_function_minimal_random(self, n, seed):
        import random

        rng = random.Random(seed)
        labels = tuple(range(n))
        rel = set()
        for a in labels:
            for b in labels:
                if a < b and rng.random() < 0.4:
                    rel.add((a, b))
        p = FinitePoset(labels, sorted(rel))
        lam = length_function(p)
        assert is_isotone(lam, p)
        for _ in range(20):
            f = {x: lam[x] + rng.randint(0, 3) for x in labels}
            if is_isotone(f, p):
                assert all(lam[x] <= f[x] for x in labels)

    def test_pointwise_min(self):
        p = chain(4)
        f = {0: 0, 1: 2, 2: 3, 3: 4}
        g = {0: 1, 1: 2, 2: 4, 3: 5}
        assert pointwise_min([f, g], p) == {0: 0, 1: 2, 2: 3, 3: 4}

    def test_pointwise_min_is_isotone(self):
        p = product_poset(chain(3), chain(2))
        lam = length_function(p)
        f = {x: lam[x] + x[0] for x in p.elements}
        assert is_isotone(f, p)
        assert is_isotone(pointwise_min([lam, f], p), p)

    def test_pointwise_min_errors(self):
        p = chain(2)
        with pytest.raises(DomainError):
            pointwise_min([], p)
        with pytest.raises(DomainError):
            pointwise_min([{0: 1, 1: 0}], p)

    def test_restriction_to_down_set(self):
        # values of the length function on a down-set agree with the length
        # function of the restricted poset
        p = product_poset(chain(4), chain(4))
        lam = length_function(p)
        down = [x for x in p.elements if lam[x] <= 3]
        sub = FinitePoset(down, [(a, b) for (a, b) in p.pairs
                                 if a in down and b in down])
        sub_lam = length_function(sub)
        assert all(sub_lam[x] == lam[x] for x in down)


# ---------------------------------------------------------------------------
# the transitive closure FinitePoset once stored, kept as the oracle for
# comparisons and isotonicity checks that read the generating pairs alone


def closure_below(p):
    """Each element's strictly smaller elements, closed along the Kahn walk."""
    order, preds = p._walk()
    below = {}
    for x in order:
        acc = below[x] = set()
        for q in preds[x]:
            acc.add(q)
            acc |= below[q]
    return below


def max_over_predecessors(p):
    """The former length function: a max over each element's generating
    predecessors, in the order of the Kahn walk."""
    order, preds = p._walk()
    lam = {}
    for x in order:
        lam[x] = max((lam[y] + 1 for y in preds[x]), default=0)
    return lam


def random_dag(rng, n):
    """Pairs from a random order of n labels, some of them repeated, and
    some labels in no pair at all."""
    labels = list(range(n))
    rng.shuffle(labels)
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.15]
    pairs += rng.sample(pairs, len(pairs) // 4)
    rng.shuffle(pairs)
    elements = list(range(n)) + [f"isolated {i}" for i in range(rng.randint(0, 3))]
    return FinitePoset(elements, pairs)


def closure_monotone(f, p, below):
    """The former isotonicity check: every pair of the closure."""
    for x in p.elements:
        if x not in f:
            raise DomainError(f"assignment is not total: missing {x!r}")
    return all(f[x] < f[y] for y in p.elements for x in below[y])


def small_posets():
    """Every strict order on at most 4 labels, generated once by all its
    pairs and once by its covers alone."""
    for n in range(1, 5):
        labels = tuple(range(n))
        for rel in _all_posets(labels):
            covers = [(a, b) for a, b in sorted(rel)
                      if not any((a, c) in rel and (c, b) in rel for c in labels)]
            yield FinitePoset(labels, sorted(rel))
            yield FinitePoset(labels, covers)


GRIDS = [(1, 4), (2, 3), (3, 3), (4, 5), (6, 2)]


class TestAgainstTheClosure:
    def test_less(self):
        posets = list(small_posets()) + [product_poset(chain(a), chain(b)) for a, b in GRIDS]
        for p in posets:
            below = closure_below(p)
            for a in p.elements:
                for b in p.elements:
                    assert p.less(a, b) == (a in below[b]), (p.pairs, a, b)

    def test_isotone_on_small_posets(self):
        seen = {True: 0, False: 0}
        for p in small_posets():
            below = closure_below(p)
            for values in itertools.product(range(3), repeat=len(p.elements)):
                f = dict(zip(p.elements, values))
                strict = is_isotone(f, p)
                assert strict == closure_monotone(f, p, below), (p.pairs, f)
                seen[strict] += 1
        assert min(seen.values()) > 1000

    def test_isotone_on_grids(self):
        rng = random.Random(10)
        seen = {True: 0, False: 0}
        for a, b in GRIDS:
            g = product_poset(chain(a), chain(b))
            below = closure_below(g)
            lam = length_function(g)
            for _ in range(60):
                # twice the length function plus 0 or 1 rises along every
                # pair, also with omega added on the top row; one changed
                # value then may or may not break it
                f = {x: Ordinal(2 * lam[x] + rng.randint(0, 1)) for x in g.elements}
                if rng.random() < 0.5:
                    f = {x: v + omega if x[0] == a - 1 else v for x, v in f.items()}
                if rng.random() < 0.6:
                    x = rng.choice(g.elements)
                    f[x] = Ordinal(rng.randint(0, 2)) if rng.random() < 0.5 else f[x] + 1
                strict = is_isotone(f, g)
                assert strict == closure_monotone(f, g, below)
                seen[strict] += 1
        assert min(seen.values()) > 20

    def test_length_function(self):
        rng = random.Random(19)
        posets = [random_dag(rng, n) for n in range(1, 40) for _ in range(5)]
        posets += [product_poset(chain(a), chain(b)) for a, b in GRIDS]
        posets += [product_poset(product_poset(chain(3), FinitePoset("xy", [])), chain(4)),
                   product_poset(random_dag(rng, 8), random_dag(rng, 6))]
        posets += list(small_posets())
        for p in posets:
            assert length_function(p) == max_over_predecessors(p), p.pairs
        assert any(len(set(p.pairs)) < len(p.pairs) for p in posets)

    def test_cyclic_relation_raises(self):
        p = FinitePoset([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
        for f in ({1: 0, 2: 1, 3: 2}, {1: 0, 2: 0, 3: 0}):
            with pytest.raises(DomainError, match="cycle"):
                is_isotone(f, p)
