"""The ideal-class layer of the rings against the exhaustive carrier scan.

``FiniteRing.ideal_class`` without an override scans the carrier, so
calling it on a keyed ring gives the oracle for that ring's principal
ideals.  The units oracle searches for an inverse.
"""

import contextlib
import io
import itertools
import json
import math
import operator
import os
import random
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from euctype.cli import main
from euctype.errors import DomainError, NotEuclideanRing, ResourceError
from euctype.euclidean import (
    EuclideanTable,
    _length_values,
    _ranks,
    bottom_euclidean,
    collapse_pair_table,
    division_counterexample,
    is_isotone_euclidean,
    isotone_minimization,
    make_table,
    nagata_product,
    quotient_euclidean,
    table_to_dict,
)
from euctype.ordinal import Ordinal, omega_power
from euctype import rings as rings_module
from euctype.parsing import parse_element, parse_ring_spec, table_from_dict
from euctype.rings import (
    FiniteRing,
    GaloisField,
    PolyQuotient,
    ProductRing,
    QuotientRing,
    TableRing,
    Zmod,
    _poly_multiplicity,
    poly_factor,
    poly_mod,
    truncated_bivariate_fixture,
)

from ideal_oracles import (
    _bottom_fixed_point,
    _class_pair_oracle,
    _minimization_oracle,
    coset_partition,
)


def scanned_ideals(ring):
    return {x: FiniteRing.ideal_class(ring, x) for x in ring.elements}


def scanned_units(ring):
    return frozenset(x for x in ring.elements
                     if any(ring.mul(x, y) == ring.one for y in ring.elements))


def assert_matches_scan(ring):
    pids = ring.principal_ideals()
    assert pids == scanned_ideals(ring), ring.name
    # one shared object per distinct ideal
    assert len({id(v) for v in pids.values()}) == len(set(pids.values())), ring.name
    assert ring.units() == scanned_units(ring), ring.name


def poly_rings():
    """Every monic modulus of small degree over GF(2), GF(3), GF(4) and
    GF(5): chains, products of distinct factors and irreducibles alike."""
    for q, top in ((2, 5), (3, 3), (4, 2), (5, 2)):
        F = GaloisField(q)
        for d in range(1, top + 1):
            for lower in itertools.product(range(q), repeat=d):
                yield PolyQuotient(F, lower + (1,))


def poly(q, *coeffs):
    return PolyQuotient(GaloisField(q), coeffs)


def product_rings():
    return [
        ProductRing([Zmod(4), Zmod(6)]),
        ProductRing([Zmod(3), Zmod(5), Zmod(4)]),
        ProductRing([Zmod(8), poly(2, 0, 1, 1)]),            # t^2 + t
        ProductRing([poly(3, 1, 0, 1), Zmod(9)]),            # t^2 + 1
        ProductRing([ProductRing([Zmod(2), Zmod(3)]), Zmod(4)]),
        ProductRing([Zmod(3), ProductRing([Zmod(4), poly(3, 0, 0, 1)])]),
        ProductRing([truncated_bivariate_fixture(), Zmod(3)]),
    ]


class TestAgainstCarrierScan:
    def test_zmod_below_200(self):
        for n in range(2, 200):
            assert_matches_scan(Zmod(n))

    def test_polynomial_moduli(self):
        for ring in poly_rings():
            assert_matches_scan(ring)

    def test_products(self):
        for ring in product_rings():
            assert_matches_scan(ring)

    def test_quotients(self):
        rng = random.Random(3)
        bases = ([Zmod(n) for n in (12, 36, 60, 64, 90)]
                 + [poly(2, 0, 1, 0, 1), poly(3, 2, 0, 1), poly(4, 0, 0, 1), poly(5, 4, 0, 1)]
                 + product_rings())
        for base in bases:
            non_units = [b for b in base.elements if not base.is_unit(b)]
            for b in rng.sample(non_units, min(3, len(non_units))):
                quot = base.quotient_ring(b)
                assert_matches_scan(quot)
                # and a quotient of the quotient
                inner = [c for c in quot.elements
                         if c != quot.zero and not quot.is_unit(c)]
                if inner:
                    assert_matches_scan(quot.quotient_ring(rng.choice(inner)))

    def test_table_ring_keeps_the_scan(self):
        ring = truncated_bivariate_fixture()
        assert TableRing.ideal_class is FiniteRing.ideal_class
        assert_matches_scan(ring)

    def test_principal_ideals_is_not_overridden(self):
        # the one entry point and the one cache for every ring type
        for cls in (Zmod, PolyQuotient, ProductRing, QuotientRing, TableRing):
            assert cls.principal_ideals is FiniteRing.principal_ideals

    def test_all_ideals_of_principal_rings(self):
        for ring in (Zmod(60), poly(2, 0, 1, 0, 1), ProductRing([Zmod(4), Zmod(9)]),
                     Zmod(36).quotient_ring(6)):
            closed = ring._closed_ideals(ring.principal_ideals())
            assert ring.all_ideals() == sorted(
                closed, key=lambda s: (len(s), sorted(ring.index(e) for e in s)))


class TestNoMultiplication:
    @pytest.fixture
    def rings(self):
        two = GaloisField(2)
        return [
            Zmod(2048),
            PolyQuotient(two, (0,) * 11 + (1,)),
            ProductRing([Zmod(8), PolyQuotient(two, (0, 1, 1)), Zmod(27)]),
            ProductRing([Zmod(8), Zmod(27)]).quotient_ring((2, 3)),
        ]

    def test_principal_ideals_and_units_never_multiply(self, rings, monkeypatch):
        def forbidden(self, x, y):
            raise AssertionError(f"mul called on {self.name}")

        for cls in (Zmod, PolyQuotient, ProductRing, QuotientRing):
            monkeypatch.setattr(cls, "mul", forbidden)
        for ring in rings:
            pids = ring.principal_ideals()
            assert len(pids) == len(ring.elements)
            assert ring.one in ring.units()

    def test_bottom_table_reads_only_the_valuations(self, rings, monkeypatch):
        def forbidden(name):
            def call(self, *args):
                raise AssertionError(f"{name} called on {self.name}")
            return call

        for cls in (Zmod, PolyQuotient, ProductRing, QuotientRing):
            for name in ("add", "mul"):
                monkeypatch.setattr(cls, name, forbidden(name))
        for name in ("principal_ideals", "coset_labels"):
            monkeypatch.setattr(FiniteRing, name, forbidden(name))
        for ring in rings:
            table = bottom_euclidean(ring)
            assert len(table.values) == len(ring.elements) - 1
            assert table.value(ring.one) == Ordinal(0)

    def test_isotonicity_and_minimization_read_only_the_valuations(self, rings, monkeypatch):
        def forbidden(name):
            def call(self, *args):
                raise AssertionError(f"{name} called on {self.name}")
            return call

        tables = [bottom_euclidean(ring) for ring in rings]
        assert all(_class_pair_oracle(table, False) for table in tables)
        for cls in (Zmod, PolyQuotient, ProductRing, QuotientRing):
            for name in ("add", "mul"):
                monkeypatch.setattr(cls, name, forbidden(name))
        for name in ("principal_ideals", "coset_labels"):
            monkeypatch.setattr(FiniteRing, name, forbidden(name))
        for table in tables:
            assert is_isotone_euclidean(table)
            assert isotone_minimization(table).values == table.values


def key_corpus():
    """Every monic modulus of degree at most 4 over GF(2), GF(3) and GF(4):
    chains t^k, moduli prime to t and mixed t^e * f'; and two longer chains."""
    for q in (2, 3, 4):
        F = GaloisField(q)
        for d in range(1, 5):
            for lower in itertools.product(range(q), repeat=d):
                yield PolyQuotient(F, lower + (1,))
    yield poly(2, *(0,) * 9, 1)
    yield poly(9, 0, 0, 0, 1)


class TestChainKeys:
    def test_bulk_keys_equal_the_keys_of_each_element(self):
        rng = random.Random(24)
        for ring in key_corpus():
            keys = dict(zip(ring.elements, map(ring.ideal_class, ring.elements)))
            assert ring.carrier_classes() == list(keys.values()), ring.name
            batch = rng.choices(ring.elements, k=len(ring.elements) // 2 + 7)
            assert ring.ideal_classes(batch) == list(map(keys.__getitem__, batch)), ring.name
            assert ring.ideal_classes([]) == []

    def test_valuations_equal_the_division_by_each_factor(self):
        for ring in key_corpus():
            F = ring.field
            irreducibles = sorted(poly_factor(F, ring.modulus))
            for key in dict.fromkeys(ring.carrier_classes()):
                expected = tuple(_poly_multiplicity(F, key, p)[0] for p in irreducibles)
                assert ring.valuations(key) == expected, (ring.name, key)

    def test_chain_quotients_divide_nothing(self, monkeypatch):
        """Built first; then keys, valuations, bottom tables, units and
        lengths on GF(q)[t]/(t^k), on a chain quotient times Z/n and on a
        quotient of one make no polynomial division."""
        rings = [
            poly(2, *(0,) * 11, 1),
            poly(9, 0, 0, 0, 1),
            ProductRing([poly(3, 0, 0, 0, 1), Zmod(12)]),
            poly(2, *(0,) * 7, 1).quotient_ring((0, 0, 0, 1, 0, 0, 0)),
        ]

        def forbidden(*args):
            raise AssertionError("poly_divmod called")

        monkeypatch.setattr(rings_module, "poly_divmod", forbidden)
        for ring in rings:
            keys = ring.carrier_classes()
            assert len(keys) == len(ring.elements)
            vectors = {key: ring.valuations(key) for key in dict.fromkeys(keys)}
            table = bottom_euclidean(ring)
            assert table.value(ring.one) == Ordinal(0)
            assert ring.units() == frozenset(x for x, key in zip(ring.elements, keys)
                                             if not any(vectors[key]))
            assert [ring.element_length(x) for x in ring.elements] \
                == [sum(vectors[key]) for key in keys]

    def test_zmod_names_need_no_format_element(self, monkeypatch):
        def forbidden(self, x):
            raise AssertionError("format_element called")

        monkeypatch.setattr(FiniteRing, "format_element", forbidden)
        assert Zmod(360).element_names() == list(map(str, range(360)))


def old_division_counterexample(ring, values):
    """The quadratic scan the class sweep replaced: every divisor against
    every ranked element."""
    zero = ring.zero
    pids = ring.principal_ideals()
    rank = _ranks(values)
    index = ring.index
    best = None
    for b in ring.elements:
        if b == zero:
            continue
        ideal = pids[b]
        cid = {}
        k = 0
        for x in ring.elements:
            if x not in cid:
                for i in ideal:
                    cid[ring.add(x, i)] = k
                k += 1
        hit = [False] * k
        hit[cid[zero]] = True
        for r, rr in rank.items():
            if rr < rank[b]:
                hit[cid[r]] = True
        if all(hit):
            continue
        bad = min((x for x in ring.elements if not hit[cid[x]]), key=index)
        if best is None or (index(bad), index(b)) < (index(best[0]), index(best[1])):
            best = (bad, b)
    return best


class TestClassSweep:
    RINGS = [Zmod(12), Zmod(16), Zmod(30), Zmod(36), Zmod(49), poly(2, 0, 0, 0, 1),
             poly(3, 2, 0, 1), poly(4, 0, 1, 1), ProductRing([Zmod(4), Zmod(9)]),
             ProductRing([ProductRing([Zmod(2), Zmod(3)]), Zmod(4)]),
             Zmod(60).quotient_ring(4)]

    def test_perturbed_tables(self):
        rng = random.Random(11)
        failing = 0
        for ring in self.RINGS:
            bottom = bottom_euclidean(ring).values
            nonzero = list(bottom)
            for _ in range(8):
                values = dict(bottom)
                for x in rng.sample(nonzero, rng.randint(1, 3)):
                    values[x] = Ordinal(max(0, values[x].to_int() + rng.choice((-2, -1, 1, 2))))
                cex = division_counterexample(ring, values)
                assert cex == old_division_counterexample(ring, values), ring.name
                failing += cex is not None
        assert failing > 20  # most perturbations break the division property

    def test_random_tables(self):
        rng = random.Random(12)
        rings = self.RINGS + [truncated_bivariate_fixture()]
        for ring in rings:
            nonzero = [x for x in ring.elements if x != ring.zero]
            for _ in range(8):
                top = rng.randint(1, 5)
                values = {x: Ordinal(rng.randrange(top)) for x in nonzero}
                assert (division_counterexample(ring, values)
                        == old_division_counterexample(ring, values)), ring.name

    def test_bottom_tables_pass(self):
        for ring in self.RINGS:
            assert division_counterexample(ring, bottom_euclidean(ring).values) is None


def coset_label_keys(monkeypatch, ring):
    """The list of the keys ``ring.coset_labels`` is called with from now
    on; the calls a product makes on its factors are not counted."""
    calls = []
    for cls in (FiniteRing, Zmod, PolyQuotient, ProductRing, QuotientRing):
        if "coset_labels" in vars(cls):
            def counted(self, key, method=vars(cls)["coset_labels"]):
                if self is ring:
                    calls.append(key)
                return method(self, key)
            monkeypatch.setattr(cls, "coset_labels", counted)
    return calls


def failing_pairs(ring, values):
    """The (key, rank) of every divisor b with some a that has no quotient,
    from the coset partition of each (b)."""
    rank = _ranks(values)
    partitions = {}
    out = set()
    for b in values:
        ideal = ring.principal_ideal(b)
        if ideal not in partitions:
            partitions[ideal] = coset_partition(ring, ideal)
        cid, reps = partitions[ideal]
        met = {cid[ring.zero]} | {cid[x] for x, r in rank.items() if r < rank[b]}
        if len(met) < len(reps):
            out.add((ring.ideal_class(b), rank[b]))
    return out


class TestCertificateSweep:
    """Where a vector carries several ranks, the box certificate still
    certifies every (vector, rank) whose boxes all hold a vector of lower
    largest rank; only the pairs it leaves are swept."""

    RINGS = [Zmod(720), Zmod(243), ProductRing([Zmod(8), Zmod(27)]), poly(3, 0, 0, 0, 1),
             ProductRing([Zmod(4), poly(3, 1, 0, 1), Zmod(5)]),
             Zmod(36).quotient_ring(6), Zmod(180).quotient_ring(30)]

    def test_raised_values_on_the_least_ideals_are_certified(self, monkeypatch):
        # a vector one step below the vector of zero is the least vector of
        # no box, so raising a value there moves no box below its divisor
        rng = random.Random(24)
        tables = 0
        for ring in self.RINGS:
            bottom = bottom_euclidean(ring).values
            vector = vector_of(ring)
            top = vector[ring.zero]
            least = [x for x in bottom
                     if sum(top) - sum(vector[x]) == 1
                     and sum(vector[y] == vector[x] for y in bottom) > 1]
            assert least, ring.name
            raised = []
            for x in rng.sample(least, min(4, len(least))):
                values = dict(bottom)
                values[x] = bottom[x] + rng.randint(1, 3)
                raised.append(values)
            calls = coset_label_keys(monkeypatch, ring)
            assert [division_counterexample(ring, values) for values in raised] == \
                [None] * len(raised), ring.name
            assert calls == [], ring.name
            monkeypatch.undo()
            # and the sweep agrees that these tables are Euclidean
            for values in raised:
                assert class_sweep_division_counterexample(ring, values) is None, ring.name
            tables += len(raised)
        assert tables >= 2 * len(self.RINGS)

    def test_a_lowered_value_sweeps_only_its_own_class(self, monkeypatch):
        rng = random.Random(25)
        refuted = 0
        for ring in self.RINGS:
            bottom = bottom_euclidean(ring).values
            cases = []
            non_units = [x for x in bottom if bottom[x].to_int()]
            for x in rng.sample(non_units, min(6, len(non_units))):
                values = dict(bottom)
                values[x] = Ordinal(rng.randrange(bottom[x].to_int()))
                cases.append((x, values, class_sweep_division_counterexample(ring, values)))
            calls = coset_label_keys(monkeypatch, ring)
            for x, values, expected in cases:
                calls.clear()
                assert division_counterexample(ring, values) == expected, ring.name
                # one call on the class of x; none where the boxes certify it
                assert calls == [ring.ideal_class(x)] or (expected is None and calls == []), \
                    ring.name
                refuted += expected is not None
            monkeypatch.undo()
        assert refuted > 2 * len(self.RINGS)

    def test_perturbed_tables_match_both_sweeps(self):
        # one and two moved values, and random tables, on rings small enough
        # for the quadratic scan; the quotients name one vector by two keys
        rng = random.Random(26)
        rings = TestClassSweep.RINGS + [Zmod(36).quotient_ring(6), Zmod(180).quotient_ring(30)]
        assert any(len(set(ring.carrier_classes())) > len(set(vector_of(ring).values()))
                   for ring in rings)
        failing = 0
        for ring in rings:
            bottom = bottom_euclidean(ring).values
            nonzero = list(bottom)
            tables = []
            for moved in (1, 1, 2, 2):
                values = dict(bottom)
                for x in rng.sample(nonzero, moved):
                    values[x] = Ordinal(max(0, values[x].to_int() + rng.choice((-2, -1, 1, 2))))
                tables.append(values)
            top = rng.randint(2, 5)
            tables += [{x: Ordinal(rng.randrange(top)) for x in nonzero} for _ in range(2)]
            for values in tables:
                cex = division_counterexample(ring, values)
                assert cex == old_division_counterexample(ring, values), ring.name
                assert cex == class_sweep_division_counterexample(ring, values), ring.name
                failing += cex is not None
        assert failing > len(rings)

    def test_the_pairs_left_are_exact_on_functions_of_the_vector(self):
        # on a function of the vector every pair left holds a counterexample;
        # on any table every pair holding one is left
        from euctype.euclidean import _uncertified

        rng = random.Random(27)
        checked = 0
        for ring in valuation_corpus()[::9]:
            if len(ring.elements) > 64:
                continue
            bottom = bottom_euclidean(ring).values
            vector = vector_of(ring)
            keys = ring.carrier_classes()
            value = {v: Ordinal(rng.randrange(4)) for v in set(vector.values())}
            function = {x: value[vector[x]] for x in bottom}
            moved = dict(bottom)
            for x in rng.sample(list(bottom), min(2, len(bottom))):
                moved[x] = Ordinal(rng.randrange(4))
            for values, exact in ((bottom, True), (function, True), (moved, False)):
                left = _uncertified(ring, keys, _ranks(values))
                failing = failing_pairs(ring, values)
                assert (left == failing) if exact else (left >= failing), ring.name
                checked += bool(failing)
        assert checked > 20


def class_sweep_division_counterexample(ring, values):
    """The sweep that coset labels replaced: one coset partition per
    distinct principal ideal, built by adding the ideal to every element."""
    zero = ring.zero
    pids = ring.principal_ideals()
    order = {v: i for i, v in enumerate(sorted(set(values.values())))}
    rank = {x: order[v] for x, v in values.items()}
    by_rank = sorted(rank, key=rank.__getitem__)
    index = ring.index
    classes = {}
    for b in ring.elements:
        if b != zero:
            classes.setdefault(pids[b], {}).setdefault(rank[b], b)
    best = None
    for ideal, divisors in classes.items():
        cid, reps = coset_partition(ring, ideal)
        hit = [False] * len(reps)
        hit[cid[zero]] = True
        met = first_unmet = 0
        for rb in sorted(divisors):
            while met < len(by_rank) and rank[by_rank[met]] < rb:
                hit[cid[by_rank[met]]] = True
                met += 1
            while first_unmet < len(reps) and hit[first_unmet]:
                first_unmet += 1
            if first_unmet == len(reps):
                break
            pair = (index(reps[first_unmet]), index(divisors[rb]))
            if best is None or pair < best:
                best = pair
    if best is None:
        return None
    return ring.elements[best[0]], ring.elements[best[1]]


def _table_variants(bottom, rng):
    """The bottom table, its omega-relabellings v -> w^v and v -> w*v + v
    (Euclidean still), and the bottom and w^v tables with 1 to 3 values
    moved (most of them not Euclidean)."""
    power = {x: omega_power(v) for x, v in bottom.items()}
    times = {x: Ordinal.from_terms(((Ordinal(1), v.to_int()), (Ordinal(), v.to_int())))
             if v.to_int() else v for x, v in bottom.items()}
    out = [bottom, power, times]
    nonzero = list(bottom)
    for base in (bottom, power):
        values = dict(base)
        for x in rng.sample(nonzero, min(len(nonzero), rng.randint(1, 3))):
            v = bottom[x].to_int() + rng.choice((-2, -1, 1, 2))
            values[x] = Ordinal(max(0, v)) if base is bottom else omega_power(max(0, v))
        out.append(values)
    return out


def specimen_products():
    specimen = truncated_bivariate_fixture()
    quotient = specimen.quotient_ring("x")
    return [specimen, quotient,
            ProductRing([specimen, Zmod(3)]), ProductRing([Zmod(4), specimen]),
            ProductRing([specimen, poly(2, 1, 1, 1)]), ProductRing([quotient, Zmod(9)]),
            ProductRing([Zmod(2), specimen, Zmod(3)])]


def chain_poly_rings():
    """GF(q)[t]/(t^k): every divisor is a power of t and leaves no residues."""
    return [poly(2, 0, 1), poly(2, 0, 0, 0, 0, 1), poly(3, 0, 0, 0, 1), poly(4, 0, 0, 1),
            poly(5, 0, 0, 1), poly(7, 0, 0, 1)]


def class_keys(ring):
    return list(dict.fromkeys(ring.ideal_class(x) for x in ring.elements))


class TestCosetLabels:
    """``division_counterexample`` reads cosets through ``coset_labels``; the
    class sweep over coset partitions is its oracle."""

    def test_labels_split_the_carrier_into_the_cosets(self):
        rings = valuation_corpus()[::7] + product_rings() + specimen_products() + [
            poly(2, 1, 0, 1, 0, 1), poly(3, 0, 1, 0, 1), poly(4, 2, 3, 1)] + chain_poly_rings()
        for ring in rings:
            for key in class_keys(ring):
                labels, count = ring.coset_labels(key)
                cid, reps = coset_partition(ring, frozenset(ring.ideal_members(key)))
                got = list(labels(ring.elements))
                pairs = set(zip(got, (cid[x] for x in ring.elements)))
                assert count == len(reps), ring.name
                # a bijection between labels and coset ids
                assert len(pairs) == len({lab for lab, _ in pairs}) == count, ring.name
                # the same labels one element at a time, and from a list
                assert [lab for x in ring.elements for lab in labels([x])] == got, ring.name
                assert list(labels(list(ring.elements))) == got, ring.name

    def test_empty_and_one_element_batches(self):
        specimen = truncated_bivariate_fixture()
        rings = [Zmod(12), poly(3, 0, 0, 1), poly(2, 1, 0, 1, 0, 1),
                 ProductRing([ProductRing([Zmod(2), Zmod(3)]), Zmod(4)]),
                 Zmod(12).quotient_ring(4), specimen, ProductRing([specimen, Zmod(3)])]
        for ring in rings:
            for key in class_keys(ring):
                labels, _ = ring.coset_labels(key)
                assert list(labels([])) == [] and list(labels(())) == [], ring.name
                one = list(labels([ring.one]))
                assert len(one) == 1 and one == list(labels((ring.one,))), ring.name
                full = dict(zip(ring.elements, labels(ring.elements)))
                assert one == [full[ring.one]], ring.name
                assert list(labels([ring.zero])) == [full[ring.zero]], ring.name

    def test_nested_products_label_by_nested_tuples(self):
        ring = ProductRing([ProductRing([Zmod(2), Zmod(3)]), Zmod(4)])
        for (d1, d2), d3 in class_keys(ring):
            labels, count = ring.coset_labels(((d1, d2), d3))
            assert count == d1 * d2 * d3
            assert list(labels(ring.elements)) == [
                ((a % d1, b % d2), c % d3) for (a, b), c in ring.elements]

    def test_quotients_and_table_rings_read_the_partition(self):
        specimen = truncated_bivariate_fixture()
        for ring in (specimen, specimen.quotient_ring("x"), Zmod(12).quotient_ring(4),
                     poly(2, 0, 0, 0, 1).quotient_ring((0, 1, 0))):
            for key in class_keys(ring):
                labels, count = ring.coset_labels(key)
                cid, reps = coset_partition(ring, frozenset(ring.ideal_members(key)))
                assert count == len(reps), ring.name
                assert list(labels(ring.elements)) == [cid[x] for x in ring.elements], ring.name

    def test_polynomial_labels_are_the_remainders(self):
        for ring in (poly(2, 1, 0, 1, 0, 1), poly(3, 0, 1, 0, 1), poly(4, 2, 3, 1),
                     poly(2, 0, 1, 1, 0, 1, 1), poly(3, 0, 0, 0, 1), poly(2, 1, 0, 1, 0, 0, 0, 1)):
            F = ring.field
            for g in class_keys(ring):
                labels, count = ring.coset_labels(g)
                j = len(g) - 1
                assert count == F.size ** j
                for x, label in zip(ring.elements, labels(ring.elements)):
                    r = poly_mod(F, x, g)
                    assert label == r + (0,) * (j - len(r)), (ring.name, g, x)

    def test_chain_quotients_label_by_slices(self):
        # every divisor of t^k is t^j, so the label of x is its low j coefficients
        for ring in chain_poly_rings():
            F = ring.field
            for g in class_keys(ring):
                j = len(g) - 1
                assert g == (0,) * j + (1,), ring.name
                labels, count = ring.coset_labels(g)
                assert isinstance(labels.args[0], operator.itemgetter), (ring.name, g)
                assert count == F.size ** j
                for x, label in zip(ring.elements, labels(ring.elements)):
                    r = poly_mod(F, x, g)
                    assert label == x[:j] == r + (0,) * (j - len(r)), (ring.name, g, x)

    def test_ranks_match_the_sort_by_value(self):
        # shared: one Ordinal per ideal class or per level, as bottom tables
        # (the last by the fixed point) and parsed tables hold them; fresh: a
        # new Ordinal at every element
        def by_value(values):
            order = {v: i for i, v in enumerate(sorted(set(values.values())))}
            return {x: order[v] for x, v in values.items()}

        rng = random.Random(18)
        for ring in (Zmod(720), ProductRing([Zmod(8), Zmod(27)]), poly(3, 0, 0, 0, 1),
                     ProductRing([truncated_bivariate_fixture().quotient_ring("x"), Zmod(9)])):
            bottom = bottom_euclidean(ring)
            shared = bottom.values
            assert len({id(v) for v in shared.values()}) <= len(shared) // 4
            parsed = table_from_dict(table_to_dict(bottom)).values  # one object per value
            assert len({id(v) for v in parsed.values()}) == len(set(parsed.values()))
            fresh = {x: omega_power(rng.randrange(3)) + Ordinal(v.to_int())
                     for x, v in shared.items()}
            assert len({id(v) for v in fresh.values()}) == len(fresh)
            for values in (shared, parsed, fresh, _table_variants(shared, rng)[-1]):
                assert _ranks(values) == by_value(values), ring.name

    def test_table_rings_keep_their_keys_between_checks(self, monkeypatch):
        specimen = truncated_bivariate_fixture()
        for _ in range(2):  # the kept key is the scanned ideal of that element
            for x in specimen.elements:
                assert specimen.ideal_class(x) == {specimen.mul(q, x) for q in specimen.elements}
        rng = random.Random(17)
        for ring in specimen_products():
            nonzero = [x for x in ring.elements if x != ring.zero]
            tables = [{x: Ordinal(rng.randrange(3)) for x in nonzero} for _ in range(4)]
            expected = [division_counterexample(ring, values) for values in tables]
            with monkeypatch.context() as m:
                for cls in (TableRing, Zmod, PolyQuotient):
                    m.setattr(cls, "mul", lambda self, x, y: pytest.fail(f"mul on {self.name}"))
                m.setattr(TableRing, "add", lambda self, x, y: pytest.fail(f"add on {self.name}"))
                assert [division_counterexample(ring, values) for values in tables] == expected

    def test_the_sweep_matches_on_the_valuation_corpus(self):
        rng = random.Random(13)
        rings = valuation_corpus()
        assert len(rings) > 560
        tables = failing = 0
        for ring in rings:
            for values in _table_variants(bottom_euclidean(ring).values, rng):
                cex = division_counterexample(ring, values)
                assert cex == class_sweep_division_counterexample(ring, values), ring.name
                tables += 1
                failing += cex is not None
        assert tables == 5 * len(rings)
        assert failing > len(rings) // 2  # many of the moved tables are not Euclidean

    def test_the_sweep_matches_on_products_with_the_specimen(self):
        rng = random.Random(14)
        for ring in specimen_products():
            nonzero = [x for x in ring.elements if x != ring.zero]
            for _ in range(12):
                top = rng.randint(1, 6)
                values = {x: Ordinal(rng.randrange(top)) for x in nonzero}
                assert (division_counterexample(ring, values)
                        == class_sweep_division_counterexample(ring, values)), ring.name

    def test_quotient_keys_name_one_ideal_twice(self):
        # in Z/12/(4) the keys 1 and 3 both name the unit ideal, so the sweep
        # takes the units as two classes; the least pair stays the same
        ring = Zmod(12).quotient_ring(4)
        assert ring.ideal_class(1) != ring.ideal_class(3)
        assert ring.principal_ideal(1) == ring.principal_ideal(3)
        rng = random.Random(15)
        for _ in range(30):
            values = {x: Ordinal(rng.randrange(3)) for x in (1, 2, 3)}
            assert (division_counterexample(ring, values)
                    == class_sweep_division_counterexample(ring, values)), values

    def test_keyed_rings_need_no_ideals_and_no_additions(self, monkeypatch):
        rng = random.Random(16)
        cases = []
        for ring in (Zmod(720), poly(3, 0, 0, 0, 0, 1), ProductRing([Zmod(8), Zmod(27)]),
                     poly(2, 0, 1, 1, 0, 1, 1),  # t (t^2 + t + 1)^2
                     ProductRing([Zmod(4), poly(3, 1, 0, 1), Zmod(5)])):
            for values in _table_variants(bottom_euclidean(ring).values, rng):
                cases.append((ring, values, class_sweep_division_counterexample(ring, values)))
        assert sum(expected is not None for _, _, expected in cases) >= 5

        def forbidden(name):
            def call(self, *args):
                raise AssertionError(f"{name} called on {self.name}")
            return call

        for cls in (Zmod, PolyQuotient, ProductRing):
            monkeypatch.setattr(cls, "add", forbidden("add"))
        for name in ("principal_ideals", "coset_labels"):
            monkeypatch.setattr(FiniteRing, name, forbidden(name))
        for ring, values, expected in cases:
            assert division_counterexample(ring, values) == expected, ring.name


def vector_of(ring):
    return {x: ring.valuations(ring.ideal_class(x)) for x in ring.elements}


def every_pair(ring, keys, rank):
    """The (key, rank) pair of every nonzero element: the certificate that
    certifies nothing."""
    return {(key, r) for key, r in zip(keys, map(rank.get, ring.elements)) if r is not None}


def sweep_only(ring, values):
    """``division_counterexample`` with the box certificate turned off."""
    from euctype import euclidean

    certificate = euclidean._uncertified
    euclidean._uncertified = every_pair
    try:
        return division_counterexample(ring, values)
    finally:
        euclidean._uncertified = certificate


class TestValuationBoxes:
    """The box certificate of ``division_counterexample`` against the sweep,
    which it must match down to the least pair."""

    @staticmethod
    def certified(ring, values):
        from euctype import euclidean

        return not euclidean._uncertified(ring, ring.carrier_classes(), _ranks(values))

    def test_the_certificate_matches_the_sweep_on_the_valuation_corpus(self):
        rng = random.Random(19)
        rings = valuation_corpus()
        assert len(rings) > 560
        tables = certified = failing = 0
        for ring in rings:
            bottom = bottom_euclidean(ring).values
            vector = vector_of(ring)
            variants = _table_variants(bottom, rng) + [_length_values(ring)]
            for _ in range(2):  # random functions of the valuation vector
                value = {v: Ordinal(rng.randrange(4)) for v in set(vector.values())}
                variants.append({x: value[vector[x]] for x in bottom})
            for values in variants:
                cex = division_counterexample(ring, values)
                assert cex == sweep_only(ring, values), ring.name
                tables += 1
                certified += self.certified(ring, values)
                failing += cex is not None
        assert tables == 8 * len(rings)
        # the three relabellings and the length table of every ring take the certificate
        assert certified >= 4 * len(rings)
        assert failing > len(rings)

    def test_the_certificate_is_exact_on_functions_of_the_vector(self):
        rng = random.Random(20)
        for ring in valuation_corpus()[::5]:
            vector = vector_of(ring)
            for _ in range(6):
                value = {v: Ordinal(rng.randrange(5)) for v in set(vector.values())}
                values = {x: value[vector[x]] for x in ring.elements if x != ring.zero}
                assert self.certified(ring, values) == (sweep_only(ring, values) is None), ring.name

    def test_tables_constant_per_key_but_not_per_ideal(self):
        # a quotient names one ideal by several keys of its base ring: in
        # Z/36/(6) the keys 2 and 4 both have the vector (1, 0); grouping
        # by key would accept tables the sweep refutes
        ring = Zmod(36).quotient_ring(6)
        assert (ring.ideal_class(2), ring.ideal_class(4)) == (2, 4)
        assert ring.valuations(2) == ring.valuations(4) == (1, 0)
        rng = random.Random(21)
        refuted = 0
        # the least coset members of Z/8 x Z/27/((2, 3)) have one key per ideal
        for ring, shared in ((Zmod(36).quotient_ring(6), True), (Zmod(180).quotient_ring(30), True),
                             (ProductRing([Zmod(8), Zmod(27)]).quotient_ring((2, 3)), False)):
            keys = dict(zip(ring.elements, ring.carrier_classes()))
            assert (len(set(keys.values())) > len(set(vector_of(ring).values()))) == shared
            for _ in range(60):
                value = {key: Ordinal(rng.randrange(4)) for key in set(keys.values())}
                values = {x: value[keys[x]] for x in ring.elements if x != ring.zero}
                cex = division_counterexample(ring, values)
                assert cex == sweep_only(ring, values), ring.name
                assert cex == class_sweep_division_counterexample(ring, values), ring.name
                refuted += cex is not None and len(set(values.values())) > 1
        assert refuted > 20

    def test_specimen_rings_take_the_sweep(self, monkeypatch):
        from euctype import euclidean

        rng = random.Random(22)
        cases = []
        for ring in specimen_rings():
            bottom = bottom_euclidean(ring).values
            for values in _table_variants(bottom, rng):
                cases.append((ring, values, class_sweep_division_counterexample(ring, values)))
        monkeypatch.setattr(euclidean, "_uncertified",
                            lambda ring, *args: pytest.fail(f"certificate on {ring.name}"))
        for ring, values, expected in cases:
            assert division_counterexample(ring, values) == expected, ring.name

    def test_a_second_check_computes_no_keys(self, monkeypatch):
        calls = []

        def counted(cls, name):
            method = getattr(cls, name)

            def call(self, *args):
                calls.append((cls.__name__, name))
                return method(self, *args)
            return call

        for cls in (FiniteRing, Zmod, PolyQuotient, ProductRing, QuotientRing):
            for name in ("ideal_class", "ideal_classes"):
                if name in vars(cls):
                    monkeypatch.setattr(cls, name, counted(cls, name))
        rng = random.Random(23)
        for ring in (Zmod(720), poly(3, 0, 0, 0, 1), ProductRing([Zmod(8), poly(2, 0, 1, 1)]),
                     Zmod(60).quotient_ring(4), ProductRing([truncated_bivariate_fixture(), Zmod(3)])):
            nonzero = [x for x in ring.elements if x != ring.zero]
            tables = [{x: Ordinal(rng.randrange(3)) for x in nonzero} for _ in range(2)]
            calls.clear()
            first = [division_counterexample(ring, tables[0])]
            assert 0 < len(calls) <= len(ring.elements) + 1, ring.name
            calls.clear()
            assert [division_counterexample(ring, tables[0])] == first, ring.name
            division_counterexample(ring, tables[1])
            assert calls == [], ring.name

    def test_default_valuations_are_kept_per_key(self, monkeypatch):
        for ring in specimen_rings():
            expected = {x: ring.valuations(ring.ideal_class(x)) for x in ring.elements}
            with monkeypatch.context() as m:
                for cls in (TableRing, Zmod, ProductRing, QuotientRing):
                    m.setattr(cls, "mul", lambda self, x, y: pytest.fail(f"mul on {self.name}"))
                assert {x: ring.valuations(ring.ideal_class(x))
                        for x in ring.elements} == expected, ring.name


def test_symbolic_spec_with_a_large_factor():
    # the length of Z/2048 comes from its 12 ideal classes, not 2048^2 products
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["ring-analyze", "Z x Z/2048", "--json"])
    assert code == 0
    report = json.loads(out.getvalue())
    assert report["artinian_lengths"] == [11]
    assert report["spec"] == "Z x Z/2048"
    assert report["order_type"] == "w + 11"


def brute_cosets(base, b):
    """R/(b) by definition: the ideal from all multiples of b, each coset
    from adding the ideal to an element, named by its least member."""
    ideal = {base.mul(q, b) for q in base.elements}
    cosets = {}
    for x in base.elements:
        members = sorted({base.add(x, i) for i in ideal}, key=base.index)
        cosets[x] = tuple(members)
    reps = sorted({members[0] for members in cosets.values()}, key=base.index)
    return reps, {x: members[0] for x, members in cosets.items()}, cosets


def quotient_corpus():
    """(base, divisor) pairs: Z/n, GF(q)[t]/(f), flat and nested products,
    quotients of products and the non-principal specimen."""
    rng = random.Random(5)
    bases = ([Zmod(n) for n in (2, 12, 16, 30, 36)]
             + [poly(2, 0, 1, 0, 1), poly(3, 2, 0, 1), poly(4, 0, 0, 1), poly(5, 4, 0, 1)]
             + product_rings()
             + [ProductRing([Zmod(8), Zmod(27)]).quotient_ring((2, 3)),
                ProductRing([Zmod(4), poly(2, 0, 0, 1)]).quotient_ring((2, (0, 1))),
                truncated_bivariate_fixture()])
    for base in bases:
        divisors = [b for b in base.elements if not base.is_unit(b)]
        for b in [base.zero] + rng.sample(divisors, min(4, len(divisors))):
            yield base, b


def raised_euclidean_table(ring, rng):
    """A validated table: the bottom table with the values of a few random
    elements raised, each raise kept only where the table stays Euclidean."""
    values = dict(bottom_euclidean(ring).values)
    for x in rng.sample(list(values), min(6, len(values))):
        old, values[x] = values[x], Ordinal(values[x].to_int() + rng.randint(1, 3))
        if division_counterexample(ring, values) is not None:
            values[x] = old
    return make_table(ring, values)


class TestCosetLayer:
    def test_quotient_rings_against_brute_force(self):
        rng = random.Random(23)
        tables = {}
        pairs = 0
        for base, b in quotient_corpus():
            quot = base.quotient_ring(b)
            reps, proj, cosets = brute_cosets(base, b)
            assert list(quot.elements) == reps, quot.name
            for x in base.elements:
                assert quot.projection(x) == proj[x], quot.name
            pairs += 1
            if not base.is_principal():
                continue  # no table on it is Euclidean
            if base not in tables:
                tables[base] = raised_euclidean_table(base, rng)
            table = tables[base]
            # the pushed table takes the least value over each coset
            assert quotient_euclidean(table, b).values == {
                xbar: min(table.values[m] for m in cosets[xbar])
                for xbar in reps if xbar != quot.zero}, quot.name
        assert pairs > 60
        raised = [t for t in tables.values() if t.values != bottom_euclidean(t.ring).values]
        assert len(raised) > 10

    def test_partition_ids_follow_the_carrier_order(self):
        for base, b in quotient_corpus():
            cid, reps = coset_partition(base, base.principal_ideal(b))
            assert [cid[r] for r in reps] == list(range(len(reps)))
            assert all(base.index(reps[cid[x]]) <= base.index(x) for x in base.elements)
            assert base.quotient_ring(b)._cid == cid

    def test_quotients_make_no_ring_operation_on_keyed_bases(self, monkeypatch):
        cases = [(Zmod(720), 12), (Zmod(36), 0), (Zmod(49), 7),
                 (poly(3, 0, 0, 0, 1), (0, 1, 0)),                    # t^3, a chain
                 (poly(2, 0, 0, 0, 0, 1), (0, 0, 0, 1)),
                 (poly(2, 0, 1, 1, 0, 1, 1), (1, 1, 1, 0, 0)),        # t (t^2 + t + 1)^2
                 (poly(3, 2, 0, 1), (1, 1)),                          # (t - 1)(t + 1)
                 (ProductRing([Zmod(8), Zmod(27)]), (2, 3)),
                 (ProductRing([Zmod(4), poly(3, 1, 0, 1), Zmod(5)]), (2, (0, 0), 0)),
                 (ProductRing([ProductRing([Zmod(2), Zmod(3)]), Zmod(4)]), ((0, 1), 2))]
        expected = []
        for ring, b in cases:
            reps, _, cosets = brute_cosets(ring, b)
            bottom = bottom_euclidean(ring).values
            expected.append((reps, {xbar: min(bottom[m] for m in cosets[xbar])
                                    for xbar in reps if xbar != ring.zero}))

        def forbidden(name):
            def call(self, *args):
                raise AssertionError(f"{name} called on {self.name}")
            return call

        for cls in (Zmod, PolyQuotient, ProductRing):
            for name in ("add", "mul"):
                monkeypatch.setattr(cls, name, forbidden(name))
        monkeypatch.setattr(FiniteRing, "coset_labels", forbidden("coset_labels"))
        for (ring, b), (reps, values) in zip(cases, expected):
            assert list(ring.quotient_ring(b).elements) == reps, ring.name
            pushed = quotient_euclidean(bottom_euclidean(ring), b)
            assert pushed.values == values and pushed.validated, pushed.ring.name


def _random_quotient(ring, rng):
    divisors = [b for b in ring.elements if not ring.is_unit(b)]
    return ring.quotient_ring(rng.choice(divisors))


def _rings(children):
    products = st.lists(children, min_size=2, max_size=3).filter(
        lambda fs: math.prod(len(f) for f in fs) <= 400).map(ProductRing)
    quotients = st.builds(_random_quotient, children, st.randoms(use_true_random=False))
    return st.one_of(products, quotients)


RINGS = st.recursive(
    st.one_of(
        st.integers(2, 24).map(Zmod),
        st.sampled_from([poly(2, 1, 1), poly(2, 0, 0, 1), poly(2, 1, 1, 0, 1), poly(3, 0, 0, 1),
                         poly(3, 1, 0, 1), poly(4, 0, 0, 1), poly(4, 2, 3), poly(5, 1, 0, 1)]),
        st.just(truncated_bivariate_fixture()),
    ),
    _rings, max_leaves=4)


@given(RINGS, st.data())
@settings(max_examples=150, deadline=None)
def test_element_syntax_round_trips(ring, data):
    x = data.draw(st.sampled_from(ring.elements))
    assert parse_element(ring, ring.format_element(x)) == x


# ---------------------------------------------------------------------------
# local valuations against the fixed point and the chain walk


def valuation_corpus():
    """Every Z/n with n < 300, every Z/a x Z/b with a, b < 16, polynomial
    quotients and mixed products (501 rings), then quotients of some of
    them and quotients of those."""
    rings = [Zmod(n) for n in range(2, 300)]
    rings += [ProductRing([Zmod(a), Zmod(b)]) for a in range(2, 16) for b in range(2, 16)]
    rings += [poly(2, 0, 0, 0, 0, 0, 1), poly(2, 1, 1, 1), poly(3, 1, 0, 2, 0, 1), poly(4, 0, 0, 1),
              ProductRing([Zmod(4), poly(2, 0, 0, 1)]), ProductRing([poly(3, 1, 0, 1), Zmod(9)]),
              ProductRing([Zmod(3), ProductRing([Zmod(4), poly(3, 0, 0, 1)])])]
    rng = random.Random(6)
    quotients = []
    for base in rng.sample(rings, 40) + [poly(2, 0, 1, 0, 1), poly(5, 4, 0, 1)]:
        divisors = [b for b in base.elements if not base.is_unit(b)]
        for b in rng.sample(divisors, min(2, len(divisors))):
            quot = base.quotient_ring(b)
            quotients.append(quot)
            inner = [c for c in quot.elements if c != quot.zero and not quot.is_unit(c)]
            if inner:
                quotients.append(quot.quotient_ring(rng.choice(inner)))
    return rings + quotients


def old_chain_up(ring):
    """Principal ideal -> longest chain of principal ideals up to R, by a
    walk with O(classes^2) subset tests: the oracle for element lengths."""
    distinct = sorted(set(ring.principal_ideals().values()), key=len, reverse=True)
    up = {}
    for ideal in distinct:  # larger ideals first
        up[ideal] = max(
            (up[other] + 1 for other in distinct if len(other) > len(ideal) and ideal < other),
            default=0,
        )
    return up


def specimen_rings():
    """Principal rings built on the table-presented specimen: its local
    quotient, two quotients that are not local, and their products with
    Z/3 and Z/4."""
    fixture = truncated_bivariate_fixture()
    quotients = [fixture.quotient_ring("x"),
                 ProductRing([fixture, Zmod(3)]).quotient_ring(("x", 0)),
                 ProductRing([fixture, Zmod(4)]).quotient_ring(("y", 0))]
    return quotients + [ProductRing([q, Zmod(m)]) for q in quotients for m in (3, 4)]


def table_copy(ring):
    """The ring as a TableRing on the same labels, which has no keyed layer."""
    elements = ring.elements
    add = {(x, y): ring.add(x, y) for x in elements for y in elements}
    mul = {(x, y): ring.mul(x, y) for x in elements for y in elements}
    return TableRing(elements, add, mul, ring.zero, ring.one, f"table({ring.name})")


def assert_bottom_matches_fixed_point(ring):
    closed, fixed = bottom_euclidean(ring), _bottom_fixed_point(ring)
    assert closed.values == fixed.values, ring.name
    assert closed.value_at_zero == fixed.value_at_zero, ring.name
    assert closed.validated and closed.is_bottom


class TestValuations:
    def test_bottom_table_equals_the_fixed_point(self):
        rings = valuation_corpus()
        assert len(rings) > 560
        for ring in rings:
            assert_bottom_matches_fixed_point(ring)

    def test_element_length_equals_the_chain_walk(self):
        for ring in valuation_corpus():
            chain = old_chain_up(ring)
            for x in ring.elements:
                assert ring.element_length(x) == chain[ring.principal_ideal(x)], ring.name

    def test_specimen_lengths_match_the_former_walk(self):
        for ring in specimen_rings():
            chain = old_chain_up(ring)
            for x in ring.elements:
                assert ring.element_length(x) == chain[ring.principal_ideal(x)], ring.name

    def test_lengths_of_zero_follow_the_crt_split(self):
        """The valuations that are not 0 at zero are those of the local
        factors, in order: at zero the lengths of the factors, and at every
        x the valuation of the matching coordinate of x."""
        for ring in valuation_corpus()[::2]:
            locals_, coords = ring.local_factors()
            lengths = ring.valuations(ring.ideal_class(ring.zero))
            kept = [i for i, k in enumerate(lengths) if k]
            assert [lengths[i] for i in kept] == [loc.element_length(loc.zero)
                                                  for loc in locals_], ring.name
            for x in ring.elements:
                v = ring.valuations(ring.ideal_class(x))
                assert [v[i] for i in kept] == [loc.element_length(c) for loc, c
                                                in zip(locals_, coords(x))], (ring.name, x)

    def test_ideal_count_from_the_valuations(self):
        rings = valuation_corpus()
        assert len(rings) > 560
        for ring in rings:
            assert ring._known_principal, ring.name
            assert ring.ideal_count() == len(ring.all_ideals()), ring.name

    def test_product_ideal_count_from_the_factors(self):
        """Products with a specimen factor, not known to be principal, count
        their ideals as the product of the factors' counts."""
        fixture = truncated_bivariate_fixture()
        rings = [ProductRing([fixture, Zmod(m)]) for m in (2, 3, 4)]
        rings += [ProductRing([fixture.quotient_ring("x"), Zmod(m)]) for m in (3, 9)]
        rings += [ProductRing([ProductRing([Zmod(2), fixture]), Zmod(3)]),
                  ProductRing([Zmod(3), fixture.quotient_ring("x"), Zmod(3)])]
        assert {len(ring) for ring in rings} >= {12, 24, 36}
        for ring in rings:
            assert not ring._known_principal, ring.name
            assert ring.ideal_count() == len(ring.all_ideals()), ring.name

    def test_product_ideal_count_bounds_only_factors_that_enumerate(self, monkeypatch):
        ring = ProductRing([truncated_bivariate_fixture(), Zmod(81)])
        assert (len(ring), ring.ideal_count()) == (648, 30)
        ring = ProductRing([truncated_bivariate_fixture(), Zmod(3)])
        monkeypatch.setattr(rings_module, "IDEAL_ENUMERATION_BOUND", 7)
        with pytest.raises(ResourceError, match=r"GF\(2\)\[x,y\]/\(x,y\)\^2 has 8 elements; "
                                                r"ideal enumeration is bounded at 7$"):
            ring.ideal_count()
        monkeypatch.setattr(rings_module, "IDEAL_ENUMERATION_BOUND", 8)
        assert ring.ideal_count() == 12
        assert ProductRing([Zmod(512), Zmod(3)]).ideal_count() == 20

    def test_unit_count_equals_the_unit_set(self):
        # every ring counts its units from its local split, without the set,
        # and leaves no set behind
        counted = 0
        for ring in valuation_corpus() + specimen_products() + specimen_rings():
            fresh = "_units" not in vars(ring)
            count = ring.unit_count()
            if fresh:
                assert "_units" not in vars(ring), ring.name
                counted += 1
            assert count == len(ring.units()) == ring.unit_count(), ring.name
        assert counted > 400
        for ring in specimen_products():
            assert ring.unit_count() == len(scanned_units(ring)), ring.name

    def test_ring_analyze_reads_no_carrier_keys_on_keyed_rings(self, monkeypatch):
        """Z/n, GF(q)[t]/(f), their products and quotients answer
        ``ring-analyze`` from their local splits: the report is the one
        computed from the carrier scan, with no carrier key read."""
        rings = valuation_corpus()[::7]
        assert {type(ring) for ring in rings} == {Zmod, PolyQuotient, ProductRing, QuotientRing}
        expected = []
        for ring in rings:
            report = run_json(["ring-analyze", ring.name])
            assert (report["size"], report["units"], report["principal"], report["ideals"]) == (
                len(ring), len(scanned_units(ring)), True, len(ring.all_ideals())), ring.name
            expected.append(report)

        def refuse(self):
            raise AssertionError(f"carrier keys of {self.name}")
        monkeypatch.setattr(FiniteRing, "carrier_classes", refuse)
        for ring, report in zip(rings, expected):
            assert run_json(["ring-analyze", ring.name]) == report, ring.name

    def test_rings_without_valuations(self):
        fixture = truncated_bivariate_fixture()
        for ring in (fixture, ProductRing([Zmod(3), fixture])):
            with pytest.raises(DomainError, match=r"GF\(2\)\[x,y\]/\(x,y\)\^2 is not a principal"):
                ring.valuations(ring.ideal_class(ring.zero))
        quot = fixture.quotient_ring("x")  # GF(2)[y]/(y^2)
        assert {x: quot.valuations(quot.ideal_class(x)) for x in quot.elements} == {
            "0": (2,), "1": (0,), "y": (1,), "1+y": (0,)}

    def test_default_valuations_equal_the_keyed_ones(self):
        rings = [ring for ring in valuation_corpus()[::3] if len(ring) <= 100]
        assert len(rings) > 100
        for ring in rings:
            copy = table_copy(ring)
            for x in ring.elements:
                assert (sorted(copy.valuations(copy.ideal_class(x)))
                        == sorted(ring.valuations(ring.ideal_class(x)))), ring.name
            bottom, copied = bottom_euclidean(ring), bottom_euclidean(copy)
            assert copied.values == bottom.values, ring.name
            assert copied.value_at_zero == bottom.value_at_zero, ring.name

    def test_every_split_lists_only_real_local_factors(self):
        # one entry per local factor, of more than one element and of
        # length at least 1: a quotient leaves out the factors where its
        # modulus is a unit, as the carrier scan does
        rings = valuation_corpus() + specimen_rings()
        rings += [ring for ring in specimen_products() if ring.is_principal()]
        assert sum(isinstance(ring, QuotientRing) for ring in rings) > 100
        for ring in rings:
            split, lengths = ring._local_split(), ring.valuations(ring.ideal_class(ring.zero))
            assert len(split) == len(lengths), ring.name
            assert all(size > 1 for size, _, _ in split), ring.name
            assert all(k >= 1 for k in lengths), ring.name
        assert Zmod(12).quotient_ring(4).valuations(4) == (2,)  # Z/4, with Z/3 left out

    def test_keyed_rings_keep_no_vectors(self):
        # a bottom table reads each vector once, so the keyed rings, their
        # factors and bases are left with no new dict
        def parts(ring):
            yield ring
            inner = ring.factors if isinstance(ring, ProductRing) else ()
            for part in inner + ((ring.base,) if isinstance(ring, QuotientRing) else ()):
                yield from parts(part)

        rings = valuation_corpus()[::4]
        assert {type(ring) for ring in rings} == {Zmod, PolyQuotient, ProductRing, QuotientRing}
        for ring in rings:
            before = {id(part): set(vars(part)) for part in parts(ring)}
            bottom_euclidean(ring)
            for part in parts(ring):
                added = set(vars(part)) - before[id(part)]
                assert not [name for name in added if isinstance(vars(part)[name], dict)], part.name

    def test_isotonicity_on_vectors_equals_the_class_pairs(self):
        # the bottom table, and a forged one with random values per class
        rng = random.Random(9)
        rings = valuation_corpus()[::3]
        seen = {True: 0, False: 0}
        for ring in rings:
            bottom = bottom_euclidean(ring)
            assert isotone_minimization(bottom).values == _minimization_oracle(bottom), ring.name
            by_key = {}
            values = {x: by_key.setdefault(ring.ideal_class(x), Ordinal(rng.randint(0, 6)))
                      for x in bottom.values}
            forged = EuclideanTable(ring, values, max(values.values()).successor(), True)
            for t in (bottom, forged):
                strict = is_isotone_euclidean(t)
                assert strict == _class_pair_oracle(t, True), ring.name
                if division_counterexample(ring, t.values) is None:
                    assert strict == _class_pair_oracle(t, False), ring.name
                seen[strict] += 1
        assert len(rings) > 180 and min(seen.values()) > 40

    def test_isotonicity_equals_the_weak_oracle_on_euclidean_tables(self):
        # the equality proved in the docstring of is_isotone_euclidean, on
        # bottom tables with 1 to 5 values raised
        rng = random.Random(36)
        seen = {True: 0, False: 0}
        for ring in [ring for ring in valuation_corpus() if len(ring) <= 400][::2]:
            bottom = bottom_euclidean(ring).values
            for _ in range(4):
                values = dict(bottom)
                for x in rng.sample(list(values), min(len(values), rng.randint(1, 5))):
                    values[x] = values[x] + rng.choice((1, 2, 5))
                if division_counterexample(ring, values) is None:
                    t = make_table(ring, values)
                    strict = is_isotone_euclidean(t)
                    assert strict == _class_pair_oracle(t, False), ring.name
                    seen[strict] += 1
        assert min(seen.values()) > 50

    def test_principal_rings_skip_the_fixed_point(self, monkeypatch):
        from euctype import euclidean

        expected = {ring.name: _bottom_fixed_point(ring) for ring in specimen_rings()}

        def refuse(ring):
            raise AssertionError(f"not-Euclidean finding on the principal ring {ring.name}")

        monkeypatch.setattr(euclidean, "_not_euclidean", refuse)
        for ring in specimen_rings():
            table = bottom_euclidean(ring)
            assert table.values == expected[ring.name].values, ring.name
            assert table.value_at_zero == expected[ring.name].value_at_zero, ring.name


def finding_corpus():
    """Rings on the specimen S: S, its products with Z/2..Z/16, with S and
    with chain and split polynomial quotients, three factors up to 512
    elements, and the quotients of each product by one divisor per ideal
    class, principal or not."""
    fixture = truncated_bivariate_fixture()
    products = [ProductRing([fixture, Zmod(m)]) for m in range(2, 17)]
    products += [ProductRing([Zmod(3), fixture]), ProductRing([fixture, fixture]),
                 ProductRing([fixture, poly(3, 0, 0, 1)]), ProductRing([fixture, poly(2, 0, 1, 0, 1)]),
                 ProductRing([Zmod(9), fixture, Zmod(2)]), ProductRing([fixture, Zmod(4), Zmod(3)]),
                 ProductRing([fixture, Zmod(64)]), ProductRing([fixture, fixture, Zmod(8)])]
    quotients = []
    for ring in products:
        divisors = {}
        for b in ring.elements:
            if b != ring.zero and not ring.is_unit(b):
                divisors.setdefault(ring.ideal_class(b), b)
        quotients += [ring.quotient_ring(b) for b in divisors.values()]
    return [fixture] + products + quotients


def oracle_finding(ring):
    """The finding of the fixed point with its levels in carrier order, as
    the CLI printed them, or None on a principal ring."""
    try:
        _bottom_fixed_point(ring)
    except NotEuclideanRing as exc:
        return exc.stuck, dict(sorted(exc.partial.items(), key=lambda kv: ring.index(kv[0])))
    return None


class TestNotEuclideanFinding:
    def test_finding_equals_the_fixed_point(self):
        rings = finding_corpus()
        assert len(rings) > 400 and max(map(len, rings)) == 512
        findings = 0
        for ring in rings:
            expected = oracle_finding(ring)
            if expected is None:
                assert_bottom_matches_fixed_point(ring)
                continue
            with pytest.raises(NotEuclideanRing) as err:
                bottom_euclidean(ring)
            stuck, partial = expected
            assert err.value.stuck == stuck, ring.name
            assert list(err.value.partial.items()) == list(partial.items()), ring.name
            findings += 1
        assert findings > 100

    def test_finding_builds_no_coset_partition(self, monkeypatch):
        rings = [ring for ring in finding_corpus() if not ring.is_principal()]

        def forbidden(self, key):
            raise AssertionError(f"coset_labels called on {self.name}")

        monkeypatch.setattr(FiniteRing, "coset_labels", forbidden)
        for ring in rings:
            with pytest.raises(NotEuclideanRing):
                bottom_euclidean(ring)

    @pytest.mark.parametrize("argv", [
        ["euclid-bottom", "GF(2)[x,y]/(x,y)^2 x Z/6"],
        ["euclid-bottom", "(GF(2)[x,y]/(x,y)^2 x Z/12)/((0, 2))"],
        ["euclid-bottom", "Z/4 x GF(2)[x,y]/(x,y)^2 x GF(3)[t]/(t^2)"],
        ["euclid-quotient", "GF(2)[x,y]/(x,y)^2 x Z/8", "(x, 2)"],
        ["euclid-product", "Z/4", "GF(2)[x,y]/(x,y)^2 x Z/3"],
        ["euclid-product", "GF(2)[x,y]/(x,y)^2 x GF(2)[x,y]/(x,y)^2", "Z/4"],
    ])
    def test_cli_reports_equal_those_of_the_fixed_point(self, argv, monkeypatch):
        from euctype import cli

        closed = []
        for extra in ([], ["--json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                closed.append((main(argv + extra), out.getvalue()))

        def fixed(ring):
            if ring.is_principal():
                return bottom_euclidean(ring)
            stuck, partial = oracle_finding(ring)
            raise NotEuclideanRing(ring, stuck, partial)

        monkeypatch.setattr(cli, "bottom_euclidean", fixed)
        for (code, text), extra in zip(closed, ([], ["--json"])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv + extra) == code == 3
            assert out.getvalue() == text


class TestCertifiedTables:
    """The equalities that let product and quotient tables of bottom tables
    skip the exhaustive check, tested apart from that shortcut."""

    def test_quotient_of_the_bottom_table_is_the_bottom_table(self):
        # the table on R/(b) depends on the ideal (b) only: one divisor per class
        quotients = 0
        for ring in valuation_corpus():
            bottom = bottom_euclidean(ring)
            divisors = {}
            for b in ring.elements:
                if not ring.is_unit(b):
                    divisors.setdefault(ring.ideal_class(b), b)
            for b in divisors.values():
                quot = quotient_euclidean(bottom, b)
                assert quot.values == bottom_euclidean(quot.ring).values, quot.ring.name
                quotients += 1
        assert quotients > 3000

    def test_collapsed_table_is_the_bottom_table_of_the_product(self):
        products = [ring for ring in valuation_corpus()
                    if isinstance(ring, ProductRing) and len(ring.factors) == 2]
        assert len(products) > 190
        for ring in products:
            pt = nagata_product(*map(bottom_euclidean, ring.factors))
            assert collapse_pair_table(pt).values == bottom_euclidean(pt.ring).values, ring.name


KEYED_RINGS = st.recursive(
    st.one_of(
        st.integers(2, 40).map(Zmod),
        st.sampled_from([poly(2, 1, 1), poly(2, 0, 0, 1), poly(2, 1, 1, 0, 1), poly(3, 0, 0, 1),
                         poly(3, 1, 0, 1), poly(4, 0, 0, 1), poly(4, 2, 3), poly(5, 1, 0, 1)]),
    ),
    _rings, max_leaves=4)


@given(KEYED_RINGS)
@settings(max_examples=150, deadline=None)
def test_bottom_table_equals_the_fixed_point_on_generated_rings(ring):
    assert_bottom_matches_fixed_point(ring)


# ---------------------------------------------------------------------------
# every emitted table re-verifies


def run_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json"])
    assert code == 0, (argv, err.getvalue())
    return json.loads(out.getvalue())


def assert_tables_reverify(ring, divisor, other):
    """``euclid-bottom`` of ring, ``euclid-quotient`` by divisor and
    ``euclid-product`` with other each emit a table that ``euclid-verify``
    accepts under the same ring name.  The tables go to a temporary
    directory of their own, since Hypothesis runs this many times within
    one test."""
    emitted = [
        run_json(["euclid-bottom", ring.name])["table"],
        run_json(["euclid-quotient", ring.name, ring.format_element(divisor)])["table"],
        run_json(["euclid-product", ring.name, other.name])["collapsed_table"],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for i, table in enumerate(emitted):
            path = os.path.join(tmp, f"table{i}.json")
            with open(path, "w") as fh:
                json.dump(table, fh)
            report = run_json(["euclid-verify", path])
            assert report["euclidean"] is True, table["ring"]
            assert report["ring"] == table["ring"]


SMALL_KEYED_RINGS = KEYED_RINGS.filter(lambda ring: len(ring) <= 300)


@given(SMALL_KEYED_RINGS, SMALL_KEYED_RINGS, st.data())
@settings(max_examples=60, deadline=None)
def test_emitted_tables_reverify_on_generated_rings(ring, other, data):
    assume(len(ring) * len(other) <= 300)
    divisor = data.draw(st.sampled_from([b for b in ring.elements if not ring.is_unit(b)]))
    assert_tables_reverify(ring, divisor, other)


def test_emitted_tables_of_the_specimen_quotient_reverify():
    specimen = parse_ring_spec("GF(2)[x,y]/(x,y)^2/(x)")
    for ring in (specimen, ProductRing([specimen, Zmod(3)])):
        assert_tables_reverify(ring, ring.zero, Zmod(3))
        for b in ring.elements:
            if b != ring.zero and not ring.is_unit(b):
                assert_tables_reverify(ring, b, specimen)


# ---------------------------------------------------------------------------
# the write path: element names, units and tables in bulk


def old_table_to_dict(table):
    """The per-element writer, sorted by carrier index: the oracle for
    :func:`table_to_dict`."""
    ring = table.ring
    return {
        "ring": ring.name,
        "values": {
            ring.format_element(x): str(v)
            for x, v in sorted(table.values.items(), key=lambda kv: ring.index(kv[0]))
        },
        "value_at_zero": str(table.value_at_zero),
        "validated": table.validated,
        "bottom": table.is_bottom,
    }


def name_corpus():
    """The valuation corpus, the specimen rings and their products, the
    quotient corpus, every small polynomial quotient and a nested product."""
    return (valuation_corpus() + specimen_rings() + specimen_products()
            + [base.quotient_ring(b) for base, b in quotient_corpus()]
            + list(poly_rings()) + [ProductRing([ProductRing([Zmod(2), Zmod(3)]), Zmod(4)])])


def shuffled(values, rng):
    """The same map with its entries in a random order."""
    return dict(rng.sample(list(values.items()), len(values)))


class TestWritePath:
    def test_element_names_are_the_formatted_elements(self):
        for ring in name_corpus():
            names = ring.element_names()
            assert names == list(map(ring.format_element, ring.elements)), ring.name
            assert ring.element_names() is names  # kept on the ring

    def test_units_of_principal_rings_build_no_ideal(self, monkeypatch):
        rings = [ring for ring in valuation_corpus() + specimen_rings() if ring._known_principal]
        expected = [frozenset(x for x, ideal in ring.principal_ideals().items()
                              if ring.one in ideal) for ring in rings]
        fresh = [ring for ring in valuation_corpus()[::10] if ring._known_principal]
        scans = [scanned_units(ring) for ring in fresh]

        def forbidden(self):
            raise AssertionError("principal_ideals() called")
        monkeypatch.setattr(FiniteRing, "principal_ideals", forbidden)
        for ring, units in zip(rings + fresh, expected + scans):
            assert ring.units() == units, ring.name

    def test_table_to_dict_matches_the_per_element_writer(self):
        """Bottom, length, omega-relabelled and perturbed tables, the last
        three with one value object per element, in shuffled order."""
        rng = random.Random(17)
        for ring in valuation_corpus()[::3] + specimen_rings():
            bottom = bottom_euclidean(ring)
            variants = _table_variants(bottom.values, rng) + [_length_values(ring)]
            for values in variants:
                values = shuffled(values, rng)
                top = max(values.values()).successor()
                for table in (EuclideanTable(ring, values, top, validated=False),
                              EuclideanTable(ring, values, top, validated=True, is_bottom=True)):
                    written = table_to_dict(table)
                    assert json.dumps(written) == json.dumps(old_table_to_dict(table)), ring.name
            assert json.dumps(table_to_dict(bottom)) == json.dumps(old_table_to_dict(bottom))

    def test_table_to_dict_on_rings_that_are_not_principal(self):
        rng = random.Random(18)
        for ring in specimen_products():
            values = {x: Ordinal(rng.randint(0, 3)) for x in ring.elements if x != ring.zero}
            table = EuclideanTable(ring, shuffled(values, rng), Ordinal(4), validated=False)
            assert json.dumps(table_to_dict(table)) == json.dumps(old_table_to_dict(table))
