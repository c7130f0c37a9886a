import contextlib
import io
import json
import random

import pytest

from euctype import euclidean
from euctype.cli import main
from euctype.errors import DomainError, NotEuclideanRing
from euctype.euclidean import (
    EuclideanTable,
    _certified_table,
    bottom_euclidean,
    check_l_euclidean,
    collapse_pair_table,
    divide,
    division_counterexample,
    is_euclidean_function,
    is_isotone_euclidean,
    isotone_minimization,
    make_table,
    nagata_product,
    order_type,
    pair_divide,
    pair_less,
    pair_value,
    quotient_euclidean,
    residual_euclidean,
    table_to_dict,
)
from euctype.ordinal import Ordinal, omega_power
from euctype.rings import (
    GaloisField,
    PolyQuotient,
    ProductRing,
    Zmod,
    truncated_bivariate_fixture,
)

from ideal_oracles import _class_pair_oracle, _minimization_oracle, _monotone_oracle


def gf2t2():
    return PolyQuotient(GaloisField(2), (0, 0, 1))


class TestBottom:
    def test_z8(self):
        t = bottom_euclidean(Zmod(8))
        assert {x: v.to_int() for x, v in t.values.items()} == {
            1: 0, 3: 0, 5: 0, 7: 0, 2: 1, 6: 1, 4: 2,
        }
        assert t.value_at_zero == 3
        assert t.validated and t.is_bottom
        assert order_type(t) == 3

    def test_fields_have_order_type_one(self):
        for R in (Zmod(7), PolyQuotient(GaloisField(2), (1, 1, 1))):
            t = bottom_euclidean(R)
            assert order_type(t) == 1
            assert all(v.is_zero for v in t.values.values())

    def test_units_at_level_zero(self):
        for R in (Zmod(12), Zmod(16), gf2t2(), ProductRing([Zmod(4), Zmod(3)])):
            t = bottom_euclidean(R)
            units = R.units()
            for x, v in t.values.items():
                assert (x in units) == v.is_zero

    def test_values_initial_segment(self):
        for R in (Zmod(12), Zmod(36), ProductRing([Zmod(8), Zmod(9)])):
            t = bottom_euclidean(R)
            levels = {v.to_int() for v in t.values.values()}
            assert levels == set(range(len(levels)))
            assert t.value_at_zero.to_int() == len(levels)

    def test_local_value_by_valuation(self):
        # in Z/p^k the value of u * p^a is exactly a
        for p, k in ((2, 4), (3, 3), (5, 2)):
            R = Zmod(p ** k)
            t = bottom_euclidean(R)
            for x in range(1, p ** k):
                a = 0
                y = x
                while y % p == 0:
                    y //= p
                    a += 1
                assert t.values[x] == a
            assert order_type(t) == k

    def test_fixture_is_a_finding(self):
        with pytest.raises(NotEuclideanRing) as err:
            bottom_euclidean(truncated_bivariate_fixture())
        finding = err.value
        assert set(finding.stuck) == {"x", "y", "x+y"}
        assert set(finding.partial) == {"1", "1+x", "1+y", "1+x+y"}
        assert finding.exit_code == 3

    def test_bottom_is_validated_euclidean(self):
        for R in (Zmod(24), gf2t2(), ProductRing([Zmod(2), Zmod(2)])):
            ok, cex = is_euclidean_function(bottom_euclidean(R))
            assert ok and cex is None

    def test_order_type_requires_bottom(self):
        t = bottom_euclidean(Zmod(4))
        other = make_table(Zmod(4), t.values)
        with pytest.raises(DomainError):
            order_type(other)


class TestValidation:
    def test_all_zero_on_nonfield_fails(self):
        cex = division_counterexample(Zmod(6), {x: Ordinal(0) for x in range(1, 6)})
        assert cex == (1, 2)

    def test_make_table_rejects_bad(self):
        with pytest.raises(DomainError):
            make_table(Zmod(6), {x: Ordinal(0) for x in range(1, 6)})

    def test_make_table_requires_total(self):
        with pytest.raises(DomainError):
            make_table(Zmod(4), {1: Ordinal(0)})

    def test_divide_witness(self):
        t = bottom_euclidean(Zmod(12))
        R = t.ring
        for a in R.elements:
            for b in R.elements:
                if b == 0:
                    continue
                w = divide(t, a, b)
                assert R.add(R.mul(w.quotient, b), w.remainder) == a
                assert w.remainder == 0 or t.values[w.remainder] < t.values[b]

    def test_divide_by_zero(self):
        with pytest.raises(DomainError):
            divide(bottom_euclidean(Zmod(4)), 1, 0)

    def test_divide_on_a_table_that_is_not_euclidean(self):
        # every value 0 on Z/6: 1 - 2q is odd, so no remainder is 0 or below 0
        table = EuclideanTable(Zmod(6), {x: Ordinal(0) for x in range(1, 6)}, Ordinal(1),
                               validated=False)
        with pytest.raises(DomainError, match=r"^table on Z/6 is not Euclidean at \(1, 2\)$"):
            divide(table, 1, 2)
        assert divide(table, 1, 1).remainder == 0


def _perturbed_tables(ring, rng, count):
    """Validated Euclidean tables above the bottom one."""
    bottom = bottom_euclidean(ring)
    out = []
    while len(out) < count:
        # strictly increasing relabeling of the levels, then random bumps
        # kept only when the division property survives
        shift = 0
        remap = {}
        for v in sorted(set(bottom.values.values())):
            shift += rng.randint(0, 2)
            remap[v] = Ordinal(v.to_int() + shift)
        values = {x: remap[v] for x, v in bottom.values.items()}
        for _ in range(rng.randint(0, 4)):
            x = rng.choice([e for e in ring.elements if e != ring.zero])
            bumped = dict(values)
            bumped[x] = bumped[x] + rng.randint(1, 3)
            if division_counterexample(ring, bumped) is None:
                values = bumped
        out.append(make_table(ring, values))
    return out


class TestMinimization:
    def test_z4_example(self):
        t = make_table(Zmod(4), {1: Ordinal(1), 3: Ordinal(0), 2: Ordinal(1)})
        m = isotone_minimization(t)
        assert {x: v.to_int() for x, v in m.values.items()} == {1: 0, 3: 0, 2: 1}
        assert not is_isotone_euclidean(t)
        assert not _monotone_oracle(t, False)
        assert is_isotone_euclidean(m)

    def test_fixes_bottom(self):
        for R in (Zmod(18), gf2t2(), ProductRing([Zmod(4), Zmod(9)])):
            b = bottom_euclidean(R)
            m = isotone_minimization(b)
            assert m.values == b.values
            assert m.is_bottom

    def test_idempotent_and_below_input(self):
        rng = random.Random(5)
        for R in (Zmod(12), Zmod(16), gf2t2()):
            for t in _perturbed_tables(R, rng, 5):
                m = isotone_minimization(t)
                assert m.validated
                assert is_isotone_euclidean(m)
                assert all(m.values[x] <= t.values[x] for x in t.values)
                again = isotone_minimization(m)
                assert again.values == m.values

    def test_predicates_agree_on_validated(self):
        rng = random.Random(6)
        for R in (Zmod(12), Zmod(16), ProductRing([Zmod(2), Zmod(3)])):
            for t in _perturbed_tables(R, rng, 5):
                assert is_isotone_euclidean(t) == _monotone_oracle(t, False)

    def test_bottom_is_pointwise_least(self):
        rng = random.Random(7)
        for R in (Zmod(12), Zmod(27), gf2t2()):
            b = bottom_euclidean(R)
            for t in _perturbed_tables(R, rng, 8):
                assert all(b.values[x] <= t.values[x] for x in t.values)

    def test_requires_validated(self):
        t = bottom_euclidean(Zmod(4))
        t.validated = False
        with pytest.raises(DomainError):
            isotone_minimization(t)


class TestIsotoneOnIdealClasses:
    RINGS = [Zmod(n) for n in range(2, 41)] + [
        gf2t2(), PolyQuotient(GaloisField(2), (0, 0, 0, 1)),
        PolyQuotient(GaloisField(3), (0, 0, 1)), PolyQuotient(GaloisField(2), (1, 1, 0, 1)),
        ProductRing([Zmod(2), Zmod(4)]), ProductRing([Zmod(4), Zmod(9)]),
        ProductRing([Zmod(3), Zmod(3)]), ProductRing([Zmod(2), gf2t2()]),
    ]

    def _tables(self, ring, rng):
        """Random, class-constant and length-shaped value maps, marked
        validated so the predicates read them; plus perturbed Euclidean ones."""
        nonzero = [x for x in ring.elements if x != ring.zero]
        pids = ring.principal_ideals()
        out = []
        for _ in range(3):
            out.append({x: Ordinal(rng.randint(0, 3)) for x in nonzero})
            by_class = {}
            out.append({x: by_class.setdefault(pids[x], Ordinal(rng.randint(0, 4)))
                        for x in nonzero})
            depth = {x: sum(1 for y in nonzero if pids[y] > pids[x]) for x in nonzero}
            shaped = {x: Ordinal(d + rng.randint(0, 1)) for x, d in depth.items()}
            out.append(shaped)
            out.append({x: Ordinal(d) for x, d in depth.items()})
        tables = [EuclideanTable(ring, v, max(v.values()).successor(), True) for v in out]
        if ring.is_principal():
            tables += _perturbed_tables(ring, rng, 3)
        return tables

    def test_predicates_match_the_double_loop(self):
        rng = random.Random(11)
        seen = {True: 0, False: 0}
        count = 0
        for ring in self.RINGS:
            for t in self._tables(ring, rng):
                strict = is_isotone_euclidean(t)
                assert strict == _monotone_oracle(t, True)
                if division_counterexample(ring, t.values) is None:
                    assert strict == _monotone_oracle(t, False)
                seen[strict] += 1
                count += 1
        assert count > 500 and min(seen.values()) > 50

    @staticmethod
    def _specimen_quotients():
        """Principal rings on the specimen, where every vector is read from
        the carrier: a local quotient, two that are not local, and products."""
        fixture = truncated_bivariate_fixture()
        specimen = fixture.quotient_ring("x")
        return [specimen, ProductRing([specimen, Zmod(3)]), ProductRing([specimen, Zmod(4)]),
                ProductRing([fixture, Zmod(3)]).quotient_ring(("x", 0)),
                ProductRing([fixture, Zmod(4)]).quotient_ring(("y", 0))]

    def test_predicates_match_the_class_pairs(self):
        rng = random.Random(13)
        seen = {True: 0, False: 0}
        for ring in self.RINGS + self._specimen_quotients():
            for t in self._tables(ring, rng):
                strict = is_isotone_euclidean(t)
                assert strict == _class_pair_oracle(t, True), ring.name
                if division_counterexample(ring, t.values) is None:
                    assert strict == _class_pair_oracle(t, False), ring.name
                seen[strict] += 1
        assert min(seen.values()) > 50

    def test_minimization_matches_the_double_loop(self):
        rng = random.Random(12)
        for ring in self.RINGS + self._specimen_quotients():
            for t in [bottom_euclidean(ring)] + _perturbed_tables(ring, rng, 3):
                assert isotone_minimization(t).values == _minimization_oracle(t)

    def test_predicates_refuse_a_ring_that_is_not_principal(self):
        # no table on it passes make_table or table_from_dict, so the
        # validated flag here is forged
        ring = truncated_bivariate_fixture()
        t = self._tables(ring, random.Random(14))[0]
        for predicate in (is_isotone_euclidean, isotone_minimization):
            with pytest.raises(DomainError, match=r"\(x,y\)\^2 is not a principal ring$"):
                predicate(t)


class TestMonotoneComposition:
    def test_strictly_increasing_map_preserves_validity(self):
        rng = random.Random(8)
        for R in (Zmod(12), Zmod(16), ProductRing([Zmod(4), Zmod(3)])):
            t = bottom_euclidean(R)
            for _ in range(10):
                shift = 0
                remap = {}
                for v in sorted(set(t.values.values())):
                    shift += rng.randint(0, 3)
                    remap[v] = Ordinal(v.to_int() + shift)
                composed = {x: remap[v] for x, v in t.values.items()}
                assert division_counterexample(R, composed) is None


class TestQuotient:
    def test_value_at_zero_identity(self):
        # e of the quotient table equals the bottom value of the divisor
        for R in (Zmod(8), Zmod(12), Zmod(36), gf2t2()):
            t = bottom_euclidean(R)
            for b in R.elements:
                if b == R.zero or R.is_unit(b):
                    continue
                q = quotient_euclidean(t, b)
                assert q.value_at_zero == t.values[b]
                assert q.validated

    def test_order_type_shrinks(self):
        t = bottom_euclidean(Zmod(16))
        for b in (2, 4, 8):
            q = quotient_euclidean(t, b)
            assert q.value_at_zero <= t.value_at_zero


class TestNagata:
    def _exhaustive_check(self, r1, r2):
        pt = nagata_product(bottom_euclidean(r1), bottom_euclidean(r2))
        ring = pt.ring
        for x in ring.elements:
            for y in ring.elements:
                if y == ring.zero:
                    continue
                w = pair_divide(pt, x, y)
                assert ring.add(ring.mul(w.quotient, y), w.remainder) == x
                assert w.remainder == ring.zero or pair_less(
                    pair_value(pt, w.remainder), pair_value(pt, y)
                )
        return pt

    def test_z4_z9(self):
        pt = self._exhaustive_check(Zmod(4), Zmod(9))
        w = pair_divide(pt, (1, 3), (2, 3))
        assert w.quotient == (0, 0) and w.remainder == (1, 3)

    def test_z8_gf2t2(self):
        self._exhaustive_check(Zmod(8), gf2t2())

    def test_collapse(self):
        pt = nagata_product(bottom_euclidean(Zmod(4)), bottom_euclidean(Zmod(9)))
        c = collapse_pair_table(pt)
        assert c.validated
        assert max(v.to_int() for v in c.values.values()) == 3
        assert c.value_at_zero == 4
        assert order_type(bottom_euclidean(pt.ring)) == 4

    def test_pair_value_at_zero(self):
        t1, t2 = bottom_euclidean(Zmod(4)), bottom_euclidean(Zmod(9))
        pt = nagata_product(t1, t2)
        assert pair_value(pt, (0, 0)) == (t1.value_at_zero, t2.value_at_zero) == (2, 2)
        assert pair_value(pt, (0, 3)) == (Ordinal(2), Ordinal(1))

    def test_division_by_zero(self):
        pt = nagata_product(bottom_euclidean(Zmod(2)), bottom_euclidean(Zmod(2)))
        with pytest.raises(DomainError):
            pair_divide(pt, (1, 1), (0, 0))


def count_checks(monkeypatch):
    """The list that grows by one on every exhaustive division check."""
    calls = []
    real = euclidean.division_counterexample

    def counted(ring, values):
        calls.append(ring.name)
        return real(ring, values)

    monkeypatch.setattr(euclidean, "division_counterexample", counted)
    return calls


def forbid_checks(monkeypatch):
    def refuse(ring, values):
        raise AssertionError(f"exhaustive check on {ring.name}")

    monkeypatch.setattr(euclidean, "division_counterexample", refuse)


class TestCertificate:
    """A table is validated by equality with a validated table on the same
    ring object, or by the exhaustive check; nothing else marks it."""

    def test_equal_values_are_certified(self, monkeypatch):
        ring = ProductRing([Zmod(8), Zmod(27)])
        bottom = bottom_euclidean(ring)
        forbid_checks(monkeypatch)
        t = _certified_table(ring, dict(bottom.values), bottom)
        assert t.validated and not t.is_bottom
        assert t.values == bottom.values and t.values is not bottom.values
        assert t.value_at_zero == max(bottom.values.values()).successor()

    def test_near_equal_wrong_table_takes_the_exhaustive_path(self, monkeypatch):
        ring = ProductRing([Zmod(8), Zmod(27)])
        bottom = bottom_euclidean(ring)
        wrong = dict(bottom.values)
        wrong[(2, 3)] = Ordinal(0)  # a non-unit at the value of the units
        with pytest.raises(DomainError) as expected:
            make_table(ring, wrong)
        calls = count_checks(monkeypatch)
        with pytest.raises(DomainError) as got:
            _certified_table(ring, wrong, bottom)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("not a Euclidean function on Z/8 x Z/27")
        assert calls == [ring.name]

    def test_only_a_validated_table_on_the_same_ring_certifies(self, monkeypatch):
        ring = ProductRing([Zmod(4), Zmod(9)])
        bottom = bottom_euclidean(ring)
        twin = bottom_euclidean(ProductRing([Zmod(4), Zmod(9)]))  # an equal ring, not this one
        unchecked = EuclideanTable(ring, dict(bottom.values), bottom.value_at_zero,
                                   validated=False)
        calls = count_checks(monkeypatch)
        for known in (twin, unchecked, None):
            assert _certified_table(ring, dict(bottom.values), known).validated
        assert calls == [ring.name] * 3

    @pytest.mark.parametrize("argv", [
        ["euclid-product", "Z/8", "Z/27"],
        ["euclid-product", "GF(2)[t]/(t^4)", "Z/9"],
        ["euclid-quotient", "Z/720", "24"],
        ["euclid-quotient", "Z/8 x Z/27", "(2, 3)"],
    ])
    def test_principal_products_and_quotients_need_no_check(self, monkeypatch, argv):
        forbid_checks(monkeypatch)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--json"]) == 0
        report = json.loads(out.getvalue())
        table = report["collapsed_table" if argv[0] == "euclid-product" else "table"]
        assert (table["validated"], table["bottom"]) == (True, False)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    def test_euclid_product_builds_the_product_bottom_once(self, monkeypatch):
        from euctype import cli

        built = []
        real = euclidean.bottom_euclidean

        def counted(ring):
            built.append(ring.name)
            return real(ring)

        monkeypatch.setattr(euclidean, "bottom_euclidean", counted)
        monkeypatch.setattr(cli, "bottom_euclidean", counted)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["euclid-product", "Z/8", "Z/27", "--json"]) == 0
        assert built == ["Z/8", "Z/27", "Z/8 x Z/27"]

    def test_quotient_of_a_non_bottom_table_is_checked(self, monkeypatch):
        ring = Zmod(72)
        bottom = bottom_euclidean(ring)
        omega = make_table(ring, {x: omega_power(1) + v for x, v in bottom.values.items()})
        lengths = make_table(ring, dict(bottom.values))  # the bottom values, not flagged bottom
        calls = count_checks(monkeypatch)
        for t in (omega, lengths):
            assert quotient_euclidean(t, 6).validated
        assert len(calls) == 2

    def test_collapse_of_non_bottom_components_is_checked(self, monkeypatch):
        calls = count_checks(monkeypatch)
        lengths = make_table(Zmod(4), dict(bottom_euclidean(Zmod(4)).values))
        pt = nagata_product(lengths, bottom_euclidean(Zmod(9)))
        assert len(calls) == 1  # the table of the bottom values itself
        assert collapse_pair_table(pt).validated
        assert len(calls) == 2


class TestResidual:
    def test_recovers_factor_bottom(self):
        P = ProductRing([Zmod(2), Zmod(3)])
        t = bottom_euclidean(P)
        res = residual_euclidean(t, 1)
        assert res.values == bottom_euclidean(Zmod(3)).values

    def test_validated_on_both_factors(self):
        for f1, f2 in ((Zmod(4), Zmod(9)), (Zmod(8), gf2t2())):
            P = ProductRing([f1, f2])
            t = bottom_euclidean(P)
            for i in (0, 1):
                res = residual_euclidean(t, i)
                assert res.validated
                assert res.ring is P.factors[i]
                b = bottom_euclidean(P.factors[i])
                assert all(b.values[x] <= res.values[x] for x in res.values)

    def test_requires_bottom_product(self):
        t = bottom_euclidean(Zmod(4))
        with pytest.raises(DomainError):
            residual_euclidean(t, 0)

    def test_requires_two_factors(self):
        for ring in (Zmod(12), ProductRing([Zmod(2), Zmod(3), Zmod(2)]), ProductRing([Zmod(4)])):
            with pytest.raises(DomainError, match="^residual table needs a two-factor product ring$"):
                residual_euclidean(bottom_euclidean(ring), 0)

    def test_factor_index_is_0_or_1(self):
        t = bottom_euclidean(ProductRing([Zmod(2), Zmod(3)]))
        for factor in (2, -1):
            with pytest.raises(DomainError, match="^factor index must be 0 or 1$"):
                residual_euclidean(t, factor)


class TestLengthFunction:
    def test_length_below_bottom(self):
        for R in (Zmod(12), Zmod(16), gf2t2(), ProductRing([Zmod(4), Zmod(3)])):
            t = bottom_euclidean(R)
            for x, v in t.values.items():
                assert R.element_length(x) <= v.to_int()

    def test_length_table_z12(self):
        t = make_table(Zmod(12), dict(bottom_euclidean(Zmod(12)).values))
        assert t.validated
        assert t.values[2] == 1 and t.values[4] == 2 and t.values[1] == 0

    def test_check_l_euclidean(self):
        ok, cex = check_l_euclidean(Zmod(12))
        assert ok and cex is None
        ok, cex = check_l_euclidean(ProductRing([Zmod(4), Zmod(9)]))
        assert ok

    def test_check_requires_principal(self):
        with pytest.raises(DomainError):
            check_l_euclidean(truncated_bivariate_fixture())


class TestSerialization:
    def test_dict_shape(self):
        t = bottom_euclidean(Zmod(8))
        d = table_to_dict(t)
        assert d["ring"] == "Z/8"
        assert d["values"]["2"] == "1"
        assert d["value_at_zero"] == "3"
        assert d["validated"] and d["bottom"]
