"""Expected answers for each job, computed by ``oracles.py``.

``check(job, outcome)`` returns ``None`` when the outcome is right, the
string ``"failed"`` when the operation did not produce an answer (an exit
status other than the expected one, or an exception), and otherwise a
message saying what is wrong.  Expected answers never come from a stored
copy of the program's output.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Optional

import oracles as O
from workloads import from_jsonable

FAILED = "failed"
WITNESS_PAIRS = 12


def _eq(what, got, want) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _first(*results) -> Optional[str]:
    for r in results:
        if r is not None:
            return r
    return None


def _has_arithmetic(ring) -> bool:
    if isinstance(ring, O.ProductR):
        return all(_has_arithmetic(f) for f in ring.factors)
    return not isinstance(ring, O.ChainR) or O.is_prime(ring.q)


def _witnesses(seed: int, ring, values: Dict) -> Optional[str]:
    """Brute-force division witnesses for a sample of pairs drawn from the
    run's seed and the ring."""
    if not _has_arithmetic(ring):
        return None
    rng = random.Random(f"{seed}:{ring.name}")
    nonzero = [x for x in ring.elements if x != ring.zero]
    for _ in range(WITNESS_PAIRS):
        a, b = rng.choice(ring.elements), rng.choice(nonzero)
        if O.division_witness(ring, values, a, b) is None:
            return f"no division witness for a={ring.text(a)}, b={ring.text(b)}"
    return None


def _table(what, table, ring_name, values, top, validated, bottom) -> Optional[str]:
    return _first(
        _eq(f"{what} ring", table["ring"], ring_name),
        _eq(f"{what} values", table["values"], {k: str(v) for k, v in values.items()}),
        _eq(f"{what} value at zero", table["value_at_zero"], str(top)),
        _eq(f"{what} validated", table["validated"], validated),
        _eq(f"{what} bottom flag", table["bottom"], bottom),
    )


class Checker:
    """Holds the expected answer of every job, since rounds repeat the same
    jobs.  They are all computed up front, so every round, the first one
    included, runs with the same data held by the harness."""

    def __init__(self, jobs, seed: int):
        self.seed = seed
        self._expected = [
            getattr(self, "_expect_" + job["check"]["type"].replace("-", "_"))(job)
            if job["kind"] == "cli" else None
            for job in jobs]

    def check(self, index: int, job: Dict, outcome: Dict) -> Optional[str]:
        if outcome.get("error") is not None:
            return FAILED
        if job["kind"] == "roundtrip":
            return self._roundtrip(outcome)
        if job["kind"] == "lib":
            return getattr(self, "_lib_" + job["call"].replace("-", "_"))(job, outcome["result"])
        if outcome["code"] != job.get("exit", 0):
            return FAILED
        report = json.loads(outcome["stdout"])
        kind = job["check"]["type"].replace("-", "_")
        return getattr(self, "_check_" + kind)(job, report, self._expected[index])

    # -- ring-tables ------------------------------------------------------------

    def _expect_bottom(self, job):
        ring = O.build_ring(job["check"]["ring"])
        return ring, O.bottom_values(ring), O.order_type(ring)

    def _check_bottom(self, job, report, expected):
        ring, values, top = expected
        table = report["table"]
        bad = _first(_table("table", table, ring.name, values, top, True, True),
                     _eq("order type", report["order_type"], str(top)))
        if bad:
            return bad
        by_text = {ring.text(x): x for x in ring.elements}
        got = {by_text[k]: int(v) for k, v in table["values"].items()}
        got[ring.zero] = top
        return _witnesses(self.seed, ring, got)

    def _expect_not_euclidean(self, job):
        ring = O.build_ring(job["check"]["ring"])
        levels, stuck = O.motzkin_levels(ring)
        return ring, levels, stuck

    def _check_not_euclidean(self, job, report, expected):
        ring, levels, stuck = expected
        return _first(
            _eq("finding", report["finding"], "not-euclidean"),
            _eq("ring", report["ring"], ring.name),
            _eq("stuck", report["stuck"], [ring.text(x) for x in stuck]),
            _eq("assigned levels", report["assigned_levels"],
                {ring.text(x): v for x, v in levels.items()}),
        )

    def _expect_quotient(self, job):
        ring = O.build_ring(job["check"]["ring"])
        b = from_jsonable(job["check"]["b"])
        return ring, b, O.quotient_values(ring, b), O.length(ring, b)

    def _check_quotient(self, job, report, expected):
        ring, b, values, vb = expected
        return _first(
            _eq("value of divisor", report["value_of_divisor"], str(vb)),
            _table("quotient table", report["table"], f"{ring.name}/({ring.text(b)})",
                   values, vb, True, False),
        )

    def _expect_product(self, job):
        r1, r2 = (O.build_ring(d) for d in job["check"]["rings"])
        prod = O.ProductR([r1, r2])
        return r1, r2, prod, O.bottom_values(prod)

    def _check_product(self, job, report, expected):
        r1, r2, prod, values = expected
        k1, k2 = O.order_type(r1), O.order_type(r2)
        return _first(
            _eq("factor order types", report["factor_order_types"], [str(k1), str(k2)]),
            _eq("product order type", report["product_order_type"], str(k1 + k2)),
            _table("collapsed table", report["collapsed_table"], prod.name, values, k1 + k2,
                   True, False),
        )

    def _expect_analyze(self, job):
        ring = O.build_ring(job["check"]["ring"])
        if ring.principal:
            return {"ring": ring.name, "size": len(ring.elements), "units": O.unit_count(ring),
                    "principal": True, "ideals": O.ideal_count(ring),
                    "length": O.order_type(ring), "local_factors": ring.local_names}
        # ideals of a product are the products of the factors' ideals
        factors = ring.factors if isinstance(ring, O.ProductR) else [ring]
        ideals = 1
        for f in factors:
            ideals *= len(O.all_ideals_bruteforce(f))
        return {"ring": ring.name, "size": len(ring.elements), "units": len(O.units(ring)),
                "principal": False, "ideals": ideals}

    def _check_analyze(self, job, report, expected):
        got = {k: report.get(k) for k in expected}
        return _first(_eq("ring-analyze", got, expected),
                      _eq("symbolic", report["symbolic"], False))

    # -- table-verify -----------------------------------------------------------

    def _expect_verify(self, job):
        c = job["check"]
        ring = O.build_ring(c["ring"])
        values = {x: O.length(ring, x) for x in ring.elements if x != ring.zero}
        perturbed = from_jsonable(c["perturbed"])
        if perturbed is None:
            values[ring.zero] = O.order_type(ring)
            bad = _witnesses(self.seed, ring, values)
            if bad:
                raise AssertionError(f"closed-form table is wrong: {bad}")
        else:
            values[perturbed] = 0
            values[ring.zero] = O.order_type(ring)
        return ring, values, perturbed

    def _check_verify(self, job, report, expected):
        ring, values, perturbed = expected
        bad = _first(_eq("ring", report["ring"], ring.name),
                     _eq("euclidean", report["euclidean"], perturbed is None))
        if bad or perturbed is None:
            return bad
        by_text = {ring.text(x): x for x in ring.elements}
        cex = report["counterexample"]
        a, b = by_text[cex["a"]], by_text[cex["b"]]
        if b == ring.zero:
            return "counterexample divides by zero"
        if O.division_witness(ring, values, a, b) is not None:
            return f"reported counterexample a={cex['a']}, b={cex['b']} has a witness"
        return None

    def _roundtrip(self, outcome) -> Optional[str]:
        if outcome["code"] != 0 or outcome["verify_code"] != 0:
            return FAILED
        report = json.loads(outcome["verify_stdout"])
        return _eq("re-verified emitted table", report["euclidean"], True)

    # -- models-ordinals --------------------------------------------------------

    def _expect_model_z(self, job):
        bound = job["check"]["bound"]
        return {str(n): n.bit_length() - 1 for n in range(1, bound + 1)}

    def _check_model_z(self, job, report, expected):
        wa, wb = report["stabilization_windows"]
        bad = _eq("model-z values", report["values"], expected)
        if bad is None and not (wa >= job["check"]["bound"] and wb > wa):
            bad = f"stabilization windows {wa}, {wb} do not cover the bound"
        return bad

    def _expect_model_poly(self, job):
        d = job["check"]["degree"]
        return {str(e): [e] for e in range(d + 1)}

    def _check_model_poly(self, job, report, expected):
        return _eq("values by degree", report["values_by_degree"], expected)

    def _expect_localize(self, job):
        return None

    def _check_localize(self, job, report, expected):
        c = job["check"]
        return _first(_eq("ok", report["ok"], True), _eq("failures", report["failures"], []),
                      _eq("samples", report["samples"], c["samples"]),
                      _eq("seed", report["seed"], c["seed"]))

    def _expect_ordinal_eval(self, job):
        return job["check"]["expect"]

    def _check_ordinal_eval(self, job, report, expected):
        return _eq("ordinal-eval", report["result"], expected)

    def _expect_product_bounds(self, job):
        lower = upper = O.Ord()
        for terms in job["check"]["values"]:
            v = O.Ord(tuple(map(tuple, terms)))
            lower, upper = O.o_add(lower, v), O.o_nsum(upper, v)
        return lower.text(), upper.text()

    def _check_product_bounds(self, job, report, expected):
        return _eq("bounds", (report["lower"], report["upper"]), expected)

    def _expect_realize(self, job):
        r, n = job["check"]["r"], job["check"]["n"]
        spec = " x ".join(["GF(2)[t]"] * r + ([f"Z/{2 ** n}"] if n else []))
        return spec, O.Ord([(1, r), (0, n)]).text()

    def _check_realize(self, job, report, expected):
        return _eq("realize", (report["spec"], report["order_type"]), expected)

    def _expect_symbolic(self, job):
        pids = job["check"]["pids"]
        lengths = [loc.length for c in job["check"]["concrete"]
                   for loc in O.build_ring(c).locals]
        spec = " x ".join(pids + [f"Z/{2 ** k}" for k in lengths])
        return {"symbolic": True, "spec": spec, "pid_factors": pids,
                "artinian_lengths": lengths,
                "order_type": O.Ord([(1, len(pids)), (0, sum(lengths))]).text()}

    def _check_symbolic(self, job, report, expected):
        return _eq("symbolic ring-analyze", {k: report.get(k) for k in expected}, expected)

    # -- library calls ----------------------------------------------------------

    def _lib_brookfield(self, job, result):
        m, n = job["args"]
        return _eq(f"brookfield_sum_finite({m}, {n})", result, m + n)

    def _lib_ordinal_laws(self, job, result):
        for (ta, tb, tc), row in zip(job["args"], result):
            a, b, c = (O.Ord.parse(t) for t in (ta, tb, tc))
            fa, fa2, ab, ba, ab_c, a_bc, a_plus_b, diff, fb = row
            nsum3 = O.o_nsum(O.o_nsum(a, b), c).text()
            bad = _first(
                _eq("format/parse round trip", (fa, fa2), (ta, ta)),
                _eq("a # b and b # a", (ab, ba), (O.o_nsum(a, b).text(),) * 2),
                _eq("(a # b) # c and a # (b # c)", (ab_c, a_bc), (nsum3, nsum3)),
                _eq("a + b", a_plus_b, O.o_add(a, b).text()),
                _eq("left_subtract(a, a + b)", (diff, fb), (tb, tb)),
            )
            if bad:
                return f"{bad} (a={ta}, b={tb}, c={tc})"
        return None
