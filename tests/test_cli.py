import contextlib
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from euctype import cli
from euctype.cli import _dumps, _table_lines, main
from euctype.errors import NotEuclideanRing
from euctype.euclidean import EuclideanTable, bottom_euclidean, quotient_euclidean, table_to_dict
from euctype import models, rings
from euctype.models import windowed_bottom_polynomials
from euctype.ordinal import Ordinal, format_ordinal, omega_power
from euctype.parsing import parse_ring_spec
from euctype.rings import (FiniteRing, ProductRing, Zmod, crt_decompose,
                           truncated_bivariate_fixture)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(GOLDEN_DIR.parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def fresh_run(argv, address_space=None):
    """(exit status, stdout, stderr) and seconds of the CLI in a new interpreter,
    so that no field or ring built by another test is cached.  With
    ``address_space`` (bytes) the interpreter gets that RLIMIT_AS, so a
    carrier that is built after all ends in a MemoryError, not in swap."""
    script = "import sys; from euctype.cli import main; sys.exit(main(sys.argv[1:]))"
    limit = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=src_env(),
                          capture_output=True, text=True, timeout=60, preexec_fn=limit)
    return (proc.returncode, proc.stdout, proc.stderr), time.perf_counter() - t0


class TestExitCodes:
    def test_success(self):
        assert run(["ordinal-eval", "w"])[0] == 0

    def test_domain_error(self):
        code, _, err = run(["ring-analyze", "Z/1"])
        assert code == 2 and "error:" in err
        assert run(["realize", "w^2"])[0] == 2

    def test_not_euclidean_finding(self):
        code, out, _ = run(["euclid-bottom", "GF(2)[x,y]/(x,y)^2"])
        assert code == 3
        assert "admits no Euclidean function" in out

    def test_resource_error(self):
        deep = "w^" * 40 + "2"
        assert run(["ordinal-eval", deep])[0] == 4

    def test_parse_error(self):
        assert run(["ordinal-eval", "w^"])[0] == 5
        assert run(["euclid-bottom", "Q/12"])[0] == 5
        assert run(["euclid-quotient", "GF(4)[t]/(t^2)", "6"])[0] == 5


class TestTextOutput:
    def test_ordinal_eval_ascii_out(self):
        code, out, _ = run(["ordinal-eval", "ω*2 + 1"])
        assert code == 0
        assert out.strip() == "w*2 + 1"

    def test_euclid_bottom(self):
        code, out, _ = run(["euclid-bottom", "Z/8"])
        assert code == 0
        assert "order type: 3" in out

    def test_realize(self):
        code, out, _ = run(["realize", "w*2+3"])
        assert out.strip() == "GF(2)[t] x GF(2)[t] x Z/8"

    def test_product_bounds(self):
        _, out, _ = run(["product-bounds", "w", "w+1"])
        assert "lower bound (iterated sum): w*2 + 1" in out
        assert "upper bound (iterated natural sum): w*2 + 1" in out

    def test_model_z_small(self):
        code, out, _ = run(["model-z", "--window", "32"])
        assert code == 0
        assert "value(4) = 2" in out

    def test_model_z_prints_each_sample_once(self):
        for bound in (1, 2, 3, 4, 5, 100, 999, 1000, 1001, 1024):
            code, out, _ = run(["model-z", "--window", str(bound)])
            samples = sorted({n for n in (1, 2, 3, 4, 1000, bound) if n <= bound})
            assert code == 0
            assert out.splitlines()[2:] == [f"  value({n}) = {n.bit_length() - 1}"
                                            for n in samples], bound

    def test_seed_echoed(self):
        _, out, _ = run(["model-localize", "2", "--samples", "20", "--seed", "9"])
        assert "seed: 9" in out


class TestVerify:
    def test_good_table(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table_to_dict(bottom_euclidean(Zmod(8)))))
        code, out, _ = run(["euclid-verify", str(path), "--json"])
        assert code == 0
        report = json.loads(out)
        assert out == json.dumps(report, indent=2) + "\n"
        assert report["euclidean"] is True

    def test_bad_table(self, tmp_path):
        t = bottom_euclidean(Zmod(8))
        d = table_to_dict(t)
        d["values"] = {k: "0" for k in d["values"]}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(d))
        code, out, _ = run(["euclid-verify", str(path), "--json"])
        assert code == 0
        report = json.loads(out)
        assert out == json.dumps(report, indent=2) + "\n"
        assert report["euclidean"] is False
        assert report["counterexample"] == {"a": "1", "b": "2"}


class TestJsonSchema:
    def test_schema_version_everywhere(self):
        for argv in (
            ["ordinal-eval", "w", "--json"],
            ["euclid-bottom", "Z/4", "--json"],
            ["realize", "5", "--json"],
        ):
            _, out, _ = run(argv)
            report = json.loads(out)
            assert report["schema_version"] == 1
            assert report["command"] == argv[0]

    def test_input_echo(self):
        _, out, _ = run(["euclid-bottom", "Z/8", "--json"])
        assert json.loads(out)["input"] == "Z/8"


@pytest.mark.parametrize("golden", sorted(GOLDEN_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_golden_reports(golden):
    expected = json.loads(golden.read_text())
    code, out, _ = run(expected["argv"])
    assert code == expected["exit_code"]
    assert json.loads(out) == expected["report"]
    assert out == json.dumps(expected["report"], indent=2) + "\n"  # byte for byte


class TestRoundTrips:
    def test_ordinal_output_reparses(self):
        for expr in ("w^2*3 + w*1 + 5", "1 + w", "(w+1) # w", "2 . w"):
            _, out, _ = run(["ordinal-eval", expr])
            _, again, _ = run(["ordinal-eval", out.strip()])
            assert out == again

    def test_realize_output_reparses(self):
        _, out, _ = run(["realize", "w*2+3"])
        code, analyzed, _ = run(["ring-analyze", out.strip()])
        assert code == 0
        assert "order type: w*2 + 3" in analyzed

    def _round_trip(self, tmp_path, argv, key):
        code, out, _ = run(argv + ["--json"])
        assert code == 0
        table = json.loads(out)[key]
        path = tmp_path / "emitted.json"
        path.write_text(json.dumps(table))
        code, out, err = run(["euclid-verify", str(path), "--json"])
        assert code == 0, err
        report = json.loads(out)
        assert report["ring"] == table["ring"]
        assert report["euclidean"] is True
        return table

    def test_quotient_table_reverifies(self, tmp_path):
        table = self._round_trip(tmp_path, ["euclid-quotient", "Z/8", "2"], "table")
        assert table["ring"] == "Z/8/(2)"

    def test_nested_product_table_reverifies(self, tmp_path):
        table = self._round_trip(tmp_path, ["euclid-product", "Z/2 x Z/3", "Z/4"],
                                 "collapsed_table")
        assert table["ring"] == "(Z/2 x Z/3) x Z/4"
        assert "((1, 2), 3)" in table["values"]


class TestInputErrors:
    def test_missing_table_file(self, tmp_path):
        code, out, err = run(["euclid-verify", str(tmp_path / "absent.json")])
        assert code == 2 and err.startswith("error:") and out == ""

    def test_unreadable_table_file(self, tmp_path):
        code, _, err = run(["euclid-verify", str(tmp_path)])  # a directory
        assert code == 2 and err.startswith("error:")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('{"ring": "Z/4", ')
        code, _, err = run(["euclid-verify", str(path)])
        assert code == 2 and err.startswith("error:")

    def test_deeply_nested_table_file(self, tmp_path):
        deep = "[" * 100_000 + "]" * 100_000
        for name, text in (("array.json", deep),
                           ("values.json", '{"ring": "Z/4", "values": ' + deep + "}")):
            path = tmp_path / name
            path.write_text(text)
            for tail in ([], ["--json"]):
                code, out, err = run(["euclid-verify", str(path), *tail])
                assert (code, out) == (4, "")
                assert err == f"error: table file {str(path)!r} nests too deeply to read\n"

    def test_partial_table(self, tmp_path):
        d = table_to_dict(bottom_euclidean(Zmod(4)))
        del d["values"]["3"]
        path = tmp_path / "table.json"
        path.write_text(json.dumps(d))
        code, _, err = run(["euclid-verify", str(path)])
        assert code == 2 and "no value for '3'" in err

    def test_model_z_window_zero(self):
        code, out, err = run(["model-z", "--window", "0", "--json"])
        assert code == 2 and err.startswith("error:") and out == ""

    def test_model_poly_negative_window(self):
        code, _, err = run(["model-poly", "2", "--window", "-1"])
        assert code == 2 and err.startswith("error:")

    def test_model_poly_window_zero_is_degree_zero(self):
        code, out, _ = run(["model-poly", "2", "--window", "0", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["input"]["report_degree"] == 0
        assert report["values_by_degree"] == {"0": [0]}

    def test_model_z_bounds_below_the_samples(self):
        for bound in (1, 2, 3):
            code, out, err = run(["model-z", "--window", str(bound)])
            assert code == 0 and err == ""
            assert f"  value({bound}) = {bound.bit_length() - 1}" in out
            assert f"value({bound + 1})" not in out
            code, out, _ = run(["model-z", "--window", str(bound), "--json"])
            assert code == 0
            assert json.loads(out)["values"] == {
                str(n): n.bit_length() - 1 for n in range(1, bound + 1)}

    def test_model_localize_large_non_prime(self):
        code, out, err = run(["model-localize", "1" + "0" * 400])
        assert code == 2 and out == ""
        assert err == f"error: {10 ** 400} is not prime\n"

    def test_model_localize_bad_prime_text(self):
        for text in ("abc", "1" + "0" * 5000):
            with pytest.raises(SystemExit) as exc:
                run(["model-localize", text])
            assert exc.value.code == 2

    def test_model_localize_sample_count(self):
        code, out, err = run(["model-localize", "2", "--samples", "-5"])
        assert code == 2 and out == "" and err.startswith("error:")
        code, out, _ = run(["model-localize", "2", "--samples", "0", "--json"])
        assert code == 0
        report = json.loads(out)
        assert (report["ok"], report["samples"], report["failures"]) == (True, 0, [])


class TestParserBounds:
    LONG = "9" * 5000  # longer than the 4,300 digits int() reads by default

    def test_nesting_beyond_the_bound(self):
        deep = "(" * 250 + "1" + ")" * 250
        for argv in (["ordinal-eval", deep], ["product-bounds", deep, "2"],
                     ["ring-analyze", "(" * 1000 + "Z/4" + ")" * 1000],
                     ["ring-analyze", "Z/8" + "/(0)" * 1000]):
            code, out, err = run(argv)
            assert (code, out) == (4, ""), argv[:1]
            assert err.startswith("error:") and "deeper than 32" in err

    def test_nesting_at_the_bound(self):
        assert run(["ordinal-eval", "(" * 32 + "w" + ")" * 32]) == (0, "w\n", "")
        assert run(["ordinal-eval", "(" * 33 + "w" + ")" * 33])[0] == 4
        assert run(["ordinal-eval", "w^" * 32 + "2"])[0] == 0
        assert run(["ordinal-eval", "(-1) + " * 300 + "w"]) == (0, "w\n", "")
        for spec in ("(" * 32 + "Z/4" + ")" * 32, "Z/8" + "/(0)" * 32):
            assert run(["ring-analyze", spec])[0] == 0
        for spec in ("(" * 33 + "Z/4" + ")" * 33, "Z/8" + "/(0)" * 33):
            assert run(["ring-analyze", spec])[0] == 4

    def test_numerals_beyond_the_digit_limit(self):
        d = self.LONG
        for argv in (["ordinal-eval", "w^" + d], ["ordinal-eval", "w*" + d],
                     ["ordinal-eval", d], ["ring-analyze", "Z/" + d],
                     ["ring-analyze", f"GF({d})[t]"], ["ring-analyze", f"GF(2)[t]/(t^{d})"],
                     ["l-euclidean", f"GF({d})[t]"]):
            code, out, err = run(argv)
            assert (code, out) == (4, ""), argv[0]
            assert err == ("error: a numeral of 5000 digits is longer than "
                           f"the limit of {sys.get_int_max_str_digits()} digits\n")

    def test_ring_elements_beyond_the_digit_limit(self):
        # a Z/n element too long for int() is refused like every other numeral
        limit = sys.get_int_max_str_digits()
        d = "9" * (limit + 1)
        message = (f"error: a numeral of {limit + 1} digits is longer than "
                   f"the limit of {limit} digits\n")
        for element in (d, "-" + d, "+" + d):
            assert run(["euclid-quotient", "Z/8", element]) == (4, "", message)
            assert run(["euclid-quotient", "Z/8 x Z/9", f"(1, {element})"]) == (4, "", message)
        assert run(["euclid-quotient", "Z/8", "-" + "2" * limit])[0] == 0
        code, out, err = run(["euclid-quotient", "Z/8", "+-" + d])
        assert (code, out) == (5, "") and err.startswith("error: expected an integer element")

    def test_results_beyond_the_digit_limit(self):
        # each numeral is read, only the sum or product is too long to print
        d = "9" * sys.get_int_max_str_digits()
        message = ("error: the result holds an integer of more than "
                   f"{sys.get_int_max_str_digits()} digits, the limit for printing one\n")
        for argv in (["ordinal-eval", f"{d} # {d}"], ["ordinal-eval", f"{d} . {d}"],
                     ["ordinal-eval", f"w*{d} # w*{d}"], ["product-bounds", d, d],
                     ["ordinal-eval", f"{d} # {d}", "--json"]):
            assert run(argv) == (4, "", message), argv[0]
        assert run(["ordinal-eval", f"{d} + 0"])[0] == 0

    def test_polynomial_exponent_beyond_the_bound(self):
        # refused before a coefficient list of that degree is built
        code, out, err = run(["euclid-quotient", "GF(2)[t]/(t^3)", "t^99999999"])
        assert (code, out) == (4, "")
        assert err == "error: exponent 99999999 is above the limit of 1048576\n"
        assert run(["ring-analyze", "GF(2)[t]/(t^1048577)"])[0] == 4

    def test_polynomial_exponent_at_the_bound(self):
        for exponent in ("999999", "1048576"):  # t^e is 0 modulo t^3
            assert run(["euclid-quotient", "GF(2)[t]/(t^3)", "t^" + exponent]) == \
                run(["euclid-quotient", "GF(2)[t]/(t^3)", "0"])

    def test_polynomial_leading_sign(self):
        # -t is 2*t in GF(3), not the unit 2*t+1
        assert run(["euclid-quotient", "GF(3)[t]/(t^3)", "--", "-t"]) == \
            run(["euclid-quotient", "GF(3)[t]/(t^3)", "2*t"])
        code, out, err = run(["euclid-quotient", "GF(3)[t]/(t^3)", "t^2 + + 1"])
        assert (code, out) == (5, "")
        assert err == "error: unexpected '+' in polynomial (at position 6)\n"


    def test_element_with_a_leading_sign_goes_after_the_separator(self):
        spec = "GF(3)[t]/(t^3)"
        code, out, err = run(["euclid-quotient", "--json", spec, "--", "-t"])
        assert (code, err) == (0, "")
        same = json.loads(run(["euclid-quotient", spec, "2*t", "--json"])[1])
        assert json.loads(out)["table"] == same["table"]
        # without "--" argparse reads -t as an option and exits 2; the help
        # says where such an element goes
        with pytest.raises(SystemExit) as info:
            run(["euclid-quotient", spec, "-t"])
        assert info.value.code == 2
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            main(["euclid-quotient", "--help"])
        assert "goes after '--'" in " ".join(out.getvalue().split())

    def test_star_must_be_followed_by_t(self):
        for element, position in (("2*", 2), ("2* + t", 3)):
            assert run(["euclid-quotient", "GF(3)[t]/(t^3)", element]) == (
                5, "", f"error: expected t after '*' in polynomial (at position {position})\n")


def test_symbolic_spec_with_a_non_principal_factor():
    # a symbolic spec has no carrier to run the fixed point on, so this is
    # the domain error (exit 2), not the stalled fixed point (exit 3)
    for extra in ([], ["--json"]):
        code, out, err = run(["ring-analyze", "Z x GF(2)[x,y]/(x,y)^2", *extra])
        assert (code, out) == (2, "")
        assert err == "error: GF(2)[x,y]/(x,y)^2 is not a principal ring\n"


class TestCarrierBound:
    def test_large_carriers_are_refused_in_a_fresh_process(self):
        # each of these ended in a MemoryError traceback (exit 1) under a
        # 2 GB address space, the last after 8 s
        for argv, name, size in (
                (["ring-analyze", "Z/1000000007"], "Z/1000000007", 1000000007),
                (["ring-analyze", "Z x Z/1000000007"], "Z/1000000007", 1000000007),
                (["euclid-bottom", "Z/1000000007 x Z/2"], "Z/1000000007", 1000000007),
                (["ring-analyze", "GF(2)[t]/(t^40)"], "GF(2)[t]/(t^40)", 1 << 40),
                (["euclid-bottom", "Z/4096 x Z/2048"], "Z/4096 x Z/2048", 1 << 23)):
            (code, out, err), elapsed = fresh_run(argv, address_space=1 << 30)
            assert (code, out) == (4, "")
            assert err == f"error: {name} has {size} elements; carriers are bounded at 4194304\n"
            assert elapsed < 1.0

    def test_rings_at_the_bound_answer(self, monkeypatch):
        monkeypatch.setattr(rings, "CARRIER_BOUND", 16)
        for spec in ("Z/16", "GF(2)[t]/(t^4)", "GF(4)[t]/(t^2)", "Z/4 x Z/4", "Z/16/(4)"):
            assert run(["euclid-bottom", spec])[0] == 0, spec
        for spec, size in (("Z/17", 17), ("GF(2)[t]/(t^5)", 32), ("GF(17)[t]/(t)", 17),
                           ("Z/4 x Z/5", 20), ("GF(2)[t]/(t^2) x Z/8", 32)):
            assert run(["euclid-bottom", spec]) == (
                4, "", f"error: {spec} has {size} elements; carriers are bounded at 16\n")


def test_symbolic_factors_are_refused_under_the_spec_given():
    message = "contains symbolic factors; a concrete finite ring is required\n"
    for argv, spec in ((["euclid-bottom", "Z x Z/3"], "Z x Z/3"),
                       (["euclid-quotient", "GF(2)[t] x Z/9", "(0, 3)"], "GF(2)[t] x Z/9"),
                       (["euclid-product", "Z/4", "Z/5 x GF(3)[t]"], "Z/5 x GF(3)[t]"),
                       (["l-euclidean", " Z x GF(2)[t]/(t^3) "], "Z x GF(2)[t]/(t^3)")):
        assert run(argv) == (2, "", f"error: '{spec}' {message}")


def test_ring_analyze_closes_the_ideals_once(monkeypatch):
    calls = []
    closed = FiniteRing._closed_ideals

    def counted(self, pids):
        calls.append(self.name)
        return closed(self, pids)

    monkeypatch.setattr(FiniteRing, "_closed_ideals", counted)
    code, out, _ = run(["ring-analyze", "GF(2)[x,y]/(x,y)^2", "--json"])
    report = json.loads(out)
    assert code == 0 and (report["principal"], report["ideals"]) == (False, 6)
    assert calls == ["GF(2)[x,y]/(x,y)^2"]


class TestModelCostBounds:
    def _timed(self, argv):
        t0 = time.perf_counter()
        result = run(argv)
        return result, time.perf_counter() - t0

    def test_model_poly_over_the_carrier_bound(self):
        for argv in (["model-poly", "4"], ["model-poly", "4", "--window", "9"],
                     ["model-poly", "2", "--window", "18"]):
            (code, out, err), elapsed = self._timed(argv)
            assert code == 4 and out == "" and err.startswith("error:")
            assert elapsed < 1.0

    def test_model_z_over_the_window_bound(self):
        (code, out, err), elapsed = self._timed(["model-z", "--window", "9000"])
        assert code == 4 and out == "" and err.startswith("error:")
        assert elapsed < 1.0

    def test_large_field_needs_no_field_tables(self):
        # GF(512) is known to exist from 512 = 2^9 alone; building its
        # 512 x 512 multiplication table took seconds
        cases = [
            (["ring-analyze", "GF(512)[t]", "--json"],
             {"input": "GF(512)[t]", "symbolic": True, "spec": "GF(512)[t]",
              "pid_factors": ["GF(512)[t]"], "artinian_lengths": [], "order_type": "w"}),
            (["model-poly", "512", "--window", "0", "--json"],
             {"input": {"q": 512, "report_degree": 0}, "values_by_degree": {"0": [0]},
              "stabilization_windows": [8, 12],
              "note": "units map to 0; the value of a nonzero polynomial is its degree"}),
        ]
        for argv, report in cases:
            (code, out, _), elapsed = self._timed(argv)
            assert code == 0
            assert json.loads(out) == {"schema_version": 1, "command": argv[0], **report}
            assert elapsed < 1.0
        for argv in (["ring-analyze", "GF(6)[t]"], ["model-poly", "6", "--window", "0"]):
            code, _, err = run(argv)
            assert code == 2
            assert err == "error: GF(6) does not exist: 6 is not a prime power\n"

    def test_prime_beyond_the_trial_division_bound(self):
        for argv in (["model-localize", "100000000000000000039", "--samples", "1"],
                     ["ring-analyze", "GF(100000000000000000039)[t]"]):
            (code, out, err), elapsed = self._timed(argv)
            assert (code, out) == (4, "")
            assert err == ("error: 100000000000000000039 has no prime factor up to "
                           "10000000, where trial division stops\n")
            assert elapsed < 5.0

    def test_prime_at_the_trial_division_bound(self):
        # isqrt(100000000000031) is 10^7 itself, so this prime still factors
        code, out, _ = run(["ring-analyze", "GF(100000000000031)[t]", "--json"])
        assert code == 0
        assert json.loads(out)["order_type"] == "w"

    def test_witness_field_above_the_bound(self):
        for q in (32768, 100003):
            (code, out, err), elapsed = self._timed(["l-euclidean", f"GF({q})[t]"])
            assert (code, out) == (4, "")
            assert err == f"error: GF({q}) has more than 16384 elements, the witness bound\n"
            assert elapsed < 1.0
        # the string of a range this large used to end in a MemoryError traceback
        code, out, err = run(["l-euclidean", "GF(100000000000031)[t]"])
        assert (code, out) == (4, "") and err.startswith("error: GF(100000000000031) has more")

    def test_large_fields_answer_from_logarithm_tables(self):
        # the former q x q product table kept these running for over a minute
        (code, out, _), elapsed = fresh_run(["euclid-bottom", "GF(4096)[t]/(t)", "--json"])
        table = json.loads(out)["table"]
        assert code == 0 and (len(table["values"]), table["value_at_zero"]) == (4095, "1")
        assert elapsed < 5.0
        (code, out, _), elapsed = fresh_run(["l-euclidean", "GF(4096)[t]", "--json"])
        report = json.loads(out)
        assert code == 0 and report["l_euclidean"] is False
        assert len(report["witness"]["allowed_remainders"]) == 4096
        assert elapsed < 5.0
        # a principal ring counts its ideals from the valuations of zero,
        # with no enumeration bound
        (code, out, _), elapsed = fresh_run(["ring-analyze", "GF(1024)[t]/(t)"])
        assert code == 0 and out.splitlines()[1:3] == ["size: 1024   units: 1023",
                                                       "principal: True   ideals: 2"]
        assert elapsed < 5.0

    def test_sample_count_above_the_bound(self):
        (code, out, err), elapsed = self._timed(["model-localize", "2", "--samples", "1000001"])
        assert (code, out) == (4, "") and err.startswith("error:")
        assert elapsed < 1.0
        code, out, _ = run(["model-localize", "2", "--samples", "10", "--json"])
        assert code == 0 and json.loads(out)["samples"] == 10

    def test_model_poly_gf3_default_degree(self):
        code, out, _ = run(["model-poly", "3", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["input"] == {"q": 3, "report_degree": 10}
        assert report["values_by_degree"] == {str(d): [d] for d in range(11)}
        assert report["stabilization_windows"] == [12, 16]


def test_ring_analyze_counts_the_ideals_of_a_principal_ring_from_its_valuations(monkeypatch):
    def refuse(self):
        raise AssertionError(f"all_ideals called on {self.name}")

    monkeypatch.setattr(FiniteRing, "all_ideals", refuse)
    for spec, ideals in (("Z/1024", 11), ("Z/720 x Z/36", 270), ("Z/8 x Z/27/((2, 3))", 4),
                         ("GF(2)[x,y]/(x,y)^2/(x) x Z/9", 9),
                         ("(GF(2)[x,y]/(x,y)^2 x Z/3)/((x, 0))", 6)):
        code, out, err = run(["ring-analyze", spec, "--json"])
        assert (code, err) == (0, "") and json.loads(out)["ideals"] == ideals, spec
    code, out, _ = run(["ring-analyze", "Z/1024"])
    assert out.splitlines()[1:4] == ["size: 1024   units: 512",
                                     "principal: True   ideals: 11",
                                     "length of the zero ideal chain: 10"]


def test_ring_analyze_splits_quotients_of_keyed_rings_without_unit_sets(monkeypatch):
    # a local factor is kept when its coordinate has a nonzero valuation
    specs = ("Z/360/(12)", "Z/64/(6)", "Z/1024", "Z/8 x Z/27/((2, 3))",
             "Z/12 x GF(2)[t]/(t^2)/((2, t))", "GF(2)[t]/(t^4+t^2)/(t^3+t^2)",
             "GF(3)[t]/(t^4+2)/(t+2)")
    reports = {spec: run(["ring-analyze", spec, "--json"]) for spec in specs}

    def refuse(self):
        raise AssertionError(f"units called on {self.name}")

    monkeypatch.setattr(FiniteRing, "units", refuse)
    for spec in specs:
        assert run(["ring-analyze", spec, "--json"]) == reports[spec], spec
    assert [json.loads(reports[spec][1])["local_factors"] for spec in specs[:2]] == [
        ["Z/8/(4)", "Z/9/(3)"], ["Z/64/(6)"]]
    assert json.loads(reports["GF(2)[t]/(t^4+t^2)/(t^3+t^2)"][1])["local_factors"] == [
        "GF(2)[t]/(t^2)/(0)", "GF(2)[t]/(t^2+1)/(t+1)"]
    ring = Zmod(1024)
    assert crt_decompose(ring)[0] == [ring]  # a prime power is its own local factor


class TestSpecimenQuotient:
    def test_principal_quotient_analyzes(self):
        code, out, _ = run(["ring-analyze", "GF(2)[x,y]/(x,y)^2/(x)"])
        assert code == 0
        assert out.splitlines()[2:] == ["principal: True   ideals: 3",
                                        "length of the zero ideal chain: 2",
                                        "local factors: GF(2)[x,y]/(x,y)^2/(x)"]

    def test_product_with_a_field(self):
        code, out, _ = run(["ring-analyze", "(GF(2)[x,y]/(x,y)^2/(x)) x Z/3", "--json"])
        assert code == 0
        report = json.loads(out)
        assert (report["principal"], report["ideals"], report["length"]) == (True, 6, 3)
        assert report["local_factors"] == ["GF(2)[x,y]/(x,y)^2/(x)", "Z/3"]
        code, out, _ = run(["ring-analyze", "(GF(2)[x,y]/(x,y)^2/(x)) x Z/3"])
        assert "local factors: GF(2)[x,y]/(x,y)^2/(x) x Z/3" in out.splitlines()

    def test_non_local_quotient_splits(self):
        code, out, err = run(["ring-analyze", "(GF(2)[x,y]/(x,y)^2 x Z/3)/((x, 0))"])
        assert (code, err) == (0, "")
        name = "GF(2)[x,y]/(x,y)^2 x Z/3/((x, 0))"
        assert out.splitlines()[2:] == [
            "principal: True   ideals: 6",
            "length of the zero ideal chain: 3",
            f"local factors: ({name}/((1, 0))) x ({name}/((0, 1)))"]

    def test_local_factor_names_with_a_product_are_parenthesized(self):
        code, out, _ = run(["ring-analyze", "Z/8 x Z/27/((2, 1))"])
        assert code == 0 and out.splitlines()[-1] == "local factors: (Z/8 x Z/27/((2, 1)))"
        code, out, _ = run(["ring-analyze", "Z/8 x Z/27/((2, 1))", "--json"])
        assert code == 0 and json.loads(out)["local_factors"] == ["Z/8 x Z/27/((2, 1))"]

    def test_symbolic_specs_over_the_specimen(self):
        for spec, order in (("Z x GF(2)[x,y]/(x,y)^2/(x)", "w + 2"),
                            ("Z x (GF(2)[x,y]/(x,y)^2 x Z/3)/((x, 0))", "w + 3")):
            code, out, _ = run(["ring-analyze", spec])
            assert code == 0 and out.splitlines()[-1] == f"order type: {order}", spec
        code, out, err = run(["ring-analyze", "Z x GF(2)[x,y]/(x,y)^2"])
        assert (code, out) == (2, "")
        assert err == "error: GF(2)[x,y]/(x,y)^2 is not a principal ring\n"

    def test_principality_needs_no_ideal_enumeration(self):
        spec = "GF(2)[x,y]/(x,y)^2 x Z/81"  # 648 elements, above the enumeration bound
        code, out, err = run(["l-euclidean", spec])
        assert (code, out) == (2, "")
        assert err == "error: GF(2)[x,y]/(x,y)^2 is not a principal ring\n"
        code, out, _ = run(["euclid-bottom", spec, "--json"])
        report = json.loads(out)
        fixture = truncated_bivariate_fixture()
        ring = ProductRing([fixture, Zmod(81)])
        assert code == 3 and report["finding"] == "not-euclidean"
        assert report["stuck"] == [ring.format_element(x) for x in ring.elements
                                   if x != ring.zero and x[0] not in fixture.units()]
        code, out, err = run(["ring-analyze", spec])
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["size: 648   units: 216", "principal: False   ideals: 30"]

    def test_a_product_answers_from_its_factors(self, monkeypatch):
        # the product keeps neither principal ideals nor a split of its own
        products = []
        build = ProductRing.__init__

        def recorded(self, factors):
            products.append(self)
            build(self, factors)

        monkeypatch.setattr(ProductRing, "__init__", recorded)

        def assert_no_product_scanned():
            assert products
            for ring in products:
                assert not {"_split", "_pids"} & set(vars(ring)), ring.name
            products.clear()

        spec = "GF(2)[x,y]/(x,y)^2 x Z/81"
        code, out, err = run(["ring-analyze", spec])
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"ring: {spec}", "size: 648   units: 216",
                                    "principal: False   ideals: 30"]
        assert_no_product_scanned()
        code, out, err = run(["ring-analyze", spec, "--json"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["size"], report["units"], report["principal"], report["ideals"]) == (
            648, 216, False, 30)
        assert_no_product_scanned()
        code, out, err = run(["euclid-bottom", spec, "--json"])
        assert (code, err) == (3, "")
        report = json.loads(out)
        fixture = truncated_bivariate_fixture()
        units = {x for x in fixture.elements
                 if any(fixture.mul(x, y) == fixture.one for y in fixture.elements)}
        ring, = products
        assert report["finding"] == "not-euclidean"
        assert report["stuck"] == [ring.format_element(x) for x in ring.elements
                                   if x != ring.zero and x[0] not in units]
        assert_no_product_scanned()


def test_euclid_verify_checks_a_validated_table_once(tmp_path, monkeypatch):
    from euctype import euclidean, parsing

    calls = []
    check = euclidean.division_counterexample

    def counted(ring, values):
        calls.append(ring.name)
        return check(ring, values)

    monkeypatch.setattr(euclidean, "division_counterexample", counted)
    monkeypatch.setattr(parsing, "division_counterexample", counted)
    d = table_to_dict(bottom_euclidean(Zmod(12)))
    for validated in (True, False):
        calls.clear()
        path = tmp_path / f"t{validated}.json"
        path.write_text(json.dumps({**d, "validated": validated, "bottom": False}))
        code, out, _ = run(["euclid-verify", str(path)])
        assert code == 0 and "euclidean: True" in out
        assert calls == ["Z/12"]


def test_euclid_verify_checks_every_table_once(tmp_path, monkeypatch):
    from euctype import euclidean, parsing

    calls = []
    check = euclidean.division_counterexample

    def counted(ring, values):
        calls.append(ring.name)
        return check(ring, values)

    monkeypatch.setattr(euclidean, "division_counterexample", counted)
    monkeypatch.setattr(parsing, "division_counterexample", counted)
    d = table_to_dict(bottom_euclidean(Zmod(12)))
    broken = {**d, "values": {**d["values"], "2": "0"}}  # no quotient for 1 modulo 2
    above = {**d, "value_at_zero": "9"}  # Euclidean, but not the bottom table
    cases = [
        ({**d, "validated": False, "bottom": False}, True),
        ({**d, "validated": True, "bottom": False}, True),
        ({**broken, "validated": True, "bottom": False}, False),
        ({**d, "validated": False, "bottom": True}, True),
        ({**above, "validated": False, "bottom": True}, True),
        ({**broken, "validated": False, "bottom": True}, False),
    ]
    for i, (data, euclidean_) in enumerate(cases):
        calls.clear()
        path = tmp_path / f"t{i}.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(["euclid-verify", str(path)])
        assert code == 0 and f"euclidean: {euclidean_}" in out
        assert calls == ["Z/12"]
    path.write_text("[]")
    assert run(["euclid-verify", str(path)])[0] == 2


def test_cli_defaults_are_stated_once():
    for read in (cli._read, cli._parser().parse_args):
        assert read(["model-z"]).window == 1024
        assert read(["model-poly", "2"]).window == 10


# ---------------------------------------------------------------------------
# the write path in bulk


STRINGS = st.one_of(st.text(max_size=8),
                    st.sampled_from(["", "ω", "é", "\n", '"', "\\", "\x00", "\u2028", "w^2 + 1"]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), STRINGS)
KEYS = st.one_of(STRINGS, st.integers(), st.floats(), st.booleans(), st.none())
JSON_VALUES = st.recursive(
    st.one_of(SCALARS, st.just({}), st.just([]), st.just(())),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
        st.dictionaries(KEYS, children, max_size=4)),
    max_leaves=25)


@given(JSON_VALUES)
@settings(max_examples=500, deadline=None)
def test_dumps_is_json_dumps_with_an_indent(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_dumps_on_written_tables():
    for spec in ("Z/8", "GF(3)[t]/(t^3)", "Z/12 x Z/10", "GF(2)[x,y]/(x,y)^2/(x)"):
        report = {"table": table_to_dict(bottom_euclidean(parse_ring_spec(spec))), "empty": {},
                  "nested": [[], {}, [[]], {"a": []}], "order_type": "3"}
        assert _dumps(report) == json.dumps(report, indent=2), spec


def old_table_lines(ring, table):
    """The per-element text writer: the oracle for ``cli._table_lines``."""
    lines = [f"ring: {ring.name}"]
    by_value = {}
    for x, v in table.values.items():
        by_value.setdefault(format_ordinal(v), []).append(x)
    for text in sorted(by_value, key=lambda t: min(ring.index(x) for x in by_value[t])):
        xs = sorted(by_value[text], key=ring.index)
        lines.append(f"  value {text}: " + ", ".join(ring.format_element(x) for x in xs))
    lines.append(f"value at zero: {format_ordinal(table.value_at_zero)}")
    return lines


def test_text_tables_match_the_per_element_writer():
    """Bottom and quotient tables, and relabellings with one value object
    per element, some values equal and listed in a reversed order."""
    for spec in ("Z/8", "Z/360", "GF(2)[t]/(t^5)", "GF(4)[t]/(t^2+t)", "Z/12 x Z/10",
                 "(Z/2 x Z/3) x Z/4", "GF(2)[x,y]/(x,y)^2/(x) x Z/3", "Z/36/(6)"):
        ring = parse_ring_spec(spec)
        bottom = bottom_euclidean(ring)
        divisor = next(b for b in reversed(ring.elements) if not ring.is_unit(b))
        tables = [bottom, quotient_euclidean(bottom, divisor)]
        for relabel in (omega_power, lambda v: Ordinal(v // 2)):
            values = {x: relabel(bottom.values[x].to_int()) for x in reversed(ring.elements)
                      if x != ring.zero}
            tables.append(EuclideanTable(ring, values, max(values.values()).successor(), False))
        for table in tables:
            assert _table_lines(table.ring, table) == old_table_lines(table.ring, table), spec


def old_model_poly_outputs(q, degree):
    """The text and --json output of model-poly as the former loop over every
    polynomial built them, kept as the oracle for the per-degree report."""
    model = windowed_bottom_polynomials(q, report_degree=degree)
    by_degree = {}
    for p, v in model.values.items():
        by_degree.setdefault(len(p) - 1, set()).add(v)
    cert = model.certificate
    report = {
        "schema_version": 1,
        "command": "model-poly",
        "input": {"q": q, "report_degree": degree},
        "values_by_degree": {str(d): sorted(vs) for d, vs in sorted(by_degree.items())},
        "stabilization_windows": [cert.window_a, cert.window_b],
        "note": "units map to 0; the value of a nonzero polynomial is its degree",
    }
    lines = [f"stabilized on degree windows {cert.window_a} and {cert.window_b}"]
    lines += [f"  degree {d}: values {sorted(vs)}" for d, vs in sorted(by_degree.items())]
    return "\n".join(lines) + "\n", json.dumps(report, indent=2) + "\n"


def test_model_poly_matches_the_per_polynomial_loop(monkeypatch):
    # every prime power q <= 9, at every degree up to the 2^18 polynomials
    # of model-poly 2 --window 17 and model-poly 4 --window 8; the CLI
    # reads one value per degree and lists no polynomial
    def no_listing(*args):
        raise AssertionError("model-poly listed the polynomials")

    for q in (2, 3, 4, 5, 7, 8, 9):
        degree = 0
        while q ** (degree + 1) <= models.MAX_POLY_CARRIER:
            text, report = old_model_poly_outputs(q, degree)
            argv = ["model-poly", str(q), "--window", str(degree)]
            with monkeypatch.context() as patch:
                patch.setattr(models, "windowed_bottom_polynomials", no_listing)
                assert run(argv) == (0, text, "")
                assert run(argv + ["--json"]) == (0, report, "")
            degree += 1
        assert run(["model-poly", str(q), "--window", str(degree)]) == (
            4, "", f"error: GF({q})[t] up to degree {degree} has more than 262144 polynomials\n")


# Small report shapes that mix scalars with nested members at one level.
SMALL_REPORTS = [
    {"schema_version": 1, "command": "model-poly", "input": {"q": 2, "report_degree": 3},
     "values_by_degree": {"0": [0], "1": [1], "2": [2], "3": [3]},
     "stabilization_windows": [3, 4], "note": "units map to 0"},
    {"schema_version": 1, "command": "model-localize",
     "input": {"primes": [2, 3], "samples": 50, "seed": 7}, "ok": False, "samples": 50,
     "seed": 7, "failures": [["3", "5"], ["7", "-2"]]},
    {"schema_version": 1, "command": "model-localize", "input": {"primes": [5]}, "ok": True,
     "failures": []},
    {"schema_version": 1, "command": "ring-analyze", "input": "Z/36", "symbolic": False,
     "ring": "Z/36", "size": 36, "units": 12, "principal": True, "ideals": 9, "length": 4,
     "local_factors": ["Z/4", "Z/9"]},
    {"local_factors": ["Z/4"], "nested": {"a": [1.5, None, " "]}},
]


@pytest.mark.parametrize("report", SMALL_REPORTS)
def test_dumps_on_small_reports(report):
    assert _dumps(report) == json.dumps(report, indent=2)


# ---------------------------------------------------------------------------
# well-formed calls take no argparse pass


def exiting_run(argv):
    """``run``, with the status of an argparse exit in place of the return."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def full_parser_run(argv, monkeypatch):
    """``exiting_run`` with every argv read by the full argparse parser."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse", lambda argv: cli._parser().parse_args(argv))
        return exiting_run(argv)


# calls the reader takes: each also runs with "--json" appended
WELL_FORMED = [
    ["ordinal-eval", "w^2 + w*3 + 1"], ["ring-analyze", "Z/12"],
    ["ring-analyze", "Z x Z/8"], ["model-poly", "--window", "3", "3"], ["euclid-bottom", "Z/8"],
    ["euclid-quotient", "Z/8", "2"], ["euclid-product", "Z/2", "Z/3"],
    ["product-bounds", "w", "3"], ["realize", "w*2 + 1"], ["model-z", "--window", "40"],
    ["model-poly", "2", "--window", "3"],
    ["model-localize", "2", "3", "--samples", "50", "--seed", "1"], ["l-euclidean", "Z"],
    ["euclid-quotient", "Z/8", "--json", "2"], ["euclid-product", "--json", "Z/2", "Z/3"],
    ["model-z", "--window", "3", "--window", "4"], ["model-z", "--window", " 4_0"],
    ["ordinal-eval", "--json", "w"], ["model-localize", "--samples", "5", "2", "3"],
]

# calls the reader leaves to argparse, and calls the engine refuses
MALFORMED_ARGV = [
    [], ["-h"], ["--help"], ["frobnicate", "Z/8"], ["ordinal-eval", "-h"],
    ["ordinal-eval", "--bogus", "w"], ["ordinal-eval", "w", "--bogus"],
    ["ordinal-eval", "w", "extra"], ["ordinal-eval", "w", "--js"],
    ["model-z", "--win", "40"], ["model-z", "--window=40"], ["ordinal-eval"],
    ["euclid-product", "Z/2"], ["model-z", "--window", "many"], ["model-poly", "two"],
    ["model-localize", "2", "--samples", "1.5"], ["ordinal-eval", "w", "--json", "--json"],
    ["euclid-quotient", "Z/8", "--", "-2"], ["--", "ordinal-eval", "w"],
    ["ordinal-eval", "--", "-w"], ["euclid-quotient", "Z/8", "--", "--", "2"],
    ["ordinal-eval", "w", "--", "extra"], ["model-z", "--", "--window", "3"],
    ["ordinal-eval", "w +"], ["euclid-bottom", "Z/0"],
    ["product-bounds", "w", "--json", "3"], ["model-localize", "2", "--seed", "-1"],
    ["ordinal-eval", ""], ["model-localize", "2", "3", "--samples", "5", "7"],
    ["model-z", "--window"], ["model-z", "--window", "--json"], ["model-z", "--window", ""],
    ["model-z", "3"], ["model-localize", "--samples", "5"], ["ordinal-eval", "-w + 1"],
    ["ordinal-eval", "-"], ["model-poly", "2", "--window", "-1"],
    ["euclid-quotient", "Z/8", "2", "--json", "4"], ["ordinal-eval", "ordinal-eval"],
    ["euclid-quotient", "Z/8", "-t"], ["euclid-quotient", "Z/8", "-2"], ["ordinal-eval", "--bogus"],
    ["model-poly", "--", "2"], ["model-z", "--window", "-1_0"],
]


def test_ring_analyze_has_no_max_size_option():
    code, out, err = exiting_run(["ring-analyze", "Z/4", "--max-size", "64"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: euctype ")
    assert err.endswith("euctype: error: unrecognized arguments: --max-size 64\n")


def test_dispatch_matches_the_full_parser(tmp_path, monkeypatch):
    table = tmp_path / "z4.json"
    table.write_text(json.dumps(json.loads(run(["euclid-bottom", "Z/4", "--json"])[1])["table"]))
    corpus = [argv + tail for argv in WELL_FORMED + [["euclid-verify", str(table)]]
              for tail in ([], ["--json"])] + MALFORMED_ARGV
    for argv in corpus:
        assert exiting_run(argv) == full_parser_run(argv, monkeypatch), argv


def test_a_well_formed_call_takes_no_argparse_pass(monkeypatch):
    def refused():
        raise AssertionError("the call reached argparse")

    monkeypatch.setattr(cli, "_parser", refused)
    for argv in WELL_FORMED:
        for tail in ([], ["--json"]):
            assert run(argv + tail)[0] == 0, argv


def test_a_fresh_process_imports_argparse_only_for_help():
    script = ("import contextlib, io, sys\n"
              "from euctype.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = [main(argv) for argv in {!r}]\n"
              "print(codes, 'argparse' in sys.modules)\n"
              "main(sys.argv[1:])\n").format([argv + ["--json"] for argv in WELL_FORMED])
    proc = subprocess.run([sys.executable, "-c", script, "--help"], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    first, usage = proc.stdout.split("\n", 1)
    assert first == f"{[0] * len(WELL_FORMED)} False"
    assert usage.startswith("usage: euctype [-h]")


def test_main_is_the_only_writer(tmp_path):
    table = tmp_path / "z4.json"
    table.write_text(json.dumps(table_to_dict(bottom_euclidean(Zmod(4)))))
    finding = ["euclid-bottom", "GF(2)[x,y]/(x,y)^2"]
    for argv in WELL_FORMED + [["euclid-verify", str(table)], finding]:
        for tail in ([], ["--json"]):
            args = cli._parse(argv + tail)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    pair = args.func(args)
                except NotEuclideanRing as exc:
                    pair = cli._not_euclidean_report(exc)
            assert out.getvalue() == "", argv
            assert type(pair) is tuple and [type(x) for x in pair] == [dict, list], argv
            report, lines = pair
            expected = (_dumps({"schema_version": 1, "command": argv[0], **report}) + "\n"
                        if args.json else "".join(line + "\n" for line in lines))
            assert run(argv + tail) == (3 if argv is finding else 0, expected, ""), argv
