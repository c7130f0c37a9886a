"""Runs one workload's job list in a fresh interpreter and reports its figures.

Usage: python3 bench/worker.py JOBS.json --seed N --seconds S --trace 0|1 --out DIR

Started by ``run.py`` with a fixed PYTHONHASHSEED.  Jobs run in a closed
loop, one at a time, in whole rounds of the same list until the time is
spent.  Each job is timed on its own and scaled by the calibration
samples taken just before and just after it; outputs are kept and
checked against the oracles after the round, outside the timed region.

With ``--trace 1`` rounds cycle through the unmodified program, the
program with spans and call counters installed, and the program with
ring-operation and ordinal-comparison counters installed (see
``tracing.py``); per-layer figures come from the instrumented rounds and
the tracing overhead from comparing them with the unmodified ones.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, BENCH)
sys.path.insert(0, SRC)

import euctype  # noqa: E402
from euctype import cli, ordinal, parsing, poset  # noqa: E402

import calibrate  # noqa: E402
from checks import FAILED, Checker  # noqa: E402
from tracing import OP_METRICS, RATIO_METRICS, SPAN_METRICS, Tracer  # noqa: E402

if not os.path.abspath(euctype.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"euctype was imported from {euctype.__file__}, not from {SRC}")


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _ordinal_laws(triples):
    parse, fmt = parsing.parse_ordinal, ordinal.format_ordinal
    nsum, lsub = ordinal.natural_sum, ordinal.left_subtract
    rows = []
    for ta, tb, tc in triples:
        a, b, c = parse(ta), parse(tb), parse(tc)
        ab = nsum(a, b)
        a_plus_b = a + b
        rows.append((fmt(a), fmt(parse(fmt(a))), fmt(ab), fmt(nsum(b, a)), fmt(nsum(ab, c)),
                     fmt(nsum(a, nsum(b, c))), fmt(a_plus_b), fmt(lsub(a, a_plus_b)), fmt(b)))
    return rows


def execute(job):
    """Runs one job; returns its outcome.  Exceptions count as failures."""
    try:
        if job["kind"] == "cli":
            code, out = _call_cli(job["argv"])
            return {"code": code, "stdout": out, "bytes": len(out.encode())}
        if job["kind"] == "roundtrip":
            code, out = _call_cli(job["argv"])
            outcome = {"code": code, "stdout": out, "verify_code": None, "bytes": len(out.encode())}
            if code == 0:
                with open(job["path"], "w") as fh:
                    json.dump(json.loads(out)[job["table_key"]], fh)
                vcode, vout = _call_cli(["euclid-verify", job["path"], "--json"])
                outcome.update(verify_code=vcode, verify_stdout=vout)
                outcome["bytes"] += len(vout.encode())
            return outcome
        if job["call"] == "brookfield":
            return {"result": poset.brookfield_sum_finite(*job["args"]), "bytes": 0}
        if job["call"] == "ordinal-laws":
            return {"result": _ordinal_laws(job["args"]), "bytes": 0}
        raise ValueError(f"unknown job {job!r}")
    except Exception as exc:  # a crash is a failed operation, reported below
        return {"error": f"{type(exc).__name__}: {exc}", "bytes": 0}


def run_round(jobs, tracer=None):
    clock = time.perf_counter
    times, raws, outcomes, cals = [], [], [], []
    c_before = calibrate.sample()
    cals.append(c_before)
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t0 = clock()
        outcome = execute(job)
        raw = clock() - t0
        c_after = calibrate.sample()
        cals.append(c_after)
        times.append(calibrate.scale(raw, c_before, c_after))
        raws.append(raw)
        outcomes.append(outcome)
        c_before = c_after
    return {"times": times, "raws": raws, "outcomes": outcomes, "cals": cals}


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("jobs")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(args.jobs) as fh:
        jobs = json.load(fh)

    checker = Checker(jobs, args.seed)
    tracer = Tracer() if args.trace else None
    kinds = ("plain", "spans", "ops") if tracer else ("plain",)
    rounds = []
    layer_rounds = {"spans": [], "ops": []}
    attempted = failed = 0
    wrong = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        kind = kinds[len(rounds) % len(kinds)]
        if kind != "plain":
            mark = tracer.snapshot()
            tracer.install(kind)
        try:
            r = run_round(jobs, tracer if kind != "plain" else None)
        finally:
            if kind != "plain":
                tracer.uninstall()
        r["kind"] = kind
        if kind != "plain":
            layers = tracer.summary(mark)
            factor = calibrate.C_REF / statistics.median(r["cals"])
            for key in layers:
                if key.endswith(".s") or key.endswith(".self_s"):
                    layers[key] *= factor
            layers["cli.report_bytes"] = sum(o["bytes"] for o in r["outcomes"])
            layer_rounds[kind].append(layers)
        for i, (job, outcome) in enumerate(zip(jobs, r["outcomes"])):
            attempted += 1
            try:
                verdict = checker.check(i, job, outcome)
            except (KeyError, TypeError, ValueError) as exc:  # malformed report
                verdict = f"unreadable report: {type(exc).__name__}: {exc}"
            if verdict == FAILED:
                failed += 1
            elif verdict is not None:
                wrong.append(f"job {i} {job.get('argv') or job.get('call')}: {verdict}")
        del r["outcomes"]
        rounds.append(r)
        now = time.perf_counter()
        # stop when another whole round would end further past the time than
        # short of it, once every kind of round has run
        enough = now - start + 0.5 * (now - round_start) >= args.seconds
        if enough and len(rounds) >= len(kinds):
            break

    for line in wrong[:20]:
        print("WRONG:", line, file=sys.stderr)
    plain = [r for r in rounds if r["kind"] == "plain"]
    wall = statistics.median(sum(r["times"]) for r in plain)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(plain),
        "jobs_per_round": len(jobs),
        "wall_s": wall,
        "raw_wall_s": statistics.median(sum(r["raws"]) for r in plain),
        "job_p50_s": statistics.median(t for r in plain for t in r["times"]),
        "job_p90_s": percentile([t for r in plain for t in r["times"]], 90),
        "calibration_s": statistics.median(c for r in plain for c in r["cals"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = {}
        for kind, names in (("spans", SPAN_METRICS + RATIO_METRICS + ["cli.report_bytes"]),
                            ("ops", OP_METRICS)):
            for key in names:
                values = [lr.get(key, 0) for lr in layer_rounds[kind]]
                if key.endswith(".calls") or key == "cli.report_bytes":
                    if len(set(values)) != 1:
                        print(f"WARNING: {key} differs between rounds: {values}",
                              file=sys.stderr)
                    layers[key] = values[0]
                else:
                    layers[key] = statistics.median(values)
        for kind in ("spans", "ops"):
            traced = statistics.median(sum(r["times"]) for r in rounds if r["kind"] == kind)
            suffix = "" if kind == "spans" else "_ops"
            layers[f"trace.overhead{suffix}_ratio"] = traced / wall - 1
        result["layers"] = layers
        with open(os.path.join(args.out, "spans.jsonl"), "w") as fh:
            for name, t0, t1, parent, job, _ in tracer.spans:
                fh.write(json.dumps([name, t0 - start, t1 - start, parent, job]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
