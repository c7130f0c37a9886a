"""Benchmark entry point: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload ring-tables --seed 1 --seconds 20 --trace 0

Set-up writes the seeded job list (and, for table-verify, the table files)
under bench/out/, then measures ``setup_s``: fresh interpreters are
started one at a time and timed until ``euctype.cli`` is imported and
ready, scaled by the calibration loop, and the median is kept.  The
measured part runs in a fresh single-threaded interpreter
(``worker.py``) with a fixed PYTHONHASHSEED.  The last line of standard
output is the result object; with ``--trace 0`` its metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 21
WORKER_GRACE_S = 150
READY = "import sys; import euctype.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def child_env():
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)


def time_setup(env) -> float:
    """Calibrated seconds from starting an interpreter to euctype.cli ready."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        c_before = calibrate.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", READY], stdout=subprocess.PIPE,
                                env=env, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            raw = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=30)
        c_after = calibrate.sample()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("euctype.cli could not be imported in a fresh interpreter")
        if i:  # the first start also writes bytecode caches
            samples.append(calibrate.scale(raw, c_before, c_after))
    return statistics.median(samples)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "euctype", "cli.py")):
        print(f"error: no euctype sources under {SRC}", file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = os.path.join(BENCH, "out", run_id)
    workdir = os.path.join(outdir, "tables")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(workdir)
    jobs = workloads.generate(args.workload, args.seed, workdir)
    jobs_path = os.path.join(outdir, "jobs.json")
    with open(jobs_path, "w") as fh:
        json.dump(jobs, fh)

    env = child_env()
    setup_s = None if args.trace else time_setup(env)

    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), jobs_path, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", outdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 3
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: worker exited with status {proc.returncode}", file=sys.stderr)
        return 3
    res = json.loads(proc.stdout.decode().strip().splitlines()[-1])

    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(res["layers"].items())}
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "job_p50_s": {"value": res["job_p50_s"], "unit": "s"},
            "job_p90_s": {"value": res["job_p90_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    detail = {k: v for k, v in res.items() if k != "layers"}
    detail.update(workload=args.workload, seed=args.seed, setup_s=setup_s)
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    if name == "cli.report_bytes":
        return "bytes"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
