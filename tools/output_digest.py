"""One digest line per CLI call of the benchmark's job lists and the golden reports.

Usage: python3 tools/output_digest.py SRC > digest.txt

SRC is the ``src`` directory of the tree to run.  The job lists of the
three workloads of ``bench/workloads.py`` (of this checkout, read only)
are generated for seeds 1 and 2 in one fixed directory, since
``euclid-verify`` echoes its path.  Every ``cli`` argv and every
emitting ``roundtrip`` argv runs through ``euctype.cli.main`` in process,
with and without ``--json``; the table a round trip emits is written to
its file and read back with ``euclid-verify``, as the benchmark does.
The argv of each golden report in ``tests/golden`` (of this checkout)
runs the same way, after the job lists.  Each line is the sha256 of
(exit status, stdout, stderr) and the argv, so the digests of two trees
that agree ``diff`` to nothing.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

if os.environ.get("PYTHONHASHSEED") != "0":  # the benchmark's worker runs with 0
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

sys.path[:0] = [os.path.abspath(sys.argv[1]),
                os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")]
from euctype import cli  # noqa: E402

import workloads  # noqa: E402

WORKDIR = os.path.join(tempfile.gettempdir(), "euctype-output-digest")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests", "golden")


def call(argv):
    """Prints the digest line of one call and returns its exit status and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    print(hashlib.sha256(blob).hexdigest(), json.dumps(argv))
    return code, out.getvalue()


def main():
    os.makedirs(WORKDIR, exist_ok=True)
    for seed in (1, 2):
        for workload in workloads.WORKLOADS:
            for job in workloads.generate(workload, seed, WORKDIR):
                if job["kind"] not in ("cli", "roundtrip"):
                    continue
                argv = [a for a in job["argv"] if a != "--json"]
                call(argv)
                code, out = call(argv + ["--json"])
                if job["kind"] == "roundtrip" and code == 0:
                    with open(job["path"], "w") as fh:
                        json.dump(json.loads(out)[job["table_key"]], fh)
                    call(["euclid-verify", job["path"]])
                    call(["euclid-verify", job["path"], "--json"])
    for name in sorted(os.listdir(GOLDEN_DIR)):
        with open(os.path.join(GOLDEN_DIR, name)) as fh:
            argv = [a for a in json.load(fh)["argv"] if a != "--json"]
        call(argv)
        call(argv + ["--json"])


if __name__ == "__main__":
    main()
