"""The benchmark's tracer wraps euctype functions and ring methods by name.

A refactor that renames or removes one of them breaks the traced
benchmark run; this test makes it fail here first.
"""

import contextlib
import importlib
import io
import pathlib

import pytest

import euctype.cli

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"
ARGVS = (["ordinal-eval", "w+1"], ["euclid-quotient", "Z/8", "2"], ["model-z", "--window", "40"],
         ["model-poly", "2", "--window", "3"], ["model-localize", "2", "--samples", "5"],
         ["ring-analyze", "GF(2)[x,y]/(x,y)^2"])


@pytest.mark.parametrize("kind", ["spans", "ops"])
def test_tracer_installs_on_every_wrapped_name(kind, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install(kind)
        for argv in ARGVS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert euctype.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert not hasattr(euctype.cli.main, "__wrapped__")  # the originals are back
    if kind == "spans":
        names = {span[0] for span in tracer.spans}
        assert {"cli.main", "euclidean.bottom_euclidean", "rings.QuotientRing.init",
                "models.windowed_bottom_integers",
                "models.check_localization_euclidean"} <= names
    else:
        assert tracer.counts["rings.add"] > 0
