"""The benchmark's tracer wraps euctype functions and ring methods by name.

A refactor that renames or removes one of them breaks the traced
benchmark run; this test makes it fail here first.
"""

import contextlib
import importlib
import io
import json
import pathlib

import pytest

import euctype.cli
from euctype.euclidean import bottom_euclidean, table_to_dict
from euctype.rings import Zmod

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"
# (exit status, argv) for every verb; euclid-verify reads the tables that
# the test writes, one Euclidean and one with a counterexample
ARGVS = ((0, ["ordinal-eval", "w+1"]), (0, ["ring-analyze", "GF(2)[x,y]/(x,y)^2"]),
         (0, ["ring-analyze", "Z/4 x Z/3"]), (0, ["euclid-bottom", "Z/12", "--json"]),
         (3, ["euclid-bottom", "GF(2)[x,y]/(x,y)^2"]),
         (0, ["euclid-verify", "good.json", "--json"]), (0, ["euclid-verify", "bad.json", "--json"]),
         (0, ["euclid-quotient", "Z/8", "2"]), (0, ["euclid-product", "Z/4", "Z/3"]),
         (0, ["product-bounds", "w", "2"]), (0, ["realize", "w+1"]),
         (0, ["model-z", "--window", "40"]), (0, ["model-poly", "2", "--window", "3"]),
         (0, ["model-localize", "2", "--samples", "5"]), (0, ["l-euclidean", "Z/12"]))


@pytest.mark.parametrize("kind", ["spans", "ops"])
def test_tracer_installs_on_every_wrapped_name(kind, monkeypatch, tmp_path):
    assert {argv[0] for _, argv in ARGVS} == set(euctype.cli._VERBS)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.chdir(tmp_path)
    good = table_to_dict(bottom_euclidean(Zmod(8)))
    (tmp_path / "good.json").write_text(json.dumps(good))
    (tmp_path / "bad.json").write_text(json.dumps({**good, "values": dict.fromkeys(good["values"], "0")}))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install(kind)
        for code, argv in ARGVS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert euctype.cli.main(argv) == code, argv
    finally:
        tracer.uninstall()
    assert not hasattr(euctype.cli.main, "__wrapped__")  # the originals are back
    if kind == "spans":
        names = {span[0] for span in tracer.spans}
        assert {"cli.main", "euclidean.bottom_euclidean", "euclidean.division_counterexample",
                "euclidean.nagata_product", "euclidean.collapse_pair_table",
                "euclidean.quotient_euclidean", "parsing.table_from_dict",
                "rings.QuotientRing.init", "models.windowed_bottom_integers",
                "models.check_localization_euclidean", "models.product_bounds",
                "models.realize_ordinal"} <= names
    else:
        assert tracer.counts["rings.add"] > 0
