"""Job lists for the three workloads, generated from a seed.

A job is a plain dict, so the list can be written to JSON and handed to a
fresh interpreter.  Kinds:

* ``cli``: one verb called through ``euctype.cli.main(argv)``;
* ``roundtrip``: one verb whose emitted table is written to a file and
  read back with ``euclid-verify``;
* ``lib``: one named library call.

Every job carries a ``check`` entry that ``checks.py`` turns into an
expected answer computed by ``oracles.py``.  The ring ladders are fixed;
the seed picks divisors among associates, relabelings, perturbed
elements, random ordinals and the job order, so that the make-up and the
cost of a round barely move from seed to seed.  Every round has the same
number of jobs whatever the seed.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List

import oracles as O

WORKLOADS = ("ring-tables", "table-verify", "models-ordinals")


def spec(desc) -> str:
    return O.build_ring(desc).name


def Z(n):
    return ["Z", n]


def P(q, k):
    return ["P", q, k]


SPECIMEN = ["S"]


# ---------------------------------------------------------------------------
# ring-tables: the write path


# Z/n from 8 to 2048 on a geometric ladder, one to four prime factors.  The
# ladder is denser from 210 to 300, where the median job lies, so that the
# median does not sit on a jump between job sizes.
TABLE_MODULI = [8, 10, 12, 14, 16, 18, 20, 24, 27, 30, 32, 36, 40, 45, 49, 54,
                60, 64, 72, 81, 90, 100, 105, 121, 128, 144, 150, 169, 180,
                210, 220, 231, 243, 250, 256, 264, 270, 280, 289, 300, 343, 360,
                420, 512, 600, 625, 720, 729, 840, 1000, 1024, 2048]

BOTTOM_PRODUCTS = [
    [Z(2), Z(3), Z(5)],
    [Z(4), Z(9)],
    [Z(8), Z(27)],
    [Z(4), Z(8), Z(9)],
    [Z(9), P(2, 3)],
    [P(3, 2), Z(4)],
    [Z(7), Z(11), Z(3)],
]

# Chain quotients over prime and non-prime fields; PolyQuotient keeps a
# multiplication table up to 128 elements, so 169 = 13^2 is on the slow side.
BOTTOM_CHAINS = [P(2, 3), P(2, 5), P(2, 6), P(3, 3), P(3, 4), P(5, 2), P(5, 3),
                 P(7, 2), P(11, 2), P(13, 2), P(4, 2), P(4, 3), P(8, 2), P(9, 2)]

# (ring, divisor class as a multiple of a seeded unit)
QUOTIENTS = [
    (Z(64), 4), (Z(360), 12), (Z(512), 16), (Z(720), 30), (Z(1000), 20),
    (Z(1024), 8), (Z(243), 9), (Z(600), 10),
    (P(3, 4), 2), (P(2, 6), 3), (P(5, 3), 1), (P(4, 3), 2),
    ([Z(8), Z(27)], (2, 3)), ([Z(9), P(2, 3)], (3, 1)),
]

PRODUCTS = [
    (Z(4), Z(9)), (Z(8), Z(27)), (Z(16), Z(25)), (P(2, 4), Z(9)),
    (Z(9), P(5, 2)), (Z(32), Z(9)), (Z(12), Z(25)), (P(3, 2), P(2, 3)),
    (Z(6), Z(10)),
]

# ring-analyze closes sums of ideals, so only small carriers appear.
ANALYZE = [Z(12), Z(16), Z(24), Z(30), Z(36), Z(48), Z(60), Z(64), [Z(4), Z(9)],
           P(3, 3), P(2, 4), P(4, 2), [Z(2), Z(3), Z(5)], SPECIMEN,
           [SPECIMEN, Z(3)]]

NOT_EUCLIDEAN = [[SPECIMEN, Z(3)]]


def _unit(rng: random.Random, ring) -> object:
    """A seeded unit of the oracle ring (coordinates with nonzero valuation 0)."""
    while True:
        x = rng.choice(ring.elements)
        if all(v == 0 for v in ring.valuations(x)):
            return x


def _divisor(rng: random.Random, desc, cls):
    """An associate of the divisor class: cls times a seeded unit."""
    ring = O.build_ring(desc)
    u = _unit(rng, ring)
    if isinstance(ring, O.ProductR):
        return tuple(_times(f, c, a) for f, c, a in zip(ring.factors, cls, u))
    return _times(ring, cls, u)


def _times(ring, cls, u):
    """cls * u for an integer class in Z/n, or t^cls * u in a chain quotient,
    where multiplying by t^cls shifts u and needs no field arithmetic."""
    if isinstance(ring, O.ZmodR):
        return (cls * u) % ring.n
    return tuple(([0] * cls + list(u))[:ring.k])


def ring_tables(rng: random.Random) -> List[Dict]:
    jobs = []
    bottoms = [Z(n) for n in TABLE_MODULI] + BOTTOM_PRODUCTS + BOTTOM_CHAINS
    for desc in bottoms:
        jobs.append({"kind": "cli", "argv": ["euclid-bottom", spec(desc), "--json"],
                     "check": {"type": "bottom", "ring": desc}})
    for desc in NOT_EUCLIDEAN:
        jobs.append({"kind": "cli", "argv": ["euclid-bottom", spec(desc), "--json"],
                     "check": {"type": "not-euclidean", "ring": desc}, "exit": 3})
    for desc, cls in QUOTIENTS:
        b = _divisor(rng, desc, cls)
        ring = O.build_ring(desc)
        jobs.append({"kind": "cli",
                     "argv": ["euclid-quotient", ring.name, ring.text(b), "--json"],
                     "check": {"type": "quotient", "ring": desc, "b": _jsonable(b)}})
    for d1, d2 in PRODUCTS:
        if rng.random() < 0.5:
            d1, d2 = d2, d1
        jobs.append({"kind": "cli", "argv": ["euclid-product", spec(d1), spec(d2), "--json"],
                     "check": {"type": "product", "rings": [d1, d2]}})
    for desc in ANALYZE:
        jobs.append({"kind": "cli", "argv": ["ring-analyze", spec(desc), "--json"],
                     "check": {"type": "analyze", "ring": desc}})
    rng.shuffle(jobs)
    return jobs


def _jsonable(x):
    if isinstance(x, tuple):
        return [_jsonable(a) for a in x]
    return x


def from_jsonable(x):
    if isinstance(x, list):
        return tuple(from_jsonable(a) for a in x)
    return x


# ---------------------------------------------------------------------------
# table-verify: the read path


VERIFY_RINGS = [Z(n) for n in (12, 18, 30, 48, 64, 81, 100, 128, 150, 210, 243,
                               300, 360, 420, 512, 600, 720)] + [
    [Z(8), Z(27)], [Z(4), Z(5), Z(9)], [Z(9), P(2, 3)], [P(3, 2), Z(16)],
    P(2, 4), P(2, 6), P(3, 4), P(5, 2), P(7, 2), P(13, 2)]

# Strictly increasing relabelings of the natural values; only the order of
# the values enters the division property, so Euclidean tables stay so.
RELABELS = {
    "affine": lambda v: O.Ord.nat(2 * v + 1),
    "shift": lambda v: O.Ord.nat(v + 3),
    "omega-times": lambda v: O.Ord([(1, v)]),
    "omega-plus": lambda v: O.Ord([(1, 1), (0, v)]),
    "omega-times-plus": lambda v: O.Ord([(1, v), (0, v)]),
    "omega-power": lambda v: O.Ord([(v, 1)]),
}
FINITE_RELABELS = ("affine", "shift")
OMEGA_RELABELS = ("omega-times", "omega-plus", "omega-times-plus", "omega-power")

# Emit-then-read-back pairs on tiny rings.  The first two exercise two
# faults that make re-verification exit 5: quotient rings are named
# "<base>/(<b>)", which the ring-spec parser rejects, and a product with a
# product factor is named flat while its elements are nested tuples.
ROUND_TRIPS = [
    (["euclid-quotient", "Z/8", "2", "--json"], "table"),
    (["euclid-product", "Z/2 x Z/3", "Z/4", "--json"], "collapsed_table"),
    (["euclid-bottom", "Z/12", "--json"], "table"),
    (["euclid-product", "Z/4", "Z/9", "--json"], "collapsed_table"),
    (["euclid-bottom", "GF(3)[t]/(t^2) x Z/4", "--json"], "table"),
]


def _table_file(ring, values: Dict, top: "O.Ord") -> Dict:
    return {"ring": ring.name,
            "values": {ring.text(x): v.text() for x, v in values.items()},
            "value_at_zero": top.text(), "validated": False, "bottom": False}


def table_verify(rng: random.Random, workdir: str) -> List[Dict]:
    jobs = []
    for i, desc in enumerate(VERIFY_RINGS):
        ring = O.build_ring(desc)
        nonzero = [x for x in ring.elements if x != ring.zero]
        base = {x: O.length(ring, x) for x in nonzero}
        top = O.order_type(ring)
        variants = [("identity", None), (rng.choice(FINITE_RELABELS), None),
                    (rng.choice(OMEGA_RELABELS), None)]
        non_units = [x for x in nonzero if base[x] > 0]
        variants.append((rng.choice(("identity",) + OMEGA_RELABELS), rng.choice(non_units)))
        for j, (relabel, perturbed) in enumerate(variants):
            f = RELABELS.get(relabel, O.Ord.nat)
            values = {x: f(v) for x, v in base.items()}
            if perturbed is not None:
                values[perturbed] = f(0)
            path = os.path.join(workdir, f"table-{i:02d}-{j}.json")
            with open(path, "w") as fh:
                json.dump(_table_file(ring, values, f(top)), fh)
            jobs.append({"kind": "cli", "argv": ["euclid-verify", path, "--json"],
                         "check": {"type": "verify", "ring": desc,
                                   "perturbed": _jsonable(perturbed)}})
    for k, (argv, key) in enumerate(ROUND_TRIPS):
        path = os.path.join(workdir, f"roundtrip-{k}.json")
        jobs.append({"kind": "roundtrip", "argv": argv, "table_key": key, "path": path,
                     "check": {"type": "roundtrip"}})
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# models-ordinals: no finite carrier


# model-z reporting bounds; the seed moves each one inside the same pair of
# power-of-two windows, so the cost of a job does not depend on the seed.
MODEL_Z_BOUNDS = [(33, 64), (65, 128), (100, 128), (129, 256), (200, 256),
                  (257, 512), (400, 512), (513, 1024), (700, 1024), (900, 1024)]
MODEL_POLY_DEGREES = [2, 4, 6, 8, 9, 10, 11, 12]
# (primes, samples); the seed picks only the sampling seed, since the cost
# of a job depends on the primes.
LOCALIZE = [((2,), 1500), ((3,), 3000), ((2, 3), 1000), ((2, 5), 2500), ((3, 7), 2000),
            ((2, 3, 5), 1200), ((5, 7, 11), 2200), ((2, 3, 5, 7), 1800),
            ((3, 5, 7, 11, 13), 1400), ((2, 13), 2800)]
SYMBOLIC_PIDS = ("Z", "GF(2)[t]", "GF(3)[t]", "GF(4)[t]", "GF(5)[t]")
SYMBOLIC_CONCRETE = [Z(8), Z(12), Z(9), Z(30), P(2, 3), P(3, 2), Z(16), Z(45)]
BROOKFIELD_SIZES = [(4, 6), (5, 9), (6, 12), (8, 8), (8, 14), (10, 12), (10, 16),
                    (12, 12), (12, 18), (14, 16), (16, 16), (18, 20), (20, 20),
                    (6, 30), (22, 24)]
LAW_BATCHES = 15
LAW_BATCH_SIZE = 60


def models_ordinals(rng: random.Random) -> List[Dict]:
    jobs = []
    for lo, hi in MODEL_Z_BOUNDS:
        bound = rng.randint(max(lo, hi - 24), hi)
        jobs.append({"kind": "cli", "argv": ["model-z", "--window", str(bound), "--json"],
                     "check": {"type": "model-z", "bound": bound}})
    for d in MODEL_POLY_DEGREES:
        jobs.append({"kind": "cli", "argv": ["model-poly", "2", "--window", str(d), "--json"],
                     "check": {"type": "model-poly", "degree": d}})
    for primes, samples in LOCALIZE:
        primes = list(primes)
        seed = rng.randrange(10 ** 6)
        jobs.append({"kind": "cli",
                     "argv": ["model-localize", *map(str, primes), "--samples", str(samples),
                              "--seed", str(seed), "--json"],
                     "check": {"type": "localize", "primes": primes, "samples": samples,
                               "seed": seed}})
    # The small verbs below are most of the jobs, so the median job is a
    # typical CLI call and does not sit on a jump between job sizes.
    for _ in range(40):
        tree = O.random_expr(rng)
        jobs.append({"kind": "cli", "argv": ["ordinal-eval", O.expr_text(tree), "--json"],
                     "check": {"type": "ordinal-eval", "expect": O.expr_value(tree).text()}})
    for _ in range(15):
        vals = [O.random_ordinal(rng) for _ in range(rng.randint(2, 5))]
        jobs.append({"kind": "cli", "argv": ["product-bounds", *(v.text() for v in vals), "--json"],
                     "check": {"type": "product-bounds", "values": [v.terms for v in vals]}})
    for _ in range(15):
        r, n = rng.randint(0, 6), rng.randint(0, 9)
        if r == n == 0:
            n = 1
        a = O.Ord([(1, r), (0, n)])
        jobs.append({"kind": "cli", "argv": ["realize", a.text(), "--json"],
                     "check": {"type": "realize", "r": r, "n": n}})
    for _ in range(15):
        parts = [(rng.choice(SYMBOLIC_PIDS), None) for _ in range(rng.randint(1, 3))]
        parts += [(spec(c), c) for c in rng.sample(SYMBOLIC_CONCRETE, rng.randint(0, 2))]
        rng.shuffle(parts)
        jobs.append({"kind": "cli",
                     "argv": ["ring-analyze", " x ".join(t for t, _ in parts), "--json"],
                     "check": {"type": "symbolic",
                               "pids": [t for t, c in parts if c is None],
                               "concrete": [c for _, c in parts if c is not None]}})
    for m, n in BROOKFIELD_SIZES:
        if rng.random() < 0.5:
            m, n = n, m
        jobs.append({"kind": "lib", "call": "brookfield", "args": [m, n],
                     "check": {"type": "brookfield", "m": m, "n": n}})
    for _ in range(LAW_BATCHES):
        triples = [[O.random_ordinal(rng).text() for _ in range(3)]
                   for _ in range(LAW_BATCH_SIZE)]
        jobs.append({"kind": "lib", "call": "ordinal-laws", "args": triples,
                     "check": {"type": "ordinal-laws"}})
    rng.shuffle(jobs)
    return jobs


def generate(workload: str, seed: int, workdir: str) -> List[Dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ring-tables":
        return ring_tables(rng)
    if workload == "table-verify":
        return table_verify(rng, workdir)
    if workload == "models-ordinals":
        return models_ordinals(rng)
    raise ValueError(f"unknown workload {workload!r}")
