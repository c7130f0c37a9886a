"""Tests of the benchmark's reference computations, made without euctype.

Run from the root of a checkout:  python3 -m pytest bench/test_oracles.py
"""

import itertools
import math
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402

SMALL_PRINCIPAL = [["Z", n] for n in range(2, 41)] + [
    ["P", 2, 3], ["P", 3, 2], ["P", 2, 4], ["P", 5, 2],
    [["Z", 4], ["Z", 6]], [["Z", 2], ["P", 2, 2]], [["Z", 3], ["Z", 3]], [["P", 3, 2], ["Z", 4]],
]


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _divisors(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("desc", SMALL_PRINCIPAL, ids=str)
def test_closed_form_length_is_the_least_euclidean_function(desc):
    ring = O.build_ring(desc)
    levels, stuck = O.motzkin_levels(ring)
    assert not stuck
    assert levels == {x: O.length(ring, x) for x in ring.elements if x != ring.zero}
    assert max(levels.values()) + 1 == O.order_type(ring)


@pytest.mark.parametrize("n", range(2, 200))
def test_zmod_counts(n):
    ring = O.ZmodR(n)
    omega = sum(k for k in O.int_factor(n).values())
    assert O.order_type(ring) == omega
    assert O.unit_count(ring) == _phi(n)
    assert O.ideal_count(ring) == _divisors(n)


@pytest.mark.parametrize("desc", [["Z", 12], ["Z", 16], ["P", 2, 3], [["Z", 2], ["Z", 3]],
                                  ["P", 3, 2]], ids=str)
def test_counts_match_brute_force(desc):
    ring = O.build_ring(desc)
    assert len(O.units(ring)) == O.unit_count(ring)
    assert len(O.all_ideals_bruteforce(ring)) == O.ideal_count(ring)


def test_product_order_type_is_the_sum():
    for d1, d2 in [(["Z", 8], ["Z", 9]), (["P", 2, 3], ["Z", 25]), (["Z", 12], ["P", 3, 2])]:
        r1, r2 = O.build_ring(d1), O.build_ring(d2)
        assert O.order_type(O.ProductR([r1, r2])) == O.order_type(r1) + O.order_type(r2)


def test_specimen():
    ring = O.SpecimenR()
    assert len(O.all_ideals_bruteforce(ring)) == 6
    assert len(O.units(ring)) == 4
    levels, stuck = O.motzkin_levels(ring)
    assert sorted(ring.text(x) for x in stuck) == ["x", "x+y", "y"]
    assert set(levels.values()) == {0}


@pytest.mark.parametrize("desc", [["Z", 36], ["Z", 40], ["P", 2, 4], ["P", 3, 3],
                                  [["Z", 4], ["Z", 9]], [["Z", 9], ["P", 2, 2]]], ids=str)
def test_quotient_values_are_the_bottom_of_the_quotient(desc):
    ring = O.build_ring(desc)
    for b in ring.elements:
        if b == ring.zero or O.length(ring, b) == 0:
            continue
        values = O.quotient_values(ring, b)
        # every nonzero coset has exactly one representative, valued by the
        # length of the quotient, whose top value is the value of b
        members = {}
        for x in ring.elements:
            members.setdefault(ring.coset_rep(x, b), []).append(x)
        assert len(values) == len(members) - 1
        assert max(values.values(), default=-1) + 1 == O.length(ring, b)
        ideal = _ideal(ring, b)
        for rep, xs in members.items():
            assert ring.coset_rep(rep, b) == rep
            assert all(ring.sub(x, rep) in ideal for x in xs)


def _ideal(ring, b):
    return {ring.mul(q, b) for q in ring.elements}


def test_division_witnesses():
    ring = O.build_ring([["Z", 8], ["Z", 9]])
    values = {x: O.length(ring, x) for x in ring.elements}
    for a, b in itertools.product(ring.elements[::7], ring.elements[1::5]):
        if b != ring.zero:
            assert O.division_witness(ring, values, a, b) is not None
    # giving a non-unit the value 0 breaks the division property at it
    b = (2, 1)
    values[b] = 0
    assert any(O.division_witness(ring, values, a, b) is None for a in ring.elements)


def test_poly_text():
    assert O.poly_text((1, 0, 1)) == "t^2+1"
    assert O.poly_text((0, 3)) == "3*t"
    assert O.poly_text((2, 1, 0)) == "t+2"
    assert O.poly_text((0, 0)) == "0"
    assert O.ChainR(2, 3).name == "GF(2)[t]/(t^3)"
    assert O.ChainR(4, 1).name == "GF(4)[t]/(t)"


def test_ordinal_model_laws():
    rng = random.Random(7)
    for _ in range(500):
        a, b, c = (O.random_ordinal(rng) for _ in range(3))
        assert O.Ord.parse(a.text()) == a
        assert O.o_nsum(a, b) == O.o_nsum(b, a)
        assert O.o_nsum(O.o_nsum(a, b), c) == O.o_nsum(a, O.o_nsum(b, c))
        assert O.o_add(O.o_add(a, b), c) == O.o_add(a, O.o_add(b, c))
        assert O.o_left_sub(a, O.o_add(a, b)) == b
        assert a <= O.o_add(a, b) and b <= O.o_add(a, b)
        assert O.o_add(a, b) <= O.o_nsum(a, b)


def test_ordinal_model_examples():
    w = O.Ord([(1, 1)])
    one = O.Ord.nat(1)
    assert O.o_add(one, w) == w
    assert O.o_add(w, one).text() == "w + 1"
    assert O.o_nsum(one, w).text() == "w + 1"
    assert O.o_add(O.Ord([(2, 1), (0, 4)]), O.Ord([(1, 3)])).text() == "w^2 + w*3"
    assert O.o_left_sub(O.Ord.nat(3), w) == w


def test_job_lists_are_seeded_and_round_sizes_fixed(tmp_path):
    for workload in W.WORKLOADS:
        a = W.generate(workload, 5, str(tmp_path / "a"))
        b = W.generate(workload, 5, str(tmp_path / "a"))
        c = W.generate(workload, 6, str(tmp_path / "c"))
        assert a == b
        assert len(a) == len(c)
        assert a != c
        assert len(a) >= 100


@pytest.fixture(autouse=True)
def _workdirs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "c").mkdir()
