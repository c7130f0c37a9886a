"""Reference oracles over the frozensets of ``principal_ideals()``.

The library reads a ring through its valuation vectors and its coset
labels; these are the carrier-level constructions the vector and label
code is tested against.  ``coset_partition`` splits the carrier into the
cosets of an ideal by addition.  ``_bottom_fixed_point`` is Motzkin's
construction run level by level on those cosets for each principal
ideal: on a principal ring it gives the bottom table, and on any other
ring it stalls and raises the finding.  The other three are the
isotonicity and minimization of a table, on pairs of elements and on
pairs of ideals.
"""

from typing import Dict

from euctype.errors import NotEuclideanRing
from euctype.euclidean import EuclideanTable
from euctype.ordinal import Ordinal
from euctype.rings import FiniteRing


def coset_partition(ring: FiniteRing, ideal: frozenset):
    """The cosets x + I of an ideal I, by adding I to the elements: a map
    from each element to the id of its coset, and the least element of each
    coset, with ids in the carrier order of those least elements."""
    cid: Dict[object, int] = {}
    reps = []
    for x in ring.elements:
        if x not in cid:
            for i in ideal:
                cid[ring.add(x, i)] = len(reps)
            reps.append(x)
    return cid, reps


def _bottom_fixed_point(ring: FiniteRing) -> EuclideanTable:
    """Least Euclidean table by the level-at-a-time fixed point.

    An element b enters the current level when every coset of (b) already
    meets {0} plus the previously assigned elements.  The value of b only
    depends on the ideal (b), so the rounds operate on ideal classes.
    Raises :class:`NotEuclideanRing` when the fixed point stalls.
    """
    zero = ring.zero
    pids = ring.principal_ideals()
    classes: Dict[frozenset, list] = {}
    for x in ring.elements:
        if x != zero:
            classes.setdefault(pids[x], []).append(x)

    partitions = {ideal: coset_partition(ring, ideal) for ideal in classes}
    unsat = {ideal: set(range(len(reps))) - {cid[zero]}
             for ideal, (cid, reps) in partitions.items()}

    assigned: Dict[object, int] = {}
    remaining = set(classes)
    level = 0
    while remaining:
        ready = [ideal for ideal in remaining if not unsat[ideal]]
        if not ready:
            stuck = sorted((x for i in remaining for x in classes[i]), key=ring.index)
            raise NotEuclideanRing(ring, stuck, assigned)
        newly = []
        for ideal in ready:
            for x in classes[ideal]:
                assigned[x] = level
                newly.append(x)
            remaining.discard(ideal)
        for ideal in remaining:
            cid = partitions[ideal][0]
            live = unsat[ideal]
            for x in newly:
                live.discard(cid[x])
        level += 1

    shared = [Ordinal(v) for v in range(level)]  # one value object per level
    values = {x: shared[v] for x, v in assigned.items()}
    return EuclideanTable(ring, values, Ordinal(level), validated=True, is_bottom=True)


def _monotone_oracle(table, strict):
    """The double loop over every pair of carrier elements: x dividing y."""
    ring = table.ring
    for x, vx in table.values.items():
        for y, vy in table.values.items():
            if y == x or not ring.divides(x, y):
                continue
            if strict:
                if ring.divides(y, x):
                    if vx != vy:
                        return False
                elif not vx < vy:
                    return False
            elif not vx <= vy:
                return False
    return True


def _minimization_oracle(table):
    """Each x sent to the least value on the nonzero multiples of x."""
    ring = table.ring
    return {x: min(table.values[y] for y in ring.principal_ideal(x) if y != ring.zero)
            for x in table.values}


def _class_pair_oracle(table, strict):
    """The loop over every pair of principal ideals, as frozensets:
    associates share a value, and a proper inclusion (y) < (x) needs
    value(x) < value(y), or <= in weak mode."""
    pids = table.ring.principal_ideals()
    value = {}
    for x, v in table.values.items():
        if value.setdefault(pids[x], v) != v:
            return False
    for big, vb in value.items():
        for small, vs in value.items():
            if small < big and not (vb < vs if strict else vb <= vs):
                return False
    return True
