"""The pointwise-least Euclidean function on small finite rings.

The bottom table is a table of levels: level 0 is the units, and an
element joins a level once every coset of its ideal meets zero or the
already-valued elements.  On the principal rings below the level of x is
the sum of its local valuations, and is read off directly.  On other
rings the levels are built one at a time; when that process stalls, the
ring admits no Euclidean function at all, and the non-principal specimen
below demonstrates the finding.
"""

from euctype import (
    NotEuclideanRing,
    Zmod,
    bottom_euclidean,
    isotone_minimization,
    order_type,
    parse_ring_spec,
    quotient_euclidean,
    truncated_bivariate_fixture,
)


def print_table(table):
    ring = table.ring
    print(f"  {ring.name}:")
    by_level = {}
    for x, v in table.values.items():
        by_level.setdefault(v.to_int(), []).append(ring.format_element(x))
    for level in sorted(by_level):
        print(f"    level {level}: {', '.join(sorted(by_level[level]))}")
    print(f"    order type e = {order_type(table)}")


print("local rings value u * p^a at exactly a:")
print_table(bottom_euclidean(Zmod(8)))
print_table(bottom_euclidean(Zmod(9)))

print("\na non-local example and one of its quotients:")
t12 = bottom_euclidean(Zmod(12))
print_table(t12)
q = quotient_euclidean(t12, 4)
print(f"  quotient by 4 has value at zero {q.value_at_zero}, "
      f"matching the value of 4 above")

print("\nthe bottom table is already isotone, so minimization fixes it:")
m = isotone_minimization(t12)
print(f"  minimization changed anything: {m.values != t12.values}")

print("\na ring with no Euclidean function at all:")
try:
    bottom_euclidean(truncated_bivariate_fixture())
except NotEuclideanRing as finding:
    print(f"  {finding}")
    print(f"  stuck elements: {', '.join(finding.stuck)}")

print("\nring specs parse from text, e.g. a polynomial quotient:")
print_table(bottom_euclidean(parse_ring_spec("GF(2)[t]/(t^3)")))
