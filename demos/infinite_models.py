"""Windowed evidence about the classical infinite Euclidean domains.

The integers and GF(q)[t] are explored by one pass of the level fixed
point over the report range: the value of b reads only values below b,
so every larger window gives the same report, and the certificate names
two windows of a fixed schedule.  The semilocal localizations of
the integers get a division check on a box of fractions, and small ring
descriptions realize every ordinal below omega squared as an order type.
"""

from fractions import Fraction

from euctype import (
    check_localization_euclidean,
    check_not_l_euclidean_integers,
    localization_function,
    order_type_of_spec,
    parse_ordinal,
    realize_ordinal,
    windowed_bottom_integers,
    windowed_bottom_polynomials,
)

m = windowed_bottom_integers(report_bound=64)
cert = m.certificate
print(f"integers, stabilized on windows {cert.window_a} and {cert.window_b}:")
for n in (1, 2, 3, 7, 8, 63, 64):
    print(f"  value({n}) = {m.values[n]}   (binary digits: {m.values[n] + 1})")

mp = windowed_bottom_polynomials(2, report_degree=6)
print("\nGF(2)[t]: the value of a nonzero polynomial is its degree:")
degrees = sorted({len(p) - 1 for p in mp.values})
print(f"  degrees covered: {degrees}")

print("\nlocalization of Z away from {2, 3}: the exponent sum of 2 and 3")
for x in (Fraction(12, 5), Fraction(7, 5), Fraction(8)):
    print(f"  value({x}) = {localization_function([2, 3], x)}")
check = check_localization_euclidean([2, 3])
print(f"  division check on every key of the box: ok={check.ok}")

w = check_not_l_euclidean_integers()
print(f"\nbut the ideal-chain length is not Euclidean on Z: {w.description}")

print("\nevery ordinal below w^2 is the order type of a small ring spec:")
for src in ("5", "w", "w*2 + 3"):
    a = parse_ordinal(src)
    spec = realize_ordinal(a)
    assert order_type_of_spec(spec) == a
    print(f"  {src:>8} -> {spec}")
