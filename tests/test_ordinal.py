import functools

import pytest
from hypothesis import given, strategies as st

from euctype.errors import DomainError, ResourceError
from euctype.ordinal import (
    Ordinal,
    format_ordinal,
    left_subtract,
    natural_sum,
    omega,
    omega_power,
    product_left,
)
from euctype.parsing import _parse_expression, parse_ordinal


def cnf(*terms):
    return Ordinal.from_terms(tuple((Ordinal(e), c) for e, c in terms))


def _from_pairs(ts):
    merged = {}
    for e, c in ts:
        merged[e] = merged.get(e, 0) + c
    return cnf(*sorted(merged.items(), reverse=True))


# random CNF ordinals below w^w; nonzero variants for the bound chains
ordinals = st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 9)), max_size=4
).map(_from_pairs)
nonzero_ordinals = ordinals.filter(lambda a: not a.is_zero)


class TestConstruction:
    def test_zero(self):
        assert Ordinal(0).is_zero
        assert Ordinal(0) == Ordinal(0)
        assert Ordinal(0).terms == ()

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            Ordinal(-1)

    def test_bad_cnf_rejected(self):
        with pytest.raises(DomainError):
            Ordinal.from_terms(((Ordinal(1), 0),))
        with pytest.raises(DomainError):
            Ordinal.from_terms(((Ordinal(1), 1), (Ordinal(2), 1)))

    def test_finite_round_trip(self):
        for n in range(50):
            assert Ordinal(n).to_int() == n

    def test_to_int_infinite(self):
        with pytest.raises(DomainError):
            omega.to_int()

    def test_limits_and_successors(self):
        assert not Ordinal(0).is_limit()
        assert not Ordinal(3).is_limit()
        assert omega.is_limit()
        assert (omega * 2).is_limit()
        assert not (omega + 1).is_limit()
        assert omega.successor() == omega + 1


class TestComparison:
    def test_total_order_samples(self):
        chain = [Ordinal(0), Ordinal(5), omega, omega + 3, omega * 2,
                 omega_power(2), omega_power(2, 3) + omega + 1, omega_power(3)]
        for i, a in enumerate(chain):
            for j, b in enumerate(chain):
                assert (a < b) == (i < j)
                assert (a == b) == (i == j)

    def test_int_interop(self):
        assert Ordinal(3) == 3
        assert Ordinal(3) < 4
        assert omega > 10 ** 9

    def test_other_types_are_not_ordinals(self):
        assert Ordinal(3).__eq__("3") is NotImplemented
        assert (Ordinal(3) == "3") is False
        with pytest.raises(TypeError):
            Ordinal(3) < "3"

    def test_repr_names_the_normal_form(self):
        assert repr(omega) == "Ordinal[w]"

    @given(ordinals, ordinals)
    def test_trichotomy(self, a, b):
        assert (a < b) + (a == b) + (b < a) == 1

    @given(ordinals)
    def test_hash_consistency(self, a):
        assert hash(a) == hash(Ordinal.from_terms(a.terms))


class TestAddition:
    def test_absorption(self):
        assert Ordinal(1) + omega == omega
        assert Ordinal(7) + omega_power(2) == omega_power(2)
        assert omega + omega_power(2) == omega_power(2)

    def test_non_commutative(self):
        assert omega + 1 != Ordinal(1) + omega

    def test_merge(self):
        assert omega + omega == omega * 2
        assert (omega * 2 + 3) + (omega + 1) == omega * 3 + 1

    @given(ordinals, ordinals, ordinals)
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(ordinals, ordinals)
    def test_right_monotone(self, a, b):
        assert a <= a + b
        if not b.is_zero:
            assert a < a + b


class TestMultiplication:
    def test_convention(self):
        # a * b is b copies of a
        assert omega * 2 == omega + omega
        assert Ordinal(2) * omega == omega
        assert product_left(2, omega) == omega + omega
        assert product_left(omega, 2) == omega

    def test_zero_and_one(self):
        assert omega * 0 == Ordinal(0)
        assert Ordinal(0) * omega == Ordinal(0)
        assert omega * 1 == omega
        assert Ordinal(1) * omega == omega

    def test_limit_multiplier(self):
        assert (omega + 1) * omega == omega_power(2)
        assert (omega + 1) * 2 == omega * 2 + 1

    @given(ordinals, ordinals, ordinals)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(ordinals, ordinals, ordinals)
    def test_left_distributive_over_sum(self, a, b, c):
        # a(b + c) = ab + ac in the standard reading
        assert a * (b + c) == a * b + a * c

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_finite_agreement(self, m, n):
        assert Ordinal(m) * Ordinal(n) == Ordinal(m * n)


class TestNaturalSum:
    def test_examples(self):
        assert natural_sum(omega + 1, omega) == omega * 2 + 1
        assert natural_sum(Ordinal(1), omega) == omega + 1
        assert natural_sum(omega_power(2) + 3, omega * 2) == omega_power(2) + omega * 2 + 3

    @given(ordinals, ordinals)
    def test_commutative(self, a, b):
        assert natural_sum(a, b) == natural_sum(b, a)

    @given(ordinals, ordinals, ordinals)
    def test_associative(self, a, b, c):
        assert natural_sum(natural_sum(a, b), c) == natural_sum(a, natural_sum(b, c))

    @given(ordinals, ordinals, ordinals)
    def test_cancellative(self, a, b, c):
        if natural_sum(a, c) == natural_sum(b, c):
            assert a == b

    @given(ordinals, ordinals)
    def test_dominates_both_orders(self, a, b):
        ns = natural_sum(a, b)
        assert a + b <= ns and b + a <= ns

    @given(nonzero_ordinals, nonzero_ordinals)
    def test_bounded_by_products(self, a, b):
        # max(a+b, b+a) <= a(+)b <= ab + ba, for a, b both nonzero
        assert natural_sum(a, b) <= a * b + b * a

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_finite_agreement(self, m, n):
        assert natural_sum(Ordinal(m), Ordinal(n)) == Ordinal(m + n)


class TestLeftSubtraction:
    def test_examples(self):
        assert left_subtract(Ordinal(1), omega) == omega
        assert left_subtract(omega, omega * 2 + 3) == omega + 3
        assert left_subtract(omega + 1, omega + 5) == Ordinal(4)
        assert left_subtract(omega, omega) == Ordinal(0)

    def test_undefined(self):
        with pytest.raises(DomainError):
            left_subtract(omega, Ordinal(5))

    @given(ordinals, ordinals)
    def test_round_trip(self, a, b):
        if a <= b:
            assert a + left_subtract(a, b) == b

    @given(ordinals, ordinals)
    def test_recovers_addend(self, a, g):
        # subtraction result can absorb low terms of g, but re-adding agrees
        assert a + left_subtract(a, a + g) == a + g


class TestFormatting:
    def test_examples(self):
        assert format_ordinal(Ordinal(0)) == "0"
        assert format_ordinal(Ordinal(7)) == "7"
        assert format_ordinal(omega) == "w"
        assert format_ordinal(omega * 2 + 1) == "w*2 + 1"
        assert format_ordinal(omega_power(2, 3) + omega + 5) == "w^2*3 + w + 5"
        assert format_ordinal(omega_power(omega)) == "w^w"
        assert format_ordinal(omega_power(omega + 1)) == "w^(w + 1)"

    @given(ordinals)
    def test_str_matches(self, a):
        assert str(a) == format_ordinal(a)


def _as_ordinal(x):
    """An int exponent (or operand) read as the finite Ordinal it names, so
    the oracles below compare and key every exponent as an Ordinal."""
    return Ordinal(x) if isinstance(x, int) else x


def _loop_lt(a, b):
    """The former hand-written comparison of Ordinal, kept as the oracle for
    the tuple order of the normal forms."""
    a, b = _as_ordinal(a), _as_ordinal(b)
    for (e1, c1), (e2, c2) in zip(a.terms, b.terms):
        if e1 != e2:
            return _loop_lt(e1, e2)
        if c1 != c2:
            return c1 < c2
    return len(a.terms) < len(b.terms)


_loop_key = functools.cmp_to_key(lambda x, y: _loop_lt(y, x) - _loop_lt(x, y))


def _from_exponent_pairs(ts):
    merged = {}
    for e, c in ts:
        e = _as_ordinal(e)
        merged[e] = merged.get(e, 0) + c
    return Ordinal.from_terms(sorted(merged.items(), key=lambda t: _loop_key(t[0]), reverse=True))


# CNF ordinals whose exponents are themselves ordinals up to w^w
exponents = st.one_of(ordinals, st.just(omega_power(omega)))
deep_ordinals = st.lists(
    st.tuples(exponents, st.integers(1, 9)), max_size=4
).map(_from_exponent_pairs)


class TestTupleOrder:
    @given(deep_ordinals, deep_ordinals)
    def test_matches_the_former_loop(self, a, b):
        assert (a < b) == _loop_lt(a, b)
        assert (a <= b) == (_loop_lt(a, b) or not _loop_lt(b, a))
        assert (a > b) == _loop_lt(b, a)
        assert (a == b) == (not _loop_lt(a, b) and not _loop_lt(b, a))
        if a == b:
            assert hash(a) == hash(b)
        else:
            assert a.terms != b.terms

    @given(deep_ordinals, st.integers(0, 50))
    def test_ints_on_either_side(self, a, n):
        assert (a < n) == _loop_lt(a, Ordinal(n))
        assert (n < a) == _loop_lt(Ordinal(n), a)
        assert (a <= n) == (n >= a) == (not _loop_lt(Ordinal(n), a))
        assert (a == n) == (n == a) == (a.terms == Ordinal(n).terms)
        if a == n:
            assert hash(a) == hash(Ordinal(n))

    @given(st.lists(st.one_of(deep_ordinals, st.integers(0, 9)), min_size=1, max_size=8))
    def test_sorted_and_max(self, xs):
        as_ordinals = [Ordinal(x) if isinstance(x, int) else x for x in xs]
        by_loop = sorted(as_ordinals, key=_loop_key)
        assert sorted(as_ordinals) == by_loop
        assert max(xs) == by_loop[-1]
        assert min(xs) == by_loop[0]


def _dict_natural_sum(a, b):
    """The former natural sum, a dict of coefficients keyed by exponent and a
    sort of its keys, kept as the oracle for the merge."""
    a, b = _as_ordinal(a), _as_ordinal(b)
    coeffs = {}
    for (e, c) in a.terms + b.terms:
        e = _as_ordinal(e)
        coeffs[e] = coeffs.get(e, 0) + c
    return Ordinal.from_terms((e, coeffs[e]) for e in sorted(coeffs, reverse=True))


deep_or_int = st.one_of(deep_ordinals, st.integers(0, 50))


class TestMergedNaturalSum:
    @given(deep_or_int, deep_or_int)
    def test_matches_the_former_dict_and_sort(self, a, b):
        merged, former = natural_sum(a, b), _dict_natural_sum(a, b)
        assert merged.terms == former.terms
        assert format_ordinal(merged) == format_ordinal(former)

    @given(deep_or_int, deep_or_int)
    def test_commutative(self, a, b):
        assert natural_sum(a, b).terms == natural_sum(b, a).terms

    @given(deep_or_int, deep_or_int, deep_or_int)
    def test_associative(self, a, b, c):
        assert natural_sum(natural_sum(a, b), c) == natural_sum(a, natural_sum(b, c))

    @given(deep_ordinals, deep_ordinals)
    def test_unchecked_results_are_normal_forms(self, a, b):
        # the merge, the sum and left subtraction build their terms unchecked
        for x in (natural_sum(a, b), a + b, left_subtract(a, a + b), left_subtract(b, b + a)):
            assert Ordinal.from_terms(x.terms) == x


def _scan_add(a, b):
    """The former ordinary sum, which compared the lead of b with every term
    of a, kept as the oracle for the scan from the last term."""
    a, b = _as_ordinal(a), _as_ordinal(b)
    if not b.terms:
        return a
    if not a.terms:
        return b
    lead = _as_ordinal(b.terms[0][0])
    kept = [t for t in a.terms if lead < _as_ordinal(t[0])]
    if len(kept) < len(a.terms) and _as_ordinal(a.terms[len(kept)][0]) == lead:
        merged = (lead, a.terms[len(kept)][1] + b.terms[0][1])
        return Ordinal.from_terms(tuple(kept) + (merged,) + b.terms[1:])
    return Ordinal.from_terms(tuple(kept) + b.terms)


def _equal_but_not_identical(a):
    """``a`` with every exponent rebuilt as a fresh object (an int one goes
    through a fresh Ordinal and back), so that no tuple comparison can match
    two Ordinal exponents by identity."""
    return Ordinal.from_terms((_equal_but_not_identical(_as_ordinal(e)), c) for e, c in a.terms)


class TestTermTupleComparisons:
    @given(deep_ordinals, deep_or_int)
    def test_sum_matches_the_former_scan(self, a, b):
        assert (a + b).terms == _scan_add(a, b).terms
        if not isinstance(b, int):
            fresh = _equal_but_not_identical(a) + _equal_but_not_identical(b)
            assert fresh.terms == _scan_add(a, b).terms

    @given(deep_ordinals, deep_ordinals)
    def test_left_subtraction_with_fresh_exponents(self, a, g):
        b = _equal_but_not_identical(a + g)
        assert a + left_subtract(a, b) == b
        assert left_subtract(a, b) == left_subtract(a, a + g)
        assert natural_sum(a, g) == natural_sum(_equal_but_not_identical(a), g)

    def test_left_subtraction_refuses_a_larger_left_side(self):
        for a, b in ((omega + 1, omega), (omega_power(2), omega * 5), (Ordinal(3), 2)):
            with pytest.raises(DomainError, match="left subtraction undefined"):
                left_subtract(a, b)

    def test_comparisons_avoided(self, monkeypatch):
        # below w^w every exponent is an int, so the sum, the natural sum and
        # left subtraction compare exponents in C, and a hash is one call
        calls = []
        for name in ("__lt__", "__eq__", "__hash__"):
            real = getattr(Ordinal, name)
            monkeypatch.setattr(Ordinal, name, lambda *xs, real=real: calls.append(1) or real(*xs))
        a = omega_power(5, 2) + omega_power(3) + omega * 4
        b = a + 7
        natural_sum(a, omega_power(4, 2) + omega + 3)
        left_subtract(a, b)
        assert calls == []
        hash(b)
        assert calls == [1]
        assert b.terms[-1] == (Ordinal(0), 7)

    def test_omega_power(self):
        assert omega_power(3, 2) == Ordinal.from_terms(((Ordinal(3), 2),))
        assert omega_power(omega).terms == ((omega, 1),)
        assert omega_power(2, 0) == Ordinal(0)
        with pytest.raises(DomainError, match="CNF coefficients must be positive"):
            omega_power(2, -1)


class TestFormattingBounds:
    def test_numerals_past_the_printing_limit(self):
        import sys
        big = 10 ** sys.get_int_max_str_digits()  # one digit more than str writes
        message = (f"the result holds an integer of more than {sys.get_int_max_str_digits()} "
                   "digits, the limit for printing one")
        for a in (Ordinal(big), omega_power(2, big), omega * big + 1, omega_power(big),
                  omega_power(omega_power(big)), omega_power(3) + big):
            with pytest.raises(ResourceError) as info:
                format_ordinal(a)
            assert str(info.value) == message


class TestIntEquality:
    def test_a_finite_ordinal_hashes_as_its_int(self):
        for n in (0, 1, 3, 2 ** 70):
            assert Ordinal(n) == n and n == Ordinal(n)
            assert hash(Ordinal(n)) == hash(n)
        assert {Ordinal(3): 1}.get(3) == 1
        assert {3: 1}.get(Ordinal(3)) == 1
        assert {0: "zero"}[Ordinal(0)] == "zero"
        assert len({Ordinal(5), 5, parse_ordinal("5"), parse_ordinal("(5)")}) == 1

    def test_an_infinite_ordinal_equals_no_int(self):
        assert omega != 1 and omega_power(omega) != 1
        assert Ordinal(0) != -1 and Ordinal(3) != -3

    def test_every_ordinal_lies_above_a_negative_int(self):
        for a in (Ordinal(0), Ordinal(2), omega, omega_power(omega)):
            for n in (-1, -7, -2 ** 70):
                assert a > n and a >= n and not a < n and not a <= n
                assert n < a and n <= a and not n > a and not n >= a
        assert sorted([Ordinal(2), -1, omega, 0]) == [-1, 0, Ordinal(2), omega]

    def test_a_bool_is_not_an_ordinal(self):
        assert Ordinal(1).__eq__(True) is NotImplemented
        for refused in (lambda: Ordinal(1) < True, lambda: omega + True,
                        lambda: natural_sum(omega, False), lambda: product_left(True, omega)):
            with pytest.raises(DomainError, match="an ordinal must be an int, not bool"):
                refused()


class TestRefusedTypes:
    @pytest.mark.parametrize("value", [True, False, 2.5, 3.0, "3", None, omega])
    def test_a_value_that_is_not_an_int(self, value):
        with pytest.raises(DomainError, match="an ordinal must be an int"):
            Ordinal(value)

    @pytest.mark.parametrize("coefficient", [True, False, 1.5, 2.0, "2", None])
    def test_a_coefficient_that_is_not_an_int(self, coefficient):
        with pytest.raises(DomainError, match="a CNF coefficient must be an int"):
            Ordinal.from_terms(((Ordinal(1), coefficient),))
        with pytest.raises(DomainError, match="a CNF coefficient must be an int"):
            omega_power(2, coefficient)

    @pytest.mark.parametrize("exponent", [True, False, 1.5, 2.0, "w", None, (1, 1)])
    def test_an_exponent_that_is_neither_an_int_nor_an_ordinal(self, exponent):
        with pytest.raises(DomainError, match="a CNF exponent must be an int"):
            Ordinal.from_terms(((exponent, 1),))
        with pytest.raises(DomainError, match="a CNF exponent must be an int"):
            omega_power(exponent)

    def test_a_negative_exponent(self):
        with pytest.raises(DomainError, match="CNF exponents are non-negative"):
            Ordinal.from_terms(((-1, 1),))
        with pytest.raises(DomainError, match="CNF exponents are non-negative"):
            omega_power(-2, 3)

    def test_ints_and_finite_ordinals_are_the_same_exponent(self):
        for a, terms in ((Ordinal.from_terms(((3, 2), (Ordinal(1), 1), (0, 4))),
                          ((3, 2), (1, 1), (0, 4))),
                         (omega_power(Ordinal(2), 5), ((2, 5),)), (omega_power(2, 5), ((2, 5),)),
                         (omega_power(Ordinal(0)), ((0, 1),)), (omega_power(0), ((0, 1),))):
            _check_normal(a)
            assert a.terms == terms
        with pytest.raises(DomainError, match="strictly decreasing"):
            Ordinal.from_terms(((2, 1), (Ordinal(2), 1)))


def _check_normal(a):
    """Every exponent of ``a``, at every depth, is an int exactly when it is
    finite (by the loop oracle), and every coefficient a positive int."""
    assert a.__class__ is Ordinal
    for e, c in a.terms:
        assert c.__class__ is int and c >= 1
        if e.__class__ is int:
            assert e >= 0
        else:
            assert not _loop_lt(e, omega)
            _check_normal(e)


def _check_same(a, b):
    """Equal ordinals have equal terms and equal hashes."""
    assert a == b and a.terms == b.terms and hash(a) == hash(b)


class TestNormalForm:
    @pytest.mark.parametrize("text, terms", [
        ("w^(w^0)*2", ((1, 2),)), ("w^(3) + w^(1 + 1)", ((3, 1), (2, 1))),
        ("w^(2 . w)", ((omega * 2, 1),)), ("w^0*4 # w", ((1, 1), (0, 4))),
        ("w^7*3 + 2", ((7, 3), (0, 2))), ("w^(w + 0)", ((omega, 1),)), ("(w^0)", ((0, 1),))])
    def test_exponents_written_through_the_descent(self, text, terms):
        a = parse_ordinal(text)
        _check_normal(a)
        assert a.terms == terms

    @given(deep_or_int, deep_or_int)
    def test_results_keep_finite_exponents_as_ints(self, a, b):
        x = _as_ordinal(a)
        results = [x + b, natural_sum(a, b), x * b, product_left(a, b)]
        if x <= b:
            results.append(left_subtract(a, b))
        for r in results:
            _check_normal(r)
            text = format_ordinal(r)
            for read in (parse_ordinal(text), _parse_expression(text)):
                _check_normal(read)
                _check_same(read, r)
            rebuilt = Ordinal.from_terms((_as_ordinal(e), c) for e, c in r.terms)
            _check_normal(rebuilt)
            _check_same(rebuilt, r)
            _check_same(_equal_but_not_identical(r), r)
            if r.is_finite:
                assert r == r.to_int() and hash(r) == hash(r.to_int())
            power = omega_power(r, 2)
            _check_normal(power)
            _check_same(power, omega_power(_equal_but_not_identical(r), 2))
