import importlib
import pathlib
import random
import sys

import pytest
from hypothesis import given, strategies as st

from euctype import parsing

from euctype.errors import DomainError, NotEuclideanRing, ParseError, ResourceError
from euctype.euclidean import (
    EuclideanTable,
    bottom_euclidean,
    division_counterexample,
    is_euclidean_function,
    make_table,
    order_type,
    table_to_dict,
)
from euctype.models import RingSpec
from euctype.ordinal import (Ordinal, format_ordinal, left_subtract, natural_sum, omega,
                             omega_power, product_left)
from euctype.parsing import (
    MAX_POLY_DEGREE,
    _parse_expression,
    parse_element,
    parse_ordinal,
    parse_poset,
    parse_ring_spec,
    table_from_dict,
)
from euctype.rings import (
    GaloisField,
    PolyQuotient,
    ProductRing,
    QuotientRing,
    Zmod,
    truncated_bivariate_fixture,
)


class TestOrdinalParsing:
    def test_basics(self):
        assert parse_ordinal("0") == Ordinal(0)
        assert parse_ordinal("42") == Ordinal(42)
        assert parse_ordinal("w") == omega
        assert parse_ordinal("w^2*3 + w*1 + 5") == omega_power(2, 3) + omega + 5
        assert parse_ordinal("w^2*3 + 5") == omega_power(2, 3) + 5

    def test_unicode_omega(self):
        assert parse_ordinal("ω^2 + ω") == omega_power(2) + omega

    def test_canonicalization(self):
        assert parse_ordinal("1 + w") == omega
        assert parse_ordinal("w + w") == omega * 2
        assert parse_ordinal("w + 3 + w") == omega * 2

    def test_natural_sum(self):
        assert parse_ordinal("(w+1) # w") == omega * 2 + 1
        assert parse_ordinal("1 # w") == omega + 1

    def test_product_convention(self):
        assert parse_ordinal("2 . w") == omega * 2
        assert parse_ordinal("w . 2") == Ordinal(2) * omega
        assert parse_ordinal("w . 2") == omega
        assert parse_ordinal("w . w") == omega_power(2)

    def test_left_subtraction(self):
        assert parse_ordinal("(-w) + (w*2+3)") == omega + 3
        assert parse_ordinal("(-1) + w") == omega
        with pytest.raises(DomainError):
            parse_ordinal("(-w) + 3")

    def test_nested_exponents(self):
        assert parse_ordinal("w^w") == omega_power(omega)
        assert parse_ordinal("w^(w+1)") == omega_power(omega + 1)
        assert parse_ordinal("w^w^2") == omega_power(omega_power(2))

    def test_syntax_errors_with_position(self):
        for bad in ("", "   ", "w^", "w +", "+ w", "3..4", "w^2 w", "((w)", "*3"):
            with pytest.raises(ParseError):
                parse_ordinal(bad)
        try:
            parse_ordinal("w^2 q")
        except ParseError as exc:
            assert exc.position == 4
            assert exc.exit_code == 5

    # (input, message, position) as the character-at-a-time scanner gave them
    MALFORMED = [
        ("w + ", "unexpected end of input (at position 4)", 4),
        ("w^", "expected an exponent (at position 2)", 2),
        ("((w)", "expected ')' (at position 4)", 4),
        ("w*", "expected a number (at position 2)", 2),
        ("2 3", "unexpected '3' (at position 2)", 2),
        ("w^(", "unexpected end of input (at position 3)", 3),
        ("", "empty ordinal expression", None),
        (" \t\n", "empty ordinal expression", None),
        ("w +\t", "unexpected end of input (at position 4)", 4),
        ("w\n+\n", "unexpected end of input (at position 4)", 4),
        ("\tw ^ ", "expected an exponent (at position 5)", 5),
        ("w\xa0+\xa0x", "unexpected 'x' (at position 4)", 4),
        ("w\u2003+ 1 +", "unexpected end of input (at position 7)", 7),
        ("ω^ω + ", "unexpected end of input (at position 6)", 6),
        ("ω*ω", "expected a number (at position 2)", 2),
        ("(-w) + ", "unexpected end of input (at position 7)", 7),
        ("(-w + 1", "expected ')' (at position 7)", 7),
        ("(- 3) 1", "expected '+' (at position 6)", 6),
        ("w # # 1", "unexpected '#' (at position 4)", 4),
        ("w . . 2", "unexpected '.' (at position 4)", 4),
        ("w ** 2", "expected a number (at position 3)", 3),
        ("w^w^", "expected an exponent (at position 4)", 4),
        ("3)", "unexpected ')' (at position 1)", 1),
        (")", "unexpected ')' (at position 0)", 0),
        ("w^-1", "expected an exponent (at position 2)", 2),
        ("x", "unexpected 'x' (at position 0)", 0),
        ("w^\u00b2", "expected a number (at position 2)", 2),  # isdigit, not a decimal
        ("1 + \u00b2", "expected a number (at position 4)", 4),
        ("1 2\t3", "unexpected '2' (at position 2)", 2),
        ("w^2*3 + w + 5 w", "unexpected 'w' (at position 14)", 14),
        ("w)", "unexpected ')' (at position 1)", 1),
    ]

    @pytest.mark.parametrize("src, message, position", MALFORMED)
    def test_error_messages_and_positions(self, src, message, position):
        with pytest.raises(ParseError) as info:
            parse_ordinal(src)
        assert str(info.value) == message
        assert info.value.position == position

    def test_depth_32_parses_and_33_is_refused(self):
        assert parse_ordinal("(" * 32 + "1" + ")" * 32) == Ordinal(1)
        assert parse_ordinal("w^(" * 32 + "1" + ")" * 32) == parse_ordinal("w^" * 32 + "1")
        for src, message in [("(" * 33 + "1" + ")" * 33, "parenthesis nesting deeper than 32"),
                             ("w^(" * 33 + "1" + ")" * 33, "exponent nesting deeper than 32"),
                             ("w^" * 33 + "1", "exponent nesting deeper than 32")]:
            with pytest.raises(ResourceError) as info:
                parse_ordinal(src)
            assert str(info.value) == message

    def test_depth_limit(self):
        deep = "w^" * 40 + "2"
        with pytest.raises(ResourceError):
            parse_ordinal(deep)

    def test_zero_coefficient(self):
        assert parse_ordinal("w*0") == Ordinal(0)
        assert parse_ordinal("w*0 + 3") == Ordinal(3)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 9)), max_size=4))
    def test_print_parse_round_trip(self, pairs):
        merged = {}
        for e, c in pairs:
            merged[e] = merged.get(e, 0) + c
        a = Ordinal.from_terms(
            tuple((Ordinal(e), c) for e, c in sorted(merged.items(), reverse=True))
        )
        assert parse_ordinal(format_ordinal(a)) == a


def _outcome(read, src):
    """The value ``read`` gives for ``src``, or the type, text and position of
    the error it raises."""
    try:
        return read(src).terms
    except (ParseError, ResourceError, DomainError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# CNF ordinals below w^w, with coefficients and exponents past a machine word
cnf_below_w_w = st.dictionaries(st.one_of(st.integers(0, 6), st.integers(0, 10 ** 30)),
                                st.one_of(st.integers(1, 9), st.integers(1, 10 ** 40)),
                                max_size=5).map(
    lambda terms: Ordinal.from_terms((Ordinal(e), c) for e, c in sorted(terms.items(),
                                                                       reverse=True)))


class TestCanonicalReader:
    """The one-pass reader of canonical text against the recursive descent,
    which stays reachable as ``_parse_expression``."""

    @given(cnf_below_w_w)
    def test_canonical_text_reads_as_the_descent_reads_it(self, a):
        text = format_ordinal(a)
        assert parse_ordinal(text).terms == _parse_expression(text).terms == a.terms

    @given(st.lists(st.sampled_from(["w", "w^2", "w^3*4", "w*5", "7", "0", "w^0*3", "w*0",
                                     "w^1", "w*1", "007", "w^01", "ω", "w^w", "(w)", "1"]),
                    min_size=1, max_size=4),
           st.sampled_from([" + ", "+", " +", "  + ", " # ", "\t+ "]),
           st.sampled_from(["", "\n", " ", "\t"]))
    def test_any_join_of_terms_reads_as_the_descent_reads_it(self, terms, joint, tail):
        src = joint.join(terms) + tail
        assert _outcome(parse_ordinal, src) == _outcome(_parse_expression, src)

    FALLBACKS = ["w + w^2", "w + w", "w^0*3", "w*0 + 1", "3 + w", "0", "007", "w^01",
                 "w^\u0662", "\u0663", "w*\uff13", "ω", "ω^2 + 1", "w\n", "w^2 + 1\n",
                 "w\t+ 1", "w +\t1", "w+1", "w^2*3 + w + 5 ", " w", "w^3 + w^3", "w*2 + 0",
                 "1 + 2", "w^2 + w^3*4 + 1", "", " ", "w +", "+ w", "w^", "w*"]

    @pytest.mark.parametrize("src", FALLBACKS)
    def test_other_text_falls_back_unchanged(self, src):
        assert _outcome(parse_ordinal, src) == _outcome(_parse_expression, src)

    def test_numerals_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        long = "1" * (limit + 1)
        message = f"a numeral of {limit + 1} digits is longer than the limit of {limit} digits"
        for src in (long, f"w + {long}", f"w^{long}", f"w*{long}", f"w^{long}*2 + 1",
                    f"w^2*{long} + w^{long}", f"w + w^2*{long}", f"w^3 + w^5*{long}"):
            assert _outcome(parse_ordinal, src) == (ResourceError, message, None)
            assert _outcome(_parse_expression, src) == (ResourceError, message, None)
        assert parse_ordinal("9" * limit).terms == ((Ordinal(0), int("9" * limit)),)

    def test_canonical_text_takes_no_descent(self, monkeypatch):
        def refuse(src):
            raise AssertionError(f"descent on {src!r}")

        monkeypatch.setattr(parsing, "_parse_expression", refuse)
        for text in ("1", "w", "w*2", "w^2", "w^12*3 + w^4 + w*9 + 17", "w^3*5 + 1"):
            parse_ordinal(text)
        with pytest.raises(AssertionError):
            parse_ordinal("w + w^2")


class TestRingSpecParsing:
    def test_concrete(self):
        r = parse_ring_spec("Z/12")
        assert isinstance(r, Zmod) and r.n == 12
        r = parse_ring_spec("GF(4)[t]/(t^2+t+1)")
        assert isinstance(r, PolyQuotient) and len(r) == 16
        r = parse_ring_spec("Z/4 x GF(2)[t]/(t^2)")
        assert isinstance(r, ProductRing) and len(r) == 16

    def test_fixture_name(self):
        r = parse_ring_spec("GF(2)[x,y]/(x,y)^2")
        assert len(r) == 8 and not r.is_principal()

    def test_symbolic(self):
        s = parse_ring_spec("GF(2)[t] x Z/8")
        assert s == RingSpec(("GF(2)[t]",), (3,))
        s = parse_ring_spec("Z")
        assert s == RingSpec(("Z",), ())
        s = parse_ring_spec("Z x Z/12")
        # the Artinian part splits into its local lengths
        assert s == RingSpec(("Z",), (2, 1))

    def test_name_round_trip(self):
        for text in ("Z/12", "GF(2)[t]/(t^2+t+1)", "Z/4 x GF(2)[t]/(t^2)"):
            ring = parse_ring_spec(text)
            assert parse_ring_spec(ring.name).name == ring.name

    def test_quotient_names(self):
        # the suffix binds to the whole concrete spec before it
        for text, size in (("Z/8/(2)", 2), ("Z/8 x Z/27/((2, 3))", 6),
                           ("GF(2)[t]/(t^3)/(t)", 2), ("Z/8/(4)/(2)", 2)):
            ring = parse_ring_spec(text)
            assert isinstance(ring, QuotientRing)
            assert ring.name == text and len(ring) == size
        # a polynomial modulus is no quotient suffix: GF(2)[t] is symbolic
        assert isinstance(parse_ring_spec("GF(2)[t]/(t^3)"), PolyQuotient)
        assert parse_ring_spec("GF(2)[t] x Z/8/(4)") == RingSpec(("GF(2)[t]",), (2,))

    def test_nested_product_names(self):
        inner = ProductRing([Zmod(2), Zmod(3)])
        for ring in (ProductRing([inner, Zmod(4)]), ProductRing([Zmod(4), inner]),
                     ProductRing([Zmod(3), Zmod(8).quotient_ring(2)]),
                     ProductRing([Zmod(8).quotient_ring(2), Zmod(3)])):
            back = parse_ring_spec(ring.name)
            assert back.name == ring.name
            assert back.elements == ring.elements
        assert ProductRing([inner, Zmod(4)]).name == "(Z/2 x Z/3) x Z/4"
        assert ProductRing([Zmod(2), Zmod(3), Zmod(4)]).name == "Z/2 x Z/3 x Z/4"

    def test_a_spec_is_split_once(self, monkeypatch):
        # a factor split off a product is not split again; a product in
        # parentheses is split once more, inside them
        calls = []
        split = parsing.split_top_level
        monkeypatch.setattr(parsing, "split_top_level",
                            lambda src, sep: calls.append(src) or split(src, sep))
        for spec, splits in (("GF(2)[t] x Z/9 x Z/5", 1), ("Z x Z/4", 1), ("Z/12", 1),
                             ("(Z/2 x Z/3) x Z/4", 2), ("Z/4 x (Z/2 x (Z x Z/3))", 3)):
            calls.clear()
            parse_ring_spec(spec)
            assert len(calls) == splits, (spec, calls)

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_ring_spec("")
        with pytest.raises(ParseError):
            parse_ring_spec("Q/12")
        with pytest.raises(DomainError):
            parse_ring_spec("Z/1")
        with pytest.raises(DomainError):
            parse_ring_spec("GF(6)[t]/(t^2)")
        with pytest.raises(DomainError):
            parse_ring_spec("GF(2)[t]/(1)")

    @pytest.mark.parametrize("poly, message", [
        ("t 12", "unexpected '1' in polynomial (at position 2)"),
        ("t^", "expected a number (at position 2)"),
        ("t^x", "expected a number (at position 2)"),
        ("2 3", "unexpected '3' in polynomial (at position 2)"),
        ("t^2 + t + \u00b2", "expected a number (at position 10)"),
        ("t\t^ 3 + 1 x", "unexpected 'x' in polynomial (at position 10)"),
        ("t +", "unexpected end of polynomial (at position 3)"),
    ])
    def test_polynomial_error_positions(self, poly, message):
        # positions count within the polynomial, as the scanner reads it alone
        with pytest.raises(ParseError) as info:
            parse_ring_spec(f"GF(2)[t]/({poly})")
        assert str(info.value) == message


class TestElementParsing:
    def test_zmod(self):
        R = Zmod(12)
        assert parse_element(R, "7") == 7
        assert parse_element(R, "-1") == 11
        with pytest.raises(ParseError):
            parse_element(R, "seven")

    def test_poly(self):
        R = PolyQuotient(GaloisField(2), (1, 1, 1))
        assert parse_element(R, "t") == (0, 1)
        assert parse_element(R, "t+1") == (1, 1)
        assert parse_element(R, "t^2") == (1, 1)  # reduced mod t^2+t+1

    def test_poly_nonprime_field_encodings(self):
        R = PolyQuotient(GaloisField(4), (0, 0, 1))
        # coefficient 2 is the field element with encoding 2, not 2 mod 2
        assert parse_element(R, "2*t") == (0, 2)
        assert parse_element(R, "3") == (3, 0)
        # an integer at or above q encodes no element of GF(4)
        for src in ("4", "6", "t+9"):
            with pytest.raises(ParseError, match="encodes no element of GF\\(4\\)"):
                parse_element(R, src)

    def test_poly_prime_field_reduces_integers(self):
        R = PolyQuotient(GaloisField(3), (0, 0, 1))
        assert parse_element(R, "5") == (2, 0)
        assert parse_element(R, "4*t+7") == (1, 1)

    @pytest.mark.parametrize("src, coeffs", [
        ("-t", (0, 2, 0)), ("- t", (0, 2, 0)), ("+t", (0, 1, 0)),
        ("-2*t+1", (1, 1, 0)), ("-1", (2, 0, 0)), ("t^2 - t", (0, 2, 1)),
    ])
    def test_poly_leading_sign(self, src, coeffs):
        assert parse_element(PolyQuotient(GaloisField(3), (0, 0, 0, 1)), src) == coeffs

    @pytest.mark.parametrize("src, message", [
        ("", "unexpected end of polynomial (at position 0)"),
        ("+", "unexpected end of polynomial (at position 1)"),
        ("-", "unexpected end of polynomial (at position 1)"),
        ("t^2 +", "unexpected end of polynomial (at position 5)"),
        ("t^2 + + 1", "unexpected '+' in polynomial (at position 6)"),
        ("--t", "unexpected '-' in polynomial (at position 1)"),
        ("-+t", "unexpected '+' in polynomial (at position 1)"),
        ("t - -1", "unexpected '-' in polynomial (at position 4)"),
        ("* t", "unexpected '*' in polynomial (at position 0)"),
        ("2*", "expected t after '*' in polynomial (at position 2)"),
        ("2* + t", "expected t after '*' in polynomial (at position 3)"),
        ("2*3", "expected t after '*' in polynomial (at position 2)"),
    ])
    def test_poly_empty_terms(self, src, message):
        # a term names a numeral or t, and a '*' joins a numeral to t; only
        # the first term may carry a sign
        with pytest.raises(ParseError) as info:
            parse_element(PolyQuotient(GaloisField(3), (0, 0, 0, 1)), src)
        assert str(info.value) == message

    def test_poly_leading_sign_in_a_spec(self):
        assert parse_ring_spec("GF(2)[t]/(-t)").name == "GF(2)[t]/(t)"

    def test_poly_exponent_bound(self):
        R = PolyQuotient(GaloisField(2), (0, 0, 0, 1))
        assert MAX_POLY_DEGREE == 2 ** 20
        assert parse_element(R, f"t^{MAX_POLY_DEGREE} + t") == (0, 1, 0)
        for src in (f"t^{MAX_POLY_DEGREE + 1}", "1 + t^99999999"):
            with pytest.raises(ResourceError) as info:
                parse_element(R, src)
            assert str(info.value) == (f"exponent {src.rsplit('^')[1]} is above "
                                       f"the limit of {MAX_POLY_DEGREE}")

    def test_product(self):
        P = ProductRing([Zmod(4), PolyQuotient(GaloisField(2), (0, 0, 1))])
        assert parse_element(P, "(3, t+1)") == (3, (1, 1))
        with pytest.raises(ParseError):
            parse_element(P, "3")
        with pytest.raises(ParseError):
            parse_element(P, "(3, t, 1)")

    def test_table_ring(self):
        R = truncated_bivariate_fixture()
        assert parse_element(R, "x+y") == "x+y"
        with pytest.raises(ParseError):
            parse_element(R, "z")

    def test_format_round_trip(self):
        for spec in ("Z/12", "GF(2)[t]/(t^3)", "Z/4 x GF(2)[t]/(t^2)", "GF(4)[t]/(t^2)"):
            R = parse_ring_spec(spec)
            for x in R.elements:
                assert parse_element(R, R.format_element(x)) == x


class TestPosetParsing:
    def test_diamond(self):
        from euctype.poset import length, length_function

        p = parse_poset("""
            # a diamond
            bot < l
            bot < r
            l < top
            r < top
        """)
        assert set(p.elements) == {"bot", "l", "r", "top"}
        assert length(p) == 2
        assert length_function(p)["l"] == 1

    def test_isolated_and_blank(self):
        p = parse_poset("a < b\n\nlonely\n")
        assert set(p.elements) == {"a", "b", "lonely"}
        assert not p.less("lonely", "b")

    def test_bad_line(self):
        with pytest.raises(ParseError):
            parse_poset("a < b < c")
        with pytest.raises(ParseError):
            parse_poset("a <")


class TestTableRoundTrip:
    def test_bottom_table(self):
        for spec in ("Z/12", "GF(2)[t]/(t^2)", "Z/4 x Z/9"):
            t = bottom_euclidean(parse_ring_spec(spec))
            back = table_from_dict(table_to_dict(t))
            assert back.values == t.values
            assert back.value_at_zero == t.value_at_zero
            assert back.validated and back.is_bottom
            ok, _ = is_euclidean_function(back)
            assert ok

    def _z4(self):
        return table_to_dict(bottom_euclidean(Zmod(4)))

    def test_partial_table_rejected(self):
        d = self._z4()
        del d["values"]["3"]
        with pytest.raises(DomainError, match="no value for '3'"):
            table_from_dict(d)

    def test_non_canonical_or_duplicate_key_rejected(self):
        d = self._z4()
        d["values"]["7"] = d["values"].pop("3")
        with pytest.raises(DomainError, match="not canonical"):
            table_from_dict(d)
        d = self._z4()
        d["values"][" 3"] = "0"
        with pytest.raises(DomainError, match="name the element '3'"):
            table_from_dict(d)

    def test_key_spellings(self):
        d = table_to_dict(bottom_euclidean(Zmod(12)))
        for old, new in (("1", "13"), ("1", " 13")):
            broken = {**d, "values": {(new if k == old else k): v
                                      for k, v in d["values"].items()}}
            with pytest.raises(DomainError) as exc:
                table_from_dict(broken)
            assert str(exc.value) == f"table key {new!r} is not canonical; the element is '1'"
        with pytest.raises(DomainError) as exc:
            table_from_dict({**d, "values": {**d["values"], "0": "0"}})
        assert str(exc.value) == "the value at zero belongs in 'value_at_zero', not in 'values'"
        for twice in ({**d["values"], "3 ": "1"}, {"3 ": "1", **d["values"]}):
            with pytest.raises(DomainError) as exc:
                table_from_dict({**d, "values": twice})
            assert str(exc.value) == "two table keys name the element '3'"
        with pytest.raises(ParseError) as exc:
            table_from_dict({**d, "values": {**d["values"], "three": "1"}})
        assert str(exc.value) == "expected an integer element, got 'three'"

    def test_whitespace_variants_of_keys_are_read(self):
        for ring, old, new in ((Zmod(12), "5", " 5\n"), (ProductRing([Zmod(4), Zmod(9)]),
                                                        "(1, 2)", "( 1,2 )"),
                               (PolyQuotient(GaloisField(3), (0, 0, 1)), "2*t+1", "2*t + 1")):
            t = bottom_euclidean(ring)
            d = table_to_dict(t)
            assert old in d["values"]
            d["values"] = {(new if k == old else k): v for k, v in d["values"].items()}
            back = table_from_dict(d)
            assert back.values == t.values and back.validated and back.is_bottom

    @staticmethod
    def _key_orders(values, rng):
        """The written key order, reversed, shuffled, and every key spelled
        with extra whitespace."""
        items = list(values.items())
        shuffled = rng.sample(items, len(items))
        spaced = [(" " + key.replace(", ", " ,") + "\n", text) for key, text in items]
        return [dict(items), dict(items[::-1]), dict(shuffled), dict(spaced)]

    def test_every_key_order_reads_the_same_table(self):
        rng = random.Random(38)
        for ring in (Zmod(360), ProductRing([Zmod(4), Zmod(9)]),
                     PolyQuotient(GaloisField(2), (0, 1, 1, 0, 1, 1))):  # t (t^2 + t + 1)^2
            bottom = bottom_euclidean(ring)
            relabelled = {x: omega_power(1) * v.to_int() + 1 for x, v in bottom.values.items()}
            tables = [table_to_dict(bottom),
                      {**table_to_dict(EuclideanTable(ring, relabelled,
                                                      max(relabelled.values()).successor(),
                                                      False)), "validated": True}]
            for data in tables:
                texts = set(data["values"].values())
                written = table_from_dict(data)
                assert len({id(v) for v in written.values.values()}) == len(texts)
                for values in self._key_orders(data["values"], rng):
                    back = table_from_dict({**data, "values": values})
                    assert (back.values, back.value_at_zero, back.validated, back.is_bottom) \
                        == (written.values, written.value_at_zero, written.validated,
                            written.is_bottom), ring.name
                    assert len({id(v) for v in back.values.values()}) == len(texts), ring.name
            assert written.validated and not written.is_bottom

    @staticmethod
    def _first_fault(data):
        with pytest.raises((DomainError, ParseError)) as exc:
            table_from_dict(data)
        return type(exc.value), str(exc.value)

    def test_two_faults_name_the_first_in_any_key_order(self):
        d = table_to_dict(bottom_euclidean(Zmod(12)))
        written = d["values"]
        zero_key = "the value at zero belongs in 'value_at_zero', not in 'values'"
        not_canonical = "table key '13' is not canonical; the element is '1'"
        not_text = "the value of '5' is not an ordinal expression"
        renamed = {("13" if k == "1" else k): v for k, v in written.items()}
        cases = [
            ({**renamed, "0": "1"}, (DomainError, not_canonical)),
            ({"0": "1", **renamed}, (DomainError, zero_key)),
            ({"0": "1", **written, "5": 3}, (DomainError, zero_key)),
            ({**written, "5": 3, "0": "1"}, (DomainError, not_text)),
            ({**written, "5": ["1"]}, (DomainError, not_text)),
            ({**written, "3": "w+", "5": 3},
             (ParseError, "unexpected end of input (at position 2)")),
            ({**written, "3": "w*", "5": "w+"}, (ParseError, "expected a number (at position 2)")),
        ]
        missing = {k: v for k, v in written.items() if k != "7"}
        cases.append(({**missing, "1": "3x"}, (ParseError, "unexpected 'x' (at position 1)")))
        cases.append(({**missing, "1": 3}, (DomainError, "the value of '1' is not an ordinal "
                                                          "expression")))
        for values, fault in cases:
            assert self._first_fault({**d, "values": values}) == fault, values
        assert self._first_fault({**d, "values": missing}) == (DomainError,
                                                               "the table has no value for '7'")

    def test_value_at_zero_below_the_values_rejected(self):
        d = self._z4()
        d["value_at_zero"] = "1"  # the value of 2 is 1 already
        with pytest.raises(DomainError, match="value_at_zero"):
            table_from_dict(d)

    def test_flags_are_checked_not_trusted(self):
        d = self._z4()
        d["value_at_zero"] = "9"  # above the supremum plus one, so not the bottom
        back = table_from_dict(d)
        assert back.validated and not back.is_bottom
        with pytest.raises(DomainError):
            order_type(back)
        d = self._z4()
        d["values"]["2"] = "0"  # no quotient for 1 modulo 2 any more
        back = table_from_dict(d)
        assert not back.validated and not back.is_bottom
        d = table_to_dict(make_table(Zmod(4), {1: Ordinal(0), 3: Ordinal(0),
                                               2: Ordinal(2)}))
        d["bottom"] = True  # Euclidean, but above the bottom table at 2
        back = table_from_dict(d)
        assert back.validated and not back.is_bottom
        d = self._z4()
        d["validated"] = d["bottom"] = False
        back = table_from_dict(d)
        assert not back.validated and not back.is_bottom

    def test_a_bottom_claim_that_holds_keeps_validated(self):
        d = self._z4()
        d["validated"] = False
        back = table_from_dict(d)
        assert back.validated and back.is_bottom
        d["values"]["2"] = "0"  # no longer Euclidean, so neither claim holds
        back = table_from_dict(d)
        assert not back.validated and not back.is_bottom

    @staticmethod
    def _former_flags(data):
        """The flags as the former reader set them: the division check on
        every claim, then the comparison with the bottom table."""
        plain = table_from_dict({**data, "validated": False, "bottom": False})
        ring, values = plain.ring, plain.values
        validated, is_bottom = bool(data.get("validated")), bool(data.get("bottom"))
        if validated or is_bottom:
            euclidean = division_counterexample(ring, values) is None
            sup_plus_one = max(values.values()).successor()
            is_bottom = (is_bottom and euclidean and plain.value_at_zero == sup_plus_one
                         and values == bottom_euclidean(ring).values)
            validated = (validated and euclidean) or is_bottom
        return validated, is_bottom

    @staticmethod
    def _claimed_tables():
        """Written tables, each under every combination of the two claims:
        bottom, relabelled, perturbed and specimen-product tables, with the
        supremum plus one and a larger value at zero."""
        rings = [Zmod(12), Zmod(8), ProductRing([Zmod(4), Zmod(9)]),
                 PolyQuotient(GaloisField(2), (0, 0, 0, 1)),
                 QuotientRing(Zmod(36), 6), truncated_bivariate_fixture(),
                 parse_ring_spec("GF(2)[x,y]/(x,y)^2 x Z/3")]
        for ring in rings:
            nonzero = [x for x in ring.elements if x != ring.zero]
            units = ring.units()
            lengths = {x: Ordinal(ring.element_length(x) if ring.is_principal()
                                  else int(x not in units)) for x in nonzero}
            tables = [lengths, {x: omega_power(v.to_int()) for x, v in lengths.items()}]
            for i in range(0, len(nonzero), max(1, len(nonzero) // 4)):
                tables.append({**lengths, nonzero[i]: lengths[nonzero[i]] + 1})
                tables.append({**lengths, nonzero[i]: Ordinal(0)})
            for values in tables:
                sup_plus_one = max(values.values()).successor()
                for top in (sup_plus_one, sup_plus_one + 1):
                    for validated in (False, True):
                        for bottom in (False, True):
                            data = table_to_dict(EuclideanTable(ring, values, top, False))
                            yield {**data, "validated": validated, "bottom": bottom}

    def test_claims_keep_the_former_flags(self):
        seen = set()
        for data in self._claimed_tables():
            back = table_from_dict(data)
            flags = (back.validated, back.is_bottom)
            assert flags == self._former_flags(data), data["ring"]
            seen.add(flags)
        assert seen == {(False, False), (True, False), (True, True)}

    def test_a_written_bottom_table_takes_no_division_check(self, monkeypatch):
        calls = []
        real = parsing.division_counterexample
        monkeypatch.setattr(parsing, "division_counterexample",
                            lambda ring, values: calls.append(ring.name) or real(ring, values))
        for spec in ("Z/12", "Z/4 x Z/9", "GF(2)[t]/(t^3)", "Z/36/(6)"):
            back = table_from_dict(table_to_dict(bottom_euclidean(parse_ring_spec(spec))))
            assert back.validated and back.is_bottom
        assert calls == []
        d = self._z4()
        d["values"]["2"] = "0"  # not the bottom table: the validated claim is checked
        assert not table_from_dict(d).validated
        d["bottom"] = False
        assert not table_from_dict(d).validated
        assert calls == ["Z/4", "Z/4"]

    def test_a_bottom_claim_on_a_ring_without_a_bottom_table(self):
        ring = parse_ring_spec("GF(2)[x,y]/(x,y)^2 x Z/3")
        with pytest.raises(NotEuclideanRing):
            bottom_euclidean(ring)
        units = ring.units()
        values = {x: Ordinal(int(x not in units)) for x in ring.elements if x != ring.zero}
        data = table_to_dict(EuclideanTable(ring, values, max(values.values()).successor(),
                                            False))
        back = table_from_dict({**data, "validated": True, "bottom": True})
        assert not back.validated and not back.is_bottom

    def test_symbolic_spec_rejected(self):
        with pytest.raises(DomainError):
            table_from_dict({"ring": "Z", "values": {}, "value_at_zero": "w"})

    def test_malformed_fields_rejected(self):
        for broken in ([], {"ring": "Z/4"}, {"ring": 4, "values": {}, "value_at_zero": "1"},
                       {"ring": "Z/4", "values": [], "value_at_zero": "1"},
                       {"ring": "Z/4", "values": {"1": 0, "2": 1, "3": 0},
                        "value_at_zero": "2"}):
            with pytest.raises(DomainError):
                table_from_dict(broken)


# ---------------------------------------------------------------------------
# the recursive descent against the oracle values and the per-token reader

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def oracles(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return importlib.import_module("oracles")


def token_descent(src):
    """The descent as it read one token at a time through ``_Scanner.take``
    and ``peek``: the oracle for the reader of the token list."""
    if not src or not src.strip():
        raise ParseError("empty ordinal expression")
    sc = parsing._Scanner(src)

    def expr(depth):
        if depth > parsing.MAX_EXPONENT_DEPTH:
            raise ResourceError(f"parenthesis nesting deeper than {parsing.MAX_EXPONENT_DEPTH}")
        minuends, save = [], sc.i
        while sc.take("(") and sc.take("-"):
            minuends.append(expr(depth + 1))
            sc.expect(")")
            sc.expect("+")
            save = sc.i
        sc.i = save
        value = product(depth)
        while True:
            if sc.take("+"):
                value = value + product(depth)
            elif sc.take("#"):
                value = natural_sum(value, product(depth))
            else:
                break
        for minuend in reversed(minuends):
            value = left_subtract(minuend, value)
        return value

    def product(depth):
        value = atom(depth)
        while sc.take("."):
            value = product_left(value, atom(depth))
        return value

    def atom(depth):
        ch = sc.peek()
        if ch in ("w", "ω"):
            sc.i += 1
            exponent = Ordinal(1)
            if sc.take("^"):
                exponent = parsing._exponent(sc, depth + 1)
            coeff = 1
            if sc.take("*"):
                coeff = sc.nat()
                if coeff == 0:
                    return Ordinal(0)
            return omega_power(exponent, coeff)
        if ch.isdigit():
            return Ordinal(sc.nat())
        if sc.take("("):
            value = expr(depth + 1)
            sc.expect(")")
            return value
        raise ParseError(f"unexpected {ch!r}" if ch else "unexpected end of input", sc.where())

    value = expr(0)
    if sc.peek():
        raise ParseError(f"unexpected {sc.peek()!r}", sc.where())
    return value


def test_descent_reads_the_oracle_expressions(oracles):
    rng = random.Random(20)
    for depth in (0, 1, 2, 3, 4):
        for _ in range(400):
            tree = oracles.random_expr(rng, depth)
            text = oracles.expr_text(tree)
            assert format_ordinal(parse_ordinal(text)) == oracles.expr_value(tree).text(), text
            assert _parse_expression(text).terms == token_descent(text).terms, text


FUZZ_ALPHABET = "w^*+#.()-0123456789 ω"


def test_descent_on_random_and_edited_text(oracles):
    """Random strings over the grammar's characters, and oracle expressions
    with one character deleted, doubled or replaced: the same value or the
    same error, message and position as the per-token reader."""
    rng = random.Random(2020)
    texts = ["".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(0, 12))) for _ in range(6000)]
    for _ in range(3000):
        text = oracles.expr_text(oracles.random_expr(rng, rng.randint(0, 3)))
        k = rng.randrange(len(text))
        texts.append(rng.choice([text[:k] + text[k + 1:], text[:k] + text[k] + text[k:],
                                 text[:k] + rng.choice(FUZZ_ALPHABET) + text[k + 1:]]))
    texts += ["(" * 32 + "w^2" + ")" * 32, "(" * 31 + "w^2" + ")" * 31,
              "(" * 32 + "w^²" + ")" * 32, "w^" * 33 + "1", "(-w) + (-1) + w*2"]
    for text in texts:
        assert _outcome(_parse_expression, text) == _outcome(token_descent, text), text
