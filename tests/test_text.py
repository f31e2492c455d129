"""Concrete syntax: parsing, printing and the two text renderings."""

import hashlib
import random
import sys
import time

import pytest

from rigdiff.carrier import CarrierMismatch, FreeMonoid, MonoidElem, MonomialBasis
from rigdiff.derive import d_n
from rigdiff.gen import random_term_rng
from rigdiff.normal import (
    GenAtom, Monomial, NormalForm, as_monoid_element, normalize, render_nf,
)
from rigdiff.terms import App, Prod, Sum, Var, ONE, ZERO
from rigdiff.text import (
    MAX_NESTING, ParseError, emit_nf, parse, print_term, render_tensor,
)

N1 = FreeMonoid(1)
N2 = FreeMonoid(2)
L2 = MonomialBasis(N1)
L4 = MonomialBasis(MonomialBasis(L2))
L5 = MonomialBasis(L4)
# An f of a level-4 variable: display text spells level 4 ``x4[``/``f4(``.
DEEP_SRC = "f(y[z[y[x[1]]]] + 2) * x[z[y[f(x[1])]]]"


class TestParse:
    def test_variables_carry_coordinate_vectors(self):
        t = parse("x[2,0]", N2)
        assert t == Var(MonoidElem.from_dict(N2, {0: 2}))

    def test_sum_of_variables(self):
        assert parse("x[2]+x[3]", N1) == \
            Sum(Var(MonoidElem.from_dict(N1, {0: 2})),
                Var(MonoidElem.from_dict(N1, {0: 3})))

    def test_precedence_product_binds_tighter(self):
        assert parse("1+x[1]*x[1]", N1) == \
            Sum(ONE, Prod(parse("x[1]", N1), parse("x[1]", N1)))

    def test_parentheses_group(self):
        t = parse("(1+x[1])*x[1]", N1)
        assert isinstance(t, Prod) and isinstance(t.left, Sum)

    def test_nat_literals_are_repeated_ones(self):
        assert parse("0", N1) == ZERO
        assert parse("1", N1) == ONE
        assert normalize(parse("3", N1), N1) == normalize(
            Sum(Sum(ONE, ONE), ONE), N1)

    def test_coefficient_syntax_reads_back(self):
        assert normalize(parse("5*x[1]", N1), N1) == \
            normalize(parse("x[5]", N1), N1)

    def test_operation_application(self):
        assert parse("f(x[1])", N1) == App(parse("x[1]", N1))

    def test_letters_are_interchangeable(self):
        assert parse("y[1]", N1) == parse("x[1]", N1)
        assert parse("g(z[1])", N1) == parse("f(x[1])", N1)

    def test_rank_zero_payload(self):
        assert parse("x[]", FreeMonoid(0)) == \
            Var(MonoidElem.zero(FreeMonoid(0)))

    def test_level2_payload_is_an_expression_over_the_base(self):
        t = parse("y[x[1]+1]", L2)
        assert isinstance(t, Var)
        assert t.elem == as_monoid_element(normalize(parse("x[1]+1", N1), N1))

    def test_level2_payload_normalizes_on_the_spot(self):
        assert parse("y[x[1]+x[1]]", L2) == parse("y[2*x[1]]", L2)

    def test_whitespace_and_newlines_ignored(self):
        assert parse(" x[1]\n + 1 ", N1) == parse("x[1]+1", N1)


class TestParseErrors:
    def test_unexpected_character_with_position(self):
        with pytest.raises(ParseError, match="line 2, column 1"):
            parse("x[1] +\n@", N1)

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing input"):
            parse("x[1] x[1]", N1)

    def test_wrong_coordinate_count(self):
        with pytest.raises(ParseError, match="carrier rank is 2"):
            parse("x[1]", N2)

    def test_missing_bracket(self):
        with pytest.raises(ParseError, match="expected"):
            parse("x[1", N1)

    def test_missing_operand(self):
        with pytest.raises(ParseError, match="expected an expression"):
            parse("x[1]+", N1)

    def test_coordinate_must_be_a_natural(self):
        with pytest.raises(ParseError, match="expected a coordinate"):
            parse("x[x[1]]", N1)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("", N1)

    @pytest.mark.parametrize("src", ["x[²]", "f(²4)"])
    def test_numeric_characters_int_cannot_read_are_rejected(self, src):
        with pytest.raises(ParseError, match="unexpected character '²' at line 1, column 3"):
            parse(src, N1)

    def test_a_literal_past_the_digit_limit_is_a_parse_error(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ParseError, match=f"literal at line 2, column 3 has "
                                             f"more than {limit} digits"):
            parse("x[1] +\n  " + "9" * (limit + 1), N1)


def test_nesting_adds_no_python_frame():
    # The deepest accepted tower parses within 60 frames of the caller's
    # depth, so parsing keeps its stack by hand, not in Python frames.
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        term = parse("f(" * MAX_NESTING + "x[1]" + ")" * MAX_NESTING, N1)
    finally:
        sys.setrecursionlimit(limit)
    for _ in range(MAX_NESTING):
        assert isinstance(term, App)
        term = term.body
    assert term == parse("x[1]", N1)


PIECES = tuple("xyzfgh()[]+*,0123") + (" ", "\n", "x[1]", "y[", "f(", "12", "x[1,0]")


def test_parse_outcomes_are_frozen():
    # 7000 seeded strings of 0-14 pieces, each parsed over N1, N2 and level
    # 2: the digest pins every tree and every error message and position.
    rng = random.Random(15)
    digest = hashlib.sha256()
    for _ in range(7000):
        text = "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 14)))
        for carrier in (N1, N2, L2):
            try:
                outcome = repr(parse(text, carrier))
            except ParseError as exc:
                outcome = f"ParseError: {exc}"
            digest.update(f"{outcome}\n".encode())
    assert digest.hexdigest() == \
        "ef6fdf3427c566c8ab59de78d765ea57602d818d6bc930d00a7f092b9bd15528"


class TestPrintTerm:
    def test_round_trip_examples(self):
        for src, carrier in (
            ("(x[1]+1)*f(x[1])", N1),
            ("x[1,2]*x[0,1]+0", N2),
            ("g(y[x[1]*x[1]+1])*y[2*x[1]]", L2),
        ):
            t = parse(src, carrier)
            assert parse(print_term(t, carrier), carrier) == t

    def test_round_trip_random_terms(self):
        rng = random.Random(11)
        for carrier in (N1, N2, L2, MonomialBasis(N2)):
            for _ in range(40):
                t = random_term_rng(rng, carrier, 4, 2, 5)
                assert parse(print_term(t, carrier), carrier) == t

    @pytest.mark.parametrize("carrier", [L4, L5], ids=["level4", "level5"])
    def test_round_trip_past_level_3(self, carrier):
        rng = random.Random(5)
        terms = [parse(DEEP_SRC, L4)] if carrier is L4 else []
        terms += [random_term_rng(rng, carrier, 3, 2, 3) for _ in range(20)]
        for t in terms:
            assert parse(print_term(t, carrier), carrier) == t

    def test_level2_payload_prints_as_input_syntax(self):
        t = parse("y[x[2]]", L2)
        assert print_term(t, L2) == "y[2*x[1]]"

    @pytest.mark.parametrize("carrier", [N1, FreeMonoid(3), L2])
    def test_rejects_a_variable_over_another_carrier(self, carrier):
        # over a smaller rank a coordinate would be dropped, over a larger
        # one padded with zeros; either text parses back to another term
        with pytest.raises(CarrierMismatch):
            print_term(parse("f(x[1,2]) + 1", N2), carrier)

    @pytest.mark.parametrize("op", ["+", "*"])
    def test_long_chains(self, op):
        t = parse(op.join(["x[1]"] * 3000), N1)
        start = time.perf_counter()
        text = print_term(t, N1)
        assert time.perf_counter() - start < 5
        assert text == "(" * 2999 + "x[1]" + f" {op} x[1])" * 2999


class TestEmitNf:
    def test_round_trip_random_values(self):
        rng = random.Random(23)
        for carrier in (N1, N2, L2):
            for _ in range(40):
                nf = normalize(random_term_rng(rng, carrier, 4, 2, 5), carrier)
                assert normalize(parse(emit_nf(nf), carrier), carrier) == nf

    @pytest.mark.parametrize("carrier", [L4, L5], ids=["level4", "level5"])
    def test_round_trip_past_level_3(self, carrier):
        rng = random.Random(7)
        terms = [parse(DEEP_SRC, L4)] if carrier is L4 else []
        terms += [random_term_rng(rng, carrier, 3, 2, 3) for _ in range(20)]
        for t in terms:
            nf = normalize(t, carrier)
            assert normalize(parse(emit_nf(nf), carrier), carrier) == nf

    def test_generator_atoms_emit_as_unit_vectors(self):
        nf = normalize(parse("x[0,1]", N2), N2)
        assert emit_nf(nf) == "x[0,1]"

    def test_zero_and_constants(self):
        assert emit_nf(NormalForm.zero(N1)) == "0"
        assert emit_nf(normalize(parse("3", N1), N1)) == "3"


class TestRenderings:
    def test_render_nf_pins_the_display_style(self):
        assert render_nf(normalize(parse("x[2]+x[3]", N1), N1)) == "5*x[0]"
        assert render_nf(NormalForm.zero(N1)) == "0"
        assert render_nf(NormalForm.one(N1)) == "1"
        assert render_nf(normalize(parse("x[1]*x[1]+x[1]", N1), N1)) \
            == "x[0] + x[0]*x[0]"

    def test_render_nf_orders_monomials_canonically(self):
        a = normalize(parse("f(x[1])+x[1]*x[1]+2", N1), N1)
        assert render_nf(a) == "2 + f(x[0]) + x[0]*x[0]"

    def test_render_tensor_examples(self):
        nf = normalize(parse("f(x[1])", N1), N1)
        assert render_tensor(d_n(nf, 2)) == "2*(1 ⊗ e[0])"
        square = normalize(parse("x[1]*x[1]", N1), N1)
        assert render_tensor(d_n(square, 0)) == "2*(x[0] ⊗ e[0])"
        assert render_tensor(d_n(NormalForm.zero(N1), 1)) == "0"

    def test_display_text_spells_level_4_with_its_number(self):
        v = normalize(parse(DEEP_SRC, L4), L4)
        assert render_nf(v) == "x4[z[y[f(x[0])]]]*f4(2 + x4[z[y[x[0]]]])"
        assert render_tensor(d_n(v, 3)) == ("3*(x4[z[y[f(x[0])]]] ⊗ z[y[x[0]]])"
                                            " + f4(2 + x4[z[y[x[0]]]]) ⊗ z[y[f(x[0])]]")

    def test_render_tensor_level2_keys_use_monomial_text(self):
        nf2 = normalize(parse("g(y[1])", L2), L2)
        assert render_tensor(d_n(nf2, 3)) == "3*(1 ⊗ 1)"
        var2 = normalize(parse("y[x[1]]", L2), L2)
        assert render_tensor(d_n(var2, 3)) == "1 ⊗ x[0]"
