"""Canonical forms: construction, arithmetic, induced maps and export."""

import json
import random

import pytest

from rigdiff.carrier import (
    CarrierMismatch, FreeMonoid, MonoidElem, MonoidHom, MonomialBasis,
)
from rigdiff.gen import random_term_rng
from rigdiff.normal import (
    AppAtom, GenAtom, Monomial, NormalForm, ONE_MONOMIAL, apply_functor,
    as_monoid_element, from_monoid_element, mono_mul, nf_add, nf_from_monomial,
    nf_from_obj, nf_mul, nf_scale, nf_selfmap, nf_to_obj, nf_var, normalize,
    render_nf,
)
from rigdiff.terms import App, ONE, Prod, Sum, Var
from rigdiff.text import parse

N1 = FreeMonoid(1)
N2 = FreeMonoid(2)
L2 = MonomialBasis(N1)

G0, G1 = GenAtom(0), GenAtom(1)


def nf(src, carrier=N1):
    return normalize(parse(src, carrier), carrier)


class TestAtomsAndMonomials:
    def test_atom_equality_and_hash(self):
        assert GenAtom(0) == GenAtom(0) and hash(GenAtom(0)) == hash(GenAtom(0))
        assert GenAtom(0) != GenAtom(1)
        wrapped = AppAtom(NormalForm.zero(N1))
        assert wrapped is AppAtom(NormalForm.zero(N1))
        assert wrapped != GenAtom(0)
        # equal items over another carrier make another atom
        assert AppAtom(NormalForm.zero(N2)) != wrapped

    def test_monomials_sort_their_atoms(self):
        assert Monomial((G1, G0)) == Monomial((G0, G1))
        assert Monomial((G0, G1)).atoms == (G0, G1)

    def test_atom_counts_and_without(self):
        m = Monomial((G0, G0, G1))
        assert m.atom_counts() == [(G0, 2), (G1, 1)]
        assert m.without(G0) == Monomial((G0, G1))
        assert m.degree == 3

    def test_mono_mul_is_multiset_union(self):
        assert mono_mul(Monomial((G0,)), Monomial((G0, G1))) == \
            Monomial((G0, G0, G1))
        assert mono_mul(ONE_MONOMIAL, Monomial((G0,))) == Monomial((G0,))


class TestNormalize:
    def test_variables_indexed_by_sums_split(self):
        assert nf("x[2]+x[3]") == nf("x[5]")
        assert render_nf(nf("x[2]+x[3]")) == "5*x[0]"

    def test_square_of_a_sum(self):
        expected = NormalForm.from_dict(N1, {
            ONE_MONOMIAL: 1,
            Monomial((G0,)): 2,
            Monomial((G0, G0)): 1,
        })
        assert nf("(x[1]+1)*(x[1]+1)") == expected

    def test_zero_indexed_variable_is_zero(self):
        assert normalize(Var(MonoidElem.zero(N2)), N2).is_zero()

    def test_operation_output_is_not_zero(self):
        a = nf("f(0)")
        assert not a.is_zero()
        assert a == nf_selfmap(NormalForm.zero(N1))

    def test_operation_atoms_are_opaque(self):
        assert nf("f(x[1]+1)") != nf("f(x[1])+f(1)")
        assert nf("f(x[1])*f(x[1])") != nf("f(x[1]*x[1])")
        assert nf("f(x[2])") == nf("f(2*x[1])")

    def test_multiplication_merges_monomials(self):
        assert nf("x[1,0]*x[0,1]", N2) == NormalForm.from_dict(
            N2, {Monomial((G0, G1)): 1})

    def test_distributes_and_collects(self):
        assert nf("(x[1]+1)*(x[1]+1)") == nf("x[1]*x[1]+2*x[1]+1")

    def test_carrier_mismatch_on_foreign_variable(self):
        with pytest.raises(CarrierMismatch):
            normalize(parse("x[1]", N1), N2)

    def test_long_literal_normalizes_without_recursion(self):
        # a literal is a binary Horner term, nested one level per bit
        n = 7 ** 1200
        assert nf(str(n)) == nf_scale(NormalForm.one(N1), n)

    def test_deep_mixed_nesting_normalizes_without_recursion(self):
        x = Var(MonoidElem.generator(N1, 0))
        xv, one = nf_var(x.elem), NormalForm.one(N1)
        term, value = x, xv
        for _ in range(1000):  # 3000 levels of products, operations and sums
            term = Prod(x, App(Sum(term, ONE)))
            value = nf_mul(xv, nf_selfmap(nf_add(value, one)))
        assert normalize(term, N1) == value

    def test_rejects_non_terms(self):
        with pytest.raises(TypeError):
            normalize("x[1]", N1)

    def test_equal_values_share_hash_and_string(self):
        a, b = nf("(x[1]+1)*(x[1]+1)"), nf("x[1]*x[1]+2*x[1]+1")
        assert hash(a) == hash(b) and str(a) == str(b)

    def test_values_over_different_carriers_differ(self):
        assert NormalForm.one(N1) != NormalForm.one(N2)


class TestArithmetic:
    def test_operators_delegate(self):
        a, b = nf("x[1]"), nf("x[1]+1")
        assert a + b == nf_add(a, b) == nf("2*x[1]+1")
        assert a * b == nf_mul(a, b) == nf("x[1]*x[1]+x[1]")

    def test_add_and_mul_check_carriers(self):
        with pytest.raises(CarrierMismatch):
            nf_add(NormalForm.one(N1), NormalForm.one(N2))
        with pytest.raises(CarrierMismatch):
            nf_mul(NormalForm.one(N1), NormalForm.one(N2))

    def test_scale(self):
        assert nf_scale(nf("x[1]+1"), 3) == nf("3*x[1]+3")
        assert nf_scale(nf("x[1]"), 0).is_zero()
        with pytest.raises(ValueError):
            nf_scale(nf("x[1]"), -1)

    def test_from_dict_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            NormalForm.from_dict(N1, {ONE_MONOMIAL: -1})

    def test_coeff_lookup(self):
        a = nf("2*x[1]+3")
        assert a.coeff(ONE_MONOMIAL) == 3
        assert a.coeff(Monomial((G0,))) == 2
        assert a.coeff(Monomial((G0, G0))) == 0


class TestHasAppAtoms:
    def test_detects_the_operation_at_its_own_level(self):
        assert nf("f(x[1])").has_app_atoms()
        assert not nf("x[1]*x[1]+3").has_app_atoms()
        assert nf("g(y[1])", L2).has_app_atoms()

    def test_operation_inside_a_level2_key_is_part_of_the_key(self):
        assert not nf("y[f(x[1])]", L2).has_app_atoms()


class TestApplyFunctor:
    def test_identity_is_the_identity(self):
        a = nf("f(x[1,0])*x[0,1]+2", N2)
        assert apply_functor(MonoidHom.identity(N2), a) == a

    def test_matrix_image(self):
        h = MonoidHom.from_matrix(N2, N1, [[2], [3]])
        a = nf("x[1,0]*x[0,1]+f(x[0,1])", N2)
        assert apply_functor(h, a) == nf("6*x[1]*x[1]+f(3*x[1])")

    def test_domain_check(self):
        h = MonoidHom.from_matrix(N2, N1, [[1], [1]])
        with pytest.raises(CarrierMismatch):
            apply_functor(h, nf("x[1]"))


class TestCarrierViews:
    def test_round_trip_between_value_and_element(self):
        a = nf("f(x[1])*x[1]+2*x[1]")
        assert from_monoid_element(as_monoid_element(a)) == a
        assert as_monoid_element(a).carrier == MonomialBasis(N1)

    def test_from_monoid_element_needs_monomial_keys(self):
        with pytest.raises(CarrierMismatch):
            from_monoid_element(MonoidElem.generator(N1, 0))

    def test_nf_var_splits_composite_indices(self):
        a = nf_var(MonoidElem.from_dict(N2, {0: 2, 1: 1}))
        assert a == NormalForm.from_dict(
            N2, {Monomial((G0,)): 2, Monomial((G1,)): 1})


class TestStructuredExport:
    def test_round_trip_through_json(self):
        rng = random.Random(31)
        for carrier in (N1, N2, L2):
            for _ in range(40):
                a = normalize(random_term_rng(rng, carrier, 4, 2, 5), carrier)
                wire = json.loads(json.dumps(nf_to_obj(a)))
                assert nf_from_obj(carrier, wire) == a

    @pytest.mark.parametrize("carrier, inner", [(N1, "x[1]"), (L2, "y[f(x[1])+1]")],
                             ids=["level1", "level2"])
    def test_deep_towers_read_back(self, carrier, inner):
        # 2000 levels of the operation: far past the recursion limit
        v = nf(inner, carrier)
        for _ in range(2000):
            v = nf_selfmap(v)
        assert nf_from_obj(carrier, nf_to_obj(v)) == v

    def test_level2_generator_keys_nest(self):
        assert nf_to_obj(nf("y[x[2]]", L2)) == \
            [{"coeff": 2, "atoms": [{"gen": [{"gen": 0}]}]}]

    def test_operation_atoms_nest_whole_values(self):
        assert nf_to_obj(nf("f(x[1]+1)")) == \
            [{"coeff": 1,
              "atoms": [{"app": [{"coeff": 1, "atoms": []},
                                 {"coeff": 1, "atoms": [{"gen": 0}]}]}]}]

    def test_monomial_keys_need_a_monomial_basis(self):
        with pytest.raises(CarrierMismatch):
            nf_from_obj(N1, [{"coeff": 1, "atoms": [{"gen": [{"gen": 0}]}]}])

    def test_bad_atom_objects_are_rejected(self):
        with pytest.raises(ValueError):
            nf_from_obj(N1, [{"coeff": 1, "atoms": [{"oops": 0}]}])

    @pytest.mark.parametrize("obj", [
        [{"coeff": 2.5, "atoms": [{"gen": 0}]}],
        [{"coeff": True, "atoms": [{"gen": 0}]}],
        [{"coeff": "3", "atoms": []}],
        [{"coeff": 0, "atoms": []}],
        [{"coeff": -1, "atoms": []}, {"coeff": 2, "atoms": [{"gen": 0}]}],
        [{"atoms": [{"gen": 0}]}],
        [{"coeff": 1}],
        [{"coeff": 1, "atoms": [], "extra": 0}],
        [1],
        {"coeff": 1, "atoms": []},
        [{"coeff": 1, "atoms": {"gen": 0}}],
        [{"coeff": 1, "atoms": [{"gen": False}]}],
        [{"coeff": 1, "atoms": [{"gen": "0"}]}],
        [{"coeff": 1, "atoms": [{"gen": 0, "app": []}]}],
        [{"coeff": 1, "atoms": [{"app": 5}]}],
        [{"coeff": 1, "atoms": [{"app": {"coeff": 1, "atoms": []}}]}],
        [{"coeff": 1, "atoms": [{"app": [{"coeff": 1.5, "atoms": []}]}]}],
    ], ids=["float-coeff", "bool-coeff", "str-coeff", "zero-coeff", "negative-coeff",
            "no-coeff", "no-atoms", "extra-key", "entry-not-dict", "value-not-list",
            "atoms-not-list", "bool-gen", "str-gen", "two-kinds", "app-not-list",
            "app-dict", "float-coeff-in-app"])
    def test_malformed_objects_raise_value_error(self, obj):
        # only the shapes nf_to_obj emits read back; no float enters a value
        with pytest.raises(ValueError):
            nf_from_obj(N1, obj)

    def test_equal_values_export_equal_bytes(self):
        a, b = nf("(x[1]+1)*(x[1]+1)"), nf("x[1]*x[1]+2*x[1]+1")
        assert json.dumps(nf_to_obj(a)) == json.dumps(nf_to_obj(b))
