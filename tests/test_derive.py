"""The derivative family, its symmetric restriction and seeded derivations."""

import random

import pytest

from oracle import term_derivative
from rigdiff.carrier import (
    FreeMonoid, MonoidElem, MonomialBasis, TensorElem, tensor_bimap,
)
from rigdiff.derive import SymmetricModeError, d_n, seeded_derivation, sym_derive
from rigdiff.gen import random_term_rng
from rigdiff.normal import (
    AppAtom, ArgumentMemo, GenAtom, Monomial, NormalForm, ONE_MONOMIAL,
    normalize,
)
from rigdiff.text import parse

N1 = FreeMonoid(1)
N2 = FreeMonoid(2)
L2 = MonomialBasis(N1)

G0, G1 = GenAtom(0), GenAtom(1)


def nf(src, carrier=N1):
    return normalize(parse(src, carrier), carrier)


def tensor1(coeffs):
    return TensorElem.from_dict((L2, N1), coeffs)


class TestDn:
    def test_power_example(self):
        assert d_n(nf("x[1]*x[1]"), 0) == tensor1({(Monomial((G0,)), 0): 2})

    def test_operation_atom_weighs_in_n(self):
        witness = nf("f(x[1])")
        assert d_n(witness, 2) == tensor1({(ONE_MONOMIAL, 0): 2})
        assert d_n(witness, 0).is_zero()

    def test_index_must_be_a_natural_int(self):
        for bad in (1.5, 2.0, True, False, -1):
            with pytest.raises(ValueError, match="indexed by naturals"):
                d_n(nf("f(x[1])*x[1]"), bad)

    def test_nested_operations_multiply_weights(self):
        assert d_n(nf("f(f(x[1]))"), 2) == tensor1({(ONE_MONOMIAL, 0): 4})

    def test_product_with_an_operation_factor(self):
        x_atom = Monomial((AppAtom(nf("x[1]")),))
        assert d_n(nf("f(x[1])*x[1]"), 2) == tensor1({
            (x_atom, 0): 1,
            (Monomial((G0,)), 0): 2,
        })

    def test_constants_differentiate_to_zero(self):
        for src in ("0", "1", "7"):
            assert d_n(nf(src), 3).is_zero()

    def test_variable_rule_over_rank_two(self):
        t = d_n(nf("x[2,1]", N2), 3)
        assert t == TensorElem.from_dict(
            (MonomialBasis(N2), N2), {(ONE_MONOMIAL, 0): 2, (ONE_MONOMIAL, 1): 1})

    def test_members_differ_on_operation_values(self):
        witness = nf("f(x[1])")
        outputs = [d_n(witness, n) for n in range(11)]
        assert len(set(map(str, outputs))) == len(outputs)
        assert all(outputs[i] != outputs[j]
                   for i in range(11) for j in range(i + 1, 11))

    def test_members_agree_on_operation_free_values(self):
        a = nf("(x[1]+1)*(x[1]+2*x[1]*x[1])")
        assert d_n(a, 0) == d_n(a, 1) == d_n(a, 7)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            d_n(nf("x[1]"), -1)

    def test_matches_the_term_recursion(self):
        rng = random.Random(3)
        for _ in range(150):
            carrier = FreeMonoid(rng.choice((1, 2)))
            t = random_term_rng(rng, carrier, 4, 2, 5)
            n = rng.choice((0, 1, 2, 3, 7))
            assert d_n(normalize(t, carrier), n) == term_derivative(t, carrier, n)

    def test_coefficients_are_polynomials_in_n_of_degree_at_most_the_f_depth(self):
        # The premise of the law suite's every-n check: each coefficient of
        # d_n(v) is a polynomial in n, so its finite differences over
        # n = 0..D+1 vanish at order D + 1, D the nesting depth of f in v.
        def f_depth(w, memo):
            return max((1 + memo[atom.argument] for mono, _ in w.items
                        for atom in mono.atoms if isinstance(atom, AppAtom)),
                       default=0)

        rng = random.Random(5)
        violations, depths = 0, set()
        for _ in range(500):
            carrier = rng.choice((N1, N2, L2))
            v = normalize(random_term_rng(rng, carrier, 4, 3, 4), carrier)
            depth = ArgumentMemo(f_depth)[v]
            depths.add(depth)
            coeffs = [dict(d_n(v, n).items) for n in range(depth + 2)]
            for key in set().union(*coeffs):
                diffs = [c.get(key, 0) for c in coeffs]
                for _ in range(depth + 1):
                    diffs = [b - a for a, b in zip(diffs, diffs[1:])]
                violations += diffs != [0]
        assert violations == 0
        assert depths == {0, 1, 2, 3}

    def test_interchange_lift_example(self):
        lifted = tensor_bimap(d_n(nf("x[1]*x[1]"), 0), [
            (lambda mono: d_n(NormalForm(N1, ((mono, 1),)), 0), (L2, N1)),
            (lambda i: MonoidElem.generator(N1, i), (N1,)),
        ])
        assert lifted == TensorElem.from_dict(
            (L2, N1, N1), {(ONE_MONOMIAL, 0, 0): 2})


class TestDnLevel2:
    def test_level2_examples(self):
        t = d_n(nf("y[x[1]]", L2), 3)
        assert t == TensorElem.from_dict(
            (MonomialBasis(L2), L2), {(ONE_MONOMIAL, Monomial((G0,))): 1})
        t = d_n(nf("g(y[1])", L2), 3)
        assert t == TensorElem.from_dict(
            (MonomialBasis(L2), L2), {(ONE_MONOMIAL, ONE_MONOMIAL): 3})


class TestSymDerive:
    def test_two_variable_example(self):
        a = nf("x[1,0]*x[1,0]*x[0,1]", N2)
        assert sym_derive(a) == TensorElem.from_dict(
            (MonomialBasis(N2), N2),
            {(Monomial((G0, G1)), 0): 2, (Monomial((G0, G0)), 1): 1})

    def test_rejects_operation_values(self):
        with pytest.raises(SymmetricModeError):
            sym_derive(nf("f(x[1])"))

    def test_is_the_common_value_of_the_family(self):
        rng = random.Random(17)
        for _ in range(60):
            carrier = FreeMonoid(rng.choice((1, 2)))
            a = normalize(random_term_rng(rng, carrier, 4, 0, 4), carrier)
            common = sym_derive(a)
            assert all(d_n(a, n) == common for n in (0, 1, 2, 5))

    def test_works_over_a_carrier_without_the_operation(self):
        a = nf("x[1,0]*x[0,1]*x[0,1]", N2)
        assert sym_derive(a) == TensorElem.from_dict(
            (MonomialBasis(N2), N2),
            {(Monomial((G1, G1)), 0): 1, (Monomial((G0, G1)), 1): 2})


class TestSeededDerivation:
    def test_cube_plus_linear_with_square_seed(self):
        a = nf("x[1]*x[1]*x[1]+3*x[1]")
        seed = nf("x[1]*x[1]")
        expected = nf("3*(x[1]*x[1]*x[1]*x[1])+3*(x[1]*x[1])")
        assert seeded_derivation(a, seed) == expected

    def test_power_rule(self):
        seed = nf("x[1]+1")
        power = NormalForm.one(N1)
        x = nf("x[1]")
        for k in range(1, 6):
            previous, power = power, power * x
            assert seeded_derivation(power, seed) == \
                NormalForm.from_dict(N1, dict(previous.items)) * seed * \
                NormalForm.from_dict(N1, {ONE_MONOMIAL: k})

    def test_leibniz_property(self):
        rng = random.Random(29)
        for _ in range(60):
            p = normalize(random_term_rng(rng, N1, 3, 0, 4), N1)
            q = normalize(random_term_rng(rng, N1, 3, 0, 4), N1)
            seed = normalize(random_term_rng(rng, N1, 2, 0, 3), N1)
            assert seeded_derivation(p * q, seed) == \
                seeded_derivation(p, seed) * q + p * seeded_derivation(q, seed)

    def test_constants_map_to_zero(self):
        assert seeded_derivation(nf("7"), nf("x[1]")).is_zero()

    def test_error_cases(self):
        with pytest.raises(ValueError, match="rank-1"):
            seeded_derivation(nf("x[1,0]", N2), nf("x[1,0]", N2))
        with pytest.raises(SymmetricModeError):
            seeded_derivation(nf("f(x[1])"), nf("x[1]"))
        with pytest.raises(SymmetricModeError):
            seeded_derivation(nf("x[1]"), nf("f(x[1])"))
        with pytest.raises(ValueError, match="same carrier"):
            seeded_derivation(nf("x[1]"), nf("x[1,0]", N2))
