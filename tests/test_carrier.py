"""Carriers, elements, homomorphisms and tensors."""

import random

import pytest

from rigdiff.carrier import (
    CarrierMismatch, FreeMonoid, MonoidElem, MonoidHom, MonomialBasis,
    TensorElem, elem_add, elem_as_tensor, elem_scale, hom_apply,
    tensor_add, tensor_bimap, tensor_concat, tensor_permute, tensor_pure,
    tensor_scale,
)
from rigdiff.gen import random_elem, random_hom
from rigdiff.normal import (
    GenAtom, Monomial, NormalForm, ONE_MONOMIAL, apply_functor, nf_add, nf_scale, nf_var,
)

N1 = FreeMonoid(1)
N2 = FreeMonoid(2)
N3 = FreeMonoid(3)


def e(carrier, coeffs):
    return MonoidElem.from_dict(carrier, coeffs)


def test_rank_must_be_a_natural():
    # the rule check_key applies to generator indices: an int, not a bool
    for rank in (-3, 2.5, 2.0, True, False, "3", None):
        with pytest.raises(ValueError, match=f"natural, got {rank!r}"):
            FreeMonoid(rank)
    assert MonoidElem.zero(FreeMonoid(0)).is_zero()  # rank 0 stays legal


class TestMonoidElem:
    def test_from_dict_sorts_and_drops_zeros(self):
        a = e(N3, {2: 4, 0: 1, 1: 0})
        assert a.items == ((0, 1), (2, 4))

    def test_from_dict_rejects_negatives(self):
        with pytest.raises(ValueError):
            e(N1, {0: -1})

    def test_from_dict_rejects_foreign_keys(self):
        with pytest.raises(CarrierMismatch):
            e(N2, {2: 1})
        with pytest.raises(CarrierMismatch):
            e(N2, {"x": 1})

    def test_bool_is_not_a_generator_index(self):
        for key in (True, False):
            with pytest.raises(CarrierMismatch):
                MonoidElem.generator(N2, key)
            with pytest.raises(CarrierMismatch):
                N2.check_key(key)

    def test_zero_and_generator(self):
        assert MonoidElem.zero(N2).is_zero()
        g = MonoidElem.generator(N2, 1)
        assert g == e(N2, {1: 1}) and g.coeff(0) == 0

    def test_add_is_pointwise(self):
        a, b = e(N2, {0: 1, 1: 2}), e(N2, {1: 5})
        assert elem_add(a, b) == e(N2, {0: 1, 1: 7})
        assert a + b == elem_add(a, b)

    def test_add_commutes_and_associates(self):
        a, b, c = e(N3, {0: 2}), e(N3, {1: 1, 2: 4}), e(N3, {0: 1, 1: 1})
        assert elem_add(a, b) == elem_add(b, a)
        assert elem_add(elem_add(a, b), c) == elem_add(a, elem_add(b, c))

    def test_add_rejects_mixed_carriers(self):
        with pytest.raises(CarrierMismatch):
            elem_add(e(N1, {0: 1}), e(N2, {0: 1}))

    def test_scale(self):
        a = e(N2, {0: 2, 1: 3})
        assert elem_scale(a, 2) == e(N2, {0: 4, 1: 6})
        assert elem_scale(a, 0).is_zero()
        with pytest.raises(ValueError):
            elem_scale(a, -1)

    def test_monomial_basis_rejects_integer_keys(self):
        with pytest.raises(CarrierMismatch):
            MonoidElem.from_dict(MonomialBasis(N1), {0: 1})

    def test_monomial_basis_rejects_atom_keys(self):
        # an atom has an order key but is not a monomial
        with pytest.raises(CarrierMismatch):
            MonoidElem.generator(MonomialBasis(N1), GenAtom(0))

    def test_levels(self):
        assert N1.level == 1
        assert MonomialBasis(N1).level == 2
        assert MonomialBasis(MonomialBasis(N1)).level == 3


class TestMonoidHom:
    def test_from_matrix_shape_checks(self):
        with pytest.raises(ValueError):
            MonoidHom.from_matrix(N2, N2, [[1, 0]])
        with pytest.raises(ValueError):
            MonoidHom.from_matrix(N2, N2, [[1], [0]])

    def test_coefficients_must_be_positive_ints(self):
        # a float, a bool or a string passes for a coefficient nowhere: not
        # in a matrix, not in from_dict and not in a hom's images
        for bad in (2.0, True, "3"):
            with pytest.raises(ValueError, match=f"must be a natural, got {bad!r}"):
                MonoidHom.from_matrix(N1, N1, [[bad]])
        for bad in (2.0, True):
            with pytest.raises(ValueError, match=f"positive int, got {bad!r}"):
                e(N1, {0: bad})
            with pytest.raises(ValueError, match=f"positive int, got {bad!r}"):
                tensor_pure([MonoidElem(N1, ((0, bad),))])
        float_image = MonoidHom(N1, N1, lambda k: MonoidElem(N1, ((0, 2.0),)))
        with pytest.raises(ValueError, match="positive int, got 2.0"):
            apply_functor(float_image, nf_var(e(N1, {0: 1})))

    def test_matrix_action(self):
        h = MonoidHom.from_matrix(N2, N2, [[1, 2], [0, 3]])
        assert hom_apply(h, e(N2, {0: 1, 1: 1})) == e(N2, {0: 1, 1: 5})

    def test_identity_and_compose(self):
        h = MonoidHom.from_matrix(N2, N3, [[1, 0, 2], [0, 1, 1]])
        k = MonoidHom.from_matrix(N3, N1, [[1], [2], [3]])
        a = e(N2, {0: 2, 1: 5})
        assert hom_apply(MonoidHom.identity(N2), a) == a
        assert hom_apply(k.compose(h), a) == hom_apply(k, hom_apply(h, a))

    def test_compose_carrier_check(self):
        h = MonoidHom.from_matrix(N2, N3, [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(CarrierMismatch):
            h.compose(h)

    def test_hom_apply_domain_check(self):
        h = MonoidHom.from_matrix(N2, N2, [[1, 0], [0, 1]])
        with pytest.raises(CarrierMismatch):
            hom_apply(h, e(N1, {0: 1}))

    def test_additive_on_samples(self):
        rng = random.Random(7)
        for _ in range(50):
            h = random_hom(rng, N2, N3)
            a, b = random_elem(rng, N2, 4), random_elem(rng, N2, 4)
            assert hom_apply(h, elem_add(a, b)) == \
                elem_add(hom_apply(h, a), hom_apply(h, b))
            assert hom_apply(h, MonoidElem.zero(N2)).is_zero()


class TestTensorElem:
    def test_from_dict_checks_width_and_keys(self):
        with pytest.raises(CarrierMismatch):
            TensorElem.from_dict((N1, N1), {(0,): 1})
        with pytest.raises(CarrierMismatch):
            TensorElem.from_dict((N1, N2), {(0, 2): 1})
        with pytest.raises(ValueError):
            TensorElem.from_dict((N1,), {(0,): -2})

    def test_add_and_scale(self):
        t = TensorElem.from_dict((N2, N2), {(0, 1): 2})
        s = TensorElem.from_dict((N2, N2), {(0, 1): 1, (1, 1): 3})
        assert tensor_add(t, s) == TensorElem.from_dict(
            (N2, N2), {(0, 1): 3, (1, 1): 3})
        assert t + s == tensor_add(t, s)
        assert tensor_scale(s, 2) == TensorElem.from_dict(
            (N2, N2), {(0, 1): 2, (1, 1): 6})
        assert tensor_scale(s, 0).is_zero()
        with pytest.raises(CarrierMismatch):
            tensor_add(t, TensorElem.zero((N2,)))

    def test_elem_as_tensor(self):
        t = elem_as_tensor(e(N2, {0: 2, 1: 1}))
        assert t.factors == (N2,)
        assert t.coeff((0,)) == 2 and t.coeff((1,)) == 1

    def test_pure_expands_multilinearly(self):
        t = tensor_pure([e(N2, {0: 2, 1: 1}), e(N1, {0: 3})])
        assert t == TensorElem.from_dict((N2, N1), {(0, 0): 6, (1, 0): 3})

    def test_pure_is_bilinear(self):
        a, b, c = e(N2, {0: 1}), e(N2, {1: 2}), e(N1, {0: 3})
        assert tensor_pure([elem_add(a, b), c]) == \
            tensor_add(tensor_pure([a, c]), tensor_pure([b, c]))

    def test_pure_of_zero_factor_is_zero(self):
        assert tensor_pure([e(N2, {0: 1}), MonoidElem.zero(N1)]).is_zero()

    def test_products_check_each_operand(self):
        # the raw constructors check nothing; the products check keys and order
        good = e(N1, {0: 3})
        x, xx = (Monomial([GenAtom(0)] * k) for k in (1, 2))
        bad = [
            (MonoidElem(N2, ((7, 1),)), CarrierMismatch, "generator index"),
            (MonoidElem(N2, ((1, 1), (0, 2))), ValueError, "strictly increasing"),
            (MonoidElem(N2, ((0, 1), (0, 2))), ValueError, "strictly increasing"),
            (MonoidElem(MonomialBasis(N1), ((xx, 1), (x, 1))), ValueError, "strictly increasing"),
        ]
        for elem, error, match in bad:
            for elems in ([elem], [good, elem], [MonoidElem.zero(N1), elem]):
                with pytest.raises(error, match=match):
                    tensor_pure(elems)
            t, ok = elem_as_tensor(elem), elem_as_tensor(good)
            for pair in ((t, ok), (ok, t)):
                with pytest.raises(error, match=match):
                    tensor_concat(*pair)
        with pytest.raises(CarrierMismatch, match="key width"):
            tensor_concat(TensorElem((N2,), (((0, 1), 1),)), elem_as_tensor(good))

    def test_concat_multiplies_coefficients(self):
        t = TensorElem.from_dict((N1,), {(0,): 2})
        s = TensorElem.from_dict((N2,), {(1,): 3})
        assert tensor_concat(t, s) == TensorElem.from_dict((N1, N2), {(0, 1): 6})

    def test_permute_moves_factors(self):
        t = TensorElem.from_dict((N1, N2, N3), {(0, 1, 2): 5})
        p = tensor_permute(t, (2, 0, 1))
        assert p.factors == (N3, N1, N2)
        assert p.coeff((2, 0, 1)) == 5

    def test_permute_validates(self):
        t = TensorElem.from_dict((N1, N2), {(0, 1): 1})
        with pytest.raises(ValueError):
            tensor_permute(t, (0, 0))

    def test_permute_inverse_round_trip(self):
        t = TensorElem.from_dict((N1, N2, N3), {(0, 0, 1): 2, (0, 1, 2): 7})
        assert tensor_permute(tensor_permute(t, (1, 2, 0)), (2, 0, 1)) == t

    def test_bimap_applies_per_factor(self):
        t = TensorElem.from_dict((N2, N1), {(1, 0): 3})
        doubled = tensor_bimap(t, [
            (lambda k: MonoidElem.from_dict(N2, {k: 2}), (N2,)),
            (lambda k: MonoidElem.from_dict(N1, {k: 2}), (N1,)),
        ])
        assert doubled == TensorElem.from_dict((N2, N1), {(1, 0): 12})

    def test_bimap_can_widen_factors(self):
        t = TensorElem.from_dict((N1,), {(0,): 2})
        widened = tensor_bimap(t, [
            (lambda k: tensor_pure([MonoidElem.generator(N1, k),
                                    MonoidElem.generator(N1, k)]), (N1, N1)),
        ])
        assert widened == TensorElem.from_dict((N1, N1), {(0, 0): 2})

    def test_bimap_checks_map_count_and_output_factors(self):
        t = TensorElem.from_dict((N1, N1), {(0, 0): 1})
        with pytest.raises(ValueError):
            tensor_bimap(t, [(lambda k: MonoidElem.generator(N1, k), (N1,))])
        with pytest.raises(CarrierMismatch):
            tensor_bimap(t, [
                (lambda k: MonoidElem.generator(N1, k), (N2,)),
                (lambda k: MonoidElem.generator(N1, k), (N1,)),
            ])

    def test_bimap_of_zero_keeps_declared_factors(self):
        t = TensorElem.zero((N1,))
        out = tensor_bimap(t, [(lambda k: MonoidElem.generator(N2, 0), (N2,))])
        assert out.is_zero() and out.factors == (N2,)


# MonoidElem, TensorElem and NormalForm share one coefficient-map core; each
# case is (type, its add, its scale, a tag, another tag, three keys in order).
X0 = Monomial((GenAtom(0),))
ZEROS = [MonoidElem.zero(N1), TensorElem.zero((N1,)), NormalForm.zero(N1)]


@pytest.mark.parametrize("cls, add, scale, tag, other_tag, keys", [
    (MonoidElem, elem_add, elem_scale, N3, N2, [0, 1, 2]),
    (TensorElem, tensor_add, tensor_scale, (N2, N2), (N2, N1), [(0, 0), (0, 1), (1, 0)]),
    (NormalForm, nf_add, nf_scale, N1, N2, [ONE_MONOMIAL, X0, Monomial((GenAtom(0),) * 2)]),
], ids=["MonoidElem", "TensorElem", "NormalForm"])
def test_coefficient_map_contract(cls, add, scale, tag, other_tag, keys):
    a = cls.from_dict(tag, {keys[2]: 3, keys[1]: 0, keys[0]: 2})
    assert a.items == ((keys[0], 2), (keys[2], 3))
    assert a.coeff(keys[1]) == 0 and a.coeff(keys[2]) == 3
    with pytest.raises(ValueError):
        cls.from_dict(tag, {keys[0]: -1})
    assert scale(a, 0) == cls.zero(tag) and scale(a, 0).is_zero()
    assert add(a, cls.zero(tag)) == a + cls.zero(tag) == a
    with pytest.raises(CarrierMismatch):
        add(a, cls.zero(other_tag))
    for other in ZEROS:
        if type(other) is not cls:
            with pytest.raises(CarrierMismatch):
                add(a, other)
            with pytest.raises(CarrierMismatch):
                other + a
