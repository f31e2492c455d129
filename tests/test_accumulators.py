"""The one-dict accumulators of apply_functor, mu, hom_apply, tensor_bimap and
seeded_derivation, against reference folds and at their edge cases.

Each reference below sums its result step by step with ``nf_add``,
``elem_add`` or ``tensor_add``, expanding every monomial and every input key
on its own; the engine adds into one dict and builds the value once,
sharing the products of common monomial prefixes as packed keys
(apply_functor, the only rig map that packs keys), collapsing each monomial
with one sort (mu) and mapping one factor at a time (tensor_bimap).  Both
must give structurally equal values.
"""

import itertools
import math
import random

import pytest

from rigdiff.carrier import (
    CarrierMismatch, FreeMonoid, MonoidElem, MonoidHom, MonomialBasis,
    TensorElem, elem_add, elem_as_tensor, elem_scale, hom_apply, tensor_add,
    tensor_bimap, tensor_concat, tensor_pure, tensor_scale,
)
from rigdiff.derive import d_n, seeded_derivation
from rigdiff.gen import random_elem, random_hom, random_term_rng
from rigdiff.modality import mu
from rigdiff.normal import (
    AppAtom, GenAtom, Monomial, NormalForm, apply_functor, as_monoid_element,
    nf_add, nf_from_monomial, nf_mul, nf_scale, nf_selfmap, nf_var, normalize,
    render_nf,
)
from rigdiff.text import parse
from test_sharing import f_dense_value, lifted_hom

N1, N2, N3 = FreeMonoid(1), FreeMonoid(2), FreeMonoid(3)
COLLIDE = MonoidHom.from_matrix(N2, N1, [[1], [1]])


def nf(src, carrier=N1):
    return normalize(parse(src, carrier), carrier)


# --- reference folds -------------------------------------------------------

def ref_apply_functor(h, a):
    out = NormalForm.zero(h.codomain)
    for mono, c in a.items:
        prod = NormalForm.one(h.codomain)
        for atom in mono.atoms:
            if isinstance(atom, GenAtom):
                img = nf_var(h.image_of(atom.index))
            else:
                img = nf_selfmap(ref_apply_functor(h, atom.argument))
            prod = nf_mul(prod, img)
        out = nf_add(out, nf_scale(prod, c))
    return out


def ref_mu(a):
    base = a.carrier.base
    out = NormalForm.zero(base)
    for mono, c in a.items:
        prod = NormalForm.one(base)
        for atom in mono.atoms:
            if isinstance(atom, GenAtom):
                img = nf_from_monomial(base, atom.index)
            else:
                img = nf_selfmap(ref_mu(atom.argument))
            prod = nf_mul(prod, img)
        out = nf_add(out, nf_scale(prod, c))
    return out


def ref_hom_apply(h, a):
    out = MonoidElem.zero(h.codomain)
    for key, c in a.items:
        out = elem_add(out, elem_scale(h.image_of(key), c))
    return out


def ref_tensor_bimap(a, maps):
    out_factors = tuple(f for _, fs in maps for f in fs)
    result = TensorElem.zero(out_factors)
    for key, c in a.items:
        piece = TensorElem((), (((), 1),))
        for (fn, _), k in zip(maps, key):
            img = fn(k)
            if isinstance(img, MonoidElem):
                img = elem_as_tensor(img)
            piece = tensor_concat(piece, img)
        result = tensor_add(result, tensor_scale(piece, c))
    return result


def ref_seeded_derivation(a, seed):
    out = NormalForm.zero(a.carrier)
    for mono, c in a.items:
        if mono.degree:
            rest = Monomial(mono.atoms[:-1])
            term = nf_scale(nf_from_monomial(a.carrier, rest), c * mono.degree)
            out = nf_add(out, nf_mul(term, seed))
    return out


def naturality_maps(h):
    """Factor maps carrying d_n(p) along h, as in the naturality law."""
    cod2 = MonomialBasis(h.codomain)
    return [(lambda mono: as_monoid_element(
                apply_functor(h, nf_from_monomial(h.domain, mono))), (cod2,)),
            (h.image_of, (h.codomain,))]


# --- agreement on seeded inputs --------------------------------------------

def _seeded_values(seed, count=200):
    rng = random.Random(seed)
    for _ in range(count):
        carrier = FreeMonoid(rng.randint(1, 3))
        a = normalize(random_term_rng(rng, carrier, 4, 2, 4), carrier)
        b = normalize(random_term_rng(rng, carrier, 3, 1, 3), carrier)
        h = random_hom(rng, carrier, FreeMonoid(rng.randint(1, 3)))
        yield rng, carrier, nf_mul(a, b) if rng.random() < 0.5 else nf_add(a, b), h


def test_apply_functor_matches_reference_fold():
    for _, _, a, h in _seeded_values(101):
        assert apply_functor(h, a) == ref_apply_functor(h, a)
    # f-dense values at level 1, and at level 2 along the lifted hom
    rng = random.Random(106)
    for _ in range(100):
        carrier = FreeMonoid(rng.randint(1, 3))
        h = random_hom(rng, carrier, FreeMonoid(rng.randint(1, 3)))
        for hom in (h, lifted_hom(h)):
            a = f_dense_value(rng, hom.domain)
            assert apply_functor(hom, a) == ref_apply_functor(hom, a)


def test_mu_matches_reference_fold():
    rng = random.Random(102)
    for _ in range(200):
        level2 = MonomialBasis(FreeMonoid(rng.randint(1, 3)))
        a = normalize(random_term_rng(rng, level2, 4, 2, 3), level2)
        assert mu(a) == ref_mu(a)
        a = f_dense_value(rng, level2)
        assert mu(a) == ref_mu(a)


def test_hom_apply_matches_reference_fold():
    for rng, carrier, a, h in _seeded_values(103):
        elem = random_elem(rng, carrier, 5)
        assert hom_apply(h, elem) == ref_hom_apply(h, elem)
        lifted = MonoidHom(MonomialBasis(carrier), MonomialBasis(h.codomain),
                           naturality_maps(h)[0][0])
        assert hom_apply(lifted, as_monoid_element(a)) == \
            ref_hom_apply(lifted, as_monoid_element(a))


def test_tensor_bimap_matches_reference_fold():
    for rng, _, a, h in _seeded_values(104):
        d = d_n(a, rng.choice((0, 1, 2, 3)))
        maps = naturality_maps(h)
        assert tensor_bimap(d, maps) == ref_tensor_bimap(d, maps)


def test_tensor_bimap_on_three_factors_matches_reference_fold():
    # one of the three maps widens its factor to two, at a random position
    rng = random.Random(107)
    for _ in range(200):
        carrier = FreeMonoid(rng.randint(1, 3))
        a = f_dense_value(rng, carrier) if rng.random() < 0.3 else \
            normalize(random_term_rng(rng, carrier, 4, 1, 3), carrier)
        third = FreeMonoid(rng.randint(1, 3))
        t = tensor_concat(d_n(a, rng.choice((0, 1, 2))),
                          elem_as_tensor(random_elem(rng, third, 3)))
        homs = [random_hom(rng, c, FreeMonoid(rng.randint(1, 3))) for c in (carrier, third)]
        maps = naturality_maps(homs[0]) + [(homs[1].image_of, (homs[1].codomain,))]
        wide = rng.randrange(3)
        fn, (f,) = maps[wide]
        maps[wide] = (lambda k, fn=fn: tensor_concat(elem_as_tensor(fn(k)),
                                                     elem_as_tensor(fn(k))), (f, f))
        assert tensor_bimap(t, maps) == ref_tensor_bimap(t, maps)


def _expanded(factors, parts):
    """``from_dict`` of the product of (key tuple, coeff) lists, expanded
    term by term with ``itertools.product``."""
    acc = {}
    for combo in itertools.product(*parts):
        key = sum((k for k, _ in combo), ())
        acc[key] = acc.get(key, 0) + math.prod(c for _, c in combo)
    return TensorElem.from_dict(factors, acc)


def test_tensor_products_join_sorted_keys():
    # joined keys of sorted maps are distinct and in order, so both products
    # equal from_dict of their expansion item for item (== compares the items)
    rng = random.Random(223)

    def draw():
        r = rng.random()
        if r < 0.1:
            return MonoidElem.zero(N2)
        if r < 0.5:
            return random_elem(rng, N2, 3)
        # monomial keys, most of them with f atoms
        return as_monoid_element(f_dense_value(rng, N2))

    empty = TensorElem((), (((), 1),))
    multi_key_f_factors = 0
    for _ in range(300):
        elems = [draw() for _ in range(rng.randint(0, 3))]
        multi_key_f_factors += sum(len(e.items) > 1 and any(
            isinstance(x, AppAtom) for m, _ in e.items for x in m.atoms)
            for e in elems if e.carrier != N2)
        pure = tensor_pure(elems)
        assert pure == _expanded(tuple(e.carrier for e in elems),
                                 [[((k,), c) for k, c in e.items] for e in elems])
        for b in (tensor_pure([draw(), draw()]), empty, TensorElem.zero((N2,))):
            assert tensor_concat(pure, b) == _expanded(pure.factors + b.factors,
                                                       [pure.items, b.items])
            assert tensor_concat(b, pure) == _expanded(b.factors + pure.factors,
                                                       [b.items, pure.items])
    assert multi_key_f_factors > 100


def test_seeded_derivation_matches_reference_fold():
    rng = random.Random(105)
    for _ in range(200):
        a = normalize(random_term_rng(rng, N1, 5, 0, 4), N1)
        seed = normalize(random_term_rng(rng, N1, 3, 0, 3), N1)
        assert seeded_derivation(a, seed) == ref_seeded_derivation(a, seed)


# --- edge cases ------------------------------------------------------------

class TestZeroInput:
    def test_apply_functor(self):
        h = MonoidHom.from_matrix(N2, N3, [[1, 0, 2], [0, 1, 1]])
        out = apply_functor(h, NormalForm.zero(N2))
        assert out.is_zero() and out.carrier == N3

    def test_mu(self):
        out = mu(NormalForm.zero(MonomialBasis(N2)))
        assert out.is_zero() and out.carrier == N2

    def test_hom_apply(self):
        out = hom_apply(COLLIDE, MonoidElem.zero(N2))
        assert out.is_zero() and out.carrier == N1

    def test_tensor_bimap(self):
        h = MonoidHom.from_matrix(N2, N3, [[1, 0, 2], [0, 1, 1]])
        out = tensor_bimap(TensorElem.zero((MonomialBasis(N2), N2)), naturality_maps(h))
        assert out.is_zero() and out.factors == (MonomialBasis(N3), N3)

    def test_tensor_bimap_widening(self):
        out = tensor_bimap(TensorElem.zero((N1,)), [
            (lambda k: tensor_pure([MonoidElem.generator(N2, 0)] * 2), (N2, N2))])
        assert out.is_zero() and out.factors == (N2, N2)
        out = tensor_bimap(TensorElem.zero((N1, N1, N2)), [
            (lambda k: MonoidElem.generator(N3, 0), (N3,)),
            (lambda k: tensor_pure([MonoidElem.generator(N2, 0)] * 2), (N2, N2)),
            (lambda k: MonoidElem.generator(N1, 0), (N1,))])
        assert out.is_zero() and out.factors == (N3, N2, N2, N1)

    def test_seeded_derivation(self):
        out = seeded_derivation(NormalForm.zero(N1), nf("x[1]"))
        assert out.is_zero() and out.carrier == N1


class TestCollisionsAreSummed:
    def test_apply_functor(self):
        a = nf("3*x[1,0]*x[0,1] + 2*x[1,0]*x[1,0] + x[0,1]", N2)
        assert apply_functor(COLLIDE, a) == nf("5*x[1]*x[1] + x[1]")

    def test_mu(self):
        level2 = MonomialBasis(N1)
        a = nf("2*y[x[1]]*y[x[1]] + 3*y[x[1]*x[1]]", level2)
        assert mu(a) == nf("5*x[1]*x[1]")

    def test_hom_apply(self):
        elem = MonoidElem.from_dict(N2, {0: 2, 1: 3})
        assert hom_apply(COLLIDE, elem) == MonoidElem.from_dict(N1, {0: 5})

    def test_tensor_bimap(self):
        x0, x1 = (Monomial((GenAtom(i),)) for i in (0, 1))
        t = TensorElem.from_dict((MonomialBasis(N2), N2), {(x0, 0): 2, (x1, 1): 3})
        out = tensor_bimap(t, naturality_maps(COLLIDE))
        assert out == TensorElem.from_dict((MonomialBasis(N1), N1),
                                           {(Monomial((GenAtom(0),)), 0): 5})

    def test_seeded_derivation(self):
        # d(x^2) = 2x(x+1) and d(x) = x+1 share the monomial x
        assert seeded_derivation(nf("x[1]*x[1] + x[1]"), nf("x[1]+1")) == \
            nf("2*x[1]*x[1] + 3*x[1] + 1")


class TestChecksStayInPlace:
    def test_bimap_factor_map_with_wrong_factors(self):
        t = TensorElem.from_dict((N1,), {(0,): 1})
        with pytest.raises(CarrierMismatch, match="declared factors"):
            tensor_bimap(t, [(lambda k: tensor_pure([MonoidElem.generator(N1, k)] * 2),
                              (N1, N2))])
        with pytest.raises(CarrierMismatch, match="declared factors"):
            tensor_bimap(t, [(lambda k: MonoidElem.generator(N2, 0), (N1,))])
        # the middle of three maps is wrong; the others are fine
        t3 = TensorElem.from_dict((N1, N1, N1), {(0, 0, 0): 1})
        ok = (lambda k: MonoidElem.generator(N1, k), (N1,))
        with pytest.raises(CarrierMismatch, match="declared factors"):
            tensor_bimap(t3, [ok, (lambda k: MonoidElem.generator(N1, k), (N1, N1)), ok])

    def test_bimap_checks_keys_in_the_result(self):
        t = TensorElem.from_dict((N1,), {(0,): 1})
        with pytest.raises(CarrierMismatch):
            tensor_bimap(t, [(lambda k: MonoidElem(N2, ((7, 1),)), (N2,))])

    def test_hom_with_images_in_the_wrong_carrier(self):
        # keys 0 and 1 are valid in both carriers; only the carriers differ
        wrong = MonoidHom(N2, N2, lambda k: MonoidElem.generator(N3, k))
        with pytest.raises(CarrierMismatch):
            hom_apply(wrong, MonoidElem.generator(N2, 1))
        with pytest.raises(CarrierMismatch):
            apply_functor(wrong, nf("x[0,1]", N2))

    def test_hom_apply_checks_keys_in_the_result(self):
        bad = MonoidHom(N1, N2, lambda k: MonoidElem(N2, ((5, 1),)))
        with pytest.raises(CarrierMismatch):
            hom_apply(bad, MonoidElem.generator(N1, 0))

    def test_apply_functor_checks_image_keys(self):
        bad = MonoidHom(N1, N2, lambda k: MonoidElem(N2, ((7, 1),)))
        with pytest.raises(CarrierMismatch):
            apply_functor(bad, nf("x[1]"))

    def test_domain_checks(self):
        with pytest.raises(CarrierMismatch):
            apply_functor(COLLIDE, nf("x[1]"))
        with pytest.raises(CarrierMismatch):
            hom_apply(COLLIDE, MonoidElem.generator(N1, 0))
        with pytest.raises(CarrierMismatch):
            mu(nf("x[1]"))

    def test_mu_with_an_operation_argument_over_another_carrier(self):
        stray = AppAtom(nf("y[x[1,0]]", MonomialBasis(N2)))
        a = NormalForm(MonomialBasis(N1), ((Monomial((stray,)), 1),))
        with pytest.raises(CarrierMismatch):
            mu(a)


def test_seeded_derivation_frozen_example():
    out = seeded_derivation(nf("x[1]*x[1]*x[1]+3*x[1]"), nf("x[1]*x[1]"))
    assert render_nf(out) == "3*x[0]*x[0] + 3*x[0]*x[0]*x[0]*x[0]"
