"""Unit, collapse, tensor-level multiplication and evaluation."""

import random

import pytest

from oracle import term_value
from rigdiff.carrier import (
    CarrierMismatch, FreeMonoid, MonoidElem, MonomialBasis, TensorElem,
    elem_as_tensor, tensor_concat, tensor_pure,
)
from rigdiff.gen import random_term_rng
from rigdiff.modality import (
    CATALOG, MAX_EVAL_BITS, RigWithSelfMap, eta, evaluate, mu, nabla, nabla_at,
    nf_as_tensor, rig_from_term, unit,
)
from rigdiff.normal import (
    GenAtom, Monomial, NormalForm, ONE_MONOMIAL, as_monoid_element, nf_add,
    nf_mul, nf_selfmap, normalize,
)
from rigdiff.text import parse

N1 = FreeMonoid(1)
N2 = FreeMonoid(2)
L2 = MonomialBasis(N1)


def nf(src, carrier=N1):
    return normalize(parse(src, carrier), carrier)


def m(value):
    return as_monoid_element(value)


class TestUnitAndEta:
    def test_unit_is_the_variable(self):
        assert unit(MonoidElem.from_dict(N1, {0: 2})) == nf("x[2]")
        assert unit(MonoidElem.zero(N2)).is_zero()

    def test_eta_counts_ones(self):
        assert eta(N1, 3) == nf("3")
        assert eta(N1, 0).is_zero()
        assert eta(N2, 1) == NormalForm.one(N2)
        with pytest.raises(ValueError):
            eta(N1, -2)


class TestNabla:
    def test_multiplies_the_two_factors(self):
        pair = tensor_pure([m(nf("x[1]+1")), m(nf("x[1]"))])
        assert nabla(pair) == nf("x[1]*x[1]+x[1]")

    def test_zero_tensor_multiplies_to_zero(self):
        assert nabla(TensorElem.zero((L2, L2))).is_zero()

    def test_needs_two_equal_monomial_basis_factors(self):
        with pytest.raises(CarrierMismatch):
            nabla(TensorElem.zero((L2,)))
        with pytest.raises(CarrierMismatch):
            nabla(TensorElem.zero((N1, N1)))
        with pytest.raises(CarrierMismatch):
            nabla(TensorElem.zero((L2, MonomialBasis(N2))))

    @pytest.mark.parametrize("carrier", [N2, L2], ids=["level1", "level2"])
    def test_is_the_rig_product_on_drawn_values(self, carrier):
        rng = random.Random(17)

        def draw():  # (1 + x) * f(y) + z, so it always has an f atom
            x, y, z = (normalize(random_term_rng(rng, carrier, 3, 1, 3), carrier)
                       for _ in range(3))
            return nf_add(nf_mul(nf_add(NormalForm.one(carrier), x), nf_selfmap(y)), z)

        for _ in range(100):
            a, b = draw(), draw()
            assert nabla(tensor_pure([m(a), m(b)])) == nf_mul(a, b)

    def test_nabla_at_contracts_adjacent_factors(self):
        three = tensor_concat(
            tensor_pure([m(nf("x[1]")), m(nf("x[1]+1"))]),
            elem_as_tensor(MonoidElem.generator(N1, 0)))
        contracted = nabla_at(three, 0)
        assert contracted.factors == (L2, N1)
        assert contracted == tensor_pure(
            [m(nf("x[1]*x[1]+x[1]")), MonoidElem.generator(N1, 0)])

    def test_nabla_at_position_checks(self):
        three = tensor_concat(tensor_pure([m(nf("x[1]")), m(nf("1"))]),
                              elem_as_tensor(MonoidElem.generator(N1, 0)))
        with pytest.raises(ValueError):
            nabla_at(three, 2)
        with pytest.raises(CarrierMismatch):
            nabla_at(three, 1)

    def test_nf_as_tensor_shape(self):
        t = nf_as_tensor(nf("2*x[1]+1"))
        assert t.factors == (L2,)
        assert t.coeff((ONE_MONOMIAL,)) == 1
        assert t.coeff((Monomial((GenAtom(0),)),)) == 2


class TestMu:
    def test_level2_operation_becomes_the_level1_one(self):
        assert mu(nf("g(y[1])", L2)) == nf("f(1)")

    def test_generator_atoms_are_read_as_their_monomials(self):
        assert mu(nf("y[x[2]]", L2)) == nf("2*x[1]")
        assert mu(nf("y[x[1]+1]", L2)) == nf("x[1]+1")
        assert mu(nf("y[x[1]]*y[x[1]]", L2)) == nf("x[1]*x[1]")

    def test_operations_collapse_through_keys(self):
        assert mu(nf("g(y[f(x[1])])", L2)) == nf("f(f(x[1]))")

    def test_needs_a_constructed_carrier(self):
        with pytest.raises(CarrierMismatch):
            mu(nf("x[1]"))

    def test_is_additive_and_multiplicative(self):
        a2, b2 = nf("y[x[1]]+2", L2), nf("g(y[1])*y[x[2]]", L2)
        assert mu(a2 + b2) == mu(a2) + mu(b2)
        assert mu(a2 * b2) == mu(a2) * mu(b2)


class TestEvaluate:
    def test_pinned_square_example(self):
        assert evaluate(nf("f(x[1])"), CATALOG["square"], {0: 3}) == 9

    def test_nested_operations(self):
        assert evaluate(nf("f(f(x[1]))"), CATALOG["successor"], {0: 0}) == 2

    def test_constants_need_no_phi(self):
        assert evaluate(eta(N1, 5), CATALOG["identity"], {}) == 5

    def test_missing_generator_image(self):
        with pytest.raises(ValueError, match="no image"):
            evaluate(nf("x[1]"), CATALOG["identity"], {})

    def test_products_and_map_results_are_bounded(self):
        big = {0: 1 << 5000}
        power = nf("*".join(["x[1]"] * 14))  # 70,001 bits
        with pytest.raises(ValueError, match=f"value exceeds {MAX_EVAL_BITS} bits"):
            evaluate(power, CATALOG["identity"], big)
        with pytest.raises(ValueError, match=f"value exceeds {MAX_EVAL_BITS} bits"):
            evaluate(nf("f(f(f(f(x[1]))))"), CATALOG["square"], big)
        # a zero factor makes the monomial 0 whatever the size of the rest
        assert evaluate(power * nf("f(x[1])"), CATALOG["const-zero"], big) == 0
        assert evaluate(power, CATALOG["identity"], {0: 1 << 4000}) == 1 << 56000

    def test_the_answer_is_bounded(self):
        # each monomial is within the bound, but a coefficient carries the sum past it
        largest = (1 << MAX_EVAL_BITS) - 1
        assert evaluate(nf("x[1]"), CATALOG["identity"], {0: largest}) == largest
        with pytest.raises(ValueError, match=f"value exceeds {MAX_EVAL_BITS} bits"):
            evaluate(nf("3*x[1]"), CATALOG["identity"], {0: largest})

    def test_catalog_contents(self):
        assert sorted(CATALOG) == ["const-one", "const-zero", "double",
                                   "identity", "square", "successor"]
        values = {name: rig.selfmap(4) for name, rig in CATALOG.items()}
        assert values == {"identity": 4, "successor": 5, "square": 16,
                          "double": 8, "const-one": 1, "const-zero": 0}

    def test_agrees_with_the_term_interpreter(self):
        rng = random.Random(47)
        for _ in range(150):
            carrier = FreeMonoid(rng.choice((1, 2)))
            t = random_term_rng(rng, carrier, 4, 2, 4)
            rig = CATALOG[rng.choice(sorted(CATALOG))]
            phi = {i: rng.randint(0, 4) for i in range(carrier.rank)}
            assert evaluate(normalize(t, carrier), rig, phi) == \
                term_value(t, rig, phi)


class TestRigFromTerm:
    def test_polynomial_self_map(self):
        rig = rig_from_term(parse("x[1]*x[1]+1", N1), N1)
        assert rig.selfmap(3) == 10
        assert evaluate(nf("f(x[1])"), rig, {0: 2}) == 5

    def test_needs_rank_one(self):
        with pytest.raises(ValueError, match="rank-1"):
            rig_from_term(parse("x[1,0]", N2), N2)

    def test_rejects_the_operation_in_the_body(self):
        with pytest.raises(ValueError, match="unary operation"):
            rig_from_term(parse("f(x[1])", N1), N1)

    def test_custom_rig_dataclass(self):
        rig = RigWithSelfMap("triple", lambda v: 3 * v)
        assert evaluate(nf("f(x[2])"), rig, {0: 1}) == 6
