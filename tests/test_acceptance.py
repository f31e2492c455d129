"""Acceptance gate: one checked, printed line per headline guarantee.

Every criterion is exact (no tolerances: equality of canonical forms,
tensors or integers).  Each test records a PASS/FAIL line; the conftest
hook prints the collected lines after the run summary.
"""

import random
import time

from oracle import term_derivative
from rigdiff.carrier import (
    FreeMonoid, MonoidElem, MonomialBasis, tensor_bimap, tensor_pure,
)
from rigdiff.derive import d_n, seeded_derivation, sym_derive
from rigdiff.gen import random_hom, random_term_rng
from rigdiff.laws import (
    MAX_COEFF, MAX_F_DEPTH, RANKS, SuiteConfig, check_distinctness, run_law,
)
from rigdiff.modality import eta, nabla
from rigdiff.normal import (
    GenAtom, Monomial, NormalForm, apply_functor, as_monoid_element,
    nf_scale, nf_selfmap, nf_var, normalize,
)
from rigdiff.terms import term_map_hom
from rigdiff.text import parse

ACCEPTANCE_LINES = []

FULL = SuiteConfig()  # 1000 cases per law, each for every n
N_VALUES = (0, 1, 2, 3, 7)  # the members the oracle and naturality draws use


def record(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    line = f"criterion {num} ({name}): {status}{suffix}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def laws_ok(names, cfg=FULL):
    results = [run_law(name, cfg) for name in names]
    failures = sum(len(r.failures) for r in results)
    cases = sum(r.cases for r in results)
    seconds = sum(r.seconds for r in results)
    return failures == 0, cases, failures, seconds


def test_criterion_1_distinct_family_members():
    started = time.perf_counter()
    pairs = check_distinctness(range(11))
    seconds = time.perf_counter() - started
    ok = (pairs == [(n, n) for n in range(11)]
          and len({v for _, v in pairs}) == 11
          and seconds < 1.0)
    assert record(1, "eleven pairwise distinct derivative members", ok,
                  f"values 0..10, {seconds:.3f}s")


def test_criterion_2_four_derivative_rules():
    ok, cases, failures, seconds = laws_ok(
        ("product_rule", "linear_rule", "chain_rule", "interchange_rule"))
    ok = ok and seconds < 60.0
    assert record(2, "product/linear/chain/interchange rules", ok,
                  f"{cases} cases, {failures} failures, {seconds:.2f}s")


def test_criterion_3_rewrite_invariance():
    ok, cases, failures, _ = laws_ok(
        ("rewrite_invariance_normalize", "rewrite_invariance_derivative"))
    assert record(3, "normal form and derivative are rewrite invariant", ok,
                  f"{cases} cases, {failures} failures")


def test_criterion_4_oracle_equivalence():
    rng = random.Random("acceptance:oracle")
    mismatches = 0
    for _ in range(1000):
        carrier = FreeMonoid(rng.choice(RANKS))
        t = random_term_rng(rng, carrier, FULL.max_depth, MAX_F_DEPTH, MAX_COEFF)
        n = rng.choice(N_VALUES)
        if d_n(normalize(t, carrier), n) != term_derivative(t, carrier, n):
            mismatches += 1
    assert record(4, "canonical derivative equals the term recursion",
                  mismatches == 0, f"1000 cases, {mismatches} mismatches")


def test_criterion_5_monad_and_modality_laws():
    ok, cases, failures, _ = laws_ok(
        ("monad_unit", "monad_associativity", "modality_square",
         "monoid_structure"))
    assert record(5, "monad triangles, associativity and modality square", ok,
                  f"{cases} cases, {failures} failures")


def test_criterion_6_naturality():
    rng = random.Random("acceptance:naturality")
    dom = FreeMonoid(2)
    bad = 0
    for case in range(500):
        cod = FreeMonoid(2) if case % 2 == 0 else FreeMonoid(1)
        h = random_hom(rng, dom, cod)
        t = random_term_rng(rng, dom, FULL.max_depth, MAX_F_DEPTH, MAX_COEFF)
        a = normalize(t, dom)
        n = rng.choice(N_VALUES)
        cod2 = MonomialBasis(cod)
        maps = [
            (lambda mono: as_monoid_element(
                apply_functor(h, NormalForm(dom, ((mono, 1),)))), (cod2,)),
            (lambda i: h.image_of(i), (cod,)),
        ]
        derivative_natural = \
            tensor_bimap(d_n(a, n), maps) == d_n(apply_functor(h, a), n)
        k = rng.randint(0, 5)
        b = normalize(random_term_rng(rng, dom, 3, 1, 3), dom)
        product = nabla(tensor_pure([as_monoid_element(a),
                                     as_monoid_element(b)]))
        mapped_product = nabla(tensor_pure([
            as_monoid_element(apply_functor(h, a)),
            as_monoid_element(apply_functor(h, b))]))
        structure_natural = (
            apply_functor(h, eta(dom, k)) == eta(cod, k)
            and apply_functor(h, product) == mapped_product)
        terms_natural = \
            normalize(term_map_hom(h, t), cod) == apply_functor(h, a)
        if not (derivative_natural and structure_natural and terms_natural):
            bad += 1
    assert record(6, "derivative and monoid structure are natural", bad == 0,
                  f"500 homs from rank 2 onto ranks 2 and 1, {bad} failures")


def test_criterion_7_frozen_examples():
    two_vars = FreeMonoid(2)
    a = normalize(parse("x[1,0]*x[1,0]*x[0,1]", two_vars), two_vars)
    g0, g1 = GenAtom(0), GenAtom(1)
    expected_tensor = {
        (Monomial((g0, g1)), 0): 2,
        (Monomial((g0, g0)), 1): 1,
    }
    symmetric_ok = dict(sym_derive(a).items) == expected_tensor

    one_var = FreeMonoid(1)
    poly = normalize(parse("x[1]*x[1]*x[1]+3*x[1]", one_var), one_var)
    seed = normalize(parse("x[1]*x[1]", one_var), one_var)
    expected = normalize(
        parse("3*(x[1]*x[1]*x[1]*x[1])+3*(x[1]*x[1])", one_var), one_var)
    seeded_ok = seeded_derivation(poly, seed) == expected

    assert record(7, "worked examples reproduce their frozen values",
                  symmetric_ok and seeded_ok,
                  "two-variable derivative and seeded derivation")


def test_criterion_8_operation_is_no_scalar():
    carrier = FreeMonoid(1)
    zero = NormalForm.zero(carrier)
    x = nf_var(MonoidElem.generator(carrier, 0))
    ok = all(nf_selfmap(zero) != nf_scale(zero, n)
             and nf_selfmap(x) != nf_scale(x, n)
             for n in range(11))
    assert record(8, "the unary operation is not n times the identity", ok,
                  "n in 0..10 on both witnesses")


def test_criterion_9_n_independence():
    ok, cases, failures, _ = laws_ok(("n_independence",),
                                     SuiteConfig(cases=500))
    assert record(9, "all members agree on operation-free values", ok,
                  f"{cases} cases, {failures} failures")
