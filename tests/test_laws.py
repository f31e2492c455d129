"""The law registry, its reports, and the harness's own error detection."""

import hashlib
import random
from dataclasses import fields
from types import SimpleNamespace

import pytest

from rigdiff import laws
from rigdiff.carrier import (
    FreeMonoid, MonoidElem, MonoidHom, MonomialBasis, TensorElem, tensor_pure,
    tensor_scale,
)
from rigdiff.derive import d_n
from rigdiff.gen import random_hom
from rigdiff.laws import (
    LAWS, LEVEL2_DEPTH, LEVEL3_DEPTH, MAX_COEFF, MAX_F_DEPTH, PAYLOAD_DEPTH,
    RANKS, LawReport, SuiteConfig, _case_seeds, check_distinctness, check_laws,
    law_names, replay_case, run_law,
)
from rigdiff.modality import eta, evaluate, mu, unit
from rigdiff.normal import (
    ONE_MONOMIAL, ArgumentMemo, GenAtom, Monomial, apply_functor, mono_mul, nf_add,
    nf_from_monomial, nf_mul, nf_scale, nf_selfmap, nf_var,
)
from rigdiff.terms import App, ZERO

EXPECTED_NAMES = (
    "rig_laws",
    "normalize_homomorphism",
    "rewrite_invariance_normalize",
    "rewrite_invariance_derivative",
    "functor_on_terms",
    "functor_composition",
    "selfmap_not_scalar",
    "unit_additive",
    "monad_unit",
    "monad_associativity",
    "modality_square",
    "monoid_structure",
    "naturality_monoid_structure",
    "evaluation_homomorphism",
    "product_rule",
    "linear_rule",
    "chain_rule",
    "interchange_rule",
    "naturality_derivative",
    "derivative_additive",
    "n_independence",
    "distinctness",
)

SMALL = SuiteConfig(cases=12, level3_cases=4)


def timeless(report) -> dict:
    """The report's structured view without its timings."""
    obj = report.to_obj()
    for entry in obj["laws"]:
        del entry["seconds"]
    return obj


def doubled(a, n):
    return tensor_scale(d_n(a, n), 2)


def shifted(a, n):
    return d_n(a, 2 * n)


def split(a, n):
    """Agrees with d_n at n = 0 and 1 only: level 2 weighs in n * n."""
    return d_n(a, n if a.carrier.level == 1 else n * n)


def leibniz(weight=lambda arg, n: (ONE_MONOMIAL, n), exponents=True,
            nested=True, rests=True):
    """The Leibniz expansion of ``d_n`` with knobs that each break one part
    of it; the defaults reproduce ``d_n``.  An operation atom multiplies its
    argument's derivative by ``weight(argument, n)``, a (monomial,
    coefficient) pair; ``exponents=False`` drops an atom's multiplicity,
    ``nested=False`` derives operation atoms inside an argument to 0 and
    ``rests=False`` drops the rest of the monomial."""
    def expand(a, n, memo, apps):
        acc = {}
        for mono, c in a.items:
            for atom, mult in mono.atom_counts():
                rest = mono.without(atom) if rests else ONE_MONOMIAL
                c_mult = c * mult if exponents else c
                if isinstance(atom, GenAtom):
                    key = (rest, atom.index)
                    acc[key] = acc.get(key, 0) + c_mult
                elif apps:
                    w, k = weight(atom.argument, n)
                    for (part, gen), c2 in memo[atom.argument].items:
                        key = (mono_mul(mono_mul(rest, w), part), gen)
                        acc[key] = acc.get(key, 0) + c_mult * k * c2
        return TensorElem.from_dict((MonomialBasis(a.carrier), a.carrier), acc)

    def derive(a, n):
        return expand(a, n, ArgumentMemo(lambda v, memo: expand(v, n, memo, nested)),
                      True)
    return derive


def first_generator(carrier):
    """The monomial of a carrier's least generator (1 over rank 0)."""
    if isinstance(carrier, FreeMonoid):
        return Monomial([GenAtom(0)] if carrier.rank else [])
    return Monomial([GenAtom(ONE_MONOMIAL)])


# Each mutant of d_n and the failures per law it causes at MUTANT_CFG.
MUTANT_CFG = SuiteConfig(cases=100, level3_cases=5)
MUTANTS = {
    # not natural: a hom moves the generator; naturality_derivative sees
    # this through apply_functor, so it also pins that the hom's cached
    # map leaves verdicts alone
    "weight is the first generator": (
        leibniz(weight=lambda arg, n: (first_generator(arg.carrier), 1)),
        {"chain_rule": 6, "interchange_rule": 6, "naturality_derivative": 8,
         "distinctness": 100}),
    "weight is the number of monomials": (
        leibniz(weight=lambda arg, n: (ONE_MONOMIAL, len(arg.items))),
        {"chain_rule": 1, "naturality_derivative": 5, "distinctness": 100}),
    "weight is the first monomial": (
        leibniz(weight=lambda arg, n: (arg.items[0][0], 1) if arg.items
                else (ONE_MONOMIAL, 0)),
        {"interchange_rule": 5, "naturality_derivative": 7, "distinctness": 100}),
    "forgotten exponent": (
        leibniz(exponents=False),
        {"product_rule": 13, "naturality_derivative": 2}),
    "nested operation atoms derive to 0": (
        leibniz(nested=False), {"chain_rule": 3}),
    "lost rest monomial": (
        leibniz(rests=False), {"product_rule": 35, "naturality_derivative": 5}),
}


DERIVATIVE_LAWS = (
    "rewrite_invariance_derivative", "product_rule", "linear_rule",
    "chain_rule", "interchange_rule", "naturality_derivative",
    "derivative_additive",
)


class TestRegistry:
    def test_registered_names_are_exactly_the_promised_ones(self):
        assert law_names() == EXPECTED_NAMES

    def test_descriptions_are_distinct_and_present(self):
        descriptions = [law.description for law in LAWS]
        assert all(descriptions)
        assert len(set(descriptions)) == len(descriptions)


class TestFrozenDraws:
    # sha256 over every case of every law at DRAW_CFG: the law name, the
    # case seed, the verdict and every value the case drew, in order.
    DRAW_CFG = SuiteConfig(cases=100, level3_cases=10)
    DRAW_DIGEST = "057617f0b90bcbde6bb6b0ce4b2fb2af97a8b4457cf75ee3f80288d38b1a0e4b"

    def test_draws_are_frozen(self, monkeypatch):
        """The frozen report only sees verdicts; this sees every draw, so a
        reordered or extra draw that still passes shows up here."""
        drawn = []

        class Recorder(random.Random):
            def getrandbits(self, k):
                value = super().getrandbits(k)
                drawn.append(value)
                return value

            def random(self):
                value = super().random()
                drawn.append(value)
                return value

        # the laws and gen.equivalent_variant both resolve random.Random
        # at call time, so walk draws are recorded too
        monkeypatch.setattr(random, "Random", Recorder)
        digest = hashlib.sha256()
        for law in LAWS:
            count = getattr(self.DRAW_CFG, law.count_attr)
            for seed in _case_seeds(self.DRAW_CFG.seed, law.name, count):
                drawn.clear()
                verdict = replay_case(law.name, seed, self.DRAW_CFG)
                digest.update(repr((law.name, seed, verdict, drawn)).encode())
        assert digest.hexdigest() == self.DRAW_DIGEST


class TestCleanRun:
    def test_all_laws_hold_and_counts_match(self):
        report = check_laws(SMALL)
        assert report.ok
        for result in report.results:
            expected = 4 if result.name == "monad_associativity" else 12
            assert result.cases == expected and result.ok

    def test_reports_are_deterministic(self):
        first = timeless(check_laws(SMALL))
        second = timeless(check_laws(SMALL))
        assert first == second

    def test_to_obj_shape(self):
        report = check_laws(SuiteConfig(cases=3, level3_cases=2))
        obj = report.to_obj()
        assert obj["ok"] is True
        assert obj["config"]["cases"] == 3
        assert [entry["name"] for entry in obj["laws"]] == list(EXPECTED_NAMES)
        assert all("seconds" in entry for entry in obj["laws"])
        bare = timeless(report)
        assert all("seconds" not in entry for entry in bare["laws"])

    def test_render_text_shows_five_failures_per_law(self):
        result = run_law("linear_rule", SMALL, derive_fn=doubled)
        text = LawReport(SMALL, (result,)).render_text()
        assert len(result.failures) > 5
        assert text.count("\n  seed=") == 5
        assert f"\n  ... {len(result.failures) - 5} more failures\n" in text

    def test_render_text_ends_with_the_verdict(self):
        report = check_laws(SuiteConfig(cases=3, level3_cases=2))
        text = report.render_text()
        assert text.splitlines()[-1].endswith("all laws hold")
        assert "product_rule" in text

    def test_run_law_single(self):
        result = run_law("linear_rule", SMALL)
        assert result.ok and result.cases == 12 and result.seconds >= 0


class TestHarnessCatchesCorruption:
    def test_uniform_scaling_breaks_the_linear_rule(self):
        report = check_laws(SMALL, derive_fn=doubled)
        assert not report.ok
        broken = {r.name for r in report.results if not r.ok}
        assert "linear_rule" in broken and "distinctness" in broken
        assert "rig_laws" not in broken and "product_rule" not in broken

    def test_failures_replay_bit_for_bit(self):
        report = check_laws(SMALL, derive_fn=doubled)
        replayed = 0
        for result in report.results:
            for failure in result.failures[:2]:
                message = replay_case(result.name, failure.seed, SMALL,
                                      derive_fn=doubled)
                assert message == failure.message
                replayed += 1
        assert replayed > 0

    def test_weight_shift_is_caught_only_by_distinctness(self):
        report = check_laws(SMALL, derive_fn=shifted)
        broken = {r.name for r in report.results if not r.ok}
        assert broken == {"distinctness"}

    def test_replaying_a_passing_case_returns_none(self):
        result = run_law("product_rule", SMALL)
        assert result.ok
        assert replay_case("product_rule", 12345, SMALL) is None

    def test_every_n_verdict_is_the_conjunction_of_fixed_n_verdicts(self):
        mismatches, caught_above_one = [], 0
        for fn in (d_n, doubled, split):
            for law in DERIVATIVE_LAWS:
                for seed in _case_seeds(7, law, 60):
                    fixed = [replay_case(law, seed, SMALL,
                                         derive_fn=lambda a, _, k=k: fn(a, k)) is None
                             for k in range(8)]
                    every = replay_case(law, seed, SMALL, derive_fn=fn) is None
                    if every != all(fixed):
                        mismatches.append((fn.__name__, law, seed))
                    caught_above_one += fixed[0] and fixed[1] and not all(fixed)
        assert mismatches == []
        assert caught_above_one > 0

    @pytest.mark.parametrize("factor", [2, 10, 11, 13])
    def test_operation_as_any_fixed_multiple_is_caught(self, monkeypatch, factor):
        def scaled(v):
            return nf_selfmap(v) if v.is_zero() else nf_scale(v, factor)

        monkeypatch.setattr("rigdiff.laws.nf_selfmap", scaled)
        result = run_law("selfmap_not_scalar", SuiteConfig(cases=50))
        assert len(result.failures) == 50
        assert f"operation equals {factor}*id" in result.failures[0].message

    def test_the_identity_leibniz_loop_is_d_n(self):
        assert check_laws(MUTANT_CFG, derive_fn=leibniz()).ok

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_each_mutant_fails_its_laws(self, mutant):
        derive, expected = MUTANTS[mutant]
        report = check_laws(MUTANT_CFG, derive_fn=derive)
        assert {r.name: len(r.failures) for r in report.results if r.failures} == expected

    def test_failure_report_renders_seeds(self):
        report = check_laws(SuiteConfig(cases=4, level3_cases=2),
                            derive_fn=doubled)
        text = report.render_text()
        assert "seed=" in text and "failures" in text.splitlines()[-1]


class TestDistinctness:
    def test_each_member_reads_back_its_own_index(self):
        assert check_distinctness(range(11)) == [(n, n) for n in range(11)]

    def test_supports_sparse_index_sets(self):
        assert check_distinctness((0, 4, 9)) == [(0, 0), (4, 4), (9, 9)]

    def test_coinciding_members_raise(self):
        with pytest.raises(ValueError, match="coincide"):
            check_distinctness(range(3), derive_fn=lambda a, n: d_n(a, 1))


class TestConfig:
    def test_defaults_are_the_documented_scale(self):
        cfg = SuiteConfig()
        assert [f.name for f in fields(cfg)] == [
            "seed", "cases", "max_depth", "level3_cases"]
        assert (cfg.seed, cfg.cases, cfg.max_depth, cfg.level3_cases) == (0, 1000, 4, 50)
        assert (RANKS, MAX_F_DEPTH, MAX_COEFF) == ((1, 2), 2, 5)
        assert (LEVEL2_DEPTH, PAYLOAD_DEPTH, LEVEL3_DEPTH) == (3, 2, 2)

    @pytest.mark.parametrize("field", ["cases", "max_depth", "level3_cases"])
    def test_negative_counts_are_rejected(self, field):
        with pytest.raises(ValueError, match="must be naturals"):
            SuiteConfig(**{field: -1})

    def test_a_negative_seed_is_a_seed(self):
        assert check_laws(SuiteConfig(seed=-1, cases=1, level3_cases=1)).ok


def twice(fn):
    """``fn`` with its value doubled."""
    return lambda *args: nf_scale(fn(*args), 2)


class _Uncomposable(MonoidHom):
    def compose(self, inner):  # forgets the outer map
        return inner


def _uncomposable_hom(*args):
    h = random_hom(*args)
    return _Uncomposable(h.domain, h.codomain, h.image_of)


# (law, a name that rigdiff.laws imports, its broken stand-in, the start of
# the failure message that the law must return): one row per failure
# branch that the correct engine never takes.
FAILURE_BRANCHES = [
    ("rig_laws", "nf_add", lambda a, b: a, "addition commutes failed"),
    ("normalize_homomorphism", "nf_add", twice(nf_add), "sum case failed"),
    ("normalize_homomorphism", "nf_mul", twice(nf_mul), "product case failed"),
    ("normalize_homomorphism", "nf_selfmap", lambda a: a, "operation case failed"),
    ("normalize_homomorphism", "nf_var", twice(nf_var), "variable case failed"),
    ("normalize_homomorphism", "ONE", ZERO, "constant case failed"),
    ("rewrite_invariance_normalize", "equivalent_variant", lambda t, *_: App(t),
     "normalization changed under rewrites"),
    ("rewrite_invariance_derivative", "equivalent_variant", lambda t, *_: App(t),
     "derivative changed under rewrites"),
    ("functor_on_terms", "apply_functor", twice(apply_functor), "term mapping disagrees"),
    ("functor_composition", "apply_functor", twice(apply_functor), "identity map moved"),
    ("functor_composition", "random_hom", _uncomposable_hom, "composite map disagrees"),
    ("unit_additive", "elem_add", lambda a, b: a, "unit not additive"),
    ("unit_additive", "MonoidElem",
     SimpleNamespace(zero=lambda c: MonoidElem.generator(c, 0)), "unit of zero is not zero"),
    ("monad_unit", "unit", twice(unit), "collapse after outer unit moved"),
    ("monad_unit", "Monomial", lambda atoms: ONE_MONOMIAL, "collapse after mapped unit moved"),
    ("monad_associativity", "nf_from_monomial", twice(nf_from_monomial),
     "collapse orders disagree"),
    ("modality_square", "mu", twice(mu), "collapse does not commute"),
    ("monoid_structure", "tensor_pure", lambda elems: tensor_pure([elems[0]] * len(elems)),
     "tensor multiplication not associative"),
    ("monoid_structure", "eta", lambda c, k: eta(c, 2 * k), "tensor unit failed"),
    ("monoid_structure", "tensor_permute", lambda t, perm: tensor_scale(t, 2),
     "tensor multiplication not commutative"),
    ("naturality_monoid_structure", "apply_functor", twice(apply_functor),
     "induced map moved the constant"),
    # constants keep their image, so only multiplication can break
    ("naturality_monoid_structure", "apply_functor",
     lambda h, v: nf_scale(apply_functor(h, v), 1 + any(m.degree for m, _ in v.items)),
     "induced map broke multiplication"),
    ("evaluation_homomorphism", "evaluate", lambda *args: evaluate(*args) + 1,
     "evaluation broke on sum"),
    ("derivative_additive", "NormalForm",
     SimpleNamespace(zero=lambda c: nf_var(MonoidElem.generator(c, 0))),
     "derivative of zero is not zero"),
    ("n_independence", "default_d_n", lambda a, n: tensor_scale(d_n(a, n), n),
     "operation-free value"),
]


@pytest.mark.parametrize("law, name, broken, message", FAILURE_BRANCHES,
                         ids=[f"{row[0]}-{row[3]}" for row in FAILURE_BRANCHES])
def test_each_failure_branch_returns_its_message(monkeypatch, law, name, broken, message):
    monkeypatch.setattr(laws, name, broken)
    got = [replay_case(law, seed, SMALL) for seed in _case_seeds(0, law, 12)]
    assert any(m is not None and m.startswith(message) for m in got), got
