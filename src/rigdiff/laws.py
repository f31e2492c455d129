"""Randomized, replayable checking of every law the package promises.

Each law draws its cases from seeds derived deterministically from the
suite seed and the law name, so a report is reproducible bit for bit
(timings aside) and every failure carries the case seed that replays it.
The derivative entry point is injectable so the harness can be shown to
catch a deliberately broken implementation.

Each derivative law is checked for every family member n at once, from two
evaluations (``_every_n``).  Under ``d_n`` every coefficient of either side
of a law is a polynomial in n with natural coefficients: n enters only as
the weight of an operation atom, and the sides are built from it with
additions, products and maps that are linear over the naturals.  Such a
polynomial has no coefficient above its value at n = 1, so with B above
every coefficient at n = 1, its value at n = B spells its coefficients as
base-B digits (Kronecker substitution).  Sides that agree at n = 1 and at
n = B therefore agree as polynomials, for every n.  The proof covers any
injected derivation whose coefficients are natural polynomials in n, such
as ``d_n`` scaled by a natural, ``d(a, 2n)`` or ``d(a, n*n)``; one that
branches on n is outside it.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional

from .carrier import (
    FreeMonoid, MonoidElem, MonoidHom, MonomialBasis, elem_add,
    tensor_add, tensor_bimap, tensor_concat, tensor_permute, tensor_pure,
)
from .derive import d_n as default_d_n
from .gen import equivalent_variant, random_elem, random_hom, random_term_rng
from .modality import (
    CATALOG, eta, evaluate, mu, nabla, nabla_at, nf_as_tensor, unit,
)
from .normal import (
    GenAtom, Monomial, NormalForm, ONE_MONOMIAL, apply_functor,
    as_monoid_element, nf_add, nf_from_monomial, nf_mul,
    nf_scale, nf_selfmap, nf_var, normalize,
)
from .terms import App, Prod, Sum, Var, ONE, ZERO, term_map_hom
from .text import print_term


# Shape of the random cases: base ranks, nesting of the unary operation,
# coefficient bound, and term depths at level 2, in its variables and at 3.
RANKS = (1, 2)
MAX_F_DEPTH = 2
MAX_COEFF = 5
LEVEL2_DEPTH = 3
PAYLOAD_DEPTH = 2
LEVEL3_DEPTH = 2


@dataclass(frozen=True)
class SuiteConfig:
    """Scale of the randomized law suite."""

    seed: int = 0
    cases: int = 1000
    max_depth: int = 4
    level3_cases: int = 50


@dataclass(frozen=True)
class Failure:
    law: str
    seed: int
    message: str


@dataclass(frozen=True)
class LawResult:
    name: str
    description: str
    cases: int
    failures: tuple[Failure, ...]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class LawReport:
    config: SuiteConfig
    results: tuple[LawResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_obj(self, include_timing: bool = True) -> dict:
        laws = []
        for r in self.results:
            entry = {
                "name": r.name,
                "description": r.description,
                "cases": r.cases,
                "failures": [{"seed": f.seed, "message": f.message}
                             for f in r.failures],
            }
            if include_timing:
                entry["seconds"] = round(r.seconds, 3)
            laws.append(entry)
        return {"config": asdict(self.config), "laws": laws, "ok": self.ok}

    def render_text(self) -> str:
        width = max(len(r.name) for r in self.results)
        lines = [f"{'law'.ljust(width)}  cases  failures  seconds"]
        for r in self.results:
            lines.append(f"{r.name.ljust(width)}  {r.cases:5d}  {len(r.failures):8d}"
                         f"  {r.seconds:7.2f}")
            for f in r.failures[:5]:
                lines.append(f"  seed={f.seed}: {f.message}")
            if len(r.failures) > 5:
                lines.append(f"  ... {len(r.failures) - 5} more failures")
        total = sum(len(r.failures) for r in self.results)
        verdict = "all laws hold" if total == 0 else f"{total} failures"
        lines.append(f"{len(self.results)} laws, "
                     f"{sum(r.cases for r in self.results)} cases: {verdict}")
        return "\n".join(lines)


# --- case helpers ---------------------------------------------------------

def _free(rng) -> FreeMonoid:
    return FreeMonoid(rng.choice(RANKS))


def _term(rng, cfg, carrier, f_depth=MAX_F_DEPTH):
    return random_term_rng(rng, carrier, cfg.max_depth, f_depth, MAX_COEFF,
                           PAYLOAD_DEPTH)


def _nf(rng, cfg, carrier, **kw) -> NormalForm:
    return normalize(_term(rng, cfg, carrier, **kw), carrier)


def _level2_nf(rng, base) -> NormalForm:
    carrier2 = MonomialBasis(base)
    term = random_term_rng(rng, carrier2, LEVEL2_DEPTH, 1, MAX_COEFF,
                           PAYLOAD_DEPTH)
    return normalize(term, carrier2)


def _every_n(sides: Callable[[int], tuple]) -> Optional[int]:
    """An n at which the two values ``sides(n)`` differ, or None when they
    agree for every natural n (the module docstring gives the proof)."""
    lhs, rhs = sides(1)
    if lhs != rhs:
        return 1
    if lhs.is_zero():  # natural coefficients that sum to 0 are all 0
        return None
    big = 1 + max(c for _, c in lhs.items)
    lhs, rhs = sides(big)
    return None if lhs == rhs else big


def _prod2(x: NormalForm, y: NormalForm) -> NormalForm:
    return nabla(tensor_pure([as_monoid_element(x), as_monoid_element(y)]))


# --- law runners: d_n is the derivative under test; each returns None on
# --- success and a message on failure

def _run_rig_laws(rng, cfg, d_n):
    carrier = _free(rng)
    a, b, c = (_nf(rng, cfg, carrier) for _ in range(3))
    zero, one = NormalForm.zero(carrier), NormalForm.one(carrier)
    checks = (
        ("addition commutes", nf_add(a, b) == nf_add(b, a)),
        ("addition associates", nf_add(nf_add(a, b), c) == nf_add(a, nf_add(b, c))),
        ("zero is the additive unit", nf_add(a, zero) == a),
        ("multiplication commutes", nf_mul(a, b) == nf_mul(b, a)),
        ("multiplication associates", nf_mul(nf_mul(a, b), c) == nf_mul(a, nf_mul(b, c))),
        ("one is the multiplicative unit", nf_mul(a, one) == a),
        ("multiplication distributes", nf_mul(nf_add(a, b), c) == nf_add(nf_mul(a, c), nf_mul(b, c))),
        ("zero annihilates", nf_mul(zero, a) == zero),
    )
    for what, holds in checks:
        if not holds:
            return f"{what} failed for a={a}, b={b}, c={c}"
    return None


def _run_normalize_homomorphism(rng, cfg, d_n):
    carrier = _free(rng)
    t1, t2 = _term(rng, cfg, carrier), _term(rng, cfg, carrier)
    e = random_elem(rng, carrier, MAX_COEFF)
    n1, n2 = normalize(t1, carrier), normalize(t2, carrier)
    if normalize(Sum(t1, t2), carrier) != nf_add(n1, n2):
        return f"sum case failed for {print_term(t1, carrier)} and {print_term(t2, carrier)}"
    if normalize(Prod(t1, t2), carrier) != nf_mul(n1, n2):
        return f"product case failed for {print_term(t1, carrier)} and {print_term(t2, carrier)}"
    if normalize(App(t1), carrier) != nf_selfmap(n1):
        return f"operation case failed for {print_term(t1, carrier)}"
    if normalize(Var(e), carrier) != nf_var(e):
        return f"variable case failed for {e.items!r}"
    if not normalize(ZERO, carrier).is_zero() or normalize(ONE, carrier) != NormalForm.one(carrier):
        return "constant case failed"
    return None


def _run_rewrite_invariance_normalize(rng, cfg, d_n):
    carrier = _free(rng)
    t = _term(rng, cfg, carrier)
    steps, vseed = rng.randint(1, 6), rng.getrandbits(32)
    v = equivalent_variant(t, steps, vseed, carrier)
    if normalize(t, carrier) != normalize(v, carrier):
        return (f"normalization changed under rewrites: {print_term(t, carrier)}"
                f" became {print_term(v, carrier)}")
    return None


def _run_rewrite_invariance_derivative(rng, cfg, d_n):
    carrier = _free(rng)
    t = _term(rng, cfg, carrier)
    steps, vseed = rng.randint(1, 6), rng.getrandbits(32)
    v = equivalent_variant(t, steps, vseed, carrier)
    a, b = normalize(t, carrier), normalize(v, carrier)
    n = _every_n(lambda n: (d_n(a, n), d_n(b, n)))
    if n is not None:
        return (f"derivative changed under rewrites (n={n}):"
                f" {print_term(t, carrier)} became {print_term(v, carrier)}")
    return None


def _run_functor_on_terms(rng, cfg, d_n):
    dom, cod = _free(rng), _free(rng)
    h = random_hom(rng, dom, cod)
    t = _term(rng, cfg, dom)
    if normalize(term_map_hom(h, t), cod) != apply_functor(h, normalize(t, dom)):
        return f"term mapping disagrees with induced map on {print_term(t, dom)}"
    return None


def _run_functor_composition(rng, cfg, d_n):
    first, mid, last = (_free(rng) for _ in range(3))
    h, k = random_hom(rng, first, mid), random_hom(rng, mid, last)
    a = _nf(rng, cfg, first)
    if apply_functor(MonoidHom.identity(first), a) != a:
        return f"identity map moved {a}"
    if apply_functor(k.compose(h), a) != apply_functor(k, apply_functor(h, a)):
        return f"composite map disagrees on {a}"
    return None


def _run_selfmap_not_scalar(rng, cfg, d_n):
    carrier = _free(rng)
    witnesses = (
        ("zero", NormalForm.zero(carrier)),
        ("the first variable", nf_var(MonoidElem.generator(carrier, 0))),
        ("a random value", _nf(rng, cfg, carrier)),
    )
    for label, v in witnesses:
        image = nf_selfmap(v)
        # image == n*v for at most one n: the ratio on v's first monomial
        n = image.coeff(v.items[0][0]) // v.items[0][1] if v.items else 0
        if image == nf_scale(v, n):
            return f"operation equals {n}*id on {label}: {v}"
    return None


def _run_unit_additive(rng, cfg, d_n):
    carrier = _free(rng)
    e1 = random_elem(rng, carrier, MAX_COEFF)
    e2 = random_elem(rng, carrier, MAX_COEFF)
    if unit(elem_add(e1, e2)) != nf_add(unit(e1), unit(e2)):
        return f"unit not additive on {e1.items!r} and {e2.items!r}"
    if not unit(MonoidElem.zero(carrier)).is_zero():
        return "unit of zero is not zero"
    return None


def _run_monad_unit(rng, cfg, d_n):
    carrier = _free(rng)
    a = _nf(rng, cfg, carrier)
    if mu(unit(as_monoid_element(a))) != a:
        return f"collapse after outer unit moved {a}"
    level2 = MonomialBasis(carrier)
    h_u = MonoidHom(carrier, level2,
                    lambda i: MonoidElem.generator(level2, Monomial((GenAtom(i),))))
    if mu(apply_functor(h_u, a)) != a:
        return f"collapse after mapped unit moved {a}"
    return None


def _run_monad_associativity(rng, cfg, d_n):
    carrier = _free(rng)
    level2 = MonomialBasis(carrier)
    level3 = MonomialBasis(level2)
    a3 = normalize(random_term_rng(rng, level3, LEVEL3_DEPTH, 1, 2,
                                   PAYLOAD_DEPTH), level3)
    lhs = mu(mu(a3))
    h_m = MonoidHom(level3, level2,
                    lambda nu: as_monoid_element(mu(nf_from_monomial(level2, nu))))
    rhs = mu(apply_functor(h_m, a3))
    if lhs != rhs:
        return f"collapse orders disagree from level 3: {lhs} vs {rhs}"
    return None


def _run_modality_square(rng, cfg, d_n):
    carrier = _free(rng)
    u2, v2 = _level2_nf(rng, carrier), _level2_nf(rng, carrier)
    lhs = mu(_prod2(u2, v2))
    rhs = _prod2(mu(u2), mu(v2))
    if lhs != rhs:
        return f"collapse does not commute with multiplication: {lhs} vs {rhs}"
    return None


def _run_monoid_structure(rng, cfg, d_n):
    carrier = _free(rng)
    a, b, c = (_nf(rng, cfg, carrier) for _ in range(3))
    if _prod2(_prod2(a, b), c) != _prod2(a, _prod2(b, c)):
        return f"tensor multiplication not associative on a={a}, b={b}, c={c}"
    if _prod2(a, eta(carrier, 1)) != a:
        return f"tensor unit failed on {a}"
    pair = tensor_pure([as_monoid_element(a), as_monoid_element(b)])
    if nabla(tensor_permute(pair, (1, 0))) != nabla(pair):
        return f"tensor multiplication not commutative on a={a}, b={b}"
    return None


def _run_naturality_monoid_structure(rng, cfg, d_n):
    dom, cod = _free(rng), _free(rng)
    h = random_hom(rng, dom, cod)
    a, b = _nf(rng, cfg, dom), _nf(rng, cfg, dom)
    k = rng.randint(0, 5)
    if apply_functor(h, eta(dom, k)) != eta(cod, k):
        return f"induced map moved the constant {k}"
    lhs = apply_functor(h, _prod2(a, b))
    rhs = _prod2(apply_functor(h, a), apply_functor(h, b))
    if lhs != rhs:
        return f"induced map broke multiplication on a={a}, b={b}"
    return None


def _run_evaluation_homomorphism(rng, cfg, d_n):
    carrier = _free(rng)
    a, b = _nf(rng, cfg, carrier), _nf(rng, cfg, carrier)
    rig = CATALOG[rng.choice(sorted(CATALOG))]
    phi = {i: rng.randint(0, 4) for i in range(carrier.rank)}
    e = random_elem(rng, carrier, MAX_COEFF)

    def ev(x):
        return evaluate(x, rig, phi)

    checks = (
        ("sum", ev(nf_add(a, b)) == ev(a) + ev(b)),
        ("product", ev(nf_mul(a, b)) == ev(a) * ev(b)),
        ("one", ev(NormalForm.one(carrier)) == 1),
        ("zero", ev(NormalForm.zero(carrier)) == 0),
        ("operation", ev(nf_selfmap(a)) == rig.selfmap(ev(a))),
        ("variable", ev(unit(e)) == sum(c * phi[k] for k, c in e.items)),
    )
    for what, holds in checks:
        if not holds:
            return f"evaluation broke on {what} (rig={rig.name}, phi={phi})"
    return None


def _run_product_rule(rng, cfg, d_n):
    carrier = _free(rng)
    a, b = _nf(rng, cfg, carrier), _nf(rng, cfg, carrier)
    ab, a_t, b_t = nf_mul(a, b), nf_as_tensor(a), nf_as_tensor(b)

    def sides(n):
        left_term = nabla_at(tensor_concat(a_t, d_n(b, n)), 0)
        right_term = nabla_at(
            tensor_permute(tensor_concat(d_n(a, n), b_t), (0, 2, 1)), 0)
        return d_n(ab, n), tensor_add(left_term, right_term)

    n = _every_n(sides)
    if n is not None:
        return f"product rule failed for a={a}, b={b}, n={n}"
    return None


def _run_linear_rule(rng, cfg, d_n):
    carrier = _free(rng)
    e = random_elem(rng, carrier, MAX_COEFF)
    one_elem = MonoidElem.generator(MonomialBasis(carrier), ONE_MONOMIAL)
    n = _every_n(lambda n: (d_n(unit(e), n), tensor_pure([one_elem, e])))
    if n is not None:
        return f"linear rule failed for element {e.items!r}, n={n}"
    return None


def _run_chain_rule(rng, cfg, d_n):
    carrier = _free(rng)
    level2 = MonomialBasis(carrier)
    a2 = _level2_nf(rng, carrier)
    collapsed = mu(a2)

    def sides(n):
        maps = [
            (lambda nu: as_monoid_element(mu(nf_from_monomial(level2, nu))), (level2,)),
            (lambda mo: d_n(nf_from_monomial(carrier, mo), n), (level2, carrier)),
        ]
        return d_n(collapsed, n), nabla_at(tensor_bimap(d_n(a2, n), maps), 0)

    n = _every_n(sides)
    if n is not None:
        return f"chain rule failed for {a2}, n={n}"
    return None


def _run_interchange_rule(rng, cfg, d_n):
    carrier = _free(rng)
    a = _nf(rng, cfg, carrier)
    level2 = MonomialBasis(carrier)

    def sides(n):
        maps = [
            (lambda mo: d_n(nf_from_monomial(carrier, mo), n), (level2, carrier)),
            (lambda i: MonoidElem.generator(carrier, i), (carrier,)),
        ]
        lifted = tensor_bimap(d_n(a, n), maps)
        return lifted, tensor_permute(lifted, (0, 2, 1))

    n = _every_n(sides)
    if n is not None:
        return f"interchange rule failed for {a}, n={n}"
    return None


def _run_naturality_derivative(rng, cfg, d_n):
    dom, cod = _free(rng), _free(rng)
    h = random_hom(rng, dom, cod)
    a = _nf(rng, cfg, dom)
    cod2 = MonomialBasis(cod)
    maps = [
        (lambda mo: as_monoid_element(apply_functor(h, nf_from_monomial(dom, mo))),
         (cod2,)),
        (lambda i: h.image_of(i), (cod,)),
    ]
    mapped = apply_functor(h, a)
    n = _every_n(lambda n: (tensor_bimap(d_n(a, n), maps), d_n(mapped, n)))
    if n is not None:
        return f"derivative not natural on {a}, n={n}"
    return None


def _run_derivative_additive(rng, cfg, d_n):
    carrier = _free(rng)
    a, b = _nf(rng, cfg, carrier), _nf(rng, cfg, carrier)
    n = _every_n(lambda n: (d_n(nf_add(a, b), n), tensor_add(d_n(a, n), d_n(b, n))))
    if n is not None:
        return f"derivative not additive on a={a}, b={b}, n={n}"
    # natural coefficients that sum to 0 are all 0
    if not d_n(NormalForm.zero(carrier), 1).is_zero():
        return "derivative of zero is not zero"
    return None


def _run_n_independence(rng, cfg, d_n):
    carrier = _free(rng)
    a = _nf(rng, cfg, carrier, f_depth=0)
    # P(1) = P(2) with natural coefficients forces P to be constant
    if d_n(a, 1) != d_n(a, 2):
        return f"operation-free value {a} separated n=1 from n=2"
    return None


def _run_distinctness(rng, cfg, d_n):
    try:
        # P(1) = 1 and P(2) = 2 with natural coefficients force P(n) = n
        pairs = check_distinctness((1, 2), derive_fn=d_n)
    except ValueError as exc:
        return str(exc)
    bad = [(n, v) for n, v in pairs if v != n]
    if bad:
        return f"family members misevaluated their witness: {bad}"
    return None


@dataclass(frozen=True)
class Law:
    name: str
    description: str
    run: Callable
    count_attr: str = "cases"


LAWS: tuple[Law, ...] = (
    Law("rig_laws",
        "canonical forms satisfy the commutative rig identities", _run_rig_laws),
    Law("normalize_homomorphism",
        "normalization sends each constructor to the matching canonical operation",
        _run_normalize_homomorphism),
    Law("rewrite_invariance_normalize",
        "normalization is invariant under the generating rewrites",
        _run_rewrite_invariance_normalize),
    Law("rewrite_invariance_derivative",
        "derivatives only depend on the value a term denotes",
        _run_rewrite_invariance_derivative),
    Law("functor_on_terms",
        "renaming variables then normalizing equals normalizing then mapping",
        _run_functor_on_terms),
    Law("functor_composition",
        "induced rig maps respect identities and composition",
        _run_functor_composition),
    Law("selfmap_not_scalar",
        "the unary operation is not multiplication by any fixed natural",
        _run_selfmap_not_scalar),
    Law("unit_additive",
        "the variable embedding is additive", _run_unit_additive),
    Law("monad_unit",
        "collapsing after either unit insertion is the identity", _run_monad_unit),
    Law("monad_associativity",
        "both collapse orders from level 3 agree", _run_monad_associativity,
        count_attr="level3_cases"),
    Law("modality_square",
        "collapse commutes with multiplication across levels", _run_modality_square),
    Law("monoid_structure",
        "multiplication and one form a commutative monoid through tensors",
        _run_monoid_structure),
    Law("naturality_monoid_structure",
        "induced maps preserve constants and multiplication",
        _run_naturality_monoid_structure),
    Law("evaluation_homomorphism",
        "evaluation preserves the rig operations and the unary map",
        _run_evaluation_homomorphism),
    Law("product_rule",
        "the derivative of a product is the sum of its two Leibniz terms",
        _run_product_rule),
    Law("linear_rule",
        "the derivative of a variable is one tensor its index", _run_linear_rule),
    Law("chain_rule",
        "the derivative of a collapse factors through the level-2 derivative",
        _run_chain_rule),
    Law("interchange_rule",
        "iterated derivatives agree up to swapping the two element factors",
        _run_interchange_rule),
    Law("naturality_derivative",
        "derivatives commute with induced maps", _run_naturality_derivative),
    Law("derivative_additive",
        "every derivative is additive and sends zero to zero",
        _run_derivative_additive),
    Law("n_independence",
        "all family members agree on operation-free values", _run_n_independence),
    Law("distinctness",
        "family member n evaluates the operation witness to n, so members differ",
        _run_distinctness),
)

_LAWS_BY_NAME = {law.name: law for law in LAWS}


def law_names() -> tuple[str, ...]:
    return tuple(law.name for law in LAWS)


def _case_seeds(suite_seed: int, law_name: str, count: int) -> list[int]:
    # string seeding hashes via sha512, stable across platforms and runs
    rng = random.Random(f"{suite_seed}:{law_name}")
    return [rng.getrandbits(64) for _ in range(count)]


def run_law(name: str, cfg: SuiteConfig, derive_fn=None) -> LawResult:
    """Run one law at the scale the config gives it."""
    law = _LAWS_BY_NAME[name]
    derive_fn = derive_fn or default_d_n
    count = getattr(cfg, law.count_attr)
    failures = []
    started = time.perf_counter()
    for case_seed in _case_seeds(cfg.seed, law.name, count):
        message = law.run(random.Random(case_seed), cfg, derive_fn)
        if message is not None:
            failures.append(Failure(law.name, case_seed, message))
    seconds = time.perf_counter() - started
    return LawResult(law.name, law.description, count, tuple(failures), seconds)


def replay_case(name: str, case_seed: int, cfg: SuiteConfig,
                derive_fn=None) -> Optional[str]:
    """Re-run one recorded case; returns the failure message or None."""
    law = _LAWS_BY_NAME[name]
    return law.run(random.Random(case_seed), cfg, derive_fn or default_d_n)


def check_laws(cfg: SuiteConfig = SuiteConfig(), derive_fn=None) -> LawReport:
    """Run the whole registry and report per-law outcomes."""
    results = tuple(run_law(law.name, cfg, derive_fn) for law in LAWS)
    return LawReport(cfg, results)


def check_distinctness(n_values: Iterable[int],
                       derive_fn=None) -> list[tuple[int, int]]:
    """Evaluate each family member on the standard witness.

    The witness is the unary operation applied to the first variable over
    the rank-1 carrier; the member's value tensor splits off a rank-1
    element absorbed by the unitor convention, and evaluating at the
    identity rig with the generator sent to 1 leaves a bare natural.
    Returns (n, value) pairs and raises if two members coincide.
    """
    dfn = derive_fn or default_d_n
    carrier = FreeMonoid(1)
    witness = nf_selfmap(nf_var(MonoidElem.generator(carrier, 0)))
    pairs = []
    for n in n_values:
        tensor = dfn(witness, n)
        absorbed: dict[Monomial, int] = {}
        for (mono, _gen), c in tensor.items:
            absorbed[mono] = absorbed.get(mono, 0) + c
        value = evaluate(NormalForm.from_dict(carrier, absorbed),
                         CATALOG["identity"], {0: 1})
        pairs.append((n, value))
    if len({v for _, v in pairs}) != len(pairs):
        raise ValueError(f"family members coincide on the witness: {pairs}")
    return pairs
