"""Randomized, replayable checking of every law the package promises.

Each law draws its cases from seeds derived deterministically from the
suite seed and the law name, so a report is reproducible bit for bit
(timings aside) and every failure carries the case seed that replays it.
A law is a draw, which returns a case's inputs, and a check on them;
laws that need the same inputs share a draw.
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
from dataclasses import asdict, dataclass, replace
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

    def __post_init__(self):
        if min(self.cases, self.max_depth, self.level3_cases) < 0:
            raise ValueError("cases, max_depth and level3_cases must be naturals")


@dataclass(frozen=True)
class Failure:
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

    def to_obj(self) -> dict:
        laws = [asdict(replace(r, seconds=round(r.seconds, 3))) for r in self.results]
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


# --- draws: each returns a case's inputs as a tuple, drawn from ``rng``

def _free(rng) -> FreeMonoid:
    return FreeMonoid(rng.choice(RANKS))


def _term(rng, cfg, carrier, f_depth=MAX_F_DEPTH):
    return random_term_rng(rng, carrier, cfg.max_depth, f_depth, MAX_COEFF,
                           PAYLOAD_DEPTH)


def _nf(rng, cfg, carrier, f_depth=MAX_F_DEPTH) -> NormalForm:
    return normalize(_term(rng, cfg, carrier, f_depth), carrier)


def _values(k, f_depth=MAX_F_DEPTH):
    """k values over one random base carrier."""
    def draw(rng, cfg):
        carrier = _free(rng)
        return tuple(_nf(rng, cfg, carrier, f_depth) for _ in range(k))
    return draw


def _elems(k):
    """k carrier elements over one random base carrier."""
    def draw(rng, cfg):
        carrier = _free(rng)
        return tuple(random_elem(rng, carrier, MAX_COEFF) for _ in range(k))
    return draw


def _level2_values(k):
    """k level-2 values over one random base carrier."""
    def draw(rng, cfg):
        level2 = MonomialBasis(_free(rng))
        return tuple(normalize(random_term_rng(rng, level2, LEVEL2_DEPTH, 1,
                                               MAX_COEFF, PAYLOAD_DEPTH), level2)
                     for _ in range(k))
    return draw


def _mapped_values(k):
    """A random hom between base carriers, then k values over its domain."""
    def draw(rng, cfg):
        dom, cod = _free(rng), _free(rng)
        return (random_hom(rng, dom, cod), *(_nf(rng, cfg, dom) for _ in range(k)))
    return draw


def _rewritten(rng, cfg):
    """A term and the end of a seeded rewrite walk from it."""
    carrier = _free(rng)
    t = _term(rng, cfg, carrier)
    steps, vseed = rng.randint(1, 6), rng.getrandbits(32)
    return carrier, t, equivalent_variant(t, steps, vseed, carrier)


def _every_n(sides: Callable[[int], tuple], failure: Callable[[int], str]) -> Optional[str]:
    """None when the two values ``sides(n)`` agree for every natural n (the
    module docstring gives the proof), else ``failure(n)`` at an n where
    they differ."""
    lhs, rhs = sides(1)
    if lhs != rhs:
        return failure(1)
    if lhs.is_zero():  # natural coefficients that sum to 0 are all 0
        return None
    big = 1 + max(c for _, c in lhs.items)
    lhs, rhs = sides(big)
    return None if lhs == rhs else failure(big)


def _prod2(x: NormalForm, y: NormalForm) -> NormalForm:
    return nabla(tensor_pure([as_monoid_element(x), as_monoid_element(y)]))


# --- the laws: each check takes the derivative under test and a draw's
# --- inputs, and returns None on success and a message on failure

@dataclass(frozen=True)
class Law:
    """A case is ``check(d_n, *draw(rng, cfg))``; ``count_attr`` names the
    config field that sets the number of cases."""

    name: str
    description: str
    draw: Callable
    check: Callable
    count_attr: str = "cases"


_LAWS_BY_NAME: dict[str, Law] = {}


def _law(description: str, draw: Callable, count_attr: str = "cases"):
    """Register the decorated check as the law named after it."""
    def register(check):
        _LAWS_BY_NAME[check.__name__] = Law(check.__name__, description, draw,
                                            check, count_attr)
        return check
    return register


@_law("canonical forms satisfy the commutative rig identities", _values(3))
def rig_laws(d_n, a, b, c):
    zero, one = NormalForm.zero(a.carrier), NormalForm.one(a.carrier)
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


def _two_terms_and_elem(rng, cfg):
    carrier = _free(rng)
    return (carrier, _term(rng, cfg, carrier), _term(rng, cfg, carrier),
            random_elem(rng, carrier, MAX_COEFF))


@_law("normalization sends each constructor to the matching canonical operation",
      _two_terms_and_elem)
def normalize_homomorphism(d_n, carrier, t1, t2, e):
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


@_law("normalization is invariant under the generating rewrites", _rewritten)
def rewrite_invariance_normalize(d_n, carrier, t, v):
    if normalize(t, carrier) != normalize(v, carrier):
        return (f"normalization changed under rewrites: {print_term(t, carrier)}"
                f" became {print_term(v, carrier)}")
    return None


@_law("derivatives only depend on the value a term denotes", _rewritten)
def rewrite_invariance_derivative(d_n, carrier, t, v):
    a, b = normalize(t, carrier), normalize(v, carrier)
    return _every_n(lambda n: (d_n(a, n), d_n(b, n)),
                    lambda n: f"derivative changed under rewrites (n={n}):"
                              f" {print_term(t, carrier)} became {print_term(v, carrier)}")


def _hom_and_term(rng, cfg):
    dom, cod = _free(rng), _free(rng)
    return random_hom(rng, dom, cod), _term(rng, cfg, dom)


@_law("renaming variables then normalizing equals normalizing then mapping",
      _hom_and_term)
def functor_on_terms(d_n, h, t):
    if normalize(term_map_hom(h, t), h.codomain) != apply_functor(h, normalize(t, h.domain)):
        return f"term mapping disagrees with induced map on {print_term(t, h.domain)}"
    return None


def _composable(rng, cfg):
    first, mid, last = (_free(rng) for _ in range(3))
    return random_hom(rng, first, mid), random_hom(rng, mid, last), _nf(rng, cfg, first)


@_law("induced rig maps respect identities and composition", _composable)
def functor_composition(d_n, h, k, a):
    if apply_functor(MonoidHom.identity(a.carrier), a) != a:
        return f"identity map moved {a}"
    if apply_functor(k.compose(h), a) != apply_functor(k, apply_functor(h, a)):
        return f"composite map disagrees on {a}"
    return None


@_law("the unary operation is not multiplication by any fixed natural", _values(1))
def selfmap_not_scalar(d_n, a):
    witnesses = (
        ("zero", NormalForm.zero(a.carrier)),
        ("the first variable", nf_var(MonoidElem.generator(a.carrier, 0))),
        ("a random value", a),
    )
    for label, v in witnesses:
        image = nf_selfmap(v)
        # image == n*v for at most one n: the ratio on v's first monomial
        n = image.coeff(v.items[0][0]) // v.items[0][1] if v.items else 0
        if image == nf_scale(v, n):
            return f"operation equals {n}*id on {label}: {v}"
    return None


@_law("the variable embedding is additive", _elems(2))
def unit_additive(d_n, e1, e2):
    if unit(elem_add(e1, e2)) != nf_add(unit(e1), unit(e2)):
        return f"unit not additive on {e1.items!r} and {e2.items!r}"
    if not unit(MonoidElem.zero(e1.carrier)).is_zero():
        return "unit of zero is not zero"
    return None


@_law("collapsing after either unit insertion is the identity", _values(1))
def monad_unit(d_n, a):
    if mu(unit(as_monoid_element(a))) != a:
        return f"collapse after outer unit moved {a}"
    level2 = MonomialBasis(a.carrier)
    h_u = MonoidHom(a.carrier, level2,
                    lambda i: MonoidElem.generator(level2, Monomial((GenAtom(i),))))
    if mu(apply_functor(h_u, a)) != a:
        return f"collapse after mapped unit moved {a}"
    return None


def _level3_value(rng, cfg):
    level3 = MonomialBasis(MonomialBasis(_free(rng)))
    term = random_term_rng(rng, level3, LEVEL3_DEPTH, 1, 2, PAYLOAD_DEPTH)
    return (normalize(term, level3),)


@_law("both collapse orders from level 3 agree", _level3_value,
      count_attr="level3_cases")
def monad_associativity(d_n, a3):
    level2 = a3.carrier.base
    lhs = mu(mu(a3))
    h_m = MonoidHom(a3.carrier, level2,
                    lambda nu: as_monoid_element(mu(nf_from_monomial(level2, nu))))
    rhs = mu(apply_functor(h_m, a3))
    if lhs != rhs:
        return f"collapse orders disagree from level 3: {lhs} vs {rhs}"
    return None


@_law("collapse commutes with multiplication across levels", _level2_values(2))
def modality_square(d_n, u2, v2):
    lhs = mu(_prod2(u2, v2))
    rhs = _prod2(mu(u2), mu(v2))
    if lhs != rhs:
        return f"collapse does not commute with multiplication: {lhs} vs {rhs}"
    return None


@_law("multiplication and one form a commutative monoid through tensors", _values(3))
def monoid_structure(d_n, a, b, c):
    if _prod2(_prod2(a, b), c) != _prod2(a, _prod2(b, c)):
        return f"tensor multiplication not associative on a={a}, b={b}, c={c}"
    if _prod2(a, eta(a.carrier, 1)) != a:
        return f"tensor unit failed on {a}"
    pair = tensor_pure([as_monoid_element(a), as_monoid_element(b)])
    if nabla(tensor_permute(pair, (1, 0))) != nabla(pair):
        return f"tensor multiplication not commutative on a={a}, b={b}"
    return None


@_law("induced maps preserve constants and multiplication",
      lambda rng, cfg: (*_mapped_values(2)(rng, cfg), rng.randint(0, 5)))
def naturality_monoid_structure(d_n, h, a, b, k):
    if apply_functor(h, eta(h.domain, k)) != eta(h.codomain, k):
        return f"induced map moved the constant {k}"
    lhs = apply_functor(h, _prod2(a, b))
    rhs = _prod2(apply_functor(h, a), apply_functor(h, b))
    if lhs != rhs:
        return f"induced map broke multiplication on a={a}, b={b}"
    return None


def _evaluation_case(rng, cfg):
    a, b = _values(2)(rng, cfg)
    rig = CATALOG[rng.choice(sorted(CATALOG))]
    phi = {i: rng.randint(0, 4) for i in range(a.carrier.rank)}
    return a, b, rig, phi, random_elem(rng, a.carrier, MAX_COEFF)


@_law("evaluation preserves the rig operations and the unary map", _evaluation_case)
def evaluation_homomorphism(d_n, a, b, rig, phi, e):
    def ev(x):
        return evaluate(x, rig, phi)

    checks = (
        ("sum", ev(nf_add(a, b)) == ev(a) + ev(b)),
        ("product", ev(nf_mul(a, b)) == ev(a) * ev(b)),
        ("one", ev(NormalForm.one(a.carrier)) == 1),
        ("zero", ev(NormalForm.zero(a.carrier)) == 0),
        ("operation", ev(nf_selfmap(a)) == rig.selfmap(ev(a))),
        ("variable", ev(unit(e)) == sum(c * phi[k] for k, c in e.items)),
    )
    for what, holds in checks:
        if not holds:
            return f"evaluation broke on {what} (rig={rig.name}, phi={phi})"
    return None


@_law("the derivative of a product is the sum of its two Leibniz terms", _values(2))
def product_rule(d_n, a, b):
    ab, a_t, b_t = nf_mul(a, b), nf_as_tensor(a), nf_as_tensor(b)

    def sides(n):
        left_term = nabla_at(tensor_concat(a_t, d_n(b, n)), 0)
        right_term = nabla_at(
            tensor_permute(tensor_concat(d_n(a, n), b_t), (0, 2, 1)), 0)
        return d_n(ab, n), tensor_add(left_term, right_term)

    return _every_n(sides, lambda n: f"product rule failed for a={a}, b={b}, n={n}")


@_law("the derivative of a variable is one tensor its index", _elems(1))
def linear_rule(d_n, e):
    one_elem = MonoidElem.generator(MonomialBasis(e.carrier), ONE_MONOMIAL)
    return _every_n(lambda n: (d_n(unit(e), n), tensor_pure([one_elem, e])),
                    lambda n: f"linear rule failed for element {e.items!r}, n={n}")


@_law("the derivative of a collapse factors through the level-2 derivative",
      _level2_values(1))
def chain_rule(d_n, a2):
    level2 = a2.carrier
    carrier = level2.base
    collapsed = mu(a2)

    def sides(n):
        maps = [
            (lambda nu: as_monoid_element(mu(nf_from_monomial(level2, nu))), (level2,)),
            (lambda mo: d_n(nf_from_monomial(carrier, mo), n), (level2, carrier)),
        ]
        return d_n(collapsed, n), nabla_at(tensor_bimap(d_n(a2, n), maps), 0)

    return _every_n(sides, lambda n: f"chain rule failed for {a2}, n={n}")


@_law("iterated derivatives agree up to swapping the two element factors", _values(1))
def interchange_rule(d_n, a):
    carrier = a.carrier
    level2 = MonomialBasis(carrier)

    def sides(n):
        maps = [
            (lambda mo: d_n(nf_from_monomial(carrier, mo), n), (level2, carrier)),
            (lambda i: MonoidElem.generator(carrier, i), (carrier,)),
        ]
        lifted = tensor_bimap(d_n(a, n), maps)
        return lifted, tensor_permute(lifted, (0, 2, 1))

    return _every_n(sides, lambda n: f"interchange rule failed for {a}, n={n}")


@_law("derivatives commute with induced maps", _mapped_values(1))
def naturality_derivative(d_n, h, a):
    maps = [
        (lambda mo: as_monoid_element(apply_functor(h, nf_from_monomial(h.domain, mo))),
         (MonomialBasis(h.codomain),)),
        (lambda i: h.image_of(i), (h.codomain,)),
    ]
    mapped = apply_functor(h, a)
    return _every_n(lambda n: (tensor_bimap(d_n(a, n), maps), d_n(mapped, n)),
                    lambda n: f"derivative not natural on {a}, n={n}")


@_law("every derivative is additive and sends zero to zero", _values(2))
def derivative_additive(d_n, a, b):
    failure = _every_n(lambda n: (d_n(nf_add(a, b), n), tensor_add(d_n(a, n), d_n(b, n))),
                       lambda n: f"derivative not additive on a={a}, b={b}, n={n}")
    # natural coefficients that sum to 0 are all 0
    if failure is None and not d_n(NormalForm.zero(a.carrier), 1).is_zero():
        return "derivative of zero is not zero"
    return failure


@_law("all family members agree on operation-free values", _values(1, f_depth=0))
def n_independence(d_n, a):
    # P(1) = P(2) with natural coefficients forces P to be constant
    if d_n(a, 1) != d_n(a, 2):
        return f"operation-free value {a} separated n=1 from n=2"
    return None


@_law("family member n evaluates the operation witness to n, so members differ",
      lambda rng, cfg: ())
def distinctness(d_n):
    try:
        # P(1) = 1 and P(2) = 2 with natural coefficients force P(n) = n
        pairs = check_distinctness((1, 2), derive_fn=d_n)
    except ValueError as exc:
        return str(exc)
    bad = [(n, v) for n, v in pairs if v != n]
    if bad:
        return f"family members misevaluated their witness: {bad}"
    return None


LAWS: tuple[Law, ...] = tuple(_LAWS_BY_NAME.values())


def law_names() -> tuple[str, ...]:
    return tuple(law.name for law in LAWS)


def _case_seeds(suite_seed: int, law_name: str, count: int) -> list[int]:
    # string seeding hashes via sha512, stable across platforms and runs
    rng = random.Random(f"{suite_seed}:{law_name}")
    return [rng.getrandbits(64) for _ in range(count)]


def _case(law: Law, case_seed: int, cfg: SuiteConfig, d) -> Optional[str]:
    return law.check(d, *law.draw(random.Random(case_seed), cfg))


def run_law(name: str, cfg: SuiteConfig, derive_fn=None) -> LawResult:
    """Run one law at the scale the config gives it."""
    law = _LAWS_BY_NAME[name]
    derive_fn = derive_fn or default_d_n
    count = getattr(cfg, law.count_attr)
    failures = []
    started = time.perf_counter()
    for case_seed in _case_seeds(cfg.seed, law.name, count):
        message = _case(law, case_seed, cfg, derive_fn)
        if message is not None:
            failures.append(Failure(case_seed, message))
    seconds = time.perf_counter() - started
    return LawResult(law.name, law.description, count, tuple(failures), seconds)


def replay_case(name: str, case_seed: int, cfg: SuiteConfig,
                derive_fn=None) -> Optional[str]:
    """Re-run one recorded case; returns the failure message or None."""
    return _case(_LAWS_BY_NAME[name], case_seed, cfg, derive_fn or default_d_n)


def check_laws(cfg: SuiteConfig = SuiteConfig(), derive_fn=None) -> LawReport:
    """Run the whole registry and report per-law outcomes."""
    results = tuple(run_law(law.name, cfg, derive_fn) for law in LAWS)
    return LawReport(cfg, results)


def check_distinctness(n_values: Iterable[int],
                       derive_fn=None) -> list[tuple[int, int]]:
    """Evaluate each family member on the standard witness.

    The witness is the unary operation applied to the first variable over
    the rank-1 carrier.  Each monomial of the member's value tensor (whose
    rank-1 factor the unitor convention absorbs) is evaluated at the
    identity rig with the generator sent to 1, so the value is a natural.
    Returns (n, value) pairs and raises if two members coincide.
    """
    dfn = derive_fn or default_d_n
    carrier = FreeMonoid(1)
    witness = nf_selfmap(nf_var(MonoidElem.generator(carrier, 0)))
    identity = CATALOG["identity"]
    pairs = [(n, sum(c * evaluate(nf_from_monomial(carrier, mono), identity, {0: 1})
                     for (mono, _gen), c in dfn(witness, n).items))
             for n in n_values]
    if len({v for _, v in pairs}) != len(pairs):
        raise ValueError(f"family members coincide on the witness: {pairs}")
    return pairs
