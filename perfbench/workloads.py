"""The benchmark's three workloads: seeded inputs, the timed pipeline of one
op, and the check of its result against the references.

The engine is passed in as ``rd``, a namespace of freshly imported modules
(see ``run.load_engine``), so that set-up can be repeated and timed.  Every
call into an engine layer goes through ``tr.call`` so that the traced run
can put a span around it.

Input mixes are fixed schedules of shapes.  poly_expand and op_derive cycle
through their schedule and a run ends on a whole cycle, so every run, on
every seed, times the same mix of shapes; the seed only draws the
coefficients, homs, evaluation points and weights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from reference import display_value, dual_eval, tensor_slope

N_VALUES = (0, 1, 2, 3, 7)

# Distinct inputs per schedule slot.  The run cycles through them, so an
# input recurs only every POOL_CYCLES cycles.
POOL_CYCLES = 4


class Mismatch(Exception):
    """A result disagreed with its reference."""


@dataclass
class Inputs:
    items: list
    block: int  # a run ends on a multiple of this many ops


def _read(text, phi, w, selfmap):
    try:
        return display_value(text, phi, w, selfmap)
    except (ValueError, LookupError) as exc:
        raise Mismatch(f"unreadable display text: {exc}") from exc


def _expect(what, got, want):
    if got != want:
        raise Mismatch(f"{what}: engine gave {got!r}, reference {want!r}")


# --- raw terms and their input text, built side by side --------------------
# An expression is a (text, term) pair.  The term is built here, not parsed,
# so references computed from it never pass through the engine's parser.

def _var(rd, carrier, coords):
    text = "x[" + ",".join(map(str, coords)) + "]"
    elem = rd.carrier.MonoidElem.from_dict(carrier, dict(enumerate(coords)))
    return text, rd.terms.Var(elem)


def _const(rd, c):
    term = rd.terms.ONE
    for _ in range(c - 1):
        term = rd.terms.Sum(term, rd.terms.ONE)
    return str(c), term


def _add(rd, a, b):
    return f"({a[0]}+{b[0]})", rd.terms.Sum(a[1], b[1])


def _mul(rd, a, b):
    return f"{a[0]}*{b[0]}", rd.terms.Prod(a[1], b[1])


def _app(rd, a):
    return f"f({a[0]})", rd.terms.App(a[1])


def _dense_linear(rd, rng, carrier, const):
    """c1*x1 + ... + cr*xr + const with every ci in 1..3: dense, so the
    expanded size of a product depends only on rank and degree."""
    coords = [rng.randint(1, 3) for _ in range(carrier.rank)]
    return _add(rd, _var(rd, carrier, coords), _const(rd, const))


def _product(rd, factors):
    expr = factors[0]
    for f in factors[1:]:
        expr = _mul(rd, expr, f)
    return expr


# --- law_suite -------------------------------------------------------------

class LawFailed(Exception):
    """A law case returned a failure verdict."""


def _replay(replay_case, name, case_seed, cfg, derive):
    message = replay_case(name, case_seed, cfg, derive_fn=derive)
    if message is not None:
        raise LawFailed(message)


class LawSuite:
    """Every default law case, one ``replay_case`` call per op."""

    name = "law_suite"

    def generate(self, rd, seed):
        rng = random.Random(seed)
        cfg = rd.laws.SuiteConfig()
        # (span name, law name, case seed, config)
        cases = [(f"laws.{law.name}", law.name, rng.getrandbits(64), cfg)
                 for law in rd.laws.LAWS
                 for _ in range(getattr(cfg, law.count_attr))]
        # Shuffled, so the cases a run reaches are a fair sample of the suite.
        rng.shuffle(cases)
        return Inputs(cases, block=1)

    def op(self, rd, tr, item, derive):
        span, name, case_seed, cfg = item
        tr.call(span, _replay, rd.laws.replay_case, name, case_seed, cfg, derive)

    def check(self, rd, item, out):
        return 0  # the law's own verdict was checked inside the op

    def sharing(self, rd, items):
        return 0, 0, 0


# --- poly_expand -----------------------------------------------------------

# (domain rank, codomain rank of the hom, number of linear factors).
# Degrees 4..10 over rank 2 -> 2; the denser rank-3 shapes stop where one op
# would run for a fifth of a second or more, so a run still completes
# enough ops to place its 90th percentile.
POLY_SHAPES = (
    [(2, 2, k) for k in range(4, 11)]
    + [(3, 2, k) for k in range(4, 8)]
    + [(2, 3, k) for k in range(4, 8)]
    + [(3, 3, k) for k in range(4, 6)]
)


@dataclass
class PolyInput:
    text: str
    term: Any
    carrier: Any
    hom: Any
    phi: dict        # evaluation point over the hom's codomain
    phi_dom: dict    # phi pulled back along the hom
    w: dict          # direction that absorbs the derivative's carrier factor
    n: int
    ref: Any = field(default=None)


@dataclass
class PolyOutput:
    p: Any
    q: Any
    collapsed: Any
    dp: Any
    dq: Any
    transported: Any
    ev_p: int
    ev_q: int
    text: str


class PolyExpand:
    """Operation-free products of dense linear forms through the
    normalize / apply_functor / mu / tensor_bimap pipeline."""

    name = "poly_expand"

    def generate(self, rd, seed):
        rng = random.Random(seed)
        items = []
        for _ in range(POOL_CYCLES):
            for slot, (r, r2, k) in enumerate(POLY_SHAPES):
                dom, cod = rd.carrier.FreeMonoid(r), rd.carrier.FreeMonoid(r2)
                text, term = _product(rd, [_dense_linear(rd, rng, dom, rng.randint(1, 3))
                                           for _ in range(k)])
                rows = [[rng.randint(1, 3) for _ in range(r2)] for _ in range(r)]
                phi = {j: rng.randint(1, 5) for j in range(r2)}
                items.append(PolyInput(
                    text, term, dom, rd.carrier.MonoidHom.from_matrix(dom, cod, rows),
                    phi, {i: sum(rows[i][j] * phi[j] for j in range(r2)) for i in range(r)},
                    {i: rng.randint(1, 5) for i in range(r)},
                    N_VALUES[slot % len(N_VALUES)]))
        return Inputs(items, block=len(POLY_SHAPES))

    def op(self, rd, tr, inp, derive):
        h, dom = inp.hom, inp.carrier
        term = tr.call("text.parse", rd.text.parse, inp.text, dom)
        p = tr.call("normal.normalize", rd.normal.normalize, term, dom)
        q = tr.call("normal.apply_functor", rd.normal.apply_functor, h, p)
        lifted = rd.modality.unit(rd.normal.as_monoid_element(p))
        collapsed = tr.call("modality.mu", rd.modality.mu, lifted)
        dp = tr.call("derive.d_n", derive, p, inp.n)
        dq = tr.call("derive.d_n", derive, q, inp.n)
        # Naturality of the derivative: transport d(p) along h factor by
        # factor; it must equal d(h(p)).
        cod2 = rd.carrier.MonomialBasis(h.codomain)

        def map_monomial(mono):
            image = tr.call("normal.apply_functor", rd.normal.apply_functor,
                            h, rd.normal.nf_from_monomial(dom, mono))
            return rd.normal.as_monoid_element(image)

        maps = [(map_monomial, (cod2,)), (h.image_of, (h.codomain,))]
        transported = tr.call("carrier.tensor_bimap", rd.carrier.tensor_bimap, dp, maps)
        identity = rd.modality.CATALOG["identity"]
        ev_p = tr.call("modality.evaluate", rd.modality.evaluate, p, identity, inp.phi_dom)
        ev_q = tr.call("modality.evaluate", rd.modality.evaluate, q, identity, inp.phi)
        text = tr.call("normal.render_nf", rd.normal.render_nf, q)
        return PolyOutput(p, q, collapsed, dp, dq, transported, ev_p, ev_q, text)

    def check(self, rd, inp, out):
        if inp.ref is None:
            value = rd.oracle.term_value(inp.term, rd.modality.CATALOG["identity"], inp.phi_dom)
            _, slope = dual_eval(inp.term, rd.terms, inp.phi_dom, inp.w, inp.n, 0)
            inp.ref = value, slope
        value, slope = inp.ref
        _expect("evaluate(p)", out.ev_p, value)
        _expect("evaluate(apply_functor(h, p)) at phi", out.ev_q, value)
        _expect("render_nf(apply_functor(h, p)) read back at phi",
                _read(out.text, inp.phi, {}, None), value)
        _expect("slope of d_n(p)",
                tensor_slope(out.dp, rd.normal, inp.phi_dom, inp.w, None), slope)
        if out.collapsed != out.p:
            raise Mismatch("mu(unit(p)) != p")
        if out.transported != out.dq:
            raise Mismatch("tensor_bimap(d_n(p), h) != d_n(apply_functor(h, p))")
        return len(out.q.items)

    def sharing(self, rd, items):
        return _sharing(rd, items)


# --- op_derive -------------------------------------------------------------

# Three families of values dense in the operation atom:
#   fpp      f(p)*p, p a product of k dense linear forms: one shared atom in
#            every monomial;
#   tower    v <- f(v+x)*(v+x) from v = x, over rank 1: atoms nested and
#            shared across depth;
#   distinct x * f(L1) * ... * f(Lk) with pairwise distinct linear Li: no
#            atom repeats, so sharing cannot help.
# Each shape runs once per n in N_VALUES; n = 0 skips the recursion into
# atom arguments and the larger n only grow coefficients.
OP_SHAPES = tuple(
    (family, r, k, n)
    for family, r, k in (
        [("fpp", 2, k) for k in (3, 4, 5)]
        + [("fpp", 3, k) for k in (2, 3, 4)]
        + [("tower", 1, depth) for depth in (3, 4, 5)]
        + [("distinct", r, k) for r, k in ((2, 6), (3, 4), (3, 8))]
    )
    for n in N_VALUES
)


@dataclass
class OpInput:
    text: str
    term: Any
    carrier: Any
    rig: Any
    phi: dict
    w: dict
    n: int
    c0: int
    ref: Any = field(default=None)


@dataclass
class OpOutput:
    p: Any
    d: Any
    ev_p: int
    ev_d: int
    text_p: str
    text_d: str


def _op_expr(rd, rng, family, carrier, k):
    if family == "fpp":
        p = _product(rd, [_dense_linear(rd, rng, carrier, rng.randint(1, 3))
                          for _ in range(k)])
        return _mul(rd, _app(rd, p), p)
    if family == "tower":
        v = _var(rd, carrier, [rng.randint(1, 3)])
        for _ in range(k):
            s = _add(rd, v, _var(rd, carrier, [rng.randint(1, 3)]))
            v = _mul(rd, _app(rd, s), s)
        return v
    # distinct: one monomial; constant terms 1..k keep the atoms pairwise
    # different
    coords = [0] * carrier.rank
    coords[rng.randrange(carrier.rank)] = rng.randint(1, 3)
    factors = [_var(rd, carrier, coords)]
    factors += [_app(rd, _dense_linear(rd, rng, carrier, i + 1)) for i in range(k)]
    return _product(rd, factors)


class OpDerive:
    """Values dense in the operation atom through normalize / d_n /
    evaluate / render."""

    name = "op_derive"

    def generate(self, rd, seed):
        rng = random.Random(seed)
        items = []
        for _ in range(POOL_CYCLES):
            for family, r, k, n in OP_SHAPES:
                carrier = rd.carrier.FreeMonoid(r)
                text, term = _op_expr(rd, rng, family, carrier, k)
                c0 = rng.randint(0, 3)
                rig = rd.modality.RigWithSelfMap(
                    f"affine({n},{c0})", lambda v, n=n, c0=c0: n * v + c0)
                items.append(OpInput(
                    text, term, carrier, rig,
                    {i: rng.randint(1, 4) for i in range(r)},
                    {i: rng.randint(1, 4) for i in range(r)}, n, c0))
        return Inputs(items, block=len(OP_SHAPES))

    def op(self, rd, tr, inp, derive):
        carrier = inp.carrier
        term = tr.call("text.parse", rd.text.parse, inp.text, carrier)
        p = tr.call("normal.normalize", rd.normal.normalize, term, carrier)
        d = tr.call("derive.d_n", derive, p, inp.n)
        ev_p = tr.call("modality.evaluate", rd.modality.evaluate, p, inp.rig, inp.phi)
        # Absorb the carrier factor with the weights w: a plain value whose
        # evaluation is the directional derivative along w.
        absorbed = {}
        for (mono, gen), c in d.items:
            absorbed[mono] = absorbed.get(mono, 0) + c * inp.w[gen]
        slope_nf = rd.normal.NormalForm.from_dict(carrier, absorbed)
        ev_d = tr.call("modality.evaluate", rd.modality.evaluate, slope_nf, inp.rig, inp.phi)
        text_p = tr.call("normal.render_nf", rd.normal.render_nf, p)
        text_d = tr.call("text.render_tensor", rd.text.render_tensor, d)
        return OpOutput(p, d, ev_p, ev_d, text_p, text_d)

    def check(self, rd, inp, out):
        if inp.ref is None:
            value = rd.oracle.term_value(inp.term, inp.rig, inp.phi)
            dual_value, slope = dual_eval(inp.term, rd.terms, inp.phi, inp.w, inp.n, inp.c0)
            if dual_value != value:
                raise AssertionError("the two references disagree; the benchmark is broken")
            inp.ref = value, slope
        value, slope = inp.ref
        _expect("evaluate(p)", out.ev_p, value)
        _expect("evaluate(absorbed d_n(p))", out.ev_d, slope)
        _expect("render_nf(p) read back",
                _read(out.text_p, inp.phi, inp.w, inp.rig.selfmap), value)
        _expect("render_tensor(d_n(p)) read back",
                _read(out.text_d, inp.phi, inp.w, inp.rig.selfmap), slope)
        return len(out.d.items)

    def sharing(self, rd, items):
        return _sharing(rd, items)


def _sharing(rd, items):
    """Operation-atom occurrences that today's ``d_n`` recursion visits, and
    the distinct atoms among them, summed over ``items``; plus the share of
    items (in %) whose visits repeat some atom.

    ``d_n`` visits each distinct atom of each monomial once and recurses
    into an atom's argument only when n != 0.  The ratio of the two counts
    bounds what sharing work across repeated atoms can save.
    """
    app_atom = rd.normal.AppAtom
    occurrences = distinct = repeated = 0
    for inp in items:
        seen = set()
        visits = 0
        stack = [rd.normal.normalize(inp.term, inp.carrier)]
        while stack:
            nf = stack.pop()
            for mono, _c in nf.items:
                for atom in set(mono.atoms):
                    if isinstance(atom, app_atom):
                        visits += 1
                        seen.add(atom)
                        if inp.n != 0:
                            stack.append(atom.argument)
        occurrences += visits
        distinct += len(seen)
        repeated += visits > len(seen)
    return occurrences, distinct, 100.0 * repeated / len(items)


WORKLOADS = {w.name: w for w in (LawSuite(), PolyExpand(), OpDerive())}
