"""Seeded random generation of terms, elements and rewrite walks.

Everything here is deterministic in the seed: the same seed and bounds
yield the same term on every platform, and every failure a randomized law
check finds can be replayed from its recorded seed.
"""

from __future__ import annotations

import random

from .carrier import Carrier, FreeMonoid, MonoidElem, MonoidHom
from .normal import as_monoid_element, normalize
from .terms import (
    App, Prod, RewriteRule, Sum, Term, Var, ONE, RULES_FOR, ZERO, positions,
    rewrite_step,
)


def random_elem(rng: random.Random, carrier: Carrier, max_coeff: int,
                payload_depth: int = 2) -> MonoidElem:
    """Random carrier element; at level 2 the basis keys come from a small
    normalized expression over the base carrier."""
    if isinstance(carrier, FreeMonoid):
        coords = {i: rng.randint(0, max_coeff) for i in range(carrier.rank)}
        return MonoidElem.from_dict(carrier, coords)
    inner = random_term_rng(rng, carrier.base, payload_depth, 1, max_coeff,
                            max(payload_depth - 1, 0))
    return as_monoid_element(normalize(inner, carrier.base))


def random_term_rng(rng: random.Random, carrier: Carrier, max_depth: int,
                    max_f_depth: int, max_coeff: int,
                    payload_depth: int = 2) -> Term:
    """Random term from ``rng``; ``payload_depth`` bounds level-2 payloads."""
    choices = ["zero", "one", "var"]
    if max_depth > 0:
        choices += ["sum", "prod"]
        if max_f_depth > 0:
            choices.append("app")
    kind = rng.choice(choices)
    if kind == "zero":
        return ZERO
    if kind == "one":
        return ONE
    if kind == "var":
        return Var(random_elem(rng, carrier, max_coeff, payload_depth))
    if kind == "app":
        return App(random_term_rng(rng, carrier, max_depth - 1, max_f_depth - 1,
                                   max_coeff, payload_depth))
    left = random_term_rng(rng, carrier, max_depth - 1, max_f_depth, max_coeff,
                           payload_depth)
    right = random_term_rng(rng, carrier, max_depth - 1, max_f_depth, max_coeff,
                            payload_depth)
    return Sum(left, right) if kind == "sum" else Prod(left, right)


def random_hom(rng: random.Random, domain: FreeMonoid, codomain: FreeMonoid) -> MonoidHom:
    """Random hom whose matrix entries are drawn from 0..3."""
    rows = [[rng.randint(0, 3) for _ in range(codomain.rank)]
            for _ in range(domain.rank)]
    return MonoidHom.from_matrix(domain, codomain, rows)


# The payloads the walk draws for the rows of RULES that need one.
_PAYLOAD_DRAWS = {
    ("var_add", False): lambda sub, carrier, rng: MonoidElem.from_dict(
        sub.elem.carrier, {k: rng.randint(0, c) for k, c in sub.elem.items}),
    ("annihilate", False): lambda sub, carrier, rng: random_term_rng(rng, carrier, 1, 1, 2),
    ("var_zero", False): lambda sub, carrier, rng: MonoidElem.zero(carrier),
}


def _candidate_moves(term: Term, carrier: Carrier,
                     rng: random.Random) -> list[tuple[RewriteRule, tuple[int, ...]]]:
    """Every matching row of RULES at every position: positions in preorder,
    rows in table order, payloads drawn from ``rng`` in that order."""
    moves: list[tuple[RewriteRule, tuple[int, ...]]] = []
    for path, sub in positions(term):
        for e in RULES_FOR[type(sub)]:
            if e.guard is None or e.guard(sub):
                moves.append((e.rule or RewriteRule(
                    e.tag, e.forward, _PAYLOAD_DRAWS[e.tag, e.forward](sub, carrier, rng)), path))
    return moves


def equivalent_variant(term: Term, steps: int, seed: int, carrier: Carrier) -> Term:
    """Random walk over the generating rewrites; the result denotes the same
    rig value as the input."""
    rng = random.Random(seed)
    for _ in range(steps):
        rule, path = rng.choice(_candidate_moves(term, carrier, rng))
        term = rewrite_step(term, rule, path)
    return term
