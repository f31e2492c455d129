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
    App, One, Prod, RewriteRule, Sum, Term, Var, Zero, ONE, ZERO,
    positions, rewrite_step,
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
        if max_f_depth > 0 and carrier.selfmap_enabled:
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


def random_hom(rng: random.Random, domain: FreeMonoid, codomain: FreeMonoid,
               max_coeff: int = 3) -> MonoidHom:
    rows = [[rng.randint(0, max_coeff) for _ in range(codomain.rank)]
            for _ in range(domain.rank)]
    return MonoidHom.from_matrix(domain, codomain, rows)


def _candidate_moves(term: Term, carrier: Carrier,
                     rng: random.Random) -> list[tuple[RewriteRule, tuple[int, ...]]]:
    moves: list[tuple[RewriteRule, tuple[int, ...]]] = []
    for path, sub in positions(term):
        # shrink/neutral directions, where the shape matches
        if isinstance(sub, Sum):
            moves.append((RewriteRule("comm_add"), path))
            if isinstance(sub.left, Sum):
                moves.append((RewriteRule("assoc_add"), path))
            if isinstance(sub.right, Sum):
                moves.append((RewriteRule("assoc_add", forward=False), path))
            if isinstance(sub.right, Zero):
                moves.append((RewriteRule("unit_add"), path))
            if isinstance(sub.left, Var) and isinstance(sub.right, Var):
                moves.append((RewriteRule("var_add"), path))
            if (isinstance(sub.left, Prod) and isinstance(sub.right, Prod)
                    and sub.left.right == sub.right.right):
                moves.append((RewriteRule("distrib", forward=False), path))
        elif isinstance(sub, Prod):
            moves.append((RewriteRule("comm_mul"), path))
            if isinstance(sub.left, Prod):
                moves.append((RewriteRule("assoc_mul"), path))
            if isinstance(sub.right, Prod):
                moves.append((RewriteRule("assoc_mul", forward=False), path))
            if isinstance(sub.right, One):
                moves.append((RewriteRule("unit_mul"), path))
            if isinstance(sub.left, Sum):
                moves.append((RewriteRule("distrib"), path))
            if isinstance(sub.left, Zero):
                moves.append((RewriteRule("annihilate"), path))
        elif isinstance(sub, Var):
            if sub.elem.is_zero():
                moves.append((RewriteRule("var_zero"), path))
            split = {k: rng.randint(0, c) for k, c in sub.elem.items}
            payload = MonoidElem.from_dict(sub.elem.carrier, split)
            moves.append((RewriteRule("var_add", forward=False, payload=payload), path))
        elif isinstance(sub, Zero):
            factor = random_term_rng(rng, carrier, 1, 1, 2)
            moves.append((RewriteRule("annihilate", forward=False, payload=factor), path))
            zero_elem = MonoidElem.zero(carrier)
            moves.append((RewriteRule("var_zero", forward=False, payload=zero_elem), path))
        # grow directions, applicable anywhere
        moves.append((RewriteRule("unit_add", forward=False), path))
        moves.append((RewriteRule("unit_mul", forward=False), path))
    return moves


def equivalent_variant(term: Term, steps: int, seed: int, carrier: Carrier) -> Term:
    """Random walk over the generating rewrites; the result denotes the same
    rig value as the input."""
    rng = random.Random(seed)
    for _ in range(steps):
        rule, path = rng.choice(_candidate_moves(term, carrier, rng))
        term = rewrite_step(term, rule, path)
    return term
