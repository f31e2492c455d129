"""Raw syntax trees for rig expressions, and the generating rewrite rules.

Terms are unquotiented: ``Sum(a, b)`` and ``Sum(b, a)`` are different trees.
The ten rewrite rules below (each usable in both directions, at any subterm
position) generate exactly the identifications that the canonical forms in
:mod:`rigdiff.normal` decide, which is what the rewrite-invariance laws
check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .carrier import MonoidElem, MonoidHom, elem_add, hom_apply


class Term:
    """Base class for expression trees."""

    __slots__ = ()


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Var(Term):
    """Formal variable indexed by a carrier element."""

    elem: MonoidElem


@dataclass(frozen=True)
class Sum(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Prod(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class App(Term):
    """The formal unary operation applied to a subterm."""

    body: Term


ZERO = Zero()
ONE = One()


def term_map_hom(h: MonoidHom, t: Term) -> Term:
    """Push a carrier homomorphism through a term, variable by variable."""
    if isinstance(t, Var):
        return Var(hom_apply(h, t.elem))
    if isinstance(t, Sum):
        return Sum(term_map_hom(h, t.left), term_map_hom(h, t.right))
    if isinstance(t, Prod):
        return Prod(term_map_hom(h, t.left), term_map_hom(h, t.right))
    if isinstance(t, App):
        return App(term_map_hom(h, t.body))
    return t


def positions(t: Term) -> list[tuple[tuple[int, ...], Term]]:
    """All subterm positions, preorder; a path is a tuple of child indices.

    An explicit stack replaces recursion, so a long chain needs no Python
    frames per node, and each path is built once, from its parent's."""
    out = []
    stack = [((), t)]
    while stack:
        path, s = stack.pop()
        out.append((path, s))
        if isinstance(s, (Sum, Prod)):
            stack += ((path + (1,), s.right), (path + (0,), s.left))
        elif isinstance(s, App):
            stack.append((path + (0,), s.body))
    return out


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for i in path:
        if isinstance(t, (Sum, Prod)):
            t = t.left if i == 0 else t.right
        elif isinstance(t, App) and i == 0:
            t = t.body
        else:
            raise ValueError(f"path {path!r} leaves the term")
    return t


def _replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    i, rest = path[0], path[1:]
    if isinstance(t, (Sum, Prod)):
        ctor = type(t)
        if i == 0:
            return ctor(_replace_at(t.left, rest, new), t.right)
        return ctor(t.left, _replace_at(t.right, rest, new))
    if isinstance(t, App) and i == 0:
        return App(_replace_at(t.body, rest, new))
    raise ValueError(f"path {path!r} leaves the term")


@dataclass(frozen=True)
class RewriteRule:
    """One generating identification, oriented.

    ``payload`` carries the extra choice some backward directions need:
    the synthesized factor for backward annihilate, the zero element for
    backward var_zero, and the chosen left summand for backward var_add.
    """

    tag: str
    forward: bool = True
    payload: object = None


class RuleNotApplicable(ValueError):
    """Raised when a rewrite rule does not match the addressed subterm."""


def _apply_rule(s: Term, rule: RewriteRule) -> Term:
    tag, fwd, payload = rule.tag, rule.forward, rule.payload
    if tag == "assoc_add":
        if fwd and isinstance(s, Sum) and isinstance(s.left, Sum):
            return Sum(s.left.left, Sum(s.left.right, s.right))
        if not fwd and isinstance(s, Sum) and isinstance(s.right, Sum):
            return Sum(Sum(s.left, s.right.left), s.right.right)
    elif tag == "unit_add":
        if fwd and isinstance(s, Sum) and isinstance(s.right, Zero):
            return s.left
        if not fwd:
            return Sum(s, ZERO)
    elif tag == "comm_add":
        if isinstance(s, Sum):
            return Sum(s.right, s.left)
    elif tag == "assoc_mul":
        if fwd and isinstance(s, Prod) and isinstance(s.left, Prod):
            return Prod(s.left.left, Prod(s.left.right, s.right))
        if not fwd and isinstance(s, Prod) and isinstance(s.right, Prod):
            return Prod(Prod(s.left, s.right.left), s.right.right)
    elif tag == "unit_mul":
        if fwd and isinstance(s, Prod) and isinstance(s.right, One):
            return s.left
        if not fwd:
            return Prod(s, ONE)
    elif tag == "comm_mul":
        if isinstance(s, Prod):
            return Prod(s.right, s.left)
    elif tag == "distrib":
        if fwd and isinstance(s, Prod) and isinstance(s.left, Sum):
            return Sum(Prod(s.left.left, s.right), Prod(s.left.right, s.right))
        if (not fwd and isinstance(s, Sum)
                and isinstance(s.left, Prod) and isinstance(s.right, Prod)
                and s.left.right == s.right.right):
            return Prod(Sum(s.left.left, s.right.left), s.left.right)
    elif tag == "annihilate":
        if fwd and isinstance(s, Prod) and isinstance(s.left, Zero):
            return ZERO
        if not fwd and isinstance(s, Zero):
            if not isinstance(payload, Term):
                raise RuleNotApplicable("backward annihilate needs a factor term payload")
            return Prod(ZERO, payload)
    elif tag == "var_zero":
        if fwd and isinstance(s, Var) and s.elem.is_zero():
            return ZERO
        if not fwd and isinstance(s, Zero):
            if not isinstance(payload, MonoidElem) or not payload.is_zero():
                raise RuleNotApplicable("backward var_zero needs a zero element payload")
            return Var(payload)
    elif tag == "var_add":
        if fwd and isinstance(s, Sum) and isinstance(s.left, Var) and isinstance(s.right, Var):
            return Var(elem_add(s.left.elem, s.right.elem))
        if not fwd and isinstance(s, Var):
            if not isinstance(payload, MonoidElem):
                raise RuleNotApplicable("backward var_add needs a summand payload")
            left = dict(payload.items)
            rest = dict(s.elem.items)
            for key, c in left.items():
                if rest.get(key, 0) < c:
                    raise RuleNotApplicable("payload is not a sub-element of the variable")
                rest[key] -= c
            return Sum(Var(payload), Var(MonoidElem.from_dict(s.elem.carrier, rest)))
    else:
        raise ValueError(f"unknown rule tag {tag!r}")
    raise RuleNotApplicable(f"{tag} ({'forward' if fwd else 'backward'}) does not match")


def rewrite_step(t: Term, rule: RewriteRule, path: tuple[int, ...]) -> Term:
    """Apply one oriented rule at a subterm position."""
    return _replace_at(t, path, _apply_rule(subterm_at(t, path), rule))
