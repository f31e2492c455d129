"""Raw syntax trees for rig expressions, and the generating rewrite rules.

Terms are unquotiented: ``Sum(a, b)`` and ``Sum(b, a)`` are different trees.
The ten rewrite rules (each usable in both directions, at any subterm
position) generate exactly the identifications that the canonical forms in
:mod:`rigdiff.normal` decide, which is what the rewrite-invariance laws
check.  :data:`RULES` is the one place that states the shape each oriented
rule matches and what it builds: :func:`rewrite_step` and the seeded walk of
:mod:`rigdiff.gen` both read it.  The walk proposes the rows matching a
subterm in table order, so reordering the table changes every seeded walk.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .carrier import MonoidElem, MonoidHom, elem_add, hom_apply


class Term:
    """Base class for expression trees.  ``==`` and ``hash`` compare and hash
    one flat key, built from an explicit stack, so long chains need no
    Python frames per node."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self):
        return hash(self._preorder())

    def _preorder(self) -> tuple:
        """The node types in preorder, each variable followed by its element:
        equal exactly for equal trees."""
        key = []
        stack = [self]
        while stack:
            s = stack.pop()
            key.append(type(s))
            if isinstance(s, (Sum, Prod)):
                stack += (s.right, s.left)
            elif isinstance(s, App):
                stack.append(s.body)
            elif isinstance(s, Var):
                key.append(s.elem)
        return tuple(key)


@dataclass(frozen=True, eq=False)
class Zero(Term):
    pass


@dataclass(frozen=True, eq=False)
class One(Term):
    pass


@dataclass(frozen=True, eq=False)
class Var(Term):
    """Formal variable indexed by a carrier element."""

    elem: MonoidElem


@dataclass(frozen=True, eq=False)
class Sum(Term):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Prod(Term):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class App(Term):
    """The formal unary operation applied to a subterm."""

    body: Term


ZERO = Zero()
ONE = One()


def term_map_hom(h: MonoidHom, t: Term) -> Term:
    """Push a carrier homomorphism through a term, variable by variable.

    The stack holds subterms to map and constructors to apply to the mapped
    children, so long chains need no recursion."""
    done: list[Term] = []
    stack: list = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, (Sum, Prod)):
            stack += (type(s), s.right, s.left)
        elif isinstance(s, App):
            stack += (App, s.body)
        elif s is App:
            done.append(App(done.pop()))
        elif s is Sum or s is Prod:
            right = done.pop()
            done.append(s(done.pop(), right))
        else:
            done.append(Var(hom_apply(h, s.elem)) if isinstance(s, Var) else s)
    return done[0]


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


def _descend(t: Term, path: tuple[int, ...]) -> list[Term]:
    """The subterms along ``path``, from ``t`` down to the addressed one.  A
    step is 0 (left) or 1 (right) under a sum or product, and 0 under App."""
    chain = [t]
    for i in path:
        if isinstance(t, (Sum, Prod)) and (i == 0 or i == 1):
            t = t.right if i else t.left
        elif isinstance(t, App) and i == 0:
            t = t.body
        else:
            raise ValueError(f"path {path!r} leaves the term")
        chain.append(t)
    return chain


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    return _descend(t, path)[-1]


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


# One row of RULES: the oriented rule (tag, forward) matches an instance of
# ``node`` on which ``guard`` holds (None: always), and ``build(s, payload)``
# returns the rewritten subterm.  A row that needs a payload has a ``fits(s,
# payload)`` check; the others have None there and ``rule``, their one
# RewriteRule.
RuleEntry = namedtuple("RuleEntry", "tag forward node guard build fits rule")


def _row(tag, forward, node, guard, build, fits=None) -> RuleEntry:
    return RuleEntry(tag, forward, node, guard, build, fits,
                     None if fits else RewriteRule(tag, forward))


RULES: tuple[RuleEntry, ...] = (
    _row("comm_add", True, Sum, None, lambda s, _: Sum(s.right, s.left)),
    _row("assoc_add", True, Sum, lambda s: isinstance(s.left, Sum),
         lambda s, _: Sum(s.left.left, Sum(s.left.right, s.right))),
    _row("assoc_add", False, Sum, lambda s: isinstance(s.right, Sum),
         lambda s, _: Sum(Sum(s.left, s.right.left), s.right.right)),
    _row("unit_add", True, Sum, lambda s: isinstance(s.right, Zero), lambda s, _: s.left),
    _row("var_add", True, Sum, lambda s: isinstance(s.left, Var) and isinstance(s.right, Var),
         lambda s, _: Var(elem_add(s.left.elem, s.right.elem))),
    _row("distrib", False, Sum,
         lambda s: (isinstance(s.left, Prod) and isinstance(s.right, Prod)
                    and s.left.right == s.right.right),
         lambda s, _: Prod(Sum(s.left.left, s.right.left), s.left.right)),
    _row("comm_mul", True, Prod, None, lambda s, _: Prod(s.right, s.left)),
    _row("assoc_mul", True, Prod, lambda s: isinstance(s.left, Prod),
         lambda s, _: Prod(s.left.left, Prod(s.left.right, s.right))),
    _row("assoc_mul", False, Prod, lambda s: isinstance(s.right, Prod),
         lambda s, _: Prod(Prod(s.left, s.right.left), s.right.right)),
    _row("unit_mul", True, Prod, lambda s: isinstance(s.right, One), lambda s, _: s.left),
    _row("distrib", True, Prod, lambda s: isinstance(s.left, Sum),
         lambda s, _: Sum(Prod(s.left.left, s.right), Prod(s.left.right, s.right))),
    _row("annihilate", True, Prod, lambda s: isinstance(s.left, Zero), lambda s, _: ZERO),
    _row("var_zero", True, Var, lambda s: s.elem.is_zero(), lambda s, _: ZERO),
    # backward var_add splits off a summand, which must be a sub-element
    _row("var_add", False, Var, None,
         lambda s, p: Sum(Var(p), Var(MonoidElem.from_dict(
             s.elem.carrier, {k: c - p.coeff(k) for k, c in s.elem.items}))),
         lambda s, p: isinstance(p, MonoidElem) and all(c <= s.elem.coeff(k) for k, c in p.items)),
    _row("annihilate", False, Zero, None, lambda s, p: Prod(ZERO, p),
         lambda s, p: isinstance(p, Term)),
    _row("var_zero", False, Zero, None, lambda s, p: Var(p),
         lambda s, p: isinstance(p, MonoidElem) and p.is_zero()),
    _row("unit_add", False, Term, None, lambda s, _: Sum(s, ZERO)),
    _row("unit_mul", False, Term, None, lambda s, _: Prod(s, ONE)),
)

# Rows by (tag, forward).  A swap is its own inverse, so backward comm_add
# and comm_mul are their forward rows; the walk proposes only those.
_RULE_INDEX = {(e.tag, e.forward): e for e in RULES}
_RULE_INDEX.update({(tag, False): _RULE_INDEX[tag, True] for tag in ("comm_add", "comm_mul")})

# The rows that can match a node of each type: its own, then those that
# match anywhere, in table order.
RULES_FOR = {cls: tuple(e for e in RULES if issubclass(cls, e.node))
             for cls in (Zero, One, Var, Sum, Prod, App)}


def _apply_rule(s: Term, rule: RewriteRule) -> Term:
    e = _RULE_INDEX.get((rule.tag, bool(rule.forward)))
    if e is None:
        raise ValueError(f"unknown rule tag {rule.tag!r}")
    if not isinstance(s, e.node) or (e.guard is not None and not e.guard(s)):
        raise RuleNotApplicable(
            f"{rule.tag} ({'forward' if rule.forward else 'backward'}) does not match")
    if e.fits is not None and not e.fits(s, rule.payload):
        raise RuleNotApplicable(f"the payload does not fit backward {rule.tag}")
    return e.build(s, rule.payload)


def rewrite_step(t: Term, rule: RewriteRule, path: tuple[int, ...]) -> Term:
    """Apply one oriented rule at a subterm position.

    The path is walked once; the rewritten subterm is then wrapped in copies
    of its ancestors, innermost first, without recursion."""
    chain = _descend(t, path)
    new = _apply_rule(chain[-1], rule)
    for parent, i in zip(reversed(chain[:-1]), reversed(path)):
        if isinstance(parent, App):
            new = App(new)
        else:
            new = type(parent)(parent.left, new) if i else type(parent)(new, parent.right)
    return new
