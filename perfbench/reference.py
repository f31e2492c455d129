"""Reference computations that share no code with the engine's arithmetic.

Each function here works from something the engine did not compute: the
raw input term the benchmark built itself, or the text the engine printed.
The benchmark compares every timed result against them, outside the timed
region.
"""

from __future__ import annotations

import re


def dual_eval(term, terms, phi, w, n, c0):
    """Integer dual-number value of a raw term: returns (value, slope).

    Variables carry (phi, w) along their index; the unary operation is the
    affine map v -> n*v + c0, whose slope is n.  The slope is then the
    directional derivative of the term along w, which is what the n-th
    derivative of the term, absorbed with w and evaluated at phi, must equal.
    """
    if isinstance(term, terms.Zero):
        return 0, 0
    if isinstance(term, terms.One):
        return 1, 0
    if isinstance(term, terms.Var):
        items = term.elem.items
        return sum(c * phi[k] for k, c in items), sum(c * w[k] for k, c in items)
    if isinstance(term, terms.Sum):
        (a, da), (b, db) = (dual_eval(term.left, terms, phi, w, n, c0),
                            dual_eval(term.right, terms, phi, w, n, c0))
        return a + b, da + db
    if isinstance(term, terms.Prod):
        (a, da), (b, db) = (dual_eval(term.left, terms, phi, w, n, c0),
                            dual_eval(term.right, terms, phi, w, n, c0))
        return a * b, a * db + da * b
    if isinstance(term, terms.App):
        v, dv = dual_eval(term.body, terms, phi, w, n, c0)
        return n * v + c0, n * dv
    raise TypeError(f"not a term: {term!r}")


_DISPLAY_CHARS = str.maketrans("", "", "0123456789xef[]()*+ ⊗")
_INNERMOST_APP = re.compile(r"f\(([^()]*)\)")
_FACTOR_SEP = re.compile(r"[*()⊗ ]+")


def display_value(text: str, phi, w, selfmap) -> int:
    """Evaluate the engine's level-1 display text for a value or a tensor.

    ``render_nf`` and ``render_tensor`` print sums of products of naturals,
    ``x[i]`` (generator i), ``e[i]`` (the carrier factor of a derivative
    tensor), ``f(...)`` and the tensor sign.  Here ``x[i]`` reads phi[i],
    ``e[i]`` reads w[i], ``f`` applies ``selfmap`` and the tensor sign
    multiplies, so a rendered derivative evaluates to the same slope as
    :func:`dual_eval`.

    Innermost ``f(...)`` calls are replaced by their values, pass by pass,
    each distinct argument text evaluated once.  What remains is a flat sum
    of products: the only other parentheses wrap one pure tensor.  Text
    outside this grammar raises ValueError.
    """
    if text.translate(_DISPLAY_CHARS):
        raise ValueError(f"not display text: {text[:80]!r}")
    values = {}

    def apply(match):
        arg = match.group(1)
        if arg not in values:
            values[arg] = str(selfmap(_flat_value(arg, phi, w)))
        return values[arg]

    while "f(" in text:
        text, count = _INNERMOST_APP.subn(apply, text)
        if not count:
            raise ValueError("unbalanced parentheses in display text")
    return _flat_value(text, phi, w)


def _flat_value(text, phi, w):
    total = 0
    for piece in text.split(" + "):
        prod = 1
        for factor in _FACTOR_SEP.split(piece):
            if factor.startswith("x["):
                prod *= phi[int(factor[2:-1])]
            elif factor.startswith("e["):
                prod *= w[int(factor[2:-1])]
            elif factor:
                prod *= int(factor)
        total += prod
    return total


def tensor_slope(tensor, normal, phi, w, selfmap):
    """Evaluate a derivative tensor's items directly: each pure tensor
    (monomial, generator) with coefficient c contributes c * monomial(phi) *
    w[generator].  Reads the engine's output structure but none of its
    evaluation code."""

    def value(nf):
        return sum(c * monomial(m) for m, c in nf.items)

    def monomial(m):
        prod = 1
        for atom in m.atoms:
            if isinstance(atom, normal.GenAtom):
                prod *= phi[atom.index]
            else:
                prod *= selfmap(value(atom.argument))
        return prod

    return sum(c * monomial(m) * w[g] for (m, g), c in tensor.items)
