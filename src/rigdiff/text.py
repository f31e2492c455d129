"""Concrete syntax: tokenizer, parser and printer for rig expressions.

Grammar (whitespace insensitive, ``+`` binds looser than ``*``)::

    expr    := mult ("+" mult)*
    mult    := atom ("*" atom)*
    atom    := nat | var | fn "(" expr ")" | "(" expr ")"
    var     := letter "[" payload "]"

At level 1 a payload is a comma-separated coordinate vector, one natural per
carrier generator.  At level 2 the payload is itself an expression over the
base carrier, normalized on the spot, so ``g(y[x[1]])`` reads the inner
``x[1]`` as a level-1 value.  Variable letters x/y/z and operation letters
f/g/h are interchangeable on input; the carrier argument fixes the meaning.
Naturals other than 0 and 1 are sugar for sums and products of 1 (binary
Horner, so a long literal stays a shallow term), which keeps the canonical
renderings (like ``5*x[0]``) readable back in.

One regex pass turns the text into tokens, and ``parse`` is one loop over
them.  Each open group (``(``, ``f(`` or a level-2 ``y[``) pushes a frame
onto an explicit stack: its closer, its wrap (``App``, the payload's
variable, or nothing), the enclosing carrier and the enclosing sum and
product built so far.  The matching closer pops the frame and wraps the
group's term, so nesting costs no Python frame.  Sums and products are
left-associative.
"""

from __future__ import annotations

import re
import sys

from .carrier import (
    Carrier, CarrierMismatch, FreeMonoid, MonoidElem, MonomialBasis, TensorElem,
)
from .normal import (
    _APP_LETTERS, _VAR_LETTERS, _letter, _render_memo, _render_monomial,
    _render_nf, as_monoid_element, from_monoid_element, normalize,
)
from .terms import App, One, Prod, Sum, Term, Var, Zero, ONE, ZERO


class ParseError(ValueError):
    """Syntax or arity problem in an input expression, with position info."""


_VAR_NAMES = frozenset(_VAR_LETTERS)
_APP_NAMES = frozenset(_APP_LETTERS)

# Deepest nesting of "(", "f(" and level-2 "[payload]" that the parser
# accepts.  Only ``--format structured`` output needs a limit: ``json.dumps``
# recurses once per level, past the recursion limit at about 250 levels, and
# the output grows with the square of the depth (an ``f(`` tower: 25 KB at
# depth 25, 96 KB at 50, 372 KB at 100; text output at 100 is 305 bytes).
MAX_NESTING = 100

# A natural (the digits ``int`` reads), a run of letters, a symbol, or any
# other non-space character (an error); whitespace is what ``str.isspace``
# accepts.  The letter class also admits numeric characters such as "²",
# which ``_tokenize`` rejects.
_TOKEN = re.compile(r"(\d+)|([^\W\d_]+)|([+*()\[\],])|\S")


def _at(src: str, pos: int) -> str:
    line, col = src.count("\n", 0, pos) + 1, pos - src.rfind("\n", 0, pos)
    return f"line {line}, column {col}"


def _tokenize(src: str) -> tuple[list, list[int]]:
    """Tokens (ints, names and symbols, then None) and their offsets."""
    tokens, offsets = [], []
    for m in _TOKEN.finditer(src):
        text = m.group()
        if m.lastindex == 1:
            try:
                tokens.append(int(text))
            except ValueError:  # longer than Python's int/str conversion limit
                raise ParseError(f"literal at {_at(src, m.start())} has more than "
                                 f"{sys.get_int_max_str_digits()} digits") from None
        elif m.lastindex == 3 or text.isalpha():
            tokens.append(text)
        else:
            pos = m.start() + next(k for k, ch in enumerate(text) if not ch.isalpha())
            raise ParseError(f"unexpected character {src[pos]!r} at {_at(src, pos)}")
        offsets.append(m.start())
    return tokens + [None], offsets + [len(src)]


def _nat_term(n: int) -> Term:
    """The literal n by binary Horner, (1+1)*t + bit, so its depth is
    O(log n) rather than a chain of n sums."""
    if n == 0:
        return ZERO
    term: Term = ONE
    for bit in bin(n)[3:]:
        term = Prod(Sum(ONE, ONE), term)
        if bit == "1":
            term = Sum(term, ONE)
    return term


def parse(src: str, carrier: Carrier) -> Term:
    """Parse an expression over the given carrier."""
    tokens, offsets = _tokenize(src)

    def expect(sym: str, i: int) -> int:
        if tokens[i] != sym:
            raise ParseError(f"expected {sym!r} at {_at(src, offsets[i])}")
        return i + 1

    stack: list = []  # per open group: closer, wrap, outer carrier, sum, product
    total = prod = None  # the innermost open group's sum and product so far
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if isinstance(tok, int):
            atom = _nat_term(tok)
        elif tok in _VAR_NAMES and not isinstance(carrier, MonomialBasis):
            name, i = i - 1, expect("[", i)
            coords: list[int] = []
            more = tokens[i] != "]"
            while more:
                if not isinstance(tokens[i], int):
                    raise ParseError(f"expected a coordinate at {_at(src, offsets[i])}")
                coords.append(tokens[i])
                more = tokens[i + 1] == ","
                i += 1 + more
            if len(coords) != carrier.rank:
                raise ParseError(
                    f"variable at {_at(src, offsets[name])} has {len(coords)} "
                    f"coordinates but the carrier rank is {carrier.rank}")
            atom = Var(MonoidElem.from_dict(carrier, dict(enumerate(coords))))
            i = expect("]", i)
        else:
            if tok == "(":
                frame = (")", None, carrier)
            elif tok in _APP_NAMES:
                frame, i = (")", App, carrier), expect("(", i)
            elif tok in _VAR_NAMES:
                wrap = lambda term, base=carrier.base: \
                    Var(as_monoid_element(normalize(term, base)))
                frame, i, carrier = ("]", wrap, carrier), expect("[", i), carrier.base
            else:
                raise ParseError(f"expected an expression at {_at(src, offsets[i - 1])}")
            if len(stack) >= MAX_NESTING:
                raise ParseError(f"expression nested deeper than {MAX_NESTING} levels "
                                 f"at {_at(src, offsets[i - 1])}")
            stack.append((*frame, total, prod))
            total = prod = None
            continue
        # fold the atom in; each closer that follows ends a group, whose
        # wrapped term is in turn the next atom of the group around it
        while True:
            prod = atom if prod is None else Prod(prod, atom)
            if tokens[i] == "*":
                break
            total = prod if total is None else Sum(total, prod)
            prod = None
            if tokens[i] == "+":
                break
            if not stack:
                if tokens[i] is not None:
                    raise ParseError(f"trailing input at {_at(src, offsets[i])}")
                return total
            atom = total
            closer, wrap, carrier, total, prod = stack.pop()
            if wrap:
                atom = wrap(atom)
            i = expect(closer, i)
        i += 1  # past the operator


def emit_nf(a) -> str:
    """Render a canonical form as parseable input that normalizes back to it.

    This is the display text with each level-1 generator spelled as a unit
    vector (``x[0,1]``, not ``x[1]``), since the grammar reads ``x[...]`` as
    a coordinate vector.  Within one call each distinct operation argument
    is rendered once."""
    return _render_nf(a, _render_memo(True), True)


def print_term(term: Term, carrier: Carrier) -> str:
    """Fully parenthesized rendering; parses back to an equal term.

    A variable over another carrier raises ``CarrierMismatch``, as in
    ``normalize``.  The text is built from an explicit stack of subterms and
    literal pieces, so long chains of sums and products need no recursion."""
    out = []
    stack: list = [term]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, (Sum, Prod)):
            out.append("(")
            stack += (")", item.right, " + " if isinstance(item, Sum) else " * ", item.left)
        elif isinstance(item, App):
            out.append(f"{_letter(_APP_LETTERS, carrier.level, True)}(")
            stack += (")", item.body)
        else:
            out.append(_print_leaf(item, carrier))
    return "".join(out)


def _print_leaf(term: Term, carrier: Carrier) -> str:
    if isinstance(term, Zero):
        return "0"
    if isinstance(term, One):
        return "1"
    if isinstance(term, Var):
        if term.elem.carrier != carrier:
            raise CarrierMismatch(
                f"variable over {term.elem.carrier} printed over {carrier}")
        letter = _letter(_VAR_LETTERS, carrier.level, True)
        if isinstance(carrier, FreeMonoid):
            coords = ",".join(str(term.elem.coeff(i)) for i in range(carrier.rank))
            return f"{letter}[{coords}]"
        return f"{letter}[{emit_nf(from_monoid_element(term.elem))}]"
    raise TypeError(f"not a term: {term!r}")


def render_tensor(a: TensorElem) -> str:
    """Display text for tensor elements: coefficient-tagged pure tensors.

    Within one call each distinct operation argument is rendered once;
    later occurrences, in any key and at any depth, reuse its text."""
    memo = _render_memo(False)
    pieces = []
    for key, c in a.items:
        parts = []
        for factor, k in zip(a.factors, key):
            if isinstance(factor, FreeMonoid):
                parts.append(f"e[{k}]")
            else:
                parts.append(_render_monomial(k, factor.base, memo, False))
        joined = " ⊗ ".join(parts)
        pieces.append(joined if c == 1 else f"{c}*({joined})")
    return " + ".join(pieces) or "0"
