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
"""

from __future__ import annotations

from dataclasses import dataclass

from .carrier import Carrier, FreeMonoid, MonoidElem, MonomialBasis, TensorElem
from .normal import (
    _render_memo, _render_monomial, _render_nf, app_letter, as_monoid_element,
    from_monoid_element, normalize, var_letter,
)
from .terms import App, One, Prod, Sum, Term, Var, Zero, ONE, ZERO


class ParseError(ValueError):
    """Syntax or arity problem in an input expression, with position info."""


_VAR_NAMES = {"x", "y", "z"}
_APP_NAMES = {"f", "g", "h"}

# Deepest nesting of "(", "f(" and level-2 "[payload]" that the parser
# accepts.  Parsing and reading structured input (``nf_from_obj``) recurse
# once per level, and at this depth both stay within Python's default
# recursion limit.
MAX_NESTING = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # "nat" | "name" | "sym" | "end"
    value: object
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    out = []
    line, col, i = 1, 1, 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
        elif ch.isspace():
            col, i = col + 1, i + 1
        elif ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            out.append(_Token("nat", int(src[i:j]), line, col))
            col, i = col + (j - i), j
        elif ch.isalpha():
            j = i
            while j < len(src) and src[j].isalpha():
                j += 1
            out.append(_Token("name", src[i:j], line, col))
            col, i = col + (j - i), j
        elif ch in "+*()[],":
            out.append(_Token("sym", ch, line, col))
            col, i = col + 1, i + 1
        else:
            raise ParseError(f"unexpected character {ch!r} at line {line}, column {col}")
    out.append(_Token("end", None, line, col))
    return out


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


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, sym: str) -> _Token:
        tok = self.take()
        if tok.kind != "sym" or tok.value != sym:
            raise ParseError(f"expected {sym!r} at line {tok.line}, column {tok.col}")
        return tok

    def expr(self, carrier: Carrier) -> Term:
        if self.depth > MAX_NESTING:
            opener = self.tokens[self.pos - 1]
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels "
                             f"at line {opener.line}, column {opener.col}")
        self.depth += 1
        term = self.mult(carrier)
        while self.peek().kind == "sym" and self.peek().value == "+":
            self.take()
            term = Sum(term, self.mult(carrier))
        self.depth -= 1
        return term

    def mult(self, carrier: Carrier) -> Term:
        term = self.atom(carrier)
        while self.peek().kind == "sym" and self.peek().value == "*":
            self.take()
            term = Prod(term, self.atom(carrier))
        return term

    def atom(self, carrier: Carrier) -> Term:
        tok = self.take()
        if tok.kind == "nat":
            return _nat_term(tok.value)
        if tok.kind == "name" and tok.value in _VAR_NAMES:
            self.expect("[")
            elem = self.payload(carrier, tok)
            self.expect("]")
            return Var(elem)
        if tok.kind == "name" and tok.value in _APP_NAMES:
            self.expect("(")
            body = self.expr(carrier)
            self.expect(")")
            return App(body)
        if tok.kind == "sym" and tok.value == "(":
            term = self.expr(carrier)
            self.expect(")")
            return term
        raise ParseError(f"expected an expression at line {tok.line}, column {tok.col}")

    def payload(self, carrier: Carrier, at: _Token) -> MonoidElem:
        if isinstance(carrier, MonomialBasis):
            inner = self.expr(carrier.base)
            return as_monoid_element(normalize(inner, carrier.base))
        coords = []
        if not (self.peek().kind == "sym" and self.peek().value == "]"):
            while True:
                tok = self.take()
                if tok.kind != "nat":
                    raise ParseError(
                        f"expected a coordinate at line {tok.line}, column {tok.col}")
                coords.append(tok.value)
                if self.peek().kind == "sym" and self.peek().value == ",":
                    self.take()
                else:
                    break
        if len(coords) != carrier.rank:
            raise ParseError(
                f"variable at line {at.line}, column {at.col} has {len(coords)} "
                f"coordinates but the carrier rank is {carrier.rank}")
        return MonoidElem.from_dict(carrier, dict(enumerate(coords)))


def parse(src: str, carrier: Carrier) -> Term:
    """Parse an expression over the given carrier."""
    parser = _Parser(_tokenize(src))
    term = parser.expr(carrier)
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input at line {tok.line}, column {tok.col}")
    return term


def _infer_carrier(term: Term) -> Carrier | None:
    """The carrier of the first variable in preorder, found with an explicit
    stack so that long chains need no recursion."""
    stack = [term]
    while stack:
        sub = stack.pop()
        if isinstance(sub, Var):
            return sub.elem.carrier
        if isinstance(sub, (Sum, Prod)):
            stack += (sub.right, sub.left)
        elif isinstance(sub, App):
            stack.append(sub.body)
    return None


def emit_nf(a) -> str:
    """Render a canonical form as parseable input that normalizes back to it.

    This is the display text with each level-1 generator spelled as a unit
    vector (``x[0,1]``, not ``x[1]``), since the grammar reads ``x[...]`` as
    a coordinate vector.  Within one call each distinct operation argument
    is rendered once."""
    return _render_nf(a, _render_memo(True), True)


def print_term(term: Term, carrier: Carrier | None = None) -> str:
    """Fully parenthesized rendering; parses back to an equal term.

    The text is built from an explicit stack of subterms and literal pieces,
    so long chains of sums and products need no recursion."""
    if carrier is None:
        carrier = _infer_carrier(term) or FreeMonoid(0)
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
            out.append(f"{app_letter(carrier.level)}(")
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
        level = carrier.level
        if isinstance(carrier, FreeMonoid):
            coords = ",".join(str(term.elem.coeff(i)) for i in range(carrier.rank))
            return f"{var_letter(level)}[{coords}]"
        return f"{var_letter(level)}[{emit_nf(from_monoid_element(term.elem))}]"
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
