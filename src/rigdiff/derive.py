"""The countable family of derivative operators on canonical forms.

``d_n`` differentiates by the Leibniz expansion over each monomial: every
atom occurrence contributes the rest of its monomial tensored with the
atom's own derivative.  A generator atom differentiates to 1 tensor the
generator; an atom of the formal unary operation differentiates to n times
the derivative of its argument, and that single weight is the only place
the family members differ, so they all agree on operation-free values and
genuinely differ elsewhere.
"""

from __future__ import annotations

from .carrier import FreeMonoid, MonomialBasis, TensorElem
from .normal import ArgumentMemo, GenAtom, NormalForm, mono_mul, nf_mul


class SymmetricModeError(ValueError):
    """Raised when an operation-free computation meets an operation atom."""


def d_n(a: NormalForm, n: int) -> TensorElem:
    """n-th family member of the derivative, value tensor carrier element.

    Within one call each distinct operation argument is differentiated
    once, at its first occurrence; later occurrences, at any depth, reuse
    that derivative."""
    if n < 0:
        raise ValueError("the family is indexed by naturals")
    return _d_n(a, n, ArgumentMemo(lambda v, memo: _d_n(v, n, memo)))


def _d_n(a: NormalForm, n: int, memo: ArgumentMemo) -> TensorElem:
    """``d_n`` with the call's memo (argument -> derivative)."""
    carrier = a.carrier
    factors = (MonomialBasis(carrier), carrier)
    acc: dict[tuple, int] = {}
    for mono, c in a.items:
        for atom, mult in mono.atom_counts():
            rest = mono.without(atom)
            if isinstance(atom, GenAtom):
                key = (rest, atom.index)
                acc[key] = acc.get(key, 0) + c * mult
            elif n != 0:
                for (part, gen), c2 in memo[atom.argument].items:
                    key = (mono_mul(rest, part), gen)
                    acc[key] = acc.get(key, 0) + c * mult * n * c2
    return TensorElem.from_dict(factors, acc)


def sym_derive(a: NormalForm) -> TensorElem:
    """Derivative on plain polynomials; rejects operation atoms instead of
    weighting them, and is the common value of the whole family there."""
    if a.has_app_atoms():
        raise SymmetricModeError("value contains the unary operation")
    return d_n(a, 0)


def seeded_derivation(a: NormalForm, seed: NormalForm) -> NormalForm:
    """Single-variable derivation sending the generator to ``seed``:
    c*x^k maps to c*k*x^(k-1)*seed, extended additively.  This is ``d_n``
    with its carrier factor absorbed (a rank-1 carrier has one generator),
    multiplied by the seed."""
    carrier = a.carrier
    if not isinstance(carrier, FreeMonoid) or carrier.rank != 1:
        raise ValueError("seeded derivation needs a rank-1 carrier")
    if a.has_app_atoms() or seed.has_app_atoms():
        raise SymmetricModeError("seeded derivation works on operation-free values")
    if seed.carrier != carrier:
        raise ValueError("seed must live over the same carrier")
    rests = {rest: c for (rest, _), c in d_n(a, 0).items}
    return nf_mul(NormalForm.from_dict(carrier, rests), seed)
