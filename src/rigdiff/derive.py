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
    that derivative.  Only the whole value's derivative becomes a tensor,
    sorted once."""
    if n < 0:
        raise ValueError("the family is indexed by naturals")
    grouped = _d_n(a, n, ArgumentMemo(lambda v, memo: _d_n(v, n, memo)))
    return TensorElem.from_dict((MonomialBasis(a.carrier), a.carrier), {
        (rest, gen): c for rest, gens in grouped.items() for gen, c in gens.items()})


def _d_n(a: NormalForm, n: int, memo: ArgumentMemo) -> dict:
    """``d_n`` grouped by monomial, as {rest: {generator: coeff}}, with the
    call's memo (argument -> its derivative, grouped).  A rest is
    multiplied once by each distinct monomial of an argument's derivative,
    not once per generator beside it."""
    acc: dict = {}
    for mono, c in a.items:
        for atom, mult in mono.atom_counts():
            rest = mono.without(atom)
            if isinstance(atom, GenAtom):
                gens = acc.setdefault(rest, {})
                gens[atom.index] = gens.get(atom.index, 0) + c * mult
            elif n != 0:
                w = c * mult * n
                for part, part_gens in memo[atom.argument].items():
                    gens = acc.setdefault(mono_mul(rest, part), {})
                    for gen, c2 in part_gens.items():
                        gens[gen] = gens.get(gen, 0) + w * c2
    return acc


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
