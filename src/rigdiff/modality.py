"""The unit, multiplication and monoid structure of the rig construction,
plus evaluation into concrete targets.

The constructed rig is a monad on carriers: ``unit`` embeds a carrier
element as its variable, and ``mu`` collapses one level of construction by
reading level-2 generator atoms as the level-1 values they name.  ``eta``
and ``nabla`` expose the multiplicative structure through tensors, and
``evaluate`` maps a level-1 value into any rig of naturals equipped with a
chosen unary map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .carrier import (
    Carrier, CarrierMismatch, MonoidElem, MonomialBasis, TensorElem,
    elem_as_tensor,
)
from .normal import (
    AppAtom, ArgumentMemo, GenAtom, Monomial, NormalForm, as_monoid_element,
    mono_mul, nf_scale, nf_var, normalize,
)
from .terms import Term


def unit(elem: MonoidElem) -> NormalForm:
    """The variable of a carrier element; additive in the element."""
    return nf_var(elem)


def eta(carrier: Carrier, n: int) -> NormalForm:
    """The natural number n as a rig value."""
    return nf_scale(NormalForm.one(carrier), n)


def nf_as_tensor(a: NormalForm) -> TensorElem:
    """A rig value as a one-factor tensor over its own additive carrier."""
    return elem_as_tensor(as_monoid_element(a))


def nabla(t: TensorElem) -> NormalForm:
    """Multiplication as a map out of the two-factor tensor: ``nabla_at`` at
    0, whose one-factor keys ``(m,)`` sort as their monomials ``m`` do."""
    if len(t.factors) != 2:
        raise CarrierMismatch("nabla needs two equal monomial-basis factors")
    merged = nabla_at(t, 0)
    return NormalForm(t.factors[0].base, tuple((m, c) for (m,), c in merged.items))


def nabla_at(t: TensorElem, pos: int) -> TensorElem:
    """Multiply two adjacent tensor factors of the same rig into one."""
    if not (0 <= pos < len(t.factors) - 1):
        raise ValueError("position must address two adjacent factors")
    f1, f2 = t.factors[pos], t.factors[pos + 1]
    if f1 != f2 or not isinstance(f1, MonomialBasis):
        raise CarrierMismatch("adjacent factors must be the same monomial-basis carrier")
    factors = t.factors[:pos + 1] + t.factors[pos + 2:]
    acc: dict[tuple, int] = {}
    for key, c in t.items:
        merged = key[:pos] + (mono_mul(key[pos], key[pos + 1]),) + key[pos + 2:]
        acc[merged] = acc.get(merged, 0) + c
    return TensorElem.from_dict(factors, acc)


def mu(a: NormalForm) -> NormalForm:
    """Collapse one construction level.

    Level-2 generator atoms name level-1 monomials and are read as those
    values; the level-2 unary operation becomes the level-1 one.  So each
    monomial collapses to one monomial, and nothing is expanded or packed
    (only ``apply_functor`` packs keys): a lone generator gives the
    monomial it names as it is, any other monomial one ``Monomial``, built
    with one sort of its generators' atoms and its collapsed operation
    atoms.  Within one call each distinct operation argument is collapsed
    once (innermost first, without recursion).
    """
    carrier = a.carrier
    if not isinstance(carrier, MonomialBasis):
        raise CarrierMismatch(f"mu needs a level >= 2 value, got one over {carrier}")

    def collapse(v: NormalForm, memo: ArgumentMemo) -> NormalForm:
        if v.carrier != carrier:
            raise CarrierMismatch(f"value over {v.carrier} nested in a value over {carrier}")
        acc: dict[Monomial, int] = {}
        for mono, c in v.items:
            atoms = mono.atoms
            if len(atoms) == 1 and isinstance(atoms[0], GenAtom):
                m = atoms[0].index
            else:
                m = Monomial([y for x in atoms for y in (
                    x.index.atoms if isinstance(x, GenAtom) else (memo[x.argument],))])
            acc[m] = acc.get(m, 0) + c
        return NormalForm.from_dict(carrier.base, acc)

    # the memo maps an operation argument to its collapsed operation atom
    return collapse(a, ArgumentMemo(lambda v, memo: AppAtom(collapse(v, memo))))


@dataclass(frozen=True)
class RigWithSelfMap:
    """Target for evaluation: the naturals with a chosen unary map."""

    name: str
    selfmap: Callable[[int], int]


CATALOG: dict[str, RigWithSelfMap] = {
    "identity": RigWithSelfMap("identity", lambda v: v),
    "successor": RigWithSelfMap("successor", lambda v: v + 1),
    "square": RigWithSelfMap("square", lambda v: v * v),
    "double": RigWithSelfMap("double", lambda v: 2 * v),
    "const-one": RigWithSelfMap("const-one", lambda v: 1),
    "const-zero": RigWithSelfMap("const-zero", lambda v: 0),
}


# ``evaluate`` stops above this bit length, and the CLI prints every answer
# within it (up to 19,729 digits).
MAX_EVAL_BITS = 1 << 16
_LARGEST = (1 << MAX_EVAL_BITS) - 1  # the largest natural within the bound


def evaluate(a: NormalForm, rig: RigWithSelfMap, phi: Mapping[object, int]) -> int:
    """Evaluate a value in the naturals, sending basis generator k to phi[k]
    and the formal unary operation to the rig's map.

    Within one call each distinct operation argument is evaluated once, so
    ``rig.selfmap`` must be a function: it is called once per distinct
    argument, not once per occurrence.  A map result, a monomial or the
    answer past ``MAX_EVAL_BITS`` bits raises ``ValueError``; a monomial
    with a zero factor is 0."""
    def apply(v: NormalForm, memo: ArgumentMemo) -> int:
        out = rig.selfmap(_evaluate(v, phi, memo))
        if out > _LARGEST:
            raise ValueError(f"value exceeds {MAX_EVAL_BITS} bits")
        return out

    value = _evaluate(a, phi, ArgumentMemo(apply))
    if value > _LARGEST:  # a coefficient times a bounded product
        raise ValueError(f"value exceeds {MAX_EVAL_BITS} bits")
    return value


def _evaluate(a: NormalForm, phi: Mapping[object, int], memo: ArgumentMemo) -> int:
    """``evaluate`` with the call's memo (argument -> value of the operation
    atom)."""
    total = 0
    for mono, c in a.items:
        prod = 1
        for atom in mono.atoms:
            if isinstance(atom, GenAtom):
                if atom.index not in phi:
                    raise ValueError(f"phi gives no image for generator {atom.index!r}")
                x = phi[atom.index]
            else:
                x = memo[atom.argument]
            if prod <= _LARGEST:
                prod *= x
            elif not x:  # past the bound only a zero factor saves the monomial
                prod = 0
                break
        if prod > _LARGEST:
            raise ValueError(f"value exceeds {MAX_EVAL_BITS} bits")
        total += c * prod
    return total


def rig_from_term(term: Term, carrier: Carrier) -> RigWithSelfMap:
    """A one-variable expression as a unary map, evaluated pointwise.

    The expression must be over a rank-1 carrier and free of the formal
    unary operation (which it would otherwise have to define in terms of
    itself).
    """
    if getattr(carrier, "rank", None) != 1:
        raise ValueError("a self-map expression needs a rank-1 carrier")
    body = normalize(term, carrier)
    if body.has_app_atoms():
        raise ValueError("a self-map expression cannot use the unary operation")
    identity = CATALOG["identity"]
    return RigWithSelfMap("user", lambda v: evaluate(body, identity, {0: v}))
