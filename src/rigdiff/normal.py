"""Canonical forms for the rig freely built over a carrier monoid.

A value is a finite coefficient map from monomials to positive naturals; a
monomial is a sorted multiset of atoms; an atom is either a basis generator
of the carrier or the formal unary operation applied to a whole canonical
form.  Variables indexed by a sum split into sums of generator atoms during
normalization, so no atom ever mentions a composite carrier element, and two
expressions denote the same rig value exactly when their canonical forms are
structurally equal.

Every object has an ``order_key``: a nested tuple that both totally orders
values of the same shape and encodes them injectively, so sorting and
equality are deterministic.  Equal operation atoms are one object
(hash-consing), so their keys are one tuple wherever they are nested, and
comparing two equal values stops at identity one atom deep.  An operation
atom's key is ``(1, argument key, h)``, a tuple that hashes as the stored
``h``: a monomial or value hashes each atom key in constant time, so hashing
a nested value does not walk its depth.  Sorting is as without ``h``, which
a comparison reaches only when the two argument keys are equal.

Products and remainders of monomials are built from their operands' sorted
atoms and keys: a one-atom factor is inserted by bisection and a removed
atom is sliced out.  Only products of two many-atom operands are sorted
again, and every result equals the stable sort's.
"""

from __future__ import annotations

import functools
import itertools
import operator
import weakref
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterable, Sequence

from .carrier import (
    Carrier, CarrierMismatch, CoeffMap, MonoidElem, MonoidHom, MonomialBasis,
    add_scaled, basis_sort_key, coeff_add, coeff_scale, mul_items,
)
from . import terms as t


class SelfMapDisabled(ValueError):
    """Raised when the formal unary operation is used over a carrier that
    was built with it switched off."""


class Atom:
    """One indivisible factor of a monomial."""

    __slots__ = ("order_key", "_hash")

    def __eq__(self, other):
        return isinstance(other, Atom) and self.order_key == other.order_key

    def __hash__(self):
        return self._hash


class GenAtom(Atom):
    """A basis generator of the carrier, as a multiplicative atom."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index
        self.order_key = (0, basis_sort_key(index))
        self._hash = hash(self.order_key)

    def __repr__(self):
        return f"GenAtom({self.index!r})"


class _AtomKey(tuple):
    """An operation atom's order key ``(1, argument key, h)``, hashed as h."""

    __slots__ = ()

    def __hash__(self):
        return self[2]


# argument -> weak reference to its live atom; an entry leaves when its atom dies
_app_atoms: dict["NormalForm", weakref.ref] = {}


class AppAtom(Atom):
    """The unary operation applied to a canonical form; opaque as a factor.

    Hash-consed: ``AppAtom(a)`` is the one live atom of any value equal to
    ``a``, so equal atoms are one object and keep the argument they were
    first built with."""

    __slots__ = ("argument", "__weakref__")

    def __new__(cls, argument: "NormalForm"):
        ref = _app_atoms.get(argument)
        atom = ref and ref()
        if atom is None:
            atom = object.__new__(cls)
            atom.argument = argument
            atom._hash = h = hash((1, argument._hash))
            atom.order_key = _AtomKey((1, argument.order_key, h))
            _app_atoms[argument] = weakref.ref(
                atom, functools.partial(_app_atoms.pop, argument))
        return atom

    def __repr__(self):
        return f"AppAtom({self.argument!r})"


_atom_order = operator.attrgetter("order_key")


class Monomial:
    """A finite multiset of atoms, kept sorted; the empty monomial is 1.

    ``order_key`` is ``(degree, atom keys)``.  Products (``mono_mul``) and
    remainders (``without``) are built from sorted parts, not sorted again."""

    __slots__ = ("atoms", "order_key", "_hash")

    def __init__(self, atoms: Iterable[Atom], presorted: bool = False):
        atoms = tuple(atoms)
        if not presorted:
            atoms = tuple(sorted(atoms, key=_atom_order))
        self.atoms = atoms
        self.order_key = (len(atoms), tuple(map(_atom_order, atoms)))
        self._hash = hash(self.order_key)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.order_key == other.order_key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial({list(self.atoms)!r})"

    @property
    def degree(self) -> int:
        return len(self.atoms)

    def atom_counts(self) -> list[tuple[Atom, int]]:
        return [(a, len(list(g))) for a, g in itertools.groupby(self.atoms)]

    def without(self, atom: Atom) -> "Monomial":
        """Remove the first occurrence of an atom (which must be present)."""
        keys = self.order_key[1]
        i = keys.index(atom.order_key)
        return _sorted_monomial(self.atoms[:i] + self.atoms[i + 1:],
                                keys[:i] + keys[i + 1:])


def _sorted_monomial(atoms: tuple, keys: tuple) -> Monomial:
    """The monomial of already sorted ``atoms`` whose keys are ``keys``.

    Unlike ``Monomial(atoms, presorted=True)``, which callers holding only
    atoms use, it takes the keys too and so makes no pass over the atoms."""
    m = object.__new__(Monomial)
    m.atoms = atoms
    m.order_key = key = (len(keys), keys)
    m._hash = hash(key)
    return m


ONE_MONOMIAL = Monomial(())


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product monomial, equal atom for atom to the stable sort of
    ``a.atoms + b.atoms`` (so equal atoms of ``a`` come first).  A one-atom
    or empty operand needs no sort; only two many-atom operands are sorted
    again."""
    ka, kb = a.order_key[1], b.order_key[1]
    if not ka:
        return b
    if not kb:
        return a
    if len(kb) == 1:
        i = bisect_right(ka, kb[0])
        return _sorted_monomial(a.atoms[:i] + b.atoms + a.atoms[i:], ka[:i] + kb + ka[i:])
    if len(ka) == 1:
        i = bisect_left(kb, ka[0])
        return _sorted_monomial(b.atoms[:i] + a.atoms + b.atoms[i:], kb[:i] + ka + kb[i:])
    return Monomial(a.atoms + b.atoms)


class NormalForm(CoeffMap):
    """Canonical rig value: sorted (monomial, positive coefficient) pairs.

    Its keys are not checked: ``from_dict`` is on every hot path, and every
    monomial key is built by this module.  ``order_key`` and the hash are
    built on first use: most values are never compared, hashed or wrapped
    in an operation atom."""

    __slots__ = ("carrier", "items", "order_key", "_hash")

    def __init__(self, carrier: Carrier, items: tuple[tuple[Monomial, int], ...]):
        self.carrier = carrier
        self.items = items

    def __getattr__(self, name):  # only reached while a slot is unset
        if name == "order_key":
            self.order_key = key = tuple((m.order_key, c) for m, c in self.items)
            return key
        if name == "_hash":
            self._hash = h = hash((self.carrier, self.order_key))
            return h
        raise AttributeError(name)

    @staticmethod
    def _item_order(item):
        return item[0].order_key

    @staticmethod
    def one(carrier: Carrier) -> "NormalForm":
        return NormalForm(carrier, ((ONE_MONOMIAL, 1),))

    def has_app_atoms(self) -> bool:
        return any(isinstance(a, AppAtom) for m, _ in self.items for a in m.atoms)

    def __eq__(self, other):
        # unequal hashes end almost every unequal comparison before the
        # nested keys, whose comparison recurses along a shared deep prefix
        return (isinstance(other, NormalForm)
                and self._hash == other._hash
                and self.carrier == other.carrier
                and self.order_key == other.order_key)

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        return nf_mul(self, other)

    def __str__(self):
        return render_nf(self)

    def __repr__(self):
        return f"<NormalForm {render_nf(self)} over {self.carrier}>"


def nf_from_monomial(carrier: Carrier, mono: Monomial, coeff: int = 1) -> NormalForm:
    if coeff == 0:
        return NormalForm.zero(carrier)
    return NormalForm(carrier, ((mono, coeff),))


def nf_var(elem: MonoidElem) -> NormalForm:
    """The variable indexed by a carrier element, as a canonical form.

    A composite index splits into its generator atoms with the same
    coefficients, so variables indexed by sums never appear as such.
    """
    items = tuple((Monomial((GenAtom(k),), presorted=True), c) for k, c in elem.items)
    return NormalForm(elem.carrier, items)


nf_add = coeff_add
nf_scale = coeff_scale


def nf_mul(a: NormalForm, b: NormalForm) -> NormalForm:
    if a.carrier != b.carrier:
        raise CarrierMismatch(f"carrier mismatch: {a.carrier} vs {b.carrier}")
    return NormalForm.from_dict(a.carrier, mul_items(a.items, b.items, mono_mul))


class ArgumentMemo(dict):
    """One walk's results per operation argument: ``memo[arg]`` is
    ``compute(arg, memo)``, computed once.  A miss first fills in every
    argument nested in ``arg`` that the memo lacks, innermost first, so
    ``compute(v, memo)`` finds each argument directly inside v as
    ``memo[atom.argument]``.  An explicit stack replaces recursion: however
    deep the nesting of the unary operation, a miss adds a constant number
    of Python frames.  ``compute`` gets the memo as an argument, so it need
    not refer to it, and the memo is freed without a reference cycle."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable[[NormalForm, "ArgumentMemo"], Any]):
        self.compute = compute

    def __missing__(self, arg: NormalForm):
        stack = [arg]
        while True:
            v = stack.pop()
            inner = []
            for m, _ in v.items:
                for x in m.atoms:
                    if isinstance(x, AppAtom) and x.argument not in self:
                        inner.append(x.argument)
            if inner:
                stack.append(v)
                stack += reversed(inner)  # first occurrence on top
            elif not stack:
                self[v] = value = self.compute(v, self)
                return value
            elif v not in self:  # an argument pushed twice is computed once
                self[v] = self.compute(v, self)


def nf_selfmap(a: NormalForm) -> NormalForm:
    """Apply the formal unary operation: a fresh opaque atom, never expanded."""
    if not a.carrier.selfmap_enabled:
        raise SelfMapDisabled(f"carrier {a.carrier} was built without the unary operation")
    return NormalForm(a.carrier, ((Monomial((AppAtom(a),)), 1),))


def normalize(term: t.Term, carrier: Carrier) -> NormalForm:
    """Canonical form of a raw term over the given carrier.

    A run of sums is walked with an explicit stack and added into one dict
    that is sorted once; a left spine of products is multiplied out in a
    loop, and so is a run of unary operations.  So long chains of any of
    them need no recursion."""
    if isinstance(term, t.Zero):
        return NormalForm.zero(carrier)
    if isinstance(term, t.One):
        return NormalForm.one(carrier)
    if isinstance(term, t.Var):
        if term.elem.carrier != carrier:
            raise CarrierMismatch(
                f"variable over {term.elem.carrier} normalized over {carrier}")
        return nf_var(term.elem)
    if isinstance(term, t.Sum):
        acc: dict[Monomial, int] = {}
        stack = [term]
        while stack:
            sub = stack.pop()
            if isinstance(sub, t.Sum):
                stack += (sub.right, sub.left)
            else:
                add_scaled(acc, normalize(sub, carrier).items)
        return NormalForm.from_dict(carrier, acc)
    if isinstance(term, t.Prod):
        rights = []
        while isinstance(term, t.Prod):
            rights.append(term.right)
            term = term.left
        out = normalize(term, carrier)
        for right in reversed(rights):
            out = nf_mul(out, normalize(right, carrier))
        return out
    if isinstance(term, t.App):
        depth = 0
        while isinstance(term, t.App):
            term, depth = term.body, depth + 1
        out = normalize(term, carrier)
        for _ in range(depth):
            out = nf_selfmap(out)
        return out
    raise TypeError(f"not a term: {term!r}")


def extend_generators(a: NormalForm, domain: Carrier, codomain: Carrier,
                      gen_image: Callable[[Any], Sequence[tuple[Monomial, int]]]
                      ) -> NormalForm:
    """Apply to ``a`` the rig map from values over ``domain`` to values over
    ``codomain`` that sends generator k to the value with items
    ``gen_image(k)`` and carries the unary operation along.

    Monomials that share a prefix of their sorted atoms share its image: a
    trie of the prefixes met in one value holds one product per distinct
    prefix, each one ``mul_items`` of its parent's product by one atom
    image, so ``gen_image`` runs once per distinct prefix that ends in a
    generator.  Within one call each distinct operation argument is mapped
    once (innermost first, without recursion).  Each value's images are
    added into one dict that is sorted once."""

    def expand(v: NormalForm, memo: ArgumentMemo) -> NormalForm:
        if v.carrier != domain:
            raise CarrierMismatch(f"value over {v.carrier} fed to a map from {domain}")
        root: tuple[dict, dict] = ({ONE_MONOMIAL: 1}, {})  # (product, children)
        acc: dict[Monomial, int] = {}
        for mono, c in v.items:
            prod, children = root
            for atom in mono.atoms:
                node = children.get(atom)
                if node is None:
                    if isinstance(atom, GenAtom):
                        img = gen_image(atom.index)
                    else:
                        img = memo[atom.argument]
                    node = children[atom] = (mul_items(prod.items(), img, mono_mul), {})
                prod, children = node
            add_scaled(acc, prod.items(), c)
        return NormalForm.from_dict(codomain, acc)

    # operation argument -> image items of its atom
    return expand(a, ArgumentMemo(lambda arg, memo: nf_selfmap(expand(arg, memo)).items))


def apply_functor(h: MonoidHom, a: NormalForm) -> NormalForm:
    """Rig map induced by a carrier homomorphism.

    Generator atoms map to the variables of their images and the unary
    operation is carried along; the result is again canonical.  This is
    ``extend_generators``, so each distinct prefix of a monomial's atoms is
    expanded once; within one call ``h.image_of`` runs once per distinct
    generator.
    """
    images: dict = {}  # generator index -> image items

    def gen_image(key):
        img = images.get(key)
        if img is None:
            img = nf_var(h.image_of(key))
            if img.carrier != h.codomain:
                raise CarrierMismatch(f"carrier mismatch: {h.codomain} vs {img.carrier}")
            img = images[key] = img.items
        return img

    return extend_generators(a, h.domain, h.codomain, gen_image)


def as_monoid_element(a: NormalForm) -> MonoidElem:
    """A canonical form is literally a coefficient map over monomial keys."""
    return MonoidElem(MonomialBasis(a.carrier), a.items)


def from_monoid_element(e: MonoidElem) -> NormalForm:
    if not isinstance(e.carrier, MonomialBasis):
        raise CarrierMismatch(f"{e.carrier} does not hold monomial keys")
    return NormalForm(e.carrier.base, e.items)


# --- textual rendering: display text, and parseable input for
# --- ``text.emit_nf``; machine round trips use the structured export below

_VAR_LETTERS = "xyz"
_APP_LETTERS = "fgh"


def var_letter(level: int) -> str:
    return _VAR_LETTERS[level - 1] if level <= 3 else f"x{level}"


def app_letter(level: int) -> str:
    return _APP_LETTERS[level - 1] if level <= 3 else f"f{level}"


def render_nf(a: NormalForm) -> str:
    """Canonical text: coefficient-tagged monomials in key order.

    Within one call each distinct operation argument is rendered once;
    later occurrences, at any depth, reuse its text."""
    return _render_nf(a, _render_memo(False), False)


def _render_memo(parseable: bool) -> ArgumentMemo:
    """One rendering call's memo: argument -> text of its operation atom."""
    return ArgumentMemo(
        lambda v, memo: f"{app_letter(v.carrier.level)}({_render_nf(v, memo, parseable)})")


def _render_nf(a: NormalForm, memo: ArgumentMemo, parseable: bool) -> str:
    spelled = [(c, _render_monomial(m, a.carrier, memo, parseable)) for m, c in a.items]
    return " + ".join([t if c == 1 else str(c) if t == "1" else f"{c}*{t}"
                       for c, t in spelled]) or "0"


def _render_monomial(mono: Monomial, carrier: Carrier, memo: ArgumentMemo,
                     parseable: bool) -> str:
    """Text of a monomial over a carrier.  A level-1 generator is spelled by
    its index (``x[1]``) for display, or as the unit vector that the
    grammar reads back (``x[0,1]``) when ``parseable`` is set."""
    if not mono.atoms:
        return "1"
    level = carrier.level
    parts = []
    for atom in mono.atoms:
        if isinstance(atom, AppAtom):
            parts.append(memo[atom.argument])
            continue
        k = atom.index
        if isinstance(carrier, MonomialBasis):
            k = _render_monomial(k, carrier.base, memo, parseable)
        elif parseable:
            k = ",".join("1" if i == k else "0" for i in range(carrier.rank))
        parts.append(f"{var_letter(level)}[{k}]")
    return "*".join(parts)


# --- structured export: lists and dicts that survive JSON exactly

def _app_obj(arg: NormalForm, memo: ArgumentMemo) -> dict:
    return {"app": _nf_obj(arg, memo)}


def _atom_to_obj(atom: Atom, memo: ArgumentMemo):
    if isinstance(atom, AppAtom):
        return memo[atom.argument]
    if isinstance(atom.index, int):
        return {"gen": atom.index}
    return {"gen": [_atom_to_obj(a, memo) for a in atom.index.atoms]}


def _nf_obj(a: NormalForm, memo: ArgumentMemo) -> list:
    return [{"coeff": c, "atoms": [_atom_to_obj(x, memo) for x in m.atoms]}
            for m, c in a.items]


def nf_to_obj(a: NormalForm) -> list:
    """Structured view of a value.  Each distinct operation argument is
    converted once per call and its occurrences share that object, so copy
    the result before mutating any part of it."""
    return _nf_obj(a, ArgumentMemo(_app_obj))


def _atom_from_obj(carrier: Carrier, obj) -> Atom:
    if "gen" in obj:
        key = obj["gen"]
        if isinstance(key, list):
            if not isinstance(carrier, MonomialBasis):
                raise CarrierMismatch("monomial generator key needs a monomial-basis carrier")
            key = Monomial(_atom_from_obj(carrier.base, a) for a in key)
        carrier.check_key(key)
        return GenAtom(key)
    if "app" in obj:
        return AppAtom(nf_from_obj(carrier, obj["app"]))
    raise ValueError(f"not an atom object: {obj!r}")


def nf_from_obj(carrier: Carrier, obj) -> NormalForm:
    acc: dict[Monomial, int] = {}
    for entry in obj:
        m = Monomial(_atom_from_obj(carrier, a) for a in entry["atoms"])
        acc[m] = acc.get(m, 0) + entry["coeff"]
    return NormalForm.from_dict(carrier, acc)


def tensor_to_obj(a) -> dict:
    """Structured view of a tensor element (one-way; for output and diffing);
    it shares sub-objects as ``nf_to_obj`` does."""
    memo = ArgumentMemo(_app_obj)

    def key_obj(k):
        return k if isinstance(k, int) else [_atom_to_obj(x, memo) for x in k.atoms]

    return {
        "factors": [str(f) for f in a.factors],
        "items": [{"coeff": c, "key": [key_obj(k) for k in key]}
                  for key, c in a.items],
    }
