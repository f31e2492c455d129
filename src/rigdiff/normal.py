"""Canonical forms for the rig freely built over a carrier monoid.

A value is a finite coefficient map from monomials to positive naturals; a
monomial is a sorted multiset of atoms; an atom is either a basis generator
of the carrier or the formal unary operation applied to a whole canonical
form.  Variables indexed by a sum split into sums of generator atoms during
normalization, so no atom ever mentions a composite carrier element, and two
expressions denote the same rig value exactly when their canonical forms are
structurally equal.

Every object has an ``order_key``: a tuple that both totally orders values
of the same shape and encodes them injectively, so sorting and equality are
deterministic.  Equal operation atoms are one object (hash-consing), and an
operation atom's key is ``(1, label)``.  The label is a short int tuple
that starts with its carrier's number and sorts among the labels of that
carrier's live atoms as the atom's argument key sorts among theirs (order
maintenance over the intern table).  So atom, monomial and value keys are a
few tuple levels deep at any nesting depth, and no sort, bisection, hash or
equality walks a nested argument.  Each carrier keeps its live atoms'
argument keys and labels in one sorted table; keys of different carriers
are never compared.  A new atom's label lies strictly between its
neighbours' labels (an atom greater than every live one appends), and a
label never changes while its atom lives; a dead atom's row leaves the
table with it.  Labels depend on the order atoms were made in, so hashes of
values are stable only within a process.

Products and remainders of monomials are built from their operands' sorted
atoms and keys: a one-atom factor is inserted by bisection and a removed
atom is sliced out.  Only products of two many-atom operands are sorted
again, and every result equals the stable sort's.  ``apply_functor``
multiplies packed exponent keys instead; ``mu`` collapses each monomial
with one sort.
"""

from __future__ import annotations

import functools
import itertools
import operator
import reprlib
import weakref
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Collection, Iterable, Sequence

from .carrier import (
    Carrier, CarrierMismatch, CoeffMap, MonoidElem, MonoidHom, MonomialBasis,
    add_scaled, basis_sort_key, coeff_add, coeff_scale,
)
from . import terms as t


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


# argument -> weak reference to its live atom; an entry leaves when its atom dies
_app_atoms: dict["NormalForm", "_AtomRef"] = {}
# carrier -> (argument keys, labels) of its live atoms, both sorted, and
# the number that starts each of its labels
_labels: dict[Carrier, tuple[list, list, int]] = {}
# label ints after the second lie in [0, _SPAN)
_SPAN = 1 << 30


def _label_between(lo: tuple | None, hi: tuple) -> tuple:
    """A label strictly between ``lo`` (None: below every label) and ``hi``.

    Labels are int tuples of any length, compared as tuples.  The first
    int names the carrier, so atoms of different carriers never share a
    key; the second is any int; later ones lie in [0, _SPAN), and a label
    never ends in 0, so every gap holds another label.  The result copies
    ``lo`` until a midpoint fits below ``hi``'s int, taking 0 past
    ``lo``'s end; once it is below ``hi``, the bound above is ``_SPAN``."""
    if lo is None:
        return (hi[0], hi[1] - 1)
    out = []
    for i in itertools.count():
        a = lo[i] if i < len(lo) else 0
        b = _SPAN if hi is None else hi[i]
        if b - a >= 2:
            return (*out, (a + b) // 2)
        out.append(a)
        if b != a:
            hi = None


class _AtomRef(weakref.ref):
    """A weak reference to an interned atom, with its argument, its label
    and its carrier's table."""

    __slots__ = ("argument", "label", "table")


def _forget(ref: _AtomRef) -> None:
    """Remove a dead atom's intern entry and its label row, and only those:
    an equal atom may have been made again before this runs."""
    if _app_atoms.get(ref.argument) is ref:
        del _app_atoms[ref.argument]
    keys, labels, _ = ref.table
    i = bisect_left(labels, ref.label)
    del keys[i], labels[i]


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
            atom._hash = hash((1, argument._hash))
            key = argument.order_key
            table = (_labels.get(argument.carrier)
                     or _labels.setdefault(argument.carrier, ([], [], len(_labels))))
            keys, labels, first = table
            if not keys or key > keys[-1]:
                label = (first, labels[-1][1] + 1) if labels else (first, 0)
                keys.append(key)
                labels.append(label)
            else:
                i = bisect_left(keys, key)
                label = _label_between(labels[i - 1] if i else None, labels[i])
                keys.insert(i, key)
                labels.insert(i, label)
            atom.order_key = (1, label)
            ref = _app_atoms[argument] = _AtomRef(atom, _forget)
            ref.argument, ref.label, ref.table = argument, label, table
        return atom

    def __repr__(self):
        return f"AppAtom({self.argument!r})"


_atom_order = operator.attrgetter("order_key")


class Monomial:
    """A finite multiset of atoms, kept sorted; the empty monomial is 1.

    ``order_key`` is ``(degree, atom keys)``.  Products, remainders and
    one-atom monomials are built by ``_sorted_monomial``, with no sort."""

    __slots__ = ("atoms", "order_key", "_hash")

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms = atoms = tuple(sorted(atoms, key=_atom_order))
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
    """The monomial of already sorted ``atoms`` whose keys are ``keys``:
    no sort and no pass over the atoms."""
    m = object.__new__(Monomial)
    m.atoms = atoms
    m.order_key = key = (len(keys), keys)
    m._hash = hash(key)
    return m


def _one_atom(atom: Atom) -> Monomial:
    return _sorted_monomial((atom,), (atom.order_key,))


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


def mul_items(a: Iterable[tuple[Monomial, int]],
              b: Sequence[tuple[Monomial, int]]) -> dict:
    """The product of two (monomial, coeff) sequences as a dict, expanded
    bilinearly; it is sorted once, by ``from_dict``."""
    out: dict = {}
    for m1, c1 in a:
        for m2, c2 in b:
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


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
        # unequal hashes end almost every unequal comparison before the keys
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


def nf_from_monomial(carrier: Carrier, mono: Monomial) -> NormalForm:
    return NormalForm(carrier, ((mono, 1),))


def nf_var(elem: MonoidElem) -> NormalForm:
    """The variable indexed by a carrier element, as a canonical form.

    A composite index splits into its generator atoms with the same
    coefficients, so variables indexed by sums never appear as such.
    """
    items = tuple((_one_atom(GenAtom(k)), c) for k, c in elem.items)
    return NormalForm(elem.carrier, items)


nf_add = coeff_add
nf_scale = coeff_scale


def nf_mul(a: NormalForm, b: NormalForm) -> NormalForm:
    if a.carrier != b.carrier:
        raise CarrierMismatch(f"carrier mismatch: {a.carrier} vs {b.carrier}")
    return NormalForm.from_dict(a.carrier, mul_items(a.items, b.items))


class ArgumentMemo(dict):
    """Results per operation argument for as long as the memo lives (one
    walk, or every call of a hom's rig map): ``memo[arg]`` is
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
    return NormalForm(a.carrier, ((_one_atom(AppAtom(a)), 1),))


_RUN_KINDS = frozenset((t.Sum, t.Prod, t.App))


def normalize(term: t.Term, carrier: Carrier) -> NormalForm:
    """Canonical form of a raw term over the given carrier.

    A run of sums (every sum reached through sums alone) is added into one
    dict that is sorted once, and a run of products is multiplied out left
    to right.  Operands are normalized left to right, depth first, from an
    explicit stack of open runs, so no nesting of sums, products and unary
    operations (a long literal nests one level per bit) needs Python
    frames."""
    runs = []  # (kind, operands, values of the operands done so far)
    while True:
        kind = type(term)
        while kind in _RUN_KINDS:
            if kind is t.App:
                operands = [term.body]
            else:
                operands, stack = [], [term]
                while stack:
                    sub = stack.pop()
                    if type(sub) is kind:
                        stack += (sub.right, sub.left)
                    else:
                        operands.append(sub)
            runs.append((kind, operands, []))
            term = operands[0]
            kind = type(term)
        if kind is t.Var:
            if term.elem.carrier != carrier:
                raise CarrierMismatch(
                    f"variable over {term.elem.carrier} normalized over {carrier}")
            value = nf_var(term.elem)
        elif kind is t.Zero:
            value = NormalForm.zero(carrier)
        elif kind is t.One:
            value = NormalForm.one(carrier)
        else:
            raise TypeError(f"not a term: {term!r}")
        while runs:
            kind, operands, values = runs[-1]
            values.append(value)
            if len(values) < len(operands):
                term = operands[len(values)]
                break
            runs.pop()
            if kind is t.Sum:
                acc: dict[Monomial, int] = {}
                for v in values:
                    add_scaled(acc, v.items)
                value = NormalForm.from_dict(carrier, acc)
            elif kind is t.Prod:
                value = functools.reduce(nf_mul, values)
            else:
                value = nf_selfmap(value)
        else:
            return value


# A packed key is (e, ops): e is an int with one _FIELD-bit exponent field per
# codomain generator that a map has met, wider than any exponent of a monomial
# that fits in memory, and ops is the sorted tuple of the operation atoms'
# keys.  The product of two packed keys adds their ints and merges their ops.
_FIELD = 64
_MASK = (1 << _FIELD) - 1


def _packed_mul(a: Iterable[tuple[tuple, int]], b: Collection[tuple[tuple, int]]) -> dict:
    """The product of two (packed key, coeff) sequences as a dict: one int
    addition per pair of terms.  ``b`` is one atom's image, so its ops are
    empty or one key, which is inserted by bisection."""
    out: dict = {}
    for (e1, o1), c1 in a:
        for (e2, o2), c2 in b:
            if o2:
                i = bisect_right(o1, o2[0])
                key = e1 + e2, o1[:i] + o2 + o1[i:]
            else:
                key = e1 + e2, o1
            out[key] = out.get(key, 0) + c1 * c2
    return out


@functools.lru_cache(maxsize=1)
def _induced(h: MonoidHom) -> Callable[[NormalForm], NormalForm]:
    """``h``'s rig map: generator k goes to the variable of ``h.image_of(k)``
    and the unary operation is carried along.  The cache holds the last hom
    (compared by identity) and its map, so consecutive calls share all below.

    Monomials that share a prefix of their sorted atoms share its image: a
    trie of the prefixes met holds one product per distinct prefix.  A
    one-atom prefix's product is its atom's image, and a longer prefix's is
    the ``_packed_mul`` of its parent's product by the image of its last
    atom.  A generator's image is checked and packed once, one field per
    codomain generator; each distinct operation argument is mapped once
    (innermost first, without recursion), and each distinct result key
    becomes a monomial once.  Each value's images are added into one dict
    that is sorted once."""
    domain, codomain = h.domain, h.codomain
    top: dict = {}  # children of the root: atom -> (its image, children)
    root = ({(0, ()): 1}, top)  # (product, children) of the empty prefix
    shifts: dict = {}  # generator atom key -> offset of its exponent field
    atoms: dict = {}  # atom key -> codomain atom; held, so no label is reused
    monos = {(0, ()): ONE_MONOMIAL}  # packed key -> its monomial

    def image(atom: Atom, memo: ArgumentMemo) -> dict:
        if not isinstance(atom, GenAtom):
            return memo[atom.argument]
        img = h.image_of(atom.index)
        if img.carrier != codomain:
            raise CarrierMismatch(f"carrier mismatch: {codomain} vs {img.carrier}")
        MonoidElem._check_keys(codomain, img.items)
        packed = {}
        for k, c in img.items:
            gen = GenAtom(k)
            shift = shifts.get(gen.order_key)
            if shift is None:
                shift = shifts[gen.order_key] = _FIELD * len(shifts)
                atoms[gen.order_key] = gen
            packed[1 << shift, ()] = c
        return packed

    def expand(v: NormalForm, memo: ArgumentMemo) -> NormalForm:
        if v.carrier != domain:
            raise CarrierMismatch(f"value over {v.carrier} fed to a map from {domain}")
        acc: dict = {}
        for mono, c in v.items:
            prod, children = root
            for atom in mono.atoms:
                node = children.get(atom)
                if node is None:
                    node = top.get(atom)
                    if node is None:
                        node = top[atom] = (image(atom, memo), {})
                    if children is not top:
                        node = children[atom] = (_packed_mul(prod.items(), node[0].items()), {})
                prod, children = node
            add_scaled(acc, prod.items(), c)
        items = []
        for key, c in acc.items():
            mono = monos.get(key)
            if mono is None:
                e, ops = key
                keys = []
                for k, shift in shifts.items():
                    n = e >> shift & _MASK
                    if n:
                        keys += [k] * n
                keys.sort()
                keys += ops
                mono = monos[key] = _sorted_monomial(tuple(map(atoms.__getitem__, keys)),
                                                     tuple(keys))
            items.append((mono, c))
        items.sort(key=NormalForm._item_order)
        return NormalForm(codomain, tuple(items))

    def apply(arg: NormalForm, memo: ArgumentMemo) -> dict:
        atom = AppAtom(expand(arg, memo))
        atoms[atom.order_key] = atom
        return {(0, (atom.order_key,)): 1}

    memo = ArgumentMemo(apply)  # operation argument -> image of its atom
    return lambda a: expand(a, memo)


def apply_functor(h: MonoidHom, a: NormalForm) -> NormalForm:
    """Rig map induced by a carrier homomorphism.

    Generator atoms map to the variables of their images and the unary
    operation is carried along; the result is again canonical.  Of the rig
    maps only this one packs keys (``mu`` collapses each monomial with one
    sort).  Its prefix products, generator images and result monomials are
    shared across consecutive calls with the same ``h`` (see ``_induced``):
    the last hom and its map stay alive until a call with another hom, and
    those calls return one object per monomial.  So ``h.image_of`` must be
    a function of its input.
    """
    return _induced(h)(a)


def as_monoid_element(a: NormalForm) -> MonoidElem:
    """A canonical form is literally a coefficient map over monomial keys."""
    return MonoidElem(MonomialBasis(a.carrier), a.items)


def from_monoid_element(e: MonoidElem) -> NormalForm:
    if not isinstance(e.carrier, MonomialBasis):
        raise CarrierMismatch(f"{e.carrier} does not hold monomial keys")
    return NormalForm(e.carrier.base, e.items)


# --- textual rendering: display text, and parseable input for
# --- ``text.emit_nf``; machine round trips use the structured export below

# The letters of levels 1-3, which are also the parser's name table:
# ``text.parse`` reads any of them at any level.
_VAR_LETTERS = "xyz"
_APP_LETTERS = "fgh"


def _letter(letters: str, level: int, parseable: bool) -> str:
    """The letter from ``letters`` (``_VAR_LETTERS`` or ``_APP_LETTERS``)
    that spells ``level``.  Display text spells a level past 3 ``x4[``/
    ``f4(``, which does not parse; parseable text uses the level-3 letters."""
    if level <= len(letters):
        return letters[level - 1]
    return letters[-1] if parseable else f"{letters[0]}{level}"


def render_nf(a: NormalForm) -> str:
    """Canonical text: coefficient-tagged monomials in key order.

    Within one call each distinct operation argument is rendered once;
    later occurrences, at any depth, reuse its text."""
    return _render_nf(a, _render_memo(False), False)


def _render_memo(parseable: bool) -> ArgumentMemo:
    """One rendering call's memo: argument -> text of its operation atom."""
    return ArgumentMemo(
        lambda v, memo: f"{_letter(_APP_LETTERS, v.carrier.level, parseable)}"
                        f"({_render_nf(v, memo, parseable)})")


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
    letter = _letter(_VAR_LETTERS, carrier.level, parseable)
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
        parts.append(f"{letter}[{k}]")
    return "*".join(parts)


# --- structured export: lists and dicts that survive JSON exactly

def _app_obj(arg: NormalForm, memo: ArgumentMemo) -> dict:
    return {"app": _nf_obj(arg, memo)}


def _key_obj(key, memo: ArgumentMemo):
    """A basis key: a generator index, or a monomial key's atoms."""
    return key if isinstance(key, int) else [_atom_to_obj(a, memo) for a in key.atoms]


def _atom_to_obj(atom: Atom, memo: ArgumentMemo):
    if isinstance(atom, AppAtom):
        return memo[atom.argument]
    return {"gen": _key_obj(atom.index, memo)}


def _nf_obj(a: NormalForm, memo: ArgumentMemo) -> list:
    return [{"coeff": c, "atoms": [_atom_to_obj(x, memo) for x in m.atoms]}
            for m, c in a.items]


def nf_to_obj(a: NormalForm) -> list:
    """Structured view of a value.  Each distinct operation argument is
    converted once per call and its occurrences share that object, so copy
    the result before mutating any part of it."""
    return _nf_obj(a, ArgumentMemo(_app_obj))


def _atom_from_obj(carrier: Carrier, obj: dict, built: dict) -> Atom:
    """The atom of an object that ``_app_objs`` has accepted."""
    if "app" in obj:
        return AppAtom(built[id(obj["app"])])
    key = obj["gen"]
    if isinstance(key, list):
        key = Monomial(_atom_from_obj(carrier.base, a, built) for a in key)
    carrier.check_key(key)
    return GenAtom(key)


def _app_objs(carrier: Carrier, atoms) -> Iterable[tuple[Carrier, list]]:
    """(carrier, argument) of each operation atom object, in keys too.  An
    atom list of a shape that ``nf_to_obj`` does not emit raises ValueError."""
    if not isinstance(atoms, list):
        raise ValueError(f"not a list of atom objects: {reprlib.repr(atoms)}")
    for obj in atoms:
        if not (isinstance(obj, dict) and len(obj) == 1 and (
                type(obj.get("gen")) in (int, list) or type(obj.get("app")) is list)):
            raise ValueError(f"not an atom object: {reprlib.repr(obj)}")
        if "app" in obj:
            yield carrier, obj["app"]
        elif isinstance(obj["gen"], list):
            if not isinstance(carrier, MonomialBasis):
                raise CarrierMismatch("monomial generator key needs a monomial-basis carrier")
            yield from _app_objs(carrier.base, obj["gen"])


def _entries(o) -> list:
    """``o``, if it has the shape of ``nf_to_obj``'s view: a list of
    ``{"coeff": c, "atoms": [...]}`` with c a positive int (not a bool)."""
    if not isinstance(o, list):
        raise ValueError(f"not a value object: {reprlib.repr(o)}")
    for entry in o:
        if not isinstance(entry, dict) or entry.keys() != {"coeff", "atoms"}:
            raise ValueError(f"not a monomial object: {reprlib.repr(entry)}")
        if type(entry["coeff"]) is not int or entry["coeff"] < 1:
            raise ValueError(f"a coefficient must be a positive int, got {entry['coeff']!r}")
    return o


def nf_from_obj(carrier: Carrier, obj) -> NormalForm:
    """Read back ``nf_to_obj``'s view; any other shape raises ValueError.
    Arguments are read innermost first from an explicit stack, so nesting
    adds no Python frame per level."""
    built: dict[int, NormalForm] = {}  # id of an object read -> its value
    stack = [(carrier, obj)]
    while stack:
        c, o = stack[-1]
        inner = [(ci, a) for entry in _entries(o) for ci, a in _app_objs(c, entry["atoms"])
                 if id(a) not in built]
        if inner:
            stack += inner
            continue
        stack.pop()
        acc: dict[Monomial, int] = {}
        for entry in o:
            m = Monomial(_atom_from_obj(c, a, built) for a in entry["atoms"])
            acc[m] = acc.get(m, 0) + entry["coeff"]
        built[id(o)] = NormalForm.from_dict(c, acc)
    return built[id(obj)]


def tensor_to_obj(a) -> dict:
    """Structured view of a tensor element (one-way; for output and diffing);
    it shares sub-objects as ``nf_to_obj`` does."""
    memo = ArgumentMemo(_app_obj)
    return {
        "factors": [str(f) for f in a.factors],
        "items": [{"coeff": c, "key": [_key_obj(k, memo) for k in key]}
                  for key, c in a.items],
    }
