"""Commutative monoids with a distinguished free additive basis.

A carrier names the monoid; an element is a finite coefficient map from
basis keys to positive naturals, stored as a sorted tuple so that equal
elements are structurally equal.  Two kinds of carrier exist: ``FreeMonoid``
(finitely many numbered generators, written additively) and ``MonomialBasis``
(basis keys are the monomials of the polynomial-like values built over a
base carrier, which is how a constructed rig is reused additively as a
carrier one level up).  Everything here is immutable and safe to share.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence


class CarrierMismatch(ValueError):
    """Raised when an operation mixes values tagged with different carriers."""


def basis_sort_key(key: Any):
    """Total order on basis keys: generator indices by value, monomial keys
    by their structural order key.  Keys of one carrier are homogeneous, so
    the two cases never meet inside a single sort."""
    return key if isinstance(key, int) else key.order_key


@dataclass(frozen=True)
class FreeMonoid:
    """Vectors of naturals of a fixed finite rank, under componentwise sum."""

    rank: int

    def __post_init__(self):
        if type(self.rank) is not int or self.rank < 0:
            raise ValueError(f"a carrier rank must be a natural, got {self.rank!r}")

    @property
    def level(self) -> int:
        return 1

    def check_key(self, key: Any) -> None:
        if type(key) is not int or not 0 <= key < self.rank:
            raise CarrierMismatch(f"{key!r} is not a generator index of {self}")


@dataclass(frozen=True)
class MonomialBasis:
    """Monoid freely generated by the monomials over a base carrier.

    Its elements are exactly the coefficient maps of normal forms over
    ``base``, so the rig built over ``base`` can serve as the carrier for
    the next level of the construction.
    """

    base: "Carrier"

    @property
    def level(self) -> int:
        return self.base.level + 1

    def check_key(self, key: Any) -> None:
        if not hasattr(key, "atoms"):  # of the key types, only Monomial has it
            raise CarrierMismatch(f"{key!r} is not a monomial key of {self}")

    def __str__(self) -> str:
        return f"MonomialBasis({self.base})"


Carrier = FreeMonoid | MonomialBasis


class CoeffMap:
    """A finite map from basis keys to positive naturals, stored as ``items``,
    a tuple of (key, coeff) pairs in key order, so equal maps are equal
    structurally.  Its tag (``carrier``, or ``factors`` for tensors) names
    where the keys live; add and scale keep it, even on a zero result.  A
    subclass fixes the tag, its key check and its item order.
    """

    __slots__ = ()

    tag = property(operator.attrgetter("carrier"))

    # (tag, items) -> None; raises CarrierMismatch on a key outside the tag's
    # basis and ValueError on a coefficient that is not a positive int
    # (``_check_coeffs``).  None means the items are not checked.
    _check_keys: Callable[[Any, list], None] | None = None

    @staticmethod
    def _item_order(item: tuple[Any, int]):
        raise NotImplementedError

    @classmethod
    def from_dict(cls, tag: Any, coeffs: Mapping[Any, int]):
        items = [kc for kc in coeffs.items() if kc[1] > 0]
        # Only a dropped coefficient can be negative.
        if len(items) < len(coeffs) and min(coeffs.values()) < 0:
            raise ValueError("coefficients must be naturals; no subtraction here")
        check = cls._check_keys
        if check is not None:
            check(tag, items)
        items.sort(key=cls._item_order)
        return cls(tag, tuple(items))

    @classmethod
    def zero(cls, tag: Any):
        return cls(tag, ())

    def coeff(self, key: Any) -> int:
        for k, c in self.items:
            if k == key:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.items

    def __add__(self, other):
        return coeff_add(self, other)


def _check_coeffs(items: list) -> None:
    """The coefficient rule of every checked map: each is a positive int."""
    for _, c in items:
        if type(c) is not int or c < 1:
            raise ValueError(f"a coefficient must be a positive int, got {c!r}")


def coeff_add(a: CoeffMap, b: CoeffMap) -> CoeffMap:
    """Pointwise sum of two coefficient maps of one type and tag."""
    cls, tag = type(a), a.tag
    if type(b) is not cls or b.tag != tag:
        raise CarrierMismatch(f"carrier mismatch: {cls.__name__} over {tag} "
                              f"vs {type(b).__name__} over {b.tag}")
    acc = dict(a.items)
    add_scaled(acc, b.items)
    return cls.from_dict(tag, acc)


def coeff_scale(a: CoeffMap, n: int) -> CoeffMap:
    """n times a coefficient map, for a natural n."""
    if type(n) is not int or n < 0:
        raise ValueError("scalar must be a natural number")
    if n == 0:
        return type(a).zero(a.tag)
    return type(a)(a.tag, tuple((k, n * c) for k, c in a.items))


elem_add = tensor_add = coeff_add
elem_scale = tensor_scale = coeff_scale


@dataclass(frozen=True)
class MonoidElem(CoeffMap):
    """Element of a carrier: a sorted coefficient map, all coefficients > 0."""

    carrier: Carrier
    items: tuple[tuple[Any, int], ...]

    @staticmethod
    def _check_keys(carrier: Carrier, items: list) -> None:
        for key, _ in items:
            carrier.check_key(key)
        _check_coeffs(items)

    @staticmethod
    def _item_order(item):
        return basis_sort_key(item[0])

    @staticmethod
    def generator(carrier: Carrier, key: Any) -> "MonoidElem":
        return MonoidElem.from_dict(carrier, {key: 1})


# A sum built up over many steps stays a plain dict and is sorted and
# validated once, by the type's ``from_dict``: folding through ``coeff_add``
# would re-sort the whole accumulator at every step.

def add_scaled(acc: dict, items: Iterable[tuple[Any, int]], scale: int = 1) -> None:
    """acc += scale * items, pointwise."""
    for key, c in items:
        acc[key] = acc.get(key, 0) + scale * c


@dataclass(frozen=True, eq=False)
class MonoidHom:
    """Monoid homomorphism, given by its images on basis generators.

    ``image_of`` maps a domain basis key to a codomain element; the hom is
    the additive extension.  For maps between ``FreeMonoid`` carriers use
    :meth:`from_matrix`, which fixes the images as a rank x rank matrix of
    naturals.
    """

    domain: Carrier
    codomain: Carrier
    image_of: Callable[[Any], MonoidElem]

    @staticmethod
    def from_matrix(domain: FreeMonoid, codomain: FreeMonoid,
                    rows: Sequence[Sequence[int]]) -> "MonoidHom":
        if len(rows) != domain.rank:
            raise ValueError("one row per domain generator required")
        images = []
        for row in rows:
            if len(row) != codomain.rank:
                raise ValueError("row length must equal codomain rank")
            for c in row:
                if type(c) is not int or c < 0:
                    raise ValueError(f"a matrix entry must be a natural, got {c!r}")
            images.append(MonoidElem.from_dict(codomain, dict(enumerate(row))))
        return MonoidHom(domain, codomain, lambda key: images[key])

    @staticmethod
    def identity(carrier: Carrier) -> "MonoidHom":
        return MonoidHom(carrier, carrier,
                         lambda key: MonoidElem.generator(carrier, key))

    def compose(self, inner: "MonoidHom") -> "MonoidHom":
        """self after inner."""
        if inner.codomain != self.domain:
            raise CarrierMismatch("composition carriers do not line up")
        return MonoidHom(inner.domain, self.codomain,
                         lambda key: hom_apply(self, inner.image_of(key)))


def hom_apply(h: MonoidHom, a: MonoidElem) -> MonoidElem:
    """Apply a homomorphism by extending its generator images additively:
    ``tensor_bimap`` on one factor, read back as an element."""
    if a.carrier != h.domain:
        raise CarrierMismatch(f"element of {a.carrier} fed to hom from {h.domain}")
    t = tensor_bimap(elem_as_tensor(a), [(h.image_of, (h.codomain,))])
    return MonoidElem(h.codomain, tuple((k, c) for (k,), c in t.items))


@dataclass(frozen=True)
class TensorElem(CoeffMap):
    """Element of a finite tensor product of carriers.

    The basis of a tensor product of free-basis monoids is the set of
    tuples of factor basis keys, so an element is again a finite sorted
    coefficient map and equality stays structural.
    """

    factors: tuple[Carrier, ...]
    items: tuple[tuple[tuple, int], ...]

    tag = property(operator.attrgetter("factors"))

    @staticmethod
    def _check_keys(factors: tuple[Carrier, ...], items: list) -> None:
        for key, _ in items:
            if len(key) != len(factors):
                raise CarrierMismatch("key width differs from factor count")
            for f, k in zip(factors, key):
                f.check_key(k)
        _check_coeffs(items)

    @staticmethod
    def _item_order(item):
        return tuple(map(basis_sort_key, item[0]))


def elem_as_tensor(a: MonoidElem) -> TensorElem:
    """View a monoid element as a one-factor tensor."""
    return TensorElem((a.carrier,), tuple(((k,), c) for k, c in a.items))


# A product of sorted maps joins their keys end to end in loop order: the
# joined keys are distinct and already sorted, so nothing merges or sorts.
# The raw constructors check nothing, so each operand is checked once.

def _operand(a: CoeffMap) -> tuple:
    """``a``'s items, once its keys lie in its tag's basis (else
    CarrierMismatch) and strictly increase (else ValueError)."""
    items = a.items
    a._check_keys(a.tag, items)
    if len(items) > 1:
        order = list(map(a._item_order, items))
        if any(map(operator.ge, order, order[1:])):
            raise ValueError("operand keys are not strictly increasing")
    return items


def tensor_pure(elems: Sequence[MonoidElem]) -> TensorElem:
    """Tensor of elements, expanded multilinearly over their coefficient maps."""
    items = (((), 1),)
    for e in elems:
        e_items = _operand(e)
        items = tuple((k1 + (k2,), c1 * c2) for k1, c1 in items for k2, c2 in e_items)
    return TensorElem(tuple(e.carrier for e in elems), items)


def tensor_concat(a: TensorElem, b: TensorElem) -> TensorElem:
    """Tensor product of two tensor elements (factor lists concatenate)."""
    a_items, b_items = _operand(a), _operand(b)
    return TensorElem(a.factors + b.factors, tuple(
        (k1 + k2, c1 * c2) for k1, c1 in a_items for k2, c2 in b_items))


def tensor_permute(a: TensorElem, perm: Sequence[int]) -> TensorElem:
    """Reorder factors; position i of the result takes factor perm[i]."""
    if sorted(perm) != list(range(len(a.factors))):
        raise ValueError(f"{perm!r} is not a permutation of the factor positions")
    factors = tuple(a.factors[p] for p in perm)
    acc = {tuple(key[p] for p in perm): c for key, c in a.items}
    return TensorElem.from_dict(factors, acc)


FactorMap = tuple[Callable[[Any], "MonoidElem | TensorElem"], tuple[Carrier, ...]]


def tensor_bimap(a: TensorElem, maps: Sequence[FactorMap]) -> TensorElem:
    """Apply one additive map per factor and expand multilinearly.

    Each entry of ``maps`` is a pair (fn, out_factors): fn takes a basis key
    of its factor and returns an element over out_factors (a MonoidElem is
    accepted for single-factor outputs).  The result's factor list is the
    concatenation of the out_factors, which stays well defined even when the
    input is zero.  The maps are applied one factor per stage, last factor
    first, into a plain dict: partial keys that become equal merge before
    the next stage expands them, so each is expanded once.  The last dict is
    sorted once.  Within one call each factor map is called once per
    distinct key of its factor, and a failing map can be reported before
    one of an earlier factor.
    """
    if len(maps) != len(a.factors):
        raise ValueError("one map per tensor factor required")
    out_factors = tuple(itertools.chain.from_iterable(fs for _, fs in maps))
    acc: dict[tuple, int] = dict(a.items)
    for i in reversed(range(len(maps))):
        # Positions before i still hold input keys; later ones hold images.
        fn, fs = maps[i]
        fs = tuple(fs)
        images: dict = {}  # key of factor i -> image items
        staged: dict[tuple, int] = {}
        for key, c in acc.items():
            img = images.get(key[i])
            if img is None:
                img = fn(key[i])
                if isinstance(img, MonoidElem):
                    img = elem_as_tensor(img)
                if img.factors != fs:
                    raise CarrierMismatch(
                        "factor map output does not match its declared factors")
                img = images[key[i]] = img.items
            head, tail = key[:i], key[i + 1:]
            for k, c2 in img:
                new = head + k + tail
                staged[new] = staged.get(new, 0) + c * c2
        acc = staged
    return TensorElem.from_dict(out_factors, acc)
