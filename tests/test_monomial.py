"""Monomial products and remainders built from sorted parts.

``mono_mul`` inserts a one-atom operand by bisection, returns the other
operand of an empty one, and sorts only two many-atom operands;
``Monomial.without`` slices the removed atom out.  Each result
must be the monomial that a stable sort of the concatenated (or remaining)
atoms gives: the same atom objects in the same order, so equal atoms of
the left operand stay first, and the same key and hash.
"""

import operator
import random

import pytest

from rigdiff.carrier import FreeMonoid, MonoidElem
from rigdiff.normal import (
    GenAtom, Monomial, ONE_MONOMIAL, mono_mul, nf_mul, nf_var,
)
from test_sharing import app_atoms, f_dense_value

N2, N3 = FreeMonoid(2), FreeMonoid(3)
CASES = 200
order_key = operator.attrgetter("order_key")


def reference(atoms):
    """The monomial of ``atoms`` stably sorted by key, built the plain way."""
    return Monomial(sorted(atoms, key=order_key), presorted=True)


def assert_same_monomial(got, want):
    assert len(got.atoms) == len(want.atoms)
    assert all(x is y for x, y in zip(got.atoms, want.atoms))
    assert got.order_key == want.order_key
    assert hash(got) == hash(want)


def gen_atoms(rng):
    """Fresh generator atoms over rank 3: equal atoms are distinct objects,
    so a tie shows which operand its atom came from."""
    return lambda: GenAtom(rng.randrange(3))


def level2_atoms(rng):
    """Generator atoms keyed by level-1 monomials."""
    x = GenAtom(0)
    return lambda: GenAtom(Monomial([x] * rng.randrange(3)))


def f_dense_atoms(rng):
    """Generator and operation atoms of an f-dense value."""
    pool = [x for m, _ in f_dense_value(rng, N2).items for x in m.atoms]
    pool += app_atoms(f_dense_value(rng, N2))
    return lambda: rng.choice(pool)


def draw(atom, rng, lo, hi):
    return [atom() for _ in range(rng.randint(lo, hi))]


def operand_pairs(atom, rng):
    """Atom lists for a and b: one-atom, empty, ordered, reversed-ordered
    and interleaved operands."""
    for _ in range(CASES):
        one = [atom()]
        many = draw(atom, rng, 0, 6)
        yield from ((many, one), (one, many), (many, []), ([], many))
        run = sorted(draw(atom, rng, 2, 8), key=order_key)
        cut = rng.randint(1, len(run) - 1)
        yield from ((run[:cut], run[cut:]), (run[cut:], run[:cut]))
        yield draw(atom, rng, 2, 6), draw(atom, rng, 2, 6)


@pytest.mark.parametrize("atoms", [gen_atoms, level2_atoms, f_dense_atoms],
                         ids=["ties", "level2", "f_dense"])
def test_mono_mul_equals_the_stable_sort(atoms):
    rng = random.Random(9090)
    atom = atoms(rng)
    for xs, ys in operand_pairs(atom, rng):
        a, b = reference(xs), reference(ys)
        assert_same_monomial(mono_mul(a, b), reference(a.atoms + b.atoms))


@pytest.mark.parametrize("atoms", [gen_atoms, level2_atoms, f_dense_atoms],
                         ids=["ties", "level2", "f_dense"])
def test_without_equals_the_stable_sort(atoms):
    rng = random.Random(9191)
    atom = atoms(rng)
    for _ in range(CASES):
        m = reference(draw(atom, rng, 1, 8))
        for x in m.atoms + (atom(),):
            if x not in m.atoms:
                continue
            i = m.atoms.index(x)  # the first equal atom, by Atom.__eq__
            assert_same_monomial(m.without(x), reference(m.atoms[:i] + m.atoms[i + 1:]))


def test_one_atom_and_empty_products_build_no_monomial_by_sorting(monkeypatch):
    built = []
    init = Monomial.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    a = reference([GenAtom(2), GenAtom(0), GenAtom(1), GenAtom(0)])
    x = Monomial([GenAtom(1)])
    p = nf_var(MonoidElem.from_dict(N3, {0: 1, 1: 2, 2: 3}))
    monkeypatch.setattr(Monomial, "__init__", counting_init)
    for u, v in ((a, x), (x, a), (a, ONE_MONOMIAL), (ONE_MONOMIAL, a), (x, x)):
        mono_mul(u, v)
    # a power of a linear form multiplies by one-atom monomials only
    assert nf_mul(nf_mul(p, p), p).items
    assert built == []
