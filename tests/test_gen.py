"""Seeded random generation and the equivalence-preserving rewrite walks."""

import hashlib
import random

from rigdiff.carrier import FreeMonoid, MonomialBasis
from rigdiff.gen import equivalent_variant, random_elem, random_hom, random_term_rng
from rigdiff.normal import normalize
from rigdiff.terms import App, positions
from rigdiff.text import print_term

N1 = FreeMonoid(1)
N2 = FreeMonoid(2)


def seeded_term(carrier, seed):
    return random_term_rng(random.Random(seed), carrier, 4, 2, 5)


class TestRandomTerm:
    def test_deterministic_in_the_seed(self):
        assert seeded_term(N2, 42) == seeded_term(N2, 42)
        assert seeded_term(N2, 1) != seeded_term(N2, 2)

    def test_respects_operation_depth_zero(self):
        rng = random.Random(5)
        for _ in range(200):
            t = random_term_rng(rng, N1, 4, 0, 3)
            assert not any(isinstance(s, App) for _, s in positions(t))

    def test_depth_zero_yields_leaves(self):
        rng = random.Random(5)
        for _ in range(100):
            t = random_term_rng(rng, N2, 0, 0, 3)
            assert len(positions(t)) == 1

    def test_level2_terms_generate(self):
        rng = random.Random(3)
        carrier = MonomialBasis(N1)
        t = random_term_rng(rng, carrier, 3, 1, 3)
        normalize(t, carrier)  # must not raise


class TestRandomElemAndHom:
    def test_elem_respects_rank_and_bound(self):
        rng = random.Random(1)
        for _ in range(50):
            e = random_elem(rng, N2, 3)
            assert all(k in (0, 1) and 1 <= c <= 3 for k, c in e.items)

    def test_level2_elem_keys_are_monomials(self):
        rng = random.Random(2)
        e = random_elem(rng, MonomialBasis(N1), 3)
        assert all(hasattr(k, "atoms") for k, _ in e.items)

    def test_hom_shape(self):
        rng = random.Random(4)
        h = random_hom(rng, N2, N1)
        img = h.image_of(0)
        assert img.carrier == N1


class TestEquivalentVariant:
    def test_deterministic_in_the_seed(self):
        t = seeded_term(N2, 8)
        assert equivalent_variant(t, 5, 17, N2) == equivalent_variant(t, 5, 17, N2)

    def test_walks_preserve_the_denoted_value(self):
        rng = random.Random(13)
        for _ in range(150):
            carrier = FreeMonoid(rng.choice((1, 2)))
            t = random_term_rng(rng, carrier, 4, 2, 4)
            v = equivalent_variant(t, rng.randint(1, 8), rng.getrandbits(32),
                                   carrier)
            assert normalize(v, carrier) == normalize(t, carrier)

    def test_walks_do_change_the_tree(self):
        t = seeded_term(N1, 2)
        changed = sum(equivalent_variant(t, 4, seed, N1) != t
                      for seed in range(20))
        assert changed > 0

    def test_walks_are_frozen(self):
        # Seeded law cases replay walks from their seeds, so every move and
        # rng draw of the walk is pinned here, including the payload draws.
        rng = random.Random(2024)
        digest = hashlib.sha256()
        for _ in range(2000):
            carrier = rng.choice((N1, N2, MonomialBasis(N1)))
            t = random_term_rng(rng, carrier, 4, 2, 4)
            v = equivalent_variant(t, rng.randint(1, 8), rng.getrandbits(32),
                                   carrier)
            digest.update((print_term(v, carrier) + "\n").encode())
        assert digest.hexdigest() == (
            "3fb70337605cbe1bc1446d27328c0f50fde6aa16d06af636a4b08c9c8337f2bf")
