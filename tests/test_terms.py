"""Raw terms, subterm addressing and the generating rewrite rules."""

import random
import time

import pytest

from rigdiff.carrier import FreeMonoid, MonoidElem, MonoidHom, MonomialBasis
from rigdiff.gen import random_term_rng
from rigdiff.normal import normalize
from rigdiff.terms import (
    App, One, Prod, RewriteRule, RuleNotApplicable, Sum, Var, Zero,
    ONE, RULES, ZERO, positions, rewrite_step, subterm_at, term_map_hom,
)
from rigdiff.text import parse

N1 = FreeMonoid(1)
N2 = FreeMonoid(2)


def v(carrier, coeffs):
    return Var(MonoidElem.from_dict(carrier, coeffs))


class TestAddressing:
    def test_positions_preorder(self):
        t = Sum(Prod(ONE, ZERO), App(ONE))
        paths = [p for p, _ in positions(t)]
        assert paths == [(), (0,), (0, 0), (0, 1), (1,), (1, 0)]

    def test_positions_match_the_recursive_definition(self):
        # gen draws rewrites from this list, so its order fixes seeded cases
        def ref_positions(t):
            out = [((), t)]
            if isinstance(t, (Sum, Prod)):
                out.extend(((0,) + p, s) for p, s in ref_positions(t.left))
                out.extend(((1,) + p, s) for p, s in ref_positions(t.right))
            elif isinstance(t, App):
                out.extend(((0,) + p, s) for p, s in ref_positions(t.body))
            return out

        rng = random.Random(77)
        for _ in range(200):
            carrier = rng.choice((N1, N2, MonomialBasis(N1)))
            a, b, c = (random_term_rng(rng, carrier, 6, 2, 3) for _ in range(3))
            t = Prod(Sum(a, b), App(c))  # every node kind, even when a, b, c are leaves
            got, want = positions(t), ref_positions(t)
            assert got == want
            assert all(a is b for (_, a), (_, b) in zip(got, want))

    def test_positions_of_a_long_chain(self):
        t = parse("+".join(["x[1]"] * 3000), N1)
        start = time.perf_counter()
        out = positions(t)
        assert time.perf_counter() - start < 5
        assert len(out) == 5999
        assert all(subterm_at(t, p) is s for p, s in out[::499])

    def test_rewrite_at_the_bottom_of_a_long_chain(self):
        t = parse("+".join(["x[1]"] * 3000), N1)
        path, leaf = max(positions(t), key=lambda ps: len(ps[0]))
        assert len(path) == 2999
        out = rewrite_step(t, RewriteRule("unit_mul", forward=False), path)
        assert subterm_at(out, path) == Prod(leaf, ONE)
        # every sibling along the path is shared, not copied
        assert all(subterm_at(out, path[:k] + (1 - path[k],))
                   is subterm_at(t, path[:k] + (1 - path[k],)) for k in range(0, 2999, 97))

    def test_term_map_hom_on_a_long_chain(self):
        t = parse("+".join(["x[1]"] * 3000), N1)
        out = term_map_hom(MonoidHom.from_matrix(N1, N2, [[2, 1]]), t)
        assert positions(out)[-1] == ((1,), v(N2, {0: 2, 1: 1}))
        assert normalize(out, N2) == normalize(parse("3000*x[2,1]", N2), N2)

    def test_subterm_at(self):
        t = Sum(Prod(ONE, ZERO), App(v(N1, {0: 1})))
        assert subterm_at(t, (0, 1)) == ZERO
        assert subterm_at(t, (1, 0)) == v(N1, {0: 1})

    def test_subterm_at_bad_path(self):
        # a step is 0 or 1 under a sum or product, and 0 under App
        for t, path in ((ONE, (0,)), (Sum(ONE, ZERO), (7,)), (App(ONE), (1,))):
            with pytest.raises(ValueError):
                subterm_at(t, path)

    def test_rewrite_at_position_replaces_only_there(self):
        t = Sum(Sum(ONE, ZERO), Sum(ONE, ZERO))
        out = rewrite_step(t, RewriteRule("unit_add"), (0,))
        assert out == Sum(ONE, Sum(ONE, ZERO))

    def test_rewrite_bad_path(self):
        for t, path in ((ONE, (1,)), (Sum(ONE, Sum(ONE, ZERO)), (7,))):
            with pytest.raises(ValueError):
                rewrite_step(t, RewriteRule("comm_add"), path)


class TestEquality:
    def test_long_chains_compare_and_hash_without_recursion(self):
        chain = "+".join(["x[1]"] * 3000)
        a, b = parse(chain, N1), parse(chain, N1)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != parse(chain[:-len("x[1]")] + "x[2]", N1)  # the last leaf differs

    def test_is_structural(self):
        x, y = v(N1, {0: 1}), v(N1, {0: 2})
        assert Sum(x, y) == Sum(x, y) and hash(Sum(x, y)) == hash(Sum(x, y))
        for other in (Sum(y, x), Prod(x, y), App(Sum(x, y)), x, ZERO):
            assert Sum(x, y) != other
        assert Zero() == ZERO and One() != ZERO and App(ONE) != App(ZERO)
        assert ONE != 1


class TestRules:
    def test_assoc_add_both_directions(self):
        t = Sum(Sum(ONE, ZERO), ONE)
        fwd = rewrite_step(t, RewriteRule("assoc_add"), ())
        assert fwd == Sum(ONE, Sum(ZERO, ONE))
        assert rewrite_step(fwd, RewriteRule("assoc_add", forward=False), ()) == t

    def test_unit_add_both_directions(self):
        assert rewrite_step(Sum(ONE, ZERO), RewriteRule("unit_add"), ()) == ONE
        assert rewrite_step(ONE, RewriteRule("unit_add", forward=False), ()) \
            == Sum(ONE, ZERO)

    def test_comm_add(self):
        assert rewrite_step(Sum(ONE, ZERO), RewriteRule("comm_add"), ()) \
            == Sum(ZERO, ONE)

    def test_assoc_mul_both_directions(self):
        t = Prod(Prod(ONE, ZERO), ONE)
        fwd = rewrite_step(t, RewriteRule("assoc_mul"), ())
        assert fwd == Prod(ONE, Prod(ZERO, ONE))
        assert rewrite_step(fwd, RewriteRule("assoc_mul", forward=False), ()) == t

    def test_unit_mul_both_directions(self):
        assert rewrite_step(Prod(ZERO, ONE), RewriteRule("unit_mul"), ()) == ZERO
        assert rewrite_step(ZERO, RewriteRule("unit_mul", forward=False), ()) \
            == Prod(ZERO, ONE)

    def test_comm_mul(self):
        assert rewrite_step(Prod(ONE, ZERO), RewriteRule("comm_mul"), ()) \
            == Prod(ZERO, ONE)

    def test_distrib_both_directions(self):
        a, b, c = v(N2, {0: 1}), v(N2, {1: 1}), ONE
        t = Prod(Sum(a, b), c)
        fwd = rewrite_step(t, RewriteRule("distrib"), ())
        assert fwd == Sum(Prod(a, c), Prod(b, c))
        assert rewrite_step(fwd, RewriteRule("distrib", forward=False), ()) == t

    def test_distrib_backward_needs_common_factor(self):
        bad = Sum(Prod(ONE, ZERO), Prod(ONE, ONE))
        with pytest.raises(RuleNotApplicable):
            rewrite_step(bad, RewriteRule("distrib", forward=False), ())

    def test_annihilate_both_directions(self):
        assert rewrite_step(Prod(ZERO, ONE), RewriteRule("annihilate"), ()) == ZERO
        grown = rewrite_step(ZERO, RewriteRule("annihilate", forward=False,
                                               payload=App(ONE)), ())
        assert grown == Prod(ZERO, App(ONE))

    def test_annihilate_backward_needs_payload(self):
        with pytest.raises(RuleNotApplicable):
            rewrite_step(ZERO, RewriteRule("annihilate", forward=False), ())

    def test_var_zero_both_directions(self):
        zero_var = v(N2, {})
        assert rewrite_step(zero_var, RewriteRule("var_zero"), ()) == ZERO
        back = RewriteRule("var_zero", forward=False,
                           payload=MonoidElem.zero(N2))
        assert rewrite_step(ZERO, back, ()) == zero_var

    def test_var_zero_backward_rejects_nonzero_payload(self):
        bad = RewriteRule("var_zero", forward=False,
                          payload=MonoidElem.generator(N2, 0))
        with pytest.raises(RuleNotApplicable):
            rewrite_step(ZERO, bad, ())

    def test_var_add_merges_indices(self):
        t = Sum(v(N1, {0: 1}), v(N1, {0: 1}))
        assert rewrite_step(t, RewriteRule("var_add"), ()) == v(N1, {0: 2})

    def test_var_add_backward_splits(self):
        rule = RewriteRule("var_add", forward=False,
                           payload=MonoidElem.from_dict(N2, {0: 1}))
        out = rewrite_step(v(N2, {0: 2, 1: 1}), rule, ())
        assert out == Sum(v(N2, {0: 1}), v(N2, {0: 1, 1: 1}))

    def test_var_add_backward_rejects_oversized_payload(self):
        rule = RewriteRule("var_add", forward=False,
                           payload=MonoidElem.from_dict(N2, {0: 3}))
        with pytest.raises(RuleNotApplicable):
            rewrite_step(v(N2, {0: 2}), rule, ())

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            rewrite_step(ONE, RewriteRule("noop"), ())

    def test_shape_mismatch_raises(self):
        with pytest.raises(RuleNotApplicable):
            rewrite_step(ONE, RewriteRule("comm_add"), ())


class TestRulesPreserveValue:
    def test_every_example_step_preserves_the_normal_form(self):
        a, b = v(N2, {0: 1}), v(N2, {1: 2})
        cases = (
            (Sum(Sum(a, b), ONE), RewriteRule("assoc_add")),
            (Sum(a, ZERO), RewriteRule("unit_add")),
            (Sum(a, b), RewriteRule("comm_add")),
            (Prod(Prod(a, b), b), RewriteRule("assoc_mul")),
            (Prod(a, ONE), RewriteRule("unit_mul")),
            (Prod(a, b), RewriteRule("comm_mul")),
            (Prod(Sum(a, b), App(a)), RewriteRule("distrib")),
            (Prod(ZERO, App(b)), RewriteRule("annihilate")),
            (v(N2, {}), RewriteRule("var_zero")),
            (Sum(a, b), RewriteRule("var_add")),
            (Sum(a, Sum(b, ONE)), RewriteRule("assoc_add", forward=False)),
            (a, RewriteRule("unit_add", forward=False)),
            (Sum(a, b), RewriteRule("comm_add", forward=False)),
            (Prod(a, Prod(b, b)), RewriteRule("assoc_mul", forward=False)),
            (App(a), RewriteRule("unit_mul", forward=False)),
            (Prod(a, b), RewriteRule("comm_mul", forward=False)),
            (Sum(Prod(a, App(b)), Prod(b, App(b))), RewriteRule("distrib", forward=False)),
            (ZERO, RewriteRule("annihilate", forward=False, payload=App(a))),
            (ZERO, RewriteRule("var_zero", forward=False, payload=MonoidElem.zero(N2))),
            (v(N2, {0: 2, 1: 1}), RewriteRule("var_add", forward=False,
                                              payload=MonoidElem.from_dict(N2, {0: 1}))),
        )
        for term, rule in cases:
            stepped = rewrite_step(term, rule, ())
            assert stepped != term, rule
            assert normalize(stepped, N2) == normalize(term, N2), rule
        # a row added to the rule table needs an example here
        assert {(e.tag, e.forward) for e in RULES} <= {(r.tag, r.forward) for _, r in cases}


class TestTermMapHom:
    def test_maps_variables_and_keeps_structure(self):
        h = MonoidHom.from_matrix(N2, N1, [[2], [3]])
        t = Sum(Prod(v(N2, {0: 1}), App(v(N2, {1: 1}))), ONE)
        out = term_map_hom(h, t)
        assert out == Sum(Prod(v(N1, {0: 2}), App(v(N1, {0: 3}))), ONE)
