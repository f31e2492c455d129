"""Per-call sharing of repeated operation atoms in d_n, evaluate, render_nf,
render_tensor, emit_nf, nf_to_obj, tensor_to_obj, apply_functor and mu, of
generator images in apply_functor, and of repeated factor keys in
tensor_bimap.

The references below are the plain recursive definitions, which handle
every occurrence of an atom again.  The engine handles each distinct
operation argument once per call; on f-dense values both must agree
exactly, and the counting tests show the work is not repeated.

Operation atoms are hash-consed: equal atoms are one object, however and
wherever their values were built, so nested values hash and compare equal
without walking their depth.
"""

import gc
import json
import operator
import random
import sys
import time

import pytest

from rigdiff.carrier import (
    FreeMonoid, MonoidElem, MonoidHom, MonomialBasis, TensorElem, tensor_bimap,
)
from rigdiff.cli import main
from rigdiff.derive import d_n
from rigdiff import normal, terms
from rigdiff.gen import random_term_rng
from rigdiff.modality import CATALOG, RigWithSelfMap, evaluate, mu, unit
from rigdiff.normal import (
    AppAtom, GenAtom, Monomial, apply_functor, as_monoid_element,
    from_monoid_element, mono_mul, nf_add, nf_from_monomial, nf_from_obj, nf_mul,
    nf_scale, nf_selfmap, nf_to_obj, nf_var, normalize, render_nf, tensor_to_obj,
)
from rigdiff.text import emit_nf, parse, render_tensor

N1, N2 = FreeMonoid(1), FreeMonoid(2)
L2 = MonomialBasis(N1)
N_VALUES = (0, 1, 2, 7)
AFFINE = RigWithSelfMap("affine", lambda v: 3 * v + 1)


# --- plain recursive references --------------------------------------------

def ref_d_n(a, n):
    factors = (MonomialBasis(a.carrier), a.carrier)
    acc = {}
    for mono, c in a.items:
        for atom, mult in mono.atom_counts():
            rest = mono.without(atom)
            if isinstance(atom, GenAtom):
                key = (rest, atom.index)
                acc[key] = acc.get(key, 0) + c * mult
            elif n != 0:
                for (part, gen), c2 in ref_d_n(atom.argument, n).items:
                    key = (mono_mul(rest, part), gen)
                    acc[key] = acc.get(key, 0) + c * mult * n * c2
    return TensorElem.from_dict(factors, acc)


def ref_evaluate(a, rig, phi):
    total = 0
    for mono, c in a.items:
        prod = 1
        for atom in mono.atoms:
            if isinstance(atom, GenAtom):
                prod *= phi[atom.index]
            else:
                prod *= rig.selfmap(ref_evaluate(atom.argument, rig, phi))
        total += c * prod
    return total


def ref_monomial(mono, level):
    if not mono.atoms:
        return "1"
    parts = []
    for atom in mono.atoms:
        if isinstance(atom, GenAtom):
            index = atom.index if isinstance(atom.index, int) \
                else ref_monomial(atom.index, level - 1)
            parts.append(f"{normal.var_letter(level)}[{index}]")
        else:
            parts.append(f"{normal.app_letter(level)}({ref_render_nf(atom.argument)})")
    return "*".join(parts)


def ref_render_nf(a):
    if a.is_zero():
        return "0"
    pieces = []
    for m, c in a.items:
        text = ref_monomial(m, a.carrier.level)
        pieces.append(str(c) if not m.atoms else text if c == 1 else f"{c}*{text}")
    return " + ".join(pieces)


def ref_render_tensor(t):
    if t.is_zero():
        return "0"
    pieces = []
    for key, c in t.items:
        parts = " ⊗ ".join(f"e[{k}]" if isinstance(f, FreeMonoid)
                           else ref_monomial(k, f.base.level)
                           for f, k in zip(t.factors, key))
        pieces.append(parts if c == 1 else f"{c}*({parts})")
    return " + ".join(pieces)


def ref_emit_atom(atom, carrier):
    level = carrier.level
    if isinstance(atom, GenAtom):
        if isinstance(carrier, FreeMonoid):
            coords = ",".join("1" if i == atom.index else "0"
                              for i in range(carrier.rank))
            return f"{normal.var_letter(level)}[{coords}]"
        inner = ref_emit_nf(from_monoid_element(
            MonoidElem.generator(carrier, atom.index)))
        return f"{normal.var_letter(level)}[{inner}]"
    return f"{normal.app_letter(level)}({ref_emit_nf(atom.argument)})"


def ref_emit_nf(a):
    pieces = []
    for m, c in a.items:
        text = "*".join(ref_emit_atom(x, a.carrier) for x in m.atoms) or "1"
        pieces.append(text if c == 1 else str(c) if text == "1" else f"{c}*{text}")
    return " + ".join(pieces) or "0"


def ref_atom_to_obj(atom):
    if isinstance(atom, GenAtom):
        if isinstance(atom.index, int):
            return {"gen": atom.index}
        return {"gen": [ref_atom_to_obj(a) for a in atom.index.atoms]}
    return {"app": ref_nf_to_obj(atom.argument)}


def ref_nf_to_obj(a):
    return [{"coeff": c, "atoms": [ref_atom_to_obj(x) for x in m.atoms]}
            for m, c in a.items]


def ref_tensor_to_obj(t):
    return {
        "factors": [str(f) for f in t.factors],
        "items": [{"coeff": c, "key": [k if isinstance(k, int)
                                       else [ref_atom_to_obj(x) for x in k.atoms]
                                       for k in key]}
                  for key, c in t.items],
    }


# --- seeded f-dense values -------------------------------------------------

def f_dense_value(rng, carrier):
    """Random small values, combined so that atoms repeat within monomials,
    across monomials and across nesting depth."""
    pool = [normalize(random_term_rng(rng, carrier, 2, 1, 2), carrier) for _ in range(3)]
    for _ in range(3):
        a, b = rng.choice(pool), rng.choice(pool)
        pool.append(nf_add(nf_mul(nf_selfmap(a), b), nf_selfmap(nf_add(a, b))))
    return pool[-1]


def generator_images(a, phi):
    """An image for every top-level generator of ``a``, arguments included."""
    for mono, _ in a.items:
        for atom in mono.atoms:
            if isinstance(atom, GenAtom):
                phi.setdefault(atom.index, len(phi) % 4 + 1)
            else:
                generator_images(atom.argument, phi)
    return phi


@pytest.mark.parametrize("carrier", [N2, L2], ids=["level1", "level2"])
def test_engine_agrees_with_recursive_references(carrier):
    rng = random.Random(4242)
    for _ in range(200):
        a = f_dense_value(rng, carrier)
        assert a.has_app_atoms()
        assert render_nf(a) == ref_render_nf(a)
        assert emit_nf(a) == ref_emit_nf(a)
        assert nf_to_obj(a) == ref_nf_to_obj(a)
        phi = generator_images(a, {})
        assert evaluate(a, AFFINE, phi) == ref_evaluate(a, AFFINE, phi)
        for n in N_VALUES:
            d = d_n(a, n)
            assert d == ref_d_n(a, n)
            assert render_tensor(d) == ref_render_tensor(d)
            assert tensor_to_obj(d) == ref_tensor_to_obj(d)


# --- the same argument at two levels ---------------------------------------

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_equal_arguments_at_two_levels_keep_their_letters(capsys):
    # f(0) inside the payload is a level-1 atom; g(0) is a level-2 atom with
    # an argument that prints the same.
    assert run(capsys, "normalize", "--level", "2", "y[f(0)] + g(0)") \
        == (0, "y[f(0)] + g(0)\n", "")
    assert run(capsys, "derive", "--level", "2", "--n", "1", "g(0)*y[f(0)]") \
        == (0, "g(0) ⊗ f(0)\n", "")


# --- one computation per distinct argument ---------------------------------

def fpp():
    """f(p)*p with p of 15 monomials: f(p) occurs in every monomial."""
    p = normalize(parse("*".join(["(x[1,0] + x[0,1] + 1)"] * 4), N2), N2)
    assert len(p.items) == 15
    return p, nf_mul(nf_selfmap(p), p)


def test_selfmap_is_called_once_per_distinct_argument():
    p, a = fpp()
    calls = []
    rig = RigWithSelfMap("counting", lambda v: calls.append(v) or v + 1)
    phi = {0: 2, 1: 3}
    assert evaluate(a, rig, phi) == ref_evaluate(a, CATALOG["successor"], phi)
    assert calls == [ref_evaluate(p, CATALOG["identity"], phi)]


def test_argument_is_differentiated_once(monkeypatch):
    p, a = fpp()
    made = []
    from_dict = TensorElem.from_dict
    monkeypatch.setattr(TensorElem, "from_dict", classmethod(
        lambda cls, *args: made.append(args) or from_dict(*args)))
    d_n(a, 2)
    # one tensor for p, one for the whole value
    assert len(made) == 2


def test_argument_is_rendered_once(monkeypatch):
    p, a = fpp()
    letters = {"x": 0, "f": 0}
    var_letter, app_letter = normal.var_letter, normal.app_letter

    def count(letter, fn):
        def counted(level):
            letters[letter] += 1
            return fn(level)
        return counted

    monkeypatch.setattr(normal, "var_letter", count("x", var_letter))
    monkeypatch.setattr(normal, "app_letter", count("f", app_letter))
    render_nf(a)
    generators = sum(m.degree for m, _ in p.items)
    # p's generators are spelled once inside f(p) and once in the cofactors
    assert letters == {"x": 2 * generators, "f": 1}
    d = d_n(a, 1)
    letters.update(f=0)
    render_tensor(d)
    assert letters["f"] == 1
    letters.update(x=0, f=0)
    emit_nf(a)
    assert letters == {"x": 2 * generators, "f": 1}


def test_argument_object_is_shared():
    p, a = fpp()
    apps = [x for entry in nf_to_obj(a) for x in entry["atoms"] if "app" in x]
    assert len(apps) == len(p.items) and all(x is apps[0] for x in apps)
    keys = [part for item in tensor_to_obj(d_n(a, 0))["items"]
            for part in item["key"][0] if "app" in part]
    assert len(keys) > 1 and all(x is keys[0] for x in keys)


def test_walks_leave_no_reference_cycles():
    # A memo that its own compute function refers to, or a nested walker
    # that calls itself, would make a cycle, and each call's memo and
    # intermediate results would then wait for the cyclic collector.
    p, a = fpp()
    h = MonoidHom.from_matrix(N2, N2, [[1, 2], [0, 1]])
    d = d_n(a, 1)
    term = parse("f(f(x[1,0] + 1) * x[0,1]) * f(x[1,0] + 1)", N2)
    calls = (lambda: normalize(term, N2), lambda: nf_selfmap(a),
             lambda: d_n(a, 1), lambda: evaluate(a, AFFINE, {0: 2, 1: 3}),
             lambda: render_nf(a), lambda: emit_nf(a), lambda: render_tensor(d),
             lambda: nf_to_obj(a), lambda: tensor_to_obj(d),
             lambda: apply_functor(h, a), lambda: mu(unit(as_monoid_element(a))))
    gc.collect()
    gc.disable()
    try:
        found = []
        for call in calls:
            call()
            found.append(gc.collect())
        assert found == [0] * len(calls)
    finally:
        gc.enable()


def counting_hom(h, calls):
    return MonoidHom(h.domain, h.codomain,
                     lambda k: calls.append(k) or h.image_of(k))


def test_image_of_runs_once_per_distinct_generator():
    p, a = fpp()
    h = MonoidHom.from_matrix(N2, N2, [[1, 2], [0, 1]])
    for value in (p, a):  # in a, p's generators occur inside f(p) and outside
        calls = []
        assert apply_functor(counting_hom(h, calls), value) == apply_functor(h, value)
        assert sorted(calls) == [0, 1]


def test_tensor_bimap_calls_each_factor_map_once_per_distinct_key():
    p, _ = fpp()
    h = MonoidHom.from_matrix(N2, N2, [[1, 2], [0, 1]])
    seen = {0: [], 1: []}

    def map_monomial(mono):
        seen[0].append(mono)
        return as_monoid_element(apply_functor(h, nf_from_monomial(N2, mono)))

    def map_generator(k):
        seen[1].append(k)
        return h.image_of(k)

    d = d_n(p, 1)
    out = tensor_bimap(d, [(map_monomial, (MonomialBasis(N2),)), (map_generator, (N2,))])
    assert out == d_n(apply_functor(h, p), 1)
    for pos in (0, 1):
        assert len(seen[pos]) == len({key[pos] for key, _ in d.items})
    assert len(seen[0]) < len(d.items)


# --- nesting depth costs no recursion --------------------------------------

def obj_tower(atoms):
    """The number of nested one-atom "app" levels in structured atoms, and
    the atoms at the bottom, found without recursion."""
    depth = 0
    while "app" in atoms[0]:
        [atom] = atoms
        [entry] = atom["app"]
        atoms, depth = entry["atoms"], depth + 1
    return depth, atoms


def test_deep_towers_built_through_the_api():
    depth = 2000
    x = nf_var(MonoidElem.generator(N1, 0))
    v = x
    for _ in range(depth):
        v = nf_selfmap(v)
    start = time.perf_counter()
    assert evaluate(v, CATALOG["successor"], {0: 5}) == depth + 5
    assert d_n(v, 2) == TensorElem.from_dict((L2, N1), {(Monomial(()), 0): 2 ** depth})
    text = "f(" * depth + "x[0]" + ")" * depth
    assert render_nf(v) == text
    assert render_tensor(d_n(nf_mul(v, x), 0)) == text + " ⊗ e[0]"
    assert emit_nf(v) == text.replace("x[0]", "x[1]")
    [entry] = nf_to_obj(v)
    [[key, gen]] = [item["key"] for item in tensor_to_obj(d_n(nf_mul(v, x), 0))["items"]]
    assert gen == 0
    assert obj_tower(entry["atoms"]) == obj_tower(key) == (depth, [{"gen": 0}])
    assert time.perf_counter() - start < 5
    term = terms.Var(MonoidElem.generator(N1, 0))
    for _ in range(depth):
        term = terms.App(term)
    start = time.perf_counter()
    assert render_nf(normalize(term, N1)) == text
    assert time.perf_counter() - start < 5
    lifted = unit(as_monoid_element(x))
    for _ in range(depth):
        lifted = nf_selfmap(lifted)
    double = MonoidHom.from_matrix(N1, N1, [[2]])
    start = time.perf_counter()
    assert render_nf(apply_functor(double, v)) == text.replace("x[0]", "2*x[0]")
    assert mu(unit(as_monoid_element(v))) == v
    assert mu(lifted) == v  # lifted is g(g(...y[x[0]]...))
    assert time.perf_counter() - start < 5


# --- hash-consed operation atoms -------------------------------------------

def app_atoms(a):
    """Every operation atom of a value, nested ones included, in a fixed
    order, found without recursion."""
    found, stack = [], [a]
    while stack:
        v = stack.pop()
        for m, _ in v.items:
            for x in m.atoms:
                if isinstance(x, AppAtom):
                    found.append(x)
                    stack.append(x.argument)
    return found


def assert_one_object_per_atom(a, b):
    """a and b are equal values built separately: the same atoms, as objects."""
    assert a == b and hash(a) == hash(b)
    atoms = app_atoms(a)
    assert atoms and len(atoms) == len(app_atoms(b))
    assert all(x is y for x, y in zip(atoms, app_atoms(b)))


def test_equal_arguments_make_one_atom():
    a = normalize(parse("x[1,0] * f(x[0,1] + 1) + 2", N2), N2)
    b = nf_add(nf_mul(nf_var(MonoidElem.generator(N2, 0)), nf_selfmap(nf_add(
        nf_var(MonoidElem.generator(N2, 1)), normalize(terms.ONE, N2)))),
        normalize(parse("2", N2), N2))
    assert a is not b
    assert AppAtom(a) is AppAtom(b)
    assert_one_object_per_atom(a, b)
    a2 = normalize(parse("y[x[1]*f(x[1])] * g(y[f(x[1])] + 1)", L2), L2)
    b2 = normalize(parse("g(1 + y[f(x[1])]) * y[f(x[1])*x[1]]", L2), L2)
    assert AppAtom(a2) is AppAtom(b2)
    assert_one_object_per_atom(a2, b2)
    # a level-2 generator key holds level-1 atoms, shared as well
    [(m, _)] = a2.items
    [gen] = [x for x in m.atoms if isinstance(x, GenAtom)]
    assert gen.index.atoms[-1] is AppAtom(normalize(parse("x[1]", N1), N1))


@pytest.mark.parametrize("carrier", [N2, L2], ids=["level1", "level2"])
def test_separately_built_values_share_their_atoms(carrier):
    for seed in range(50):
        a = f_dense_value(random.Random(seed), carrier)
        b = f_dense_value(random.Random(seed), carrier)
        assert a is not b
        assert_one_object_per_atom(a, b)
        assert_one_object_per_atom(a, nf_from_obj(carrier, json.loads(json.dumps(nf_to_obj(a)))))


def test_apply_functor_and_mu_build_shared_atoms():
    h = MonoidHom.from_matrix(N2, N2, [[1, 2], [0, 1]])
    for seed in range(50):
        a = f_dense_value(random.Random(seed), N2)
        assert_one_object_per_atom(apply_functor(h, a),
                                   apply_functor(h, f_dense_value(random.Random(seed), N2)))
        assert_one_object_per_atom(mu(unit(as_monoid_element(a))), a)
        # level-2 operation atoms collapse into level-1 ones built by mu
        assert_one_object_per_atom(mu(f_dense_value(random.Random(seed), L2)),
                                   mu(f_dense_value(random.Random(seed), L2)))


def api_tower(depth):
    v = nf_var(MonoidElem.generator(N1, 0))
    for _ in range(depth):
        v = nf_selfmap(v)
    return v


def test_separately_built_deep_towers_are_equal():
    depth = 2000
    v, w = api_tower(depth), api_tower(depth)
    assert v is not w and v == w and hash(v) == hash(w)
    assert {v: 1}[w] == 1
    limit = sys.getrecursionlimit()
    # json's C encoder counts its nested containers against the recursion
    # limit: four per level of the tower
    sys.setrecursionlimit(limit + 5 * depth)
    try:
        assert json.dumps(nf_to_obj(v)) == json.dumps(nf_to_obj(w))
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("depth", [200, 1000])
def test_unequal_deep_towers_compare_without_recursion(depth):
    # The towers differ only at the bottom; unequal hashes end the
    # comparison before the nested keys are walked.
    v, w = api_tower(depth), nf_scale(api_tower(0), 2)
    for _ in range(depth):
        w = nf_selfmap(w)
    assert not v == w and v != w


def test_deep_tower_builds_in_linear_time():
    # Each level hashes its argument once, in constant time; a hash that
    # walked the whole argument would make this build quadratic.
    start = time.perf_counter()
    v = api_tower(8000)
    assert hash(v) == hash(api_tower(8000))
    assert time.perf_counter() - start < 1


def test_intern_table_forgets_dropped_atoms():
    # The table refers to its atoms weakly, and an entry leaves with its
    # atom when the atom's last value is freed: no collector run is needed.
    before = len(normal._app_atoms)
    gc.disable()
    try:
        p, a = fpp()
        v, d = api_tower(100), d_n(a, 1)
        assert render_tensor(d) and mu(unit(as_monoid_element(a))) == a
        assert len(normal._app_atoms) > before
        del p, a, v, d
        assert len(normal._app_atoms) == before
    finally:
        gc.enable()


def ref_key(x):
    """The plain nested key of an atom, a monomial or a value, built anew
    by recursion: what the engine's keys must sort like."""
    if isinstance(x, GenAtom):
        return (0, x.index if isinstance(x.index, int) else ref_key(x.index))
    if isinstance(x, AppAtom):
        return (1, ref_key(x.argument))
    if isinstance(x, Monomial):
        return (len(x.atoms), tuple(map(ref_key, x.atoms)))
    return tuple((ref_key(m), c) for m, c in x.items)


@pytest.mark.parametrize("carrier", [N2, L2], ids=["level1", "level2"])
def test_keys_sort_like_plain_nested_keys(carrier):
    rng = random.Random(2468)
    order_key = operator.attrgetter("order_key")
    for _ in range(200):
        a = f_dense_value(rng, carrier)
        values = [a] + [x.argument for x in app_atoms(a)]
        monos = list({m for v in values for m, _ in v.items})
        atoms = list({x for m in monos for x in m.atoms})
        for m in monos:
            assert list(m.atoms) == sorted(m.atoms, key=ref_key)
        for objs in (monos, atoms):
            rng.shuffle(objs)
            assert sorted(objs, key=order_key) == sorted(objs, key=ref_key)
