"""Per-call sharing of repeated operation atoms in d_n, evaluate, render_nf,
render_tensor, emit_nf, nf_to_obj, tensor_to_obj, apply_functor and mu, of
generator images in apply_functor, and of repeated factor keys in
tensor_bimap; apply_functor also shares its images across consecutive calls
with one hom.

The references below are the plain recursive definitions, which handle
every occurrence of an atom again.  The engine handles each distinct
operation argument once per call; on f-dense values both must agree
exactly, and the counting tests show the work is not repeated.

Operation atoms are hash-consed: equal atoms are one object, however and
wherever their values were built, so nested values hash and compare equal
without walking their depth.
"""

import functools
import gc
import json
import operator
import random
import sys
import time
import weakref

import pytest

from rigdiff.carrier import (
    FreeMonoid, MonoidElem, MonoidHom, MonomialBasis, TensorElem, tensor_bimap,
)
from rigdiff.cli import main
from rigdiff.derive import d_n
from rigdiff import derive, normal, terms
from rigdiff.gen import random_term_rng
from rigdiff.modality import CATALOG, RigWithSelfMap, evaluate, mu, unit
from rigdiff.normal import (
    AppAtom, GenAtom, Monomial, NormalForm, apply_functor, as_monoid_element,
    from_monoid_element, mono_mul, nf_add, nf_from_monomial, nf_from_obj,
    nf_mul, nf_scale, nf_selfmap, nf_to_obj, nf_var, normalize, render_nf,
    tensor_to_obj,
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
            parts.append(f"{'xyz'[level - 1]}[{index}]")
        else:
            parts.append(f"{'fgh'[level - 1]}({ref_render_nf(atom.argument)})")
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
            return f"{'xyz'[level - 1]}[{coords}]"
        inner = ref_emit_nf(from_monoid_element(
            MonoidElem.generator(carrier, atom.index)))
        return f"{'xyz'[level - 1]}[{inner}]"
    return f"{'fgh'[level - 1]}({ref_emit_nf(atom.argument)})"


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


def ref_extension(a, codomain, gen_value):
    """The rig map that sends generator k to ``gen_value(k)``: each monomial
    multiplied out atom by atom with ``mono_mul``, each argument mapped
    again at every occurrence."""
    acc = {}
    for mono, c in a.items:
        terms = {Monomial(()): c}
        for atom in mono.atoms:
            if isinstance(atom, GenAtom):
                img = gen_value(atom.index)
            else:
                img = nf_selfmap(ref_extension(atom.argument, codomain, gen_value))
            product = {}
            for m1, c1 in terms.items():
                for m2, c2 in img.items:
                    m = mono_mul(m1, m2)
                    product[m] = product.get(m, 0) + c1 * c2
            terms = product
        for m, c1 in terms.items():
            acc[m] = acc.get(m, 0) + c1
    return NormalForm.from_dict(codomain, acc)


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


def lifted_hom(h):
    """h one level up: a hom between the monomial-basis carriers."""
    return MonoidHom(MonomialBasis(h.domain), MonomialBasis(h.codomain),
                     lambda m: as_monoid_element(apply_functor(h, nf_from_monomial(h.domain, m))))


def squared(a):
    """a*a + 2*a: exponents and coefficients above 1."""
    return nf_add(nf_mul(a, a), nf_scale(a, 2))


def test_apply_functor_and_mu_agree_with_recursive_references():
    rng = random.Random(4343)
    h = MonoidHom.from_matrix(N2, FreeMonoid(3), [[1, 2, 0], [0, 1, 3]])
    level2, level3 = MonomialBasis(N2), MonomialBasis(MonomialBasis(N2))
    seen = set()
    for _ in range(30):
        a = squared(f_dense_value(rng, N2))
        # level-2 generators named by a's monomials, two to a monomial, so
        # that images with f atoms and powers multiply each other
        y = unit(as_monoid_element(a))
        for hom, v in ((h, a), (lifted_hom(h), squared(f_dense_value(rng, level2))),
                       (None, nf_mul(y, nf_add(y, f_dense_value(rng, level2)))),
                       (None, squared(f_dense_value(rng, level3)))):
            for m, c in v.items:
                seen.update((v.carrier.level, shape) for shape, present in (
                    ("f", any(isinstance(x, AppAtom) for x in m.atoms)),
                    ("exponent > 1", any(n > 1 for _, n in m.atom_counts())),
                    ("coefficient > 1", c > 1)) if present)
            if hom is not None:
                assert apply_functor(hom, v) == ref_extension(
                    v, hom.codomain, lambda k: nf_var(hom.image_of(k)))
            if v.carrier.level > 1:
                base = v.carrier.base
                assert mu(v) == ref_extension(v, base, lambda m: nf_from_monomial(base, m))
    assert len(seen) == 9  # each shape at each level


def test_operation_free_images_build_each_monomial_once(monkeypatch):
    p, _ = fpp()
    # generator images with no monomial in common: x0 + 2*x1 and 3*x2
    h = MonoidHom.from_matrix(N2, FreeMonoid(3), [[1, 2, 0], [0, 0, 3]])
    products, built = [], []
    monkeypatch.setattr(normal, "mono_mul", lambda *args: products.append(args) or mono_mul(*args))
    build = normal._sorted_monomial
    monkeypatch.setattr(normal, "_sorted_monomial",
                        lambda *args: built.append(build(*args)) or built[-1])
    q = apply_functor(h, p)
    assert len(q.items) == 35 and not products
    # every monomial of h(p) but 1, the images' three included, each built
    # once from its packed key
    assert sorted(map(id, built)) == sorted(id(m) for m, _ in q.items if m.atoms)
    built.clear()
    parts = [apply_functor(h, nf_from_monomial(N2, mono)) for mono, _ in p.items]
    assert not built and not products
    objects = {id(m) for m, _ in q.items}
    assert all(id(m) in objects for part in parts for m, _ in part.items)


def count_monomials(monkeypatch):
    """A list that grows by one per monomial built, by the constructor or
    from sorted atoms."""
    built = []
    init, build = Monomial.__init__, normal._sorted_monomial
    monkeypatch.setattr(Monomial, "__init__",
                        lambda self, atoms: built.append(1) or init(self, atoms))
    monkeypatch.setattr(normal, "_sorted_monomial",
                        lambda *args: built.append(1) or build(*args))
    return built


def test_mu_of_a_unit_returns_the_monomials_it_names(monkeypatch):
    p, a = fpp()
    lifted = [unit(as_monoid_element(v)) for v in (p, a)]
    built = count_monomials(monkeypatch)
    for v, y in zip((p, a), lifted):
        out = mu(y)
        assert out == v and not built
        assert all(m is n for (m, _), (n, _) in zip(out.items, v.items))


@pytest.mark.parametrize("k", [2000, 8000])
def test_mu_collapses_a_monomial_with_one_sort(monkeypatch, k):
    # y[m]^k for a 20-atom m is m^k: one monomial of 20*k atoms, built with
    # one sort, where a chain of k products would copy the atoms so far k
    # times
    p, _ = fpp()
    x0, x1, fp = GenAtom(0), GenAtom(1), AppAtom(p)
    m = Monomial([x1] * 10 + [fp] * 2 + [x0] * 8)
    y = NormalForm(MonomialBasis(N2), ((Monomial([GenAtom(m)] * k), 3),))
    built = count_monomials(monkeypatch)
    [(out, c)] = mu(y).items
    assert built == [1] and c == 3
    assert out.atom_counts() == [(x0, 8 * k), (x1, 10 * k), (fp, 2 * k)]


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
    differentiated = []
    inner = derive._d_n
    monkeypatch.setattr(derive, "_d_n",
                        lambda v, *args: differentiated.append(v) or inner(v, *args))
    d_n(a, 2)
    # the whole value, and inside it p once, at its first occurrence
    assert differentiated == [a, p]


def test_each_rest_meets_each_distinct_monomial_once(monkeypatch):
    p, a = fpp()
    calls = []
    monkeypatch.setattr(derive, "mono_mul",
                        lambda *args: calls.append(1) or mono_mul(*args))
    d = d_n(a, 1)
    parts = {part for (part, _), _ in d_n(p, 1).items}
    assert len(parts) == 10 and len(d_n(p, 1).items) == 20
    # a's 15 rests times d(p)'s 10 distinct monomials, not its 20 items
    assert len(calls) == len(a.items) * len(parts) == 150
    assert d == ref_d_n(a, 1)


def test_argument_is_rendered_once(monkeypatch):
    p, a = fpp()
    letters = {"x": 0, "f": 0}
    letter = normal._letter

    def counted(table, level, parseable):
        letters[table[0]] += 1
        return letter(table, level, parseable)

    monkeypatch.setattr(normal, "_letter", counted)
    render_nf(a)
    # a monomial looks its letter up once: p's inside f(p), then each of a's
    monomials = sum(1 for m, _ in p.items if m.atoms) + len(a.items)
    assert letters == {"x": monomials, "f": 1}
    d = d_n(a, 1)
    letters.update(f=0)
    render_tensor(d)
    assert letters["f"] == 1
    letters.update(x=0, f=0)
    emit_nf(a)
    assert letters == {"x": monomials, "f": 1}


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
             lambda: apply_functor(h, a), lambda: apply_functor(h, nf_mul(a, a)),
             lambda: mu(unit(as_monoid_element(a))))
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
        counting = counting_hom(h, calls)
        # two consecutive calls with one hom share its generator images
        first = apply_functor(counting, value)
        second = apply_functor(counting, nf_mul(value, value))
        assert first == apply_functor(h, value)
        assert second == apply_functor(h, nf_mul(value, value))
        assert sorted(calls) == [0, 1]


def test_consecutive_calls_with_one_hom_share_their_products(monkeypatch):
    p, _ = fpp()
    h = MonoidHom.from_matrix(N2, N2, [[1, 2], [0, 1]])
    calls = []
    product = normal._packed_mul
    monkeypatch.setattr(normal, "_packed_mul",
                        lambda *args: calls.append(1) or product(*args))
    whole = apply_functor(h, p)
    # one product per distinct prefix; a one-atom prefix's is its atom's image
    prefixes = {m.atoms[:i] for m, _ in p.items for i in range(2, len(m.atoms) + 1)}
    assert len(calls) == len(prefixes) == len(p.items) - 3
    parts = [apply_functor(h, nf_from_monomial(N2, mono)) for mono, _ in p.items]
    assert len(calls) == len(prefixes)  # every image is already in the trie
    total = functools.reduce(nf_add, (nf_scale(v, c) for v, (_, c) in zip(parts, p.items)))
    assert total == whole


def test_a_call_with_another_hom_frees_the_last_one():
    _, a = fpp()
    plain = nf_var(MonoidElem.generator(N2, 0))
    apply_functor(MonoidHom.identity(N2), plain)  # no operation atoms cached
    before = len(normal._app_atoms)
    h = MonoidHom.from_matrix(N2, N2, [[1, 2], [0, 1]])
    ref = weakref.ref(h)
    gc.collect()
    gc.disable()
    try:
        apply_functor(h, a)  # builds f(h(p)), which only h's trie holds
        del h
        assert ref() is not None and len(normal._app_atoms) == before + 1
        apply_functor(MonoidHom.identity(N2), plain)
        assert ref() is None and len(normal._app_atoms) == before
    finally:
        gc.enable()


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


def test_operation_atoms_never_widen_packed_ints(monkeypatch):
    # A product in the rig-map trie adds the ints of two packed keys, which
    # hold one exponent field per generator; operation atoms sit in a tuple
    # beside the int.  So on a tower v <- f(v)*x + x every int stays one
    # field wide, and mapping the tower is linear in its depth.
    depth = 3000
    x = nf_var(MonoidElem.generator(N1, 0))
    y = unit(as_monoid_element(x))
    v, w, u = x, nf_scale(x, 2), y
    for _ in range(depth):
        v = nf_add(nf_mul(nf_selfmap(v), x), x)
        w = nf_add(nf_mul(nf_selfmap(w), nf_scale(x, 2)), nf_scale(x, 2))
        u = nf_add(nf_mul(nf_selfmap(u), y), y)  # g(...) * y[x[0]] + y[x[0]]
    widths = []
    product = normal._packed_mul

    def recording(a, b):
        out = product(a, b)
        widths.extend(e.bit_length() for e, _ in out)
        return out

    monkeypatch.setattr(normal, "_packed_mul", recording)
    assert apply_functor(MonoidHom.from_matrix(N1, N1, [[2]]), v) == w
    assert mu(u) == v
    # one product per level, for the prefix x*f(...); mu packs no keys
    assert len(widths) == depth and max(widths) <= normal._FIELD


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


def tower(depth, bottom):
    v = bottom
    for _ in range(depth):
        v = nf_selfmap(v)
    return v


@pytest.mark.parametrize("depth", [200, 1000])
def test_different_deep_towers_add_multiply_and_derive(depth):
    # The towers differ only at the bottom, and each value's key is a few
    # tuple levels deep: sorting them walks no shared prefix.
    x1 = nf_var(MonoidElem.generator(N2, 1))
    v, w = tower(depth, x1), tower(depth, nf_scale(x1, 2))
    [(mv, _)], [(mw, _)] = v.items, w.items
    text_v = "f(" * depth + "x[1]" + ")" * depth
    text_w = text_v.replace("x[1]", "2*x[1]")
    total, prod = nf_add(v, w), nf_mul(v, w)
    assert total.items == ((mv, 1), (mw, 1)) and nf_add(w, v) == total
    assert prod.items == ((mono_mul(mv, mw), 1),) and nf_mul(w, v) == prod
    assert render_nf(total) == f"{text_v} + {text_w}"
    assert render_nf(prod) == f"{text_v}*{text_w}"
    # d_1(v*w) = w ⊗ d_1(x[1]) + v ⊗ d_1(2*x[1])
    assert d_n(prod, 1).items == (((mv, 1), 2), ((mw, 1), 1))
    phi = {0: 0, 1: 5}
    assert evaluate(total, CATALOG["successor"], phi) == 2 * depth + 15
    assert evaluate(prod, CATALOG["successor"], phi) == (depth + 5) * (depth + 10)


def test_deep_tower_builds_in_linear_time():
    # Each level hashes its argument once, in constant time; a hash that
    # walked the whole argument would make this build quadratic.
    start = time.perf_counter()
    v = api_tower(8000)
    assert hash(v) == hash(api_tower(8000))
    assert time.perf_counter() - start < 1


def table_sizes():
    """The intern table's entries and the label tables' rows."""
    return len(normal._app_atoms), sum(len(keys) for keys, _, _ in normal._labels.values())


def test_intern_table_forgets_dropped_atoms():
    # The tables refer to their atoms weakly, and an entry and a label row
    # leave with their atom when its last value is freed: no collector run
    # is needed.
    before = table_sizes()
    gc.disable()
    try:
        p, a = fpp()
        v, d = api_tower(100), d_n(a, 1)
        assert render_tensor(d) and mu(unit(as_monoid_element(a))) == a
        entries, rows = table_sizes()
        assert entries > before[0] and rows - before[1] == entries - before[0]
        del p, a, v, d
        assert table_sizes() == before
    finally:
        gc.enable()


def test_a_dead_atom_spares_an_equal_atom_made_before_its_callback():
    # The collector clears every weak reference into its garbage before it
    # runs any callback, so the probe's callback may make f(arg) again
    # while the old atom's entry and label row are still in the tables.
    class Holder:
        pass

    arg = nf_scale(nf_var(MonoidElem.generator(N2, 1)), 4321)
    before = table_sizes()
    holder, made = Holder(), []
    holder.cycle, holder.atom = holder, AppAtom(arg)
    probe = weakref.ref(holder, lambda _: made.append(AppAtom(arg)))
    del holder
    gc.collect()
    assert probe() is None
    [atom] = made
    assert AppAtom(arg) is atom and normal._app_atoms[arg]() is atom
    assert table_sizes() == (before[0] + 1, before[1] + 1)
    del made, atom
    assert table_sizes() == before


def test_atoms_over_different_carriers_differ():
    # Each carrier labels its own atoms; the labels of two carriers differ.
    v = nf_selfmap(nf_var(MonoidElem.generator(N1, 0)))
    w = nf_selfmap(nf_var(MonoidElem.generator(N2, 1)))
    [(mv, _)], [(mw, _)] = v.items, w.items
    assert mv.atoms[0] != mw.atoms[0] and mv != mw and v != w


def test_labels_never_run_out():
    # Each atom lands in the gap that the two before it left.
    x1 = nf_var(MonoidElem.generator(N2, 1))
    ks = [k for pair in zip(range(1, 501), range(1000, 500, -1)) for k in pair]
    atoms = [AppAtom(nf_scale(x1, k)) for k in ks]
    by_label = sorted(atoms, key=operator.attrgetter("order_key"))
    assert by_label == sorted(atoms, key=ref_key)
    assert [x.argument.items[0][1] for x in by_label] == list(range(1, 1001))


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


@pytest.mark.parametrize("carrier", [N2, L2, MonomialBasis(L2)],
                         ids=["level1", "level2", "level3"])
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
