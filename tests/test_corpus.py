"""Frozen corpus: canonical outputs of about 500 seeded values, byte for byte.

``tests/data/corpus.jsonl`` holds one JSON line per case: the input text
(plus the hom matrices and carrier element it uses) and what the engine
printed for it when the file was written.  The test reads each input back,
recomputes every output and compares the JSON bytes, so a refactor of the
accumulators, the parser or the printers that changes any canonical answer
fails here.  Inputs are stored as text rather than as generator seeds, so
retuning the random generator does not invalidate the file.

Regenerate the file only when a change is meant to alter canonical output::

    PYTHONPATH=src python tests/test_corpus.py --write
"""

import json
import random
import sys
from pathlib import Path

from rigdiff.carrier import (
    FreeMonoid, MonoidElem, MonoidHom, MonomialBasis, hom_apply, tensor_bimap,
)
from rigdiff.derive import d_n, seeded_derivation
from rigdiff.gen import random_term_rng
from rigdiff.modality import mu, unit
from rigdiff.normal import (
    apply_functor, as_monoid_element, nf_from_monomial,
    nf_to_obj, normalize, render_nf, tensor_to_obj,
)
from rigdiff.terms import Prod, Sum
from rigdiff.text import parse, print_term

CORPUS = Path(__file__).parent / "data" / "corpus.jsonl"

# (rank, number of linear factors) of the dense products, as in the
# benchmark's poly_expand workload; each gets a hom of the paired codomain
# rank.
DENSE_SHAPES = ((2, 2, 4), (2, 2, 6), (2, 3, 4), (3, 2, 4), (3, 3, 3),
                (2, 1, 5), (1, 1, 8), (1, 2, 6))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _collide_rows(rank: int) -> list:
    """Every generator onto the single generator of rank 1, so distinct
    monomials of the same degree land on one output monomial."""
    return [[1] for _ in range(rank)]


def outputs(case: dict) -> dict:
    """Every recorded output of one corpus case, recomputed from its inputs."""
    rank = case["rank"]
    carrier = FreeMonoid(rank)
    p = normalize(parse(case["input"], carrier), carrier)
    rows = case["hom"]
    h = MonoidHom.from_matrix(carrier, FreeMonoid(len(rows[0])), rows)
    collide = MonoidHom.from_matrix(carrier, FreeMonoid(1), _collide_rows(rank))
    level2 = MonomialBasis(carrier)
    v2 = normalize(parse(case["level2_input"], level2), level2)
    elem = MonoidElem.from_dict(carrier, dict(enumerate(case["elem"])))
    out = {
        "render": render_nf(p),
        "obj": nf_to_obj(p),
        "functor": nf_to_obj(apply_functor(h, p)),
        "functor_collide": nf_to_obj(apply_functor(collide, p)),
        "mu_unit": nf_to_obj(mu(unit(as_monoid_element(p)))),
        "level2_render": render_nf(v2),
        "mu_level2": nf_to_obj(mu(v2)),
        "hom_apply": [list(kc) for kc in hom_apply(h, elem).items],
    }
    cod2 = MonomialBasis(h.codomain)
    maps = [(lambda mono: as_monoid_element(
                apply_functor(h, nf_from_monomial(carrier, mono))), (cod2,)),
            (h.image_of, (h.codomain,))]
    for n in (0, 2):
        dp = d_n(p, n)
        out[f"d{n}"] = tensor_to_obj(dp)
        out[f"bimap{n}"] = tensor_to_obj(tensor_bimap(dp, maps))
    if "seed_input" in case:
        seed = normalize(parse(case["seed_input"], carrier), carrier)
        out["seeded"] = nf_to_obj(seeded_derivation(p, seed))
    return out


def _random_inputs(rng: random.Random, i: int) -> dict:
    rank = 1 + i % 3
    carrier = FreeMonoid(rank)
    f_depth = 0 if i % 5 == 0 else 2
    # a*b + c keeps most values non-zero and several monomials long
    a, b, c = (random_term_rng(rng, carrier, 2 + (i + j) % 3, f_depth, 4)
               for j in range(3))
    term = Sum(Prod(a, b), c)
    cod_rank = rng.randint(1, 3)
    level2 = MonomialBasis(carrier)
    case = {
        "rank": rank,
        "input": print_term(term, carrier),
        "hom": [[rng.randint(0, 3) for _ in range(cod_rank)] for _ in range(rank)],
        "level2_input": print_term(random_term_rng(rng, level2, 3, 1, 3), level2),
        "elem": [rng.randint(0, 4) for _ in range(rank)],
    }
    if rank == 1 and f_depth == 0:
        case["seed_input"] = print_term(random_term_rng(rng, carrier, 2, 0, 3), carrier)
    return case


def _dense_inputs(rng: random.Random, rank: int, cod_rank: int, k: int) -> dict:
    def var(coords):
        return "x[" + ",".join(map(str, coords)) + "]"

    factors = [f"({var([rng.randint(1, 3) for _ in range(rank)])}+{rng.randint(1, 3)})"
               for _ in range(k)]
    case = {
        "rank": rank,
        "input": "*".join(factors),
        "hom": [[rng.randint(1, 3) for _ in range(cod_rank)] for _ in range(rank)],
        "level2_input": "y[" + "*".join(factors[:2]) + "]*g(y[" + factors[-1] + "])",
        "elem": [rng.randint(1, 4) for _ in range(rank)],
    }
    if rank == 1:
        case["seed_input"] = f"{var([1])}*{var([1])}+{rng.randint(1, 3)}"
    return case


def generate(count: int = 500) -> list:
    rng = random.Random(2345)
    cases = [_random_inputs(rng, i) for i in range(count - len(DENSE_SHAPES))]
    cases += [_dense_inputs(rng, r, r2, k) for r, r2, k in DENSE_SHAPES]
    for case in cases:
        case["out"] = outputs(case)
    return cases


def _load() -> list:
    with CORPUS.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_corpus_reproduces_byte_for_byte():
    cases = _load()
    assert len(cases) == 500
    for i, case in enumerate(cases):
        got = outputs(case)
        assert sorted(got) == sorted(case["out"]), f"case {i}: output fields differ"
        for field, want in case["out"].items():
            assert _dumps(got[field]) == _dumps(want), f"case {i}: {field} differs"


def test_corpus_file_is_canonical_json():
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    assert lines == [_dumps(case) for case in _load()]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_corpus.py --write")
    CORPUS.parent.mkdir(exist_ok=True)
    with CORPUS.open("w", encoding="utf-8") as fh:
        for case in generate():
            fh.write(_dumps(case) + "\n")
