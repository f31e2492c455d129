"""Command line front end.

Subcommands: ``normalize`` an expression, ``derive`` it with a chosen family
member, ``mu``-collapse a level-2 expression, ``eval`` into a rig of
naturals, and run the ``laws`` suite or the ``distinctness`` check.  An
expression argument of ``-`` reads from stdin.  Each command is declared
once, in ``build_parser``: its subparser sets ``run``, which returns ``(exit
code, result)``, and the result's two views, ``to_obj`` and ``render``.
``main`` alone prints a result: ``--format structured`` emits JSON built
from the canonical order, so equal values print equal bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter

from .carrier import FreeMonoid, MonomialBasis
from .derive import d_n
from .laws import LawReport, SuiteConfig, check_distinctness, check_laws
from .modality import CATALOG, MAX_EVAL_BITS, evaluate, mu, rig_from_term
from .normal import nf_to_obj, normalize, render_nf, tensor_to_obj
from .text import parse, render_tensor

# Decimal digits of the largest natural within MAX_EVAL_BITS.  ``main`` lets
# Python convert ints of this length to and from text (its default stops at
# 4300 digits), so every answer within the bound prints; a longer number in
# any result stops with this printing limit in the message.
_MAX_DIGITS = math.ceil(MAX_EVAL_BITS * math.log10(2))


def _base_flags(sub, levels: bool = True) -> None:
    sub.add_argument("expr", help="expression, or - to read stdin")
    sub.add_argument("--carrier", type=int, default=1, metavar="K",
                     help="rank of the base carrier (default 1)")
    if levels:
        sub.add_argument("--level", type=int, choices=(1, 2), default=1,
                         help="1 for base expressions, 2 for constructed-rig ones")
    sub.add_argument("--format", choices=("text", "structured"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigdiff",
        description="exact arithmetic and derivatives in freely built rigs")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("normalize", help="canonical form of an expression")
    _base_flags(p)
    p.set_defaults(run=lambda a: (0, _read_nf(a)), to_obj=nf_to_obj, render=render_nf)

    p = subs.add_parser("derive", help="apply one derivative family member")
    _base_flags(p)
    p.add_argument("--n", type=int, required=True,
                   help="family index (weight of the unary operation)")
    p.set_defaults(run=lambda a: (0, d_n(_read_nf(a), a.n)),
                   to_obj=tensor_to_obj, render=render_tensor)

    p = subs.add_parser("mu", help="collapse a level-2 expression one level")
    _base_flags(p, levels=False)
    p.set_defaults(level=2, run=lambda a: (0, mu(_read_nf(a))),
                   to_obj=nf_to_obj, render=render_nf)

    p = subs.add_parser("eval", help="evaluate in the naturals (up to %d bits)"
                        % MAX_EVAL_BITS)
    _base_flags(p, levels=False)
    p.add_argument("--target", required=True, metavar="RIG",
                   help="catalog name (%s) or a one-variable expression"
                        % ", ".join(sorted(CATALOG)))
    p.add_argument("--phi", required=True, metavar="LIST",
                   help="comma-separated images of the generators")
    p.set_defaults(level=1, run=_cmd_eval, to_obj=int, render=str)

    p = subs.add_parser("laws", help="run the randomized law suite")
    p.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p.add_argument("--cases", type=int, default=SuiteConfig.cases,
                   help="cases per law; monad_associativity always runs %d"
                        % SuiteConfig.level3_cases)
    p.add_argument("--depth", type=int, default=SuiteConfig.max_depth)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(run=_cmd_laws, to_obj=LawReport.to_obj,
                   render=LawReport.render_text)

    p = subs.add_parser("distinctness",
                        help="evaluate each family member on the witness")
    p.add_argument("--n-values", default=",".join(str(n) for n in range(11)),
                   metavar="LIST")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(run=_cmd_distinctness, to_obj=_pairs_obj, render=_pairs_text)

    return parser


def _read_nf(args):
    """The canonical form of the command's expression, at its level."""
    base = FreeMonoid(args.carrier)
    carrier = MonomialBasis(base) if args.level == 2 else base
    text = sys.stdin.read() if args.expr == "-" else args.expr
    return normalize(parse(text, carrier), carrier)


def _nat_list(text: str) -> list[int]:
    pieces = [piece for piece in text.split(",") if piece.strip() != ""]
    # past _MAX_DIGITS digits int() would raise Python's own message
    if any(sum(map(str.isdigit, piece)) > _MAX_DIGITS for piece in pieces):
        raise ValueError(f"value exceeds {MAX_EVAL_BITS} bits")
    values = [int(piece) for piece in pieces]
    if any(v < 0 for v in values):
        raise ValueError("list entries must be naturals")
    return values


def _cmd_eval(args):
    nf = _read_nf(args)
    images = _nat_list(args.phi)
    if len(images) != args.carrier:
        raise ValueError(f"--phi needs {args.carrier} entries, got {len(images)}")
    rig = CATALOG.get(args.target)
    if rig is None:
        rig_carrier = FreeMonoid(1)
        rig = rig_from_term(parse(args.target, rig_carrier), rig_carrier)
    return 0, evaluate(nf, rig, dict(enumerate(images)))


def _cmd_laws(args):
    cfg = SuiteConfig(seed=args.seed, cases=args.cases, max_depth=args.depth)
    report = check_laws(cfg)
    return (0 if report.ok else 1), report


def _cmd_distinctness(args):
    n_values = _nat_list(args.n_values)
    if not n_values:
        raise ValueError("--n-values needs at least one entry")
    repeated = sorted(n for n, k in Counter(n_values).items() if k > 1)
    if repeated:
        raise ValueError(f"--n-values repeats {', '.join(map(str, repeated))}")
    try:
        return 0, check_distinctness(n_values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None


def _pairs_obj(pairs) -> dict:
    return {"pairs": [[n, v] for n, v in pairs], "distinct": True}


def _pairs_text(pairs) -> str:
    lines = [f"n={n}: {value}" for n, value in pairs]
    return "\n".join(lines + [f"{len(pairs)} values, all distinct"])


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit and max(limit, _MAX_DIGITS))  # 0: no limit
    try:
        code, result = args.run(args)
        if result is not None:
            try:
                text = (json.dumps(args.to_obj(result), indent=2)
                        if args.format == "structured" else args.render(result))
            except ValueError:  # raised here only by int-to-text past the limit
                raise ValueError("a number in the result exceeds the printing limit"
                                 f" of {_MAX_DIGITS} digits") from None
            print(text)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``).  Point stdout at
        # devnull so that the flush at exit cannot fail again, and stop
        # without a traceback, as the SIGPIPE note in Python's docs does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
