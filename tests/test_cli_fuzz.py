"""Seeded fuzz gate for the command line: every input ends cleanly.

About a thousand grammar-directed expressions, some mutated (truncated, a
slice duplicated, nested in up to ``MAX_NESTING + 10`` levels of ``f(``, a
stray character inserted), go through ``normalize``, ``derive``, ``mu`` and
``eval`` in both formats and at both levels, plus a few ``laws`` and
``distinctness`` flag values.  ``FIXED_ROWS`` follow the seeded draws:
``eval`` on products of large values and a repeated ``--n-values`` entry,
which the draws (small ``--phi`` only) never reach.  Each input must exit 0
or 2 within a time bound and print no traceback, and the ``RecursionError``
fallback in ``cli.main`` must never fire.  The batch runs in a child process
with capped memory and a wall-clock timeout, calling ``main`` in process for
each input.

``test_outcomes_are_frozen`` pins what a user sees: a SHA-256 digest over
(argv, exit code, stdout, stderr) of every input of a seed-3 batch, with the
``laws`` timings (the text seconds column and the structured ``"seconds"``
fields) removed.  A refactor of ``cli.py`` that changes no output keeps it.

Run the batch by hand (it prints a JSON summary, and exits 1 when an input
is bad or met the recursion limit)::

    PYTHONPATH=src python tests/test_cli_fuzz.py SEED COUNT
"""

import contextlib
import hashlib
import io
import json
import random
import re
import signal
import sys
import time

from test_cli import child_run

SEED, COUNT = 1, 1000
DIGEST_SEED, DIGEST_COUNT = 3, 400
OUTCOMES_DIGEST = "fc32a7890657c198a7844970d38c554171c0dbcf7e2bed417bc15e76b30fb058"
# The seconds column of a law row in text and every structured "seconds".
LAW_TIMINGS = re.compile(r"  +[0-9.]+$|\"seconds\": [0-9.e-]+", re.M)
PER_INPUT_SECONDS = 5
CATALOG_TARGETS = ("identity", "successor", "square", "double", "const-one",
                   "const-zero")
# Flag values for the suite commands.  A failing law or two coinciding
# family members exit 1 by design, so none of these runs may reach either.
FLAG_RUNS = (
    ["laws", "--cases", "2"],
    ["laws", "--cases", "-1"],
    ["laws", "--cases", "1", "--depth", "-1"],
    ["laws", "--cases", "2", "--depth", "0"],
    ["laws", "--cases", "0", "--seed", "7", "--format", "structured"],
    ["distinctness", "--n-values", "1,x"],
    ["distinctness", "--n-values", ""],
    ["distinctness", "--n-values", "3,1,4", "--format", "structured"],
    ["distinctness", "--n-values", "-1"],
)
# Appended after the draws, which they leave unchanged: a 4212-bit --phi
# through 3000 factors of an f atom, through a 3000-factor target, and
# through 20 factors beside a zero one; and a repeated family index.
BIG_PHI = str(3 ** 2657)
FIXED_ROWS = (
    ["eval", "--target", "identity", "--phi", BIG_PHI, "*".join(["f(x[1])"] * 3000)],
    ["eval", "--target", "*".join(["x[1]"] * 3000), "--phi", BIG_PHI, "f(x[1])"],
    ["eval", "--target", "const-zero", "--phi", BIG_PHI, "x[1]*" * 20 + "f(x[1])"],
    ["distinctness", "--n-values", "1,1"],
)


def _leaf(rng, rank, level):
    r = rng.random()
    if r < 0.25:
        return str(rng.randint(0, 9))
    if r < 0.3:  # a long literal
        return str(rng.getrandbits(rng.choice((40, 200, 700))))
    letter = rng.choice("xyz")
    if level == 2:
        return f"{letter}[{_expr(rng, rank, 1, 2)}]"
    width = rank if rng.random() < 0.9 else rng.randint(0, 4)
    return f"{letter}[{','.join(str(rng.randint(0, 3)) for _ in range(width))}]"


def _expr(rng, rank, level, depth):
    if depth <= 0 or rng.random() < 0.3:
        return _leaf(rng, rank, level)
    kind = rng.randrange(4)
    if kind == 0:
        return f"{_expr(rng, rank, level, depth - 1)}+{_expr(rng, rank, level, depth - 1)}"
    if kind == 1:
        return f"{_expr(rng, rank, level, depth - 1)}*{_expr(rng, rank, level, depth - 1)}"
    if kind == 2:
        return f"{rng.choice('fgh')}({_expr(rng, rank, level, depth - 1)})"
    return f"({_expr(rng, rank, level, depth - 1)})"


def _mutate(rng, text, max_nesting):
    kind = rng.choice(("truncate", "duplicate", "nest", "nest", "stray"))
    if kind == "truncate":
        return text[:rng.randrange(len(text) + 1)]
    if kind == "duplicate":
        i = rng.randrange(len(text) + 1)
        j = rng.randrange(i, len(text) + 1)
        return text[:j] + text[i:j] + text[j:]
    if kind == "nest":
        k = rng.randint(1, max_nesting + 10)
        return "f(" * k + text + ")" * k
    i = rng.randrange(len(text) + 1)
    return text[:i] + rng.choice("-!#$%&{}<>?;:.=~'\"\t\n é²") + text[i:]


def inputs(seed, count, max_nesting):
    """(argv) for each input of the batch, drawn from ``seed``."""
    rng = random.Random(seed)
    batch = []
    for _ in range(count - len(FLAG_RUNS)):
        command = rng.choice(("normalize", "derive", "mu", "eval"))
        rank = rng.randint(0, 3) if command != "mu" else rng.randint(1, 2)
        level = 2 if command == "mu" else rng.choice((1, 1, 2))
        if command == "eval":
            level = 1
        text = _expr(rng, rank, level, rng.randint(0, 4))
        while rng.random() < 0.5:
            text = _mutate(rng, text, max_nesting)
        argv = [command, "--carrier", str(rank)]
        if command in ("normalize", "derive"):
            argv += ["--level", str(level)]
        if command == "derive":
            argv += ["--n", str(rng.choice((0, 1, 2, 7)))]
        if command == "eval":
            target = rng.choice(CATALOG_TARGETS + ("x[1]*x[1]+1", "x[1]*", "f(x[1])"))
            width = rank if rng.random() < 0.9 else rank + 1
            phi = ",".join(str(rng.randint(0, 5)) for _ in range(width))
            argv += ["--target", target, "--phi", phi]
        argv += ["--format", rng.choice(("text", "structured"))]
        batch.append(argv + [text])
    return batch + [list(argv) for argv in FLAG_RUNS + FIXED_ROWS]


class _Timeout(BaseException):
    """Raised in the child when one input runs past its bound."""


def _on_alarm(signum, frame):
    raise _Timeout


def run_batch(seed, count):
    """Run every input through ``main`` here; returns the summary."""
    from rigdiff.cli import main
    from rigdiff.text import MAX_NESTING

    signal.signal(signal.SIGALRM, _on_alarm)
    codes, bad, recursion = {}, [], 0
    digest = hashlib.sha256()
    started = time.perf_counter()
    for argv in inputs(seed, count, MAX_NESTING):
        out, err = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, PER_INPUT_SECONDS)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's own usage errors
                    code = exc.code
        except _Timeout:
            code = f"over {PER_INPUT_SECONDS} s"
        except BaseException as exc:  # what a user would see as a traceback
            code = f"Traceback: {type(exc).__name__}: {exc}"[:300]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        text = err.getvalue()
        shown = out.getvalue()
        if argv[0] == "laws":
            shown = LAW_TIMINGS.sub("", shown)
        digest.update(json.dumps([argv, str(code), shown, text]).encode() + b"\n")
        recursion += "maximum recursion depth" in text
        codes[str(code)] = codes.get(str(code), 0) + 1
        if code not in (0, 2) or "Traceback" in text:
            bad.append({"argv": [a[:200] for a in argv], "code": str(code)})
    return {"inputs": sum(codes.values()), "codes": codes, "bad": bad,
            "recursion_errors": recursion, "digest": digest.hexdigest(),
            "seconds": round(time.perf_counter() - started, 2)}


def test_every_input_exits_0_or_2_without_a_traceback():
    proc = child_run(__file__, str(SEED), str(COUNT), timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout)
    assert summary["bad"] == []
    assert summary["recursion_errors"] == 0
    assert summary["inputs"] == COUNT + len(FIXED_ROWS)
    # both outcomes are well represented, so the batch exercises answers
    # as well as errors
    assert min(summary["codes"].get("0", 0), summary["codes"].get("2", 0)) > COUNT // 5


def test_outcomes_are_frozen():
    proc = child_run(__file__, str(DIGEST_SEED), str(DIGEST_COUNT), timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["digest"] == OUTCOMES_DIGEST


if __name__ == "__main__":
    seed, count = map(int, sys.argv[1:])
    summary = run_batch(seed, count)
    print(json.dumps(summary))
    if summary["bad"] or summary["recursion_errors"]:
        # on stderr too, where the tests' failure messages look
        sys.exit(f"bad inputs: {json.dumps(summary['bad'])}; "
                 f"recursion errors: {summary['recursion_errors']}")
