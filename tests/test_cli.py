"""End-to-end command line behavior through main(argv)."""

import json
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rigdiff.cli import MAX_EVAL_BITS, main
from rigdiff.carrier import FreeMonoid, MonomialBasis
from rigdiff.normal import nf_from_obj, normalize
from rigdiff.text import MAX_NESTING, parse


def decimal_text(n: int) -> str:
    """``str(n)`` past Python's default limit of 4300 digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_run(*args, timeout=20):
    """Run Python with ``args`` against ``src`` in a child with capped
    memory and time and an empty stdin."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, stdin=subprocess.DEVNULL,
                          preexec_fn=cap_memory, env={**os.environ, "PYTHONPATH": src})


class TestNormalize:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "normalize", "x[2]+x[3]")
        assert code == 0 and out == "5*x[0]\n"

    def test_rank_two(self, capsys):
        code, out, _ = run(capsys, "normalize", "--carrier", "2",
                           "x[1,0]*x[0,1]")
        assert code == 0 and out == "x[0]*x[1]\n"

    def test_level_two(self, capsys):
        code, out, _ = run(capsys, "normalize", "--level", "2", "y[x[2]]")
        assert code == 0 and out == "2*y[x[0]]\n"

    def test_stdin_dash(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("x[1] + x[1]\n"))
        code, out, _ = run(capsys, "normalize", "-")
        assert code == 0 and out == "2*x[0]\n"

    def test_structured_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "normalize", "--format", "structured",
                           "(x[1]+1)*f(x[1])")
        assert code == 0
        carrier = FreeMonoid(1)
        expected = normalize(parse("(x[1]+1)*f(x[1])", carrier), carrier)
        assert nf_from_obj(carrier, json.loads(out)) == expected


class TestDerive:
    def test_operation_weight(self, capsys):
        code, out, _ = run(capsys, "derive", "--n", "2", "f(x[1])")
        assert code == 0 and out == "2*(1 ⊗ e[0])\n"

    def test_level_two(self, capsys):
        code, out, _ = run(capsys, "derive", "--level", "2", "--n", "3",
                           "g(y[1])")
        assert code == 0 and out == "3*(1 ⊗ 1)\n"

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "derive", "--n", "0", "--format",
                           "structured", "x[1]*x[1]")
        assert code == 0
        obj = json.loads(out)
        assert obj["items"] == [{"coeff": 2, "key": [[{"gen": 0}], 0]}]

    def test_rejects_negative_index(self, capsys):
        code, _, err = run(capsys, "derive", "--n", "-1", "x[1]")
        assert code == 2 and "error:" in err


def timed_child_main(argv, stdin=""):
    """(exit code, seconds, stderr) of ``main(argv)`` in a child, with
    ``stdin`` as its standard input."""
    script = ("import io, sys, time; from rigdiff.cli import main; "
              f"sys.stdin = io.StringIO({stdin!r}); "
              "start = time.perf_counter(); "
              f"code = main({argv!r}); "
              "print(code, time.perf_counter() - start)")
    proc = child_run("-c", script)
    code, elapsed = proc.stdout.split()
    return code, float(elapsed), proc.stderr


class TestMuAndEval:
    def test_mu_collapses(self, capsys):
        code, out, _ = run(capsys, "mu", "g(y[1])")
        assert code == 0 and out == "f(1)\n"

    def test_eval_catalog_rig(self, capsys):
        code, out, _ = run(capsys, "eval", "f(x[1])", "--target", "square",
                           "--phi", "3")
        assert code == 0 and out == "9\n"

    def test_eval_expression_rig(self, capsys):
        code, out, _ = run(capsys, "eval", "f(x[1])", "--target",
                           "x[1]*x[1]+1", "--phi", "2")
        assert code == 0 and out == "5\n"

    def test_eval_rank_two(self, capsys):
        code, out, _ = run(capsys, "eval", "--carrier", "2", "x[1,1]",
                           "--target", "identity", "--phi", "2,3")
        assert code == 0 and out == "5\n"

    def test_eval_phi_arity_check(self, capsys):
        code, _, err = run(capsys, "eval", "x[1]", "--target", "identity",
                           "--phi", "1,2")
        assert code == 2 and "--phi needs 1" in err

    @pytest.mark.parametrize("target", ["square", "x[1]*x[1]+1"])
    def test_eval_stops_on_a_growing_tower(self, target):
        # Each level doubles the bit length, so exact work would never end:
        # run it in a child with capped memory and time.
        argv = ["eval", "--carrier", "0", "--phi", "", "--target", target,
                tower(45, "f(", "2")]
        code, elapsed, err = timed_child_main(argv)
        assert code == "2" and elapsed < 1
        assert err == f"error: value exceeds {MAX_EVAL_BITS} bits\n"

    def test_eval_stops_before_a_large_product(self):
        # 3000 factors of a 4212-bit image make about 12.6 million bits:
        # far more work than any printable answer needs.
        argv = ["eval", "--phi", str(3 ** 2657), "--target", "identity",
                "*".join(["x[1]"] * 3000)]
        code, elapsed, err = timed_child_main(argv)
        assert code == "2" and elapsed < 5
        assert err == f"error: value exceeds {MAX_EVAL_BITS} bits\n"

    @pytest.mark.parametrize("expr, target, stdin", [
        ("-", "identity", "*".join(["f(x[1])"] * 3000)),
        ("f(x[1])", "*".join(["x[1]"] * 3000), ""),
    ], ids=["power-of-an-f-atom", "large-target"])
    def test_eval_stops_on_a_large_product_of_f_values(self, expr, target, stdin):
        # The bound reads each factor's value where evaluate multiplies, so
        # it covers f atoms, and a target expression evaluates through it.
        argv = ["eval", "--phi", str(3 ** 2657), "--target", target, expr]
        code, elapsed, err = timed_child_main(argv, stdin)
        assert code == "2" and elapsed < 5
        assert err == f"error: value exceeds {MAX_EVAL_BITS} bits\n"

    def test_eval_a_zero_factor_beats_a_large_product(self, capsys):
        # 20 factors of 4212 bits pass the bound, but f(x[1]) is 0 here
        expr = "*".join(["x[1]"] * 20) + "*f(x[1])"
        code, out, _ = run(capsys, "eval", "--phi", str(3 ** 2657),
                           "--target", "const-zero", expr)
        assert code == 0 and out == "0\n"

    def test_eval_below_the_cap_stays_exact(self, capsys):
        code, out, _ = run(capsys, "eval", "--carrier", "0", "--phi", "",
                           "--target", "square", tower(12, "f(", "2"))
        assert code == 0 and out == f"{2 ** 4096}\n"

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_eval_prints_answers_past_4300_digits(self, capsys, fmt):
        # 3**(2**14) has 7818 digits and 25,970 bits, inside the bound
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "eval", "--target", "square", "--phi", "3",
                             "--format", fmt, tower(14, "f(", "x[1]"))
        assert (code, err) == (0, "") and out == decimal_text(3 ** 2 ** 14) + "\n"
        assert sys.get_int_max_str_digits() == limit  # main restores it

    def test_eval_reads_a_phi_entry_past_4300_digits(self, capsys):
        phi = decimal_text(7 ** 6000)  # 5071 digits
        code, out, _ = run(capsys, "eval", "--target", "identity", "--phi", phi, "x[1]")
        assert code == 0 and out == phi + "\n"

    @pytest.mark.parametrize("argv", [
        ["--phi", "1" + "0" * 19729, "x[1]"],
        ["--phi", decimal_text(1 << 65535), "3*x[1]"],
    ], ids=["phi-entry-past-the-bound", "coefficient-past-the-bound"])
    def test_eval_stops_past_the_bound_with_its_message(self, capsys, argv):
        code, out, err = run(capsys, "eval", "--target", "identity", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: value exceeds {MAX_EVAL_BITS} bits\n"

    def test_eval_unknown_target(self, capsys):
        code, _, err = run(capsys, "eval", "x[1]", "--target", "nosuchrig",
                           "--phi", "1")
        assert code == 2 and "error:" in err


class TestLaws:
    def test_small_run_text(self, capsys):
        code, out, _ = run(capsys, "laws", "--cases", "3")
        assert code == 0
        assert out.splitlines()[-1].endswith("all laws hold")

    def test_small_run_structured(self, capsys):
        code, out, _ = run(capsys, "laws", "--cases", "3", "--format",
                           "structured")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True and obj["config"]["cases"] == 3

    def test_custom_n_values(self, capsys):
        # every law holds for every n, so there is no sample of n to set
        with pytest.raises(SystemExit) as exc:
            run(capsys, "laws", "--cases", "2", "--n-values", "0,5")
        assert exc.value.code == 2
        assert "unrecognized arguments: --n-values" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["distinctness", "--n-values", ","],
        ["distinctness", "--n-values", " , ", "--format", "structured"],
        ["laws", "--cases", "-1"],
        ["laws", "--depth", "-1", "--cases", "2"],
        ["distinctness", "--n-values", ""],
        ["normalize", "--carrier", "-1", "1"],
        ["derive", "--carrier", "-2", "--n", "1", "1+1"],
        ["mu", "--carrier", "-1", "g(y[1])"],
        ["eval", "--carrier", "-1", "--target", "identity", "--phi", "1", "1"],
    ], ids=["empty-n-values", "blank-n-values", "negative-cases", "negative-depth",
            "distinctness-empty-n-values", "normalize-negative-carrier",
            "derive-negative-carrier", "mu-negative-carrier", "eval-negative-carrier"])
    def test_rejects_flag_values_it_cannot_run(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "--target", "identity", "--phi=-1", "x[1]"],
        ["distinctness", "--n-values=-1"],
    ], ids=["eval-phi", "distinctness-n-values"])
    def test_rejects_a_negative_list_entry(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: list entries must be naturals\n")


class TestDistinctness:
    def test_default_range(self, capsys):
        code, out, _ = run(capsys, "distinctness")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "n=0: 0" and lines[10] == "n=10: 10"
        assert lines[-1] == "11 values, all distinct"

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "distinctness", "--n-values", "0,2,5",
                           "--format", "structured")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"pairs": [[0, 0], [2, 2], [5, 5]], "distinct": True}

    def test_coinciding_members_exit_1(self, capsys, monkeypatch):
        def coinciding(n_values):
            raise ValueError("family members coincide on the witness: [(0, 0), (1, 0)]")

        monkeypatch.setattr("rigdiff.cli.check_distinctness", coinciding)
        code, out, err = run(capsys, "distinctness", "--n-values", "0,1")
        assert (code, out) == (1, "")
        assert err == "error: family members coincide on the witness: [(0, 0), (1, 0)]\n"

    def test_a_repeated_value_is_a_usage_error(self, capsys):
        # no two members coincide, so this is bad input, not a failed law
        code, out, err = run(capsys, "distinctness", "--n-values", "1,1")
        assert code == 2 and out == ""
        assert err == "error: --n-values repeats 1\n"


class TestLongAndDeepInputs:
    def test_long_literal(self, capsys):
        code, out, _ = run(capsys, "normalize", "2000")
        assert code == 0 and out == "2000\n"

    def test_thousand_digit_literal(self, capsys):
        literal = str(7 ** 1200)  # over 3000 levels deep as a term
        code, out, _ = run(capsys, "normalize", literal)
        assert code == 0 and out == literal + "\n"

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_a_coefficient_past_the_printing_limit(self, capsys, fmt):
        # 20,000 digits: past the 19,729 that any command prints
        factor = "(" + "9" * 1000 + ")"
        code, out, err = run(capsys, "normalize", "--format", fmt, "*".join([factor] * 20))
        assert (code, out) == (2, "")
        assert err == "error: a number in the result exceeds the printing limit of 19729 digits\n"

    def test_ten_digit_literal_is_fast(self):
        # A literal expanded into a chain of n sums would need ~10**10
        # nodes and must fail fast here.
        script = ("import time; from rigdiff.cli import main; "
                  "start = time.perf_counter(); "
                  "main(['normalize', '9876543210*x[1]']); "
                  "print(time.perf_counter() - start)")
        proc = child_run("-c", script)
        out, elapsed = proc.stdout.splitlines()
        assert proc.returncode == 0 and out == "9876543210*x[0]"
        assert float(elapsed) < 0.5

    @pytest.mark.parametrize("command", ["normalize", "derive"])
    @pytest.mark.parametrize("expr", [
        "+".join(["x[1]"] * 3000),
        "(" * 1200 + "x[1]" + ")" * 1200,
        "f(" * 400 + "x[1]" + ")" * 400,
    ], ids=["chained-sum", "nested-parens", "nested-f"])
    def test_deep_nesting_ends_cleanly(self, capsys, command, expr):
        argv = [command, expr] if command == "normalize" else [command, "--n", "2", expr]
        code, out, err = run(capsys, *argv)
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error:") and out == ""


def timed_run(capsys, *argv):
    start = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    return result


class TestLongChains:
    def test_sum_chain_normalizes(self, capsys):
        code, out, _ = timed_run(capsys, "normalize", "+".join(["x[1]"] * 3000))
        assert code == 0 and out == "3000*x[0]\n"

    def test_sum_chain_derives(self, capsys):
        code, out, _ = timed_run(capsys, "derive", "--n", "2", "+".join(["x[1]"] * 3000))
        assert code == 0 and out == "3000*(1 ⊗ e[0])\n"

    def test_product_chain_normalizes(self, capsys):
        code, out, _ = timed_run(capsys, "normalize", "*".join(["x[1]"] * 3000))
        assert code == 0 and out == "*".join(["x[0]"] * 3000) + "\n"


def tower(depth, opener, inner):
    return opener * depth + inner + ")" * depth


class TestNestingLimit:
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("argv, expr", [
        (["normalize"], tower(MAX_NESTING, "f(", "x[1]")),
        (["derive", "--n", "2"], tower(MAX_NESTING, "f(", "x[1]")),
        (["normalize", "--level", "2"], tower(MAX_NESTING - 1, "g(", "y[x[1]]")),
        (["derive", "--n", "2", "--level", "2"], "y[" + tower(MAX_NESTING - 1, "f(", "x[1]") + "]"),
        (["mu"], tower(MAX_NESTING - 1, "g(", "y[x[1]]")),
    ], ids=["normalize", "derive", "normalize-level2", "derive-level2", "mu"])
    def test_deepest_accepted_input_gets_an_answer(self, capsys, argv, expr, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt, expr)
        assert code == 0 and err == "" and out

    @pytest.mark.parametrize("argv, expr, line, col", [
        (["normalize"], tower(MAX_NESTING + 1, "(", "x[1]"), 1, MAX_NESTING + 1),
        (["derive", "--n", "2"], tower(MAX_NESTING + 1, "f(", "x[1]"), 1, 2 * MAX_NESTING + 2),
        (["mu"], tower(MAX_NESTING, "g(", "y[x[1]]"), 1, 2 * MAX_NESTING + 2),
        (["normalize"], tower(MAX_NESTING + 1, "f(\n", "x[1]"), MAX_NESTING + 1, 2),
    ], ids=["parens", "f", "level2-payload", "multiline"])
    def test_one_level_deeper_is_a_parse_error(self, capsys, argv, expr, line, col):
        code, out, err = run(capsys, *argv, expr)
        assert code == 2 and out == ""
        assert err == (f"error: expression nested deeper than {MAX_NESTING} levels "
                       f"at line {line}, column {col}\n")


class TestErrors:
    def test_parse_errors_exit_2(self, capsys):
        code, _, err = run(capsys, "normalize", "x[1")
        assert code == 2 and err.startswith("error:")

    def test_rank_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "normalize", "--carrier", "2", "x[1]")
        assert code == 2 and "rank is 2" in err

    def test_missing_subcommand_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point(self):
        # a child with this checkout's src on its path runs __main__.py
        proc = child_run("-m", "rigdiff", "normalize", "x[1]+x[1]")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2*x[0]\n", "")

    def test_an_over_long_literal_is_a_parse_error(self, capsys):
        # past the 19,729 digits that main lets Python read and print
        code, out, err = run(capsys, "normalize", "1" + "0" * 20000)
        assert (code, out) == (2, "")
        assert err == "error: literal at line 1, column 1 has more than 19729 digits\n"

    def test_closed_pipe_stops_without_a_traceback(self):
        # About 160 KB of output, well past a pipe's buffer, so the writer
        # is still writing when the reader goes away.
        expr = "*".join(["(x[1,0,0]+x[0,1,0]+x[0,0,1]+1)"] * 12)
        src = str(Path(__file__).resolve().parents[1] / "src")
        with subprocess.Popen(
                [sys.executable, "-m", "rigdiff", "normalize", "--carrier", "3",
                 "--format", "structured", expr],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": src}) as proc:
            assert proc.stdout.read(1) == "["
            proc.stdout.close()
            _, err = proc.communicate(timeout=20)
        assert "Traceback" not in err and err == ""
        assert proc.returncode == 1


# --- the README's command line examples, as printed there

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(argv, shown output lines) for each ``$ rigdiff ...`` line of the
    README's "Command line" section, up to the next blank line."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in section.split("```sh\n")[1:]:
        for chunk in block.split("```", 1)[0].strip().split("\n\n"):
            command, *shown = chunk.split("\n")
            assert command.startswith("$ rigdiff "), command
            examples.append((shlex.split(command)[2:], shown))
    return examples


@pytest.mark.parametrize("argv, shown", [
    pytest.param(argv, shown, id=" ".join(argv))
    for argv, shown in readme_examples() if argv[0] != "laws"])
def test_readme_examples(capsys, argv, shown):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    if "..." in shown:  # it elides the middle of the output: match both ends
        cut = shown.index("...")
        head, tail = shown[:cut], shown[cut + 1:]
        assert lines[:len(head)] == head and lines[len(lines) - len(tail):] == tail
    else:
        assert lines == shown


def test_readme_examples_are_found():
    commands = [argv[0] for argv, _ in readme_examples()]
    assert commands.count("laws") == 1 and len(commands) == 9
