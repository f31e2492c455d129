"""rigdiff benchmark: seeded closed-loop workloads against the engine.

    python3 perfbench/run.py --workload poly_expand --seed 1 --seconds 10 --trace 0

One process, one thread.  Each op starts when the previous one has
finished.  A run ends once ``--seconds`` of op time has been spent and at
least MIN_OPS ops have finished, on a whole cycle of the workload's input
schedule.  The timed ops come in SLICES slices; the set-ups that give
``setup_s`` are spread between them, so that drift in host speed during
the run weighs on set-up and ops alike.  Every result is checked against a
reference the engine did not compute, outside the timed region.  A failed
or mismatched op counts against ``ok_ratio``; it is never skipped or
retried.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced slices, half the time each, prints the per-layer
metrics (per traced op) from the traced half and the tracing overhead,
and writes the spans to ``.bench_out/trace-<workload>-seed<seed>.json``.
The last line of output is always one JSON object: correct, attempted,
failed, metrics.

The engine is imported from ``src/`` of the checkout that holds this file;
the value references come from ``tests/oracle.py`` there.  Without them the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

from spans import SIZED, NullTracer, Tracer
from workloads import WORKLOADS, Mismatch

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100
SLICES = 6
SETUPS_PER_SLICE = 5

LAYERS = (
    "text.parse", "normal.normalize", "normal.apply_functor", "modality.mu",
    "carrier.tensor_bimap", "derive.d_n", "text.render_tensor",
    "normal.render_nf", "modality.evaluate",
)


def _engine_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "rigdiff" or name.startswith("rigdiff.")}


def load_engine(root: Path):
    """Import rigdiff afresh from ``root/src``, plus the test oracle."""
    for name in _engine_modules():
        del sys.modules[name]
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    rigdiff = importlib.import_module("rigdiff")
    if Path(rigdiff.__file__).resolve().parent != root / "src" / "rigdiff":
        raise ImportError(f"imported rigdiff from {rigdiff.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("rigdiff_oracle", root / "tests" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    modules = {name: sys.modules[f"rigdiff.{name}"]
               for name in ("terms", "carrier", "normal", "text", "modality", "derive", "laws")}
    return SimpleNamespace(oracle=oracle, **modules)


def set_up(workload, seed):
    """Import the engine and generate the inputs.  Returns the engine, the
    inputs and the time taken; interpreter start is not included, because
    it cannot be repeated in-process."""
    gc.collect()
    start = time.perf_counter()
    rd = load_engine(ROOT)
    inputs = workload.generate(rd, seed)
    return rd, inputs, time.perf_counter() - start


def time_set_ups(workload, seed, count):
    """Time ``count`` more set-ups and throw them away, leaving the engine
    in use in ``sys.modules``."""
    kept = _engine_modules()
    times = [set_up(workload, seed)[2] for _ in range(count)]
    for name in _engine_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    return times


def new_phase():
    # Compact arrays, so that the memory the records take grows little with
    # the number of ops and peak_rss_mb stays a property of the engine.
    return SimpleNamespace(latencies=array("d"), timed=0.0, sizes=array("q"), failures=[])


def measure(workload, rd, inputs, tr, derive, phase, cursor, seconds, min_ops):
    """Add ops to ``phase``, back to back from item ``cursor``, until it
    holds ``seconds`` of op time and ``min_ops`` ops, ending on a whole
    input cycle.  Returns the cursor after the last op."""
    items, block, op = inputs.items, inputs.block, workload.op
    traced = isinstance(tr, Tracer)
    latencies, i = phase.latencies, cursor
    gc.collect()
    while phase.timed < seconds or len(latencies) < min_ops or i % block:
        item = items[i % len(items)]
        t0 = time.perf_counter()
        try:
            out = tr.op(i, op, rd, tr, item, derive) if traced else op(rd, tr, item, derive)
        except Exception as exc:  # a raising op is a failed op, never retried
            out = exc
        elapsed = time.perf_counter() - t0
        latencies.append(elapsed)
        phase.timed += elapsed
        if isinstance(out, Exception):
            phase.failures.append(f"op {i}: {type(out).__name__}: {out}")
        else:
            try:
                phase.sizes.append(workload.check(rd, item, out))
            except Mismatch as exc:
                phase.failures.append(f"op {i}: {exc}")
        i += 1
    return i


def _quantile(values, q):
    """q-th decile by statistics.quantiles' default (exclusive) method."""
    return statistics.quantiles(values, n=10)[q - 1]


def end_to_end(phase, setup_s):
    # Read before the sorts below allocate their copies of the latencies.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = phase.latencies
    return {
        "ops_per_s": (len(lat) / phase.timed, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (_quantile(lat, 9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "ok_ratio": (1 - len(phase.failures) / len(lat), "ratio"),
    }


def shape_metrics(workload, rd, inputs, phase):
    occurrences, distinct, sharing_pct = workload.sharing(rd, inputs.items[:inputs.block])
    sizes = phase.sizes or [0]
    return {
        "derive.d_n.in_app_occurrences": (occurrences, "count"),
        "derive.d_n.in_app_distinct": (distinct, "count"),
        "shape.sharing_inputs_pct": (sharing_pct, "%"),
        "shape.out_terms_p50": (statistics.median(sizes), "count"),
        "shape.out_terms_p90": (_quantile(sizes, 9) if len(sizes) > 1 else sizes[0], "count"),
        "shape.out_terms_max": (max(sizes), "count"),
    }


def per_layer(tracer, law_names, untraced, traced):
    """Layer metrics per traced op, so that they do not grow with the number
    of ops a run fits in, plus the tracing overhead."""
    totals = tracer.layer_totals()
    ops = len(traced.latencies)
    metrics = {}
    for name in LAYERS + tuple(f"laws.{law}" for law in law_names):
        calls, busy, errors, items = totals.get(name, (0, 0.0, 0, 0))
        metrics[f"{name}.calls"] = (calls / ops, "count/op")
        metrics[f"{name}.busy_s"] = (busy / ops, "s/op")
        metrics[f"{name}.errors"] = (errors / ops, "count/op")
        if name in SIZED:
            metrics[f"{name}.out_terms"] = (items / ops, "count/op")
    plain = len(untraced.latencies) / untraced.timed
    with_spans = len(traced.latencies) / traced.timed
    metrics["trace.untraced_ops_per_s"] = (plain, "1/s")
    metrics["trace.ops_per_s"] = (with_spans, "1/s")
    metrics["trace.overhead_pct"] = (100 * (plain - with_spans) / plain, "%")
    return metrics


def write_trace(workload_name, seed, tracer, metrics):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload_name}-seed{seed}.json"
    fields = ["span", "parent", "op", "name", "start_ns", "end_ns", "raised", "out_items"]
    with open(path, "w") as fh:
        json.dump({"workload": workload_name, "seed": seed, "span_fields": fields,
                   "spans": tracer.spans,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                  fh)
    return path


def run(workload_name, seed, seconds, trace, derive_fn=None):
    """One benchmark run.  Returns (report lines, result object).

    ``derive_fn`` replaces ``d_n`` everywhere the workload derives, so a
    deliberately broken derivative can be shown to fail the checks.
    """
    workload = WORKLOADS[workload_name]
    rd, inputs, first_setup_s = set_up(workload, seed)
    derive = derive_fn or rd.derive.d_n
    cursor = 0
    if not trace:
        phase = new_phase()
        setup_times = [first_setup_s] + time_set_ups(workload, seed, SETUPS_PER_SLICE - 1)
        for k in range(1, SLICES + 1):
            if k > 1:
                setup_times += time_set_ups(workload, seed, SETUPS_PER_SLICE)
            cursor = measure(workload, rd, inputs, NullTracer(), derive, phase, cursor,
                             seconds * k / SLICES, MIN_OPS if k == SLICES else 0)
        phases = [phase]
        metrics = end_to_end(phase, statistics.median(setup_times))
        shown = {**metrics, **shape_metrics(workload, rd, inputs, phase)}
    else:
        # Untraced and traced slices alternate, so that drift in host speed
        # during the run weighs on both halves alike.
        tracer = Tracer()
        phases = [new_phase(), new_phase()]
        for k in range(1, SLICES + 1):
            for tr, phase in zip((NullTracer(), tracer), phases):
                cursor = measure(workload, rd, inputs, tr, derive, phase, cursor,
                                 seconds * k / (2 * SLICES), MIN_OPS if k == SLICES else 0)
        untraced, traced = phases
        metrics = {**per_layer(tracer, rd.laws.law_names(), untraced, traced),
                   **shape_metrics(workload, rd, inputs, traced)}
        shown = metrics
    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    lines = [f"workload {workload_name} seed {seed} seconds {seconds} trace {int(trace)}"]
    lines += [f"{name} {value} {unit}" for name, (value, unit) in shown.items()]
    lines.append(f"failed_ratio {len(failures) / attempted} ratio"
                 f" ({len(failures)} of {attempted} ops)")
    lines += [f"failure: {f}" for f in failures[:5]]
    if trace:
        lines.append(f"spans written to {write_trace(workload_name, seed, tracer, metrics)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [p for p in ("src/rigdiff/__init__.py", "tests/oracle.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
