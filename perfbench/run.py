"""calimp benchmark: one workload, closed loop, one process.

Usage, from the repository root::

    python3 perfbench/run.py --workload study --seed 1 --seconds 25 --trace 0

Workloads: ``study``, ``bulk``, ``survey_cli`` (see ``workloads.py``).
After set-up and a warm-up, a fixed number of operations run one after
another: whole cycles through the methods, as many as take about
``--seconds`` on the reference host (see ``operation_count``).  The
second-to-last line of output is a JSON report with every figure; the
last line is the summary ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps
calimp's public functions, reports per-layer metrics and the tracing
overhead, and writes the spans under ``perfbench/out/``.  ``--smoke``
shrinks every input so all workloads and checks run in seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
#: Untraced work the overhead comparison re-runs, at the least.
OVERHEAD_MIN_S = 5.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["study", "bulk", "survey_cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for checking the harness")
    return parser.parse_args(argv)


def timing(values: list[float]) -> dict:
    """Median, the highest listed percentile with at least ten samples
    beyond it, and the sample count."""
    out = {"n": len(values)}
    if not values:
        return out
    ordered = sorted(values)
    out["median"] = statistics.median(ordered)
    for p in reversed(PERCENTILES):
        rank = int(-(-p * len(ordered) // 100))  # ceil
        if len(ordered) - rank >= 10:
            out[f"p{p}"] = ordered[max(rank - 1, 0)]
            break
    return out


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def input_properties(masks, attempts) -> dict:
    import checks

    per = [checks.pattern_stats(m) for m in masks]
    out = {key: statistics.mean(p[key] for p in per) for key in per[0]} if per else {}
    if per:
        out["patterns_min"] = min(p["patterns"] for p in per)
        out["patterns_max"] = max(p["patterns"] for p in per)
        out["inputs"] = len(per)
    count = degenerate = 0
    for a in attempts:
        for row in a.diagnostics:
            if "intervals" in row:
                count += row["intervals"]["count"]
                degenerate += row["intervals"]["degenerate"]
    out["point_interval_share"] = degenerate / count if count else None
    return out


def diagnostic_counters(attempts) -> dict:
    """Residual sampling and predictor-drop counts from impute diagnostics."""
    cells = draws = fallbacks = dropped = 0
    for a in attempts:
        for row in a.diagnostics:
            dropped += len(row.get("dropped_predictors") or [])
            if row.get("residuals"):
                cells += row["n_missing"]
                draws += row["residuals"]["attempts"]
                fallbacks += row["residuals"]["fallbacks"]
    return {
        "residuals.attempts_per_cell": draws / cells if cells else 0.0,
        "residuals.fallback_share": fallbacks / cells if cells else 0.0,
        "regression.dropped_predictors": dropped,
    }


def failure_table(attempts) -> dict:
    table: dict[str, dict[str, int]] = {}
    for a in attempts:
        if a.failure is not None:
            key = a.failure if a.exit_code is None else f"{a.failure} (exit {a.exit_code})"
            row = table.setdefault(a.method, {})
            row[key] = row.get(key, 0) + 1
    return table


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def cells_per_s(group) -> float:
    seconds = sum(a.seconds for a in group)
    return sum(a.cells for a in group) / seconds if seconds else 0.0


def end_to_end(attempts, passes, setup_s) -> dict:
    """The gated metrics of ``BENCHMARK.json``.

    ``pass_s`` is one input through every method: the median replication on
    ``study``, else the sum of each method's median completed attempt.  It
    counts completed attempts only, since a failed attempt stops early and
    would make the figure follow the seed's mix of failures (``failed``
    reports them).  Throughput per method is left to the report: over a few
    short attempts it varies with the host more than a bound allows.
    """
    from workloads import METHODS

    done = [[a.seconds for a in attempts if a.method == m and a.failure is None] for m in METHODS]
    pass_s = statistics.median(passes) if passes else sum(statistics.median(g) for g in done if g)
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def workload_figures(workload, attempts, passes, setup_s) -> dict:
    """Every end-to-end figure of the workload by name, with its unit."""
    figures = {"setup_s": {"value": setup_s, "unit": "s"}}
    for m in workload.methods:
        group = [a for a in attempts if a.method == m]
        done = [a for a in group if a.failure is None]
        figures[f"{m}.attempt_s"] = {
            "completed": timing([a.seconds for a in done]),
            "failed": timing([a.seconds for a in group if a.failure is not None]),
            "unit": "s",
        }
        if m != "mcmc":
            figures[f"{m}.cells_per_s"] = {"value": cells_per_s(done), "unit": "1/s"}
            figures[f"{m}.cells_per_s_all_attempts"] = {"value": cells_per_s(group), "unit": "1/s"}
    figures["failed_ratio"] = {
        "value": sum(a.failure is not None for a in attempts) / len(attempts),
        "unit": "ratio",
    }
    figures["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    if workload.name == "study":
        figures["replication_s"] = {**timing(passes), "unit": "s"}
        chains = [a for a in attempts if a.method == "mcmc" and a.failure is None]
        seconds = sum(a.seconds for a in chains)
        steps = sum(a.steps for a in chains)
        figures["mcmc.steps_per_s"] = {"value": steps / seconds if seconds else 0.0, "unit": "1/s"}
        figures["mcmc.accept_share"] = {
            "value": sum(a.accepted for a in chains) / steps if steps else 0.0,
            "unit": "ratio",
        }
        figures["quality"] = {
            f"metrics.{method}.{key}": statistics.mean(values)
            for method, acc in workload.quality.items()
            for key, values in acc.items()
        }
    return figures


def layer_metrics(tracer, summary, counters, overhead) -> dict:
    from spans import SHARED, TRACED

    out = {}
    for name in TRACED:
        entry = summary["functions"].get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = (entry["calls"], "count")
        if name in SHARED:
            out[f"{name}.self_s"] = (entry["self_s"], "s")
    adjust = tracer.adjust
    out["adjust.failures"] = (adjust["failures"], "count")
    out["adjust.at_bound_share"] = (adjust["at_bound"] / adjust["cells"] if adjust["cells"] else 0.0, "ratio")
    out["residuals.attempts_per_cell"] = (counters["residuals.attempts_per_cell"], "ratio")
    out["residuals.fallback_share"] = (counters["residuals.fallback_share"], "ratio")
    out["regression.dropped_predictors"] = (counters["regression.dropped_predictors"], "count")
    out["trace.spans"] = (summary["spans"], "count")
    out["trace.overhead_s"] = (overhead["overhead_s"], "s")
    out["trace.overhead_share"] = (overhead["overhead_share"], "ratio")
    return out


def io_rates(tracer, summary) -> dict:
    out = {}
    for kind, name in (("read", "io.read_dataset"), ("write", "io.write_dataset")):
        seconds = summary["functions"].get(name, {}).get("total_s", 0.0)
        out[f"io.{kind}_mb_per_s"] = tracer.io_bytes[kind] / 1e6 / seconds if seconds else 0.0
    return out


def timed(tracer, name, fn, *args):
    """``fn(*args)`` and its wall time, under a span named ``name`` when tracing."""
    t0 = perf_counter()
    if tracer:
        with tracer.span(name):
            result = fn(*args)
    else:
        result = fn(*args)
    return result, perf_counter() - t0


def operation_count(workload, seconds: float) -> int:
    """Operations in one run: whole cycles through the methods, as many as
    take about ``seconds`` at the workload's ``nominal_op_s`` (at least one).

    The count depends only on the workload and ``seconds``, never on how fast
    the host happens to be, so a seed always runs the same operations and
    gives the same ``attempted`` and ``failed`` counts.
    """
    cycles = round(seconds / (workload.nominal_op_s * workload.cycle))
    return max(1, cycles) * workload.cycle


def run_loop(workload, operations: int, tracer):
    """Closed loop: ``op(0) ... op(operations - 1)``, one after another."""
    attempts, passes, op_seconds = [], [], []
    start = perf_counter()
    for k in range(operations):
        gc.collect()
        (found, pass_s), op_s = timed(tracer, "op", workload.op, k)
        op_seconds.append(op_s)
        attempts.extend(found)
        if pass_s is not None and all(a.failure is None for a in found):
            passes.append(pass_s)
    return attempts, passes, op_seconds, perf_counter() - start


def tracing_overhead(workload, op_seconds, spans: int) -> dict:
    """Re-run the first traced operations untraced (at least one per method
    and at least ``OVERHEAD_MIN_S`` of work) and compare.  Host speed varies
    from one operation to the next, so the report also gives the overhead
    computed from the span count and the measured cost of one wrapper."""
    from spans import wrapper_cost

    untraced = []
    while len(untraced) < len(op_seconds) and (
        len(untraced) < workload.cycle or sum(untraced) < OVERHEAD_MIN_S
    ):
        gc.collect()
        untraced.append(timed(None, "op", workload.op, len(untraced))[1])
    traced_s, untraced_s = sum(op_seconds[: len(untraced)]), sum(untraced)
    per_span = wrapper_cost()
    return {
        "wrapper_cost_s": per_span,
        "computed_overhead_s": per_span * spans,
        "computed_overhead_share": per_span * spans / sum(op_seconds),
        "operations_compared": len(untraced),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "overhead_s": traced_s - untraced_s,
        "overhead_share": (traced_s - untraced_s) / untraced_s,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "calimp" / "__init__.py").is_file():
        print(f"calimp sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import calimp

    if Path(calimp.__file__).resolve().parent != (ROOT / "src" / "calimp").resolve():
        print(f"imported calimp from {calimp.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import numpy  # noqa: F401  (import cost belongs to set-up)
    import scipy.stats  # noqa: F401

    from spans import Tracer
    from workloads import WORKLOADS

    import_s = perf_counter() - T_START
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload](args.seed, str(HERE / "work" / f"{tag}-{os.getpid()}"), smoke=args.smoke)
    try:
        report, summary = run(args, workload, import_s, Tracer() if args.trace else None)
    finally:
        workload.close()

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(summary))
    return 0


def run(args, workload, import_s: float, tracer) -> tuple[dict, dict]:
    """Set up, measure, check; returns the full report and the summary line."""
    if tracer:
        tracer.install()
    workload.install_hooks()
    setups = [timed(tracer, "setup", workload.setup)[1] for _ in range(SETUP_REPEATS)]
    setup_s = import_s + statistics.median(setups)
    operations = operation_count(workload, args.seconds)
    attempts, passes, op_seconds, loop_s = run_loop(workload, operations, tracer)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": "closed, one operation at a time, one process",
        "machine": machine(),
        "operations": len(op_seconds),
        "loop_s": loop_s,
        "setup": {"import_s": import_s, "repeats_s": setups},
    }
    report["figures"] = workload_figures(workload, attempts, passes, setup_s)
    report["input"] = input_properties(workload.properties(), attempts)
    counters = diagnostic_counters(attempts)
    if tracer:
        summary = tracer.summary()
        workload.remove_hooks()
        tracer.uninstall()
        workload.install_hooks()
        overhead = tracing_overhead(workload, op_seconds, summary["spans"])
        metrics = layer_metrics(tracer, summary, counters, overhead)
        report["tracing_overhead"] = overhead
        report["io"] = io_rates(tracer, summary)
        report["adjust"] = dict(tracer.adjust)
        report["layers"] = summary["functions"]
        report["edges"] = summary["edges"]
        spans_path = HERE / "out" / f"{args.workload}-seed{args.seed}.spans.npz"
        tracer.write(str(spans_path))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(attempts, passes, setup_s)
        report["counters"] = counters
    workload.remove_hooks()

    probes = workload.probes()
    failed = [a for a in attempts if a.failure is not None]
    correct = all(a.failure != "check" for a in failed) and all(
        r == "ok" or r.startswith("skipped") for r in probes.values()
    )
    report["probes"] = probes
    report["attempted"] = len(attempts)
    report["failed"] = len(failed)
    report["failures"] = failure_table(attempts)
    report["failure_details"] = sorted({f"{a.method}: {a.detail}"[:300] for a in failed})[:20]
    report["attempt_log"] = [[a.method, a.seconds, a.failure] for a in attempts]
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    summary_line = {
        "correct": correct,
        "attempted": len(attempts),
        "failed": len(failed),
        "metrics": report["metrics"],
    }
    return report, summary_line


if __name__ == "__main__":
    sys.exit(main())
