"""Benchmark of the ionfridge paper studies.

Run from the repository root (the package is imported from ``./src``)::

    python3 perfbench/run.py --workload relaxation --seed 0 --seconds 22 --trace 0
    python3 perfbench/run.py --smoke

Workloads: ``relaxation`` (fig3), ``equilibrium`` (fig2), ``single_shot``
(fig4) and ``thermometry`` (sideband fits); see ``workloads.py``.  Each is a
closed loop with one caller: the next op starts when the last one ends.  A
run makes a fixed amount of work, the number of passes of its study that
take about ``--seconds`` on a shared 2-vCPU x86-64 host, so the work and its counts
repeat exactly for a given seed.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
processes that import the package, parse the scenarios, generate the inputs
and finish one warm-up op), ``wall_s``, ``throughput_ops_s`` and
``peak_rss_mb``; then report lines outside the result: op latency median and
tail (with its percentile and sample count), error rate and warning count.
``--trace 1`` runs the same ops untraced and then traced (``tracing.py``),
and prints the per-layer metrics and the tracing overhead.  The last line
of standard output is the result as one JSON object; the line before it
holds the details (run environment, work counts).  Every op is checked; any
failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
#: fitted values at the reference seed may move by this share of their error
FIT_REFERENCE_SHARE = 0.01


def _load_package():
    """Import the package, the workloads and the tracer from the checkout in the cwd."""
    src = Path.cwd() / "src"
    if not (src / "ionfridge" / "__init__.py").is_file():
        raise SystemExit("error: src/ionfridge not found; run from the repository root")
    sys.path.insert(0, str(src))
    import ionfridge
    if Path(ionfridge.__file__).resolve().parent != (src / "ionfridge").resolve():
        raise SystemExit(f"error: imported ionfridge from {ionfridge.__file__}, not ./src")
    import tracing
    import workloads
    return workloads, tracing


def scratch_dir():
    """Temporary directory under ``.bench_out`` in the checkout."""
    bench_out = Path.cwd() / ".bench_out"
    bench_out.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=bench_out)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _blas_threads() -> dict:
    """Thread counts of the OpenBLAS copies numpy and scipy ship, if found."""
    import ctypes
    out = {}
    for pkg in (np, scipy):
        libs = sorted(Path(pkg.__file__).parent.parent.glob(f"{pkg.__name__}.libs/*openblas*"))
        for lib in libs:
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    fn = getattr(handle, symbol)
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
    }


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


def build(workloads, name: str, seed: int, seconds: float, tiny: bool, out_dir: Path):
    cls = workloads.WORKLOADS[name]
    passes = 1 if tiny else max(1, round(seconds / cls.nominal_pass_s))
    wl = cls(seed, passes, tiny, out_dir)
    return wl, wl.generate()


def warm_up(wl, ops) -> None:
    pass0 = [op for op in ops if op.pass_id == 0]
    wl.run(pass0[min(wl.warmup, len(pass0) - 1)], {})


def run_ops(wl, ops, tracer=None):
    """Closed loop over ``ops``; returns wall time, latencies, summaries, errors."""
    contexts: dict[int, dict] = {}
    latencies, summaries, errors = [], [], []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        if tracer is not None:
            tracer.op = op.op_id
        ctx = contexts.setdefault(op.pass_id, {})
        t0 = clock()
        try:
            summary, error = wl.run(op, ctx), None
        except Exception as exc:          # an op that raises counts as failed
            summary, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        summaries.append(summary)
        errors.append(error)
    wall = clock() - start
    if tracer is not None:
        tracer.op = None
    return wall, latencies, summaries, errors


def check_ops(wl, ops, summaries, errors) -> tuple[list[str], int]:
    """Failure messages and the number of ops that raised or failed a check."""
    failures, failed_ops = [], 0
    for op, summary, error in zip(ops, summaries, errors):
        try:
            problems = [error] if error else wl.check(op, summary)
        except Exception as exc:          # a check that cannot run fails its op
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        failures += [f"op {op.op_id} ({op.label}): {p}" for p in problems]
        failed_ops += bool(problems)
    return failures, failed_ops


def _same(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _scalars(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if isinstance(v, float)}


def _reference_tolerance(key: str, ref: dict) -> float:
    from ionfridge.experiments import TAU_STAR_RESOLUTION
    from workloads import SOLVER_TOL
    if f"{key}.err" in ref:               # a fitted value: a share of its error
        return FIT_REFERENCE_SHARE * ref[f"{key}.err"]
    if key.endswith(".err") or key == "chi2":
        return 1e-3 * abs(ref[key])
    if key == "tau_star":                 # golden-section search resolution
        return TAU_STAR_RESOLUTION
    return SOLVER_TOL * max(1.0, abs(ref[key]))


def compare_reference(name: str, ops, summaries) -> list[str]:
    refs = json.loads(REFERENCE.read_text())["workloads"][name]
    got = [_scalars(s) for op, s in zip(ops, summaries) if op.pass_id == 0 and s is not None]
    if len(got) != len(refs):
        return [f"reference: {len(got)} ops in pass 0, stored {len(refs)}"]
    failures = []
    for i, (ref, cur) in enumerate(zip(refs, got)):
        for key, value in ref.items():
            tol = _reference_tolerance(key, ref)
            if key not in cur or not abs(cur[key] - value) <= tol:
                failures.append(f"reference: op {i} {key} = {cur.get(key)!r}, "
                                f"stored {value!r} (tol {tol:.1e})")
    return failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(latencies) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten samples beyond it
    (the maximum when there are too few samples for one)."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(setup_s, wall, n_ok) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "throughput_ops_s": (n_ok / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(totals: dict, warnings_by_layer: dict, overhead_s: float, spans: int) -> dict:
    def g(group, key="self_s"):
        return totals.get(group, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    kept, candidates = g("fockspace", "kept_sectors"), g("fockspace", "candidate_sectors")
    grid_calls = g("dynamics.grid", "calls")
    lm_iterations = g("measurement.lm", "iterations")
    return {
        "trap.calls": (g("trap", "calls"), "count"),
        "trap.self_s": (g("trap"), "s"),
        "states.calls": (g("states", "calls"), "count"),
        "states.self_s": (g("states"), "s"),
        "states.ladder_entries": (g("states", "ladder_entries"), "count"),
        "fockspace.calls": (g("fockspace", "calls"), "count"),
        "fockspace.self_s": (g("fockspace"), "s"),
        "fockspace.candidate_sectors": (candidates, "count"),
        "fockspace.kept_sectors": (kept, "count"),
        "fockspace.kept_ratio": (ratio(kept, candidates), "ratio"),
        "dynamics.assemble.self_s": (g("dynamics.assemble"), "s"),
        "dynamics.assemble.sectors": (g("dynamics.assemble", "sectors"), "count"),
        "dynamics.spectrum.self_s": (g("dynamics.spectrum"), "s"),
        "dynamics.spectrum.sum_dim": (g("dynamics.spectrum", "sum_dim"), "count"),
        "dynamics.grid.calls": (grid_calls, "count"),
        "dynamics.grid.self_s": (g("dynamics.grid"), "s"),
        "dynamics.grid.points_per_call": (ratio(g("dynamics.grid", "points"), grid_calls),
                                          "count"),
        "dynamics.grid.terms": (g("dynamics.grid", "terms"), "count"),
        "dynamics.grid.terms_per_s": (ratio(g("dynamics.grid", "terms"), g("dynamics.grid")),
                                      "1/s"),
        "dynamics.grid.small_calls": (g("dynamics.grid", "small_calls"), "count"),
        "dynamics.dephased.calls": (g("dynamics.dephased", "calls"), "count"),
        "dynamics.dephased.self_s": (g("dynamics.dephased"), "s"),
        "dynamics.incoherent.self_s": (g("dynamics.incoherent"), "s"),
        "benchmarks.calls": (g("benchmarks", "calls"), "count"),
        "benchmarks.self_s": (g("benchmarks"), "s"),
        "measurement.fit.calls": (g("measurement.fit", "calls"), "count"),
        "measurement.fit.self_s": (g("measurement.fit"), "s"),
        "measurement.lm.self_s": (g("measurement.lm"), "s"),
        "measurement.lm_iterations": (lm_iterations, "count"),
        "measurement.lm_accept_ratio": (ratio(g("measurement.lm", "accepted"), lm_iterations),
                                        "ratio"),
        "measurement.warnings": (warnings_by_layer.get("measurement", 0), "count"),
        "measurement.forward.self_s": (g("measurement.forward"), "s"),
        "measurement.estimator.calls": (g("measurement.estimator", "calls"), "count"),
        "experiments.self_s": (g("experiments"), "s"),
        "experiments.scenario.self_s": (g("experiments.scenario"), "s"),
        "experiments.csv.self_s": (g("experiments.csv"), "s"),
        "experiments.csv.bytes": (g("experiments.csv", "bytes"), "bytes"),
        "oracle.calls": (g("oracle", "calls"), "count"),
        "oracle.self_s": (g("oracle"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (spans, "count"),
    }


def emit(metrics: dict, report: dict, detail: dict, n_ops: int, failures: list[str]) -> int:
    """Print the metrics and ``report`` lines, the detail line and the result line."""
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": n_ops,
        "failed": detail["failed_ops"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def probe_setup(args) -> float:
    """Median wall time of fresh processes that set up and warm up."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return statistics.median(times)


def oracle_failures(workloads, seed: int) -> list[str]:
    deviation = workloads.oracle_deviation(seed)
    if deviation <= workloads.SOLVER_TOL:
        return []
    return [f"oracle spot check: deviation {deviation:.3e} > {workloads.SOLVER_TOL:g}"]


def traced_pass(workloads, tracing, wl_args, warn, ops_untraced, results_untraced):
    """Traced rerun of the same seed; returns the tracer, its wall time and failures."""
    tracer = tracing.Tracer()
    warn.tracer = tracer
    tracer.install(workloads)
    try:
        tracer.op = "setup"
        wl, ops = build(workloads, *wl_args)
        tracer.op = "oracle"
        failures = oracle_failures(workloads, wl.seed)
        wall, _, summaries, errors = run_ops(wl, ops, tracer)
    finally:
        tracer.uninstall()
        warn.tracer = None
    failures += check_ops(wl, ops, summaries, errors)[0]
    if len(ops) != len(ops_untraced) or not all(
            _same(a, b) for a, b in zip(results_untraced, summaries)):
        failures.append("traced results differ from untraced results")

    # the computed counts of pass 0 must repeat exactly in a second traced run
    again = tracing.Tracer()
    again.install(workloads)
    try:
        run_ops(wl, [op for op in ops if op.pass_id == 0], again)
    finally:
        again.uninstall()
    first, second = tracer.op_counts(), again.op_counts()
    pass0 = [op.op_id for op in ops if op.pass_id == 0]
    if any(first.get(i) != second.get(i) for i in pass0):
        failures.append("computed work counts differ between two traced runs of pass 0")
    return tracer, wall, failures


def run_workload(args, workloads, tracing) -> int:
    env = environment()
    setup_s = probe_setup(args) if not args.trace else math.nan
    with scratch_dir() as tmp, tracing.WarningCounter() as warn:
        wl_args = (args.workload, args.seed, args.seconds, False, Path(tmp))
        wl, ops = build(workloads, *wl_args)
        warm_up(wl, ops)
        failures = [] if args.trace else oracle_failures(workloads, args.seed)
        warnings_before = warn.total
        wall, latencies, summaries, errors = run_ops(wl, ops)
        op_warnings = warn.total - warnings_before
        op_failures, failed_ops = check_ops(wl, ops, summaries, errors)
        failures += op_failures
        if args.seed == REFERENCE_SEED:
            failures += compare_reference(args.workload, ops, summaries)
        # printed but not result metrics: op latency quantiles vary between
        # runs of the same code by more than any bound the result may carry on
        # a shared host, and error_rate is 0 on a correct run (failures show
        # in "failed" and the exit code)
        tail_s, tail_pct = tail(latencies)
        report = {"op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
                  "op_tail_ms": (tail_s * 1e3, "ms"), "op_tail_pct": (tail_pct, "%"),
                  "op_samples": (len(ops), "count"),
                  "error_rate": (failed_ops / len(ops), "ratio"),
                  "warnings": (op_warnings, "count")}
        detail = {"workload": args.workload, "seed": args.seed, "passes": wl.passes,
                  "failed_ops": failed_ops, "environment": env}
        if not args.trace:
            metrics = end_to_end(setup_s, wall, len(ops) - failed_ops)
        else:
            tracer, traced_wall, trace_failures = traced_pass(
                workloads, tracing, wl_args, warn, ops, summaries)
            failures += trace_failures
            totals = tracer.group_totals()
            metrics = per_layer(totals, warn.by_layer, traced_wall - wall, len(tracer.spans))
            report["traced_wall_s"] = (traced_wall, "s")
            detail["counts"] = {f"{group}.{key}": value for group, t in totals.items()
                                for key, value in t.items() if key != "self_s"}
    detail.update({name: value for name, (value, _) in report.items()})
    return emit(metrics, report, detail, len(ops), failures)


def run_probe(args, workloads, tracing) -> int:
    with scratch_dir() as tmp, tracing.WarningCounter():
        wl, ops = build(workloads, args.workload, args.seed, args.seconds, False, Path(tmp))
        warm_up(wl, ops)
    return 0


def run_smoke(workloads, tracing) -> int:
    """Every workload at a tiny size, untraced and traced, through every check."""
    status = 0
    for name in workloads.WORKLOADS:
        t0 = time.perf_counter()
        with scratch_dir() as tmp, tracing.WarningCounter() as warn:
            wl_args = (name, 0, 0.0, True, Path(tmp))
            wl, ops = build(workloads, *wl_args)
            _, _, summaries, errors = run_ops(wl, ops)
            failures = check_ops(wl, ops, summaries, errors)[0]
            failures += traced_pass(workloads, tracing, wl_args, warn, ops, summaries)[2]
        verdict = "ok" if not failures else "FAILED"
        print(f"smoke {name:12s} {len(ops):3d} ops {time.perf_counter() - t0:6.2f} s {verdict}")
        for failure in failures:
            print(f"  {failure}")
        status |= bool(failures)
    return status


def write_reference(workloads, tracing) -> int:
    """Store pass-0 results of every workload at the reference seed."""
    stored = {}
    with scratch_dir() as tmp, tracing.WarningCounter():
        for name, cls in workloads.WORKLOADS.items():
            wl, ops = build(workloads, name, REFERENCE_SEED, cls.nominal_pass_s, False, Path(tmp))
            _, _, summaries, errors = run_ops(wl, ops)
            failures = check_ops(wl, ops, summaries, errors)[0]
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            stored[name] = [_scalars(s) for s in summaries]
    REFERENCE.write_text(json.dumps({"seed": REFERENCE_SEED, "workloads": stored},
                                    indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size through all checks")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store pass-0 results at seed {REFERENCE_SEED} as the reference")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workloads, tracing = _load_package()
    if args.smoke:
        return run_smoke(workloads, tracing)
    if args.write_reference:
        return write_reference(workloads, tracing)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.probe:
        return run_probe(args, workloads, tracing)
    return run_workload(args, workloads, tracing)


if __name__ == "__main__":
    sys.exit(main())
