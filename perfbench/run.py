"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Run it from anywhere inside a checkout of the repository; it imports the
program from the checkout's ``src/`` and writes its scratch artifacts under
``.perfbench_work/`` at the checkout root, removed on exit.

With ``--trace 0`` the run sets up the workload several times (the median is
``setup_s``), measures the timed phase for ``--seconds``, checks the outputs
and prints every end-to-end metric of ``BENCHMARK.json``.  With ``--trace 1``
it measures half of ``--seconds`` untraced and then the same operations with
the layer spans of ``perfbench/layers.py`` installed, and prints every
per-layer metric.  Human-readable lines come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--self-check`` runs every workload at a tiny size, traced and untraced,
and asserts that every metric named in ``BENCHMARK.json`` is emitted with
its unit.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads.  With OpenBLAS's default of one
# thread per vCPU, on a 2-vCPU machine a 1000-row request took twice as
# long and every third 1-row request stalled for about 4 ms waking the
# worker thread, which split the 1-row latency into two modes.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 9

#: End-to-end metrics and their units; BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "records_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "deploy_di_star": "ratio",
    "deploy_bacc": "ratio",
}


def import_program():
    """Import the checkout's own program, or exit with an error without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'repro'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")
    # Only the public, non-deprecated API: a deprecated call fails the run.
    warnings.simplefilter("error", DeprecationWarning)
    # The benchmark's own modules import the program, so they come after it.
    import layers
    import speed
    import workloads

    return workloads, layers, speed


def measure(workloads, speed, name, seed, seconds, *, tiny, workdir):
    """Untraced run: the end-to-end metrics, at the reference speed."""
    cls = workloads.WORKLOADS[name]
    clock = speed.Clock(1)
    setups, raw_setups = [], []
    workload = None
    for _ in range(2 if tiny else SETUPS):
        if workload is not None:
            workload.close()
        workload = cls(seed, tiny=tiny, workdir=workdir)
        clock.measure(3)
        start = time.perf_counter()
        workload.setup()
        raw_setups.append(time.perf_counter() - start)
        clock.measure(3)
        setups.append(raw_setups[-1] * clock.scale)
    try:
        timed = workload.run(seconds=seconds)
        checks = workload.check()
        di_star, bacc = workload.quality()
        report = workload.report()
        latency = workload.latency_p50_ms()
        records = workload.records_per_s()
    finally:
        workload.close()
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": latency,
        "records_per_s": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "deploy_di_star": di_star,
        "deploy_bacc": bacc,
    }
    lines = [
        f"  machine slowdown against the reference speed: {workload.clock.slowdown():.3f} "
        f"(median of {len(workload.clock.probes)} probes), applied at elasticity "
        f"{workload.clock.elasticity:g}; '.raw' values are uncorrected",
        f"  setup_s: median of {len(setups)} set-ups; raw "
        + " ".join(f"{s:.4f}" for s in raw_setups),
    ]
    for key, (value, unit, n) in report.items():
        shown = f"{value:.6g}" if value is not None else "not reported (< 10 samples beyond)"
        lines.append(f"  {key:<34} {shown} {unit}  (n={n})")
    metrics = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
    return metrics, timed, checks, lines


#: The predicted largest layer: (workload, operation kind) -> layer.
PREDICTED_TOP = {
    ("serve", "small"): "profiling",
    ("serve", "large"): "density",
    ("fleet_replay", "step"): "serving.monitor.read",
    ("fit", "round"): "learners",
}


def measure_traced(workloads, layers, name, seed, seconds, *, tiny, workdir):
    """Traced run: the same operations untraced, then traced; per-layer metrics.

    Each pass's wall time leaves out its probes and is scaled to the
    reference speed by them; the traced pass spans its probes so they count
    toward no layer.
    """
    from repro.density import backend_cache_stats

    cls = workloads.WORKLOADS[name]
    warm = cls(seed, tiny=tiny, workdir=workdir)  # first-in-process costs, untimed
    warm.setup()
    warm.close()

    def corrected(wall: float, clock) -> float:
        return (wall - sum(clock.probes)) / clock.divisor()

    # Half the run untraced, then the same iterations traced: a traced run
    # takes about as long as an untraced one.
    plain = cls(seed, tiny=tiny, workdir=workdir)
    start = time.perf_counter()
    plain.setup()
    try:
        timed = plain.run(seconds=seconds / 2)
        untraced_wall = corrected(time.perf_counter() - start, plain.clock)
        checks = plain.check()
        coverage = plain.stats_coverage()
    finally:
        plain.close()

    tracer = layers.Tracer()
    traced = cls(seed, tiny=tiny, workdir=workdir, tracer=tracer)
    with tracer.installed():
        try:
            start = time.perf_counter()
            with tracer.root():
                traced.setup()
                traced_timed = traced.run(iterations=timed.iterations)
            traced_wall = time.perf_counter() - start - sum(traced.clock.probes)
            cache = backend_cache_stats()
            window_chunks = traced.window_chunks()
            if coverage is None:
                coverage = traced.stats_coverage()
            checks += traced.check()
        finally:
            traced.close()
    scale = 1.0 / traced.clock.divisor()
    metrics = layers.layer_metrics(
        tracer,
        traced_wall=traced_wall,
        scale=scale,
        overhead=traced_wall * scale / untraced_wall - 1.0,
        n_ops=traced_timed.n_ops,
        cache=cache,
        window_chunks=window_chunks,
        rejected=getattr(traced, "rejected", 0),
        stats_coverage=coverage,
    )
    timed.attempted += traced_timed.attempted
    timed.failed += traced_timed.failed
    lines = [
        f"  traced {traced_timed.n_ops} operations ({traced_timed.iterations} iterations): "
        f"wall {traced_wall * scale:.3f} s traced, {untraced_wall:.3f} s untraced "
        "(reference speed, probes left out)",
        "  self-time shares by operation kind (% of its attributed time, 0.05 and up):",
    ]
    for kind, shares in layers.layer_shares(tracer).items():
        top = ", ".join(f"{layer} {share:.1f}" for layer, share in shares.items() if share >= 0.05)
        lines.append(f"    {kind:<6} {top}")
        expected = PREDICTED_TOP.get((name, kind))
        if expected is not None:
            actual = next(iter(shares))
            verdict = "confirmed" if actual == expected else f"corrected: {actual} leads"
            lines.append(f"           predicted largest: {expected} -> {verdict}")
    return metrics, timed, checks, lines


def run_one(modules, name, seed, seconds, trace, *, tiny=False):
    """Run one workload; returns (result dict, human-readable lines)."""
    workloads, layers, speed = modules
    workdir = WORKDIR / f"{name}-{seed}-{time.time_ns()}"
    try:
        if trace:
            metrics, timed, checks, lines = measure_traced(
                workloads, layers, name, seed, seconds, tiny=tiny, workdir=workdir
            )
        else:
            metrics, timed, checks, lines = measure(
                workloads, speed, name, seed, seconds, tiny=tiny, workdir=workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    failed_checks = [check for check in checks if not check[1]]
    attempted = timed.attempted + len(checks)
    failed = timed.failed + len(failed_checks)
    lines.append("  checks:")
    lines += [f"    {'ok  ' if ok else 'FAIL'} {what}: {detail}" for what, ok, detail in checks]
    lines.append(
        f"  operations attempted {attempted}, failed {failed}, "
        f"error_rate {failed / attempted if attempted else 0.0:.6g}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, lines


def self_check(modules) -> int:
    """Every workload at a tiny size, untraced and traced: every metric named
    in BENCHMARK.json must be emitted, with its unit, by a correct run, and
    REFERENCE.json must name the same metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if expected[0] != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {expected[0]} != the code's {END_TO_END}")
    reference = json.loads((ROOT / "perfbench" / "REFERENCE.json").read_text())
    if set(reference["end_to_end"]) != set(END_TO_END):
        problems.append("REFERENCE.json end_to_end names differ from BENCHMARK.json")
    for layer in reference.get("layers", []):
        unknown = sorted(set(layer["metrics"]) - set(expected[1]))
        if unknown:
            problems.append(f"REFERENCE.json layer {layer['layer']}: unknown metrics {unknown}")
    for workload in spec["workloads"]:
        for trace in (0, 1):
            result, _ = run_one(modules, workload["name"], 0, 0.2, trace, tiny=True)
            emitted = {key: m["unit"] for key, m in result["metrics"].items()}
            label = f"{workload['name']} --trace {trace}"
            if not result["correct"]:
                problems.append(f"{label}: run not correct ({result['failed']} failed)")
            if emitted != expected[trace]:
                missing = sorted(set(expected[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(expected[trace]))
                units = sorted(
                    k for k in emitted.keys() & expected[trace].keys()
                    if emitted[k] != expected[trace][k]
                )
                problems.append(f"{label}: missing {missing}, extra {extra}, unit mismatch {units}")
            print(f"self-check {label}: {len(emitted)} metrics")
    for problem in problems:
        print(f"self-check FAILED: {problem}")
    print("self-check passed" if not problems else "self-check failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("serve", "fleet_replay", "fit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required unless --self-check is given")
    modules = import_program()
    if args.self_check:
        return self_check(modules)
    import numpy

    result, lines = run_one(modules, args.workload, args.seed, args.seconds, args.trace)
    unmeasured = [key for key, metric in result["metrics"].items() if metric["value"] is None]
    if unmeasured:
        print("\n".join(lines), file=sys.stderr)
        sys.exit(f"perfbench: no value measured for {', '.join(unmeasured)}")
    print(
        f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace} "
        f"(python {platform.python_version()}, numpy {numpy.__version__})"
    )
    print("\n".join(lines))
    for key, metric in result["metrics"].items():
        print(f"  {key:<34} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
