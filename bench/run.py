"""Benchmark of the slet solvers: one workload per run, timed from outside.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

The run measures start-up in fresh interpreters, then repeats whole
passes over the workload's levels, in an order drawn from the seed,
until ``--seconds`` have been spent inside the program.  Every level
is checked against the independent references in ``references.py``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A report of the run is also written to ``bench/out/``.
"""

from __future__ import annotations

import os

# one BLAS thread: the matrix products of the series otherwise spread
# over every core and make the timings depend on what else runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# fresh interpreters started per run to measure set-up; the median is reported
SETUP_REPEATS = 5
# percentiles tried, highest first, for the tail of level_ms
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# per-layer metrics of a traced run, named <traced function>.<quantity>
# with quantity calls, ms (total time) or self_ms; per level unless listed
# in PER_CALL
PER_LAYER = (
    "engine.solve_r0.ms", "engine.r0_residual.calls",
    "engine.geometry_at.self_ms", "potentials.derivative.calls",
    "potentials.derivative.ms", "potentials.evaluate.calls",
    "engine.taylor_coefficients.ms", "potentials.gamma_derivative.calls",
    "perturbation.rspt_coefficients.ms",
    "perturbation.rspt_coefficients.self_ms",
    "perturbation.position_power_matrix.calls",
    "perturbation.position_power_matrix.ms",
    "oracle.solve_selfconsistent.ms", "oracle.effective_operator.calls",
    "oracle.effective_operator.ms", "oracle.escape_radius.calls",
    "fixtures.verify_integrity.ms", "cli.run_table.self_ms",
    "cli.run_compare.self_ms",
)
PER_CALL = ("fixtures.verify_integrity.ms", "cli.run_table.self_ms",
            "cli.run_compare.self_ms")
EIGENSOLVERS = ("oracle.nth_eigenvalue", "oracle.nth_eigenpair")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import ``slet`` from this checkout's ``src``, and nowhere else."""
    if not (SRC / "slet" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program sources at {SRC / 'slet'}")
    sys.path.insert(0, str(SRC))
    import slet
    import slet.cli  # noqa: F401  (the package does not import its CLI)
    if Path(slet.__file__).resolve().parent != SRC / "slet":
        raise SystemExit(f"bench: slet was imported from {slet.__file__}")
    return slet


def measure_setup(workload: str) -> list:
    """Seconds from starting a fresh interpreter to its first finished level."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "probe.py"), workload],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"bench: start-up probe failed with code {code}")
        times.append(elapsed)
    return times


def run_pass(workload, ops):
    """One pass: (per-level sample times in ms, outcomes, busy seconds).

    Only the calls into the program are timed; the checks run outside.
    """
    samples, outcomes = [], []
    busy = 0.0
    for op in ops:
        start = time.perf_counter()
        raw = workload.solve(op)
        spent = time.perf_counter() - start
        busy += spent
        found = workload.outcomes(op, raw)
        samples.append(1e3 * spent / len(found))
        outcomes.extend(found)
    workload.check_pass(outcomes)
    return samples, outcomes, busy


def tail(samples):
    """(percentile, value) of the highest percentile with ten samples beyond.

    Nearest rank: the value is the k-th smallest, k = ceil(n p / 100), and
    n - k samples lie beyond it.  (None, None) when no percentile has ten.
    """
    ordered = sorted(samples)
    for pct in PERCENTILES:
        rank = math.ceil(len(ordered) * pct / 100.0)
        if rank >= 1 and len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None, None


def failure_report(outcomes, known):
    """({level label: (reason, count)}, whether every failure is known)."""
    failed = {}
    all_known = True
    for o in outcomes:
        if o.failure is not None:
            label = f"{o.key} n={o.n} l={o.l}"
            reason, count = failed.get(label, (o.failure, 0))
            failed[label] = (reason, count + 1)
            all_known = all_known and (o.key, o.n, o.l) in known
    return failed, all_known


def energies(outcomes):
    return [(o.key, o.n, o.l, tuple(sorted(o.energies.items())))
            for o in outcomes]


def per_layer_metrics(tracer, levels: int, overhead_ms: float):
    summary = tracer.summary()
    metrics = {}
    for metric in PER_LAYER:
        name, quantity = metric.rsplit(".", 1)
        calls, total, self_time = summary.get(name, (0, 0.0, 0.0))
        value = {"calls": calls, "ms": 1e3 * total,
                 "self_ms": 1e3 * self_time}[quantity]
        if metric in PER_CALL:
            metrics[metric] = {"value": value / max(calls, 1), "unit": "ms/call"}
        else:
            unit = "calls/level" if quantity == "calls" else "ms/level"
            metrics[metric] = {"value": value / levels, "unit": unit}
    eig = [summary.get(name, (0, 0.0, 0.0)) for name in EIGENSOLVERS]
    metrics["oracle.eigensolves"] = {
        "value": sum(c for c, _, _ in eig) / levels, "unit": "calls/level"}
    metrics["oracle.eigensolve.ms"] = {
        "value": 1e3 * sum(t for _, t, _ in eig) / levels, "unit": "ms/level"}
    metrics["oracle.outer_iterations"] = {
        "value": sum(tracer.outer_iterations) / levels, "unit": "count/level"}
    metrics["trace.overhead_ms"] = {"value": overhead_ms, "unit": "ms/level"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    slet = load_program()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    if not args.seconds > 0.0:
        raise SystemExit("bench: --seconds must be positive")

    setup = measure_setup(args.workload)
    workload = workloads.WORKLOADS[args.workload](slet)
    slet.fixtures.verify_integrity()
    workload.warmup()
    passes = workload.passes(args.seed)

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "setup_s": setup}
    correct = True
    samples, outcomes, busy = [], [], 0.0
    if args.trace:
        # untraced and traced passes alternate over the same operations,
        # so speed drift falls on both alike; each gets half the time
        tracer = Tracer(slet)
        with tracer:
            slet.fixtures.verify_integrity()
        traced_samples, traced = [], []
        while busy < args.seconds / 2.0:
            ops = next(passes)
            got = run_pass(workload, ops)
            with tracer:
                again = run_pass(workload, ops)
            if energies(got[1]) != energies(again[1]):
                correct = False
                report["trace_mismatch"] = True
            samples += got[0]
            outcomes += got[1]
            busy += got[2]
            traced_samples += again[0]
            traced += again[1]
        overhead = statistics.median(traced_samples) - statistics.median(samples)
        metrics = per_layer_metrics(tracer, len(traced), overhead)
        outcomes += traced
    else:
        while busy < args.seconds:
            got = run_pass(workload, next(passes))
            samples += got[0]
            outcomes += got[1]
            busy += got[2]
        pct, high = tail(samples)
        metrics = {
            "levels_per_s": {"value": len(outcomes) / busy, "unit": "levels/s"},
            "level_ms": {"value": statistics.median(samples), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "max_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        report["level_ms_tail"] = {"percentile": pct, "value": high,
                                   "samples": len(samples)}

    failed, all_known = failure_report(outcomes, workload.KNOWN_FAULTS)
    correct = correct and all_known
    attempted = len(outcomes)
    n_failed = sum(count for _, count in failed.values())
    report.update(attempted=attempted, failed=n_failed,
                  levels_per_pass=workload.levels_per_pass(),
                  failures={k: {"reason": r, "count": c}
                            for k, (r, c) in failed.items()},
                  metrics=metrics)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"levels attempted {attempted}, failed {n_failed} "
          f"({workload.levels_per_pass()} levels per pass)")
    for label, (reason, count) in sorted(failed.items()):
        print(f"  FAILED {label} x{count}: {reason}")
    if not args.trace:
        tail_info = report["level_ms_tail"]
        if tail_info["percentile"] is not None:
            print(f"level_ms p{tail_info['percentile']:g} "
                  f"{tail_info['value']:.4f} ms over {len(samples)} samples")
        else:
            print(f"level_ms median only: {len(samples)} samples")
        print("setup_s samples " + " ".join(f"{t:.4f}" for t in setup))
    for name, entry in metrics.items():
        print(f"  {name:42s} {entry['value']:14.6g} {entry['unit']}")

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
