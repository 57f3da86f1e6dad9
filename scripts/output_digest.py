"""Print one SHA-256 per family of slet's outputs.

Two checkouts that print the same digests on one machine give the same
outputs bit for bit: every command-line report of the families below,
byte for byte with its exit code and warnings, and every SletSolution
field (by repr, so each float exactly) and warning of fixed level sets.
BLAS runs on one thread, as in the benchmark, so the grid solver's sums
do not depend on the number of cores.  The digests are not portable
across platforms; compare two checkouts on the same machine:

    python scripts/output_digest.py                # this checkout's src
    python scripts/output_digest.py --src DIR/src  # another checkout's

Families:
  table        slet table 1, 2 and 3, as CSV and as JSON
  solve        slet solve, Cornell n 0..40 and l 0..5 as CSV (246 levels)
  breakdown    slet solve --breakdown --method both, oscillator n <= 2,
               l <= 1, as JSON
  closed-form  slet solve --method closed-form, Coulomb n 0..5, as JSON
  compare      the README's Cornell slet compare, as CSV
  levels       every field of engine.solve on the 22 levels of the
               benchmark's excited workload (bench/workloads.py) and the
               Coulomb levels with n <= 13, l in {0, 4}
  two-roots    engine.solve where the r0 equation has two roots, with
               the MultipleRootsWarning text
  sweep        engine.solve over the 1,008 solves of the extreme-input
               sweep, as tests/test_engine.py's sweep_outcomes runs them,
               with each one's warnings

The excited levels and the sweep are read from this checkout's bench/
and tests/, so both trees are digested on the same cases.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
CORNELL = ("--potential", "cornell:alpha=0.25,b=0.18", "--m1", "1.45",
           "--m2", "1.45")
OSCILLATOR = ("--potential", "oscillator:k=1", "--m1", "1.31", "--m2",
              "1.31")
COULOMB = ("--potential", "coulomb:alpha=0.25", "--m1", "1.45", "--m2",
           "1.45")
COMMANDS = {
    "table": [("table", str(t), "--format", f) for t in (1, 2, 3)
              for f in ("csv", "json")],
    "solve": [("solve", *CORNELL, "--n-range", "0:40", "--l-range", "0:5",
               "--format", "csv")],
    "breakdown": [("solve", "--breakdown", "--method", "both", *OSCILLATOR,
                   "--n-range", "0:2", "--l-range", "0:1", "--format",
                   "json")],
    "closed-form": [("solve", "--method", "closed-form", *COULOMB,
                     "--n-range", "0:5", "--format", "json")],
    "compare": [("compare", *CORNELL, "--n-range", "0:2", "--l-range",
                 "0:2", "--format", "csv")],
}
# (potential, equal mass, relativistic, levels), beside the excited ones
COULOMB_LEVELS = (
    ("coulomb:alpha=0.25", 1.45, True,
     tuple((n, l) for n in range(14) for l in (0, 4))),
)
TWO_ROOTS = (
    ("custom:4*r^1-2*r^2+0.3*r^3", 1.45, True,
     ((0, 0), (0, 1), (1, 0), (2, 0), (1, 1))),
    ("custom:4*r^1-2*r^2+0.3*r^3", 1.45, False,
     ((0, 0), (0, 1), (1, 0), (2, 0), (1, 1))),
    ("custom:4*r^1-2*r^2+0.3*r^3", 10.0, True,
     ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0))),
)


def caught(call):
    """(call's result or exception, warnings it issued)."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            result = call()
        except Exception as exc:  # every outcome is part of the digest
            result = exc
    return result, seen


def command_output(cli, argv):
    """repr of argv, exit code, stdout, stderr and warnings of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, seen = caught(lambda: cli.main(list(argv)))
    return repr((argv, code, out.getvalue(), err.getvalue(),
                 warning_texts(seen)))


def warning_texts(seen):
    return [(w.category.__name__, str(w.message)) for w in seen]


def solve_outcome(case, sol, seen):
    """repr of every field of one solve, or of its failure, and warnings."""
    if isinstance(sol, Exception):
        sol = (type(sol).__name__, getattr(sol, "stage", None), str(sol))
    else:
        sol = dataclasses.astuple(sol)
    return repr((case, sol, warning_texts(seen)))


def level_outputs(slet, systems):
    """Solve outcomes of (label, potential, pair, levels) systems."""
    engine = slet.engine
    for label, potential, pair, levels in systems:
        for n, l in levels:
            sol, seen = caught(lambda: engine.solve(
                potential, pair, engine.QuantumNumbers(n, l)))
            yield solve_outcome((label, n, l), sol, seen)


def spec_systems(cases):
    from slet.potentials import ParticlePair, parse_potential
    for spec, m, relativistic, levels in cases:
        yield ((spec, m, relativistic), parse_potential(spec),
               ParticlePair.equal(m, relativistic), levels)


def excited_systems(slet):
    """The benchmark's excited levels, as bench/workloads.py lists them."""
    from workloads import Excited
    for system, levels in Excited.LEVELS:
        yield (system.name, system.potential(slet), system.pair(slet),
               levels)


def sweep_outputs(slet):
    from test_engine import sweep_outcomes
    for case, sol, _, seen in sweep_outcomes(slet.engine.solve):
        yield solve_outcome(case, sol, seen)


def digest(parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode("utf-8") + b"\0")
    return sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the slet package "
                             "(default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "bench"), str(ROOT / "tests")]
    import slet
    from slet import cli
    print(f"slet from {Path(slet.__file__).parent}", file=sys.stderr)
    families = {name: (command_output(cli, argv) for argv in commands)
                for name, commands in COMMANDS.items()}
    families["levels"] = level_outputs(slet, itertools.chain(
        excited_systems(slet), spec_systems(COULOMB_LEVELS)))
    families["two-roots"] = level_outputs(slet, spec_systems(TWO_ROOTS))
    families["sweep"] = sweep_outputs(slet)
    for name, parts in families.items():
        print(f"{name:12s} {digest(parts)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
