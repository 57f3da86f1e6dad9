"""Time this checkout's slet against another's, interleaved in one process.

    python scripts/ab_timing.py --against DIR/src
    python scripts/ab_timing.py --against DIR/src --blocks 5

Each tree's ``slet`` package is imported from its own directory under its
own name (``slet_this`` and ``slet_against``); its relative imports and
its lazy submodule loader resolve inside that directory, and the script
exits 1 if a module of either package was loaded from elsewhere.  Both
trees then run with the same numpy, one BLAS thread (as in the
benchmark) and the same machine state, which timing them in two
processes minutes apart does not give.

The ``tables``, ``excited`` and ``compare`` workloads of
``bench/workloads.py`` run in blocks.  In each block every tree runs
REPEATS passes over the workload's operations, the order of the trees
alternating from block to block; only the calls into the program are
timed, as in ``bench/run.py``.  A tree's figure for a block is its
fastest pass in microseconds per level.  Per workload and tree the
script prints the best and the median figure over the blocks and the
blocks the tree won (a tie counts for neither), then this tree's best
and median divided by the other's.

It measures in-process time per level only.  Start-up time and memory
are the benchmark's, and no figure here replaces a bound of
BENCHMARK.json.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("tables", "excited", "compare")
REPEATS = 5


def load_tree(name, src):
    """The ``slet`` package in directory ``src``, imported as ``name``."""
    package = Path(src).resolve() / "slet"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"ab_timing: no slet package at {package}")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def stray_modules(package):
    """Loaded modules of ``package`` whose file is not in its directory."""
    home = Path(package.__file__).parent
    return sorted(name for name, module in list(sys.modules.items())
                  if name.partition(".")[0] == package.__name__
                  and Path(module.__file__).parent != home)


def pass_figure(workload):
    """Microseconds per level of one pass over the workload's operations."""
    busy = 0.0
    for op in workload.operations():
        start = time.perf_counter()
        workload.solve(op)
        busy += time.perf_counter() - start
    return 1e6 * busy / workload.levels_per_pass()


def time_workload(cls, trees, blocks):
    """{tree label: fastest pass of each block}, trees interleaved."""
    runs = {label: cls(package) for label, package in trees.items()}
    for workload in runs.values():
        workload.warmup()
    figures = {label: [] for label in trees}
    order = list(trees)
    for _ in range(blocks):
        for label in order:
            figures[label].append(min(pass_figure(runs[label])
                                      for _ in range(REPEATS)))
        order.reverse()
    return figures


def report(name, figures):
    """Lines of one workload: each tree's best, median and blocks won,
    then this tree's best and median over the other's."""
    (this, mine), (other, theirs) = figures.items()
    won = {this: sum(a < b for a, b in zip(mine, theirs)),
           other: sum(b < a for a, b in zip(mine, theirs))}
    lines = [f"{name:8s} {label:8s} best {min(values):10.1f}  median "
             f"{statistics.median(values):10.1f} us/level  won "
             f"{won[label]} of {len(values)} blocks"
             for label, values in figures.items()]
    lines.append(f"{name:8s} {this}/{other}  best "
                 f"{min(mine) / min(theirs):.3f}  median "
                 f"{statistics.median(mine) / statistics.median(theirs):.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True,
                        help="directory that holds the other checkout's "
                             "slet package, e.g. DIR/src")
    parser.add_argument("--blocks", type=int, default=25,
                        help="interleaved blocks per workload (default 25)")
    args = parser.parse_args(argv)
    if args.blocks < 1:
        parser.error("--blocks must be at least 1")
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    trees = {"this": load_tree("slet_this", ROOT / "src"),
             "against": load_tree("slet_against", args.against)}
    for name in WORKLOADS:
        figures = time_workload(workloads.WORKLOADS[name], trees,
                                args.blocks)
        print("\n".join(report(name, figures)), flush=True)
    if "slet" in sys.modules:  # an absolute import inside either tree
        print("ab_timing: a package named slet was imported",
              file=sys.stderr)
        return 1
    for label, package in trees.items():
        stray = stray_modules(package)
        if stray:
            print(f"ab_timing: {label} loaded {stray} from outside "
                  f"{Path(package.__file__).parent}", file=sys.stderr)
            return 1
        print(f"{label:8s} {package.__name__} from "
              f"{Path(package.__file__).parent}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
