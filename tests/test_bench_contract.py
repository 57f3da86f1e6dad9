"""What the benchmark under ``bench/`` needs from ``slet``.

The benchmark's own tests (``python -m pytest bench``) are outside this
suite, so these checks read its files and catch a rename or a removed
keyword here: every function its tracer wraps still exists where the
tracer looks for it, ``cli.RunManifest`` takes every keyword its
workloads pass, and every field its checks read from a result still
exists.
"""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import slet
import slet.cli  # noqa: F401  (the package does not import its CLI)
from slet.engine import SletSolution

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _tracer()
    for path, attr in tracer.TRACED:
        # the tracer replaces the attribute in its owner's own namespace
        owner = tracer._owner(slet, path)
        assert attr in vars(owner), f"{path}.{attr} is gone"
    with tracer.Tracer(slet):
        pass


def test_run_manifest_takes_workload_keywords():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "RunManifest"]
    assert calls, "bench/workloads.py no longer builds a RunManifest"
    signature = inspect.signature(slet.cli.RunManifest)
    for call in calls:
        assert not call.args
        signature.bind(**dict.fromkeys(kw.arg for kw in call.keywords))


def _reads(filename, function, name):
    """Attribute names and string keys read from ``name`` in ``function``.

    ``function`` is a module-level function or a ``Class.method`` of the
    bench file ``filename``.
    """
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    *owner, func_name = function.split(".")
    if owner:
        tree = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef)
                    and node.name == owner[0])
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == func_name)
    reads = set()
    for node in ast.walk(func):
        if not (isinstance(node, (ast.Attribute, ast.Subscript))
                and isinstance(node.value, ast.Name)
                and node.value.id == name):
            continue
        if isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif (isinstance(node.slice, ast.Constant)
              and isinstance(node.slice.value, str)):
            reads.add(node.slice.value)
    assert reads, f"{filename}: {function} no longer reads {name}"
    return reads


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_record_fields_the_benchmark_reads_exist():
    reads = (_reads("workloads.py", "Tables.outcomes", "rec")
             | _reads("references.py", "series_terms", "record"))
    assert reads - _field_names(slet.cli.SolveRecord) == set()


def test_solution_fields_the_benchmark_reads_exist():
    reads = _reads("workloads.py", "Excited.outcomes", "sol")
    assert reads - _field_names(SletSolution) == set()


def test_compare_row_keys_the_benchmark_reads_exist():
    reads = _reads("workloads.py", "Compare.outcomes", "row")
    cli = slet.cli
    manifest = cli.RunManifest(
        potential=slet.potentials.PotentialModel.coulomb(0.25), m1=1.45,
        m2=1.45, levels=[(0, 0)], method="both", nonrelativistic=True)
    rows, _ = cli.run_compare(manifest)
    assert reads - set(rows[0]) == set()
