"""What the benchmark under ``bench/`` needs from ``slet``.

The benchmark's own tests (``python -m pytest bench``) are outside this
suite, so these checks read its files and catch a rename or a removed
keyword here: every function its tracer wraps still exists where the
tracer looks for it, and ``cli.RunManifest`` takes every keyword its
workloads pass.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import slet
import slet.cli  # noqa: F401  (the package does not import its CLI)

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
