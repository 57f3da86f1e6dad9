"""Every public function and class in slet serves the package itself.

A module-level function or class that nothing else in ``src/slet`` names
is there only for the tests, and its check belongs in the tests.  The
functions the benchmark's tracer wraps (``TRACED`` in ``bench/tracer.py``)
are exempt, because the benchmark looks them up by name.
"""

import ast
import importlib.util
from pathlib import Path

import slet

SRC = Path(slet.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"


def traced():
    """The (owner path, attribute) pairs that the benchmark's tracer wraps."""
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return set(module.TRACED)


def test_every_public_name_is_named_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py")}
    defined = {(stem, node.name) for stem, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = {f"{stem}.{name}" for stem, name in defined - traced()
              if name not in named}
    assert unused == set()
