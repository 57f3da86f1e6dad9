"""What importing the package costs: the modules each command pulls in."""

import json
import os
import subprocess
import sys
from pathlib import Path

import slet

CORNELL_LEVEL = ("'--potential', 'cornell:alpha=0.25,b=0.18', '--m1', '1.45', "
                 "'--m2', '1.45', '--n', '1', '--l', '1'")


def run_fresh(code):
    """Standard output of ``code`` run in a fresh interpreter."""
    src = str(Path(slet.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=src,
                          env={**os.environ, "PYTHONPATH": src}).stdout


def imported_modules(statement):
    """Names in sys.modules after ``statement`` in a fresh interpreter."""
    out = run_fresh(f"import json, sys; {statement}; "
                    "print(json.dumps(list(sys.modules)))")
    return set(json.loads(out.splitlines()[-1]))


def scipy_modules(modules):
    return {m for m in modules if m.split(".")[0] == "scipy"}


def test_no_scipy_optimize():
    # the r0 and wall polishes are slet's own; scipy.optimize alone adds
    # about 0.3 s to every fresh `slet` process
    modules = imported_modules("import slet, slet.cli")
    assert "slet.cli" in modules
    assert not {m for m in modules if m.split(".")[:2] == ["scipy", "optimize"]}


def test_package_import_loads_nothing():
    modules = imported_modules("import slet")
    assert not {m for m in modules if m.startswith("slet.")}
    assert "numpy" not in modules
    assert not scipy_modules(modules)


def test_expansion_commands_run_without_scipy():
    # scipy.linalg is the grid solver's alone, and costs about 0.2 s
    for argv in ("'table', '3'",
                 f"'solve', {CORNELL_LEVEL}, '--method', 'slet'"):
        modules = imported_modules(
            f"from slet.cli import main; assert main([{argv}]) in (0, 5)")
        assert "slet.engine" in modules
        assert not scipy_modules(modules), argv
        assert "slet.oracle" not in modules


def test_grid_solver_command_imports_oracle():
    modules = imported_modules(
        f"from slet.cli import main; "
        f"assert main(['solve', {CORNELL_LEVEL}, '--method', 'oracle']) == 0")
    assert "slet.oracle" in modules


def test_submodules_resolve_as_attributes():
    out = run_fresh(
        "import slet\n"
        "print(slet.oracle.__name__, hasattr(slet, 'no_such_module'))\n")
    assert out.split() == ["slet.oracle", "False"]


def test_missing_dependency_stays_an_import_error():
    # a submodule whose own import fails is not a missing attribute
    out = run_fresh(
        "import sys\n"
        "sys.modules['scipy.linalg'] = None\n"
        "import slet\n"
        "try:\n"
        "    slet.oracle\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n")
    assert out.split() == ["scipy.linalg.lapack"]
