"""scripts/ab_timing.py runs two slet trees in one process, each from its
own files.

No timing is checked: one block of each workload shows that the script
runs both trees and reports them, not that either is faster.
"""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_timing.py"


def test_each_tree_runs_from_its_own_files(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "slet", copy / "slet",
                    ignore=shutil.ignore_patterns("__pycache__"))

    spec = importlib.util.spec_from_file_location("ab_timing", SCRIPT)
    ab_timing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_timing)
    trees = {"slet_smoke_this": ROOT / "src" / "slet",
             "slet_smoke_copy": copy / "slet"}
    try:
        for name, home in trees.items():
            package = ab_timing.load_tree(name, home.parent)
            # the functions the workloads call, and what they call through
            # their module globals, come from this tree's files
            for function in (package.cli.run_table, package.cli.run_compare,
                             package.engine.solve,
                             package.oracle.solve_selfconsistent):
                assert Path(function.__code__.co_filename).parent == home
            assert package.cli.run_solve.__globals__["engine"] \
                is package.engine
            assert package.engine.pt is package.perturbation
            assert ab_timing.stray_modules(package) == []
        # a module of the package loaded from elsewhere is reported
        sys.modules["slet_smoke_copy.stray"] = shutil
        assert ab_timing.stray_modules(
            sys.modules["slet_smoke_copy"]) == ["slet_smoke_copy.stray"]
    finally:
        for name in [m for m in sys.modules
                     if m.partition(".")[0] in trees]:
            del sys.modules[name]

    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--against", str(copy), "--blocks",
         "1"], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines[:9]] == [
        [name, label] for name in ("tables", "excited", "compare")
        for label in ("this", "against", "this/against")]
    assert all(line.endswith("won 0 of 1 blocks")
               or line.endswith("won 1 of 1 blocks")
               for line in lines[:9] if "us/level" in line)
    assert lines[9:] == [
        f"this     slet_this from {ROOT / 'src' / 'slet'}",
        f"against  slet_against from {copy / 'slet'}"]
