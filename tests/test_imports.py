"""What importing the package costs: the modules it pulls in."""

import json
import os
import subprocess
import sys
from pathlib import Path

import slet


def imported_modules(statement):
    """Names in sys.modules after ``statement`` in a fresh interpreter."""
    src = str(Path(slet.__file__).resolve().parents[1])
    code = f"import json, sys; {statement}; print(json.dumps(list(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    return set(json.loads(out))


def test_no_scipy_optimize():
    # the r0 and wall polishes are slet's own; scipy.optimize alone adds
    # about 0.3 s to every fresh `slet` process
    modules = imported_modules("import slet, slet.cli")
    assert "slet.cli" in modules
    assert not {m for m in modules if m.split(".")[:2] == ["scipy", "optimize"]}
