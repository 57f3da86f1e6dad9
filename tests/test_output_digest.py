"""scripts/output_digest.py prints one SHA-256 per output family.

No digest value is pinned: the digests depend on the platform's floating
point and BLAS, and the script is for comparing two checkouts on one
machine.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ["table", "solve", "breakdown", "closed-form", "compare",
            "text", "levels", "two-roots", "sweep"]


def test_one_digest_per_family():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py")],
        capture_output=True, text=True, check=True, timeout=600)
    assert done.stderr == f"slet from {ROOT / 'src' / 'slet'}\n"
    lines = [line.split() for line in done.stdout.splitlines()]
    assert [name for name, _ in lines] == FAMILIES
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in lines)
