"""Start-up probe: a fresh interpreter up to its first finished level.

Run as ``python3 bench/probe.py <workload>`` from the checkout root.  It
imports ``slet``, verifies the reference fixtures, solves one warm-up
level of the workload and then prints ``ready``; the caller times the
interval from starting the process to reading that line.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import slet  # noqa: E402
import slet.cli  # noqa: E402
import workloads  # noqa: E402

slet.fixtures.verify_integrity()
workloads.WORKLOADS[sys.argv[1]](slet).warmup()
print("ready", flush=True)
