"""Frozen reference eigenvalue tables for the three benchmark systems.

The ``slet`` rows hold the printed shifted-l expansion values.  The
table runner (``slet table``) compares every one of them with the full
assembled energy E0 + E2 + E3.  Four printed Table 2 cells carry a
partial sum of that series instead; :data:`PRINTED_PARTIAL_SUMS` records
which one, and acceptance gate 4 compares those cells with it.  The
other rows come from independent methods that solve the unreduced
two-body equation (square-root, integral and Miller matrix methods) and
are carried as read-only context, never as pass or fail targets.  All
values are binding energies in GeV.

The tables are checksummed; :func:`verify_integrity` fails fast when a
value drifts, so numerical comparisons never run against a corrupted
fixture.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .errors import InternalInconsistencyError

# row labels of the read-only context methods
COMPARISON_ROWS = ("sqrt_method", "integral_method", "miller_method")

# |computed - printed| gate per table, GeV
SLET_TOLERANCES = {1: 1e-5, 2: 5e-4, 3: 5e-4}


@dataclass(frozen=True)
class ReferenceTable:
    """One reference table: configuration plus rows of (n, l) -> value."""

    table_id: int
    potential: str
    m1: float
    m2: float
    rows: dict

    def grid(self):
        """Sorted (n, l) keys of the reproduction-target ``slet`` row."""
        return sorted(self.rows["slet"])


def _row(values, l=0):
    return {(i, l): v for i, v in enumerate(values)}


def _rows3(values_by_l):
    out = {}
    for l, values in enumerate(values_by_l):
        out.update(_row(values, l=l))
    return out


TABLE1 = ReferenceTable(
    table_id=1,
    potential="coulomb:alpha=0.25",
    m1=1.45,
    m2=1.45,
    rows={
        "exact": _row([-0.022394, -0.005648, -0.002514,
                       -0.001415, -0.000906, -0.000629]),
        "slet": _row([-0.02274, -0.00566, -0.002516,
                      -0.001415, -0.000906, -0.000629]),
        "sqrt_method": _row([-0.02306, -0.00574, -0.00254,
                             -0.00143, -0.000912, -0.000635]),
        "integral_method": _row([-0.02251, -0.00556, -0.00244,
                                 -0.00140, -0.00085, -0.00065]),
    },
)

TABLE2 = ReferenceTable(
    table_id=2,
    potential="oscillator:k=1",
    m1=1.310,
    m2=1.310,
    rows={
        "slet": _rows3([
            [1.6536, 3.5048, 5.1409, 6.6269, 8.0049],
            [2.6609, 4.3719, 5.9218, 7.3484, 8.6823],
            [3.6066, 5.2086, 6.6844, 8.0577, 9.3508],
        ]),
        "sqrt_method": _rows3([
            [1.6595, 3.5280, 5.1654, 6.6553, 8.0395],
            [2.6663, 4.3932, 5.9441, 7.3737, 8.7125],
            [3.6110, 5.2268, 6.7039, 8.0796, 9.3766],
        ]),
        "miller_method": _rows3([
            [1.6595, 3.5280, 5.1654, 6.6553, 8.0394],
            [2.6663, 4.3932, 5.9441, 7.3737, 8.7124],
            [3.6110, 5.2268, 6.7039, 8.0796, 9.3765],
        ]),
    },
)

# Printed Table 2 cells that carry a partial sum of the expansion series
# rather than the full energy, given as the SletSolution terms summed.
# A cell is listed when its printed value matches that partial sum within
# 5e-5 GeV and misses the full energy by more than the table tolerance;
# over all 30 cells of Tables 2 and 3 this rule selects these four and
# none of Table 3.  The record sits outside the checksummed payload.
PRINTED_PARTIAL_SUMS = {
    2: {
        # n = 0 column: E0 alone matches to 2.8e-5, 4.2e-5 and 4.3e-5, while
        # the full energy lies 1.39e-2 to 1.49e-2 lower.  The corrections
        # are confirmed by the closed-form alpha1 path and by the exact
        # nonrelativistic oscillator limit, and the same assembly matches
        # the eleven n >= 1 cells to 5.1e-5 or better.
        (0, 0): ("E0",),
        (0, 1): ("E0",),
        (0, 2): ("E0",),
        # printed 5.2086 matches E0 + E2 (5.20862) to 2.3e-5; the full
        # energy 5.20808 lies 5.16e-4 lower.  A last-digit misprint of
        # 5.2081 would look the same.
        (1, 2): ("E0", "E2_term"),
    },
}

TABLE3 = ReferenceTable(
    table_id=3,
    potential="cornell:alpha=0.25,b=0.18",
    m1=1.45,
    m2=1.45,
    rows={
        "slet": _rows3([
            [0.4930, 1.0069, 1.3988, 1.7323, 2.0295],
            [0.8342, 1.2484, 1.5971, 1.9053, 2.1855],
            [1.0958, 1.4600, 1.7796, 2.0685, 2.3345],
        ]),
        "sqrt_method": _rows3([
            [0.4924, 1.0022, 1.3925, 1.7252, 2.0205],
            [0.8345, 1.2481, 1.5960, 1.9033, 2.1793],
            [1.0962, 1.4601, 1.7797, 2.0687, 2.3346],
        ]),
    },
)

TABLES = {1: TABLE1, 2: TABLE2, 3: TABLE3}

# sha256 of the canonical serialization below; update only when the
# transcription itself is deliberately corrected
FIXTURE_SHA256 = "b44e969ec4ce11cb2f1c4d46b7612da5cae7fe2ce9f7aef55d4cfc84238f3d9c"


def canonical_serialization() -> str:
    payload = {}
    for tid, fix in sorted(TABLES.items()):
        payload[str(tid)] = {
            "potential": fix.potential,
            "m1": fix.m1,
            "m2": fix.m2,
            "rows": {
                label: {f"{n},{l}": value
                        for (n, l), value in sorted(cells.items())}
                for label, cells in sorted(fix.rows.items())
            },
        }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def verify_integrity():
    digest = hashlib.sha256(canonical_serialization().encode()).hexdigest()
    if digest != FIXTURE_SHA256:
        raise InternalInconsistencyError(
            f"reference-table checksum mismatch: {digest} != {FIXTURE_SHA256}")
