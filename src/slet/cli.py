"""Command line front end: solves, table reproduction, method comparison.

Subcommands
-----------
solve      one or more (n, l) levels with a chosen method
table      recompute a reference table and report per-cell divergence
compare    run the expansion and the grid solver side by side
breakdown  one level with every intermediate quantity dumped

Exit codes: 0 success, 2 invalid input, 3 convergence failure,
4 unphysical regime, 5 table divergence beyond tolerance.

Output formats are ``text`` (default, energies at 6 significant digits),
``csv`` (full float precision, stable byte-for-byte across runs) and
``json`` (canonical form: re-serializing a parsed report reproduces the
file exactly).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

from . import engine, fixtures, oracle
from .errors import ConvergenceError, SletError, UnphysicalRegimeError
from .potentials import ParticlePair, PotentialModel, parse_potential

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_UNPHYSICAL = 4
EXIT_DIVERGENCE = 5

METHODS = ("slet", "oracle", "both", "closed-form")
FORMATS = ("csv", "json", "text")


@dataclass
class RunManifest:
    """One batch of solves as described on the command line."""

    potential: PotentialModel
    m1: float
    m2: float
    levels: list
    method: str = "slet"
    out_format: str = "text"
    out: str | None = None
    nonrelativistic: bool = False
    breakdown: bool = False
    grid_points: int | None = None
    rmax: float | None = None

    def pair(self) -> ParticlePair:
        return ParticlePair(self.m1, self.m2,
                            relativistic=not self.nonrelativistic)

    def grid(self):
        if self.grid_points is None and self.rmax is None:
            return None
        return oracle.default_grid(
            self.potential, self.pair(),
            point_count=self.grid_points or oracle.DEFAULT_POINT_COUNT,
            r_max=self.rmax)


def _csv_cell(value) -> str:
    """One CSV cell: empty for None, repr for a float (exact round trip)."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


@dataclass
class SolveRecord:
    """One CSV/JSON row of a solve report."""

    potential: str
    m1: float
    m2: float
    n: int
    l: int
    method: str
    E_binding_GeV: float | None = None
    M_GeV: float | None = None
    r0: float | None = None
    Q: float | None = None
    omega: float | None = None
    alpha1: float | None = None
    alpha2: float | None = None
    status: str = "ok"

    FIELDS = ("potential", "m1", "m2", "n", "l", "method", "E_binding_GeV",
              "M_GeV", "r0", "Q", "omega", "alpha1", "alpha2", "status")

    def row(self):
        return [_csv_cell(getattr(self, name)) for name in self.FIELDS]

    def as_dict(self):
        return {name: getattr(self, name) for name in self.FIELDS}


CSV_HEADER = ",".join(SolveRecord.FIELDS)


def _record_from_slet(manifest, sol) -> SolveRecord:
    return SolveRecord(
        potential=manifest.potential.label, m1=manifest.m1, m2=manifest.m2,
        n=sol.n, l=sol.l, method="slet",
        E_binding_GeV=sol.binding_energy, M_GeV=sol.mass, r0=sol.r0,
        Q=sol.Q, omega=sol.omega, alpha1=sol.alpha1, alpha2=sol.alpha2)


def _failed_record(manifest, n, l, method, exc) -> SolveRecord:
    return SolveRecord(potential=manifest.potential.label, m1=manifest.m1,
                       m2=manifest.m2, n=n, l=l, method=method,
                       status=f"error:{type(exc).__name__}")


def solve_level(manifest: RunManifest, n: int, l: int, method: str):
    """(record, solution-or-None) for one level with one method."""
    qn = engine.QuantumNumbers(n, l)
    pair = manifest.pair()
    if method == "slet":
        sol = engine.solve(manifest.potential, pair, qn)
        return _record_from_slet(manifest, sol), sol
    if method == "oracle":
        sol = oracle.solve_selfconsistent(manifest.potential, pair, qn,
                                          grid=manifest.grid())
        rec = SolveRecord(potential=manifest.potential.label, m1=manifest.m1,
                          m2=manifest.m2, n=n, l=l, method="oracle",
                          E_binding_GeV=sol.binding_energy, M_GeV=sol.mass)
        return rec, sol
    if method == "closed-form":
        if (manifest.potential.kind != "coulomb" or manifest.m1 != manifest.m2
                or l != 0 or manifest.nonrelativistic):
            raise ValueError(
                "closed-form method needs a pure Coulomb potential, equal "
                "masses, l = 0 and a relativistic pair")
        alpha = manifest.potential.coulomb_strength()
        cf = engine.coulomb_closed_form(manifest.m1, alpha, n)
        rec = SolveRecord(potential=manifest.potential.label, m1=manifest.m1,
                          m2=manifest.m2, n=n, l=l, method="closed-form",
                          E_binding_GeV=cf.E0, M_GeV=cf.M, r0=cf.r0, Q=cf.Q)
        return rec, cf
    raise ValueError(f"unknown method {method!r}")


def run_solve(manifest: RunManifest):
    """Records for every requested level; failures become status rows."""
    methods = (("slet", "oracle") if manifest.method == "both"
               else (manifest.method,))
    records = []
    breakdowns = []
    first_error = None
    for n, l in manifest.levels:
        for method in methods:
            try:
                rec, sol = solve_level(manifest, n, l, method)
            except SletError as exc:
                records.append(_failed_record(manifest, n, l, method, exc))
                first_error = first_error or exc
                continue
            records.append(rec)
            if manifest.breakdown and method == "slet":
                breakdowns.append(breakdown_dict(sol))
    return records, breakdowns, first_error


def breakdown_dict(sol: engine.SletSolution):
    """Every intermediate of a solve as a JSON-serializable mapping."""
    return {
        "n": sol.n, "l": sol.l, "r0": sol.r0, "omega": sol.omega,
        "xi": None if math.isinf(sol.xi) else sol.xi,
        "Q": sol.Q, "beta": sol.beta, "lbar": sol.lbar, "E0": sol.E0,
        "eps": list(sol.eps), "delta": list(sol.delta),
        "eps_bar": list(sol.eps_bar), "delta_bar": list(sol.delta_bar),
        "alpha1": sol.alpha1, "alpha2": sol.alpha2,
        "E2_term": sol.E2_term, "E3_term": sol.E3_term,
        "binding_energy": sol.binding_energy, "mass": sol.mass,
        "diagnostics": {
            "r0_residual": sol.diagnostics.r0_residual,
            "r0_function_calls": sol.diagnostics.r0_function_calls,
            "r0_root_count": sol.diagnostics.r0_root_count,
            "q_lbar_gap": sol.diagnostics.q_lbar_gap,
            "alpha1_closed_form": sol.diagnostics.alpha1_closed_form,
            "alpha1_path_gap": sol.diagnostics.alpha1_path_gap,
        },
    }


# -- table reproduction ----------------------------------------------------

def run_table(table_id: int):
    """Recompute one reference table's target row.

    Returns (records, divergences, offending) where divergences maps
    (n, l) to computed minus printed and offending lists the cells whose
    divergence exceeds the table's tolerance.
    """
    fixtures.verify_integrity()
    fix = fixtures.TABLES[table_id]
    potential = parse_potential(fix.potential)
    pair = ParticlePair(fix.m1, fix.m2)
    tolerance = fixtures.SLET_TOLERANCES[table_id]

    records = []
    divergences = {}
    offending = []
    target = fix.cells(fix.slet_row)
    for n, l in fix.grid():
        if table_id == 1:
            cf = engine.coulomb_closed_form(
                fix.m1, potential.coulomb_strength(), n)
            computed = cf.E0
            rec = SolveRecord(potential=fix.potential, m1=fix.m1, m2=fix.m2,
                              n=n, l=l, method="closed-form",
                              E_binding_GeV=computed, M_GeV=cf.M,
                              r0=cf.r0, Q=cf.Q)
        else:
            sol = engine.solve(potential, pair, engine.QuantumNumbers(n, l))
            computed = sol.binding_energy
            rec = _record_from_slet(
                RunManifest(potential=potential, m1=fix.m1, m2=fix.m2,
                            levels=[]), sol)
        records.append(rec)
        gap = computed - target[(n, l)]
        divergences[(n, l)] = gap
        if abs(gap) > tolerance:
            offending.append((n, l, computed, target[(n, l)], gap))
    return records, divergences, offending


# -- comparison ------------------------------------------------------------

def _matching_fixture(manifest: RunManifest):
    for fix in fixtures.TABLES.values():
        if (fix.potential == manifest.potential.label
                and fix.m1 == manifest.m1 and fix.m2 == manifest.m2
                and not manifest.nonrelativistic):
            return fix
    return None


def run_compare(manifest: RunManifest):
    """Per-level records {n, l, slet, oracle, diff, fixtures, status}."""
    fix = _matching_fixture(manifest)
    rows = []
    for n, l in manifest.levels:
        row = {"n": n, "l": l, "E_slet_GeV": None, "E_oracle_GeV": None,
               "difference_GeV": None, "status": "ok"}
        try:
            rec_s, _ = solve_level(manifest, n, l, "slet")
            rec_o, _ = solve_level(manifest, n, l, "oracle")
            row["E_slet_GeV"] = rec_s.E_binding_GeV
            row["E_oracle_GeV"] = rec_o.E_binding_GeV
            row["difference_GeV"] = rec_s.E_binding_GeV - rec_o.E_binding_GeV
        except SletError as exc:
            row["status"] = f"error:{type(exc).__name__}"
        if fix is not None:
            cells = fix.cells(fix.slet_row)
            if (n, l) in cells:
                row["fixture_slet_GeV"] = cells[(n, l)]
            for label in fix.comparison_labels():
                cells = fix.cells(label)
                if (n, l) in cells:
                    row[f"fixture_{label}_GeV"] = cells[(n, l)]
        rows.append(row)
    diffs = [abs(r["difference_GeV"]) for r in rows
             if r["difference_GeV"] is not None]
    summary = {
        "levels": len(rows),
        "failed": sum(1 for r in rows if r["status"] != "ok"),
        "max_abs_difference_GeV": max(diffs) if diffs else None,
        "mean_abs_difference_GeV": (sum(diffs) / len(diffs)) if diffs else None,
    }
    return rows, summary


# -- rendering -------------------------------------------------------------

def render_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SolveRecord.FIELDS)
    for rec in records:
        writer.writerow(rec.row())
    return buf.getvalue()


def render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _fmt(value, width=12):
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return f"{value:.6g}".rjust(width)
    return str(value).rjust(width)


def render_text(records) -> str:
    lines = [f"{'potential':28s} {'m1':>7s} {'m2':>7s} {'n':>2s} {'l':>2s} "
             f"{'method':>11s} {'E_binding':>12s} {'M':>12s} {'status':>12s}"]
    for rec in records:
        lines.append(
            f"{rec.potential:28s} {rec.m1:7.4g} {rec.m2:7.4g} {rec.n:2d} "
            f"{rec.l:2d} {rec.method:>11s} {_fmt(rec.E_binding_GeV)} "
            f"{_fmt(rec.M_GeV)} {rec.status:>12s}")
    return "\n".join(lines) + "\n"


def render_breakdown_text(info) -> str:
    lines = [f"breakdown n={info['n']} l={info['l']}"]
    for key in ("r0", "omega", "xi", "Q", "beta", "lbar", "E0", "alpha1",
                "alpha2", "E2_term", "E3_term", "binding_energy", "mass"):
        lines.append(f"  {key:16s} {_fmt(info[key])}")
    for key in ("eps", "eps_bar", "delta", "delta_bar"):
        parts = ", ".join("-" if v is None else f"{v:.6g}"
                          for v in info[key])
        lines.append(f"  {key:16s} [{parts}]")
    diag = info["diagnostics"]
    lines.append("  diagnostics:")
    for key, value in diag.items():
        lines.append(f"    {key:22s} {value}")
    return "\n".join(lines) + "\n"


def render_table_text(table_id, records, divergences, offending) -> str:
    fix = fixtures.TABLES[table_id]
    target = fix.cells(fix.slet_row)
    ns = sorted({n for n, _ in target})
    ls = sorted({l for _, l in target})
    computed = {(r.n, r.l): r.E_binding_GeV for r in records}
    lines = [f"table {table_id}: {fix.potential}  m1=m2={fix.m1:g} GeV",
             "computed target row:",
             "      " + "".join(f"{'n=' + str(n):>12s}" for n in ns)]
    for l in ls:
        lines.append(f"l={l}   " + "".join(
            f"{computed[(n, l)]:12.6g}" for n in ns if (n, l) in computed))
    lines.append("divergence (computed - printed):")
    for l in ls:
        lines.append(f"l={l}   " + "".join(
            f"{divergences[(n, l)]:12.2e}" for n in ns
            if (n, l) in divergences))
    lines.append(f"tolerance {fixtures.SLET_TOLERANCES[table_id]:g} GeV; "
                 f"{len(offending)} cell(s) beyond tolerance")
    for n, l, got, ref, gap in offending:
        lines.append(f"  OFFENDING n={n} l={l}: computed {got:.6g}, "
                     f"printed {ref:.6g}, divergence {gap:+.2e}")
    return "\n".join(lines) + "\n"


def render_compare_text(rows, summary) -> str:
    keys = sorted({k for row in rows for k in row if k.startswith("fixture")})
    header = (f"{'n':>2s} {'l':>2s} {'E_slet':>12s} {'E_oracle':>12s} "
              f"{'diff':>12s}")
    header += "".join(f"{k.replace('fixture_', '').replace('_GeV', ''):>16s}"
                      for k in keys)
    lines = [header + f" {'status':>12s}"]
    for row in rows:
        line = (f"{row['n']:2d} {row['l']:2d} {_fmt(row['E_slet_GeV'])} "
                f"{_fmt(row['E_oracle_GeV'])} {_fmt(row['difference_GeV'])}")
        line += "".join(_fmt(row.get(k), 16) for k in keys)
        lines.append(line + f" {row['status']:>12s}")
    lines.append(f"levels {summary['levels']}, failed {summary['failed']}, "
                 f"max |diff| {_fmt(summary['max_abs_difference_GeV'], 1)}, "
                 f"mean |diff| {_fmt(summary['mean_abs_difference_GeV'], 1)}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


# -- argument handling -------------------------------------------------------

def _parse_range(spec: str):
    lo, sep, hi = spec.partition(":")
    if not sep:
        raise ValueError(f"range {spec!r} must look like 'lo:hi'")
    lo, hi = int(lo), int(hi)
    if hi < lo:
        raise ValueError(f"empty range {spec!r}")
    return lo, hi


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# converters for config-file values, keyed by option destination
_CONVERTERS = {
    "m1": float, "m2": float, "n": int, "l": int,
    "n_range": _parse_range, "l_range": _parse_range,
    "method": str, "format": str, "out": str, "potential": str,
    "nonrelativistic": _parse_bool, "breakdown": _parse_bool,
    "grid_points": int, "rmax": float,
    "table_id": int, "config": str,
}

_DEFAULTS = {
    "potential": None, "m1": None, "m2": None, "n": None, "l": None,
    "n_range": None, "l_range": None, "method": "slet", "format": "text",
    "out": None, "nonrelativistic": False, "breakdown": False,
    "grid_points": None, "rmax": None, "config": None,
    "table_id": None,
}


def load_config(path: str) -> dict:
    """Plain key=value lines mirroring the long options."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            dest = key.strip().lower().replace("-", "_")
            if dest not in _CONVERTERS:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            values[dest] = _CONVERTERS[dest](value.strip())
    return values


def _add_run_options(sp, single_level=False):
    sp.add_argument("--potential", help="potential spec, e.g. "
                    "cornell:alpha=0.25,b=0.18")
    sp.add_argument("--m1", type=float, help="first mass in GeV")
    sp.add_argument("--m2", type=float, help="second mass in GeV")
    sp.add_argument("--n", type=int, help="radial quantum number")
    sp.add_argument("--l", type=int, help="orbital angular momentum")
    if not single_level:
        sp.add_argument("--n-range", type=_parse_range, metavar="LO:HI")
        sp.add_argument("--l-range", type=_parse_range, metavar="LO:HI")
    sp.add_argument("--format", choices=FORMATS, dest="format")
    sp.add_argument("--out", help="write the report here instead of stdout")
    sp.add_argument("--config", help="key=value file with option defaults")
    sp.add_argument("--nonrelativistic", action="store_true", default=None)
    sp.add_argument("--grid-points", type=int)
    sp.add_argument("--rmax", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slet",
        description="Bound-state binding energies of two-particle systems "
                    "from the reduced semi-relativistic wave equation, via "
                    "the shifted-l expansion and an independent grid solver.")
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("solve", help="solve one or more levels",
                        argument_default=argparse.SUPPRESS)
    _add_run_options(sp)
    sp.add_argument("--method", choices=METHODS)
    sp.add_argument("--breakdown", action="store_true", default=None)

    tp = sub.add_parser("table", help="reproduce a reference table",
                        argument_default=argparse.SUPPRESS)
    tp.add_argument("table_id", type=int, choices=(1, 2, 3))
    tp.add_argument("--format", choices=FORMATS, dest="format")
    tp.add_argument("--out")
    tp.add_argument("--config")

    cp = sub.add_parser("compare", help="expansion vs grid solver",
                        argument_default=argparse.SUPPRESS)
    _add_run_options(cp)

    bp = sub.add_parser("breakdown", help="one level, all intermediates",
                        argument_default=argparse.SUPPRESS)
    _add_run_options(bp, single_level=True)
    return parser


def _merged_options(args) -> dict:
    provided = {k: v for k, v in vars(args).items()
                if k != "command" and v is not None}
    options = dict(_DEFAULTS)
    if "config" in provided:
        options.update(load_config(provided["config"]))
    options.update(provided)
    return options


def _levels_from_options(options) -> list:
    explicit = options["n"] is not None or options["l"] is not None
    ranged = (options.get("n_range") is not None
              or options.get("l_range") is not None)
    if explicit and ranged:
        raise ValueError("give either --n/--l or --n-range/--l-range, "
                         "not both")
    if ranged:
        n_lo, n_hi = options.get("n_range") or (0, 0)
        l_lo, l_hi = options.get("l_range") or (0, 0)
        return [(n, l) for n in range(n_lo, n_hi + 1)
                for l in range(l_lo, l_hi + 1)]
    n = options["n"] if options["n"] is not None else 0
    l = options["l"] if options["l"] is not None else 0
    return [(n, l)]


def manifest_from_options(options) -> RunManifest:
    if not options.get("potential"):
        raise ValueError("a --potential spec is required")
    if options.get("m1") is None or options.get("m2") is None:
        raise ValueError("--m1 and --m2 are required")
    return RunManifest(
        potential=parse_potential(options["potential"]),
        m1=options["m1"], m2=options["m2"],
        levels=_levels_from_options(options),
        method=options.get("method", "slet"),
        out_format=options["format"] or "text",
        out=options.get("out"),
        nonrelativistic=bool(options.get("nonrelativistic")),
        breakdown=bool(options.get("breakdown")),
        grid_points=options.get("grid_points"),
        rmax=options.get("rmax"),
    )


def _exit_code_for(exc) -> int:
    if isinstance(exc, UnphysicalRegimeError):
        return EXIT_UNPHYSICAL
    if isinstance(exc, ConvergenceError):
        return EXIT_NO_CONVERGENCE
    if isinstance(exc, (ValueError, KeyError)):
        return EXIT_INVALID_INPUT
    return EXIT_NO_CONVERGENCE


def cmd_solve(options) -> int:
    manifest = manifest_from_options(options)
    records, breakdowns, first_error = run_solve(manifest)
    if manifest.out_format == "csv":
        _emit(render_csv(records), manifest.out)
    elif manifest.out_format == "json":
        payload = {"records": [r.as_dict() for r in records]}
        if breakdowns:
            payload["breakdowns"] = breakdowns
        _emit(render_json(payload), manifest.out)
    else:
        text = render_text(records)
        for info in breakdowns:
            text += render_breakdown_text(info)
        _emit(text, manifest.out)
    return _exit_code_for(first_error) if first_error is not None else EXIT_OK


def cmd_table(options) -> int:
    table_id = options["table_id"]
    records, divergences, offending = run_table(table_id)
    fmt = options["format"] or "text"
    if fmt == "csv":
        _emit(render_csv(records), options.get("out"))
    elif fmt == "json":
        payload = {
            "table": table_id,
            "tolerance_GeV": fixtures.SLET_TOLERANCES[table_id],
            "records": [r.as_dict() for r in records],
            "divergences": [
                {"n": n, "l": l, "computed_minus_printed_GeV": gap}
                for (n, l), gap in sorted(divergences.items())],
            "offending_cells": [
                {"n": n, "l": l, "computed_GeV": got, "printed_GeV": ref,
                 "divergence_GeV": gap}
                for n, l, got, ref, gap in offending],
        }
        _emit(render_json(payload), options.get("out"))
    else:
        _emit(render_table_text(table_id, records, divergences, offending),
              options.get("out"))
    return EXIT_DIVERGENCE if offending else EXIT_OK


def cmd_compare(options) -> int:
    options["method"] = "both"
    manifest = manifest_from_options(options)
    rows, summary = run_compare(manifest)
    if manifest.out_format == "json":
        _emit(render_json({"rows": rows, "summary": summary}), manifest.out)
    elif manifest.out_format == "csv":
        keys = ["n", "l", "E_slet_GeV", "E_oracle_GeV", "difference_GeV"]
        keys += sorted({k for row in rows for k in row
                        if k.startswith("fixture")})
        keys.append("status")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_csv_cell(row.get(k)) for k in keys])
        _emit(buf.getvalue(), manifest.out)
    else:
        _emit(render_compare_text(rows, summary), manifest.out)
    failed = summary["failed"]
    return EXIT_NO_CONVERGENCE if failed == summary["levels"] and failed \
        else EXIT_OK


def cmd_breakdown(options) -> int:
    options["breakdown"] = True
    options["method"] = "slet"
    manifest = manifest_from_options(options)
    records, breakdowns, first_error = run_solve(manifest)
    if first_error is not None:
        raise first_error
    if manifest.out_format == "json":
        _emit(render_json({"records": [r.as_dict() for r in records],
                           "breakdowns": breakdowns}), manifest.out)
    else:
        _emit(render_text(records) + render_breakdown_text(breakdowns[0]),
              manifest.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help()
        return EXIT_INVALID_INPUT
    handlers = {"solve": cmd_solve, "table": cmd_table,
                "compare": cmd_compare, "breakdown": cmd_breakdown}
    try:
        options = _merged_options(args)
        return handlers[args.command](options)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except SletError as exc:
        stage = getattr(exc, "stage", None)
        where = f" [{stage}]" if stage else ""
        print(f"error{where}: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


def console():
    sys.exit(main())


if __name__ == "__main__":
    console()
