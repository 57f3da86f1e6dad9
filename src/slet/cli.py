"""Command line front end: solves, table reproduction, method comparison.

Subcommands
-----------
solve    one or more (n, l) levels with a chosen method; ``--breakdown``
         adds every intermediate quantity of each SLET solve
table    recompute a reference table and report per-cell divergence
compare  run the expansion and the grid solver side by side

Options are defined once, in :func:`build_parser`.  ``--config FILE``
gives their values as ``key=value`` lines, which the flags' own actions
parse and the command line overrides (see :func:`load_config`).

Exit codes of solve and table: 0 success, 2 invalid input, 3 convergence
failure, 4 unphysical regime, 5 table divergence beyond tolerance.
compare exits 3 when every level fails, whatever the error, else 0.

Output formats are ``text`` (default, energies at 6 significant digits),
``csv`` (full float precision, stable byte-for-byte across runs) and
``json`` (canonical form: re-serializing a parsed report reproduces the
file exactly).  A breakdown has no CSV form.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass

from . import engine, fixtures
from .errors import SletError, UnphysicalRegimeError
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
    nonrelativistic: bool = False
    grid_points: int | None = None
    rmax: float | None = None

    def pair(self) -> ParticlePair:
        return ParticlePair(self.m1, self.m2,
                            relativistic=not self.nonrelativistic)


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
    oracle_iterations: int | None = None
    oracle_residual: float | None = None
    oracle_bisections: int | None = None
    status: str = "ok"


RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(SolveRecord))


def _record(manifest, n, l, method, **values) -> SolveRecord:
    return SolveRecord(potential=manifest.potential.label, m1=manifest.m1,
                       m2=manifest.m2, n=n, l=l, method=method, **values)


def _status(exc: SletError) -> str:
    """``error:<Class>@<stage>``, or ``error:<Class>`` without a stage."""
    return (f"error:{type(exc).__name__}"
            + (f"@{exc.stage}" if exc.stage else ""))


def solve_level(manifest: RunManifest, n: int, l: int, method: str):
    """Record values of one level by the grid solver or the closed form;
    :func:`run_solve` runs the expansion itself."""
    qn = engine.QuantumNumbers(n, l)
    pair = manifest.pair()
    if method == "oracle":
        from . import oracle  # scipy, which only the grid solver needs
        grid = oracle.default_grid(manifest.potential, pair, qn,
                                   manifest.grid_points, manifest.rmax)
        sol = oracle.solve_selfconsistent(manifest.potential, pair, qn,
                                          grid=grid)
        values = dict(E_binding_GeV=sol.binding_energy, M_GeV=sol.mass,
                      oracle_iterations=sol.outer_iterations,
                      oracle_residual=sol.residual,
                      oracle_bisections=sol.bisection_solves)
    elif method == "closed-form":
        if (manifest.potential.kind != "coulomb" or manifest.m1 != manifest.m2
                or l != 0 or manifest.nonrelativistic):
            raise ValueError(
                "closed-form method needs a pure Coulomb potential, equal "
                "masses, l = 0 and a relativistic pair")
        alpha = manifest.potential.coulomb_strength()
        q, r0, e0 = engine.coulomb_closed_form(manifest.m1, alpha, n)
        values = dict(E_binding_GeV=e0, M_GeV=e0 + pair.total_mass, r0=r0,
                      Q=q)
    else:
        raise ValueError(f"unknown method {method!r}")
    return values


def run_solve(manifest: RunManifest):
    """(records, SLET solutions, first error) over the requested levels;
    a failed level becomes a status row and gives no solution.  The
    expansion solves every level through one :func:`engine.solve_levels`,
    read level by level beside the other method."""
    methods = (("slet", "oracle") if manifest.method == "both"
               else (manifest.method,))
    if "slet" in methods:
        expansion = engine.solve_levels(
            manifest.potential, manifest.pair(),
            [engine.QuantumNumbers(n, l) for n, l in manifest.levels])
    records = []
    solutions = []
    first_error = None
    for n, l in manifest.levels:
        for method in methods:
            try:
                if method == "slet":
                    sol = next(expansion)
                    if isinstance(sol, SletError):  # the level's failure
                        raise sol
                    values = dict(
                        E_binding_GeV=sol.binding_energy, M_GeV=sol.mass,
                        r0=sol.r0, Q=sol.Q, omega=sol.omega,
                        alpha1=sol.alpha1, alpha2=sol.alpha2)
                    solutions.append(sol)
                else:
                    values = solve_level(manifest, n, l, method)
            except SletError as exc:
                records.append(_record(manifest, n, l, method,
                                       status=_status(exc)))
                first_error = first_error or exc
                continue
            records.append(_record(manifest, n, l, method, **values))
    return records, solutions, first_error


def breakdown_dict(sol: engine.SletSolution):
    """Every intermediate of a solve as a JSON-serializable mapping."""
    info = dataclasses.asdict(sol)
    if math.isinf(sol.xi):
        info["xi"] = None
    return info


# -- table reproduction ----------------------------------------------------

def run_table(table_id: int):
    """Recompute one reference table's target row.

    Returns (records, divergences, offending) where divergences maps
    (n, l) to computed minus printed and offending lists the cells whose
    divergence exceeds the table's tolerance.  If a cell fails, the first
    error is raised once every cell has been tried.
    """
    fixtures.verify_integrity()
    fix = fixtures.TABLES[table_id]
    records, _, first_error = run_solve(RunManifest(
        potential=parse_potential(fix.potential), m1=fix.m1, m2=fix.m2,
        levels=fix.grid(), method="closed-form" if table_id == 1 else "slet"))
    if first_error is not None:
        raise first_error
    tolerance = fixtures.SLET_TOLERANCES[table_id]
    target = fix.rows["slet"]

    divergences = {}
    offending = []
    for rec in records:
        printed = target[(rec.n, rec.l)]
        gap = rec.E_binding_GeV - printed
        divergences[(rec.n, rec.l)] = gap
        if abs(gap) > tolerance:
            offending.append((rec.n, rec.l, rec.E_binding_GeV, printed, gap))
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
    """(rows, summary) built from each level's pair of :func:`run_solve`
    records.  A row's status is the first that is not ok, the expansion's
    before the grid solver's; its difference is set when both succeed."""
    fix = _matching_fixture(manifest)
    records, _, _ = run_solve(dataclasses.replace(manifest, method="both"))
    rows = []
    for expansion, grid in zip(records[::2], records[1::2]):
        n, l = expansion.n, expansion.l
        status = next((r.status for r in (expansion, grid)
                       if r.status != "ok"), "ok")
        row = {"n": n, "l": l, "E_slet_GeV": expansion.E_binding_GeV,
               "E_oracle_GeV": grid.E_binding_GeV,
               "difference_GeV": (expansion.E_binding_GeV - grid.E_binding_GeV
                                  if status == "ok" else None),
               "oracle_iterations": grid.oracle_iterations,
               "oracle_residual": grid.oracle_residual,
               "oracle_bisections": grid.oracle_bisections, "status": status}
        if fix is not None:
            for label in ("slet", *fixtures.COMPARISON_ROWS):
                cells = fix.rows.get(label, {})
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

def _csv_cell(value) -> str:
    """One CSV cell: empty for None, repr for a float (exact round trip)."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def render_csv(header, rows) -> str:
    """One header line, then one line per row of values."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(value) for value in row])
    return buf.getvalue()


def render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _fmt(value, width=12):
    if value is None:
        return "-".rjust(width)
    return f"{value:.6g}".rjust(width)


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
        parts = ", ".join(f"{v:.6g}" for v in info[key])
        lines.append(f"  {key:16s} [{parts}]")
    diag = info["diagnostics"]
    lines.append("  diagnostics:")
    for key, value in diag.items():
        lines.append(f"    {key:22s} {value}")
    return "\n".join(lines) + "\n"


def render_table_text(table_id, records, divergences, offending) -> str:
    fix = fixtures.TABLES[table_id]
    target = fix.rows["slet"]
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


def render_compare_text(rows, summary, keys) -> str:
    """The comparison table, with one column per fixture key in keys."""
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


def _write_records(args, records, breakdowns=None, text=None, **fields):
    """Write solve records, with any breakdowns and extra JSON ``fields``.

    The text form is ``text`` when given, else the record table followed
    by each breakdown.
    """
    payload = dict(fields, records=[dataclasses.asdict(r) for r in records])
    if breakdowns:
        payload["breakdowns"] = breakdowns
    if text is None:
        text = render_text(records) + "".join(
            render_breakdown_text(info) for info in breakdowns or ())
    _write_report(args, payload, text,
                  (RECORD_FIELDS, [dataclasses.astuple(r) for r in records]))


def _write_report(args, payload, text, table):
    """Write a report in ``--format`` to ``--out``, or to stdout.

    ``payload`` is the JSON form, ``table`` the CSV form as
    (header, rows) and ``text`` the text form.
    """
    if args.format == "json":
        text = render_json(payload)
    elif args.format == "csv":
        text = render_csv(*table)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)


# -- argument handling -------------------------------------------------------

def _parse_range(spec: str):
    # argparse prints an ArgumentTypeError's own message; any other error
    # it reports as an invalid value of this function, by its name
    lo, _, hi = spec.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range {spec!r} must look like 'lo:hi' with integer bounds"
        ) from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {spec!r}")
    return lo, hi


def load_config(path: str, command: str, commands: dict) -> list:
    """The arguments of ``command`` that a key=value file gives.

    A key is a long option without its dashes, ``_`` or ``-`` between
    words.  A flag is set by true/1/yes/on and left off by false/0/no/off;
    any other value goes to its option's own action, which checks it.  A
    key that only another subcommand in ``commands`` (name to parser)
    takes is dropped, so one file serves them all; others are refused.
    """
    args = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            option = "--" + key.strip().lower().replace("_", "-")
            value = value.strip()
            action = commands[command]._option_string_actions.get(option)
            if action is None:
                if not any(option in parser._option_string_actions
                           for parser in commands.values()):
                    raise ValueError(f"{path}:{lineno}: unknown option "
                                     f"{key!r}")
            elif action.nargs != 0:
                args.append(f"{option}={value}")
            elif value.lower() in ("1", "true", "yes", "on"):
                args.append(option)
            elif value.lower() not in ("0", "false", "no", "off"):
                raise ValueError(f"{path}:{lineno}: {key} expects a "
                                 f"boolean, got {value!r}")
    return args


def build_parser():
    """The ``slet`` parser and a mapping of subcommand names to parsers."""
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--potential", help="potential spec, e.g. "
                     "cornell:alpha=0.25,b=0.18")
    run.add_argument("--m1", type=float, help="first mass in GeV")
    run.add_argument("--m2", type=float, help="second mass in GeV")
    run.add_argument("--n", type=int, help="radial quantum number")
    run.add_argument("--l", type=int, help="orbital angular momentum")
    run.add_argument("--n-range", type=_parse_range, metavar="LO:HI")
    run.add_argument("--l-range", type=_parse_range, metavar="LO:HI")
    run.add_argument("--nonrelativistic", action="store_true")
    run.add_argument("--grid-points", type=int)
    run.add_argument("--rmax", type=float)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=FORMATS, default="text")
    report.add_argument("--out",
                        help="write the report here instead of stdout")
    report.add_argument("--config",
                        help="key=value file with option defaults")

    parser = argparse.ArgumentParser(
        prog="slet",
        description="Bound-state binding energies of two-particle systems "
                    "from the reduced semi-relativistic wave equation, via "
                    "the shifted-l expansion and an independent grid solver.")
    sub = parser.add_subparsers(dest="command")
    sp = sub.add_parser("solve", parents=[run, report],
                        help="solve one or more levels")
    sp.add_argument("--method", choices=METHODS, default="slet")
    sp.add_argument("--breakdown", action="store_true")
    sp.set_defaults(handler=cmd_solve)
    tp = sub.add_parser("table", parents=[report],
                        help="reproduce a reference table")
    tp.add_argument("table_id", type=int, choices=(1, 2, 3))
    tp.set_defaults(handler=cmd_table)
    sub.add_parser("compare", parents=[run, report],
                   help="expansion vs grid solver").set_defaults(
                       handler=cmd_compare)
    return parser, sub.choices


def _levels_from_args(args) -> list:
    explicit = args.n is not None or args.l is not None
    ranged = args.n_range is not None or args.l_range is not None
    if explicit and ranged:
        raise ValueError("give either --n/--l or --n-range/--l-range, "
                         "not both")
    if ranged:
        n_lo, n_hi = args.n_range or (0, 0)
        l_lo, l_hi = args.l_range or (0, 0)
        return [(n, l) for n in range(n_lo, n_hi + 1)
                for l in range(l_lo, l_hi + 1)]
    return [(args.n or 0, args.l or 0)]


def manifest_from_args(args, method: str) -> RunManifest:
    if not args.potential:
        raise ValueError("a --potential spec is required")
    if args.m1 is None or args.m2 is None:
        raise ValueError("--m1 and --m2 are required")
    if method in ("slet", "closed-form") and (args.grid_points is not None
                                              or args.rmax is not None):
        # refused rather than ignored: only the grid solver has a grid
        raise ValueError(f"--grid-points and --rmax set the grid solver's "
                         f"grid, which method {method} does not use")
    return RunManifest(
        potential=parse_potential(args.potential), m1=args.m1, m2=args.m2,
        levels=_levels_from_args(args), method=method,
        nonrelativistic=args.nonrelativistic,
        grid_points=args.grid_points, rmax=args.rmax)


def _exit_code_for(exc: SletError) -> int:
    return (EXIT_UNPHYSICAL if isinstance(exc, UnphysicalRegimeError)
            else EXIT_NO_CONVERGENCE)


def cmd_solve(args) -> int:
    if args.breakdown and args.method in ("oracle", "closed-form"):
        # refused rather than dropped: only a SLET solve has a breakdown
        raise ValueError(f"--breakdown dumps the expansion's intermediates, "
                         f"which method {args.method} does not compute; "
                         "use --method slet or both")
    if args.breakdown and args.format == "csv":
        # refused before any solve rather than written without them
        raise ValueError("a breakdown has no csv form; use --format json "
                         "or --format text")
    records, solutions, first_error = run_solve(
        manifest_from_args(args, args.method))
    breakdowns = ([breakdown_dict(sol) for sol in solutions]
                  if args.breakdown else None)
    _write_records(args, records, breakdowns)
    return _exit_code_for(first_error) if first_error is not None else EXIT_OK


def cmd_table(args) -> int:
    table_id = args.table_id
    records, divergences, offending = run_table(table_id)
    _write_records(
        args, records,
        text=render_table_text(table_id, records, divergences, offending),
        table=table_id,
        tolerance_GeV=fixtures.SLET_TOLERANCES[table_id],
        divergences=[{"n": n, "l": l, "computed_minus_printed_GeV": gap}
                     for (n, l), gap in sorted(divergences.items())],
        offending_cells=[{"n": n, "l": l, "computed_GeV": got,
                          "printed_GeV": ref, "divergence_GeV": gap}
                         for n, l, got, ref, gap in offending])
    return EXIT_DIVERGENCE if offending else EXIT_OK


def cmd_compare(args) -> int:
    rows, summary = run_compare(manifest_from_args(args, "both"))
    fixture_keys = sorted({k for row in rows for k in row
                           if k.startswith("fixture")})
    keys = ["n", "l", "E_slet_GeV", "E_oracle_GeV", "difference_GeV",
            "oracle_iterations", "oracle_residual", "oracle_bisections",
            *fixture_keys, "status"]
    _write_report(args, {"rows": rows, "summary": summary},
                  render_compare_text(rows, summary, fixture_keys),
                  (keys, [[row.get(k) for k in keys] for row in rows]))
    failed = summary["failed"]
    return EXIT_NO_CONVERGENCE if failed == summary["levels"] and failed \
        else EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse would read a range value like -1:2 as an option
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in ("--n-range", "--l-range") and \
                argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_INVALID_INPUT
        if args.config is not None:
            # argv[0] is the subcommand: the top-level parser takes no
            # other argument; flags after the file's values override them
            file_args = load_config(args.config, args.command, commands)
            args = parser.parse_args(argv[:1] + file_args + argv[1:])
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except SletError as exc:
        where = f" [{exc.stage}]" if exc.stage else ""
        print(f"error{where}: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


def console():
    sys.exit(main())


if __name__ == "__main__":
    console()
