import dataclasses
import inspect
import json

import pytest

from slet import cli, engine, errors, fixtures, oracle
from slet.cli import CSV_HEADER, main
from slet.errors import (
    BracketingError,
    InternalInconsistencyError,
    SletError,
    UnphysicalRegimeError,
)
from slet.potentials import ParticlePair, parse_potential


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_cornell_anchor(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential",
                           "cornell:alpha=0.25,b=0.18", "--m1", "1.45",
                           "--m2", "1.45", "--n", "0", "--l", "0",
                           "--method", "slet")
        assert code == 0
        assert "0.492104" in out

    def test_csv_header_and_stability(self, capsys):
        argv = ("solve", "--potential", "cornell:alpha=0.25,b=0.18",
                "--m1", "1.45", "--m2", "1.45", "--n", "0", "--l", "0",
                "--format", "csv")
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        assert out1.splitlines()[0] == CSV_HEADER
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        # the potential label contains a comma, so it must be quoted
        assert out1.splitlines()[1].startswith('"cornell:alpha=0.25,b=0.18"')

    def test_json_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run(capsys, "solve", "--potential", "oscillator:k=1",
                         "--m1", "1.31", "--m2", "1.31", "--n", "1",
                         "--l", "0", "--format", "json", "--out",
                         str(out_file))
        assert code == 0
        raw = out_file.read_text()
        again = json.dumps(json.loads(raw), indent=2, sort_keys=True,
                           allow_nan=False) + "\n"
        assert raw == again

    def test_level_grid_ordering(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential", "oscillator:k=1",
                           "--m1", "1.31", "--m2", "1.31", "--n-range",
                           "0:2", "--l-range", "0:1", "--format", "csv")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 6
        keys = [tuple(int(x) for x in row.split(",")[3:5]) for row in rows]
        assert keys == sorted(keys)

    def test_grid_points_keep_level_sized_box(self, capsys):
        # --grid-points pins N only; the box still grows with the level,
        # so the excited Coulomb level stays inside it
        code, out, _ = run(capsys, "solve", "--potential",
                           "coulomb:alpha=0.25", "--m1", "1.45", "--m2",
                           "1.45", "--n", "3", "--l", "0", "--method",
                           "oracle", "--grid-points", "4000",
                           "--format", "json")
        assert code == 0
        energy = json.loads(out)["records"][0]["E_binding_GeV"]
        assert energy == pytest.approx(-0.0014262711, rel=1e-3)

    def test_grid_points_keep_escape_wall(self, capsys):
        # a pinned grid of the default size still gets the escape-radius
        # wall of a relativistic confining level, so it returns the
        # default energy exactly
        argv = ("solve", "--potential", "cornell:alpha=0.25,b=0.18", "--m1",
                "1.45", "--m2", "1.45", "--n", "1", "--l", "1", "--method",
                "oracle", "--format", "json")
        energies = []
        for extra in ((), ("--grid-points", "4000")):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            record = json.loads(out)["records"][0]
            assert record["status"] == "ok"
            energies.append(record["E_binding_GeV"])
        assert energies[1] == energies[0]

    def test_mixing_level_styles_rejected(self, capsys):
        code, _, err = run(capsys, "solve", "--potential", "oscillator:k=1",
                           "--m1", "1.31", "--m2", "1.31", "--n", "0",
                           "--n-range", "0:1")
        assert code == 2
        assert "not both" in err

    def test_malformed_potential(self, capsys):
        code, _, err = run(capsys, "solve", "--potential", "garbage",
                           "--m1", "1.0", "--m2", "1.0")
        assert code == 2
        assert "error" in err

    def test_supercritical_oracle_exit(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential",
                           "coulomb:alpha=3.0", "--m1", "1", "--m2", "1",
                           "--n", "0", "--l", "0", "--method", "oracle")
        assert code == 4
        assert "SupercriticalCouplingError" in out

    def test_supercritical_slet_exit(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential",
                           "coulomb:alpha=1.2", "--m1", "1", "--m2", "1",
                           "--n", "0", "--l", "0", "--method", "slet")
        assert code == 4
        assert "error:SupercriticalCouplingError@fall_to_center" in out

    def test_bracketing_failure_exit(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential",
                           "custom:-0.5*r^1", "--m1", "1", "--m2", "1",
                           "--method", "slet")
        assert code == 3
        assert "error:BracketingError@solve_r0" in out

    def test_closed_form_restrictions(self, capsys):
        code, _, err = run(capsys, "solve", "--potential", "oscillator:k=1",
                           "--m1", "1", "--m2", "1", "--method",
                           "closed-form")
        assert code == 2
        assert "Coulomb" in err

    def test_nonrelativistic_flag(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential", "oscillator:k=1",
                           "--m1", "1.31", "--m2", "1.31",
                           "--nonrelativistic", "--format", "csv")
        assert code == 0
        # exact sentinel value (2n+l+3/2)/sqrt(mu) at n=l=0
        value = float(out.splitlines()[1].split(",")[6])
        assert value == pytest.approx(1.5 / (0.655 ** 0.5), rel=1e-9)

    @pytest.mark.parametrize("method", ["oracle", "closed-form"])
    def test_breakdown_flag_refused_without_slet(self, capsys, method):
        # only a SLET solve has a breakdown: refused rather than dropped
        code, out, err = run(capsys, "solve", "--potential",
                             "coulomb:alpha=0.25", "--m1", "1.45", "--m2",
                             "1.45", "--method", method, "--breakdown")
        assert code == 2
        assert out == ""
        assert "--breakdown" in err and method in err

    @pytest.mark.parametrize("method", ["slet", "closed-form"])
    @pytest.mark.parametrize("option", [("--grid-points", "2000"),
                                        ("--rmax", "5")])
    def test_grid_options_refused_without_oracle(self, capsys, method,
                                                 option):
        # neither method has a grid: refused rather than ignored
        code, out, err = run(capsys, "solve", "--potential",
                             "coulomb:alpha=0.25", "--m1", "1.45", "--m2",
                             "1.45", "--method", method, *option)
        assert code == 2
        assert out == ""
        assert "--grid-points and --rmax" in err

    @pytest.mark.parametrize("command", [("solve", "--method", "oracle"),
                                         ("solve", "--method", "both"),
                                         ("compare",)])
    def test_grid_options_kept_with_oracle(self, capsys, command):
        code, out, _ = run(capsys, *command, "--potential", "oscillator:k=1",
                           "--m1", "1.31", "--m2", "1.31",
                           "--nonrelativistic", "--grid-points", "2000",
                           "--rmax", "12")
        assert code == 0
        assert out

    def test_method_both_emits_two_records(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential", "oscillator:k=1",
                           "--m1", "1.31", "--m2", "1.31", "--n", "0",
                           "--l", "0", "--method", "both", "--format", "csv")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 2
        assert rows[0].split(",")[5] == "slet"
        assert rows[1].split(",")[5] == "oracle"

    def test_oracle_records_carry_grid_counts(self, capsys):
        # the grid solver's counts reach solve records as they come out
        # of solve_selfconsistent; expansion records leave them null
        code, out, _ = run(capsys, "solve", "--potential",
                           "cornell:alpha=0.25,b=0.18", "--m1", "1.45",
                           "--m2", "1.45", "--n-range", "0:1",
                           "--l-range", "1:1", "--method", "both",
                           "--format", "json")
        assert code == 0
        records = json.loads(out)["records"]
        assert [r["method"] for r in records] == ["slet", "oracle"] * 2
        pair = ParticlePair(1.45, 1.45)
        pot = parse_potential("cornell:alpha=0.25,b=0.18")
        for expansion, grid in zip(records[::2], records[1::2]):
            assert expansion["oracle_iterations"] is None
            assert expansion["oracle_residual"] is None
            assert expansion["oracle_bisections"] is None
            sol = oracle.solve_selfconsistent(
                pot, pair, engine.QuantumNumbers(grid["n"], grid["l"]))
            assert grid["oracle_iterations"] == sol.outer_iterations
            assert grid["oracle_residual"] == sol.residual
            assert grid["oracle_bisections"] == sol.bisection_solves


class TestConfigFile:
    def test_cli_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("potential=oscillator:k=1\nm1=1.31\nm2=1.31\n"
                       "l=0\nformat=csv\n")
        code, out, _ = run(capsys, "solve", "--config", str(cfg), "--l", "2")
        assert code == 0
        assert out.splitlines()[1].split(",")[4] == "2"

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=1\n")
        code, _, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "frobnicate" in err

    def test_removed_pt_basis_rejected(self, capsys, tmp_path):
        argv = ("solve", "--potential", "oscillator:k=1", "--m1", "1.31",
                "--m2", "1.31")
        for flag, key, value in (("--pt-basis", "pt_basis", "50"),
                                 ("--r0-bracket", "r0_bracket", "1e-3:1e5")):
            code, _, err = run(capsys, *argv, flag, value)
            assert code == 2
            assert flag in err
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            code, _, err = run(capsys, *argv, "--config", str(cfg))
            assert code == 2
            assert key in err

    def test_config_value_checked_like_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("potential=oscillator:k=1\nm1=1.31\nm2=1.31\n"
                       "format=xml\n")
        code, out, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "invalid choice: 'xml'" in err

    @pytest.mark.parametrize("value, expected", [
        ("true", True), ("1", True), ("Yes", True), ("on", True),
        ("false", False), ("0", False), ("no", False), ("OFF", False)])
    def test_flag_values(self, capsys, tmp_path, value, expected):
        argv = ("solve", "--potential", "oscillator:k=1", "--m1", "1.31",
                "--m2", "1.31", "--format", "csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"nonrelativistic={value}\n")
        code, out, _ = run(capsys, *argv, "--config", str(cfg))
        flags = ("--nonrelativistic",) if expected else ()
        assert (code, out) == run(capsys, *argv, *flags)[:2]

    def test_bad_flag_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("potential=oscillator:k=1\nm1=1.31\nm2=1.31\n"
                       "breakdown=maybe\n")
        code, out, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "breakdown" in err and "maybe" in err

    def test_other_subcommand_keys_ignored(self, capsys, tmp_path):
        # one file serves solve and table; table takes only format
        cfg = tmp_path / "run.cfg"
        cfg.write_text("potential=oscillator:k=1\nm1=1.31\nm2=1.31\n"
                       "method=both\nbreakdown=true\nformat=csv\n")
        code, out, _ = run(capsys, "table", "1", "--config", str(cfg))
        assert code == 0
        assert out == run(capsys, "table", "1", "--format", "csv")[1]

    def test_table_id_key_refused(self, capsys, tmp_path):
        # the table is a positional argument, not an option
        cfg = tmp_path / "run.cfg"
        cfg.write_text("table_id=2\n")
        code, out, err = run(capsys, "table", "1", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "table_id" in err

    def test_ranges_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("potential=oscillator:k=1\nm1=1.31\nm2=1.31\n"
                       "n-range=0:1\nl-range=0:1\nformat=csv\n")
        code, out, _ = run(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert len(out.splitlines()) == 5


class TestTableCommand:
    def test_table1_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "table", "1")
        assert code == 0
        assert "0 cell(s) beyond tolerance" in out

    def test_table1_csv(self, capsys):
        code, out, _ = run(capsys, "table", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == CSV_HEADER
        assert len(out.splitlines()) == 7

    def test_divergent_cell_exits_5(self, capsys, monkeypatch):
        # corrupt one target cell post-checksum to exercise the gate
        fix = fixtures.TABLES[1]
        rows = {k: dict(v) for k, v in fix.rows.items()}
        rows["slet"][(0, 0)] += 0.1
        patched = fixtures.ReferenceTable(table_id=1, potential=fix.potential,
                                        m1=fix.m1, m2=fix.m2, rows=rows)
        monkeypatch.setitem(fixtures.TABLES, 1, patched)
        monkeypatch.setattr(fixtures, "verify_integrity", lambda: None)
        code, out, _ = run(capsys, "table", "1")
        assert code == 5
        assert "OFFENDING n=0 l=0" in out

    def test_failed_cell_exits_3_without_report(self, capsys, monkeypatch):
        # one failed cell stops the table before anything is written
        solve = engine.solve

        def failing(potential, pair, qn):
            if (qn.n, qn.l) == (1, 2):
                exc = BracketingError("solve_r0: no sign change")
                exc.stage = "solve_r0"
                raise exc
            return solve(potential, pair, qn)

        monkeypatch.setattr(engine, "solve", failing)
        code, out, err = run(capsys, "table", "2")
        assert code == 3
        assert out == ""
        assert err == "error [solve_r0]: solve_r0: no sign change\n"

    def test_checksum_guard(self, monkeypatch):
        monkeypatch.setattr(fixtures, "FIXTURE_SHA256", "0" * 64)
        with pytest.raises(InternalInconsistencyError):
            cli.run_table(1)

    def test_table2_json_reports_offenders(self, capsys):
        code, out, _ = run(capsys, "table", "2", "--format", "json")
        assert code == 5
        payload = json.loads(out)
        assert len(payload["divergences"]) == 15
        offenders = {(c["n"], c["l"]) for c in payload["offending_cells"]}
        # the known outliers: the n = 0 column plus the (1,2) cell
        assert offenders == {(0, 0), (0, 1), (0, 2), (1, 2)}


class TestCompareCommand:
    def test_nonrelativistic_heavy_oscillator(self, capsys):
        # both methods within 0.1% of the exact level (2n+l+3/2)/sqrt(mu)
        code, out, _ = run(capsys, "compare", "--potential",
                           "oscillator:k=1", "--m1", "1000", "--m2", "1000",
                           "--nonrelativistic", "--n", "1", "--l", "1",
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        exact = 4.5 / (500.0 ** 0.5)
        assert row["E_slet_GeV"] == pytest.approx(exact, rel=1e-3)
        assert row["E_oracle_GeV"] == pytest.approx(exact, rel=1e-3)

    def test_cornell_with_fixture_columns(self, capsys):
        code, out, _ = run(capsys, "compare", "--potential",
                           "cornell:alpha=0.25,b=0.18", "--m1", "1.45",
                           "--m2", "1.45", "--n", "0", "--l", "1")
        assert code == 0
        assert "sqrt_method" in out
        assert "max |diff|" in out

    def test_cornell_reports_no_bisection(self, capsys):
        # every eigensolve of the level refines a start vector
        code, out, _ = run(capsys, "compare", "--potential",
                           "cornell:alpha=0.25,b=0.18", "--m1", "1.45",
                           "--m2", "1.45", "--n", "1", "--l", "1",
                           "--format", "csv")
        assert code == 0
        header, row = (line.split(",") for line in out.splitlines())
        values = dict(zip(header, row))
        assert header.index("oracle_bisections") == \
            header.index("oracle_residual") + 1
        assert int(values["oracle_bisections"]) == 0

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "compare", "--potential",
                           "oscillator:k=1", "--m1", "1.31", "--m2", "1.31",
                           "--n", "0", "--l", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["levels"] == 1
        assert payload["summary"]["max_abs_difference_GeV"] < 2e-2
        row = payload["rows"][0]
        assert 2 <= row["oracle_iterations"] <= 20
        assert 0.0 <= row["oracle_residual"] <= 1e-10
        assert row["oracle_bisections"] == 0

    def test_csv_carries_oracle_diagnostics(self, capsys):
        code, out, _ = run(capsys, "compare", "--potential",
                           "coulomb:alpha=0.25", "--m1", "1.45", "--m2",
                           "1.45", "--n", "0", "--l", "0", "--format", "csv")
        assert code == 0
        header, row = (line.split(",") for line in out.splitlines())
        values = dict(zip(header, row))
        assert int(values["oracle_iterations"]) >= 2
        assert float(values["oracle_residual"]) <= 1e-10

    def test_grid_failure_keeps_expansion_energy(self, capsys):
        # the grid solver finds no root for this light level, and the
        # expansion's energy stays in the row
        level = ("--potential", "oscillator:k=1", "--m1", "0.3", "--m2",
                 "0.3", "--n", "1", "--l", "0", "--format", "json")
        code, out, _ = run(capsys, "solve", "--method", "slet", *level)
        assert code == 0
        expected = json.loads(out)["records"][0]["E_binding_GeV"]
        assert expected == pytest.approx(4.51382, abs=5e-6)
        code, out, _ = run(capsys, "compare", *level)
        row = json.loads(out)["rows"][0]
        assert row["E_slet_GeV"] == expected
        assert row["E_oracle_GeV"] is None
        assert row["difference_GeV"] is None
        assert row["oracle_iterations"] is None
        assert row["status"] == "error:WindowError"
        assert code == 3

    def test_both_failing_name_expansion_first(self, capsys):
        code, out, _ = run(capsys, "compare", "--potential",
                           "coulomb:alpha=3.0", "--m1", "1", "--m2", "1",
                           "--n", "0", "--l", "0", "--format", "json")
        row = json.loads(out)["rows"][0]
        assert row["status"] == \
            "error:SupercriticalCouplingError@fall_to_center"
        assert row["E_slet_GeV"] is None and row["E_oracle_GeV"] is None
        assert code == 3

    def test_partial_failure_keeps_rows(self, capsys):
        code, out, _ = run(capsys, "compare", "--potential",
                           "coulomb:alpha=3.0", "--m1", "1", "--m2", "1",
                           "--n-range", "0:1", "--format", "json")
        payload = json.loads(out)
        assert payload["summary"]["failed"] == 2
        assert len(payload["rows"]) == 2
        assert all(row["oracle_bisections"] is None
                   for row in payload["rows"])
        assert code == 3


class TestBreakdownCommand:
    """``solve --breakdown``: every intermediate of each SLET solve."""

    def test_text_dump(self, capsys):
        code, out, _ = run(capsys, "solve", "--breakdown", "--potential",
                           "cornell:alpha=0.25,b=0.18", "--m1", "1.45",
                           "--m2", "1.45", "--n", "1", "--l", "1")
        assert code == 0
        for key in ("r0", "omega", "lbar", "alpha1", "alpha2", "E2_term",
                    "eps_bar", "delta_bar", "q_lbar_gap"):
            assert key in out

    def test_json_with_sentinel_xi(self, capsys):
        # xi is infinite in nonrelativistic mode and must serialize as null
        code, out, _ = run(capsys, "solve", "--breakdown", "--potential",
                           "oscillator:k=1", "--m1", "1.31", "--m2", "1.31",
                           "--nonrelativistic", "--n", "0", "--l", "0",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["breakdowns"][0]["xi"] is None
        assert payload["breakdowns"][0]["binding_energy"] == pytest.approx(
            1.5 / (0.655 ** 0.5), rel=1e-10)

    def test_json_carries_every_diagnostic(self, capsys):
        code, out, _ = run(capsys, "solve", "--breakdown", "--potential",
                           "cornell:alpha=0.25,b=0.18", "--m1", "1.45",
                           "--m2", "1.45", "--n", "1", "--l", "1",
                           "--format", "json")
        assert code == 0
        diagnostics = json.loads(out)["breakdowns"][0]["diagnostics"]
        assert set(diagnostics) == {
            f.name for f in dataclasses.fields(engine.SolveDiagnostics)}

    def test_csv_refused(self, capsys):
        code, out, err = run(capsys, "solve", "--breakdown", "--potential",
                             "oscillator:k=1", "--m1", "1.31", "--m2",
                             "1.31", "--format", "csv")
        assert code == 2
        assert out == ""
        assert "json" in err and "text" in err

    @pytest.mark.parametrize("option", [("--grid-points", "2000"),
                                        ("--rmax", "5")])
    def test_grid_options_refused(self, capsys, option):
        # a breakdown is a SLET solve, which has no grid
        code, out, err = run(capsys, "solve", "--breakdown", "--potential",
                             "oscillator:k=1", "--m1", "1.31", "--m2",
                             "1.31", *option)
        assert code == 2
        assert out == ""
        assert "--grid-points and --rmax" in err

    def test_level_range_dumps_each_level(self, capsys):
        code, out, _ = run(capsys, "solve", "--breakdown", "--potential",
                           "oscillator:k=1", "--m1", "1.31", "--m2", "1.31",
                           "--n-range", "0:1", "--l-range", "0:1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        levels = [(b["n"], b["l"]) for b in payload["breakdowns"]]
        assert levels == [(r["n"], r["l"]) for r in payload["records"]]
        assert levels == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_removed_subcommand(self, capsys):
        code, out, err = run(capsys, "breakdown", "--potential",
                             "oscillator:k=1", "--m1", "1.31", "--m2",
                             "1.31")
        assert code == 2
        assert out == ""
        assert "invalid choice: 'breakdown'" in err


# a value for each option that changes the base run's report, where the
# subcommand uses the option at all
SAMPLE_VALUES = {
    "--potential": "coulomb:alpha=0.25", "--m1": "1.45", "--m2": "1.45",
    "--n": "1", "--l": "1", "--n-range": "0:1", "--l-range": "0:1",
    "--grid-points": "2000", "--rmax": "5", "--method": "oracle",
    "--format": "csv", "--out": "report.out"}
RUN_OPTIONS = {"--potential": "oscillator:k=1", "--m1": "1.31",
               "--m2": "1.31", "--format": "json"}
# "breakdown" is ``solve --breakdown``, run with every solve option but
# the two that would turn its breakdown off or refuse it
BASE_OPTIONS = {"solve": dict(RUN_OPTIONS, **{"--method": "both"}),
                "compare": RUN_OPTIONS,
                "breakdown": dict(RUN_OPTIONS, **{"--breakdown": True}),
                "table": {}}
BREAKDOWN_FIXED = ("--method", "--breakdown")


def _long_options():
    """(command, option, sample value) for every long option but --help
    and --config; a flag comes once set and once left off."""
    _, commands = cli.build_parser()
    cases = []
    forms = [*commands.items(), ("breakdown", commands["solve"])]
    for command, parser in forms:
        for action in parser._actions:
            for option in action.option_strings:
                if not option.startswith("--") or option in ("--help",
                                                             "--config"):
                    continue
                if command == "breakdown" and option in BREAKDOWN_FIXED:
                    continue
                if action.nargs == 0:
                    cases += [(command, option, True),
                              (command, option, False)]
                else:
                    cases.append((command, option, SAMPLE_VALUES.get(option)))
    return cases


class TestConfigMatchesFlags:
    """A one-line config file and the equivalent flag do the same thing."""

    @staticmethod
    def _argv(command, options):
        argv = ["solve" if command == "breakdown" else command]
        argv += ["1"] if command == "table" else []
        for option, value in options.items():
            argv += [option] if value is True else [option, value]
        return argv

    def _outcome(self, capsys, tmp_path, argv):
        out_file = tmp_path / SAMPLE_VALUES["--out"]
        out_file.unlink(missing_ok=True)
        code, out, _ = run(capsys, *argv)
        return code, out, out_file.read_text() if out_file.exists() else None

    @pytest.mark.parametrize("command, option, value", _long_options())
    def test_config_matches_flag(self, capsys, tmp_path, monkeypatch,
                                 command, option, value):
        assert value is not None, f"give {option} a sample value"
        monkeypatch.chdir(tmp_path)
        base = dict(BASE_OPTIONS[command])
        flagged = dict(base)
        if value is not False:
            flagged[option] = value
        base.pop(option, None)
        text = "true" if value is True else "false" if value is False \
            else value
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option[2:].replace('-', '_')}={text}\n")
        from_file = self._outcome(
            capsys, tmp_path, self._argv(command, base) + ["--config",
                                                           str(cfg)])
        from_flag = self._outcome(capsys, tmp_path,
                                  self._argv(command, flagged))
        assert from_file == from_flag


class TestEntryPoint:
    def test_no_subcommand_prints_usage(self, capsys):
        code, out, _ = run(capsys)
        assert code == 2
        assert out.startswith("usage: slet")

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "solve", "--help")
        assert code == 0
        assert out.startswith("usage: slet solve")

    def test_bad_flag_value_exits_2(self, capsys):
        code, out, err = run(capsys, "solve", "--format", "xml")
        assert code == 2
        assert out == ""
        assert "invalid choice: 'xml'" in err


class TestFixtures:
    def test_integrity(self):
        fixtures.verify_integrity()

    def test_monotone_rows(self):
        # printed energies grow with n at fixed l and with l at fixed n
        for fix in fixtures.TABLES.values():
            cells = fix.rows["slet"]
            for (n, l), value in cells.items():
                if (n + 1, l) in cells:
                    assert cells[(n + 1, l)] > value
                if (n, l + 1) in cells:
                    assert cells[(n, l + 1)] > value

    def test_comparison_rows_not_targets(self):
        # besides the slet target and table 1's exact levels every row is
        # a context method, which compare reports beside the slet row
        assert not {"slet", "exact"} & set(fixtures.COMPARISON_ROWS)
        for fix in fixtures.TABLES.values():
            assert "slet" in fix.rows
            assert set(fix.rows) - {"slet", "exact"} <= set(
                fixtures.COMPARISON_ROWS)


# every SletError a solve can raise; the two that are also ValueErrors
# (parse and derivative-order errors) reach main's exit-2 arm first
SOLVE_ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                if issubclass(cls, SletError)
                and not issubclass(cls, ValueError)]


@pytest.mark.parametrize("cls", SOLVE_ERRORS, ids=lambda cls: cls.__name__)
def test_exit_code_for(cls):
    expect = 4 if issubclass(cls, UnphysicalRegimeError) else 3
    assert cli._exit_code_for(cls("message")) == expect
