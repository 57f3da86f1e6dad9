import json

import pytest

from slet import cli, fixtures
from slet.cli import CSV_HEADER, main
from slet.errors import InternalInconsistencyError


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

    def test_bracketing_failure_exit(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential",
                           "custom:-0.5*r^1", "--m1", "1", "--m2", "1",
                           "--method", "slet")
        assert code == 3
        assert "BracketingError" in out

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

    def test_breakdown_flag(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential", "oscillator:k=1",
                           "--m1", "1.31", "--m2", "1.31", "--breakdown")
        assert code == 0
        assert "eps_bar" in out and "E2_term" in out

    def test_method_both_emits_two_records(self, capsys):
        code, out, _ = run(capsys, "solve", "--potential", "oscillator:k=1",
                           "--m1", "1.31", "--m2", "1.31", "--n", "0",
                           "--l", "0", "--method", "both", "--format", "csv")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 2
        assert rows[0].split(",")[5] == "slet"
        assert rows[1].split(",")[5] == "oracle"


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

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "compare", "--potential",
                           "oscillator:k=1", "--m1", "1.31", "--m2", "1.31",
                           "--n", "0", "--l", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["levels"] == 1
        assert payload["summary"]["max_abs_difference_GeV"] < 2e-2

    def test_partial_failure_keeps_rows(self, capsys):
        code, out, _ = run(capsys, "compare", "--potential",
                           "coulomb:alpha=3.0", "--m1", "1", "--m2", "1",
                           "--n-range", "0:1", "--format", "json")
        payload = json.loads(out)
        assert payload["summary"]["failed"] == 2
        assert len(payload["rows"]) == 2
        assert code == 3


class TestBreakdownCommand:
    def test_text_dump(self, capsys):
        code, out, _ = run(capsys, "breakdown", "--potential",
                           "cornell:alpha=0.25,b=0.18", "--m1", "1.45",
                           "--m2", "1.45", "--n", "1", "--l", "1")
        assert code == 0
        for key in ("r0", "omega", "lbar", "alpha1", "alpha2", "delta_bar",
                    "q_lbar_gap"):
            assert key in out

    def test_json_with_sentinel_xi(self, capsys):
        # xi is infinite in nonrelativistic mode and must serialize as null
        code, out, _ = run(capsys, "breakdown", "--potential",
                           "oscillator:k=1", "--m1", "1.31", "--m2", "1.31",
                           "--nonrelativistic", "--n", "0", "--l", "0",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["breakdowns"][0]["xi"] is None
        assert payload["breakdowns"][0]["binding_energy"] == pytest.approx(
            1.5 / (0.655 ** 0.5), rel=1e-10)


class TestFixtures:
    def test_integrity(self):
        fixtures.verify_integrity()

    def test_monotone_rows(self):
        # printed energies grow with n at fixed l and with l at fixed n
        for fix in fixtures.TABLES.values():
            cells = fix.cells(fix.slet_row)
            for (n, l), value in cells.items():
                if (n + 1, l) in cells:
                    assert cells[(n + 1, l)] > value
                if (n, l + 1) in cells:
                    assert cells[(n, l + 1)] > value

    def test_comparison_rows_not_targets(self):
        for fix in fixtures.TABLES.values():
            for label in fix.comparison_labels():
                assert label not in fixtures.TARGET_ROWS
