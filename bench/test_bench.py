"""Tests of the benchmark itself: its checks, its tracer and its seeding.

Run from the checkout root with ``python -m pytest bench``.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import references as ref  # noqa: E402
import run  # noqa: E402
import slet  # noqa: E402
import slet.cli  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import TRACED, Tracer, _owner  # noqa: E402


def moved(value, tolerance, factor, relative=False):
    """value shifted by factor * tolerance (relative to |value| if asked)."""
    step = factor * tolerance * (abs(value) if relative else 1.0)
    return value + step


# -- references -------------------------------------------------------------

def test_reduced_coulomb_solves_its_equation():
    m, alpha, n, l = 1.45, 0.25, 2, 1
    e = ref.reduced_coulomb_energy(alpha, m, m, n, l)
    et, mu = ref.eta(m, m), ref.reduced_mass(m, m)
    lp = -0.5 + math.sqrt((l + 0.5) ** 2 - mu * alpha**2 / et)
    lhs = e + e * e / (2.0 * et)
    rhs = -mu * alpha**2 * (1.0 + e / et) ** 2 / (2.0 * (n + lp + 1.0) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-13)
    # weak coupling approaches the nonrelativistic Bohr level
    weak = ref.reduced_coulomb_energy(1e-4, m, m, n, l)
    assert weak == pytest.approx(
        ref.reduced_coulomb_energy(1e-4, m, m, n, l, relativistic=False),
        rel=1e-6)


@pytest.mark.parametrize("check, relative", [
    (ref.check_absolute, False), (ref.check_relative, True)])
def test_generic_checks_fail_past_tolerance(check, relative):
    reference, tolerance = -0.0123, 1e-3
    assert check("x", moved(reference, tolerance, 0.9, relative), reference,
                 tolerance) is None
    reason = check("x", moved(reference, tolerance, 1.1, relative),
                   reference, tolerance)
    assert reason is not None and reason.startswith("x:")


@pytest.mark.parametrize("table_id, n, l, tolerance", [
    (2, 3, 1, ref.PRINTED_TOLERANCE),
    (3, 2, 2, ref.PRINTED_TOLERANCE),
    (3, 1, 0, ref.TABLE3_S_WAVE_ENVELOPE),
])
def test_printed_cell_fails_past_tolerance(table_id, n, l, tolerance):
    printed = ref.PRINTED[table_id][(n, l)]
    for factor, ok in ((0.9, True), (-0.9, True), (1.1, False), (-1.1, False)):
        got = ref.check_printed_cell(table_id, n, l,
                                     moved(printed, tolerance, factor))
        assert (got is None) is ok


def test_partial_sum_cells_compare_their_partial_sum():
    printed = ref.PRINTED[2][(1, 2)]
    terms = {"E0": printed - 0.01, "E2": 0.01}
    # the full energy is ignored for a partial-sum cell
    assert ref.check_printed_cell(2, 1, 2, printed + 1.0, terms) is None
    terms["E2"] += 1.1 * ref.PRINTED_TOLERANCE
    assert "E0+E2" in ref.check_printed_cell(2, 1, 2, printed, terms)
    e0_cell = {"E0": ref.PRINTED[2][(0, 1)] - 1.1 * ref.PRINTED_TOLERANCE,
               "E2": 0.0}
    assert ref.check_printed_cell(2, 0, 1, ref.PRINTED[2][(0, 1)],
                                  e0_cell) is not None


def test_ordering_check_names_the_offending_level():
    assert ref.check_increasing({0: 1.0, 1: 2.0, 2: 3.0}) == {}
    bad = ref.check_increasing({0: 1.0, 1: 2.0, 2: 2.0})
    assert list(bad) == [2]


# -- checks on real program output ------------------------------------------

@pytest.fixture(scope="module")
def excited():
    return wl.Excited(slet)


def _solution(excited, op):
    sol = excited.solve(op)
    assert not isinstance(sol, Exception)
    return sol


@pytest.mark.parametrize("op", [(wl.COULOMB, 5, 1), (wl.COULOMB_NR, 4, 2),
                                (wl.OSCILLATOR_NR, 80, 1)])
def test_excited_reference_checks(excited, op):
    system = op[0]
    sol = _solution(excited, op)
    assert excited.outcomes(op, sol)[0].failure is None
    tolerance = (ref.SLET_COULOMB_RELATIVE if system.relativistic
                 else ref.NONRELATIVISTIC_RELATIVE)
    exact = (ref.reduced_coulomb_energy(0.25, system.m1, system.m2, op[1],
                                        op[2], system.relativistic)
             if system.kind == "coulomb" else
             ref.oscillator_nr_energy(1.0, system.m1, system.m2, op[1], op[2]))
    for factor, ok in ((0.5, True), (1.5, False)):
        fake = dataclasses.replace(
            sol, binding_energy=moved(exact, tolerance, factor, True))
        failure = excited.outcomes(op, fake)[0].failure
        assert (failure is None) is ok, failure


def test_excited_alpha1_check(excited):
    op = (wl.CORNELL, 60, 2)
    sol = _solution(excited, op)
    closed = ref.alpha1_closed_form(60, sol.omega, sol.eps_bar)
    for factor, ok in ((0.5, True), (2.0, False)):
        fake = dataclasses.replace(
            sol, alpha1=moved(closed, ref.ALPHA1_RELATIVE, factor, True))
        failure = excited.outcomes(op, fake)[0].failure
        assert (failure is None) is ok, failure


def test_excited_known_fault_reports_class_and_stage(excited):
    op = (wl.COULOMB, 13, 0)
    assert (wl.COULOMB.name, 13, 0) in excited.KNOWN_FAULTS
    failure = excited.outcomes(op, excited.solve(op))[0].failure
    assert failure == "BracketingError at stage solve_r0"


def test_compare_checks():
    compare = wl.Compare(slet)
    op = (wl.COULOMB, 1, 0)
    exact = ref.reduced_coulomb_energy(0.25, 1.45, 1.45, 1, 0)
    row = {"status": "ok", "E_slet_GeV": exact, "E_oracle_GeV": exact}
    assert compare.outcomes(op, row)[0].failure is None
    for key, tolerance in (("E_oracle_GeV", ref.ORACLE_COULOMB_RELATIVE),
                           ("E_slet_GeV", ref.SLET_COULOMB_RELATIVE)):
        bad = dict(row, **{key: moved(exact, tolerance, 1.2, True)})
        assert "exact Coulomb" in compare.outcomes(op, bad)[0].failure
    cornell = (wl.CORNELL, 0, 0)
    far = {"status": "ok", "E_slet_GeV": 0.5,
           "E_oracle_GeV": 0.5 + 1.1 * ref.SLET_ORACLE_ENVELOPE}
    assert "|SLET - oracle|" in compare.outcomes(cornell, far)[0].failure
    near = dict(far, E_oracle_GeV=0.5 + 0.9 * ref.SLET_ORACLE_ENVELOPE)
    assert compare.outcomes(cornell, near)[0].failure is None
    failed = {"status": "error:WindowError"}
    assert compare.outcomes(cornell, failed)[0].failure == "error:WindowError"


def test_tables_pass_and_partial_sums_recomputed():
    tables = wl.Tables(slet)
    outcomes = tables.outcomes(2, tables.solve(2))
    tables.check_pass(outcomes)
    assert [o.failure for o in outcomes] == [None] * 15
    # E0 recomputed from the record lies within 5e-5 of the printed n = 0 cell
    rec = next(r for r in tables.solve(2) if (r.n, r.l) == (0, 0))
    terms = ref.series_terms(rec, wl.TABLE_POTENTIALS[2], 1.31, 1.31)
    assert abs(terms["E0"] - ref.PRINTED[2][(0, 0)]) < 5e-5


def test_check_pass_marks_ordering_breaks(excited):
    outcomes = [wl.Outcome("x", n, 0, {"E": e})
                for n, e in ((0, 1.0), (1, 0.5), (2, 3.0))]
    excited.check_pass(outcomes)
    assert [o.failure is None for o in outcomes] == [True, False, True]


# -- tracer -------------------------------------------------------------------

def _originals():
    return {(path, attr): _owner(slet, path).__dict__[attr]
            for path, attr in TRACED}


@pytest.mark.parametrize("name, ops", [
    ("tables", [2, 3]),
    ("excited", [(wl.CORNELL, 60, 2), (wl.COULOMB, 5, 1),
                 (wl.OSCILLATOR_NR, 80, 1)]),
    ("compare", [(wl.CORNELL, 1, 1), (wl.COULOMB, 0, 0)]),
])
def test_traced_pass_is_bit_identical_and_restores(name, ops):
    workload = wl.WORKLOADS[name](slet)
    before = _originals()
    _, plain, _ = run.run_pass(workload, ops)
    tracer = Tracer(slet)
    with tracer:
        assert _originals() != before
        _, traced, _ = run.run_pass(workload, ops)
    assert _originals() == before
    assert run.energies(plain) == run.energies(traced)
    assert all(isinstance(e, float) for o in plain for e in o.energies.values())
    assert tracer.summary()["engine.solve"][0] >= len(ops)


def test_tracer_restores_after_error_and_measures_self_time():
    before = _originals()
    tracer = Tracer(slet)
    with pytest.raises(ValueError):
        with tracer:
            slet.potentials.PotentialModel.oscillator(1.0).derivative(1.0, 9)
    assert _originals() == before
    with tracer:
        slet.engine.solve(wl.CORNELL.potential(slet), wl.CORNELL.pair(slet),
                          slet.engine.QuantumNumbers(0, 0))
    calls, total, own = tracer.summary()["engine.solve_r0"]
    assert calls == 1 and 0.0 < own < total


def test_per_layer_metrics_cover_the_names():
    tracer = Tracer(slet)
    with tracer:
        slet.fixtures.verify_integrity()
    metrics = run.per_layer_metrics(tracer, 1, 0.5)
    assert set(run.PER_LAYER) <= set(metrics)
    assert {"oracle.eigensolves", "oracle.eigensolve.ms",
            "oracle.outer_iterations", "trace.overhead_ms"} <= set(metrics)
    assert metrics["fixtures.verify_integrity.ms"]["value"] > 0.0


# -- seeding and the command ----------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = wl.WORKLOADS[name](slet)

    def first(seed, count=4):
        passes = workload.passes(seed)
        return [next(passes) for _ in range(count)]

    assert first(7) == first(7)
    assert all(sorted(map(repr, p)) == sorted(map(repr, workload.operations()))
               for p in first(7))
    if len(workload.operations()) > 2:
        assert first(7) != first(8)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(40))) == (75.0, 29)
    assert run.tail(list(range(39))) == (None, None)
    assert run.tail(list(range(1000))) == (99.0, 989)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    tracer = Tracer(slet)
    traced = run.per_layer_metrics(tracer, 1, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: entry["unit"] for name, entry in traced.items()}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "levels_per_s", "level_ms", "setup_s", "max_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)


def test_unknown_failure_makes_the_run_incorrect():
    known = wl.Excited.KNOWN_FAULTS
    fault = wl.Outcome("coulomb", 13, 0, failure="BracketingError")
    other = wl.Outcome("cornell", 60, 2, failure="alpha1 vs closed form")
    failed, all_known = run.failure_report([fault, fault], known)
    assert all_known and failed == {"coulomb n=13 l=0": ("BracketingError", 2)}
    assert not run.failure_report([fault, other], known)[1]
