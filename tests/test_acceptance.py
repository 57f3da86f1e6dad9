"""Acceptance gates for the solver stack.

Each test covers one numbered criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -rA`` to see the lines
for passing tests too).  Gates 4 and 5 compare every printed expansion
value of the oscillator and Coulomb-plus-linear tables with the
computed energy: with the full series E0 + E2 + E3, or, for the four
oscillator cells listed in ``PRINTED_PARTIAL_SUMS``, with the partial
sum the printed value carries.  Both gates print the full-series
divergence of every cell, and report each flagged cell individually.
"""

import math

import numpy as np
from scipy.optimize import brentq

from slet import cli
from slet import perturbation as pt
from slet.engine import (
    QuantumNumbers,
    alpha1_closed_form,
    coulomb_closed_form,
    solve,
)
from slet.fixtures import (
    PRINTED_PARTIAL_SUMS,
    SLET_TOLERANCES,
    TABLE1,
    TABLE2,
    TABLE3,
)
from slet.oracle import (
    RadialGrid,
    effective_operator,
    nth_eigenvalue,
    solve_selfconsistent,
)
from slet.potentials import MAX_DERIVATIVE_ORDER, ParticlePair, PotentialModel

M_COULOMB = 1.45
ALPHA = 0.25


def report(number, name, failures, extra=""):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violation(s))"
    print(f"ACCEPTANCE {number:>2} {name}: {status}{extra}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_01_coulomb_closed_form():
    failures = []
    for (n, _), printed in sorted(TABLE1.rows["slet"].items()):
        _, _, got = coulomb_closed_form(M_COULOMB, ALPHA, n)
        if abs(got - printed) > 1e-5:
            failures.append(f"n={n}: {got:.6f} vs printed {printed}")
    report(1, "Coulomb closed form matches printed row at 1e-5", failures)


def test_criterion_02_coulomb_exact_reference():
    failures = []
    for (n, _), printed in sorted(TABLE1.rows["exact"].items()):
        # exact mass 2m / sqrt(1 + a^2), a = alpha / (2n + 2)
        a = ALPHA / (2.0 * n + 2.0)
        got = 2.0 * M_COULOMB / math.sqrt(1.0 + a * a) - 2.0 * M_COULOMB
        if abs(got - printed) > 1e-6:
            failures.append(f"n={n}: {got:.7f} vs printed {printed}")
    report(2, "Coulomb exact reference matches printed row at 1e-6", failures)


def test_criterion_03_bound_saturation_identity():
    failures = []
    # the M_GeV of the closed-form records that `slet table 1` emits
    records, _, _ = cli.run_table(1)
    masses = {record.n: record.M_GeV for record in records}
    if sorted(masses) != list(range(6)):
        failures.append(f"table 1 emits levels n={sorted(masses)}")
    for n, mass in sorted(masses.items()):
        # variational bound 2m sqrt(1 - a^2), a = alpha / (2n + 2)
        a = ALPHA / (2.0 * n + 2.0)
        bound = 2.0 * M_COULOMB * math.sqrt(1.0 - a * a)
        if mass != bound:
            failures.append(f"n={n}: {mass!r} != {bound!r}")
    report(3, "closed-form mass equals variational bound exactly", failures)


def _table_gate(number, fixture, solutions):
    tolerance = SLET_TOLERANCES[fixture.table_id]
    printed = fixture.rows["slet"]
    partial_sums = PRINTED_PARTIAL_SUMS.get(fixture.table_id, {})
    failures = []
    worst = worst_full = 0.0
    print(f"  table {fixture.table_id} full-series divergences (GeV):")
    for (n, l), sol in sorted(solutions.items()):
        full_gap = sol.binding_energy - printed[(n, l)]
        worst_full = max(worst_full, abs(full_gap))
        terms = partial_sums.get((n, l))
        if terms is None:
            target, computed = "full series", sol.binding_energy
        else:
            target = "+".join(terms)
            computed = sum(getattr(sol, term) for term in terms)
        gap = computed - printed[(n, l)]
        worst = max(worst, abs(gap))
        note = "" if terms is None else f"; printed {target}: {gap:+.2e}"
        print(f"    (n={n},l={l}): {full_gap:+.3e}{note}")
        if abs(gap) > tolerance:
            failures.append(
                f"(n={n},l={l}): computed {target} {computed:.5f}, "
                f"printed {printed[(n, l)]}, divergence {gap:+.2e}")
    name = (f"table {fixture.table_id} reproduction, 15 cells at "
            f"{tolerance:g} GeV")
    report(number, name, failures,
           extra=(f"; worst |divergence| {worst:.2e}, full series "
                  f"{worst_full:.2e}"))


def test_criterion_04_oscillator_table(table2_solutions):
    # the printed n = 0 column matches the leading energy E0 and cell
    # (1,2) matches E0 + E2, each within 5e-5; those four cells are
    # compared with their recorded partial sum, the other eleven with
    # the full series, which they match to 5.1e-5 or better
    _table_gate(4, TABLE2, table2_solutions)


def test_criterion_05_cornell_table(table3_solutions):
    # every cell is compared with the full series.  The l = 0 row misses
    # by -9.0e-4 at n = 0 and about +2e-3 at n = 1..4, and no partial sum
    # comes within 5e-5; the l = 1, 2 cells miss by up to 3.6e-4.  The
    # cause is open (see the README), so this gate is expected to fail
    _table_gate(5, TABLE3, table3_solutions)


def test_criterion_06_alpha1_dual_path(table2_solutions, table3_solutions):
    failures = []
    for label, sols in (("table2", table2_solutions),
                        ("table3", table3_solutions)):
        for (n, l), sol in sols.items():
            if sol.diagnostics.alpha1_path_gap > 1e-8:
                failures.append(
                    f"{label} (n={n},l={l}): paths differ by "
                    f"{sol.diagnostics.alpha1_path_gap:.2e}")
    rng = np.random.default_rng(2024)
    for trial in range(100):
        mu, omega = rng.uniform(0.3, 3.0), rng.uniform(0.2, 4.0)
        n = int(rng.integers(0, 5))
        eps_bar = rng.uniform(-1.0, 1.0, 4)
        scale = 2.0 * mu * omega
        eps = [e * scale ** ((i + 1) / 2.0) for i, e in enumerate(eps_bar)]
        c2, _ = pt.rspt_coefficients(mu, omega, n, tuple(eps), (0,) * 6)
        closed = alpha1_closed_form(n, omega, eps_bar)
        gap = abs(c2 - closed)
        if abs(closed) > 1e-12 and gap / abs(closed) > 1e-8:
            failures.append(f"random draw {trial}: rel gap {gap / abs(closed):.2e}")
        elif abs(closed) <= 1e-12 and gap > 1e-10:
            failures.append(f"random draw {trial}: abs gap {gap:.2e}")
    report(6, "alpha1 closed form vs series at 1e-8 (30 configs + 100 draws)",
           failures)


def test_criterion_07_q_lbar_identity(table2_solutions, table3_solutions):
    solutions = dict(table2_solutions)
    solutions.update({("t3",) + k: v for k, v in table3_solutions.items()})
    coul = PotentialModel.coulomb(ALPHA)
    pair = ParticlePair.equal(M_COULOMB)
    for n in range(3):
        solutions[("coul", n)] = solve(coul, pair, QuantumNumbers(n, 0))
    failures = [f"{key}: gap {sol.diagnostics.q_lbar_gap:.2e}"
                for key, sol in solutions.items()
                if not sol.diagnostics.q_lbar_gap <= 1e-8]
    report(7, "sqrt(Q) = lbar at 1e-8 on every converged solve", failures,
           extra=f"; {len(solutions)} solves checked")


def test_criterion_08_oracle_exactness():
    failures = []
    # (a) particle in a box and nonrelativistic oscillator at 0.1%
    free = PotentialModel.custom([(0.0, 0.0)])
    box_pair = ParticlePair.equal(1.0, relativistic=False)
    grid = RadialGrid(1e-4, 10.0, 2000)
    diag, off = effective_operator(free, box_pair, 0, 0.0, grid)
    span = grid.r_max - grid.r_min
    for k in range(4):
        exact = (k + 1) ** 2 * math.pi**2 / (2.0 * box_pair.mu * span**2)
        got = nth_eigenvalue(diag, off, k)
        if abs(got - exact) / exact > 1e-3:
            failures.append(f"box level {k}: rel {abs(got - exact) / exact:.1e}")

    osc = PotentialModel.oscillator(1.0)
    nr_pair = ParticlePair.equal(1.310, relativistic=False)
    for n, l in [(0, 0), (1, 0), (2, 1), (1, 2)]:
        sol = solve_selfconsistent(osc, nr_pair, QuantumNumbers(n, l))
        exact = (2 * n + l + 1.5) / math.sqrt(nr_pair.mu)
        if abs(sol.binding_energy - exact) / exact > 1e-3:
            failures.append(f"nr oscillator ({n},{l})")

    # (b) reduced-Coulomb implicit closed form at 1e-6 GeV
    coul = PotentialModel.coulomb(ALPHA)
    pair = ParticlePair.equal(M_COULOMB)
    mu, eta = pair.mu, pair.eta
    lp = -0.5 + math.sqrt(0.25 - mu * ALPHA**2 / eta)
    for n, rmax in [(0, 120.0), (1, 150.0)]:
        def implicit(e, n=n):
            return e + e * e / (2 * eta) + mu * ALPHA**2 * (1 + e / eta) ** 2 \
                / (2 * (n + lp + 1) ** 2)
        exact = brentq(implicit, -1.0, -1e-15, rtol=1e-15)
        sol = solve_selfconsistent(coul, pair, QuantumNumbers(n, 0),
                                   grid=RadialGrid(1e-5, rmax, 32000))
        if abs(sol.binding_energy - exact) > 1e-6:
            failures.append(
                f"reduced Coulomb n={n}: |{sol.binding_energy - exact:.2e}|")

    # (c) second-order convergence under h-halving (box reference)
    errs = []
    for count in (500, 1000, 2000):
        g = RadialGrid(1e-4, 10.0, count)
        sol = solve_selfconsistent(free, box_pair, QuantumNumbers(1, 0), g)
        exact = 4.0 * math.pi**2 / (2.0 * box_pair.mu
                                    * (g.r_max - g.r_min) ** 2)
        errs.append(abs(sol.binding_energy - exact))
    for a, b in zip(errs, errs[1:]):
        if not 3.5 < a / b < 4.5:
            failures.append(f"h-halving ratio {a / b:.2f} not ~4")
    report(8, "oracle exactness: box/oscillator 0.1%, Coulomb 1e-6, h^2",
           failures)


def test_criterion_09_oracle_vs_slet(table2_solutions, table3_solutions,
                                     oracle_results):
    failures = []
    diffs = {}
    for (tid, sols) in ((2, table2_solutions), (3, table3_solutions)):
        for n in range(3):
            for l in range(3):
                gap = (oracle_results[(tid, n, l)].binding_energy
                       - sols[(n, l)].binding_energy)
                diffs[(tid, n, l)] = gap
                if abs(gap) > 2e-2:
                    failures.append(f"table {tid} (n={n},l={l}): "
                                    f"|oracle - slet| = {abs(gap):.2e}")
    print("  oracle - slet differences (GeV):")
    for key in sorted(diffs):
        print(f"    table {key[0]} (n={key[1]},l={key[2]}): {diffs[key]:+.3e}")

    # the square-root-method columns solve the unreduced equation, so
    # they are context: matched loosely where the reduction error is
    # small (table 3), reported only for table 2 where it is not
    for (n, l), printed in TABLE3.rows["sqrt_method"].items():
        if n <= 2 and l <= 2:
            gap = oracle_results[(3, n, l)].binding_energy - printed
            if abs(gap) > 2e-2:
                failures.append(
                    f"table 3 unreduced-method context (n={n},l={l}): "
                    f"{abs(gap):.2e}")
    t2_gaps = [abs(oracle_results[(2, n, l)].binding_energy
                   - TABLE2.rows["sqrt_method"][(n, l)])
               for n in range(3) for l in range(3)]
    print(f"  table 2 vs unreduced-equation values (context only): "
          f"max |gap| {max(t2_gaps):.2e}")
    report(9, "oracle within 2e-2 of the expansion on tables 2-3, n,l <= 2",
           failures)


def test_criterion_10_property_suites():
    failures = []
    # derivative stacks against 5-point finite differences at 1e-6
    pots = [PotentialModel.coulomb(ALPHA), PotentialModel.oscillator(1.0),
            PotentialModel.linear(0.18),
            PotentialModel.coulomb_plus_linear(ALPHA, 0.18),
            PotentialModel.custom([(0.3, 2.5), (-0.1, -0.5)])]
    for pot in pots:
        for order in range(1, MAX_DERIVATIVE_ORDER + 1):
            for r in (0.3, 0.7, 1.5, 3.0, 8.0):
                h = 0.005 * r
                fd = (-pot.derivative(r + 2 * h, order - 1)
                      + 8 * pot.derivative(r + h, order - 1)
                      - 8 * pot.derivative(r - h, order - 1)
                      + pot.derivative(r - 2 * h, order - 1)) / (12 * h)
                exact = pot.derivative(r, order)
                if abs(fd - exact) > 1e-6 * max(abs(exact), 1e-3):
                    failures.append(f"{pot.label} order {order} r={r}")

    # series parity zeros at 1e-10 and exactly solvable cases at 1e-10:
    # c1 and c3 vanish when the series is even in lambda, so h(-lambda),
    # with every odd-order coefficient negated, has the same c2 and c4
    rng = np.random.default_rng(5)
    for _ in range(20):
        mu, omega = rng.uniform(0.3, 3.0), rng.uniform(0.2, 4.0)
        scale = 2.0 * mu * omega
        eps = [rng.uniform(-1, 1) * scale ** ((i + 1) / 2.0)
               for i in range(4)]
        delta = rng.uniform(-1, 1, 6)
        n = int(rng.integers(0, 4))
        even = pt.rspt_coefficients(mu, omega, n, tuple(eps), tuple(delta))
        mirrored = pt.rspt_coefficients(
            mu, omega, n, (-eps[0], eps[1], -eps[2], eps[3]),
            (-delta[0], delta[1], -delta[2], delta[3], -delta[4], delta[5]))
        if any(abs(a - b) > 1e-10 for a, b in zip(even, mirrored)):
            failures.append("parity zeros violated")

    mu, omega, n = 0.9, 1.7, 1
    ebar1 = 0.63
    e1 = ebar1 * math.sqrt(2 * mu * omega)
    c2, _ = pt.rspt_coefficients(mu, omega, n, (e1, 0, 0, 0), (0,) * 6)
    if abs(c2 - (-ebar1**2 / omega)) > 1e-10:
        failures.append("displaced-oscillator check")
    e2 = 0.07
    c2, c4 = pt.rspt_coefficients(1.1, 0.8, 2, (0, e2, 0, 0), (0,) * 6)
    if abs(c2 - 2.5 * e2 / (1.1 * 0.8)) > 1e-10:
        failures.append("quadratic-shift c2")
    if abs(c4 - (-2.5 * e2**2 / (2 * 1.1**2 * 0.8**3))) > 1e-10:
        failures.append("quadratic-shift c4")

    # nonrelativistic oscillator limit of the expansion, improving in m
    osc = PotentialModel.oscillator(1.0)
    errors = []
    for m in (1e3, 1e4):
        pair = ParticlePair.equal(m)
        sol = solve(osc, pair, QuantumNumbers(1, 1))
        exact = 4.5 / math.sqrt(pair.mu)
        errors.append(abs(sol.binding_energy - exact) / exact)
    if errors[0] > 1e-3:
        failures.append(f"m=1e3 limit off by {errors[0]:.1e}")
    if errors[1] >= errors[0]:
        failures.append("limit does not improve with mass")
    report(10, "derivative/parity/solvable/limit property suites", failures)
