import math

import numpy as np
import pytest
from scipy.optimize import brentq

from slet import engine, perturbation
from slet.engine import (
    R0_SCAN_PANELS,
    QuantumNumbers,
    correction_energies,
    coulomb_closed_form,
    coulomb_reference,
    energy_denominator,
    geometry_at,
    leading_energy,
    r0_residual,
    shift_and_lbar,
    solve,
    solve_r0,
    taylor_coefficients,
)
from slet.errors import (
    BracketingError,
    MultipleRootsWarning,
    NoHarmonicRegimeError,
    NonMonotonePointError,
    SupercriticalCouplingError,
    UnphysicalCouplingError,
)
from slet.potentials import ParticlePair, PotentialModel


def coulomb_r0_reference(m, alpha, n, l=0):
    """Independent root of the expansion-point equation for Coulomb.

    For equal masses the equation collapses to a scalar condition on
    q = sqrt(Q):  1 + 2l + (2n+1) sqrt(1 - alpha^2/(4 q^2)) = 2 q,
    after which xi and r0 follow from the geometry definitions.
    """
    mu, eta = m / 2.0, 2.0 * m

    def f(q):
        return 1.0 + 2 * l + (2 * n + 1) * math.sqrt(
            1.0 - alpha**2 / (4.0 * q * q)) - 2.0 * q

    q = brentq(f, 0.5 * alpha + 1e-9, n + l + 2.0, rtol=1e-15)
    xi = 2.0 * eta * q * q / (mu * alpha**2) - 1.0
    return alpha * math.sqrt(xi * xi - 1.0) / (2.0 * eta)


class TestGeometry:
    def test_coulomb_closed_form_point(self, coulomb_pot, pair_145):
        cf = coulomb_closed_form(1.45, 0.25, 0)
        geo = geometry_at(coulomb_pot, pair_145, cf.r0)
        assert geo.Q == pytest.approx(1.0, rel=1e-10)

    def test_nonrelativistic_limit_of_q(self):
        # eta -> inf turns Q into mu r0^3 V'(r0): exactly at eta = inf,
        # and approached as the masses grow
        pot = PotentialModel.oscillator(1.0)
        r0 = 1.3
        for m, rel in ((5e7, 1e-4), (5e11, 1e-10)):  # eta = 2m
            heavy = ParticlePair.equal(m)
            limit = heavy.mu * r0**3 * pot.derivative(r0, 1)
            assert geometry_at(pot, heavy, r0).Q == pytest.approx(limit,
                                                                  rel=rel)
        pair = ParticlePair.equal(1.31, relativistic=False)
        geo = geometry_at(pot, pair, r0)
        assert geo.Q == pair.mu * r0**3 * pot.derivative(r0, 1)
        assert geo.xi == math.inf

    def test_omega_near_coulomb_ratio(self, coulomb_pot, pair_145):
        # the scaled frequency sits within 1% of 2/m for alpha = 0.25
        r0, _ = solve_r0(coulomb_pot, pair_145, QuantumNumbers(0, 0))
        geo = geometry_at(coulomb_pot, pair_145, r0)
        assert abs(geo.omega / (2.0 / 1.45) - 1.0) < 0.01

    def test_decreasing_point_rejected(self, pair_145):
        pot = PotentialModel.custom([(-0.5, 1.0)])
        with pytest.raises(NonMonotonePointError):
            geometry_at(pot, pair_145, 1.0)


ARRAY_POTENTIALS = {
    "cornell": PotentialModel.coulomb_plus_linear(0.25, 0.18),
    "oscillator": PotentialModel.oscillator(1.0),
    "coulomb": PotentialModel.coulomb(0.25),
    "decreasing": PotentialModel.custom([(-0.5, 1.0)]),
    # r V''/V' -> -4 near the origin turns the frequency bracket negative
    "steep-core": PotentialModel.custom([(-1.0, -3.0), (0.1, 2.0)]),
}


class TestArrayForm:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("relativistic", [True, False])
    @pytest.mark.parametrize("name", sorted(ARRAY_POTENTIALS))
    def test_array_equals_scalar_calls(self, name, relativistic):
        pot = ARRAY_POTENTIALS[name]
        pair = ParticlePair.equal(1.45, relativistic)
        qn = QuantumNumbers(2, 1)
        radii = np.geomspace(1e-3, 1e4, 141)
        geo = geometry_at(pot, pair, radii)
        residual = r0_residual(pot, pair, qn, radii)
        raised = set()
        for i, r in enumerate(radii):
            got = (geo.xi[i], geo.Q[i], geo.omega[i], residual[i])
            try:
                one = geometry_at(pot, pair, float(r))
            except (NonMonotonePointError, NoHarmonicRegimeError) as exc:
                raised.add(type(exc))
                assert np.isnan(got).all()
                with pytest.raises(type(exc)):
                    r0_residual(pot, pair, qn, float(r))
                continue
            assert got == (one.xi, one.Q, one.omega,
                           r0_residual(pot, pair, qn, float(r)))
        expected = {"decreasing": {NonMonotonePointError},
                    "steep-core": {NoHarmonicRegimeError}}
        assert raised == expected.get(name, set())
        if name != "decreasing":
            solve_r0(pot, pair, qn)  # the scan, under the same filter

    @pytest.mark.parametrize("r", [0.7, np.float64(0.7)], ids=type)
    def test_scalar_results_are_python_floats(self, cornell_pot, pair_145,
                                              r):
        # a scalar radius stays 0-d all the way, and what comes out is a
        # plain float, so no np.float64 reaches a CSV cell's repr
        geo = geometry_at(cornell_pot, pair_145, r)
        assert [type(v) for v in (geo.xi, geo.Q, geo.omega)] == [float] * 3
        stack = cornell_pot.derivatives(r, 6)
        assert [type(v) for v in stack] == [float] * 7
        assert type(r0_residual(cornell_pot, pair_145,
                                QuantumNumbers(1, 1), r)) is float


class TestShift:
    def test_direct_substitution(self, pair_145):
        # mu (n + 1/2) omega = 0.5 at l = 0 gives beta = -1, lbar = 1
        omega = 0.5 / (pair_145.mu * 0.5)
        beta, lbar = shift_and_lbar(pair_145, 0, omega, 0)
        assert beta == pytest.approx(-1.0, rel=1e-15)
        assert lbar == pytest.approx(1.0, rel=1e-15)

    def test_elimination_identity(self, pair_145):
        # (2 beta + 1)/(2 mu) + (n + 1/2) omega = 0 by construction
        for n in range(4):
            for omega in (0.3, 1.7, 4.2):
                beta, _ = shift_and_lbar(pair_145, n, omega, 1)
                left = (2 * beta + 1) / (2 * pair_145.mu) + (n + 0.5) * omega
                assert abs(left) < 1e-15 * (n + 0.5) * omega

    def test_coulomb_ground_lbar(self, coulomb_pot, pair_145):
        cf = coulomb_closed_form(1.45, 0.25, 0)
        assert cf.Q == 1.0  # lbar = sqrt(Q) = 1 at the closed-form point


class TestSolveR0:
    def test_coulomb_against_scalar_reduction(self, coulomb_pot, pair_145):
        got, _ = solve_r0(coulomb_pot, pair_145, QuantumNumbers(0, 0))
        expect = coulomb_r0_reference(1.45, 0.25, 0)
        assert got == pytest.approx(expect, rel=1e-9)
        # the closed-form expansion point assumes the 2/m frequency and
        # differs from the self-consistent root at the percent level
        cf = coulomb_closed_form(1.45, 0.25, 0)
        assert cf.r0 == pytest.approx(5.47397, abs=1e-5)
        assert abs(got - cf.r0) / cf.r0 < 0.01
        assert got != pytest.approx(cf.r0, rel=1e-6)
        # n + l + 1 >= 14 puts r0 above 1e3, which the bracket must follow
        for n, l in [(13, 0), (12, 4)]:
            got, _ = solve_r0(coulomb_pot, pair_145, QuantumNumbers(n, l))
            expect = coulomb_r0_reference(1.45, 0.25, n, l)
            assert got == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("pot_name,m", [("oscillator", 1.31),
                                            ("cornell", 1.45)])
    def test_q_lbar_identity(self, pot_name, m, oscillator_pot, cornell_pot):
        pot = oscillator_pot if pot_name == "oscillator" else cornell_pot
        pair = ParticlePair.equal(m)
        for n, l in [(0, 0), (2, 1), (4, 2)]:
            qn = QuantumNumbers(n, l)
            r0, _ = solve_r0(pot, pair, qn)
            geo = geometry_at(pot, pair, r0)
            _, lbar = shift_and_lbar(pair, n, geo.omega, l)
            assert abs(math.sqrt(geo.Q) - lbar) / lbar <= 1e-8
            assert abs(r0_residual(pot, pair, qn, r0)) < 1e-9

    def test_no_bracket(self, pair_145):
        pot = PotentialModel.custom([(-0.5, 1.0)])  # decreasing everywhere
        with pytest.raises(BracketingError):
            solve_r0(pot, pair_145, QuantumNumbers(0, 0))

    def test_multiple_roots_keep_lowest_leading_energy(self, pair_145):
        # the r0 equation has a root near 0.958 and one near 3.126; the
        # second has the lower leading energy and is kept, with a warning
        pot = PotentialModel.custom([(4.0, 1.0), (-2.0, 2.0), (0.3, 3.0)])
        qn = QuantumNumbers(0, 0)
        with pytest.warns(MultipleRootsWarning, match="2 expansion points"):
            sol = solve(pot, pair_145, qn)
        assert sol.diagnostics.r0_root_count == 2
        assert sol.r0 == pytest.approx(3.12638, abs=1e-5)
        assert sol.E0 == pytest.approx(2.61534, abs=1e-5)
        other = brentq(lambda r: r0_residual(pot, pair_145, qn, r), 0.5, 1.0)
        assert other == pytest.approx(0.95777, abs=1e-5)
        e0_other = leading_energy(pot.evaluate(other), pair_145, other,
                                  geometry_at(pot, pair_145, other).Q)
        assert e0_other == pytest.approx(2.77511, abs=1e-5)
        assert sol.E0 < e0_other


class TestLeadingEnergy:
    def test_closed_form_inputs(self, coulomb_pot, pair_145):
        for n, printed in [(0, -0.02274), (3, -0.001415)]:
            cf = coulomb_closed_form(1.45, 0.25, n)
            e0 = leading_energy(coulomb_pot.evaluate(cf.r0), pair_145, cf.r0,
                                cf.Q)
            assert e0 == pytest.approx(printed, abs=1e-5)
            assert e0 == pytest.approx(cf.E0, rel=1e-10)

    def test_degenerate_q(self, coulomb_pot, pair_145):
        r0 = 2.0
        v0 = coulomb_pot.evaluate(r0)
        assert leading_energy(v0, pair_145, r0, 0.0) == v0

    def test_denominator_identity(self, cornell_pot, pair_145):
        # sqrt(1 + Q/(mu eta r0^2)) equals 1 + (E0 - V(r0))/eta
        r0, _ = solve_r0(cornell_pot, pair_145, QuantumNumbers(1, 1))
        geo = geometry_at(cornell_pot, pair_145, r0)
        e0 = leading_energy(cornell_pot.evaluate(r0), pair_145, r0, geo.Q)
        d1 = energy_denominator(pair_145, r0, geo.Q)
        d2 = 1.0 + (e0 - cornell_pot.evaluate(r0)) / pair_145.eta
        assert d1 == pytest.approx(d2, rel=1e-12)


class TestTaylorCoefficients:
    def test_vanishing_shift_factor(self, cornell_pot, pair_145):
        # beta = -1/2 makes (2 beta + 1) = 0, so eps1 = eps2 = 0
        tc = taylor_coefficients(cornell_pot.derivatives(2.0, 6), pair_145,
                                 r0=2.0, Q=4.0, beta=-0.5, E0=0.1, omega=1.0,
                                 n=0)
        assert tc.eps[0] == 0.0
        assert tc.eps[1] == 0.0

    def test_linear_third_order(self, pair_145):
        # V''' = 0 for b r, so only the gamma part feeds eps3's tail
        pot = PotentialModel.linear(0.18)
        r0, q, beta, e0, omega = 2.0, 4.0, -1.2, 0.3, 1.1
        tc = taylor_coefficients(pot.derivatives(r0, 6), pair_145, r0, q, beta,
                                 e0, omega, 0)
        gamma3 = pot.gamma_derivative(pair_145, r0, 3)
        expect = -2.0 / pair_145.mu + r0**5 / (6.0 * q) * gamma3
        assert tc.eps[2] == pytest.approx(expect, rel=1e-14)

    def test_oscillator_delta6(self, oscillator_pot, pair_131):
        # (r^4/4)^(6) = 0 and V^(6) = 0, so delta6 = 7/(2 mu) exactly
        tc = taylor_coefficients(oscillator_pot.derivatives(1.4, 6), pair_131,
                                 r0=1.4, Q=3.0, beta=-1.0, E0=1.5, omega=2.0,
                                 n=0)
        assert tc.delta[5] == pytest.approx(7.0 / (2.0 * pair_131.mu),
                                            rel=1e-14)

    def test_one_derivative_stack(self, cornell_pot, pair_145, monkeypatch):
        # a solve samples the potential only through derivative stacks;
        # after the r0 search it takes at most two, both at r0 (the
        # geometry and the V^(0..6) stack)
        calls = []

        def counting(name):
            original = getattr(PotentialModel, name)

            def wrapper(self, r, *args):
                calls.append((name, r))
                return original(self, r, *args)
            return wrapper
        for name in ("derivatives", "derivative", "evaluate",
                     "gamma_derivative"):
            monkeypatch.setattr(PotentialModel, name, counting(name))
        original_r0 = engine.solve_r0

        def marking(*args):
            found = original_r0(*args)
            calls.append(("solve_r0", None))
            return found
        monkeypatch.setattr(engine, "solve_r0", marking)
        sol = solve(cornell_pot, pair_145, QuantumNumbers(1, 1))
        names = [name for name, _ in calls]
        assert set(names) == {"derivatives", "solve_r0"}
        after = calls[names.index("solve_r0") + 1:]
        assert 0 < len(after) <= 2
        assert all(np.all(np.asarray(r) == sol.r0) for _, r in after)


class TestCorrectionEnergies:
    def test_zero_alphas(self):
        # with beta(beta+1) = 0 too, both terms vanish and E = E0
        e2, e3 = correction_energies(r0=2.0, denominator=1.02, alpha1=0.0,
                                     alpha2=0.0, lbar=2.0, mu=0.725,
                                     beta=-1.0)
        assert e2 == 0.0 and e3 == 0.0


class TestClosedForms:
    def test_coulomb_table_row(self):
        printed = [-0.02274, -0.00566, -0.002516, -0.001415, -0.000906,
                   -0.000629]
        for n, value in enumerate(printed):
            cf = coulomb_closed_form(1.45, 0.25, n)
            assert cf.E0 == pytest.approx(value, abs=1e-5)
            assert cf.Q == (2 * n + 2) ** 2 / 4.0

    def test_reference_row(self):
        printed = [-0.022394, -0.005648, -0.002514, -0.001415, -0.000906,
                   -0.000629]
        for n, value in enumerate(printed):
            ref = coulomb_reference(1.45, 0.25, n)
            assert ref.exact_binding == pytest.approx(value, abs=1e-6)

    def test_bound_saturation(self):
        for n in range(6):
            cf = coulomb_closed_form(1.45, 0.25, n)
            ref = coulomb_reference(1.45, 0.25, n)
            assert cf.M == ref.upper_bound_mass  # identical expression

    def test_free_limit(self):
        cf = coulomb_closed_form(1.45, 1e-8, 0)
        assert abs(cf.E0) < 1e-15
        assert cf.M == pytest.approx(2.9, rel=1e-15)

    def test_unphysical_coupling(self):
        with pytest.raises(UnphysicalCouplingError):
            coulomb_closed_form(1.0, 2.0, 0)
        with pytest.raises(UnphysicalCouplingError):
            coulomb_reference(1.0, 2.0, 0)


class TestFullSolve:
    def test_invariants_on_converged_solves(self, table2_solutions,
                                            table3_solutions):
        for sols, total in ((table2_solutions, 2 * 1.310),
                            (table3_solutions, 2 * 1.45)):
            for sol in sols.values():
                assert sol.diagnostics.q_lbar_gap <= 1e-8
                assert sol.diagnostics.denominator_gap <= 1e-12
                assert sol.binding_energy == pytest.approx(
                    sol.E0 + sol.E2_term + sol.E3_term, rel=1e-14)
                assert sol.mass == pytest.approx(
                    sol.binding_energy + total, rel=1e-12)

    def test_anchor_cells(self, table2_solutions, table3_solutions):
        # cells the assembled series reproduces at print precision
        assert table2_solutions[(4, 2)].binding_energy == pytest.approx(
            9.3508, abs=5e-4)
        assert table3_solutions[(1, 1)].binding_energy == pytest.approx(
            1.2484, abs=5e-4)
        assert table3_solutions[(4, 2)].binding_energy == pytest.approx(
            2.3345, abs=5e-4)

    def test_nonrelativistic_coulomb_exact(self):
        # sentinel pair: binding must equal the hydrogen-like formula
        # -mu alpha^2 / (2 (n + l + 1)^2) through the whole pipeline
        pot = PotentialModel.coulomb(0.25)
        pair = ParticlePair.equal(1.45, relativistic=False)
        for n, l in [(0, 0), (1, 0), (2, 1), (10, 3), (20, 5)]:
            sol = solve(pot, pair, QuantumNumbers(n, l))
            exact = -pair.mu * 0.0625 / (2.0 * (n + l + 1) ** 2)
            assert sol.binding_energy == pytest.approx(exact, rel=1e-10)
            # alpha2 vanishes; its rounding error grows like alpha1^2
            assert abs(sol.alpha2) < 1e-12 * max(1.0, sol.alpha1**2)

    def test_nonrelativistic_oscillator_exact(self):
        pot = PotentialModel.oscillator(1.0)
        pair = ParticlePair.equal(1.31, relativistic=False)
        for n, l in [(0, 0), (1, 2), (3, 1)]:
            sol = solve(pot, pair, QuantumNumbers(n, l))
            exact = (2 * n + l + 1.5) / math.sqrt(pair.mu)
            assert sol.binding_energy == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("n, l", [(150, 1), (500, 3)])
    def test_nonrelativistic_oscillator_high_levels(self, n, l):
        # the series runs in a fixed window around level n, so its
        # rounding does not grow with the size of a basis from 0 to n
        pot = PotentialModel.oscillator(1.0)
        pair = ParticlePair.equal(1.31, relativistic=False)
        sol = solve(pot, pair, QuantumNumbers(n, l))
        exact = (2 * n + l + 1.5) / math.sqrt(pair.mu)
        assert sol.binding_energy == pytest.approx(exact, rel=1e-8)

    def test_nonrelativistic_limit_improves_with_mass(self):
        pot = PotentialModel.oscillator(1.0)
        errors = []
        for m in (1e3, 1e4):
            pair = ParticlePair.equal(m)
            sol = solve(pot, pair, QuantumNumbers(1, 1))
            exact = (2 + 1 + 1.5) / math.sqrt(pair.mu)
            errors.append(abs(sol.binding_energy - exact) / exact)
        assert errors[0] < 1e-3
        assert errors[1] < errors[0]

    def test_alpha1_paths_agree(self, table2_solutions, table3_solutions):
        for sol in list(table2_solutions.values()) + \
                list(table3_solutions.values()):
            assert sol.diagnostics.alpha1_path_gap <= 1e-8

    def test_one_series_per_solve(self, cornell_pot, pair_145, monkeypatch):
        calls = []
        original = perturbation.rspt_coefficients

        def counted(problem, *args, **kwargs):
            calls.append(problem)
            return original(problem, *args, **kwargs)
        monkeypatch.setattr(perturbation, "rspt_coefficients", counted)
        solve(cornell_pot, pair_145, QuantumNumbers(1, 1))
        assert len(calls) == 1

    def test_geometry_once_at_r0(self, monkeypatch):
        # one array scan plus the polish calls, then a single geometry
        # at the converged r0 in solve
        counts = {"r0_residual": 0, "geometry_at": 0}

        def counting(name):
            original = getattr(engine, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)
            return wrapper
        for name in counts:
            monkeypatch.setattr(engine, name, counting(name))
        pot = PotentialModel.cornell(0.25, 0.18)
        sol = solve(pot, ParticlePair.equal(1.45), QuantumNumbers(1, 1))
        diag = sol.diagnostics
        assert diag.r0_root_count == 1
        residual_calls = 1 + diag.r0_function_calls - (R0_SCAN_PANELS + 1)
        assert counts["r0_residual"] == residual_calls
        assert counts["geometry_at"] == residual_calls + 1

    def test_stage_labels(self, pair_145):
        pot = PotentialModel.custom([(-0.5, 1.0)])
        with pytest.raises(BracketingError) as info:
            solve(pot, pair_145, QuantumNumbers(0, 0))
        assert info.value.stage == "solve_r0"

    @pytest.mark.parametrize("n", [0, 20])
    def test_fall_to_center_refused(self, n):
        # l(l+1) - mu alpha^2/eta = -0.36 lies below the -1/4 bound; the
        # expansion refuses it with the grid solver's rule instead of
        # keeping a spurious root near the core
        pot = PotentialModel.coulomb(1.2)
        with pytest.raises(SupercriticalCouplingError) as info:
            solve(pot, ParticlePair.equal(1.0), QuantumNumbers(n, 0))
        assert info.value.stage == "fall_to_center"
        assert "strength -0.36 is below the -1/4 bound (margin -0.11)" \
            in str(info.value)

    def test_monotone_in_n_and_l(self, table2_solutions, table3_solutions):
        for sols in (table2_solutions, table3_solutions):
            for (n, l), sol in sols.items():
                if (n + 1, l) in sols:
                    assert sols[(n + 1, l)].binding_energy > sol.binding_energy
                if (n, l + 1) in sols:
                    assert sols[(n, l + 1)].binding_energy > sol.binding_energy

    def test_unequal_masses_cross_validated(self, cornell_pot):
        # different mu and eta path; the grid solver is the referee
        from slet.oracle import solve_selfconsistent
        pair = ParticlePair(1.45, 4.8)
        for n, l in [(0, 0), (1, 1)]:
            sol = solve(cornell_pot, pair, QuantumNumbers(n, l))
            ora = solve_selfconsistent(cornell_pot, pair,
                                       QuantumNumbers(n, l))
            assert sol.diagnostics.q_lbar_gap <= 1e-8
            assert abs(sol.binding_energy - ora.binding_energy) < 2e-2

    def test_relativistic_coulomb_higher_l(self, coulomb_pot, pair_145):
        # at l >= 1 the expansion parameter is large and the series is
        # nearly exact; the grid solver confirms to a few 1e-7
        from slet.oracle import solve_selfconsistent
        for n, l in [(0, 1), (1, 1)]:
            sol = solve(coulomb_pot, pair_145, QuantumNumbers(n, l))
            ora = solve_selfconsistent(coulomb_pot, pair_145,
                                       QuantumNumbers(n, l))
            assert sol.binding_energy == pytest.approx(
                ora.binding_energy, abs=1e-5)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            QuantumNumbers(-1, 0)
