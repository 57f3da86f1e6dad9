import math

import numpy as np
import pytest
from scipy.optimize import brentq

from slet.engine import QuantumNumbers
from slet.errors import SupercriticalCouplingError, WindowError
from slet.oracle import (
    RadialGrid,
    count_nodes,
    default_grid,
    effective_operator,
    escape_radius,
    fall_to_center_check,
    nth_eigenpair,
    nth_eigenvalue,
    solve_selfconsistent,
)
from slet.potentials import ParticlePair, PotentialModel

ZERO_POTENTIAL = PotentialModel.custom([(0.0, 0.0)])


def reduced_coulomb_binding(m, alpha, n, l):
    """Scalar implicit solution of the reduced Coulomb problem.

    The corrected 1/r^2 strength shifts l to the real root l' of
    l'(l'+1) = l(l+1) - mu alpha^2/eta and the remaining hydrogen-like
    problem fixes E through
    E + E^2/(2 eta) = -mu alpha^2 (1 + E/eta)^2 / (2 (n + l' + 1)^2).
    """
    pair = ParticlePair.equal(m)
    mu, eta = pair.mu, pair.eta
    lp = -0.5 + math.sqrt((l + 0.5) ** 2 - mu * alpha**2 / eta)

    def f(e):
        return e + e * e / (2.0 * eta) + mu * alpha**2 * (1 + e / eta) ** 2 \
            / (2.0 * (n + lp + 1.0) ** 2)

    return brentq(f, -1.0, -1e-15, rtol=1e-15)


@pytest.fixture(scope="module")
def box():
    pair = ParticlePair.equal(1.0, relativistic=False)
    grid = RadialGrid(1e-4, 10.0, 2000)
    diag, off = effective_operator(ZERO_POTENTIAL, pair, 0, 0.0, grid)
    return pair, grid, diag, off


class TestBoxSpectrum:
    def test_levels(self, box):
        pair, grid, diag, off = box
        span = grid.r_max - grid.r_min
        for k in range(4):
            exact = (k + 1) ** 2 * math.pi**2 / (2.0 * pair.mu * span**2)
            assert nth_eigenvalue(diag, off, k) == pytest.approx(
                exact, rel=1e-3)

    def test_ordering_and_ratio(self, box):
        _, _, diag, off = box
        lam = [nth_eigenvalue(diag, off, k) for k in range(3)]
        assert lam[0] < lam[1] < lam[2]
        assert lam[1] / lam[0] == pytest.approx(4.0, rel=5e-3)

    def test_node_counts(self, box):
        _, _, diag, off = box
        for k in range(4):
            _, vec = nth_eigenpair(diag, off, k)
            assert count_nodes(vec) == k


class TestNonrelativisticSpectra:
    def test_oscillator_levels(self):
        pot = PotentialModel.oscillator(1.0)
        pair = ParticlePair.equal(1.310, relativistic=False)
        for n, l in [(0, 0), (1, 0), (2, 1), (3, 2)]:
            sol = solve_selfconsistent(pot, pair, QuantumNumbers(n, l))
            exact = (2 * n + l + 1.5) / math.sqrt(pair.mu)
            assert sol.binding_energy == pytest.approx(exact, rel=1e-3)
            assert sol.node_count == n
            assert sol.residual == 0.0

    def test_e_trial_enters_only_through_coupling(self, cornell_pot,
                                                  pair_145):
        grid = RadialGrid(1e-4, 20.0, 1000)
        d0, o0 = effective_operator(cornell_pot, pair_145, 1, 0.0, grid)
        d1, o1 = effective_operator(cornell_pot, pair_145, 1, 0.5, grid)
        v = cornell_pot.evaluate(grid.points)
        np.testing.assert_allclose(d1 - d0, 0.5 * v / pair_145.eta,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(o0, o1)


class TestFallToCenter:
    def test_coulomb_margin(self, coulomb_pot, pair_145):
        res = fall_to_center_check(coulomb_pot, pair_145, 0)
        assert res.passed
        assert res.strength == pytest.approx(-0.015625, rel=1e-12)
        assert res.margin == pytest.approx(0.234375, rel=1e-12)

    def test_centrifugal_dominance(self, coulomb_pot, pair_145):
        res = fall_to_center_check(coulomb_pot, pair_145, 1)
        assert res.passed and res.strength > 1.5

    def test_regular_potential(self, oscillator_pot, pair_131):
        for l in (0, 2):
            res = fall_to_center_check(oscillator_pot, pair_131, l)
            assert res.passed
            assert res.margin == pytest.approx(l * (l + 1) + 0.25, rel=1e-12)

    def test_supercritical_refused(self):
        pot = PotentialModel.coulomb(3.0)
        pair = ParticlePair.equal(1.0)
        assert not fall_to_center_check(pot, pair, 0).passed
        with pytest.raises(SupercriticalCouplingError):
            solve_selfconsistent(pot, pair, QuantumNumbers(0, 0))

    def test_inverse_square_term_refused(self, pair_145):
        pot = PotentialModel.custom([(-0.1, -2.0), (0.18, 1.0)])
        assert not fall_to_center_check(pot, pair_145, 0).passed


class TestReducedCoulomb:
    def test_implicit_closed_form(self, coulomb_pot, pair_145):
        for n, rmax in [(0, 120.0), (1, 150.0)]:
            exact = reduced_coulomb_binding(1.45, 0.25, n, 0)
            sol = solve_selfconsistent(
                coulomb_pot, pair_145, QuantumNumbers(n, 0),
                grid=RadialGrid(1e-5, rmax, 32000))
            assert sol.binding_energy == pytest.approx(exact, abs=1e-6)
            assert sol.node_count == n

    def test_domain_convergence(self, coulomb_pot, pair_145):
        base = solve_selfconsistent(coulomb_pot, pair_145,
                                    QuantumNumbers(0, 0),
                                    grid=RadialGrid(1e-4, 120.0, 12000))
        wide = solve_selfconsistent(coulomb_pot, pair_145,
                                    QuantumNumbers(0, 0),
                                    grid=RadialGrid(1e-4, 180.0, 18000))
        assert abs(wide.binding_energy - base.binding_energy) < 1e-6


class TestGridConvergence:
    def test_second_order_h_refinement(self):
        # empty box: the continuum level on the same [r_min, r_max]
        # domain is exact, so the only error is the three-point stencil
        # and it must shrink 4x per h-halving
        pair = ParticlePair.equal(1.0, relativistic=False)
        errs = []
        for count in (500, 1000, 2000):
            grid = RadialGrid(1e-4, 10.0, count)
            sol = solve_selfconsistent(ZERO_POTENTIAL, pair,
                                       QuantumNumbers(1, 0), grid)
            span = grid.r_max - grid.r_min
            exact = 4.0 * math.pi**2 / (2.0 * pair.mu * span**2)
            errs.append(abs(sol.binding_energy - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_oscillator_refinement_with_tight_inner_boundary(self):
        # with the inner Dirichlet point pulled in, the stencil error
        # dominates and dies off under h-halving toward the exact level
        pot = PotentialModel.oscillator(1.0)
        pair = ParticlePair.equal(1.310, relativistic=False)
        exact = 1.5 / math.sqrt(pair.mu)
        errs = []
        for count in (1000, 2000, 4000):
            grid = RadialGrid(1e-6, 12.0, count)
            sol = solve_selfconsistent(pot, pair, QuantumNumbers(0, 0), grid)
            errs.append(abs(sol.binding_energy - exact))
        assert errs[2] < errs[1] / 4.0 < errs[0] / 16.0

    def test_relativistic_wall_fixed_refinement(self, cornell_pot, pair_145):
        # with the wall pinned, halving h moves the level by < 1e-4
        sols = [solve_selfconsistent(cornell_pot, pair_145,
                                     QuantumNumbers(0, 0),
                                     grid=RadialGrid(1e-4, 25.0, count))
                for count in (4000, 8000)]
        assert abs(sols[1].binding_energy - sols[0].binding_energy) < 1e-4


class TestQuasiBoundMachinery:
    def test_default_grid_scales(self, cornell_pot, coulomb_pot, pair_145):
        g = default_grid(coulomb_pot, pair_145)
        assert g.r_max == pytest.approx(40.0 / (pair_145.mu * 0.25), rel=1e-12)
        g2 = default_grid(cornell_pot, pair_145, r_max=33.0)
        assert g2.r_max == 33.0
        # no term of -r^-1/2 sets a length scale; the box falls back to 40
        scale_free = PotentialModel.custom([(-1.0, -0.5)])
        assert default_grid(scale_free, pair_145).r_max == 40.0

    def test_escape_radius(self, cornell_pot, pair_145):
        r = escape_radius(cornell_pot, pair_145, 0.5, 1e3)
        assert cornell_pot.evaluate(r) == pytest.approx(
            2.0 * pair_145.eta + 0.5, rel=1e-9)

    def test_wall_inside_forbidden_band(self, oracle_results):
        # the solver's wall must sit between the level's inner turning
        # point (V = E) and its escape point (V = 2 eta + E)
        pots = {2: PotentialModel.oscillator(1.0),
                3: PotentialModel.coulomb_plus_linear(0.25, 0.18)}
        etas = {2: 2 * 1.310, 3: 2 * 1.45}
        for (tid, n, l), sol in oracle_results.items():
            v_wall = pots[tid].evaluate(sol.grid.r_max)
            assert v_wall > sol.binding_energy
            assert v_wall < 2.0 * etas[tid] + sol.binding_energy + 0.2

    def test_level_continuity_along_scan(self, cornell_pot, pair_145):
        sol = solve_selfconsistent(cornell_pot, pair_145,
                                   QuantumNumbers(1, 1),
                                   track_scan_nodes=True)
        assert sol.scan_node_counts
        assert all(c == 1 for c in sol.scan_node_counts)

    def test_window_error_carries_sweep(self, cornell_pot, pair_145):
        with pytest.raises(WindowError) as info:
            solve_selfconsistent(cornell_pot, pair_145, QuantumNumbers(0, 0),
                                 window=(5.0, 6.0))
        assert len(info.value.sweep) > 2

    def test_wavefunction_normalized(self, oracle_results):
        sol = oracle_results[(3, 0, 0)]
        norm = sol.grid.h * float(np.sum(sol.wavefunction**2))
        assert norm == pytest.approx(1.0, rel=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(0.0, 10.0, 1000)
        with pytest.raises(ValueError):
            RadialGrid(1e-4, 10.0, 100)
        with pytest.raises(ValueError):
            RadialGrid(5.0, 1.0, 1000)

    def test_resolution_warning(self, oscillator_pot):
        # a trial energy whose local wavelength the spacing cannot carry
        pair = ParticlePair.equal(1.31, relativistic=False)
        coarse = RadialGrid(1e-4, 40.0, 999)
        with pytest.warns(Warning, match="refine the grid"):
            effective_operator(oscillator_pot, pair, 0, 200.0, coarse)
