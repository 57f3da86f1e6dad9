import math
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz
from scipy.optimize import brentq

from slet.engine import QuantumNumbers, bracketed_root
from slet import oracle
from slet.errors import (
    ConvergenceError,
    LevelIdentificationError,
    ResolutionWarning,
    SletError,
    SupercriticalCouplingError,
    UnphysicalRegimeError,
    WindowError,
)
from slet.oracle import (
    GridOperator,
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
from slet.potentials import ParticlePair, PotentialModel, parse_potential

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
def coulomb_levels(coulomb_pot, pair_145):
    """The six Coulomb levels of `slet compare`'s benchmark."""
    return {n: solve_selfconsistent(coulomb_pot, pair_145,
                                    QuantumNumbers(n, 0))
            for n in range(6)}


@pytest.fixture
def full_grid_calls(monkeypatch):
    """Counts of full-size GridOperator builds, dgtsv solves and bisections.

    A grid is full-size when it has more than COARSE_POINT_COUNT points.
    """
    calls = {"builds": 0, "solves": 0, "bisections": 0}
    build, solver, bisection = (oracle.GridOperator.__init__, oracle.dgtsv,
                                oracle.dstebz)

    def counted_build(self, potential, pair, l, grid):
        calls["builds"] += grid.point_count > oracle.COARSE_POINT_COUNT
        build(self, potential, pair, l, grid)

    def counted_solve(dl, d, *args, **kwargs):
        calls["solves"] += d.size > oracle.COARSE_POINT_COUNT
        return solver(dl, d, *args, **kwargs)

    def counted_bisection(d, *args, **kwargs):
        calls["bisections"] += d.size > oracle.COARSE_POINT_COUNT
        return bisection(d, *args, **kwargs)

    monkeypatch.setattr(oracle.GridOperator, "__init__", counted_build)
    monkeypatch.setattr(oracle, "dgtsv", counted_solve)
    monkeypatch.setattr(oracle, "dstebz", counted_bisection)
    return calls


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

    def test_eigenvalue_reads_eigenpair(self, box):
        # bitwise: the eigenvalue LAPACK's bisection gives with or
        # without eigenvectors is the same
        _, _, diag, off = box
        for k in range(4):
            value = nth_eigenvalue(diag, off, k)
            assert value == nth_eigenpair(diag, off, k)[0]
            assert value == eigh_tridiagonal(
                diag, off, eigvals_only=True, select="i",
                select_range=(k, k), tol=np.finfo(float).tiny)[0]

    @pytest.mark.parametrize("tol", [oracle.BISECTION_TOLERANCE, 1e-6])
    def test_eigenpair_is_scipys(self, box, tol):
        # the direct LAPACK calls give eigh_tridiagonal's pair bit for bit
        _, _, diag, off = box
        for k in range(4):
            value, vec = nth_eigenpair(diag, off, k, tol)
            vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                          select_range=(k, k), tol=tol)
            assert value == vals[0]
            assert vec.tobytes() == vecs[:, 0].tobytes()

    def test_eigenpair_failures(self, monkeypatch, box):
        _, _, diag, off = box
        with pytest.raises(ValueError):
            nth_eigenpair(np.where(np.arange(diag.size) == 5, np.nan, diag),
                          off, 2)
        monkeypatch.setattr(oracle, "dstein",
                            lambda *args: (np.zeros((diag.size, 1)), 1))
        with pytest.raises(ConvergenceError, match="^LAPACK did not form "
                           "the eigenvector of level n = 2 "):
            nth_eigenpair(diag, off, 2)

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


def bisection_reference(diag, off, n):
    """LAPACK bisection run to full precision.

    At its default tolerance, eps times the matrix 1-norm, bisection
    leaves an error of up to 4e-10 on the oscillator operator (norm
    about 2e6), 3e-11 relative, so it cannot referee 1e-11.
    """
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(n, n),
                                  tol=np.finfo(float).tiny)
    return float(vals[0]), vecs[:, 0]


def refine(diag, off, n, start):
    """Rayleigh-quotient iteration: the refinement with eta infinite."""
    return oracle._refine(diag, off, n, start, np.zeros(diag.size), math.inf)


class FixedOperator:
    """An eta-infinite operator whose H(E) is (diag, off) for every E."""

    eta = math.inf

    def __init__(self, diag, off):
        self.matrix = diag, off
        self.v = np.zeros(diag.size)

    def __call__(self, e_trial):
        return self.matrix


class TestWarmEigenpair:
    # operators of the levels TestNewtonIteration pins, on the grid each
    # solve ends on; the trial energy sits next to the level
    CASES = {"cornell": (1, 1, 39.2, 1.25),
             "oscillator": (2, 2, 4.88, 6.69),
             "coulomb": (2, 0, 662.0, -0.004)}

    @pytest.fixture(params=sorted(CASES))
    def operator(self, request, cornell_pot, oscillator_pot, coulomb_pot,
                 pair_131, pair_145):
        pot, pair = {"cornell": (cornell_pot, pair_145),
                     "oscillator": (oscillator_pot, pair_131),
                     "coulomb": (coulomb_pot, pair_145)}[request.param]
        n, l, r_max, energy = self.CASES[request.param]
        grid = RadialGrid(1e-4, r_max, 4000)

        def build(e):
            return effective_operator(pot, pair, l, e, grid)
        return n, energy, build

    def test_matches_cold_pair(self, operator):
        # the start comes from an operator whose trial energy is 1 %
        # away
        n, energy, build = operator
        _, start = nth_eigenpair(*build(1.01 * energy), n)
        diag, off = build(energy)
        cold, cold_vec = bisection_reference(diag, off, n)
        warm, warm_vec, _, _, failure = refine(diag, off, n, start)
        assert failure is None
        assert warm == pytest.approx(cold, rel=1e-11)
        assert abs(float(warm_vec @ cold_vec)) >= 1.0 - 1e-12
        assert count_nodes(warm_vec) == n

    def test_foreign_start_returns_level_n(self, operator):
        # starts that converge to another level, or to none in
        # particular, must still come back from a pass as level n;
        # neighbouring levels lie percents apart, far beyond the
        # bisection error
        n, energy, build = operator
        diag, off = build(energy)
        cold, _ = bisection_reference(diag, off, n)
        starts = [nth_eigenpair(diag, off, k)[1] for k in (n - 1, n + 1)]
        starts += [np.random.default_rng(7).standard_normal(diag.size),
                   np.ones(diag.size)]
        for start in starts:
            value, _, vec, _, _ = oracle._settle(
                FixedOperator(diag, off), n, (-math.inf, math.inf), energy,
                start)
            assert value == pytest.approx(cold, rel=1e-10)
            assert count_nodes(vec) == n


class TestNonrelativisticSpectra:
    def test_oscillator_levels(self, level_residual):
        pot = PotentialModel.oscillator(1.0)
        pair = ParticlePair.equal(1.310, relativistic=False)
        for n, l in [(0, 0), (1, 0), (2, 1), (3, 2)]:
            sol = solve_selfconsistent(pot, pair, QuantumNumbers(n, l))
            exact = (2 * n + l + 1.5) / math.sqrt(pair.mu)
            assert sol.binding_energy == pytest.approx(exact, rel=1e-3)
            assert count_nodes(sol.wavefunction) == n
            assert sol.residual <= level_residual(pot, pair, l, sol)[1]
            # the full grid refines the level settled on the coarse grid
            assert sol.bisection_solves == 0

    @pytest.mark.parametrize("l", [0, 2])
    def test_grid_operator_is_bit_identical(self, l, cornell_pot, pair_145):
        # one GridOperator called at several trial energies gives the
        # bytes of a fresh operator and of the formula written out
        grid = RadialGrid(1e-4, 20.0, 1000)
        operator = GridOperator(cornell_pot, pair_145, l, grid)
        r = grid.points
        mu, eta = pair_145.mu, pair_145.eta
        v = cornell_pot.evaluate(r)
        for e in (0.7, -0.3, 0.0, 2.5):
            diag, off = operator(e)
            fresh_diag, fresh_off = effective_operator(cornell_pot, pair_145,
                                                       l, e, grid)
            veff = v - v * v / (2.0 * eta) + e * v / eta
            if l > 0:
                veff = veff + l * (l + 1) / (2.0 * mu * r * r)
            assert np.array_equal(diag, fresh_diag)
            assert np.array_equal(diag, 1.0 / (mu * grid.h**2) + veff)
            assert np.array_equal(off, fresh_off)

    def test_operator_builds_silently(self, oscillator_pot):
        # trial energies the grid cannot resolve: only a returned level
        # is checked, so building H(E) there says nothing
        pair = ParticlePair.equal(1.31, relativistic=False)
        coarse = RadialGrid(1e-4, 40.0, 999)
        operator = GridOperator(oscillator_pot, pair, 0, coarse)
        for e in (200.0, 300.0):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                operator(e)
                effective_operator(oscillator_pot, pair, 0, e, coarse)
            assert caught == []

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
        margin = fall_to_center_check(coulomb_pot, pair_145, 0)
        # strength s = -mu alpha^2/eta = -0.015625
        assert margin == pytest.approx(0.234375, rel=1e-12)

    def test_centrifugal_dominance(self, coulomb_pot, pair_145):
        assert fall_to_center_check(coulomb_pot, pair_145, 1) > 1.75

    def test_regular_potential(self, oscillator_pot, pair_131):
        for l in (0, 2):
            margin = fall_to_center_check(oscillator_pot, pair_131, l)
            assert margin == pytest.approx(l * (l + 1) + 0.25, rel=1e-12)

    def test_supercritical_refused(self):
        # mu alpha^2/eta = 0.5 * 9 / 2 = 2.25
        pot = PotentialModel.coulomb(3.0)
        pair = ParticlePair.equal(1.0)
        message = ("effective inverse-square strength -2.25 is below the "
                   "-1/4 bound (margin -2)")
        with pytest.raises(SupercriticalCouplingError) as info:
            fall_to_center_check(pot, pair, 0)
        assert str(info.value) == message
        with pytest.raises(SupercriticalCouplingError) as info:
            solve_selfconsistent(pot, pair, QuantumNumbers(0, 0))
        assert str(info.value) == message

    def test_overflowing_coupling(self):
        # alpha^2 overflows a float; the core is supercritical for a
        # relativistic pair and absent with eta infinite
        nonrelativistic = ParticlePair.equal(1.45, relativistic=False)
        # the second's two 1/r coefficients sum to -inf
        for pot in (PotentialModel.coulomb(1e308),
                    parse_potential("custom:-1e308*r^-1-1e308*r^-1")):
            with pytest.raises(SupercriticalCouplingError, match="-inf"):
                fall_to_center_check(pot, ParticlePair.equal(1.45), 0)
            assert fall_to_center_check(pot, nonrelativistic, 1) == 2.25

    @pytest.mark.parametrize("spec", [
        "custom:-0.6*r^-1-0.6*r^-1",   # coulomb:alpha=1.2, split in two
        "custom:1.2*r^-1+1*r^2",       # a repulsive 1/r squares alike
    ])
    def test_net_inverse_r_coefficient(self, spec):
        # the core's strength is mu alpha^2/eta = 0.5 * 1.44 / 2 = 0.36
        # for the net 1/r coefficient -alpha, whatever its sign
        pot = parse_potential(spec)
        pair = ParticlePair.equal(1.0)
        message = ("effective inverse-square strength -0.36 is below the "
                   "-1/4 bound (margin -0.11)")
        with pytest.raises(SupercriticalCouplingError) as info:
            fall_to_center_check(pot, pair, 0)
        assert str(info.value) == message
        with pytest.raises(SupercriticalCouplingError) as info:
            solve_selfconsistent(pot, pair, QuantumNumbers(0, 0))
        assert str(info.value) == message

    def test_inverse_square_term_refused(self, pair_145):
        pot = PotentialModel.custom([(-0.1, -2.0), (0.18, 1.0)])
        with pytest.raises(SupercriticalCouplingError) as info:
            fall_to_center_check(pot, pair_145, 0)
        assert str(info.value) == (
            "effective inverse-square strength -inf is below the -1/4 bound "
            "(margin -inf); potential has non-integrable powers (-2.0,)")


class TestNonFinitePotential:
    @pytest.mark.parametrize("spec, relativistic", [
        ("custom:1*r^200", True),         # V overflows at the outer end
        ("coulomb:alpha=1e308", False),   # V overflows at the inner end
        ("coulomb:alpha=1e160", False),   # V finite, V^2 overflows
    ])
    def test_refused_naming_the_radius(self, spec, relativistic):
        pot = parse_potential(spec)
        pair = ParticlePair.equal(1.45, relativistic)
        qn = QuantumNumbers(0, 0)
        grid = default_grid(pot, pair, qn)
        with np.errstate(all="ignore"):
            v = pot.evaluate(grid.points)
            gamma = v - v * v / (2.0 * pair.eta)
        inner = grid.points[~np.isfinite(gamma)][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnphysicalRegimeError,
                               match=f"at r = {inner:g}$"):
                GridOperator(pot, pair, 0, grid)
            with pytest.raises(UnphysicalRegimeError, match="not finite"):
                solve_selfconsistent(pot, pair, qn)


class TestReducedCoulomb:
    def test_fine_grid_single_solve_matches_referee(self, coulomb_pot):
        # eta infinite: one pass on 32,000 points, started from the same
        # pass on the coarse grid, against a full-precision bisection of
        # the same operator.  The bound is
        # absolute: |E| is 6e-3 to 2.3e-2 GeV while the operator's norm
        # is about 1e5, so rounding alone is far above 1e-11 relative
        pair = ParticlePair.equal(1.45, relativistic=False)
        for n, rmax in [(0, 120.0), (1, 150.0)]:
            grid = RadialGrid(1e-5, rmax, 32000)
            sol = solve_selfconsistent(coulomb_pot, pair,
                                       QuantumNumbers(n, 0), grid)
            diag, off = effective_operator(coulomb_pot, pair, 0, 0.0, grid)
            referee, _ = bisection_reference(diag, off, n)
            assert sol.bisection_solves == 0
            assert sol.binding_energy == pytest.approx(referee, abs=1e-11)

    def test_implicit_closed_form(self, coulomb_pot, pair_145):
        for n, rmax in [(0, 120.0), (1, 150.0)]:
            exact = reduced_coulomb_binding(1.45, 0.25, n, 0)
            sol = solve_selfconsistent(
                coulomb_pot, pair_145, QuantumNumbers(n, 0),
                grid=RadialGrid(1e-5, rmax, 32000))
            assert sol.binding_energy == pytest.approx(exact, abs=1e-6)
            assert count_nodes(sol.wavefunction) == n

    def test_domain_convergence(self, coulomb_pot, pair_145):
        base = solve_selfconsistent(coulomb_pot, pair_145,
                                    QuantumNumbers(0, 0),
                                    grid=RadialGrid(1e-4, 120.0, 12000))
        wide = solve_selfconsistent(coulomb_pot, pair_145,
                                    QuantumNumbers(0, 0),
                                    grid=RadialGrid(1e-4, 180.0, 18000))
        assert abs(wide.binding_energy - base.binding_energy) < 1e-6


class TestNewtonIteration:
    # each pinned r_max lies near the wall or box the default solve of
    # that level ends on; the bracket holds the level's only root.  A
    # relativistic confining solve may move the wall in, so the
    # reference runs on the grid the solve ended on
    @pytest.mark.parametrize("system, n, l, r_max, bracket", [
        ("cornell", 1, 1, 39.2, (1.0, 1.5)),
        ("oscillator", 2, 2, 4.88, (6.0, 7.5)),
        ("coulomb", 2, 0, 662.0, (-0.01, -0.001)),
    ])
    def test_matches_independent_brent(self, system, n, l, r_max, bracket,
                                       cornell_pot, oscillator_pot,
                                       coulomb_pot, pair_131, pair_145,
                                       level_residual):
        pot, pair = {"cornell": (cornell_pot, pair_145),
                     "oscillator": (oscillator_pot, pair_131),
                     "coulomb": (coulomb_pot, pair_145)}[system]
        grid = RadialGrid(1e-4, r_max, 4000)
        sol = solve_selfconsistent(pot, pair, QuantumNumbers(n, l), grid)

        # the referee shares no eigensolver code with the solver, and its
        # bisection runs to the smallest tolerance instead of LAPACK's
        # default eps * |T|, about 4e-10 on the oscillator operator
        def g(e):
            diag, off = effective_operator(pot, pair, l, e, sol.grid)
            level = eigh_tridiagonal(diag, off, select="i",
                                     select_range=(n, n), eigvals_only=True,
                                     tol=np.finfo(float).tiny)[0]
            return level - e - e * e / (2 * pair.eta)

        exact = brentq(g, *bracket, xtol=1e-14, rtol=4 * np.finfo(float).eps)
        assert sol.binding_energy == pytest.approx(exact, abs=1e-9)
        # the reported residual is |T(E) psi|, held to the rounding floor
        assert sol.residual <= level_residual(pot, pair, l, sol)[1]

    def test_outer_iterations_bounded(self, oracle_results):
        # measured 3 on every level (the estimate and two solves of the
        # full-grid pass); 3 of margin
        for key, sol in oracle_results.items():
            assert sol.outer_iterations <= 6, key

    def test_no_bisection_on_default_grids(self, oracle_results):
        # the full-grid pass refines the vector the level settled on in
        # the coarse grid's first wall pass, and may not fall back to
        # bisection
        for key, sol in oracle_results.items():
            assert sol.bisection_solves == 0, key

    @pytest.mark.parametrize("system, n, l", [
        ("cornell", 1, 1), ("oscillator", 2, 2), ("coulomb", 2, 0)])
    @pytest.mark.parametrize("seed", ["next level", "ones"])
    def test_rejected_coarse_start_falls_back(self, monkeypatch, system, n,
                                              l, seed, cornell_pot,
                                              oscillator_pot, coulomb_pot,
                                              pair_131, pair_145):
        # the start vector decides the cost of a solve, never its result:
        # every pass, coarse or full, given a start that converges to
        # level n + 1, or to no level in particular, rejects it and
        # restarts from bisection
        pot, pair = {"cornell": (cornell_pot, pair_145),
                     "oscillator": (oscillator_pot, pair_131),
                     "coulomb": (coulomb_pot, pair_145)}[system]
        qn = QuantumNumbers(n, l)
        expected = solve_selfconsistent(pot, pair, qn).binding_energy
        settle = oracle._settle

        def wrong_start(operator, n, window, energy, start):
            if start is not None:
                start = (np.ones(start.size) if seed == "ones" else
                         nth_eigenpair(*operator(energy), n + 1)[1])
            return settle(operator, n, window, energy, start)

        monkeypatch.setattr(oracle, "_settle", wrong_start)
        sol = solve_selfconsistent(pot, pair, qn)
        assert sol.binding_energy == pytest.approx(expected, rel=1e-10)
        assert sol.bisection_solves >= 1
        assert count_nodes(sol.wavefunction) == n

    def test_compare_levels_converge_in_few_eigensolves(
            self, oracle_results, coulomb_levels):
        # the estimate, the tridiagonal solves of the full-grid pass and
        # any bisection: 78 over the 24 levels of `slet compare`'s
        # benchmark, 3 on an oscillator level (103 and 5 when the
        # estimate and both wall passes settled on the full grid; a
        # safeguarded Newton iteration around an eigensolve counted 170
        # eigensolves, and 197 started at the estimate); about 10 % of
        # margin, one step on an oscillator level
        counts = {key: sol.outer_iterations
                  for key, sol in oracle_results.items()}
        assert sum(counts.values()) + sum(
            sol.outer_iterations for sol in coulomb_levels.values()) <= 86
        for (tid, n, l), count in counts.items():
            if tid == 2:
                assert count <= 4, (n, l)

    @pytest.mark.parametrize("system, n, l", [("cornell", 1, 1),
                                              ("coulomb", 2, 0)])
    def test_one_lapack_bisection_per_level(self, monkeypatch, system, n, l,
                                            cornell_pot, coulomb_pot,
                                            pair_145):
        # the estimate's coarse pass starts from the level's only cold
        # eigensolve; every later pass refines the vector before it
        pot = {"cornell": cornell_pot, "coulomb": coulomb_pot}[system]
        calls = []

        def counted(d, e, select, vl, vu, il, iu, tol, order):
            calls.append(tol)
            return dstebz(d, e, select, vl, vu, il, iu, tol, order)

        monkeypatch.setattr(oracle, "dstebz", counted)
        sol = solve_selfconsistent(pot, pair_145, QuantumNumbers(n, l))
        assert count_nodes(sol.wavefunction) == n
        assert sol.bisection_solves == 0
        assert len(calls) == 1
        # a pass's bisection stops well short of full precision, since
        # the refinement finishes its vector
        assert calls[0] > oracle.BISECTION_TOLERANCE

    def test_one_full_grid_pass_per_level(self, full_grid_calls, cornell_pot,
                                          oscillator_pot, coulomb_pot,
                                          pair_131, pair_145):
        # only the last pass runs on the full grid, so a default-grid
        # level builds one full-size operator.  The 24 levels of `slet
        # compare`'s benchmark make 54 full-grid tridiagonal solves (135
        # when the estimate and both wall passes settled on the full
        # grid) and no full-grid bisection; about 10 % of margin
        calls = full_grid_calls
        levels = [(pot, pair, n, l)
                  for pot, pair in ((cornell_pot, pair_145),
                                    (oscillator_pot, pair_131))
                  for n in range(3) for l in range(3)]
        levels += [(coulomb_pot, pair_145, n, 0) for n in range(6)]
        for pot, pair, n, l in levels:
            builds = calls["builds"]
            solve_selfconsistent(pot, pair, QuantumNumbers(n, l))
            assert calls["builds"] == builds + 1, (pot, pair, n, l)
        assert calls["solves"] <= 60
        assert calls["bisections"] == 0
        # an eta-infinite level's only full-grid pass is its estimate's
        solve_selfconsistent(oscillator_pot, pair_131.as_nonrelativistic(),
                             QuantumNumbers(1, 0))
        assert calls["builds"] == len(levels) + 1

    def test_light_levels_converge(self, cornell_pot, coulomb_pot):
        # at m = 0.3 GeV the relativistic levels lie farthest from the
        # nonrelativistic estimate.  These 45 levels take 140 counted
        # steps and no bisection (195 when every pass settled on the
        # full grid); Newton around an eigensolve took 360 and 6, and 413
        # and 13 started at the estimate.  About 10 % of margin on the
        # steps, two bisections
        pair = ParticlePair.equal(0.3)
        sols = [solve_selfconsistent(pot, pair, QuantumNumbers(n, l))
                for pot in (cornell_pot, coulomb_pot,
                            PotentialModel.linear(0.18))
                for n in range(5) for l in range(3)]
        assert [count_nodes(sol.wavefunction) for sol in sols] == [
            n for _ in range(3) for n in range(5) for _ in range(3)]
        assert sum(sol.outer_iterations for sol in sols) <= 155
        assert sum(sol.bisection_solves for sol in sols) <= 2

    def test_light_oscillator_ground_level(self, oscillator_pot):
        # the second wall goes at the escape radius of the first wall
        # pass's energy on the coarse grid
        sol = solve_selfconsistent(oscillator_pot, ParticlePair.equal(0.3),
                                   QuantumNumbers(0, 0))
        assert sol.binding_energy == pytest.approx(2.6179878622, abs=1e-10)

    def test_excited_coulomb_in_level_sized_box(self, coulomb_pot, pair_145):
        for n in (3, 4, 5):
            sol = solve_selfconsistent(coulomb_pot, pair_145,
                                       QuantumNumbers(n, 0))
            exact = reduced_coulomb_binding(1.45, 0.25, n, 0)
            assert sol.binding_energy < 0.0
            assert sol.binding_energy == pytest.approx(exact, rel=1e-3)

    @pytest.mark.parametrize("relativistic", [True, False])
    def test_unbound_level_refused(self, relativistic):
        # no potential, no bound level: the default box's lowest state
        # lies in the continuum and must not come back as a level
        pair = ParticlePair.equal(1.0, relativistic)
        with pytest.raises(LevelIdentificationError, match="r_max"):
            solve_selfconsistent(ZERO_POTENTIAL, pair, QuantumNumbers(0, 0))

    @pytest.mark.parametrize("points, coarse", [(600, 600), (None, 1000)])
    def test_level_beyond_coarse_grid_refused(self, points, coarse,
                                              cornell_pot, pair_145):
        # the first pass runs on at most COARSE_POINT_COUNT points, and a
        # grid of N points holds the levels n < N
        qn = QuantumNumbers(coarse, 0)
        grid = default_grid(cornell_pot, pair_145, qn, points)
        with pytest.raises(LevelIdentificationError,
                           match=f"on the {coarse} points of the coarse grid"):
            solve_selfconsistent(cornell_pot, pair_145, qn, grid)


class TestReturnedLevel:
    """A returned level solves its own equation, checked from scratch."""

    def test_residual_and_nodes(self, oracle_results, coulomb_levels,
                                oscillator_pot, cornell_pot, coulomb_pot,
                                pair_131, pair_145, level_residual):
        # tables 2 and 3 at n, l <= 2 and the Coulomb levels of `slet
        # compare`: T(E) rebuilt at the returned energy on the returned
        # grid annihilates the wavefunction to rounding, and the
        # wavefunction has n nodes
        levels = [((oscillator_pot, pair_131) if tid == 2
                   else (cornell_pot, pair_145), n, l, sol)
                  for (tid, n, l), sol in oracle_results.items()]
        levels += [((coulomb_pot, pair_145), n, 0, sol)
                   for n, sol in coulomb_levels.items()]
        for (pot, pair), n, l, sol in levels:
            residual, bound = level_residual(pot, pair, l, sol)
            assert residual <= bound, (pot, n, l)
            assert sol.residual <= bound, (pot, n, l)
            assert count_nodes(sol.wavefunction) == n, (pot, n, l)

    def test_refinement_matches_bisection_on_free_box(self, box):
        # eta infinite: the refinement from a start vector is
        # Rayleigh-quotient iteration.  Started from the level-k
        # eigenvector of a 500-point box, it ends on bisection's
        # eigenpair to within the rounding floor of the operator
        _, grid, diag, off = box
        coarse = RadialGrid(grid.r_min, grid.r_max, 500)
        coarse_diag, coarse_off = effective_operator(
            ZERO_POTENTIAL, ParticlePair.equal(1.0, relativistic=False), 0,
            0.0, coarse)
        floor = oracle.REFINEMENT_RESIDUAL * np.finfo(float).eps * (
            np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))
        for k in range(4):
            start = np.interp(grid.points, coarse.points,
                              nth_eigenpair(coarse_diag, coarse_off, k)[1])
            value, vec, _, _, failure = refine(diag, off, k, start)
            reference, reference_vec = bisection_reference(diag, off, k)
            assert failure is None
            assert value == pytest.approx(reference, abs=floor)
            assert abs(float(vec @ reference_vec)) == pytest.approx(
                1.0, abs=1e-12)
            assert count_nodes(vec) == k


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
        ground = QuantumNumbers(0, 0)
        g = default_grid(coulomb_pot, pair_145, ground)
        assert g.r_max == pytest.approx(40.0 / (pair_145.mu * 0.25), rel=1e-12)
        g2 = default_grid(cornell_pot, pair_145, ground, r_max=33.0)
        assert g2.r_max == 33.0
        # no term of -r^-1/2 sets a length scale; the box falls back to 40
        scale_free = PotentialModel.custom([(-1.0, -0.5)])
        assert default_grid(scale_free, pair_145, ground).r_max == 40.0

    def test_default_grid_level_sized(self, cornell_pot, coulomb_pot,
                                      pair_145):
        qn, ground = QuantumNumbers(3, 1), QuantumNumbers(0, 0)
        plain = default_grid(coulomb_pot, pair_145, ground).r_max
        assert default_grid(coulomb_pot, pair_145, qn).r_max == 5.0 * plain
        # a confining potential keeps its box whatever the level
        assert (default_grid(cornell_pot, pair_145, qn).r_max
                == default_grid(cornell_pot, pair_145, ground).r_max)

    def test_escape_radius(self, cornell_pot, pair_145):
        r = escape_radius(cornell_pot, pair_145, 0.5, 1e3)
        assert cornell_pot.evaluate(r) == pytest.approx(
            2.0 * pair_145.eta + 0.5, rel=1e-9)

    @pytest.mark.parametrize("system", ["cornell", "oscillator", "linear"])
    @pytest.mark.parametrize("energy", [-0.4, 0.5, 3.0])
    def test_escape_radius_matches_full_bracket(self, system, energy,
                                                cornell_pot, oscillator_pot,
                                                pair_145):
        # the reference runs Brent over the whole search range, to
        # rounding level
        pot = {"cornell": cornell_pot, "oscillator": oscillator_pot,
               "linear": PotentialModel.linear(0.18)}[system]
        target = 2.0 * pair_145.eta + max(energy, 0.0)
        reference = brentq(lambda r: pot.evaluate(r) - target, 1e-3, 1e3,
                           xtol=1e-300, rtol=4 * np.finfo(float).eps)
        r = escape_radius(pot, pair_145, energy, 1e3)
        assert r == pytest.approx(reference, rel=2e-10)

    @pytest.mark.parametrize("system", ["cornell", "oscillator", "linear"])
    @pytest.mark.parametrize("energy", [-0.4, 0.5, 3.0])
    def test_escape_radius_polish_on_its_panel(self, monkeypatch, system,
                                               energy, cornell_pot,
                                               oscillator_pot, pair_145):
        # the polish takes the bracket's array values, which are the
        # scalar ones, and lands within its tolerance of brentq's root
        pot = {"cornell": cornell_pot, "oscillator": oscillator_pot,
               "linear": PotentialModel.linear(0.18)}[system]
        panels = []

        def recording(f, a, b, fa, fb, *tolerances):
            panels.append((f, a, b, fa, fb))
            return bracketed_root(f, a, b, fa, fb, *tolerances)
        monkeypatch.setattr(oracle, "bracketed_root", recording)
        r = escape_radius(pot, pair_145, energy, 1e3)
        [(f, a, b, fa, fb)] = panels
        assert (fa, fb) == (f(float(a)), f(float(b)))
        exact = brentq(f, a, b, xtol=1e-300, rtol=4 * np.finfo(float).eps)
        assert abs(r - exact) <= 2e-12 + 1e-10 * abs(r)

    def test_escape_radius_unreached(self, cornell_pot, coulomb_pot,
                                     pair_145):
        # V stays below the target, reaches it only beyond the search
        # range, or starts above it
        repulsive = PotentialModel.custom([(100.0, -1.0), (0.18, 1.0)])
        assert escape_radius(coulomb_pot, pair_145, 0.5, 1e3) is None
        assert escape_radius(cornell_pot, pair_145, 0.5, 10.0) is None
        assert escape_radius(repulsive, pair_145, 0.5, 1e3) is None
        # 1e-300 r^200 is at most about 1.8e8, far below the 4e10 target,
        # before r^200 overflows and the scan turns NaN
        steep = PotentialModel.custom([(1e-300, 200.0)])
        assert escape_radius(steep, ParticlePair.equal(1e10), 0.5,
                             300.0) is None

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

    @pytest.mark.parametrize("n, l, error", [
        (0, 1, WindowError), (0, 2, WindowError), (1, 0, WindowError),
        (1, 1, WindowError), (1, 2, WindowError), (2, 0, WindowError),
        (2, 1, LevelIdentificationError), (2, 2, LevelIdentificationError),
        (3, 0, LevelIdentificationError), (3, 1, LevelIdentificationError),
        (3, 2, LevelIdentificationError), (4, 0, ConvergenceError),
        (4, 1, LevelIdentificationError), (4, 2, LevelIdentificationError)])
    def test_failing_light_level_work_bounded(self, oscillator_pot,
                                              full_grid_calls, n, l, error):
        # at m = 0.3 GeV every relativistic oscillator level with n <= 4
        # and l <= 2 but the ground level lies far above 2 eta and has no
        # solution the walls can hold; each fails with the class pinned
        # here.  Each fails in the first wall pass, on the coarse grid,
        # so it builds no full-size operator and makes no full-grid solve
        # or bisection at all; with the estimate on the full grid it made
        # 2 or 3 full-grid solves, and the safeguarded Newton iteration
        # spent about 45 full-grid eigensolves on (1,0), (2,1) and (4,0)
        pair = ParticlePair.equal(0.3)
        with pytest.raises(SletError) as info:
            solve_selfconsistent(oscillator_pot, pair, QuantumNumbers(n, l))
        assert type(info.value) is error
        assert full_grid_calls == {"builds": 0, "solves": 0, "bisections": 0}

    def test_wavefunction_normalized(self, oracle_results):
        sol = oracle_results[(3, 0, 0)]
        norm = sol.grid.h * float(np.sum(sol.wavefunction**2))
        assert norm == pytest.approx(1.0, rel=1e-12)

    def test_wavefunction_first_lobe_up(self, oracle_results):
        for key, sol in oracle_results.items():
            psi = sol.wavefunction
            sizable = psi[np.abs(psi) > 1e-8 * np.max(np.abs(psi))]
            assert sizable[0] > 0.0, key

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(0.0, 10.0, 1000)
        with pytest.raises(ValueError):
            RadialGrid(1e-4, 10.0, 100)
        with pytest.raises(ValueError):
            RadialGrid(5.0, 1.0, 1000)
        with pytest.raises(ValueError, match="r_max = inf"):
            RadialGrid(1e-4, math.inf, 1000)

    @pytest.mark.parametrize("n, warns", [(5, 0), (20, 1), (60, 1)])
    def test_resolution_warned_once_at_returned_level(self, oscillator_pot,
                                                      n, warns):
        # h = 0.067 carries the oscillator's (5,0) level but not (20,0)
        # or (60,0); (60,0) comes out 2.8 % below the exact 150.13 GeV
        pair = ParticlePair.equal(1.31, relativistic=False)
        coarse = RadialGrid(1e-4, 40.0, 600)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = solve_selfconsistent(oscillator_pot, pair,
                                       QuantumNumbers(n, 0), coarse)
        assert [w.category for w in caught] == [ResolutionWarning] * warns
        if warns:
            assert f"the energy {sol.binding_energy:g} poorly" in str(
                caught[0].message)

    @pytest.mark.parametrize("n", [20, 60])
    def test_failing_solve_does_not_warn(self, oscillator_pot, n):
        # many trial energies of these solves are under-resolved, but no
        # level comes back, so nothing is checked; both passes settle on
        # another level
        coarse = RadialGrid(1e-4, 12.0, 600)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(LevelIdentificationError):
                solve_selfconsistent(oscillator_pot, ParticlePair.equal(1.31),
                                     QuantumNumbers(n, 0), coarse)
        assert caught == []
