import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from slet import cli, engine, oracle, perturbation
from slet.engine import (
    R0_MAX_ITERATIONS,
    R0_SCAN_PANELS,
    R0_TOLERANCE,
    QuantumNumbers,
    bracketed_root,
    coulomb_closed_form,
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
    ConvergenceError,
    MultipleRootsWarning,
    ResolutionWarning,
    SletError,
    SupercriticalCouplingError,
    UnphysicalCouplingError,
    UnphysicalRegimeError,
)
from slet.fixtures import TABLE2, TABLE3
from slet.potentials import ParticlePair, PotentialModel, parse_potential


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
        _, r0, _ = coulomb_closed_form(1.45, 0.25, 0)
        _, q, _ = geometry_at(coulomb_pot.derivatives(r0, 2), pair_145, r0)
        assert q == pytest.approx(1.0, rel=1e-10)

    def test_nonrelativistic_limit_of_q(self):
        # eta -> inf turns Q into mu r0^3 V'(r0): exactly at eta = inf,
        # and approached as the masses grow
        pot = PotentialModel.oscillator(1.0)
        r0 = 1.3
        for m, rel in ((5e7, 1e-4), (5e11, 1e-10)):  # eta = 2m
            heavy = ParticlePair.equal(m)
            limit = heavy.mu * r0**3 * pot.derivative(r0, 1)
            _, q, _ = geometry_at(pot.derivatives(r0, 2), heavy, r0)
            assert q == pytest.approx(limit, rel=rel)
        pair = ParticlePair.equal(1.31, relativistic=False)
        xi, q, _ = geometry_at(pot.derivatives(r0, 2), pair, r0)
        assert q == pair.mu * r0**3 * pot.derivative(r0, 1)
        assert xi == math.inf

    def test_omega_near_coulomb_ratio(self, coulomb_pot, pair_145):
        # the scaled frequency sits within 1% of 2/m for alpha = 0.25
        (r0,), _ = solve_r0(coulomb_pot, pair_145, QuantumNumbers(0, 0))
        _, _, omega = geometry_at(coulomb_pot.derivatives(r0, 2), pair_145,
                                  r0)
        assert abs(omega / (2.0 / 1.45) - 1.0) < 0.01

    def test_decreasing_point_is_nan(self, pair_145):
        # an unusable radius gives NaN, never an exception
        pot = PotentialModel.custom([(-0.5, 1.0)])
        geo = geometry_at(pot.derivatives(1.0, 2), pair_145, 1.0)
        assert [type(v) for v in geo] == [float] * 3
        assert all(math.isnan(v) for v in geo)
        assert math.isnan(r0_residual(pot, pair_145, 0, 0, 1.0))


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
        geo = geometry_at(pot.derivatives(radii, 2), pair, radii)
        residual = r0_residual(pot, pair, qn.n, qn.l, radii)
        for i, r in enumerate(radii):
            one = geometry_at(pot.derivatives(float(r), 2), pair, float(r))
            got = (*(values[i] for values in geo), residual[i])
            want = (*one, r0_residual(pot, pair, qn.n, qn.l, float(r)))
            # bit for bit, NaN at the same radii
            assert np.array(got).tobytes() == np.array(want).tobytes()
        # all four are NaN exactly at the unusable radii: V' <= 0, or a
        # negative frequency bracket computed as geometry_at computes it
        _, v1, v2 = pot.derivatives(radii, 2)
        with np.errstate(all="ignore"):
            s = radii * v1 / (2.0 * pair.eta)
            w = np.sqrt(1.0 + s * s)
            bracket = 3.0 + radii * v2 / v1 - 2.0 * s / (s + w)
        decreasing = ~(v1 > 0.0)
        negative = (v1 > 0.0) & (bracket < 0.0)
        for values in (*geo, residual):
            assert (np.isnan(values) == (decreasing | negative)).all()
        assert decreasing.any() == (name == "decreasing")
        assert negative.any() == (name == "steep-core")
        if name != "decreasing":
            solve_r0(pot, pair, qn)  # the scan, under the same filter

    @pytest.mark.parametrize("r", [0.7, np.float64(0.7)], ids=type)
    def test_scalar_results_are_python_floats(self, cornell_pot, pair_145,
                                              r):
        # a scalar radius stays 0-d all the way, and what comes out is a
        # plain float, so no np.float64 reaches a CSV cell's repr
        geo = geometry_at(cornell_pot.derivatives(r, 2), pair_145, r)
        assert [type(v) for v in geo] == [float] * 3
        stack = cornell_pot.derivatives(r, 6)
        assert [type(v) for v in stack] == [float] * 7
        assert type(r0_residual(cornell_pot, pair_145, 1, 1, r)) is float


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
        q, _, _ = coulomb_closed_form(1.45, 0.25, 0)
        assert q == 1.0  # lbar = sqrt(Q) = 1 at the closed-form point


class TestSolveR0:
    def test_coulomb_against_scalar_reduction(self, coulomb_pot, pair_145):
        (got,), _ = solve_r0(coulomb_pot, pair_145, QuantumNumbers(0, 0))
        expect = coulomb_r0_reference(1.45, 0.25, 0)
        assert got == pytest.approx(expect, rel=1e-9)
        # the closed-form expansion point assumes the 2/m frequency and
        # differs from the self-consistent root at the percent level
        _, r0, _ = coulomb_closed_form(1.45, 0.25, 0)
        assert r0 == pytest.approx(5.47397, abs=1e-5)
        assert abs(got - r0) / r0 < 0.01
        assert got != pytest.approx(r0, rel=1e-6)
        # n + l + 1 >= 14 puts r0 above 1e3, which the bracket must follow
        for n, l in [(13, 0), (12, 4)]:
            (got,), _ = solve_r0(coulomb_pot, pair_145, QuantumNumbers(n, l))
            expect = coulomb_r0_reference(1.45, 0.25, n, l)
            assert got == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("pot_name,m", [("oscillator", 1.31),
                                            ("cornell", 1.45)])
    def test_q_lbar_identity(self, pot_name, m, oscillator_pot, cornell_pot):
        pot = oscillator_pot if pot_name == "oscillator" else cornell_pot
        pair = ParticlePair.equal(m)
        for n, l in [(0, 0), (2, 1), (4, 2)]:
            qn = QuantumNumbers(n, l)
            (r0,), _ = solve_r0(pot, pair, qn)
            _, q, omega = geometry_at(pot.derivatives(r0, 2), pair, r0)
            _, lbar = shift_and_lbar(pair, n, omega, l)
            assert abs(math.sqrt(q) - lbar) / lbar <= 1e-8
            assert abs(r0_residual(pot, pair, n, l, r0)) < 1e-9

    @pytest.mark.parametrize("spec, relativistic", [
        ("custom:1*r^200", True), ("coulomb:alpha=1e308", False)])
    def test_overflowing_scan_is_silent(self, spec, relativistic):
        # r^200 overflows at the upper end of the scan and -1e308/r at the
        # lower end; those points are skipped without a RuntimeWarning
        pot, pair = parse_potential(spec), ParticlePair.equal(1.45,
                                                              relativistic)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if relativistic:
                sol = solve(pot, pair, QuantumNumbers(0, 0))
                assert sol.binding_energy == pytest.approx(1041.24, abs=5e-3)
            else:
                with pytest.raises(BracketingError):
                    solve(pot, pair, QuantumNumbers(0, 0))

    def test_no_bracket(self, pair_145):
        pot = PotentialModel.custom([(-0.5, 1.0)])  # decreasing everywhere
        with pytest.raises(BracketingError):
            solve_r0(pot, pair_145, QuantumNumbers(0, 0))

    def test_polish_iterate_at_unusable_radius(self):
        # V' = (r - 10)^2 - 0.1 dips below zero near r = 10, and the
        # frequency bracket turns negative just inside it; the Bohr radius
        # of the tiny 1/r term widens the scan's panels until that whole
        # stretch lies inside one panel whose ends change sign, so a polish
        # iterate lands on it and the level ends in BracketingError
        pot = parse_potential(
            "custom:99.9*r^1-10*r^2+0.3333333333333333*r^3-1e-60*r^-1")
        pair = ParticlePair.equal(1.0)
        with pytest.raises(BracketingError) as info:
            solve(pot, pair, QuantumNumbers(0, 0))
        assert info.value.stage == "solve_r0"
        match = re.search(r"panel \[(\S+), (\S+)\]: the function is NaN at "
                          r"x = (\S+);", str(info.value))
        assert match
        lo, hi, x = map(float, match.groups())
        assert lo < x < hi
        assert math.isnan(geometry_at(pot.derivatives(x, 2), pair, x)[2])

    def test_multiple_roots_keep_lowest_leading_energy(self, pair_145):
        # the r0 equation has a root near 0.958 and one near 3.126; solve
        # keeps the second, which has the lower leading energy, and warns
        pot = PotentialModel.custom([(4.0, 1.0), (-2.0, 2.0), (0.3, 3.0)])
        qn = QuantumNumbers(0, 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = solve(pot, pair_145, qn)
        assert [(w.category, str(w.message)) for w in caught] == [(
            MultipleRootsWarning, "2 expansion points satisfy the root "
            "equation; keeping the one with the lowest leading energy "
            "(r0 = 3.12638)")]
        assert sol.diagnostics.r0_root_count == 2
        assert sol.r0 == pytest.approx(3.12638, abs=1e-5)
        assert sol.E0 == pytest.approx(2.61534, abs=1e-5)
        other = brentq(lambda r: r0_residual(pot, pair_145, 0, 0, r),
                       0.5, 1.0)
        assert other == pytest.approx(0.95777, abs=1e-5)
        _, q, _ = geometry_at(pot.derivatives(other, 2), pair_145, other)
        e0_other = leading_energy(pot.evaluate(other), pair_145, other, q,
                                  energy_denominator(pair_145, other, q))
        assert e0_other == pytest.approx(2.77511, abs=1e-5)
        assert sol.E0 < e0_other

    def test_root_beside_unusable_stretch(self, monkeypatch):
        # V' <= 0 for r in about [1.52, 2.93]; above it F runs from -inf
        # (omega -> inf as V' -> 0+) through a root near 3.057 to +1.22 at
        # the scan point 3.077, whose lower neighbour is unusable, so no
        # two finite scan values change sign around the root
        pot = PotentialModel.custom([(4.0, 1.0), (-2.0, 2.0), (0.3, 3.0)])
        pair, qn = ParticlePair.equal(10.0), QuantumNumbers(0, 2)
        sizes = []

        def counted(*args):
            sizes.append(np.size(args[-1]))
            return r0_residual(*args)

        monkeypatch.setattr(engine, "r0_residual", counted)
        roots, calls = solve_r0(pot, pair, qn)
        assert roots == [pytest.approx(3.05720, abs=1e-5)]
        assert abs(r0_residual(pot, pair, 0, 2, roots[0])) < 1e-9
        # the bisection to the stretch's edge and the polish are counted
        assert calls == sum(sizes) > R0_SCAN_PANELS + 1 + 30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(pot, pair, qn)
        assert sol.binding_energy == pytest.approx(2.41420, abs=1e-5)
        assert sol.diagnostics.r0_function_calls == calls

    def test_closing_frequency_edge_is_no_bracket_end(self, pair_145):
        # from r = 1.044 up to the stretch where V' <= 0 the frequency
        # bracket is negative; at its lower edge omega -> 0 and F of level
        # (1,0) stays finite, +0.75, against -0.74 at the scan point below;
        # a root between them expands to about -1e8 GeV, so only the root
        # the scan brackets is kept
        pot = PotentialModel.custom([(4.0, 1.0), (-2.0, 2.0), (0.3, 3.0)])
        roots, _ = solve_r0(pot, pair_145, QuantumNumbers(1, 0))
        assert roots == [pytest.approx(3.37395, abs=1e-5)]

    def test_every_root_returned_in_order(self, pair_145):
        # solve_r0 chooses no root: both come back, ascending, each a root
        # of the equation, and no warning is issued
        pot = PotentialModel.custom([(4.0, 1.0), (-2.0, 2.0), (0.3, 3.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots, calls = solve_r0(pot, pair_145, QuantumNumbers(0, 0))
        assert roots == sorted(roots)
        assert roots == [pytest.approx(0.95777, abs=1e-5),
                         pytest.approx(3.12638, abs=1e-5)]
        assert all(abs(r0_residual(pot, pair_145, 0, 0, r)) < 1e-9
                   for r in roots)
        assert calls > R0_SCAN_PANELS + 1


# (potential, mass, relativistic, levels): the Table 2 and 3 cells and
# the levels of the benchmark's `excited` workload
POLISHED_LEVELS = [
    ("oscillator:k=1", 1.31, True, tuple(TABLE2.grid())),
    ("cornell:alpha=0.25,b=0.18", 1.45, True, tuple(TABLE3.grid())),
    ("cornell:alpha=0.25,b=0.18", 1.45, True,
     ((60, 2), (120, 2), (200, 2), (100, 10), (160, 10))),
    ("oscillator:k=1", 1.31, True,
     ((60, 0), (120, 0), (80, 5), (150, 5), (200, 8))),
    ("oscillator:k=1", 1.31, False, ((80, 1), (150, 1), (100, 7))),
    ("coulomb:alpha=0.25", 1.45, True,
     ((5, 1), (9, 1), (4, 3), (8, 3), (13, 0), (12, 4))),
    ("coulomb:alpha=0.25", 1.45, False, ((4, 2), (9, 2), (10, 3))),
]
POLISHED_CASES = [(spec, m, rel, n, l)
                  for spec, m, rel, levels in POLISHED_LEVELS
                  for n, l in levels]


def brentq_root(f, a, b):
    """scipy's brentq on [a, b] to rounding level, the reference root."""
    return brentq(f, a, b, xtol=1e-300, rtol=4 * np.finfo(float).eps,
                  maxiter=1000)


class TestLogScan:
    def test_radii_and_values(self):
        calls = []

        def f(r):
            calls.append(r.size)
            # log of a negative below r = 0.5, overflow at the top end
            return np.log(r - 0.5) + 1e-300 * r**120
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, values = engine.log_scan(f, 0.1, 1e3, 5)
        assert calls == [5]
        assert (r[0], r[-1]) == (0.1, 1e3)
        np.testing.assert_allclose(r, [0.1, 1.0, 10.0, 100.0, 1e3],
                                   rtol=1e-14)
        assert np.isnan(values[[0, -1]]).all()
        assert np.isfinite(values[1:-1]).all()

    def test_both_root_searches_scan_with_it(self, monkeypatch, cornell_pot,
                                             pair_145):
        points, scan = [], engine.log_scan

        def recording(f, lo, hi, count):
            points.append(count)
            return scan(f, lo, hi, count)
        monkeypatch.setattr(engine, "log_scan", recording)
        monkeypatch.setattr(oracle, "log_scan", recording)
        solve_r0(cornell_pot, pair_145, QuantumNumbers(0, 0))
        oracle.escape_radius(cornell_pot, pair_145, 0.5, 1e3)
        assert points == [R0_SCAN_PANELS + 1, oracle.ESCAPE_BRACKET_POINTS]


class TestBracketedRoot:
    """The polish lands within its tolerance of scipy's brentq root."""

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.exp(x) - 10.0, -5.0, 5.0),
        (lambda x: (x - 0.3) ** 9, 0.0, 1.0),
        (lambda x: math.atan(1e4 * (x - 0.123)), -3.0, 1.0),
        (lambda x: 1.0 / x - 1e-3, 1.0, 1e9),
        (lambda x: x, -1.0, 1.0),
    ], ids=["cubic", "exp", "ninth-power", "step", "reciprocal",
            "zero-midpoint"])
    @pytest.mark.parametrize("rtol", [R0_TOLERANCE, 1e-10])
    def test_root_within_tolerance(self, f, a, b, rtol):
        exact = brentq_root(f, a, b)
        for xtol in (1e-300, 2e-12):
            root, calls = bracketed_root(f, a, b, f(a), f(b), xtol, rtol,
                                         R0_MAX_ITERATIONS)
            assert abs(root - exact) <= xtol + rtol * abs(root)
            assert 0 < calls < R0_MAX_ITERATIONS

    @pytest.mark.parametrize("a, b", [(0.5, 1.0), (0.0, 0.5)])
    def test_zero_at_an_end(self, a, b):
        # that end is the root, found without a call
        def f(x):
            return x - 0.5
        assert bracketed_root(f, a, b, f(a), f(b), 1e-300, R0_TOLERANCE,
                              R0_MAX_ITERATIONS) == (0.5, 0)

    def test_not_converged(self):
        with pytest.raises(ConvergenceError, match="in 3 iterations"):
            bracketed_root(math.atan, -1.0, 2.0, math.atan(-1.0),
                           math.atan(2.0), 1e-300, R0_TOLERANCE, 3)

    def test_nan_refused(self):
        with pytest.raises(ConvergenceError, match="NaN at x = 0.5"):
            bracketed_root(lambda x: math.nan, 0.0, 1.0, -1.0, 1.0,
                           1e-300, R0_TOLERANCE, 100)

    @staticmethod
    def polish_solve_r0(monkeypatch, spec, m, relativistic, n, l):
        """solve_r0's result, with the arguments and result of each polish."""
        pot, pair = parse_potential(spec), ParticlePair.equal(m, relativistic)
        polished = []

        def recording(*args):
            result = bracketed_root(*args)
            polished.append((args, result))
            return result
        monkeypatch.setattr(engine, "bracketed_root", recording)
        return solve_r0(pot, pair, QuantumNumbers(n, l)), polished

    @pytest.mark.parametrize("spec, m, relativistic, n, l", POLISHED_CASES)
    def test_solve_r0_polish_within_tolerance(self, monkeypatch, spec, m,
                                              relativistic, n, l):
        # every sign change of the scan: the scan's end values are the
        # scalar ones, and the root lies within R0_TOLERANCE of brentq's
        # on the same panel
        (roots, calls), polished = self.polish_solve_r0(
            monkeypatch, spec, m, relativistic, n, l)
        assert polished
        for (f, a, b, fa, fb, *_), (root, _) in polished:
            assert (fa, fb) == (f(float(a)), f(float(b)))
            exact = brentq_root(f, a, b)
            assert abs(root - exact) <= R0_TOLERANCE * abs(root)
        assert set(roots) <= {root for _, (root, _) in polished}
        assert calls == R0_SCAN_PANELS + 1 + sum(
            c for _, (_, c) in polished)

    def test_polish_calls_bounded(self, monkeypatch):
        # the polish makes 237 calls over these panels; the bound leaves
        # room for rounding, not for a slower method
        total = 0
        for case in POLISHED_CASES:
            _, polished = self.polish_solve_r0(monkeypatch, *case)
            total += sum(c for _, (_, c) in polished)
        assert total <= 240


class TestLeadingEnergy:
    def test_closed_form_inputs(self, coulomb_pot, pair_145):
        for n, printed in [(0, -0.02274), (3, -0.001415)]:
            q, r0, closed = coulomb_closed_form(1.45, 0.25, n)
            e0 = leading_energy(coulomb_pot.evaluate(r0), pair_145, r0, q,
                                energy_denominator(pair_145, r0, q))
            assert e0 == pytest.approx(printed, abs=1e-5)
            assert e0 == pytest.approx(closed, rel=1e-10)

    def test_degenerate_q(self, coulomb_pot, pair_145):
        r0 = 2.0
        v0 = coulomb_pot.evaluate(r0)
        assert leading_energy(v0, pair_145, r0, 0.0,
                              energy_denominator(pair_145, r0, 0.0)) == v0

    def test_denominator_identity(self, cornell_pot, pair_145):
        # sqrt(1 + Q/(mu eta r0^2)) equals 1 + (E0 - V(r0))/eta
        (r0,), _ = solve_r0(cornell_pot, pair_145, QuantumNumbers(1, 1))
        _, q, _ = geometry_at(cornell_pot.derivatives(r0, 2), pair_145, r0)
        d1 = energy_denominator(pair_145, r0, q)
        e0 = leading_energy(cornell_pot.evaluate(r0), pair_145, r0, q, d1)
        d2 = 1.0 + (e0 - cornell_pot.evaluate(r0)) / pair_145.eta
        assert d1 == pytest.approx(d2, rel=1e-12)


class TestTaylorCoefficients:
    def test_vanishing_shift_factor(self, cornell_pot, pair_145):
        # beta = -1/2 makes (2 beta + 1) = 0, so eps1 = eps2 = 0
        eps, *_ = taylor_coefficients(
            cornell_pot.derivatives(2.0, 6), pair_145, r0=2.0, Q=4.0,
            D=energy_denominator(pair_145, 2.0, 4.0), beta=-0.5, E0=0.1,
            omega=1.0, n=0)
        assert eps[0] == 0.0
        assert eps[1] == 0.0

    def test_linear_third_order(self, pair_145):
        # V''' = 0 for b r, so only the gamma part feeds eps3's tail
        pot = PotentialModel.linear(0.18)
        r0, q, beta, e0, omega = 2.0, 4.0, -1.2, 0.3, 1.1
        eps, *_ = taylor_coefficients(
            pot.derivatives(r0, 6), pair_145, r0, q,
            energy_denominator(pair_145, r0, q), beta, e0, omega, 0)
        gamma3 = pot.gamma_derivative(pair_145, r0, 3)
        expect = -2.0 / pair_145.mu + r0**5 / (6.0 * q) * gamma3
        assert eps[2] == pytest.approx(expect, rel=1e-14)

    def test_oscillator_delta6(self, oscillator_pot, pair_131):
        # (r^4/4)^(6) = 0 and V^(6) = 0, so delta6 = 7/(2 mu) exactly
        _, delta, *_ = taylor_coefficients(
            oscillator_pot.derivatives(1.4, 6), pair_131, r0=1.4, Q=3.0,
            D=energy_denominator(pair_131, 1.4, 3.0), beta=-1.0, E0=1.5,
            omega=2.0, n=0)
        assert delta[5] == pytest.approx(7.0 / (2.0 * pair_131.mu),
                                         rel=1e-14)

    @pytest.mark.parametrize("spec, m, relativistic, n, l", [
        ("cornell:alpha=0.25,b=0.18", 1.45, True, 1, 1),
        ("oscillator:k=1", 1.31, True, 2, 2),
        # every derivative V^(0..6) is nonzero
        ("custom:-0.3*r^-1+0.2*r^1.5+0.01*r^3", 1.0, True, 3, 1),
        ("cornell:alpha=0.25,b=0.18", 1.45, False, 4, 0),
    ])
    def test_families_from_the_reduced_equation(self, spec, m, relativistic,
                                                n, l):
        # The radial equation [p^2/(2 mu) + l(l+1)/(2 mu r^2) + gamma
        # + E V/eta] u = (E + E^2/(2 eta)) u, times r0^2/lbar, with the
        # potential scaled by lbar^2/Q, r = r0 (1 + lambda x), lbar =
        # lambda^-2 = l - beta and E = E0 + lambda^4 E2.  sympy expands
        # it to lambda^4; its x^p coefficients at order j = 1..4 must be
        # what taylor_coefficients returns.  The x^0 terms and the
        # right-hand side are the energy's and are left out.
        import sympy as sp
        lam, x, r0, mu, inv_eta, beta, q, e0, e2 = sp.symbols(
            "lambda x r0 mu inv_eta beta Q E0 E2")
        v = sp.symbols("v0:7")
        potential = sum(v[k] * (r0 * lam * x) ** k / sp.factorial(k)
                        for k in range(7))
        gamma = potential - potential**2 * inv_eta / 2
        lbar = lam**-2
        centrifugal = sp.series((1 + lam * x) ** -2, lam, 0, 7).removeO()
        equation = sp.expand(
            lam**2 * (lbar + beta) * (lbar + beta + 1) / (2 * mu * lbar)
            * centrifugal
            + r0**2 * lbar / q * (gamma + (e0 + lam**4 * e2) * potential
                                  * inv_eta) * lam**2)
        args = (r0, mu, inv_eta, beta, q, e0, e2, *v)
        coefficient = {}
        for j in range(1, 5):
            terms = sp.Poly(equation.coeff(lam, j + 2), x).as_dict()
            powers = {p for (p,), c in terms.items() if p > 0}
            assert powers == {j, j + 2} | ({j - 2} if j > 2 else set())
            for p in powers:
                coefficient[j, p] = sp.lambdify(args, terms[(p,)], "math")

        pot = parse_potential(spec)
        pair = ParticlePair.equal(m, relativistic)
        sol = solve(pot, pair, QuantumNumbers(n, l))
        d = energy_denominator(pair, sol.r0, sol.Q)
        stack = pot.derivatives(sol.r0, 6)
        energy2 = sol.Q * (sol.diagnostics.alpha1_closed_form + sol.beta
                           * (sol.beta + 1.0) / (2.0 * pair.mu)) / (
                               sol.r0**2 * d)
        values = (sol.r0, pair.mu, 1.0 / pair.eta, sol.beta, sol.Q, sol.E0,
                  energy2, *stack)
        eps, delta, *_ = taylor_coefficients(
            stack, pair, sol.r0, sol.Q, d, sol.beta, sol.E0, sol.omega, n)
        # eps_p is the x^p coefficient of orders 1 and 2, delta_p that of
        # orders 3 and 4
        placed = {(2 * half + 2 - p % 2, p): c
                  for half, row in enumerate((eps, delta))
                  for p, c in enumerate(row, 1)}
        assert placed.keys() == coefficient.keys()
        for key, c in placed.items():
            assert c == pytest.approx(coefficient[key](*values), rel=1e-14,
                                      abs=0.0), key

    def test_one_derivative_stack(self, cornell_pot, pair_145, monkeypatch):
        # a solve samples the potential only through derivative stacks;
        # after the r0 search it takes one, V^(0..6) at r0, from which the
        # geometry, E0 and the Taylor coefficients all read
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
        assert after == [("derivatives", sol.r0)]


class TestClosedForms:
    def test_coulomb_table_row(self):
        printed = [-0.02274, -0.00566, -0.002516, -0.001415, -0.000906,
                   -0.000629]
        for n, value in enumerate(printed):
            q, _, e0 = coulomb_closed_form(1.45, 0.25, n)
            assert e0 == pytest.approx(value, abs=1e-5)
            assert q == (2 * n + 2) ** 2 / 4.0

    def test_reference_row(self):
        printed = [-0.022394, -0.005648, -0.002514, -0.001415, -0.000906,
                   -0.000629]
        for n, value in enumerate(printed):
            # exact mass 2m / sqrt(1 + a^2), a = alpha / (2n + 2)
            a = 0.25 / (2.0 * n + 2.0)
            exact_binding = 2.0 * 1.45 / math.sqrt(1.0 + a * a) - 2.0 * 1.45
            assert exact_binding == pytest.approx(value, abs=1e-6)

    @staticmethod
    def closed_form_record(alpha, n):
        """Record values of `slet solve --method closed-form` at one level."""
        manifest = cli.RunManifest(
            potential=parse_potential(f"coulomb:alpha={alpha!r}"), m1=1.45,
            m2=1.45, levels=[(n, 0)], method="closed-form")
        return cli.solve_level(manifest, n, 0, "closed-form")

    def test_bound_saturation(self):
        for n in range(6):
            mass = self.closed_form_record(0.25, n)["M_GeV"]
            # variational bound 2m sqrt(1 - a^2), a = alpha / (2n + 2)
            a = 0.25 / (2.0 * n + 2.0)
            assert mass == 2.0 * 1.45 * math.sqrt(1.0 - a * a)

    def test_free_limit(self):
        values = self.closed_form_record(1e-8, 0)
        assert abs(values["E_binding_GeV"]) < 1e-15
        assert values["M_GeV"] == pytest.approx(2.9, rel=1e-15)

    def test_unphysical_coupling(self):
        with pytest.raises(UnphysicalCouplingError):
            coulomb_closed_form(1.0, 2.0, 0)


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

    def test_correction_terms_from_fields(self, table2_solutions,
                                          table3_solutions, pair_131,
                                          pair_145):
        # E2 = [alpha1 + beta (beta + 1)/(2 mu)] / (r0^2 D) and
        # E3 = alpha2 / (r0^2 D lbar), D = 1 + (E0 - V(r0))/eta
        for sols, mu in ((table2_solutions, pair_131.mu),
                         (table3_solutions, pair_145.mu)):
            for sol in sols.values():
                scale = sol.r0**2 * (1.0
                                     + sol.diagnostics.reduction_parameter)
                shift = sol.beta * (sol.beta + 1.0) / (2.0 * mu)
                assert sol.E2_term == pytest.approx(
                    (sol.alpha1 + shift) / scale, rel=1e-14, abs=0.0)
                assert sol.E3_term == pytest.approx(
                    sol.alpha2 / (scale * sol.lbar), rel=1e-14, abs=0.0)

    def test_reduction_parameter(self, table2_solutions, oscillator_pot,
                                 pair_131):
        sol = table2_solutions[(1, 1)]
        e0_minus_v0 = sol.E0 - oscillator_pot.evaluate(sol.r0)
        assert sol.diagnostics.reduction_parameter == pytest.approx(
            e0_minus_v0 / pair_131.eta, rel=1e-12)
        plain = solve(oscillator_pot, pair_131.as_nonrelativistic(),
                      QuantumNumbers(1, 1))
        assert plain.diagnostics.reduction_parameter == 0.0

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

    @pytest.mark.parametrize("n, l", [(150, 1), (500, 3), (1000, 0),
                                      (3000, 2)])
    def test_nonrelativistic_oscillator_high_levels(self, n, l):
        # the series reads level n only through E_0 = (n + 1/2) omega and
        # forms no state vector, so its rounding does not grow with n
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

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(perturbation, "rspt_coefficients", counted)
        solve(cornell_pot, pair_145, QuantumNumbers(1, 1))
        assert len(calls) == 1

    def test_one_closed_form_alpha1_per_solve(self, cornell_pot, pair_145,
                                              monkeypatch):
        # the closed form that seeds delta1 and delta2 is the one the
        # diagnostics compare with the series
        calls = []
        original = engine.alpha1_closed_form

        def counted(*args):
            calls.append(original(*args))
            return calls[-1]
        monkeypatch.setattr(engine, "alpha1_closed_form", counted)
        sol = solve(cornell_pot, pair_145, QuantumNumbers(1, 1))
        assert calls == [sol.diagnostics.alpha1_closed_form]

    def test_geometry_once_at_r0(self, monkeypatch):
        # one array scan plus the polish calls, then a single geometry
        # at the converged r0 in solve
        counts = {"r0_residual": 0, "geometry_at": 0}
        radii = []

        def counting(name):
            original = getattr(engine, name)

            def wrapper(*args):
                counts[name] += 1
                if name == "r0_residual":
                    radii.append(args[4])
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
        # the polish starts from the scan's values at the panel ends and
        # evaluates no scan point again
        scan, *polish = radii
        assert scan.size == R0_SCAN_PANELS + 1
        assert polish and not set(polish) & set(scan.tolist())

    def test_stage_labels(self, pair_145):
        pot = PotentialModel.custom([(-0.5, 1.0)])
        with pytest.raises(BracketingError) as info:
            solve(pot, pair_145, QuantumNumbers(0, 0))
        assert info.value.stage == "solve_r0"

    @pytest.mark.parametrize("spec", ["linear:b=1e-300",
                                      "custom:1e-300*r^2"])
    def test_expansion_point_too_far_out(self, spec):
        # a tiny coupling puts r0 beyond 1e38, where r0**8 in
        # taylor_coefficients overflows
        with pytest.raises(UnphysicalRegimeError, match=r"r0 = \S+e\+\d+ "
                           "is too large for the expansion") as info:
            solve(parse_potential(spec), ParticlePair.equal(1.0),
                  QuantumNumbers(0, 0))
        assert info.value.stage == "taylor_coefficients"

    def test_nonfinite_taylor_coefficient_refused(self):
        # r0 = 2e-70, the Bohr radius of the tiny 1/r term for the heavy
        # pair: V^(4..6) overflow there, without a warning, and so does a
        # Taylor coefficient
        pot = parse_potential("custom:-1e-30*r^-1+1*r^2")
        pair = ParticlePair.equal(1e100, relativistic=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnphysicalRegimeError, match=r"r0 = \S+ is "
                               "out of the expansion's range: a Taylor "
                               "coefficient is not finite") as info:
                solve(pot, pair, QuantumNumbers(0, 0))
        assert info.value.stage == "taylor_coefficients"

    def test_infinite_scan_bracket_refused(self):
        # the Bohr radius of the tiny 1/r term, 2e305, puts the upper end
        # of the (3, 2) scan beyond the largest float
        pot = parse_potential("custom:-1e-300*r^-1+1*r^2")
        pair = ParticlePair.equal(1e-5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnphysicalRegimeError, match=r"the r0 scan "
                               r"bracket \[\S+, inf\] is not finite") as info:
                solve(pot, pair, QuantumNumbers(3, 2))
        assert info.value.stage == "solve_r0"
        assert solve(pot, pair, QuantumNumbers(0, 0)).diagnostics \
            .q_lbar_gap <= 1e-8

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


# (potential, mass, relativistic, levels) of the batch checks: the Table 2
# and 3 cells, Coulomb levels far out, a run longer than one chunk, a
# supercritical l = 0 beside solvable l = 1, scan ranges that are not
# finite, a potential with two expansion points and a nonrelativistic pair
BATCHES = {
    "table2": ("oscillator:k=1", 1.31, True, tuple(TABLE2.grid())),
    "table3": ("cornell:alpha=0.25,b=0.18", 1.45, True,
               tuple(TABLE3.grid())),
    "coulomb": ("coulomb:alpha=0.25", 1.45, True,
                tuple((n, l) for n in range(14) for l in (0, 4))),
    "chunks": ("cornell:alpha=0.25,b=0.18", 1.45, True,
               tuple((n, l) for n in range(41) for l in range(6))),
    "supercritical": ("coulomb:alpha=1.2", 1.0, True,
                      ((0, 0), (0, 1), (1, 0), (1, 1))),
    "infinite-range": ("custom:-1e-300*r^-1+1*r^2", 1e-5, True,
                       ((0, 0), (3, 2), (1, 0), (3, 2))),
    "two-roots": ("custom:4*r^1-2*r^2+0.3*r^3", 1.45, True,
                  ((0, 0), (0, 1), (1, 0))),
    "nonrelativistic": ("oscillator:k=1", 1.31, False,
                        ((80, 1), (150, 1), (100, 7))),
}


def level_outcome(step):
    """(fields or error, warnings) of one level that step() solves: every
    SletSolution field by repr, or an error's class, stage and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            found = step()
            if isinstance(found, SletError):
                raise found
            result = repr(dataclasses.astuple(found))
        except SletError as exc:
            result = (type(exc), exc.stage, str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


class TestSolveLevels:
    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_batch_equals_solve_alone(self, name):
        spec, m, relativistic, levels = BATCHES[name]
        pot, pair = parse_potential(spec), ParticlePair.equal(m, relativistic)
        qns = [QuantumNumbers(n, l) for n, l in levels]
        batch = engine.solve_levels(pot, pair, qns)
        got = [level_outcome(lambda: next(batch)) for _ in qns]
        assert next(batch, None) is None
        # bit for bit, with each level's own warnings and errors
        assert got == [level_outcome(lambda: solve(pot, pair, qn))
                       for qn in qns]

    def test_failures_stay_per_level(self):
        _, m, _, levels = BATCHES["supercritical"]
        outcomes = list(engine.solve_levels(
            PotentialModel.coulomb(1.2), ParticlePair.equal(m),
            [QuantumNumbers(n, l) for n, l in levels]))
        for (n, l), found in zip(levels, outcomes):
            if l == 0:
                assert isinstance(found, SupercriticalCouplingError)
                assert found.stage == "fall_to_center"
            else:
                assert found.diagnostics.r0_root_count == 1

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_records_equal_one_level_runs(self, name):
        spec, m, relativistic, levels = BATCHES[name]
        manifest = cli.RunManifest(potential=parse_potential(spec), m1=m,
                                   m2=m, levels=list(levels),
                                   nonrelativistic=not relativistic)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootsWarning)
            records, solutions, error = cli.run_solve(manifest)
            alone = [cli.run_solve(dataclasses.replace(manifest,
                                                       levels=[lev]))
                     for lev in levels]
        assert [repr(r) for r in records] == [repr(a[0][0]) for a in alone]
        assert [repr(s) for s in solutions] == [
            repr(a[1][0]) for a in alone if a[1]]
        first = next((a[2] for a in alone if a[2] is not None), None)
        assert (type(error), str(error)) == (type(first), str(first))

    def test_one_scan_call_per_chunk(self, monkeypatch):
        # the 246 levels of `slet solve --n-range 0:40 --l-range 0:5` make
        # one array derivative evaluation per chunk of SCAN_CHUNK levels
        # for their scans, and none of a level's own
        shapes = []
        original = PotentialModel.derivatives

        def recording(self, r, upto):
            shapes.append(np.shape(r))
            return original(self, r, upto)
        monkeypatch.setattr(PotentialModel, "derivatives", recording)
        spec, m, _, levels = BATCHES["chunks"]
        records, _, error = cli.run_solve(cli.RunManifest(
            potential=parse_potential(spec), m1=m, m2=m, levels=list(levels)))
        assert error is None and len(records) == 246
        scans = [s for s in shapes if len(s) > 0]
        assert len(scans) == math.ceil(246 / engine.SCAN_CHUNK)
        assert all(s == (min(engine.SCAN_CHUNK, 246 - i * engine.SCAN_CHUNK),
                         R0_SCAN_PANELS + 1) for i, s in enumerate(scans))

    def test_one_level_scans_alone(self, monkeypatch, cornell_pot, pair_145):
        # a run of one level takes solve's own scan, with a scalar upper end
        ends, scan = [], engine.log_scan

        def recording(f, lo, hi, count):
            ends.append(hi)
            return scan(f, lo, hi, count)
        monkeypatch.setattr(engine, "log_scan", recording)
        sol, = engine.solve_levels(cornell_pot, pair_145,
                                   [QuantumNumbers(1, 1)])
        assert [type(hi) for hi in ends] == [float]
        assert sol.diagnostics.r0_root_count == 1

    def test_memory_bounded_by_chunk(self, cornell_pot, pair_145):
        # the scans of later chunks reuse the memory of the first: the peak
        # while solving 246 levels stays that of solving half of them
        levels = [QuantumNumbers(n, l) for n, l in BATCHES["chunks"][3]]

        def peak(count):
            tracemalloc.start()
            try:
                for _ in engine.solve_levels(cornell_pot, pair_145,
                                             levels[:count]):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(len(levels)) < 1.25 * peak(len(levels) // 2)


# The extreme-input sweep: coefficients, powers and masses fixed in advance
SWEEP_COEFFICIENTS = (1e-300, 1e-100, 1e-30, 1.0, 1e30, 1e100, 1e300)
SWEEP_POWERS = (0.5, 1.0, 2.0, 3.0, 12.0)
SWEEP_MASSES = (1e-100, 1e-30, 1e-5, 1.0, 1e5, 1e30, 1e100)


def sweep_cases():
    """(terms, mass, relativistic) of every sweep case: c r^p for each
    power and -c/r + r^2 with c capped at 0.4, at every equal mass."""
    for c in SWEEP_COEFFICIENTS:
        shapes = [[(c, p)] for p in SWEEP_POWERS]
        shapes.append([(-min(c, 0.4), -1.0), (1.0, 2.0)])
        for terms in shapes:
            for m in SWEEP_MASSES:
                for relativistic in (True, False):
                    yield terms, m, relativistic


def sweep_outcomes(solve_level):
    """(case, result, refusal, warnings) of every sweep solve.

    result is what solve_level returned or the exception it raised, and
    refusal the message of the ValueError with which length_scales
    refuses the potential's term, or None.  Pairs that ParticlePair
    refuses are not solved.
    """
    for terms, m, relativistic in sweep_cases():
        pot = PotentialModel.custom(terms)
        try:
            pair = ParticlePair.equal(m, relativistic)
        except ValueError:
            continue
        try:
            pot.length_scales(pair.mu)
            refused = None
        except ValueError as exc:
            refused = str(exc)
        for n, l in ((0, 0), (3, 2)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    result = solve_level(pot, pair, QuantumNumbers(n, l))
                except Exception as exc:
                    result = exc
            yield (terms, m, relativistic, n, l), result, refused, caught


def test_extreme_input_sweep():
    # every solve gives finite fields (xi is infinite for a
    # nonrelativistic pair) or a SletError with a stage, or refuses a term
    # that length_scales refuses with its ValueError.  No warning but
    # MultipleRootsWarning may escape.
    failures, solves = [], 0
    for case, sol, refused, caught in sweep_outcomes(solve):
        solves += 1
        if isinstance(sol, SletError):
            if sol.stage is None or refused:
                failures.append((case, repr(sol)))
        elif isinstance(sol, ValueError):
            if str(sol) != refused:
                failures.append((case, repr(sol)))
        elif isinstance(sol, Exception):
            failures.append((case, repr(sol)))
        else:
            fields = dict(vars(sol), **vars(sol.diagnostics))
            del fields["diagnostics"]
            relativistic = case[2]
            if not relativistic:
                del fields["xi"]
            values = [v for value in fields.values()
                      for v in (value if isinstance(value, tuple)
                                else (value,))]
            if refused or not all(math.isfinite(v) for v in values):
                failures.append((case, "solved, with a field not "
                                 "finite or a term refused"))
        failures += [(case, repr(w.message)) for w in caught
                     if w.category is not MultipleRootsWarning]
    assert solves == 1008
    assert failures == []


def test_extreme_input_sweep_grid_solver():
    # the grid solver on the same solves: a finite level, a SletError,
    # or the ValueError with which length_scales refuses a term.  No
    # warning but ResolutionWarning may escape.
    failures, solves = [], 0
    for case, sol, refused, caught in sweep_outcomes(
            oracle.solve_selfconsistent):
        solves += 1
        if isinstance(sol, SletError):
            continue
        if isinstance(sol, ValueError):
            if str(sol) != refused:
                failures.append((case, repr(sol)))
        elif isinstance(sol, Exception):
            failures.append((case, repr(sol)))
        elif refused or not (math.isfinite(sol.binding_energy)
                             and math.isfinite(sol.mass)):
            failures.append((case, "solved, with a level not finite or a "
                             "term refused"))
        failures += [(case, repr(w.message)) for w in caught
                     if w.category is not ResolutionWarning]
    assert solves == 1008
    assert failures == []
