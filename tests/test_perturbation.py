import mpmath
import numpy as np
import pytest

from slet import engine
from slet.engine import alpha1_closed_form
from slet.perturbation import position_power_matrix, rspt_coefficients
from slet.potentials import ParticlePair, parse_potential


def bars_to_raw(mu, omega, eps_bar):
    scale = 2.0 * mu * omega
    return tuple(e * scale ** ((i + 1) / 2.0) for i, e in enumerate(eps_bar))


def make_problem(mu, omega, n, eps_bar=(0, 0, 0, 0)):
    """rspt_coefficients' arguments (mu, omega, level, eps, delta)."""
    return mu, omega, n, bars_to_raw(mu, omega, eps_bar), (0,) * 6


def negate_odd_orders(eps, delta):
    """eps and delta of h(-lambda): the odd-order coefficients eps1,
    eps3, delta1, delta3 and delta5 negated."""
    e1, e2, e3, e4 = eps
    d1, d2, d3, d4, d5, d6 = delta
    return (-e1, e2, -e3, e4), (-d1, d2, -d3, d4, -d5, d6)


def random_problems():
    """Three problems at each of six levels, every coefficient set."""
    rng = np.random.default_rng(41)
    for n in (0, 1, 4, 15, 60, 200):
        for _ in range(3):
            # drawn in the order eps1, eps3, eps2, eps4, delta1, delta3,
            # delta5, delta2, delta4, delta6
            e1, e3, e2, e4, d1, d3, d5, d2, d4, d6 = (
                rng.uniform(-90.0, 90.0) for _ in range(10))
            yield (rng.uniform(0.3, 3.0), rng.uniform(0.05, 4.0), n,
                   (e1, e2, e3, e4), (d1, d2, d3, d4, d5, d6))


class TestPositionMatrix:
    def test_first_offdiagonal(self):
        x = position_power_matrix(0.5, 1.0, 6, 1)  # mu*omega = 1/2
        assert x[0, 1] == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(x, x.T)

    def test_square_diagonal(self):
        mu, omega = 0.7, 1.3
        x2 = position_power_matrix(mu, omega, 30, 2)
        for n in range(10):
            assert x2[n, n] == pytest.approx(
                (2 * n + 1) / (2 * mu * omega), rel=1e-13)

    def test_fourth_power_diagonal(self):
        # matrix self-multiplication against the closed identity
        mu, omega = 0.7, 1.3
        x4 = position_power_matrix(mu, omega, 30, 4)
        for n in range(10):
            expect = 3.0 * (1 + 2 * n + 2 * n * n) / (2 * mu * omega) ** 2
            assert x4[n, n] == pytest.approx(expect, rel=1e-13)

    def test_bandedness(self):
        x3 = position_power_matrix(0.5, 2.0, 20, 3)
        assert np.all(x3[np.abs(np.subtract.outer(range(20), range(20))) > 3]
                      == 0.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            position_power_matrix(-1.0, 1.0, 10, 1)
        with pytest.raises(ValueError):
            position_power_matrix(1.0, 1.0, 10, -1)


class TestLadderAgainstDensePowers:
    @pytest.mark.parametrize("n", [0, 3, 40, 200])
    def test_single_terms(self, n):
        # one x^4 term at order 2 gives c2 = e <n|x^4|n> and
        # c4 = -e^2 sum_m <m|x^4|n>^2 / (E_m - E_n); one x^6 term at
        # order 4 gives c4 = d <n|x^6|n>
        mu, omega, e, d = 0.8, 1.3, 0.37, -0.21
        size = n + 10
        x4 = position_power_matrix(mu, omega, size, 4)[:, n]
        x6 = position_power_matrix(mu, omega, size, 6)[n, n]
        m = np.arange(size)
        off = m != n
        second = -e * e * np.sum(x4[off]**2 / ((m[off] - n) * omega))
        quartic = rspt_coefficients(mu, omega, n, (0, 0, 0, e), (0,) * 6)
        _, sextic4 = rspt_coefficients(mu, omega, n, (0,) * 4,
                                       (0, 0, 0, 0, 0, d))
        assert quartic[0] == pytest.approx(e * x4[n], rel=1e-13)
        assert quartic[1] == pytest.approx(second, rel=1e-12)
        assert sextic4 == pytest.approx(d * x6, rel=1e-13)


class TestExactlySolvable:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_displaced_oscillator(self, n):
        # h = p^2/2mu + mu w^2 x^2/2 + lam e1 x has the exact spectrum
        # (n + 1/2) w - lam^2 e1^2/(2 mu w^2), so c2 = -ebar1^2/w, c4 = 0
        mu, omega, ebar1 = 0.9, 1.7, 0.63
        problem = make_problem(mu, omega, n, (ebar1, 0, 0, 0))
        c2, c4 = rspt_coefficients(*problem)
        assert c2 == pytest.approx(-ebar1**2 / omega, rel=1e-10)
        assert abs(c4) < 1e-12

    @pytest.mark.parametrize("n", [0, 2])
    def test_quadratic_shift(self, n):
        # exact eigenvalue (n + 1/2) sqrt(w^2 + 2 lam^2 e2 / mu); its
        # Taylor series in lam gives the oracle for c2 and c4
        mu, omega, e2 = 1.1, 0.8, 0.07
        c2_exact = (n + 0.5) * e2 / (mu * omega)
        c4_exact = -(n + 0.5) * e2**2 / (2.0 * mu**2 * omega**3)
        c2, c4 = rspt_coefficients(mu, omega, n, (0, e2, 0, 0), (0,) * 6)
        assert c2 == pytest.approx(c2_exact, rel=1e-10)
        assert c4 == pytest.approx(c4_exact, rel=1e-10)

    @pytest.mark.parametrize("n,factor", [(0, 3.0), (1, 15.0)])
    def test_quartic_first_order(self, n, factor):
        # <n|x^4|n> identity: alpha1 = 3 (1 + 2n + 2n^2) ebar4
        mu, omega, ebar4 = 0.66, 2.1, 0.11
        problem = make_problem(mu, omega, n, (0, 0, 0, ebar4))
        alpha1, _ = rspt_coefficients(*problem)
        assert alpha1 == pytest.approx(factor * ebar4, rel=1e-12)


class TestSeriesStructure:
    def test_parity_zeros(self):
        # c1 and c3 vanish: h(-lambda), every odd-order coefficient negated,
        # has the same alpha1 and alpha2, and the 50-digit series of the
        # same problem has zero odd-order coefficients
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu, omega = rng.uniform(0.3, 3.0), rng.uniform(0.2, 4.0)
            eps = bars_to_raw(mu, omega, rng.uniform(-1, 1, 4))
            delta = rng.uniform(-1, 1, 6)
            problem = (mu, omega, int(rng.integers(0, 4)), eps, tuple(delta))
            mirrored = problem[:3] + negate_odd_orders(*problem[3:])
            got = rspt_coefficients(*problem)
            assert rspt_coefficients(*mirrored) == pytest.approx(
                got, rel=0.0, abs=1e-10)
            c1, _, c3, _ = exact_series(problem, digits=30)
            assert abs(c1) <= 1e-10
            assert abs(c3) <= 1e-10

    def test_closed_form_alpha1_agreement(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            mu, omega = rng.uniform(0.3, 3.0), rng.uniform(0.2, 4.0)
            n = int(rng.integers(0, 5))
            eps_bar = rng.uniform(-1, 1, 4)
            c2, _ = rspt_coefficients(*make_problem(mu, omega, n, eps_bar))
            closed = alpha1_closed_form(n, omega, eps_bar)
            if abs(closed) > 1e-12:
                assert c2 == pytest.approx(closed, rel=1e-8)
            else:
                assert abs(c2 - closed) < 1e-10

    def test_ground_level_second_order_not_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            mu, omega = rng.uniform(0.3, 3.0), rng.uniform(0.2, 4.0)
            c2, _ = rspt_coefficients(*make_problem(mu, omega, 0,
                                                    (rng.uniform(-1, 1), 0,
                                                     rng.uniform(-1, 1), 0)))
            assert c2 <= 1e-15


def exact_series(problem, digits=50):
    """c1..c4 of the same problem in ``digits``-digit arithmetic.

    Written apart from slet.perturbation: vectors are {state: amplitude}
    dicts, and x|k> = sqrt(k/(2 mu omega)) |k-1> + sqrt((k+1)/(2 mu
    omega)) |k+1>.  Every input float converts to mpf exactly.
    """
    with mpmath.workdps(digits):
        mu, omega, n, e, d = problem
        mu_omega2 = 2 * mpmath.mpf(mu) * mpmath.mpf(omega)
        omega = mpmath.mpf(omega)
        # (power, coefficient) pairs of each lambda order
        layout = {1: ((1, e[0]), (3, e[2])), 2: ((2, e[1]), (4, e[3])),
                  3: ((1, d[0]), (3, d[2]), (5, d[4])),
                  4: ((2, d[1]), (4, d[3]), (6, d[5]))}

        def times_x(vec):
            out = {}
            for k, amp in vec.items():
                out[k + 1] = out.get(k + 1, 0) + mpmath.sqrt(
                    (k + 1) / mu_omega2) * amp
                if k > 0:
                    out[k - 1] = out.get(k - 1, 0) + mpmath.sqrt(
                        k / mu_omega2) * amp
            return out

        def apply_w(order, vec):
            out = {}
            for power, coeff in layout[order]:
                term = vec
                for _ in range(power):
                    term = times_x(term)
                for k, amp in term.items():
                    out[k] = out.get(k, 0) + mpmath.mpf(coeff) * amp
            return out

        psi = [{n: mpmath.mpf(1)}]
        energies = []
        for k in range(1, 5):
            rhs = {}
            for j in range(1, k + 1):
                for state, amp in apply_w(j, psi[k - j]).items():
                    rhs[state] = rhs.get(state, 0) - amp
            energies.append(-rhs.get(n, 0))
            for m in range(1, k):
                for state, amp in psi[k - m].items():
                    rhs[state] = rhs.get(state, 0) + energies[m - 1] * amp
            psi.append({state: amp / ((state - n) * omega)
                        for state, amp in rhs.items() if state != n})
        return energies


def _engine_problem(spec, mass, n, l):
    """The series arguments that engine.solve passes at level (n, l)."""
    pair = ParticlePair.equal(mass)
    sol = engine.solve(parse_potential(spec), pair,
                       engine.QuantumNumbers(n, l))
    return pair.mu, sol.omega, n, sol.eps, sol.delta


class TestExactArithmeticReferee:
    """The double-precision series against a 50-digit one."""

    @staticmethod
    def _check(problem, c4_bound=1e-9):
        c2, c4 = rspt_coefficients(*problem)
        exact = exact_series(problem)
        assert c2 == pytest.approx(float(exact[1]), rel=1e-12)
        assert c4 == pytest.approx(float(exact[3]), rel=c4_bound)

    def test_random_problems(self):
        for problem in random_problems():
            self._check(problem)

    # Coulomb c4 is a small difference of terms that grow with n:
    # measured 4.6e-8 at (1000,0) and 3.5e-7 at (3000,2)
    C4_BOUNDS = {(1000, 0): 1e-7, (3000, 2): 1e-6}

    @pytest.mark.parametrize("spec, mass, n, l", [
        ("cornell:alpha=0.25,b=0.18", 1.45, 200, 2),
        ("oscillator:k=1", 1.31, 200, 8),
        ("coulomb:alpha=0.3", 1.45, 1000, 0),
        ("coulomb:alpha=0.3", 1.45, 3000, 2)])
    def test_excited_levels(self, spec, mass, n, l):
        self._check(_engine_problem(spec, mass, n, l),
                    self.C4_BOUNDS.get((n, l), 1e-9))
