"""Shifted-l expansion solver for the reduced semi-relativistic radial problem.

The radial equation carries the relativistically corrected potential
gamma(r) = V - V^2/(2 eta) plus an energy-dependent coupling E V / eta.
Expanding around the point r0 where the leading effective potential is
extremal turns it into a perturbed oscillator in the shifted angular
momentum lbar = l - beta, with the shift beta chosen so the first
subleading energy term vanishes.  The pipeline is:

    solve_r0 -> geometry (xi, Q, omega) and one stack V^(0..6) at r0
    -> beta, lbar -> leading energy E0 -> eps1..4 -> closed-form alpha1
    -> delta1..6 -> one order-4 series (alpha1, alpha2) -> E2, E3
    -> binding energy and total mass

A nonrelativistic pair (eta = inf) runs through the same formulas.
Q is treated as a continuous function Q(r0) while iterating and is
identified with lbar^2 only at the converged point, where the root
equation makes sqrt(Q) = lbar hold automatically; :func:`solve` takes
the root residual from its one geometry evaluation there, and E0, the
Taylor coefficients and the denominator check all read the one stack.
The reported correction coefficients alpha1 and alpha2 come from the
perturbation module's order-by-order series.  The closed form for alpha1
supplies the E2 that delta1 and delta2 need before the series can run,
and checks the series' alpha1 afterwards.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import perturbation as pt
from .errors import (
    BracketingError,
    MultipleRootsWarning,
    NoHarmonicRegimeError,
    NonMonotonePointError,
    SletError,
    UnphysicalCouplingError,
)
from .potentials import (
    MAX_DERIVATIVE_ORDER,
    ParticlePair,
    PotentialModel,
    fall_to_center_check,
    gamma_from_stack,
)

R0_SCAN_PANELS = 200
R0_TOLERANCE = 1e-12
R0_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial quantum number n and orbital angular momentum l."""

    n: int
    l: int

    def __post_init__(self):
        if self.n < 0 or self.l < 0:
            raise ValueError("quantum numbers must be non-negative")


@dataclass(frozen=True)
class Geometry:
    """Expansion-point quantities xi, Q and the scaled frequency omega.

    Floats for a scalar expansion point, arrays for an array of them.
    """

    xi: float
    Q: float
    omega: float


@dataclass(frozen=True)
class TaylorCoefficients:
    """Perturbation inputs eps1..4, delta1..6 and their scaled versions.

    Bars divide eps_i by (2 mu omega)^(i/2) and delta_j by
    (2 mu omega)^(j/2).
    """

    eps: tuple
    delta: tuple
    eps_bar: tuple
    delta_bar: tuple


@dataclass(frozen=True)
class SolveDiagnostics:
    """Residuals and bookkeeping of one solve."""

    r0_residual: float
    r0_function_calls: int
    r0_iterations: int
    r0_root_count: int
    q_lbar_gap: float
    denominator_gap: float
    alpha1_closed_form: float
    alpha1_path_gap: float


@dataclass
class SletSolution:
    """Complete record of one shifted-l expansion solve."""

    n: int
    l: int
    r0: float
    omega: float
    xi: float
    Q: float
    beta: float
    lbar: float
    E0: float
    eps: tuple
    delta: tuple
    eps_bar: tuple
    delta_bar: tuple
    alpha1: float
    alpha2: float
    E2_term: float
    E3_term: float
    binding_energy: float
    mass: float
    diagnostics: SolveDiagnostics


@contextmanager
def _stage(name: str):
    """Label solver errors with the pipeline stage that raised them."""
    try:
        yield
    except SletError as exc:
        exc.stage = name
        exc.args = (f"{name}: {exc}",) + exc.args[1:]
        raise


def geometry_at(potential: PotentialModel, pair: ParticlePair,
                r0) -> Geometry:
    """xi, Q and omega evaluated at a trial expansion point.

    With s = r0 V'(r0)/(2 eta) and w = sqrt(1 + s^2): xi = w/s,
    Q = mu r0^3 V' (s + w) and (mu omega)^2 = 3 + r0 V''/V' - 2s/(s + w).
    At eta = inf, s = 0 gives exactly Q = mu r0^3 V' and xi = inf.
    Requires V'(r0) > 0 and a non-negative squared frequency bracket.
    r0 may be a scalar or an array: a scalar gives floats and raises
    where a requirement fails, an array gives arrays with NaN at those
    points.  Both run the same array arithmetic, so each array element
    equals the scalar result at that radius.
    """
    r = np.asarray(r0, dtype=float)
    _, v1, v2 = potential.derivatives(r, 2)
    mu = pair.mu
    with np.errstate(all="ignore"):
        s = r * v1 / (2.0 * pair.eta)
        w = np.sqrt(1.0 + s * s)
        xi = w / s
        q = mu * r**3 * v1 * (s + w)
        bracket = 3.0 + r * v2 / v1 - 2.0 * s / (s + w)
        omega = np.sqrt(bracket) / mu
    if np.ndim(r0) == 0:
        r, v1, bracket = float(r), float(v1), float(bracket)
        if not v1 > 0.0:
            raise NonMonotonePointError(
                f"V'(r0) = {v1:g} at r0 = {r:g}; the expansion needs an "
                "increasing potential at the expansion point")
        if bracket < 0.0:
            raise NoHarmonicRegimeError(
                f"squared frequency bracket is {bracket:g} at r0 = {r:g}")
        return Geometry(xi=float(xi), Q=float(q), omega=float(omega))
    bad = ~(v1 > 0.0) | (bracket < 0.0)
    return Geometry(xi=np.where(bad, np.nan, xi), Q=np.where(bad, np.nan, q),
                    omega=np.where(bad, np.nan, omega))


def shift_and_lbar(pair: ParticlePair, n: int, omega: float, l: int):
    """Shift beta = -1/2 - mu (n + 1/2) omega and lbar = l - beta."""
    beta = -0.5 - pair.mu * (n + 0.5) * omega
    return beta, l - beta


def leading_energy(v0: float, pair: ParticlePair, r0: float,
                   Q: float) -> float:
    """Leading eigenvalue E0 = v0 - eta + sqrt(eta^2 + eta Q/(mu r0^2)).

    v0 is V(r0).  Evaluated in the cancellation-free form
    v0 + Q / (mu r0^2 (1 + D)), with D from :func:`energy_denominator`;
    at eta = inf, D = 1 gives the nonrelativistic v0 + Q / (2 mu r0^2).
    """
    d = energy_denominator(pair, r0, Q)
    return v0 + Q / (pair.mu * r0**2 * (1.0 + d))


def energy_denominator(pair: ParticlePair, r0: float, Q: float) -> float:
    """D = sqrt(1 + Q / (mu eta r0^2)) = 1 + (E0 - V(r0))/eta, >= 1."""
    return math.sqrt(1.0 + Q / (pair.mu * pair.eta * r0**2))


def r0_residual(potential: PotentialModel, pair: ParticlePair,
                qn: QuantumNumbers, r0):
    """Root function F(r0) = 2 (sqrt(Q(r0)) - lbar(r0)).

    Equivalent to r0^2 V'(r0) sqrt(2 mu (1 + xi)/eta) minus
    1 + 2l + mu (2n + 1) omega; the root makes sqrt(Q) = lbar.  Scalar
    or array r0 as in :func:`geometry_at`.
    """
    geo = geometry_at(potential, pair, r0)
    _, lbar = shift_and_lbar(pair, qn.n, geo.omega, qn.l)
    value = 2.0 * (np.sqrt(geo.Q) - lbar)
    return float(value) if np.ndim(value) == 0 else value


def solve_r0(potential: PotentialModel, pair: ParticlePair,
             qn: QuantumNumbers):
    """Expansion point as (r0, (function_calls, iterations, root_count)).

    One array call of :func:`r0_residual` scans R0_SCAN_PANELS
    logarithmic panels from 1e-3 times the smallest to 10 (2n + l + 2)^2
    times the largest of the potential's length scales; the upper end
    stays above the Coulomb orbit radius, which grows as (n + l + 1)^2
    Bohr radii.  Points where the potential is not
    increasing, the frequency bracket turns negative or the arithmetic
    overflows are skipped.  Every sign change is polished with Brent's
    method; if several roots survive, the one with the lowest leading
    energy wins and a MultipleRootsWarning is issued.
    ``function_calls`` counts the scan points plus the polish calls.
    """
    scales = potential.length_scales(pair.mu) or (1.0,)
    lo = 1e-3 * min(scales)
    hi = 10.0 * (2 * qn.n + qn.l + 2) ** 2 * max(scales)
    grid = np.geomspace(lo, hi, R0_SCAN_PANELS + 1)
    values = r0_residual(potential, pair, qn, grid)
    values[~np.isfinite(values)] = np.nan

    roots = [float(r) for r in grid[values == 0.0]]
    calls, iterations = grid.size, 0
    for i in np.flatnonzero(values[:-1] * values[1:] < 0.0):
        root, info = brentq(lambda r: r0_residual(potential, pair, qn, r),
                            grid[i], grid[i + 1], xtol=1e-300,
                            rtol=R0_TOLERANCE, maxiter=R0_MAX_ITERATIONS,
                            full_output=True, disp=False)
        if not info.converged:
            raise BracketingError(
                f"root polish did not converge in panel "
                f"[{grid[i]:g}, {grid[i + 1]:g}]")
        calls += info.function_calls
        iterations += info.iterations
        roots.append(float(root))

    # collapse near-duplicates from adjacent panels
    unique = []
    for r in sorted(roots):
        if not unique or abs(r - unique[-1]) > 1e-9 * unique[-1]:
            unique.append(r)
    if not unique:
        raise BracketingError(
            f"no sign change of the r0 equation inside [{lo:g}, {hi:g}] "
            f"({np.count_nonzero(np.isfinite(values))} of {grid.size} scan "
            "points were usable)")

    if len(unique) > 1:
        energies = [leading_energy(potential.evaluate(r), pair, r,
                                   geometry_at(potential, pair, r).Q)
                    for r in unique]
        best = int(np.argmin(energies))
        warnings.warn(
            f"{len(unique)} expansion points satisfy the root equation; "
            f"keeping the one with the lowest leading energy (r0 = "
            f"{unique[best]:g})", MultipleRootsWarning)
        r0 = unique[best]
    else:
        r0 = unique[0]

    return r0, (calls, iterations, len(unique))


def taylor_coefficients(d, pair: ParticlePair, r0: float, Q: float,
                        beta: float, E0: float, omega: float,
                        n: int) -> TaylorCoefficients:
    """Perturbation coefficients of level n from the stack d = V^(0..6)(r0).

    gamma^(3..6) come from the same stack.  delta1 and delta2 contain
    E2 = Q [alpha1 + beta (beta + 1)/(2 mu)] / (r0^2 D), with D from
    :func:`energy_denominator`.  The series cannot run before the deltas
    exist, so this alpha1 comes from :func:`alpha1_closed_form` of the
    scaled eps, which are computed first.
    """
    mu, eta = pair.mu, pair.eta
    inv_eta = 1.0 / eta
    two_b1 = 2.0 * beta + 1.0
    g = {k: gamma_from_stack(d, eta, k) for k in (3, 4, 5, 6)}
    scale = 2.0 * mu * omega

    eps = (
        -two_b1 / mu,
        3.0 * two_b1 / (2.0 * mu),
        -2.0 / mu + r0**5 / (6.0 * Q) * (g[3] + d[3] * E0 * inv_eta),
        5.0 / (2.0 * mu) + r0**6 / (24.0 * Q) * (g[4] + d[4] * E0 * inv_eta),
    )
    eps_bar = tuple(e / scale ** ((i + 1) / 2.0) for i, e in enumerate(eps))
    alpha1 = alpha1_closed_form(n, omega, eps_bar)
    e2 = (Q * (alpha1 + beta * (beta + 1.0) / (2.0 * mu))
          / (r0**2 * energy_denominator(pair, r0, Q)))
    delta = (
        -beta * (beta + 1.0) / mu + r0**3 * d[1] * e2 * inv_eta / Q,
        3.0 * beta * (beta + 1.0) / (2.0 * mu)
        + r0**4 * d[2] * e2 * inv_eta / (2.0 * Q),
        -2.0 * two_b1 / mu,
        5.0 * two_b1 / (2.0 * mu),
        -3.0 / mu + r0**7 / (120.0 * Q) * (g[5] + d[5] * E0 * inv_eta),
        7.0 / (2.0 * mu) + r0**8 / (720.0 * Q) * (g[6] + d[6] * E0 * inv_eta),
    )
    delta_bar = tuple(dj / scale ** ((j + 1) / 2.0)
                      for j, dj in enumerate(delta))
    return TaylorCoefficients(eps=eps, delta=delta,
                              eps_bar=eps_bar, delta_bar=delta_bar)


def alpha1_closed_form(n: int, omega: float, eps_bar) -> float:
    """Closed form for the first correction coefficient.

    Standard shifted-expansion result in the scaled coefficients.  It
    seeds E2 inside delta1 and delta2 (see :func:`taylor_coefficients`)
    and is the independent cross-check of the series' alpha1.
    """
    e1, e2, e3, e4 = eps_bar
    return ((1 + 2 * n) * e2 + 3.0 * (1 + 2 * n + 2 * n * n) * e4
            - (e1 * e1 + 6.0 * (1 + 2 * n) * e1 * e3
               + (11 + 30 * n + 30 * n * n) * e3 * e3) / omega)


def correction_energies(r0: float, denominator: float, alpha1: float,
                        alpha2: float, lbar: float, mu: float, beta: float):
    """Second and third correction terms of the assembled eigenvalue.

    Matching the eigenvalue series order by order gives

        E2 = Q [alpha1 + beta (beta + 1)/(2 mu)] / (r0^2 D)
        E3 = Q  alpha2                           / (r0^2 D)

    with D = 1 + (E0 - V(r0))/eta from :func:`energy_denominator`, which
    is at least 1.  The centrifugal-shift constant beta(beta+1)/(2 mu)
    rides along with the series coefficient alpha1; without it the
    construction would lose its exactness for the nonrelativistic
    oscillator, where the two pieces cancel identically.  The returned
    terms are the assembled corrections E2/lbar^2 and E3/lbar^3 with Q
    identified as lbar^2.
    """
    first = alpha1 + beta * (beta + 1.0) / (2.0 * mu)
    scale = r0**2 * denominator
    return first / scale, alpha2 / (scale * lbar)


def solve(potential: PotentialModel, pair: ParticlePair,
          qn: QuantumNumbers) -> SletSolution:
    """Run the full shifted-l expansion pipeline for one (n, l) level."""
    n, l = qn.n, qn.l
    with _stage("fall_to_center"):
        fall_to_center_check(potential, pair, l)
    with _stage("solve_r0"):
        r0, (calls, iterations, root_count) = solve_r0(potential, pair, qn)
    geo = geometry_at(potential, pair, r0)
    stack = potential.derivatives(r0, MAX_DERIVATIVE_ORDER)
    beta, lbar = shift_and_lbar(pair, n, geo.omega, l)
    e0 = leading_energy(stack[0], pair, r0, geo.Q)
    denominator = energy_denominator(pair, r0, geo.Q)
    coeffs = taylor_coefficients(stack, pair, r0, geo.Q, beta, e0,
                                 geo.omega, n)
    series = pt.rspt_coefficients(pt.AnharmonicProblem(
        pair.mu, geo.omega, n, coeffs.eps, coeffs.delta))
    alpha1, alpha2 = series.c2, series.c4
    e2_term, e3_term = correction_energies(r0, denominator, alpha1, alpha2,
                                           lbar, pair.mu, beta)
    binding = e0 + e2_term + e3_term

    closed1 = alpha1_closed_form(n, geo.omega, coeffs.eps_bar)
    gap = math.sqrt(geo.Q) - lbar
    diag = SolveDiagnostics(
        r0_residual=2.0 * gap, r0_function_calls=calls,
        r0_iterations=iterations, r0_root_count=root_count,
        q_lbar_gap=abs(gap) / lbar,
        denominator_gap=abs(denominator - (1.0 + (e0 - stack[0]) / pair.eta)),
        alpha1_closed_form=closed1,
        alpha1_path_gap=(abs(alpha1 - closed1) / abs(alpha1)
                         if abs(alpha1) > 1e-12 else abs(alpha1 - closed1)))

    return SletSolution(
        n=n, l=l, r0=r0, omega=geo.omega, xi=geo.xi, Q=geo.Q, beta=beta,
        lbar=lbar, E0=e0, eps=coeffs.eps, delta=coeffs.delta,
        eps_bar=coeffs.eps_bar, delta_bar=coeffs.delta_bar,
        alpha1=alpha1, alpha2=alpha2, E2_term=e2_term, E3_term=e3_term,
        binding_energy=binding, mass=binding + pair.total_mass,
        diagnostics=diag)


@dataclass(frozen=True)
class CoulombClosedForm:
    """Closed-form S-wave quantities for the equal-mass Coulomb problem."""

    Q: float
    r0: float
    E0: float
    M: float


def coulomb_closed_form(m: float, alpha: float, n: int) -> CoulombClosedForm:
    """Closed-form S-wave solution for V = -alpha/r with equal masses m.

    Valid for alpha < 2n + 2, where the expansion point is real:

        Q  = (2n + 2)^2 / 4
        r0 = ((2n + 2)^2 / 2m) sqrt(1/alpha^2 - 1/(2n + 2)^2)
        E0 = 2m sqrt(1 - alpha^2/(2n + 2)^2) - 2m
    """
    if m <= 0.0 or alpha <= 0.0 or n < 0:
        raise ValueError("need m > 0, alpha > 0 and n >= 0")
    big_n = 2.0 * n + 2.0
    if alpha >= big_n:
        raise UnphysicalCouplingError(
            f"alpha = {alpha:g} >= 2n + 2 = {big_n:g} leaves no real "
            "expansion point")
    e0 = 2.0 * m * math.sqrt(1.0 - (alpha / big_n) ** 2) - 2.0 * m
    return CoulombClosedForm(
        Q=big_n**2 / 4.0,
        r0=big_n**2 / (2.0 * m) * math.sqrt(1.0 / alpha**2 - 1.0 / big_n**2),
        E0=e0,
        M=e0 + 2.0 * m,
    )


@dataclass(frozen=True)
class CoulombReference:
    """Known equal-mass Coulomb S-wave masses used for validation."""

    m: float
    exact_mass: float
    upper_bound_mass: float

    @property
    def exact_binding(self):
        return self.exact_mass - 2.0 * self.m


def coulomb_reference(m: float, alpha: float, n: int) -> CoulombReference:
    """Exact mass 2m / sqrt(1 + a^2) and variational bound 2m sqrt(1 - a^2).

    Here a = alpha / (2n + 2).  The bound expression coincides with the
    closed-form mass of :func:`coulomb_closed_form`.
    """
    if m <= 0.0 or alpha <= 0.0 or n < 0:
        raise ValueError("need m > 0, alpha > 0 and n >= 0")
    a = alpha / (2.0 * n + 2.0)
    if a >= 1.0:
        raise UnphysicalCouplingError(
            f"alpha = {alpha:g} >= 2n + 2 = {2 * n + 2:g}")
    return CoulombReference(
        m=m,
        exact_mass=2.0 * m / math.sqrt(1.0 + a * a),
        upper_bound_mass=2.0 * m * math.sqrt(1.0 - a * a),
    )
