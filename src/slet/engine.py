"""Shifted-l expansion solver for the reduced semi-relativistic radial problem.

The radial equation carries the relativistically corrected potential
gamma(r) = V - V^2/(2 eta) plus an energy-dependent coupling E V / eta.
Expanding around the point r0 where the leading effective potential is
extremal turns it into a perturbed oscillator h(lambda), lambda =
lbar^(-1/2), in the shifted angular momentum lbar = l - beta, with the
shift beta chosen so the first subleading energy term vanishes.  At
order j = 1..4 of h(lambda), with V and gamma at r0, the coefficient of
x^p is one of three families:

    p = j + 2:  (-1)^j (j + 3)/(2 mu)
                + r0^(j+4) [gamma^(j+2) + E0 V^(j+2)/eta] / ((j + 2)! Q)
    p = j:      (-1)^j (j + 1)(2 beta + 1)/(2 mu)
    p = j - 2:  (-1)^j (j - 1) beta (beta + 1)/(2 mu)
                + r0^j V^(j-2) E2 / (eta (j - 2)! Q),  for j >= 3 only

eps_p is the x^p coefficient of orders 1 and 2 and delta_p that of
orders 3 and 4, an odd power at the odd order.  E2 = Q [alpha1 + beta
(beta + 1)/(2 mu)] / (r0^2 D) takes the closed-form alpha1 of the eps,
which also checks the series' alpha1.  The pipeline is:

    r0 scan -> polish (solve_r0) -> at each root: stack V^(0..6),
    geometry (xi, Q, omega), E0 -> the root of lowest E0 -> beta, lbar
    -> eps1..4 -> closed-form alpha1 -> delta1..6
    -> hypervirial-Hellmann-Feynman series (alpha1, alpha2)
    -> E2, E3 -> binding energy and total mass

:func:`solve` runs it for one level.  :func:`solve_levels` runs it for
many levels of one potential and pair: the r0 scans of up to SCAN_CHUNK
levels are one array evaluation, and each level goes on from its own row
of it through :func:`solve`.
A nonrelativistic pair (eta = inf) runs through the same formulas.
Q is treated as a continuous function Q(r0) while iterating and is
identified with lbar^2 only at the converged point, where the root
equation makes sqrt(Q) = lbar hold automatically; :func:`solve` takes
the root residual from its one geometry evaluation there, and the
geometry, E0, the Taylor coefficients and the denominator check all read
the one stack, and E0 and the Taylor coefficients the one denominator D.
Input beyond double precision ends in an UnphysicalRegimeError labelled
solve_r0 or taylor_coefficients.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import perturbation as pt
from .errors import (
    BracketingError,
    ConvergenceError,
    MultipleRootsWarning,
    SletError,
    UnphysicalCouplingError,
    UnphysicalRegimeError,
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
# levels whose r0 scans solve_levels runs as one array evaluation; the
# chunk, not the number of levels, bounds the memory the scans take
SCAN_CHUNK = 32


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial quantum number n and orbital angular momentum l."""

    n: int
    l: int

    def __post_init__(self):
        if self.n < 0 or self.l < 0:
            raise ValueError("quantum numbers must be non-negative")


@dataclass(frozen=True)
class SolveDiagnostics:
    """Residuals and bookkeeping of one solve.

    ``reduction_parameter`` is D - 1 = (E0 - V(r0))/eta, with D from
    :func:`energy_denominator`; it is 0.0 for a nonrelativistic pair.
    """

    r0_residual: float
    r0_function_calls: int
    r0_root_count: int
    q_lbar_gap: float
    denominator_gap: float
    reduction_parameter: float
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


def geometry_at(d, pair: ParticlePair, r0):
    """(xi, Q, omega) at a trial expansion point from the stack d.

    d is V^(0..k)(r0) with k >= 2, as :meth:`PotentialModel.derivatives`
    returns it; only V' = d[1] and V'' = d[2] are read.  With s = r0
    V'(r0)/(2 eta) and w = sqrt(1 + s^2): xi = w/s, Q = mu r0^3 V' (s + w)
    and (mu omega)^2 = 3 + r0 V''/V' - 2s/(s + w).  At eta = inf, s = 0
    gives exactly Q = mu r0^3 V' and xi = inf.
    A radius is unusable where V'(r0) <= 0 or the squared frequency
    bracket is negative; there all three come out NaN, and nothing is
    raised.  r0 may be a scalar or an array: a scalar gives floats, an
    array gives arrays.  Both run the same arithmetic with floating-point
    warnings off, a scalar on np.float64 scalars with r0^3 on the 0-d
    array as in :meth:`PotentialModel.derivatives`, so each array element
    equals the scalar result at that radius, NaN included.
    """
    rr = np.asarray(r0, dtype=float)
    r = rr[()]
    v1, v2 = d[1], d[2]
    mu = pair.mu
    with np.errstate(all="ignore"):
        s = r * v1 / (2.0 * pair.eta)
        w = np.sqrt(1.0 + s * s)
        xi = w / s
        q = mu * rr**3 * v1 * (s + w)
        bracket = 3.0 + r * v2 / v1 - 2.0 * s / (s + w)
        omega = np.sqrt(bracket) / mu
    if rr.ndim == 0:
        if not v1 > 0.0 or bracket < 0.0:
            return math.nan, math.nan, math.nan
        return float(xi), float(q), float(omega)
    bad = ~(v1 > 0.0) | (bracket < 0.0)
    return tuple(np.where(bad, np.nan, v) for v in (xi, q, omega))


def shift_and_lbar(pair: ParticlePair, n: int, omega: float, l: int):
    """Shift beta = -1/2 - mu (n + 1/2) omega and lbar = l - beta."""
    beta = -0.5 - pair.mu * (n + 0.5) * omega
    return beta, l - beta


def leading_energy(v0: float, pair: ParticlePair, r0: float, Q: float,
                   D: float) -> float:
    """Leading eigenvalue E0 = v0 - eta + sqrt(eta^2 + eta Q/(mu r0^2)).

    v0 is V(r0) and D is :func:`energy_denominator` at (r0, Q).
    Evaluated in the cancellation-free form v0 + Q / (mu r0^2 (1 + D));
    at eta = inf, D = 1 gives the nonrelativistic v0 + Q / (2 mu r0^2).
    """
    return v0 + Q / (pair.mu * r0**2 * (1.0 + D))


def energy_denominator(pair: ParticlePair, r0: float, Q: float) -> float:
    """D = sqrt(1 + Q / (mu eta r0^2)) = 1 + (E0 - V(r0))/eta, >= 1."""
    return math.sqrt(1.0 + Q / (pair.mu * pair.eta * r0**2))


def r0_residual(potential: PotentialModel, pair: ParticlePair, n, l, r0):
    """Root function F(r0) = 2 (sqrt(Q(r0)) - lbar(r0)) of level (n, l).

    Equivalent to r0^2 V'(r0) sqrt(2 mu (1 + xi)/eta) minus
    1 + 2l + mu (2n + 1) omega; the root makes sqrt(Q) = lbar.  Scalar
    or array r0 as in :func:`geometry_at`, and NaN where that gives NaN.
    lbar is the only part of F that depends on the level; n and l
    broadcast against r0, so columns of them give each row its level.
    """
    _, q, omega = geometry_at(potential.derivatives(r0, 2), pair, r0)
    _, lbar = shift_and_lbar(pair, n, omega, l)
    value = 2.0 * (np.sqrt(q) - lbar)
    return value if value.ndim else float(value)


def bracketed_root(f, a, b, fa, fb, xtol, rtol, maxiter):
    """Root of f in [a, b] by Chandrupatla's method, from fa = f(a), fb = f(b).

    fa and fb must not share a sign.  Each step calls f once, at the
    inverse quadratic interpolant through the last three points where
    Chandrupatla's test accepts it and at the bracket's midpoint
    otherwise, at least half the tolerance inside the bracket
    (Chandrupatla, Adv. Eng. Softw. 28, 145 (1997)).  The caller's end
    values are taken instead of evaluating f at a and b again.  Converged
    once the bracket is within xtol + rtol |x|, x its end with the smaller
    |f|.  Returns (x, function_calls), the calls made here.  Raises
    ConvergenceError when f is NaN at a trial point or maxiter calls do
    not converge.
    """
    x1, x2, f1, f2 = float(a), float(b), float(fa), float(fb)
    t = 0.5
    for calls in range(maxiter + 1):
        x, fx = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
        tol = xtol + rtol * abs(x)
        if fx == 0.0 or abs(x2 - x1) < tol:
            return x, calls
        if calls == maxiter:
            break
        edge = 0.5 * tol / abs(x2 - x1)
        x = x1 + min(max(t, edge), 1.0 - edge) * (x2 - x1)
        fx = f(x)
        if math.isnan(fx):
            raise ConvergenceError(f"the function is NaN at x = {x:.15g}; "
                                   "Chandrupatla's method cannot continue")
        if (fx < 0.0) == (f1 < 0.0):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, fx
        xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
        t = (f1 / (f1 - f2) * f3 / (f3 - f2) + (x3 - x1) / (x2 - x1)
             * f1 / (f3 - f1) * f2 / (f3 - f2)
             if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi else 0.5)
    raise ConvergenceError(
        f"Chandrupatla's method did not converge in {maxiter} iterations "
        f"between {a:g} and {b:g}")


def _log_radii(lo, hi, points):
    r = np.exp(np.linspace(math.log(lo), math.log(hi), points))
    r[0], r[-1] = lo, hi
    return r


def log_scan(f, lo, hi, points):
    """(r, f(r)) on points radii evenly spaced in log r from lo to hi.

    The radii are the exp of a linspace in log r, with both ends set
    exactly.  hi may be a 1-D array of upper ends; then r has one row per
    end, made as for that end alone.  f is called once on the whole array
    with floating-point warnings off, and every value that is not finite
    comes back NaN.
    """
    r = (np.array([_log_radii(lo, end, points) for end in hi])
         if isinstance(hi, np.ndarray) else _log_radii(lo, hi, points))
    with np.errstate(all="ignore"):
        values = f(r)
    values[~np.isfinite(values)] = np.nan
    return r, values


def _r0_scan_range(potential: PotentialModel, pair: ParticlePair,
                   qn: QuantumNumbers):
    """(lo, hi) of the r0 scan; lo depends on the potential and pair alone."""
    scales = potential.length_scales(pair.mu) or (1.0,)
    lo = 1e-3 * min(scales)
    hi = 10.0 * (2 * qn.n + qn.l + 2) ** 2 * max(scales)
    if not 0.0 < lo < hi < math.inf:
        raise UnphysicalRegimeError(
            f"the r0 scan bracket [{lo:g}, {hi:g}] is not finite")
    return lo, hi


def solve_r0(potential: PotentialModel, pair: ParticlePair,
             qn: QuantumNumbers, scan=None):
    """Roots of the expansion-point equation as (roots, function_calls).

    :func:`log_scan` evaluates :func:`r0_residual` at the ends of
    R0_SCAN_PANELS logarithmic panels from 1e-3 times the smallest to
    10 (2n + l + 2)^2 times the largest of the potential's length scales;
    the upper end stays above the Coulomb orbit radius, which grows as
    (n + l + 1)^2 Bohr radii.  A bracket that is not finite raises
    UnphysicalRegimeError.  scan, when given, is the (radii, residuals)
    that scan gives, made by :func:`solve_levels` together with other
    levels.  Scan points where the residual is NaN, at
    radii :func:`geometry_at` finds unusable or where the arithmetic
    overflows, are skipped.  Every sign change is polished by
    :func:`bracketed_root` from the two scan values around it, to
    R0_TOLERANCE relative in at most R0_MAX_ITERATIONS iterations.
    A panel with one NaN end and F > 0 at the other is bisected on
    finiteness to R0_TOLERANCE relative of the unusable stretch's edge;
    if F is negative there, as beside a stretch where V' <= 0 (F -> -inf
    as V' -> 0+, where omega diverges), that bracket is polished too.  An
    edge where the frequency bracket closes (omega -> 0) leaves F finite,
    of either sign, and is no bracket end.  A polish that fails, also by
    an iterate landing on an unusable radius, raises BracketingError
    naming the panel and that radius, as does a scan without a root.  The
    roots ascend, each more than 1e-9 relative above the one before, so
    two panels give a root once; :func:`solve` chooses among them.
    ``function_calls`` counts every evaluation of the root function: the
    scan points, the bisection steps and the polish calls, which do not
    evaluate the ends of their brackets again.
    """
    def residual(r):
        return r0_residual(potential, pair, qn.n, qn.l, r)

    lo, hi = _r0_scan_range(potential, pair, qn)
    if scan is None:
        scan = log_scan(residual, lo, hi, R0_SCAN_PANELS + 1)
    grid, values = scan

    roots = [float(r) for r in grid[values == 0.0]]
    calls = grid.size
    # (panel, a, F(a), b, F(b)) of every bracket to polish
    brackets = [(i, grid[i], values[i], grid[i + 1], values[i + 1])
                for i in np.flatnonzero(values[:-1] * values[1:] < 0.0)]
    unusable = np.isnan(values)
    if np.count_nonzero(unusable):
        for i in np.flatnonzero(unusable[:-1] != unusable[1:]):
            # j the panel's finite end, k its unusable one
            j, k = (i + 1, i) if unusable[i] else (i, i + 1)
            if values[j] <= 0.0:
                continue
            usable, edge, f_usable = grid[j], grid[k], values[j]
            with np.errstate(all="ignore"):
                while abs(edge - usable) > R0_TOLERANCE * usable:
                    mid = 0.5 * (usable + edge)
                    f_mid = residual(mid)
                    calls += 1
                    if math.isfinite(f_mid):
                        usable, f_usable = mid, f_mid
                    else:
                        edge = mid
            if f_usable < 0.0:
                brackets.append((i, usable, f_usable, grid[j], values[j]))
    for i, a, fa, b, fb in brackets:
        try:
            root, polish_calls = bracketed_root(
                residual, a, b, fa, fb, 1e-300, R0_TOLERANCE,
                R0_MAX_ITERATIONS)
        except ConvergenceError as exc:
            raise BracketingError(
                f"root polish failed in panel [{grid[i]:g}, "
                f"{grid[i + 1]:g}]: {exc}") from None
        calls += polish_calls
        roots.append(root)

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
    return unique, calls


def taylor_coefficients(d, pair: ParticlePair, r0: float, Q: float,
                        D: float, beta: float, E0: float, omega: float,
                        n: int):
    """(eps, delta, eps_bar, delta_bar, alpha1) of level n at r0.

    The families of the module docstring over j = 1..4, from the stack d
    = V^(0..6)(r0); the bars divide a coefficient of x^p by (2 mu
    omega)^(p/2).  alpha1 is :func:`alpha1_closed_form` of eps_bar, and
    D is :func:`energy_denominator`'s.
    """
    inv_eta, two_mu = 1.0 / pair.eta, 2.0 * pair.mu

    def by_power(orders, e2=None):
        c = [0.0] * (orders[-1] + 3)  # c[p] multiplies x^p, p >= 1
        for j in orders:
            sign = (-1) ** j
            c[j] = sign * (j + 1) * (2.0 * beta + 1.0) / two_mu
            c[j + 2] = (sign * (j + 3) / two_mu
                        + r0 ** (j + 4) / (math.factorial(j + 2) * Q)
                        * (gamma_from_stack(d, pair.eta, j + 2)
                           + d[j + 2] * E0 * inv_eta))
            if j > 2:
                c[j - 2] = (sign * (j - 1) * beta * (beta + 1.0) / two_mu
                            + r0**j * d[j - 2] * e2 * inv_eta
                            / (math.factorial(j - 2) * Q))
        plain = tuple(c[1:])
        return plain, tuple([v / (two_mu * omega) ** (p / 2.0)
                             for p, v in enumerate(plain, 1)])

    eps, eps_bar = by_power((1, 2))
    alpha1 = alpha1_closed_form(n, omega, eps_bar)
    e2 = Q * (alpha1 + beta * (beta + 1.0) / two_mu) / (r0**2 * D)
    delta, delta_bar = by_power((3, 4), e2)
    return eps, delta, eps_bar, delta_bar, alpha1


def alpha1_closed_form(n: int, omega: float, eps_bar) -> float:
    """alpha1 in the scaled eps, the standard shifted-expansion result."""
    e1, e2, e3, e4 = eps_bar
    return ((1 + 2 * n) * e2 + 3.0 * (1 + 2 * n + 2 * n * n) * e4
            - (e1 * e1 + 6.0 * (1 + 2 * n) * e1 * e3
               + (11 + 30 * n + 30 * n * n) * e3 * e3) / omega)


def solve(potential: PotentialModel, pair: ParticlePair,
          qn: QuantumNumbers, scan=None) -> SletSolution:
    """Run the full shifted-l expansion pipeline for one (n, l) level.

    scan is the level's r0 scan when :func:`solve_levels` has made it;
    see :func:`solve_r0`.  Of several roots of the r0 equation, the one
    with the lowest E0 is expanded, and a MultipleRootsWarning names it.
    """
    n, l = qn.n, qn.l
    with _stage("fall_to_center"):
        fall_to_center_check(potential, pair, l)
    with _stage("solve_r0"):
        roots, calls = solve_r0(potential, pair, qn, scan)
    heads = []
    for r in roots:
        with np.errstate(all="ignore"):
            stack = potential.derivatives(r, MAX_DERIVATIVE_ORDER)
        xi, q, omega = geometry_at(stack, pair, r)
        denominator = energy_denominator(pair, r, q)
        heads.append((leading_energy(stack[0], pair, r, q, denominator), r,
                      stack, xi, q, omega, denominator))
    e0, r0, stack, xi, q, omega, denominator = heads[
        int(np.argmin([head[0] for head in heads]))]
    if len(roots) > 1:
        warnings.warn(
            f"{len(roots)} expansion points satisfy the root equation; "
            f"keeping the one with the lowest leading energy (r0 = "
            f"{r0:g})", MultipleRootsWarning)
    beta, lbar = shift_and_lbar(pair, n, omega, l)
    with _stage("taylor_coefficients"):
        try:
            eps, delta, eps_bar, delta_bar, closed1 = taylor_coefficients(
                stack, pair, r0, q, denominator, beta, e0, omega, n)
        except OverflowError:
            raise UnphysicalRegimeError(
                f"r0 = {r0:g} is too large for the expansion: a power of "
                "r0 overflows") from None
        if not all(math.isfinite(c) for c in (*eps, *delta)):
            raise UnphysicalRegimeError(
                f"r0 = {r0:g} is out of the expansion's range: a Taylor "
                "coefficient is not finite")
    alpha1, alpha2 = pt.rspt_coefficients(pair.mu, omega, n, eps, delta)
    # E2 = Q [alpha1 + beta (beta + 1)/(2 mu)] / (r0^2 D) and E3 = Q alpha2
    # / (r0^2 D), taken as E2/lbar^2 and E3/lbar^3 with Q = lbar^2.  The
    # shift constant rides with alpha1, or the nonrelativistic oscillator,
    # where the two cancel identically, would lose its exactness.
    scale = r0**2 * denominator
    e2_term = (alpha1 + beta * (beta + 1.0) / (2.0 * pair.mu)) / scale
    e3_term = alpha2 / (scale * lbar)
    binding = e0 + e2_term + e3_term

    gap = math.sqrt(q) - lbar
    diag = SolveDiagnostics(
        r0_residual=2.0 * gap, r0_function_calls=calls,
        r0_root_count=len(roots),
        q_lbar_gap=abs(gap) / lbar,
        denominator_gap=abs(denominator - (1.0 + (e0 - stack[0]) / pair.eta)),
        reduction_parameter=denominator - 1.0,
        alpha1_closed_form=closed1,
        alpha1_path_gap=(abs(alpha1 - closed1) / abs(alpha1)
                         if abs(alpha1) > 1e-12 else abs(alpha1 - closed1)))

    return SletSolution(
        n=n, l=l, r0=r0, omega=omega, xi=xi, Q=q, beta=beta, lbar=lbar,
        E0=e0, eps=eps, delta=delta, eps_bar=eps_bar, delta_bar=delta_bar,
        alpha1=alpha1, alpha2=alpha2, E2_term=e2_term, E3_term=e3_term,
        binding_energy=binding, mass=binding + pair.total_mass,
        diagnostics=diag)


def solve_levels(potential: PotentialModel, pair: ParticlePair, levels):
    """Yield, in order, each level's SletSolution or the SletError that
    ended it, for the sequence levels of QuantumNumbers.

    Q, omega and the derivative stack of the r0 scan do not depend on
    (n, l), so up to SCAN_CHUNK levels at a time share one scan: the
    radii of each level's own scan, one row per level, evaluated by one
    :func:`r0_residual` call with columns of n and l.  Each level then
    runs :func:`solve` on its row, so its polish, warnings, errors and
    diagnostics are those of solving it alone.  A level whose scan range
    is refused, or the only one of its chunk with a range, scans inside
    :func:`solve`, which also raises any refusal as it would for that
    level alone.
    """
    for start in range(0, len(levels), SCAN_CHUNK):
        chunk = levels[start:start + SCAN_CHUNK]
        ranges = {}
        for i, qn in enumerate(chunk):
            try:
                ranges[i] = _r0_scan_range(potential, pair, qn)
            except (UnphysicalRegimeError, ValueError):
                pass  # solve meets it again, after its own checks
        scans = [None] * len(chunk)
        if len(ranges) > 1:
            n, l = np.array([(chunk[i].n, chunk[i].l)
                             for i in ranges]).T[..., None]
            lows, ends = zip(*ranges.values())  # every level has the same lo
            grid, values = log_scan(
                lambda r: r0_residual(potential, pair, n, l, r), lows[0],
                np.array(ends), R0_SCAN_PANELS + 1)
            for i, row in zip(ranges, zip(grid, values)):
                scans[i] = row
        for qn, scan in zip(chunk, scans):
            try:
                yield solve(potential, pair, qn, scan)
            except SletError as exc:
                yield exc


def coulomb_closed_form(m: float, alpha: float, n: int):
    """Closed-form S-wave (Q, r0, E0) for V = -alpha/r with equal masses m.

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
    return (big_n**2 / 4.0,
            big_n**2 / (2.0 * m) * math.sqrt(1.0 / alpha**2 - 1.0 / big_n**2),
            2.0 * m * math.sqrt(1.0 - (alpha / big_n) ** 2) - 2.0 * m)
