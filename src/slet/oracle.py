"""Independent grid eigenvalue solver for the reduced radial equation.

The equation being solved is nonlinear in the energy: the operator

    H(E) = -(1/2 mu) d^2/dr^2 + l(l+1)/(2 mu r^2) + gamma(r) + E V(r)/eta

must reproduce its own trial energy through lambda_n(E) = E + E^2/(2 eta),
where lambda_n is the (n+1)-th smallest eigenvalue.  On three-point
finite differences with Dirichlet ends that is T(E) psi = 0 for the
symmetric tridiagonal T(E) = H(E) - (E + E^2/(2 eta)) I, which depends on
E only through its diagonal.  The solver finds (E, psi) by nonlinear
Rayleigh-quotient iteration (Ruhe, SIAM J. Numer. Anal. 10, 674 (1973)),
one tridiagonal solve per step; with eta infinite it is Rayleigh-quotient
iteration.  Every pass but the last settles on a coarse grid over its
own span; the last alone runs on the full grid, from the coarse
vector.  A level is accepted
only with exactly n nodes, which by Sturm's oscillation theorem singles
out level n, and LAPACK's Sturm-sequence bisection, which indexes levels
exactly, supplies the start where a pass has none or its refinement is
rejected.  The default box is sized from the potential's length scales
and, for potentials that do not confine, from the level.

For Coulomb-type potentials the -V^2/(2 eta) piece of gamma adds an
attractive inverse-square core; :func:`~slet.potentials.fall_to_center_check`
refuses configurations whose effective strength drops below the -1/4
stability bound, since their discrete spectrum is not bounded below
under grid refinement.

With a nonrelativistic pair (eta infinite) the operator loses its energy
dependence and the solve reduces to the nonrelativistic estimate alone,
settled on the coarse grid and then on the full one, which is how the
exact box / oscillator / Coulomb checks are run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv, dstebz, dstein

from .engine import QuantumNumbers, bracketed_root, log_scan
from .errors import (
    ConvergenceError,
    LevelIdentificationError,
    ResolutionWarning,
    UnphysicalRegimeError,
    WindowError,
)
from .potentials import ParticlePair, PotentialModel, fall_to_center_check

DEFAULT_POINT_COUNT = 4000
DEFAULT_R_MIN = 1e-4
R_MAX_SCALE_FACTOR = 40.0

# For a confining V with finite eta the -V^2/(2 eta) piece turns the
# effective potential over at large r, so bound levels are really
# resonances behind a barrier (forbidden band between V = E and
# V = 2 eta + E).  The outer Dirichlet wall goes at the band's outer
# edge, found self-consistently; the first pass seeds the level energy
# with this fraction of the nonrelativistic estimate (relativistic
# values sit below it).
FIRST_PASS_ENERGY_FRACTION = 0.7

# eigenvector entries below this fraction of the largest carry no node
NODE_THRESHOLD = 1e-8
# a refinement has settled once its residual |T(E) psi| is below this
# many machine epsilons times the row-sum norm of T(E); rounding alone
# leaves less than one
REFINEMENT_RESIDUAL = 8.0
# tridiagonal solves tried from a start vector before it is rejected
MAX_REFINEMENT_STEPS = 8
# points of the coarse grid on which the nonrelativistic estimate and
# the first wall pass settle; the last pass alone runs on the full grid,
# from the coarse eigenvector.  The coarse energies set the window, the
# start energy and both walls, so changing this count moves the
# returned levels, not only the time they take
COARSE_POINT_COUNT = 1000
# absolute tolerance of LAPACK's bisection; the smallest positive value
# runs it to rounding level instead of its default eps * |T|
BISECTION_TOLERANCE = np.finfo(float).tiny
# a bisected eigenvector only starts a refinement, so the bisection
# stops at this fraction of the operator's row-sum norm; an absolute
# 1e-4 GeV is coarser than the level spacing of light Coulomb levels
SEED_TOLERANCE = 1e-6
# points of the log-spaced scan on which escape_radius brackets its root
ESCAPE_BRACKET_POINTS = 64


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid with Dirichlet endpoints.

    The wavefunction is represented on ``point_count`` interior points;
    r_min and r_max themselves carry R = 0.
    """

    r_min: float
    r_max: float
    point_count: int

    def __post_init__(self):
        if not 0.0 < self.r_min < self.r_max < math.inf:
            raise ValueError(f"need 0 < r_min < r_max < inf, got r_min = "
                             f"{self.r_min!r}, r_max = {self.r_max!r}")
        if self.point_count < 500:
            raise ValueError("point_count must be at least 500")

    @property
    def h(self) -> float:
        return (self.r_max - self.r_min) / (self.point_count + 1)

    @property
    def points(self) -> np.ndarray:
        return self.r_min + self.h * np.arange(1, self.point_count + 1)


def _is_confining(potential) -> bool:
    return any(c > 0.0 and p > 0.0 for c, p in potential.terms)


def default_grid(potential: PotentialModel, pair: ParticlePair,
                 qn: QuantumNumbers,
                 point_count: int | None = None,
                 r_max: float | None = None) -> RadialGrid:
    """Grid sized from the potential's own length scales and the level.

    Each of point_count and r_max left at None is filled in: the point
    count with DEFAULT_POINT_COUNT, and r_max with 40 times the largest
    of :meth:`PotentialModel.length_scales` and 1/GeV.  Excited levels of
    a potential that does not confine reach further out, so there that
    r_max is multiplied by n + l + 1 of the level qn; ground levels, and
    every level of a confining potential, keep the plain scale.
    """
    if r_max is None:
        scales = potential.length_scales(pair.mu)
        r_max = R_MAX_SCALE_FACTOR * max((1.0, *scales))
        if not _is_confining(potential):
            r_max *= qn.n + qn.l + 1
    return RadialGrid(DEFAULT_R_MIN, r_max,
                      DEFAULT_POINT_COUNT if point_count is None
                      else point_count)


class GridOperator:
    """Symmetric tridiagonal discretization of H(E) on one grid.

    The potential, the -V^2/(2 eta) and centrifugal terms and the
    off-diagonal do not depend on the trial energy, so they are built
    once; calling the operator at a trial energy adds E V/eta and returns
    (diagonal, off-diagonal) for the three-point stencil with Dirichlet
    ends.  Raises UnphysicalRegimeError, naming the innermost such
    radius, when V or gamma = V - V^2/(2 eta) is not finite on the grid.
    """

    def __init__(self, potential: PotentialModel, pair: ParticlePair, l: int,
                 grid: RadialGrid):
        r = grid.points
        self.grid = grid
        self.eta = pair.eta
        with np.errstate(all="ignore"):
            self.v = potential.evaluate(r)
            self.static = self.v - self.v * self.v / (2.0 * self.eta)
        finite = np.isfinite(self.static)  # false wherever V is not finite
        if not finite.all():
            i = int(np.argmin(finite))
            raise UnphysicalRegimeError(
                f"the potential is not finite on the grid: V = "
                f"{self.v[i]:g} and gamma = V - V^2/(2 eta) = "
                f"{self.static[i]:g} at r = {r[i]:g}")
        self.centrifugal = l * (l + 1) / (2.0 * pair.mu * r * r)
        self.inv_h2 = 1.0 / (pair.mu * grid.h**2)
        self.off = np.full(grid.point_count - 1, -0.5 * self.inv_h2)

    def effective_potential(self, e_trial: float) -> np.ndarray:
        """Diagonal of H(e_trial) without the kinetic term."""
        return self.static + e_trial * self.v / self.eta + self.centrifugal

    def __call__(self, e_trial: float):
        return self.inv_h2 + self.effective_potential(e_trial), self.off


def effective_operator(potential: PotentialModel, pair: ParticlePair, l: int,
                       e_trial: float, grid: RadialGrid):
    """(diagonal, off-diagonal) of H(e_trial); see :class:`GridOperator`."""
    return GridOperator(potential, pair, l, grid)(e_trial)


def nth_eigenvalue(diag: np.ndarray, off: np.ndarray, n: int) -> float:
    """(n+1)-th smallest eigenvalue by bisection; see :func:`nth_eigenpair`."""
    return nth_eigenpair(diag, off, n)[0]


def nth_eigenpair(diag: np.ndarray, off: np.ndarray, n: int,
                  tol: float = BISECTION_TOLERANCE):
    """(n+1)-th smallest eigenvalue and unit eigenvector (sign arbitrary).

    LAPACK's Sturm-sequence bisection (dstebz) indexes the level exactly;
    it runs to the absolute tolerance tol, by default BISECTION_TOLERANCE
    (full precision).  Inverse iteration (dstein) then forms the
    eigenvector.  A diagonal or off-diagonal that is not finite raises
    ValueError.  Raises ConvergenceError when LAPACK cannot form the
    eigenvector.
    """
    if n >= diag.size:
        raise ValueError("eigenvalue index exceeds matrix size")
    diag, off = np.asarray_chkfinite(diag), np.asarray_chkfinite(off)
    found, vals, block, split, info = dstebz(diag, off, 2, 0.0, 1.0, n + 1,
                                             n + 1, tol, "B")
    if info == 0:
        vecs, info = dstein(diag, off, vals[:found], block, split)
    if info != 0:
        raise ConvergenceError(f"LAPACK did not form the eigenvector of "
                               f"level n = {n} (info {info})")
    return float(vals[0]), vecs[:, 0]


def _refine(diag, off, n, start, coupling, eta):
    """Nonlinear Rayleigh-quotient iteration for T(E) psi = 0 from start.

    T(E) = H(0) + E diag(coupling) - (E + E^2/(2 eta)) I with H(0) =
    (diag, off) and coupling = V/eta, zero for eta infinite.  Each step
    takes E as the root of psi^T T(E) psi = a + b E - E^2/(2 eta) for the
    unit iterate psi, a = psi^T H(0) psi and b = <coupling> - 1:
    E = 2 a / (sqrt(b^2 + 2 a/eta) - b), free of cancellation for b < 0
    and equal to a for eta infinite.  a is summed in gradient form,
    sum (d_i + o_{i-1} + o_i) psi_i^2 - sum o_i (psi_{i+1} - psi_i)^2,
    since psi^T diag psi + 2 psi^T off psi cancels terms the size of the
    kinetic diagonal.  The iteration settles once |T(E) psi| is at most
    REFINEMENT_RESIDUAL machine epsilons times the row-sum norm of T(E);
    otherwise it solves T(E) y = T'(E) psi, T'(E) = diag(coupling - 1 -
    E/eta), with LAPACK's dgtsv, and converges locally cubically.
    Returns (E, psi, |T(E) psi|, solves, failure); failure is None for a
    settled psi with n nodes, otherwise the SletError that rejects it.
    """
    weights = diag.copy()
    weights[:-1] += off
    weights[1:] += off
    tolerance = REFINEMENT_RESIDUAL * np.finfo(float).eps
    off_norm = 2.0 * float(np.max(np.abs(off)))
    singular = ConvergenceError(
        "a tridiagonal solve of the refinement is singular or not finite")
    vec, solves = start, 0
    while True:
        with np.errstate(over="ignore"):
            norm = math.sqrt(float(vec @ vec))
        if not 0.0 < norm < math.inf:
            return math.nan, vec, math.inf, solves, singular
        vec = vec / norm
        weight = vec * vec
        grad = vec[1:] - vec[:-1]
        a = float(weight @ weights) - float(off @ (grad * grad))
        b = float(weight @ coupling) - 1.0
        discriminant = b * b + 2.0 * a / eta
        if discriminant < 0.0:
            return math.nan, vec, math.inf, solves, ConvergenceError(
                "the Rayleigh functional has no real root")
        energy = 2.0 * a / (math.sqrt(discriminant) - b)
        shifted = diag - (energy + energy * energy / (2.0 * eta))
        shifted += energy * coupling
        applied = shifted * vec
        applied[:-1] += off * vec[1:]
        applied[1:] += off * vec[:-1]
        residual = math.sqrt(float(applied @ applied))
        if residual <= tolerance * (float(np.max(np.abs(shifted)))
                                    + off_norm):
            nodes = count_nodes(vec)
            return energy, vec, residual, solves, (
                None if nodes == n else LevelIdentificationError(
                    f"refined eigenvector has {nodes} nodes, expected {n}"))
        if solves == MAX_REFINEMENT_STEPS:
            return energy, vec, residual, solves, ConvergenceError(
                f"refinement did not settle in {solves} tridiagonal "
                f"solves; residual {residual:g}")
        slope = -1.0 - energy / eta
        rhs = vec * (coupling + slope)
        *_, vec, info = dgtsv(off, shifted, off, rhs, overwrite_d=1,
                              overwrite_b=1)
        solves += 1
        if info != 0:
            return energy, vec, residual, solves, singular


def _row_sum_norm(diag, off) -> float:
    """Upper bound on the row-sum norm of the tridiagonal matrix."""
    return float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(off)))


def count_nodes(vec: np.ndarray) -> int:
    """Interior sign changes, ignoring entries below NODE_THRESHOLD * max."""
    cut = NODE_THRESHOLD * float(np.max(np.abs(vec)))
    sig = vec[np.abs(vec) > cut]
    return int(np.sum(sig[:-1] * sig[1:] < 0.0))


@dataclass
class OracleSolution:
    """Self-consistent eigenvalue with its wavefunction and diagnostics.

    outer_iterations counts the nonrelativistic estimate as one, then
    the tridiagonal solves and the bisections of the last pass, the one
    on the solution's grid, for an eta-infinite pair too.  residual is
    |T(E) psi| in GeV for the unit eigenvector, at most
    REFINEMENT_RESIDUAL machine epsilons times the row-sum norm of T(E).
    bisection_solves counts the restarts of the last pass from LAPACK
    bisection (passes on the coarse grid are not counted).  On grids
    finer than COARSE_POINT_COUNT it is 0 unless a refinement was
    rejected; on a coarser grid the estimate is the last pass of an
    eta-infinite pair, and it starts from bisection.
    """

    binding_energy: float
    mass: float
    wavefunction: np.ndarray = field(repr=False)
    grid: RadialGrid = field(repr=False)
    outer_iterations: int = 0
    residual: float = 0.0
    bisection_solves: int = 0


def escape_radius(potential: PotentialModel, pair: ParticlePair,
                  energy: float, search_hi: float) -> float | None:
    """Radius where V(r) = 2 eta + max(energy, 0).

    For a confining V with finite eta the effective potential of the
    reduced problem turns over and re-crosses a level's energy where
    V = 2 eta + E.  A Dirichlet wall placed there keeps the whole
    classically forbidden barrier inside the box while perturbing the
    quasi-bound state the least, so it is where the default grid ends.
    One :func:`~slet.engine.log_scan` of V over ESCAPE_BRACKET_POINTS
    radii from 1e-3 to search_hi brackets the innermost crossing, and
    :func:`~slet.engine.bracketed_root` finds it inside that one panel
    from the two values around it, to xtol 2e-12 and rtol 1e-10 in at
    most 100 iterations, or ConvergenceError.  Returns None when the
    target value is never reached: when the scan starts at or above it,
    stays below it, or is NaN just before it first exceeds it.
    """
    target = 2.0 * pair.eta + max(energy, 0.0)

    def f(x):
        return potential.evaluate(x) - target

    r, values = log_scan(f, 1e-3, search_hi, ESCAPE_BRACKET_POINTS)
    i = int(np.argmax(values > 0.0))  # 0 when no value exceeds the target
    if i == 0 or values[0] >= 0.0 or math.isnan(values[i - 1]):
        return None
    root, _ = bracketed_root(f, r[i - 1], r[i], values[i - 1], values[i],
                             2e-12, 1e-10, 100)
    return root


def _settle(operator, n, window, energy, start):
    """One pass: the level-n solution of T(E) psi = 0 on operator's grid.

    Refines start (see :func:`_refine`); a start that does not settle on
    n nodes, or is None, is replaced once by the level-n eigenvector of
    H(energy), the pass's start energy, from bisection stopped at
    SEED_TOLERANCE times the operator's row-sum norm, since the
    refinement finishes whatever vector it gets.  Returns (energy,
    |T(E) psi|, psi, tridiagonal solves, bisections).  Raises the second
    refinement's failure, and WindowError, naming the window, when the
    settled energy lies outside it.
    """
    diag, off = operator(0.0)
    coupling = operator.v / operator.eta
    solves = bisections = 0
    while True:
        if start is None:
            matrix = operator(energy)
            _, start = nth_eigenpair(
                *matrix, n, SEED_TOLERANCE * _row_sum_norm(*matrix))
            bisections += 1
        level, vec, residual, steps, failure = _refine(
            diag, off, n, start, coupling, operator.eta)
        solves += steps
        if failure is None:
            break
        if bisections:
            raise failure
        start = None
    lo, hi = window
    if not lo <= level <= hi:
        raise WindowError(f"level n = {n} settled at {level:g}, outside the "
                          f"energy window [{lo:g}, {hi:g}]")
    return level, residual, vec, solves, bisections


def _solution(potential, pair, qn, operator, energy, vec, evaluations,
              residual, bisections, level_box):
    """Check the converged level on operator's grid and package the result.

    Warns when the grid resolves the local wave number at the energy with
    fewer than roughly a dozen points per oscillation (the singular
    region next to r_min excluded), and turns the eigenvector's first
    sizable lobe up.
    """
    grid = operator.grid
    if level_box and not _is_confining(potential) and energy >= 0.0:
        raise LevelIdentificationError(
            f"level ({qn.n},{qn.l}) converged to the unbound energy "
            f"{energy:g}; the box r_max = {grid.r_max:g} cannot hold it")
    veff = operator.effective_potential(energy)
    kinetic = (energy + energy**2 / (2.0 * pair.eta)
               - float(np.min(veff[grid.point_count // 100:])))
    if kinetic > 0.0 and math.sqrt(2.0 * pair.mu * kinetic) * grid.h > 0.5:
        warnings.warn(
            f"grid spacing h = {grid.h:g} resolves the energy {energy:g} "
            "poorly; refine the grid", ResolutionWarning)
    big = np.nonzero(np.abs(vec) > NODE_THRESHOLD * np.max(np.abs(vec)))[0]
    if vec[big[0]] < 0.0:
        vec = -vec
    norm = math.sqrt(grid.h * float(np.sum(vec * vec)))
    return OracleSolution(binding_energy=energy, mass=energy + pair.total_mass,
                          wavefunction=vec / norm, grid=grid,
                          outer_iterations=evaluations, residual=residual,
                          bisection_solves=bisections)


def solve_selfconsistent(potential: PotentialModel, pair: ParticlePair,
                         qn: QuantumNumbers,
                         grid: RadialGrid | None = None) -> OracleSolution:
    """Solve the energy-nonlinear eigenvalue problem for level (n, l).

    Solves T(E) psi = 0 by nonlinear Rayleigh-quotient iteration (see
    :func:`_refine`) inside a physically bounded energy window.  The
    window is computed here, not passed: it runs from -1.8 (m1 + m2),
    clipped above -eta where the right-hand side stops being monotone, up
    to 50 times the nonrelativistic estimate e_nr; for relativistic
    confining problems it starts just below the estimate.
    A level that settles outside it fails.

    When no grid is given, a level-sized one is built (see
    :func:`default_grid`).  For relativistic confining potentials the
    wall of either grid is moved in, never past r_max, to the escape
    radius of the turned-over effective potential at
    FIRST_PASS_ENERGY_FRACTION of the estimate, and the last pass runs
    with the wall re-placed at the first pass's energy (see
    :func:`escape_radius`), starting from the first pass's eigenvector
    carried over to the new grid.  Levels of such problems are
    quasi-bound, and this wall placement is what defines their reported
    position.

    Every pass refines a start vector (see :func:`_settle`), and only
    the last runs on the full grid.  The estimate settles at window
    (-inf, inf) from the bisected level-n eigenvector of the
    nonrelativistic operator on COARSE_POINT_COUNT points over the base
    grid's span, the level's one cold eigensolve.  Its energy e_nr sets
    the window and the first wall, and its eigenvector starts the first
    wall pass, on COARSE_POINT_COUNT points over the first wall's span
    (the base grid's when there is none); a first wall pass that rejects
    it restarts by bisecting H(e_nr).  The last
    pass, the estimate's own for an eta-infinite pair, settles on the
    full grid from the coarse eigenvector.  A grid of at most
    COARSE_POINT_COUNT points is its own coarse grid, and a pass is not
    repeated on a grid its vector already settled on.

    Raises WindowError, whose message names the window, when a pass
    settles outside it, ConvergenceError when a restarted pass does not
    settle or LAPACK cannot form its bisected start vector, and
    LevelIdentificationError, before any solve, when n is not
    below the coarse grid's point count, or when a pass settles on a node
    count other than n or, for a non-confining potential in a box with
    the level-sized r_max of :func:`default_grid`, whatever its point
    count, the energy lies in the continuum.  A returned level whose
    energy the grid resolves poorly issues one ResolutionWarning (see
    :func:`_solution`).
    """
    fall_to_center_check(potential, pair, qn.l)
    level_sized = default_grid(potential, pair, qn)
    base = level_sized if grid is None else grid
    coarse = (base if base.point_count <= COARSE_POINT_COUNT else
              RadialGrid(base.r_min, base.r_max, COARSE_POINT_COUNT))
    if qn.n >= coarse.point_count:
        raise LevelIdentificationError(
            f"level n = {qn.n} does not exist on the {coarse.point_count} "
            f"points of the coarse grid, which hold n < {coarse.point_count}")

    operator = GridOperator(potential, pair.as_nonrelativistic(), qn.l,
                            coarse)
    energy, residual, vec, solves, bisections = _settle(
        operator, qn.n, (-math.inf, math.inf), 0.0, None)
    window, final = (-math.inf, math.inf), base
    if not math.isinf(pair.eta):
        e_nr = energy
        quasi_bound = _is_confining(potential)
        if quasi_bound:
            lo = min(0.6 * e_nr, 1.4 * e_nr) - 0.05
        else:
            lo = max(-1.8 * pair.total_mass, -pair.eta * (1.0 - 1e-9))
        window = lo, 50.0 * max(abs(e_nr), 0.02)

        first = coarse
        if quasi_bound:
            wall = escape_radius(potential, pair,
                                 FIRST_PASS_ENERGY_FRACTION * e_nr,
                                 10.0 * base.r_max)
            if wall is not None and wall < base.r_max:
                first = RadialGrid(base.r_min, wall, coarse.point_count)
                final = RadialGrid(base.r_min, wall, base.point_count)
        start = np.interp(first.points, coarse.points, vec)
        operator = GridOperator(potential, pair, qn.l, first)
        energy, residual, vec, solves, bisections = _settle(
            operator, qn.n, window, energy, start)
        if first is not coarse:
            wall = escape_radius(potential, pair, energy, 10.0 * base.r_max)
            if wall is not None:
                final = RadialGrid(base.r_min, min(wall, base.r_max),
                                   base.point_count)

    if final != operator.grid:
        # the last pass's eigenvector, with nothing beyond its wall
        start = np.interp(final.points, operator.grid.points, vec, right=0.0)
        operator = GridOperator(potential, pair, qn.l, final)
        energy, residual, vec, solves, bisections = _settle(
            operator, qn.n, window, energy, start)
    return _solution(potential, pair, qn, operator, energy, vec,
                     1 + solves + bisections, residual, bisections,
                     base.r_max == level_sized.r_max)
