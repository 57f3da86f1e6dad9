"""Independent grid eigenvalue solver for the reduced radial equation.

The equation being solved is nonlinear in the energy: the operator

    H(E) = -(1/2 mu) d^2/dr^2 + l(l+1)/(2 mu r^2) + gamma(r) + E V(r)/eta

must reproduce its own trial energy through lambda_n(E) = E + E^2/(2 eta),
where lambda_n is the (n+1)-th smallest eigenvalue.  The solver finds
the root of g(E) = lambda_n(E) - E - E^2/(2 eta) by a safeguarded Newton
iteration around an inner symmetric tridiagonal eigenproblem (three-point
finite differences, Dirichlet ends).  The operator's energy-independent
pieces are built once per grid, and between Newton iterates it moves only
by (Delta E/eta) V on its diagonal, so each iterate refines the previous
iterate's eigenvector by Rayleigh-quotient iteration, one tridiagonal
solve per step.  A level makes one cold eigensolve: bisection, to a loose
tolerance, for the nonrelativistic operator's level-n eigenvector on a
coarse grid, which starts the nonrelativistic estimate on the full grid.
The first Newton iterate starts at the root of the self-consistency
condition to first order in the operator's energy dependence, from the
estimate's eigenvector refined on a coarse grid over the first pass's
span and interpolated onto its full grid.  A refined pair is accepted
only when its residual has settled at the rounding floor of the operator
and its eigenvector has exactly n nodes, which by Sturm's oscillation
theorem singles out level n; otherwise LAPACK's Sturm-sequence
bisection, run to full precision, extracts the pair, indexing levels
exactly.  The eigenvector gives the Newton slope by the Hellmann-Feynman
theorem, g'(E) = <psi|V|psi>/eta - 1 - E/eta.  The returned level alone
is checked: its node count against the requested radial quantum number,
and its energy's local wave number against the grid spacing; a level
whose residual keeps one sign over the window fails as the Newton
iteration gives up, with no further eigensolve.  The default box is
sized from the potential's length scales and, for potentials that do
not confine, from the level.

For Coulomb-type potentials the -V^2/(2 eta) piece of gamma adds an
attractive inverse-square core; :func:`~slet.potentials.fall_to_center_check`
refuses configurations whose effective strength drops below the -1/4
stability bound, since their discrete spectrum is not bounded below
under grid refinement.

With a nonrelativistic pair (eta infinite) the operator loses its energy
dependence and the solve reduces to a single eigenvalue extraction,
which is how the exact box / oscillator / Coulomb checks are run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv
from scipy.optimize import brentq

from .engine import QuantumNumbers
from .errors import (
    ConvergenceError,
    LevelIdentificationError,
    ResolutionWarning,
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

# cap on eigensolves per outer pass; bisection alone shrinks a 50 GeV
# window to the 1e-13 step tolerance in about 50
MAX_OUTER_EVALUATIONS = 100
# |g(E)| at which the outer iteration may stop
RESIDUAL_TOLERANCE = 1e-10
# eigenvector entries below this fraction of the largest carry no node
NODE_THRESHOLD = 1e-8
# a refined eigenpair has settled once its residual |T x - lambda x| is
# below this many machine epsilons times the operator's row-sum norm;
# rounding alone leaves less than one
REFINEMENT_RESIDUAL = 8.0
# Rayleigh-quotient steps tried from a start vector before bisection;
# a start from the previous Newton iterate settles in two
MAX_REFINEMENT_STEPS = 4
# points of the coarse grid whose level-n eigenvector starts the
# refinement of an eigensolve that has no previous iterate; at 500 the
# refinement is rejected on Cornell (1,0), (2,0) and Coulomb (4,0)
COARSE_POINT_COUNT = 1000
# absolute tolerance of LAPACK's bisection; the smallest positive value
# runs it to rounding level instead of its default eps * |T|
BISECTION_TOLERANCE = np.finfo(float).tiny
# a coarse-grid eigenvector only starts a refinement, so its bisection
# stops at this fraction of the operator's row-sum norm; an absolute
# 1e-4 GeV is coarser than the level spacing of light Coulomb levels
SEED_TOLERANCE = 1e-6
# points of the geometric grid on which escape_radius brackets its root
ESCAPE_BRACKET_POINTS = 64


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid with Dirichlet endpoints.

    The wavefunction is represented on ``point_count`` interior points;
    r_min and r_max themselves carry R = 0.
    """

    r_min: float
    r_max: float
    point_count: int = DEFAULT_POINT_COUNT

    def __post_init__(self):
        if not 0.0 < self.r_min < self.r_max:
            raise ValueError("need 0 < r_min < r_max")
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
                 qn: QuantumNumbers | None = None,
                 point_count: int = DEFAULT_POINT_COUNT,
                 r_max: float | None = None) -> RadialGrid:
    """Grid sized from the potential's own length scales and the level.

    r_max is 40 times the largest of
    :meth:`PotentialModel.length_scales` and 1/GeV.  Excited levels of a
    potential that does not confine reach further out, so there r_max is
    multiplied by n + l + 1 of the level qn; ground levels, and every
    level of a confining potential, keep the plain scale.
    """
    if r_max is None:
        scales = potential.length_scales(pair.mu)
        r_max = R_MAX_SCALE_FACTOR * max((1.0, *scales))
        if qn is not None and not _is_confining(potential):
            r_max *= qn.n + qn.l + 1
    return RadialGrid(DEFAULT_R_MIN, r_max, point_count)


class GridOperator:
    """Symmetric tridiagonal discretization of H(E) on one grid.

    The potential, the -V^2/(2 eta) and centrifugal terms and the
    off-diagonal do not depend on the trial energy, so they are built
    once; calling the operator at a trial energy adds E V/eta and returns
    (diagonal, off-diagonal) for the three-point stencil with Dirichlet
    ends.
    """

    def __init__(self, potential: PotentialModel, pair: ParticlePair, l: int,
                 grid: RadialGrid):
        r = grid.points
        self.grid = grid
        self.eta = pair.eta
        self.v = potential.evaluate(r)
        self.static = self.v - self.v * self.v / (2.0 * self.eta)
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
                  start: np.ndarray | None = None,
                  tol: float = BISECTION_TOLERANCE):
    """Eigenvalue, unit eigenvector (sign arbitrary) and whether bisection ran.

    With a start vector, the pair is refined by Rayleigh-quotient
    iteration: each step solves (T - lambda I) y = x with LAPACK's
    tridiagonal solver and takes lambda as the Rayleigh quotient of x.
    The refined pair is accepted once |T x - lambda x| falls below
    REFINEMENT_RESIDUAL machine epsilons times the row-sum norm of T
    and x has exactly n nodes; by Sturm's oscillation theorem only the
    (n+1)-th eigenvector of this Jacobi matrix has n sign changes, so a
    start that converges to another level is rejected.  Without a start
    vector, or when the refinement is rejected, does not settle within
    MAX_REFINEMENT_STEPS, or meets a singular or non-finite solve, the
    pair comes from LAPACK's Sturm-sequence bisection at the absolute
    tolerance tol, by default BISECTION_TOLERANCE (full precision).  The
    grid solver passes a start to every call on a grid finer than
    COARSE_POINT_COUNT, so there bisection is only the fallback.  Returns
    (eigenvalue, eigenvector, bisected).
    """
    if n >= diag.size:
        raise ValueError("eigenvalue index exceeds matrix size")
    pair = None
    if start is not None:
        if start.shape != diag.shape:
            raise ValueError("start vector does not match the matrix size")
        pair = _refined_pair(diag, off, n, start)
    bisected = pair is None
    if bisected:
        vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                      select_range=(n, n), tol=tol)
        pair = float(vals[0]), vecs[:, 0]
    return (*pair, bisected)


def _refined_pair(diag, off, n, start):
    """Rayleigh-quotient iteration from start; None unless it settles on n."""
    tolerance = REFINEMENT_RESIDUAL * np.finfo(float).eps * _row_sum_norm(
        diag, off)
    vec = start
    for _ in range(MAX_REFINEMENT_STEPS):
        norm = float(np.linalg.norm(vec))
        if not 0.0 < norm < math.inf:
            return None
        vec = vec / norm
        applied = diag * vec
        applied[:-1] += off * vec[1:]
        applied[1:] += off * vec[:-1]
        value = float(vec @ applied)
        if np.linalg.norm(applied - value * vec) <= tolerance:
            return (value, vec) if count_nodes(vec) == n else None
        *_, vec, info = dgtsv(off, diag - value, off, vec, overwrite_d=1)
        if info != 0:
            return None
    return None


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

    outer_iterations counts every eigensolve, the nonrelativistic
    estimate included; bisection_solves counts the eigensolves on the
    solution's full-size grids that came from LAPACK bisection rather than
    from refining a start vector (the coarse-grid eigenpairs that provide
    start vectors are not counted).  On grids finer than
    COARSE_POINT_COUNT it is 0 unless a refinement was rejected.
    """

    binding_energy: float
    mass: float
    node_count: int
    wavefunction: np.ndarray = field(repr=False)
    grid: RadialGrid = field(repr=False)
    outer_iterations: int = 0
    residual: float = 0.0
    bisection_solves: int = 0


def _coarse_seed(potential, pair, l, grid, e_trial, n, start=None):
    """Start vector for level n of H(e_trial) on grid, or None.

    The same operator is built on COARSE_POINT_COUNT points over the same
    [r_min, r_max] and its level-n eigenvector is interpolated onto grid.
    That eigenvector is refined from start, a (points, values) pair
    sampled onto the coarse grid, when one is given; otherwise, or when
    the refinement is rejected, it comes from bisection stopped at
    SEED_TOLERANCE times the operator's row-sum norm, since a start
    vector needs no sharper eigenvalue.  A grid no finer than
    COARSE_POINT_COUNT has no start.
    """
    if grid.point_count <= COARSE_POINT_COUNT:
        return None
    coarse = RadialGrid(grid.r_min, grid.r_max, COARSE_POINT_COUNT)
    diag, off = GridOperator(potential, pair, l, coarse)(e_trial)
    if start is not None:
        start = np.interp(coarse.points, *start)
    _, vec, _ = nth_eigenpair(diag, off, n, start,
                              SEED_TOLERANCE * _row_sum_norm(diag, off))
    return np.interp(grid.points, coarse.points, vec)


def escape_radius(potential: PotentialModel, pair: ParticlePair,
                  energy: float, search_hi: float) -> float | None:
    """Radius where V(r) = 2 eta + max(energy, 0).

    For a confining V with finite eta the effective potential of the
    reduced problem turns over and re-crosses a level's energy where
    V = 2 eta + E.  A Dirichlet wall placed there keeps the whole
    classically forbidden barrier inside the box while perturbing the
    quasi-bound state the least, so it is where the default grid ends.
    One array evaluation of V on ESCAPE_BRACKET_POINTS geometrically
    spaced radii over [1e-3, search_hi] brackets the innermost crossing,
    and Brent's method (rtol 1e-10) finds it inside that one panel.
    Returns None when the target value is never reached.
    """
    target = 2.0 * pair.eta + max(energy, 0.0)
    # np.geomspace costs twice as much as the evaluation; the ends are
    # set exactly, so the None cases compare V at 1e-3 and search_hi
    r = np.exp(np.linspace(math.log(1e-3), math.log(search_hi),
                           ESCAPE_BRACKET_POINTS))
    r[0], r[-1] = 1e-3, search_hi

    def f(x):
        return potential.evaluate(x) - target

    values = f(r)
    if values[-1] <= 0.0 or values[0] >= 0.0:
        return None
    i = int(np.argmax(values > 0.0))
    return float(brentq(f, r[i - 1], r[i], rtol=1e-10))


def _first_order_start(v, vec, e_nr, eta):
    """Root of E + E^2/(2 eta) = e_nr - <V^2>/(2 eta) + E <V>/eta, or e_nr.

    The right-hand side is lambda_n(E) to first order in the energy
    dependence of the operator, with the expectations of V (sampled as v)
    taken in the unit nonrelativistic eigenvector vec.  Of the two roots
    the larger one tends to e_nr as eta grows; e_nr itself is returned
    when the discriminant is negative.
    """
    weight = vec * vec
    mean_v = float(weight @ v)
    # E^2 + 2 b E - c = 0
    b = eta - mean_v
    c = 2.0 * eta * e_nr - float(weight @ (v * v))
    discriminant = b * b + c
    return e_nr if discriminant < 0.0 else -b + math.sqrt(discriminant)


def _solve_on_grid(pair, qn, operator, window, energy, vec):
    """Safeguarded Newton iteration for the root of g(E) on operator's grid.

    The slope comes with the eigenvector: by Hellmann-Feynman
    d lambda_n / dE = <psi|V|psi>/eta, so g'(E) = <psi|V|psi>/eta - 1 - E/eta.
    Iterates keep a sign bracket [g >= 0, g < 0] inside the window, and a
    step that leaves it, or a slope that is not negative, is replaced by
    bisection.  The iteration starts at energy, inside the window, from
    the start vector vec (bisection when None), and each iterate's
    eigenvector is the start vector of the next one's eigensolve.
    Returns (energy, |g|, eigenvector, number of eigensolves, number of
    eigenpairs that needed bisection).
    """
    eta = pair.eta
    lo, hi = window
    # latest iterates below the root (g >= 0) and above it (g < 0)
    below = above = None
    previous = math.inf
    bisections = 0
    for evaluations in range(1, MAX_OUTER_EVALUATIONS + 1):
        diag, off = operator(energy)
        lam, vec, bisected = nth_eigenpair(diag, off, qn.n, vec)
        bisections += bisected
        value = lam - energy - energy**2 / (2.0 * eta)
        slope = float(vec @ (operator.v * vec)) / eta - 1.0 - energy / eta
        step = -value / slope if slope < 0.0 else math.nan
        xtol = 1e-13 + 4.0 * np.finfo(float).eps * abs(energy)
        # the residual has a floor set by the eigensolver's own
        # tolerance, so convergence also counts once it stops falling
        if abs(value) <= RESIDUAL_TOLERANCE and (
                abs(step) <= xtol or abs(value) > 0.1 * previous):
            return energy, abs(value), vec, evaluations, bisections
        previous = abs(value)
        if value >= 0.0:
            below = energy
        else:
            above = energy
        left = lo if below is None else below
        right = hi if above is None else above
        if right - left <= xtol:
            break
        trial = energy + step
        energy = trial if left < trial < right else 0.5 * (left + right)

    if below is None or above is None:
        raise WindowError(
            f"no sign change of the self-consistency residual found in "
            f"[{lo:g}, {hi:g}]")
    raise ConvergenceError(
        f"self-consistency residual {previous:g} above tolerance "
        f"{RESIDUAL_TOLERANCE:g} after {evaluations} evaluations")


def _solution(potential, pair, qn, operator, energy, vec, evaluations,
              residual, bisections, default_box):
    """Check the converged level on operator's grid and package the result.

    Warns when the grid resolves the local wave number at the energy with
    fewer than roughly a dozen points per oscillation (the singular
    region next to r_min excluded), and turns the eigenvector's first
    sizable lobe up.
    """
    grid = operator.grid
    nodes = count_nodes(vec)
    if nodes != qn.n:
        raise LevelIdentificationError(
            f"converged eigenvector has {nodes} nodes, expected {qn.n}")
    if default_box and not _is_confining(potential) and energy >= 0.0:
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
    if big.size and vec[big[0]] < 0.0:
        vec = -vec
    norm = math.sqrt(grid.h * float(np.sum(vec * vec)))
    return OracleSolution(binding_energy=energy,
                          mass=energy + pair.total_mass,
                          node_count=nodes, wavefunction=vec / norm,
                          grid=grid, outer_iterations=evaluations,
                          residual=residual, bisection_solves=bisections)


def solve_selfconsistent(potential: PotentialModel, pair: ParticlePair,
                         qn: QuantumNumbers,
                         grid: RadialGrid | None = None) -> OracleSolution:
    """Solve the energy-nonlinear eigenvalue problem for level (n, l).

    Finds the root of g(E) = lambda_n(E) - E - E^2/(2 eta) by a Newton
    iteration with the Hellmann-Feynman slope, safeguarded by bisection
    inside a physically bounded window, down to |g| <= RESIDUAL_TOLERANCE.
    The window is computed here, not passed: it runs from -1.8 (m1 + m2),
    clipped above -eta where the right-hand side stops being monotone,
    up to 50 times the nonrelativistic estimate e_nr; for relativistic
    confining problems it starts just below the estimate, so no iterate
    probes energies whose escape region has entered the box.  The
    iteration starts at the first-order root (see
    :func:`_first_order_start`), clipped into the window.

    When no grid is given, a level-sized one is built (see
    :func:`default_grid`).  For relativistic confining potentials the
    wall of either grid is moved in, never past r_max, to the escape
    radius of the turned-over effective potential at
    FIRST_PASS_ENERGY_FRACTION of the estimate, and the solve is repeated
    once with the wall re-placed at the first pass's energy (see
    :func:`escape_radius`), starting from the first pass's eigenvector
    carried over to the new grid.  Levels of such problems are
    quasi-bound, and this wall placement is what defines their reported
    position.

    Every eigenpair is refined from a start vector (see
    :func:`nth_eigenpair`), and a level makes one cold eigensolve: the
    level-n eigenvector of the nonrelativistic operator on a coarse grid
    (see :func:`_coarse_seed`) starts the estimate, which is also the
    single eigensolve of an eta-infinite pair.  The estimate's eigenvector,
    refined on the coarse grid over the first pass's span at the start
    energy, starts the first iterate, and every later iterate starts from
    the one before it.  Bisection runs on a coarse grid only when that
    refinement is rejected, and on the full grid only when a full-grid
    refinement is rejected or the grid has no more than
    COARSE_POINT_COUNT points.

    Raises WindowError, whose message names the window, when no sign
    change shows up, ConvergenceError when the residual stays above
    tolerance, and LevelIdentificationError when the converged
    eigenvector's node count is not n or, in the default box of a
    non-confining potential, the energy lies in the continuum.  A returned
    level whose energy the grid resolves poorly issues one
    ResolutionWarning (see :func:`_solution`).
    """
    fall_to_center_check(potential, pair, qn.l)
    base = default_grid(potential, pair, qn) if grid is None else grid

    nr_pair = pair.as_nonrelativistic()
    operator = GridOperator(potential, nr_pair, qn.l, base)
    start = _coarse_seed(potential, nr_pair, qn.l, base, 0.0, qn.n)
    e_nr, vec, bisected = nth_eigenpair(*operator(0.0), qn.n, start)
    bisections = int(bisected)
    if math.isinf(pair.eta):
        # operator is energy independent; one eigensolve settles it
        return _solution(potential, pair, qn, operator, e_nr, vec, 1, 0.0,
                         bisections, grid is None)

    quasi_bound = _is_confining(potential)
    if quasi_bound:
        lo = min(0.6 * e_nr, 1.4 * e_nr) - 0.05
    else:
        lo = max(-1.8 * pair.total_mass, -pair.eta * (1.0 - 1e-9))
    hi = 50.0 * max(abs(e_nr), 0.02)
    window = lo, hi
    energy = min(max(_first_order_start(operator.v, vec, e_nr, pair.eta),
                     lo), hi)

    work_grid = base
    if quasi_bound:
        wall = escape_radius(potential, pair,
                             FIRST_PASS_ENERGY_FRACTION * e_nr,
                             10.0 * base.r_max)
        if wall is not None and wall < base.r_max:
            work_grid = RadialGrid(base.r_min, wall, base.point_count)
    operator = GridOperator(potential, pair, qn.l, work_grid)
    seed = _coarse_seed(potential, pair, qn.l, work_grid, energy, qn.n,
                        (base.points, vec))
    energy, residual, vec, evaluations, first_bisections = _solve_on_grid(
        pair, qn, operator, window, energy, seed)
    bisections += first_bisections

    if work_grid is not base:
        wall = escape_radius(potential, pair, energy, 10.0 * base.r_max)
        if wall is not None:
            first = work_grid
            work_grid = RadialGrid(base.r_min, min(wall, base.r_max),
                                   base.point_count)
            operator = GridOperator(potential, pair, qn.l, work_grid)
            # the first pass's eigenvector, with nothing beyond its wall
            guess = np.interp(work_grid.points, first.points, vec,
                              right=0.0)
            energy, residual, vec, more_evaluations, more_bisections = \
                _solve_on_grid(pair, qn, operator, window, energy, guess)
            evaluations += more_evaluations
            bisections += more_bisections

    return _solution(potential, pair, qn, operator, energy, vec,
                     1 + evaluations, residual, bisections, grid is None)
