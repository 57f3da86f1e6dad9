"""Independent grid eigenvalue solver for the reduced radial equation.

The equation being solved is nonlinear in the energy: the operator

    H(E) = -(1/2 mu) d^2/dr^2 + l(l+1)/(2 mu r^2) + gamma(r) + E V(r)/eta

must reproduce its own trial energy through lambda_n(E) = E + E^2/(2 eta),
where lambda_n is the (n+1)-th smallest eigenvalue.  The solver runs an
outer scalar root find on g(E) = lambda_n(E) - E - E^2/(2 eta) around an
inner symmetric tridiagonal eigenproblem (three-point finite differences,
Dirichlet ends).  The inner eigenvalue is extracted by LAPACK's
Sturm-sequence bisection, which indexes levels exactly, and the converged
eigenvector's node count is checked against the requested radial quantum
number.

For Coulomb-type potentials the -V^2/(2 eta) piece of gamma adds an
attractive inverse-square core; :func:`fall_to_center_check` refuses
configurations whose effective strength drops below the -1/4 stability
bound, since their discrete spectrum is not bounded below under grid
refinement.

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
from scipy.optimize import brentq

from .engine import QuantumNumbers
from .errors import (
    ConvergenceError,
    LevelIdentificationError,
    ResolutionWarning,
    SupercriticalCouplingError,
    WindowError,
)
from .potentials import ParticlePair, PotentialModel

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


def default_grid(potential: PotentialModel, pair: ParticlePair,
                 point_count: int = DEFAULT_POINT_COUNT,
                 r_min: float = DEFAULT_R_MIN,
                 r_max: float | None = None) -> RadialGrid:
    """Grid sized from the potential's own length scales.

    r_max is 40 times the largest of
    :meth:`PotentialModel.length_scales` and 1/GeV.
    """
    if r_max is None:
        scales = potential.length_scales(pair.mu)
        r_max = R_MAX_SCALE_FACTOR * max((1.0, *scales))
    return RadialGrid(r_min, r_max, point_count)


@dataclass(frozen=True)
class FallToCenterResult:
    """Outcome of the inverse-square stability check."""

    passed: bool
    strength: float
    margin: float
    reason: str = ""


def fall_to_center_check(potential: PotentialModel, pair: ParticlePair,
                         l: int) -> FallToCenterResult:
    """Check the effective inverse-square core against the -1/4 bound.

    A -alpha/r potential squared inside gamma produces an attractive
    -alpha^2/(2 eta r^2) core; the combined strength in units of
    1/(2 mu r^2) is s = l(l+1) - mu alpha^2 / eta and must stay above
    -1/4.  Potentials with explicit powers below -1 are refused outright
    (their square is even more singular).
    """
    bad = potential.singular_powers()
    if bad:
        return FallToCenterResult(
            passed=False, strength=-math.inf, margin=-math.inf,
            reason=f"potential has non-integrable powers {bad}")
    alpha = potential.coulomb_strength()
    s = float(l * (l + 1))
    if alpha > 0.0 and not math.isinf(pair.eta):
        s -= pair.mu * alpha**2 / pair.eta
    margin = s + 0.25
    return FallToCenterResult(passed=margin > 0.0, strength=s, margin=margin)


def effective_operator(potential: PotentialModel, pair: ParticlePair, l: int,
                       e_trial: float, grid: RadialGrid):
    """Symmetric tridiagonal discretization of H(E) on the grid.

    Returns (diagonal, off-diagonal) for the three-point stencil with
    Dirichlet ends.  Warns when the local wave number at the trial
    energy resolves to fewer than roughly a dozen points per oscillation
    (the singular region next to r_min is excluded from that estimate).
    """
    r = grid.points
    mu, eta = pair.mu, pair.eta
    v = potential.evaluate(r)
    if math.isinf(eta):
        veff = v.copy()
    else:
        veff = v - v * v / (2.0 * eta) + e_trial * v / eta
    if l > 0:
        veff = veff + l * (l + 1) / (2.0 * mu * r * r)
    inv_h2 = 1.0 / (mu * grid.h**2)
    diag = inv_h2 + veff
    off = np.full(grid.point_count - 1, -0.5 * inv_h2)

    lam_trial = e_trial if math.isinf(eta) else e_trial + e_trial**2 / (2.0 * eta)
    interior = veff[grid.point_count // 100:]
    kinetic = lam_trial - float(np.min(interior))
    if kinetic > 0.0 and math.sqrt(2.0 * mu * kinetic) * grid.h > 0.5:
        warnings.warn(
            f"grid spacing h = {grid.h:g} resolves the trial energy "
            f"{e_trial:g} poorly; refine the grid", ResolutionWarning)
    return diag, off


def nth_eigenvalue(diag: np.ndarray, off: np.ndarray, n: int) -> float:
    """(n+1)-th smallest eigenvalue via Sturm-count bisection (LAPACK)."""
    if n >= diag.size:
        raise ValueError("eigenvalue index exceeds matrix size")
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(n, n),
                            eigvals_only=True)
    return float(vals[0])


def nth_eigenpair(diag: np.ndarray, off: np.ndarray, n: int):
    """Eigenvalue plus normalized eigenvector for level index n."""
    if n >= diag.size:
        raise ValueError("eigenvalue index exceeds matrix size")
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(n, n))
    vec = vecs[:, 0]
    # fix the overall sign so the first sizable lobe points up
    big = np.nonzero(np.abs(vec) > 1e-8 * np.max(np.abs(vec)))[0]
    if big.size and vec[big[0]] < 0.0:
        vec = -vec
    return float(vals[0]), vec


def count_nodes(vec: np.ndarray, threshold: float = 1e-8) -> int:
    """Interior sign changes, ignoring entries below threshold * max."""
    cut = threshold * float(np.max(np.abs(vec)))
    sig = vec[np.abs(vec) > cut]
    return int(np.sum(sig[:-1] * sig[1:] < 0.0))


@dataclass
class OracleSolution:
    """Self-consistent eigenvalue with its wavefunction and diagnostics."""

    binding_energy: float
    mass: float
    node_count: int
    wavefunction: np.ndarray = field(repr=False)
    grid: RadialGrid = field(repr=False)
    outer_iterations: int = 0
    residual: float = 0.0
    scan_node_counts: tuple = ()


def _nonrelativistic_estimate(potential, pair, qn, grid):
    nr_pair = pair.as_nonrelativistic()
    diag, off = effective_operator(potential, nr_pair, qn.l, 0.0, grid)
    return nth_eigenvalue(diag, off, qn.n)


def _is_confining(potential) -> bool:
    return any(c > 0.0 and p > 0.0 for c, p in potential.terms)


def escape_radius(potential: PotentialModel, pair: ParticlePair,
                  energy: float, search_hi: float) -> float | None:
    """Radius where V(r) = 2 eta + max(energy, 0).

    For a confining V with finite eta the effective potential of the
    reduced problem turns over and re-crosses a level's energy where
    V = 2 eta + E.  A Dirichlet wall placed there keeps the whole
    classically forbidden barrier inside the box while perturbing the
    quasi-bound state the least, so it is where the default grid ends.
    Returns None when the target value is never reached.
    """
    target = 2.0 * pair.eta + max(energy, 0.0)

    def f(r):
        return potential.evaluate(r) - target

    lo = 1e-3
    if f(search_hi) <= 0.0 or f(lo) >= 0.0:
        return None
    return float(brentq(f, lo, search_hi, rtol=1e-10))


def _solve_on_grid(potential, pair, qn, grid, window, scan_points,
                   residual_tolerance, track_scan_nodes):
    """One scan-plus-polish pass of g(E) on a fixed grid."""
    eta = pair.eta
    evaluations = 0

    def g(e_trial):
        nonlocal evaluations
        evaluations += 1
        diag, off = effective_operator(potential, pair, qn.l, e_trial, grid)
        return (nth_eigenvalue(diag, off, qn.n) - e_trial
                - e_trial**2 / (2.0 * eta))

    lo, hi = window
    scan = np.linspace(lo, hi, scan_points)
    sweep = []
    nodes_along = []
    bracket = None
    for e in scan:
        value = g(e)
        if track_scan_nodes:
            diag, off = effective_operator(potential, pair, qn.l, e, grid)
            _, vec = nth_eigenpair(diag, off, qn.n)
            nodes_along.append(count_nodes(vec))
        if sweep and sweep[-1][1] * value <= 0.0:
            bracket = (sweep[-1][0], e)
            sweep.append((e, value))
            break
        sweep.append((e, value))
    if bracket is None:
        raise WindowError(
            f"no sign change of the self-consistency residual in "
            f"[{lo:g}, {hi:g}]; sweep attached", sweep=sweep)

    energy = brentq(g, bracket[0], bracket[1], xtol=1e-13,
                    rtol=4.0 * np.finfo(float).eps, maxiter=200)
    residual = abs(g(energy))
    if residual > residual_tolerance:
        raise ConvergenceError(
            f"self-consistency residual {residual:g} above tolerance "
            f"{residual_tolerance:g}")
    return float(energy), residual, evaluations, tuple(nodes_along)


def solve_selfconsistent(potential: PotentialModel, pair: ParticlePair,
                         qn: QuantumNumbers, grid: RadialGrid | None = None,
                         window: tuple | None = None, scan_points: int = 48,
                         residual_tolerance: float = 1e-10,
                         track_scan_nodes: bool = False) -> OracleSolution:
    """Solve the energy-nonlinear eigenvalue problem for level (n, l).

    Scans g(E) = lambda_n(E) - E - E^2/(2 eta) over a physically bounded
    window for a sign change, then polishes the first crossing with
    Brent's method down to |g| <= residual_tolerance.  The default
    window runs from -1.8 (m1 + m2), clipped above -eta where the
    right-hand side stops being monotone, up to 50 times the
    nonrelativistic eigenvalue estimate; for relativistic confining
    problems it is narrowed around that estimate so the scan never
    probes energies whose escape region has entered the box.

    When no grid is given, a scale-based one is built; for relativistic
    confining potentials its outer wall is then moved to the escape
    radius of the turned-over effective potential and the solve is
    repeated once with the wall re-placed at the converged energy (see
    :func:`escape_radius`).  Levels of such problems are quasi-bound,
    and this wall placement is what defines their reported position.

    Raises WindowError (with the scanned sweep attached) when no sign
    change shows up, and LevelIdentificationError when the converged
    eigenvector's node count is not n.
    """
    check = fall_to_center_check(potential, pair, qn.l)
    if not check.passed:
        raise SupercriticalCouplingError(
            f"effective inverse-square strength {check.strength:g} is below "
            f"the -1/4 bound (margin {check.margin:g})"
            + (f"; {check.reason}" if check.reason else ""))

    base = default_grid(potential, pair) if grid is None else grid

    if math.isinf(pair.eta):
        # operator is energy independent; one eigensolve settles it
        diag, off = effective_operator(potential, pair, qn.l, 0.0, base)
        energy, vec = nth_eigenpair(diag, off, qn.n)
        nodes = count_nodes(vec)
        if nodes != qn.n:
            raise LevelIdentificationError(
                f"converged eigenvector has {nodes} nodes, expected {qn.n}")
        norm = math.sqrt(base.h * float(np.sum(vec * vec)))
        return OracleSolution(binding_energy=energy,
                              mass=energy + pair.total_mass,
                              node_count=nodes, wavefunction=vec / norm,
                              grid=base, outer_iterations=1,
                              residual=0.0)

    e_nr = _nonrelativistic_estimate(potential, pair, qn, base)
    evaluations = 1
    quasi_bound = _is_confining(potential)
    if window is None:
        if quasi_bound:
            # stay close below the estimate: scanning far beneath the
            # wall-placement energy would probe trial energies whose
            # escape region has entered the box
            lo = min(0.6 * e_nr, 1.4 * e_nr) - 0.05
        else:
            lo = max(-1.8 * pair.total_mass, -pair.eta * (1.0 - 1e-9))
        window = (lo, 50.0 * max(abs(e_nr), 0.02))

    # wall placement passes (only when the grid was not pinned by the caller)
    passes = [base]
    if grid is None and quasi_bound:
        wall = escape_radius(potential, pair,
                             FIRST_PASS_ENERGY_FRACTION * e_nr,
                             10.0 * base.r_max)
        if wall is not None and wall < base.r_max:
            passes = [RadialGrid(base.r_min, wall, base.point_count), None]

    energy = residual = math.nan
    nodes_along = ()
    work_grid = passes[0]
    for stage, this_grid in enumerate(passes):
        if this_grid is None:
            wall = escape_radius(potential, pair, energy, 10.0 * base.r_max)
            if wall is None:
                break
            this_grid = RadialGrid(base.r_min, wall, base.point_count)
            # the re-placed wall barely moves the level, so the repeat
            # pass scans tightly around it; probing far below would
            # visit trial energies whose escape point re-enters the box
            margin = max(0.1 * abs(energy), 0.05)
            window = (energy - margin, energy + margin)
        track = track_scan_nodes and stage == len(passes) - 1
        energy, residual, used, nodes_along = _solve_on_grid(
            potential, pair, qn, this_grid, window, scan_points,
            residual_tolerance, track)
        evaluations += used
        work_grid = this_grid

    diag, off = effective_operator(potential, pair, qn.l, energy, work_grid)
    _, vec = nth_eigenpair(diag, off, qn.n)
    nodes = count_nodes(vec)
    if nodes != qn.n:
        raise LevelIdentificationError(
            f"converged eigenvector has {nodes} nodes, expected {qn.n}")
    norm = math.sqrt(work_grid.h * float(np.sum(vec * vec)))
    return OracleSolution(binding_energy=energy,
                          mass=energy + pair.total_mass,
                          node_count=nodes, wavefunction=vec / norm,
                          grid=work_grid, outer_iterations=evaluations,
                          residual=residual,
                          scan_node_counts=nodes_along)
