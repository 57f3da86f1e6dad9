"""Rayleigh-Schrodinger series for a polynomially perturbed oscillator level.

The shifted-l expansion reduces the radial problem to a one-dimensional
harmonic oscillator (mass mu, scaled frequency omega) perturbed by
polynomial terms that enter at four successive orders of the formal
expansion parameter lambda:

    h(lambda) = p^2/(2 mu) + mu omega^2 x^2 / 2
                + lambda   (eps1 x + eps3 x^3)
                + lambda^2 (eps2 x^2 + eps4 x^4)
                + lambda^3 (delta1 x + delta3 x^3 + delta5 x^5)
                + lambda^4 (delta2 x^2 + delta4 x^4 + delta6 x^6)

The energy corrections alpha1 and alpha2 consumed by the radial solver
are the lambda^2 and lambda^4 coefficients of the eigenvalue series of a
single level n.  They are computed here by the standard order-by-order
recursion in a truncated oscillator matrix basis, which is exact by
construction.  x^p couples states at most p quanta apart, so the terms
at order j = 1..4 reach at most j + 2 quanta (3, 4, 5 and 6).  The
lambda^4 coefficient needs only psi_0..psi_3, and psi_k is built from
chains of terms whose orders sum to k, so it lies within 3k quanta of
n: psi_3 spans n - 9 .. n + 9.  The recursion therefore runs in the
minimal basis of the lowest ``level + 10`` states, where every vector
and matrix element it uses equals its untruncated value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .errors import ParityViolationError

# powers of x allowed at each lambda order (parity fixed by the expansion)
ALLOWED_POWERS = {1: (1, 3), 2: (2, 4), 3: (1, 3, 5), 4: (2, 4, 6)}

# psi_3 reaches level + 9, the last state of the basis
BASIS_MARGIN = 10

# |c1| and |c3| above this mean terms were assembled at the wrong orders
PARITY_TOLERANCE = 1e-10


def position_matrix(mu: float, omega: float, basis_size: int) -> np.ndarray:
    """Coordinate operator in the oscillator eigenbasis.

    Element (k, k+1) equals sqrt((k+1) / (2 mu omega)); the matrix is
    symmetric and zero elsewhere.
    """
    if basis_size < 2:
        raise ValueError("basis_size must be at least 2")
    if not mu * omega > 0.0:
        raise ValueError("mu * omega must be positive")
    k = np.arange(basis_size - 1, dtype=float)
    off = np.sqrt((k + 1.0) / (2.0 * mu * omega))
    return np.diag(off, 1) + np.diag(off, -1)


def position_power_matrix(mu: float, omega: float, basis_size: int,
                          power: int) -> np.ndarray:
    """Exact x**power in the truncated basis.

    Built by repeated multiplication in a basis padded by ``power``
    states and then cut back, so every retained element equals the
    untruncated value and the result is exactly (power)-banded.
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    if power == 0:
        return np.eye(basis_size)
    x = position_matrix(mu, omega, basis_size + power)
    out = x
    for _ in range(power - 1):
        out = out @ x
    return np.ascontiguousarray(out[:basis_size, :basis_size])


@dataclass(frozen=True)
class AnharmonicProblem:
    """One perturbed oscillator level and its terms grouped by order.

    ``terms_by_order`` maps a lambda order in {1, 2, 3, 4} to a sequence
    of (power, coefficient) pairs; the powers must follow the parity
    pattern of :data:`ALLOWED_POWERS`.
    """

    mu: float
    omega: float
    level: int
    terms_by_order: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be a non-negative integer")
        if not self.mu * self.omega > 0.0:
            raise ValueError("mu * omega must be positive")
        for order, terms in self.terms_by_order.items():
            if order not in ALLOWED_POWERS:
                raise ValueError(f"unsupported perturbation order {order}")
            for power, coeff in terms:
                if power not in ALLOWED_POWERS[order]:
                    raise ValueError(
                        f"x^{power} is not admissible at order {order}; "
                        f"allowed powers are {ALLOWED_POWERS[order]}")
                if not isfinite(coeff):
                    raise ValueError("perturbation coefficients must be finite")


@dataclass(frozen=True)
class SeriesCoefficients:
    """Coefficients of lambda^1..lambda^4 in the eigenvalue series."""

    c1: float
    c2: float
    c3: float
    c4: float


def _run_recursion(problem: AnharmonicProblem, size: int):
    mu, omega, n = problem.mu, problem.omega, problem.level
    if size < n + BASIS_MARGIN:
        # a smaller basis truncates psi_3 and silently changes c4
        raise ValueError(f"basis_size must be at least level + {BASIS_MARGIN}")
    powers = sorted({p for terms in problem.terms_by_order.values()
                     for p, _ in terms})
    xpow = {p: position_power_matrix(mu, omega, size, p) for p in powers}
    w = {}
    for order, terms in problem.terms_by_order.items():
        mat = np.zeros((size, size))
        for power, coeff in terms:
            if coeff != 0.0:
                mat += coeff * xpow[power]
        w[order] = mat

    e0 = (np.arange(size) + 0.5) * omega
    gap = e0 - e0[n]
    green = np.zeros(size)
    mask = np.arange(size) != n
    green[mask] = 1.0 / gap[mask]

    psi = [np.zeros(size)]
    psi[0][n] = 1.0
    energies = []
    for k in (1, 2, 3, 4):
        applied = [w[j] @ psi[k - j] for j in w if j <= k]
        ek = float(sum(vec[n] for vec in applied)) if applied else 0.0
        energies.append(ek)
        rhs = -sum(applied) if applied else np.zeros(size)
        for m in range(1, k + 1):
            rhs = rhs + energies[m - 1] * psi[k - m]
        psi.append(green * rhs)
    return energies


def rspt_coefficients(problem: AnharmonicProblem) -> SeriesCoefficients:
    """Eigenvalue series coefficients c1..c4 of level n.

    Runs in the exact minimal basis of ``level + 10`` states (see the
    module docstring).
    """
    return SeriesCoefficients(
        *_run_recursion(problem, problem.level + BASIS_MARGIN))


def alpha_from_series(coeffs: SeriesCoefficients):
    """Extract (alpha1, alpha2) = (c2, c4) after checking parity zeros.

    The odd-order coefficients vanish for any admissible problem (see
    PARITY_TOLERANCE).
    """
    for name, value in (("c1", coeffs.c1), ("c3", coeffs.c3)):
        if abs(value) > PARITY_TOLERANCE:
            raise ParityViolationError(
                f"odd-order coefficient {name} = {value!r} is not zero; "
                "perturbation terms are mis-assigned")
    return coeffs.c2, coeffs.c4
