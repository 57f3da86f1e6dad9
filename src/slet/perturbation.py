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

The ten coefficients eps1..4 and delta1..6 are the whole input: this
layout is fixed by the expansion, and this module alone knows it.  The
energy corrections alpha1 and alpha2 consumed by the radial solver are
the lambda^2 and lambda^4 coefficients of the eigenvalue series of a
single level n.  They are computed here by the standard order-by-order
recursion, with x acting on vectors through the ladder recurrence
(x v)_k = a_k v_{k+1} + a_{k-1} v_{k-1}, a_k = sqrt((k+1)/(2 mu omega)),
so no matrix is ever formed.  x^p couples states at most p quanta apart,
so the terms at order j = 1..4 reach at most j + 2 quanta (3, 4, 5 and
6).  The lambda^4 coefficient needs only psi_0..psi_3, and psi_k is built
from chains of terms whose orders sum to k, so it lies within 3k quanta
of n: psi_3 spans n - 9 .. n + 9.  No power above x^6 acts on a vector,
so every vector the recursion forms lies in the window of states
n - 15 .. n + 15 (clamped at 0) and equals its untruncated value there.
The cost is the same at every level n.

Every odd-order term carries an odd power of x, so psi_k holds only
states of the level's parity for even k and only states of the other
parity for odd k; every other entry is a sum of exact zeros.  The
odd-order coefficients c1 and c3 are therefore exactly 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

# psi_3 reaches 9 quanta from the level and x^6 six more
WINDOW_HALF_WIDTH = 15


def _ladder_coefficients(mu: float, omega: float, first: int,
                         count: int) -> np.ndarray:
    """a_k = sqrt((k+1) / (2 mu omega)) for k = first .. first + count - 1.

    a_k is the element <k|x|k+1> of the coordinate operator.
    """
    if not mu * omega > 0.0:
        raise ValueError("mu * omega must be positive")
    k = np.arange(first, first + count, dtype=float)
    return np.sqrt((k + 1.0) / (2.0 * mu * omega))


def position_power_matrix(mu: float, omega: float, basis_size: int,
                          power: int) -> np.ndarray:
    """Exact x**power in the oscillator eigenbasis, truncated.

    x has element (k, k+1) = sqrt((k+1) / (2 mu omega)) and its mirror.
    The power is built by repeated multiplication in a basis padded by
    ``power`` states and then cut back, so every retained element equals
    the untruncated value and the result is exactly (power)-banded.
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    if power == 0:
        return np.eye(basis_size)
    off = _ladder_coefficients(mu, omega, 0, basis_size + power - 1)
    x = np.diag(off, 1) + np.diag(off, -1)
    out = x
    for _ in range(power - 1):
        out = out @ x
    return np.ascontiguousarray(out[:basis_size, :basis_size])


@dataclass(frozen=True)
class AnharmonicProblem:
    """Level ``level`` of h(lambda) in the module docstring.

    ``eps`` holds eps1..eps4 and ``delta`` holds delta1..delta6.
    """

    mu: float
    omega: float
    level: int
    eps: tuple
    delta: tuple

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be a non-negative integer")
        if not self.mu * self.omega > 0.0:
            raise ValueError("mu * omega must be positive")
        if len(self.eps) != 4 or len(self.delta) != 6:
            raise ValueError("need four eps and six delta coefficients")
        if not all(isfinite(c) for c in (*self.eps, *self.delta)):
            raise ValueError("perturbation coefficients must be finite")


@dataclass(frozen=True)
class SeriesCoefficients:
    """Coefficients of lambda^1..lambda^4 in the eigenvalue series."""

    c1: float
    c2: float
    c3: float
    c4: float


def rspt_coefficients(problem: AnharmonicProblem) -> SeriesCoefficients:
    """Eigenvalue series coefficients c1..c4 of level n.

    The recursion runs on the states n - WINDOW_HALF_WIDTH ..
    n + WINDOW_HALF_WIDTH, the exact window of the module docstring: a
    wider one gives the same numbers, since the states it adds hold
    exact zeros throughout.
    """
    mu, omega, n = problem.mu, problem.omega, problem.level
    first = max(0, n - WINDOW_HALF_WIDTH)
    size = n + WINDOW_HALF_WIDTH + 1 - first
    # slot i holds state first - 1 + i; slots 0 and size + 1 stay zero, as
    # the states outside the window do
    at = n - first + 1
    ladder = _ladder_coefficients(mu, omega, first - 1, size + 1)
    down, up = ladder[:-1], ladder[1:]
    gap = (np.arange(size + 2) - at) * omega  # E_i - E_n
    gap[at] = np.inf
    green = 1.0 / gap

    e, d = problem.eps, problem.delta
    # (order, power, coefficient), in the order of h(lambda)
    terms = ((1, 1, e[0]), (1, 3, e[2]), (2, 2, e[1]), (2, 4, e[3]),
             (3, 1, d[0]), (3, 3, d[2]), (3, 5, d[4]),
             (4, 2, d[1]), (4, 4, d[3]), (4, 6, d[5]))
    # chain[k, p] = x^p psi_k
    chain = np.zeros((4, 7, size + 2))
    chain[0, 0, at] = 1.0
    energies = []
    for k in (1, 2, 3, 4):
        # psi_{k-1} meets the orders j <= 5 - k, whose top power is 7 - k
        row = chain[k - 1]
        for p in range(1, 8 - k):
            # (x v)_i = a_i v_{i+1} + a_{i-1} v_{i-1}
            row[p, 1:-1] = up * row[p - 1, 2:] + down * row[p - 1, :-2]
        # sum of W_j psi_{k-j}, term by term in a fixed order
        src, pw, cf = zip(*((k - j, p, c) for j, p, c in terms if j <= k))
        applied = (np.array(cf)[:, None] * chain[src, pw]).sum(axis=0)
        energies.append(float(applied[at]))
        if k < 4:  # c4 needs psi_0..psi_3 only
            # E_k psi_0 drops out: green is zero at n
            rhs = -applied
            for m in range(1, k):
                rhs += energies[m - 1] * chain[k - m, 0]
            chain[k, 0] = green * rhs
    return SeriesCoefficients(*energies)
