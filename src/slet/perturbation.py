"""Rayleigh-Schrodinger series for a polynomially perturbed oscillator level.

The shifted-l expansion reduces the radial problem to a one-dimensional
harmonic oscillator (mass mu, scaled frequency omega) perturbed by
polynomial terms that enter at four successive orders of the formal
expansion parameter lambda, in three families of powers at order j:

    h(lambda) = p^2/(2 mu) + mu omega^2 x^2 / 2
                + sum_{j=1..4} lambda^j (c_j,j-2 x^(j-2) + c_jj x^j
                                         + c_j,j+2 x^(j+2)),

the x^(j-2) family only at j >= 3 (:mod:`slet.engine` gives the three
formulas).  The ten coefficients eps1..4 and delta1..6 are the whole
input, placed by one rule: eps_p is c_jp at order j = 2 - (p mod 2) and
delta_p at j = 4 - (p mod 2), an odd power at the odd order.  The
energy corrections alpha1 and alpha2 consumed by the radial solver are
the lambda^2 and lambda^4 coefficients of the eigenvalue series of a
single level n.  They are computed here by the hypervirial-Hellmann-
Feynman recursion (Swenson and Danforth, J. Chem. Phys. 57, 1734
(1972); Killingbeck, Rep. Prog. Phys. 40, 963 (1977)) on the moments of
the level.  Write E_q and X_{m,q} for the lambda^q parts of the
eigenvalue and of <x^m>, and c_jp for the coefficient of x^p at order
j.  The Hellmann-Feynman theorem gives

    q E_q = sum_j j sum_p c_jp X_{p,q-j},

and the hypervirial relation of p^2/(2 mu) + V(x),
2k E <x^(k-1)> = 2k <x^(k-1) V> + <x^k V'> - k(k-1)(k-2)/(4 mu) <x^(k-3)>,
gives order by order

    (k+1) mu omega^2 X_{k+1,q} = 2k sum_s E_s X_{k-1,q-s}
        - sum_{j<=q} sum_p c_jp (2k+p) X_{k-1+p,q-j}
        + k(k-1)(k-2)/(4 mu) X_{k-3,q}.

The level enters only through X_{0,q} = delta_q0 and E_0 = (n + 1/2)
omega: no state vector is formed, and the cost is the same at every n.
E_4 reads the moments of orders 0..3 up to x^6, x^5, x^4 and x^3, and
the recursion for each of them reads no higher power.

Every odd-order term carries an odd power of x, so X_{m,q} vanishes
unless m + q is even, and so do E_1 and E_3: h(lambda) and h(-lambda)
are the same operator up to x -> -x.  The recursion skips those exact
zeros, and only E_2 and E_4 are returned.
"""

from __future__ import annotations

import numpy as np


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
    if not mu * omega > 0.0:
        raise ValueError("mu * omega must be positive")
    if power == 0:
        return np.eye(basis_size)
    off = np.sqrt(np.arange(1.0, basis_size + power) / (2.0 * mu * omega))
    x = np.diag(off, 1) + np.diag(off, -1)
    out = x
    for _ in range(power - 1):
        out = out @ x
    return np.ascontiguousarray(out[:basis_size, :basis_size])


def rspt_coefficients(mu: float, omega: float, level: int, eps, delta):
    """(alpha1, alpha2) = (E_2, E_4) of h(lambda) at level n = ``level``.

    The recursion of the module docstring in plain floats, order by
    order: E_q, then X_{m,q} for the powers m of the parity of q.
    """
    # (order, power, coefficient), in the order of h(lambda)
    terms = sorted((2 * half + 2 - p % 2, p, c)
                   for half, coefficients in enumerate((eps, delta))
                   for p, c in enumerate(coefficients, 1))
    # moments[q][m] = X_{m,q}, up to the power E_4 reads at order q
    moments = ([1.0] + [0.0] * 6, [0.0] * 6, [0.0] * 5, [0.0] * 4)
    energies = [(level + 0.5) * omega, 0.0, 0.0, 0.0, 0.0]
    stiffness = mu * omega * omega
    for q in range(5):
        # Hellmann-Feynman; E_1 and E_3 vanish by parity
        if q in (2, 4):
            energies[q] = sum(j * c * moments[q - j][p]
                              for j, p, c in terms if j <= q) / q
        if q == 4:
            break
        row = moments[q]
        lower = [(p, c, moments[q - j]) for j, p, c in terms if j <= q]
        # hypervirial, for X_{k+1,q} with k + 1 of the parity of q
        for k in range(1 - q % 2, 6 - q, 2):
            acc = 0.0
            for p, c, moment in lower:
                acc -= c * (2 * k + p) * moment[k - 1 + p]
            if k:
                for s in range(0, q + 1, 2):
                    acc += 2 * k * energies[s] * moments[q - s][k - 1]
            if k > 2:
                acc += k * (k - 1) * (k - 2) / (4.0 * mu) * row[k - 3]
            row[k + 1] = acc / ((k + 1) * stiffness)
    return energies[2], energies[4]
