import numpy as np
import pytest

from slet.engine import QuantumNumbers, solve
from slet.fixtures import TABLE2, TABLE3
from slet.oracle import REFINEMENT_RESIDUAL, effective_operator, \
    solve_selfconsistent
from slet.potentials import ParticlePair, PotentialModel


@pytest.fixture(scope="session")
def oscillator_pot():
    return PotentialModel.oscillator(1.0)


@pytest.fixture(scope="session")
def cornell_pot():
    return PotentialModel.coulomb_plus_linear(0.25, 0.18)


@pytest.fixture(scope="session")
def coulomb_pot():
    return PotentialModel.coulomb(0.25)


@pytest.fixture(scope="session")
def pair_131():
    return ParticlePair.equal(1.310)


@pytest.fixture(scope="session")
def pair_145():
    return ParticlePair.equal(1.45)


@pytest.fixture(scope="session")
def table2_solutions(oscillator_pot, pair_131):
    """Full expansion solves for every Table 2 cell."""
    return {key: solve(oscillator_pot, pair_131, QuantumNumbers(*key))
            for key in TABLE2.grid()}


@pytest.fixture(scope="session")
def table3_solutions(cornell_pot, pair_145):
    """Full expansion solves for every Table 3 cell."""
    return {key: solve(cornell_pot, pair_145, QuantumNumbers(*key))
            for key in TABLE3.grid()}


@pytest.fixture(scope="session")
def oracle_results(oscillator_pot, cornell_pot, pair_131, pair_145):
    """Grid-solver results for both tables at n <= 2, l <= 2."""
    out = {}
    for tid, pot, pair in ((2, oscillator_pot, pair_131),
                           (3, cornell_pot, pair_145)):
        for n in range(3):
            for l in range(3):
                out[(tid, n, l)] = solve_selfconsistent(
                    pot, pair, QuantumNumbers(n, l))
    return out


@pytest.fixture(scope="session")
def level_residual():
    """|T(E) psi| of a returned level and the bound it must meet.

    T(E) = H(E) - (E + E^2/(2 eta)) I is rebuilt from
    :func:`~slet.oracle.effective_operator` on the solution's grid and
    applied to its wavefunction scaled to unit length; the bound is
    REFINEMENT_RESIDUAL machine epsilons times the row-sum norm of T(E).
    """
    def check(potential, pair, l, sol):
        energy = sol.binding_energy
        diag, off = effective_operator(potential, pair, l, energy, sol.grid)
        diag = diag - (energy + energy * energy / (2.0 * pair.eta))
        psi = sol.wavefunction / np.linalg.norm(sol.wavefunction)
        applied = diag * psi
        applied[:-1] += off * psi[1:]
        applied[1:] += off * psi[:-1]
        norm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
        return (float(np.linalg.norm(applied)),
                REFINEMENT_RESIDUAL * np.finfo(float).eps * float(norm))
    return check
