"""Bound states of the reduced semi-relativistic two-body wave equation.

The package solves for binding energies E = M - m1 - m2 of a pair of
particles interacting through a spherically symmetric potential, with
relativistic corrections kept to second order in the velocity.  Two
independent routes are provided: a shifted-l expansion (``engine``) that
yields closed-form leading energies plus perturbative corrections, and a
finite-difference eigenvalue solver (``oracle``) for the same radial
equation.  ``cli`` exposes both along with reference-table reproduction.

Import each name from the module that defines it, e.g.
``from slet.engine import solve``.  ``import slet`` loads no submodule;
reading ``slet.<module>`` imports that module the first time.  Only the
grid solver imports scipy, so the expansion's commands run on numpy.
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name):
    """``slet.<name>`` imports the submodule of that name (PEP 562)."""
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise  # a missing dependency of a real submodule
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
