"""Call counts, total and self time of public functions, wrapped from outside.

Each function is replaced through its module (or class) attribute, so
calls made from inside a module, which look the name up at call time,
are caught as well as calls from the benchmark.  A function's self time
is its total time minus the time of the wrapped functions it called.
Spans stay in memory; :meth:`Tracer.summary` reduces them at the end.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (owner path, attribute) pairs, resolved inside the imported ``slet``
# package.  engine.solve and oracle.solve_selfconsistent fence the solvers
# off, so the self time of cli.run_table and cli.run_compare is the CLI's
# own work around them.
TRACED = (
    ("engine", "solve"),
    ("engine", "solve_r0"),
    ("engine", "r0_residual"),
    ("engine", "geometry_at"),
    ("engine", "taylor_coefficients"),
    ("potentials.PotentialModel", "evaluate"),
    ("potentials.PotentialModel", "derivative"),
    ("potentials.PotentialModel", "gamma_derivative"),
    ("perturbation", "rspt_coefficients"),
    ("perturbation", "position_power_matrix"),
    ("oracle", "solve_selfconsistent"),
    ("oracle", "effective_operator"),
    ("oracle", "nth_eigenvalue"),
    ("oracle", "nth_eigenpair"),
    ("oracle", "escape_radius"),
    ("fixtures", "verify_integrity"),
    ("cli", "run_table"),
    ("cli", "run_compare"),
)


def _owner(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def short_name(path: str, attr: str) -> str:
    """``potentials.PotentialModel.derivative`` -> ``potentials.derivative``."""
    return f"{path.split('.')[0]}.{attr}"


class Tracer:
    """Installs wrappers on :data:`TRACED` and accumulates their spans.

    Use as a context manager; leaving it restores every original
    attribute, also when the body raises.
    """

    def __init__(self, package):
        self.package = package
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.outer_iterations = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, func):
        calls, total, self_time, stack = (self.calls, self.total,
                                          self.self_time, self._stack)
        record_outer = name == "oracle.solve_selfconsistent"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                children = stack.pop()
                calls[name] += 1
                total[name] += spent
                self_time[name] += spent - children
                if stack:
                    stack[-1] += spent
            if record_outer:
                self.outer_iterations.append(result.outer_iterations)
            return result

        return wrapper

    def __enter__(self):
        for path, attr in TRACED:
            owner = _owner(self.package, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(short_name(path, attr), original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def summary(self):
        """{name: (calls, total seconds, self seconds)} for called functions."""
        return {name: (self.calls[name], self.total[name],
                       self.self_time[name]) for name in self.calls}
