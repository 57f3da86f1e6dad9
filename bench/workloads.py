"""The three workloads: their levels, how one operation runs, and its checks.

A workload is a fixed list of operations.  One pass runs every operation
once, in an order drawn from the seed, so every pass attempts the same
levels and the failed share is the same in every run.  An operation
returns one :class:`Outcome` per level it solved; the per-pass ordering
check then looks across the outcomes of the pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import references as ref


@dataclass(frozen=True)
class System:
    """One potential with one pair of masses, built from public constructors."""

    name: str
    kind: str
    params: tuple
    m1: float
    relativistic: bool = True

    @property
    def m2(self):
        return self.m1

    def potential(self, slet):
        return getattr(slet.potentials.PotentialModel, self.kind)(*self.params)

    def pair(self, slet):
        return slet.potentials.ParticlePair.equal(self.m1, self.relativistic)


CORNELL = System("cornell", "cornell", (0.25, 0.18), 1.45)
OSCILLATOR = System("oscillator", "oscillator", (1.0,), 1.31)
OSCILLATOR_NR = System("oscillator-nr", "oscillator", (1.0,), 1.31, False)
COULOMB = System("coulomb", "coulomb", (0.25,), 1.45)
COULOMB_NR = System("coulomb-nr", "coulomb", (0.25,), 1.45, False)

# V(r) of the two reference tables, coded apart from the program
TABLE_POTENTIALS = {2: lambda r: 0.5 * r * r,
                    3: lambda r: -0.25 / r + 0.18 * r}
TABLE_MASS = {2: 1.31, 3: 1.45}


@dataclass
class Outcome:
    """One attempted level: its energies, or the reason it failed."""

    key: str
    n: int
    l: int
    energies: dict = field(default_factory=dict)
    failure: str | None = None


def _error_reason(exc):
    stage = getattr(exc, "stage", None)
    return type(exc).__name__ + (f" at stage {stage}" if stage else "")


def _first_failure(*reasons):
    for reason in reasons:
        if reason is not None:
            return reason
    return None


def _reference_check(system, n, l, energy, label):
    """Closed-form or exact-implicit check where the system has one."""
    if system.kind == "coulomb":
        exact = ref.reduced_coulomb_energy(system.params[0], system.m1,
                                           system.m2, n, l,
                                           system.relativistic)
        if not system.relativistic:
            tolerance = ref.NONRELATIVISTIC_RELATIVE
        elif label == "oracle":
            tolerance = ref.ORACLE_COULOMB_RELATIVE
        else:
            tolerance = ref.SLET_COULOMB_RELATIVE
        return ref.check_relative(f"{label} vs exact Coulomb", energy, exact,
                                  tolerance)
    if system.kind == "oscillator" and not system.relativistic:
        exact = ref.oscillator_nr_energy(system.params[0], system.m1,
                                         system.m2, n, l)
        return ref.check_relative(f"{label} vs exact oscillator", energy,
                                  exact, ref.NONRELATIVISTIC_RELATIVE)
    return None


class Workload:
    """Base: a list of operations run in seeded order, pass after pass."""

    name = ""
    series = ("E",)
    # (key, n, l) of levels that fail every time through a known program
    # fault; they are attempted and counted as failed
    KNOWN_FAULTS = frozenset()
    # (System, ((n, l), ...)) rows; one operation per level
    LEVELS = ()

    def __init__(self, slet):
        self.slet = slet

    def operations(self):
        return [(system, n, l) for system, levels in self.LEVELS
                for n, l in levels]

    def levels_per_pass(self):
        return len(self.operations())

    def warmup(self):
        """One level of this workload's kind, as paid at start-up."""
        raise NotImplementedError

    def solve(self, op):
        """Run one operation through the program; the part that is timed."""
        raise NotImplementedError

    def outcomes(self, op, raw):
        """Check what :meth:`solve` returned; one Outcome per level."""
        raise NotImplementedError

    def passes(self, seed: int):
        """Endless passes, each every operation once in a seeded order."""
        rng = random.Random(seed)
        ops = self.operations()
        while True:
            ops = list(ops)
            rng.shuffle(ops)
            yield ops

    def check_pass(self, outcomes):
        """Mark levels whose energy does not increase with n at fixed l."""
        for label in self.series:
            groups = {}
            for o in outcomes:
                if o.failure is None:
                    groups.setdefault((o.key, o.l), {})[o.n] = o
            for by_n in groups.values():
                bad = ref.check_increasing(
                    {n: o.energies[label] for n, o in by_n.items()})
                for n, reason in bad.items():
                    by_n[n].failure = f"{label} {reason}"


class Tables(Workload):
    """The paper's Tables 2 and 3 through ``cli.run_table``.

    One operation is one ``run_table`` call of 15 levels.
    """

    name = "tables"

    def operations(self):
        return [2, 3]

    def levels_per_pass(self):
        return sum(len(ref.PRINTED[t]) for t in self.operations())

    def warmup(self):
        engine = self.slet.engine
        engine.solve(CORNELL.potential(self.slet), CORNELL.pair(self.slet),
                     engine.QuantumNumbers(0, 0))

    def solve(self, table_id):
        records, _, _ = self.slet.cli.run_table(table_id)
        return records

    def outcomes(self, table_id, records):
        out = []
        mass = TABLE_MASS[table_id]
        for rec in records:
            o = Outcome(f"table{table_id}", rec.n, rec.l,
                        {"E": rec.E_binding_GeV})
            terms = ref.series_terms(rec, TABLE_POTENTIALS[table_id], mass,
                                     mass)
            o.failure = ref.check_printed_cell(table_id, rec.n, rec.l,
                                               rec.E_binding_GeV, terms)
            out.append(o)
        return out


class Excited(Workload):
    """``engine.solve`` at high quantum numbers, one level per operation."""

    name = "excited"
    LEVELS = (
        (CORNELL, ((60, 2), (120, 2), (200, 2), (100, 10), (160, 10))),
        (OSCILLATOR, ((60, 0), (120, 0), (80, 5), (150, 5), (200, 8))),
        (OSCILLATOR_NR, ((80, 1), (150, 1), (100, 7))),
        (COULOMB, ((5, 1), (9, 1), (4, 3), (8, 3), (13, 0), (12, 4))),
        (COULOMB_NR, ((4, 2), (9, 2), (10, 3))),
    )
    # n + l + 1 >= 14 puts r0 beyond the fixed default r0 bracket (1e-3,
    # 1e3), so solve_r0 raises BracketingError for these every time
    KNOWN_FAULTS = {("coulomb", 13, 0), ("coulomb", 12, 4),
                    ("coulomb-nr", 10, 3)}

    def warmup(self):
        self.solve((CORNELL, 60, 2))

    def solve(self, op):
        system, n, l = op
        engine = self.slet.engine
        try:
            return engine.solve(system.potential(self.slet),
                                system.pair(self.slet),
                                engine.QuantumNumbers(n, l))
        except self.slet.errors.SletError as exc:
            return exc

    def outcomes(self, op, sol):
        system, n, l = op
        o = Outcome(system.name, n, l)
        if isinstance(sol, Exception):
            o.failure = _error_reason(sol)
            return [o]
        o.energies["E"] = sol.binding_energy
        closed = ref.alpha1_closed_form(n, sol.omega, sol.eps_bar)
        o.failure = _first_failure(
            ref.check_relative("alpha1 vs closed form", sol.alpha1, closed,
                               ref.ALPHA1_RELATIVE),
            _reference_check(system, n, l, sol.binding_energy, "SLET"))
        return [o]


class Compare(Workload):
    """``cli.run_compare``: expansion and grid solver, one level at a time."""

    name = "compare"
    series = ("slet", "oracle")
    LEVELS = (
        (CORNELL, tuple((n, l) for n in range(3) for l in range(3))),
        (OSCILLATOR, tuple((n, l) for n in range(3) for l in range(3))),
        (COULOMB, tuple((n, 0) for n in range(6))),
    )
    # the default box r_max = 40/(mu alpha) cuts off the excited Coulomb
    # wavefunctions, so the grid solver misses the exact level every time
    KNOWN_FAULTS = {("coulomb", 3, 0), ("coulomb", 4, 0), ("coulomb", 5, 0)}

    def warmup(self):
        self.solve((CORNELL, 0, 0))

    def solve(self, op):
        system, n, l = op
        cli = self.slet.cli
        manifest = cli.RunManifest(potential=system.potential(self.slet),
                                   m1=system.m1, m2=system.m2,
                                   levels=[(n, l)], method="both",
                                   nonrelativistic=not system.relativistic)
        rows, _ = cli.run_compare(manifest)
        return rows[0]

    def outcomes(self, op, row):
        system, n, l = op
        o = Outcome(system.name, n, l)
        if row["status"] != "ok":
            o.failure = row["status"]
            return [o]
        e_slet, e_oracle = row["E_slet_GeV"], row["E_oracle_GeV"]
        o.energies = {"slet": e_slet, "oracle": e_oracle}
        o.failure = _first_failure(
            _reference_check(system, n, l, e_oracle, "oracle"),
            _reference_check(system, n, l, e_slet, "SLET"),
            ref.check_absolute("|SLET - oracle|", e_slet, e_oracle,
                               ref.SLET_ORACLE_ENVELOPE))
        return [o]


WORKLOADS = {cls.name: cls for cls in (Tables, Excited, Compare)}
