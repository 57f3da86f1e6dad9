"""Spherically symmetric potentials built from power-law terms.

Every model is a finite sum of monomials c * r**p with real exponents, so
every radial derivative up to order six is available in closed form (the
sixth order is the highest one the correction coefficients consume), and
so is every derivative of gamma = V - V^2/(2 eta), by the Leibniz rule on
that stack.
The fall-to-center check that both solvers run first lives here too.
Units follow hbar = c = 1: masses and energies in GeV, lengths in 1/GeV.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .errors import (
    PotentialParseError,
    SupercriticalCouplingError,
    UnsupportedOrderError,
)

MAX_DERIVATIVE_ORDER = 6


@dataclass(frozen=True)
class ParticlePair:
    """Constituent masses and the derived kinematic parameters.

    ``mu`` is the reduced mass, ``nu = m1^3 m2^3 / (m1^3 + m2^3)`` and
    ``eta = nu / mu^2`` sets the size of the relativistic correction
    terms.  A pair built with ``relativistic=False`` reports an infinite
    eta; 1/eta = 0 then switches every correction term off exactly in
    the same formulas, and the solvers reproduce plain nonrelativistic
    spectra.
    """

    m1: float
    m2: float
    relativistic: bool = True

    def __post_init__(self):
        for name, m in (("m1", self.m1), ("m2", self.m2)):
            _require_positive(name, m)
            try:
                m**3  # nu takes the cube
            except OverflowError:
                raise ValueError(f"{name} = {m!r} GeV is too large: its "
                                 "cube overflows") from None
        masses = f"m1 = {self.m1!r} GeV and m2 = {self.m2!r} GeV"
        cubes = self.m1**3 * self.m2**3
        if self.relativistic and math.isinf(cubes):
            raise ValueError(f"{masses} are too large: the product of their "
                             "cubes overflows")
        # eta = nu / mu^2 must be positive: both solvers divide by it
        if self.mu**2 == 0.0:
            raise ValueError(f"{masses} are too small: the square of their "
                             "reduced mass underflows")
        if self.relativistic and cubes == 0.0:
            raise ValueError(f"{masses} are too small: the product of their "
                             "cubes underflows")

    @cached_property
    def mu(self) -> float:
        return self.m1 * self.m2 / (self.m1 + self.m2)

    @cached_property
    def nu(self) -> float:
        if not self.relativistic:
            return math.inf
        return (self.m1**3 * self.m2**3) / (self.m1**3 + self.m2**3)

    @cached_property
    def eta(self) -> float:
        return self.nu / self.mu**2

    @property
    def total_mass(self) -> float:
        return self.m1 + self.m2

    @classmethod
    def equal(cls, m: float, relativistic: bool = True) -> "ParticlePair":
        return cls(m, m, relativistic)

    def as_nonrelativistic(self) -> "ParticlePair":
        return ParticlePair(self.m1, self.m2, relativistic=False)


def _require_positive(name, value):
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class PotentialModel:
    """Potential V(r) = sum over terms of c * r**p.

    Instances are immutable and safe to share between workers.  Use the
    ``coulomb`` / ``oscillator`` / ``linear`` / ``coulomb_plus_linear`` /
    ``custom`` constructors or :func:`parse_potential`.
    """

    kind: str
    terms: tuple
    label: str

    @classmethod
    def coulomb(cls, alpha: float) -> "PotentialModel":
        """V(r) = -alpha / r with alpha > 0 (attractive)."""
        _require_positive("alpha", alpha)
        return cls("coulomb", ((-alpha, -1.0),), f"coulomb:alpha={alpha:g}")

    @classmethod
    def oscillator(cls, k: float) -> "PotentialModel":
        """V(r) = k r^2 / 2 with stiffness k > 0 (GeV^3)."""
        _require_positive("k", k)
        return cls("oscillator", ((0.5 * k, 2.0),), f"oscillator:k={k:g}")

    @classmethod
    def linear(cls, b: float) -> "PotentialModel":
        """V(r) = b r with slope b > 0 (GeV^2)."""
        _require_positive("b", b)
        return cls("linear", ((b, 1.0),), f"linear:b={b:g}")

    @classmethod
    def coulomb_plus_linear(cls, alpha: float, b: float) -> "PotentialModel":
        """V(r) = -alpha/r + b r, the Coulomb-plus-linear (Cornell) form."""
        _require_positive("alpha", alpha)
        _require_positive("b", b)
        return cls("cornell", ((-alpha, -1.0), (b, 1.0)),
                   f"cornell:alpha={alpha:g},b={b:g}")

    cornell = coulomb_plus_linear

    @classmethod
    def custom(cls, terms) -> "PotentialModel":
        """Arbitrary finite sum of (coefficient, power) monomials."""
        clean = tuple((float(c), float(p)) for c, p in terms)
        for c, p in clean:
            if not (math.isfinite(c) and math.isfinite(p)):
                raise ValueError(
                    f"custom potential term {c:g}*r^{p:g} is not finite")
        body = "+".join(f"{c:g}*r^{p:g}" for c, p in clean) or "0*r^0"
        return cls("custom", clean, "custom:" + body.replace("+-", "-"))

    # -- evaluation ------------------------------------------------------

    def derivatives(self, r, upto: int) -> list:
        """Exact [V, V', ..., V^(upto)] for 0 <= upto <= 6 and r > 0.

        Each monomial c * r**p contributes c * p (p-1) ... (p-k+1) r**(p-k)
        to the k-th entry; for non-negative integer p that prefactor
        vanishes identically once k exceeds p.  Python floats for a
        scalar r, arrays for an array r; ValueError where r <= 0.

        A scalar r is checked and summed on np.float64 scalars, cheaper
        than 0-d arrays, but every power stays on the 0-d array: numpy's
        array pow can differ by an ulp from libm's, which scalars use,
        and each array element must equal the scalar result.
        """
        if not 0 <= upto <= MAX_DERIVATIVE_ORDER:
            raise UnsupportedOrderError(
                f"derivative order must be in 0..{MAX_DERIVATIVE_ORDER}, got {upto}")
        rr = np.asarray(r, dtype=float)
        x = rr[()]  # np.float64 for a scalar r, the array itself otherwise
        if np.count_nonzero(x <= 0.0):
            raise ValueError("r must be positive")
        stack = [0.0 * x for _ in range(upto + 1)]
        for c, p in self.terms:
            fac = c
            for k in range(upto + 1):
                if fac == 0.0:
                    break
                stack[k] = stack[k] + fac * rr ** (p - k)
                fac *= p - k
        return [float(v) for v in stack] if rr.ndim == 0 else stack

    def evaluate(self, r):
        """V(r) for scalar or array r > 0."""
        return self.derivatives(r, 0)[0]

    def derivative(self, r, order: int):
        """Exact d^order V / dr^order for 0 <= order <= 6."""
        return self.derivatives(r, order)[order]

    def gamma_derivative(self, pair: ParticlePair, r, order: int):
        """Exact derivative of gamma(r) = V(r) - V(r)^2 / (2 eta)."""
        return gamma_from_stack(self.derivatives(r, order), pair.eta, order)

    # -- introspection ---------------------------------------------------

    def coulomb_strength(self) -> float:
        """alpha, minus the sum of the 1/r coefficients; < 0 if they repel."""
        return 0.0 - sum(c for c, p in self.terms if p == -1.0)

    def length_scales(self, mu: float) -> tuple:
        """Length scale of each term alone, for reduced mass mu.

        1/(mu |c|) for a 1/r term (its Bohr radius) and
        (mu |c|)^(-1/(p+2)) for a power p > 0; other terms and zero
        coefficients set no scale.  A nonzero c whose scale would not be
        finite and positive is refused.
        """
        scales = []
        for c, p in self.terms:
            if c == 0.0 or not (p == -1.0 or p > 0.0):
                continue
            strength = mu * abs(c)
            if strength == 0.0:
                scale = math.inf
            elif p == -1.0:
                scale = 1.0 / strength
            else:
                scale = strength ** (-1.0 / (p + 2.0))
            if not 0.0 < scale < math.inf:
                fault = ("their product underflows" if strength == 0.0
                         else f"its length scale would be {scale:g}")
                raise ValueError(
                    f"the coefficient {c!r} of the r^{p:g} term is too "
                    f"{'small' if scale else 'large'} for the reduced mass "
                    f"{mu!r} GeV: {fault}")
            scales.append(scale)
        return tuple(scales)

    def singular_powers(self) -> tuple:
        """Powers p < -1 present in the model (inverse-square or worse)."""
        return tuple(p for c, p in self.terms if p < -1.0 and c != 0.0)


def gamma_from_stack(stack, eta: float, order: int):
    """d^order gamma / dr^order from the V-derivative stack V^(0..order).

    The V^2 part is differentiated with the Leibniz rule.  With an
    infinite eta the V^2 part divides to zero, so gamma and V agree
    bitwise.
    """
    vsq = stack[0] * 0.0
    for k in range(order + 1):
        vsq = vsq + comb(order, k) * stack[k] * stack[order - k]
    return stack[order] - vsq / (2.0 * eta)


def fall_to_center_check(potential: PotentialModel, pair: ParticlePair,
                         l: int) -> float:
    """Margin s + 1/4 of the effective inverse-square core over the bound.

    The 1/r terms, of net coefficient -alpha of either sign, squared
    inside gamma produce an attractive -alpha^2/(2 eta r^2) core; the
    combined strength in units of 1/(2 mu r^2) is s = l(l+1) - mu
    alpha^2 / eta and must stay above -1/4.  Potentials with explicit
    powers below -1 are refused outright (their square is even more
    singular).  Below the bound the discrete spectrum is not bounded
    below, so both solvers refuse such input: SupercriticalCouplingError
    is raised unless the margin is positive.
    """
    bad = potential.singular_powers()
    if bad:
        s = -math.inf
    else:
        alpha = potential.coulomb_strength()
        # alpha / eta before the second alpha: a coupling whose square
        # overflows gives -inf here; with eta infinite there is no core,
        # even where the sum of the 1/r coefficients overflows
        s = float(l * (l + 1)) - (pair.mu * alpha / pair.eta * alpha
                                  if pair.relativistic else 0.0)
    margin = s + 0.25
    if not margin > 0.0:
        raise SupercriticalCouplingError(
            f"effective inverse-square strength {s:g} is below the -1/4 "
            f"bound (margin {margin:g})"
            + (f"; potential has non-integrable powers {bad}" if bad else ""))
    return margin


# parameter names of each kind, in the order its constructor takes them
_KIND_PARAMS = {
    "coulomb": ("alpha",),
    "oscillator": ("k",),
    "linear": ("b",),
    "cornell": ("alpha", "b"),
    "coulomb_plus_linear": ("alpha", "b"),
}

_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# the sign is the term's own, required on every term after the first
_TERM_RE = re.compile(rf"\s*(?P<sign>[+-]?)\s*(?P<coef>{_UNSIGNED})\s*\*\s*r"
                      rf"\s*\^\s*(?P<power>[+-]?{_UNSIGNED})\s*")


def _parse_custom_terms(body: str):
    terms = []
    pos = 0
    while pos < len(body):
        m = _TERM_RE.match(body, pos)
        if m is None or (terms and not m.group("sign")):
            raise PotentialParseError(
                f"cannot parse custom potential near {body[pos:]!r}; "
                "expected terms like '0.5*r^2-0.25*r^-1'")
        terms.append((float(m.group("sign") + m.group("coef")),
                      float(m.group("power"))))
        pos = m.end()
    if not terms:
        raise PotentialParseError("custom potential needs at least one term")
    return terms


def parse_potential(spec: str) -> PotentialModel:
    """Build a model from a spec string.

    Grammar: ``coulomb:alpha=0.25``, ``oscillator:k=1.0``,
    ``linear:b=0.18``, ``cornell:alpha=0.25,b=0.18`` and
    ``custom:<c>*r^<p>+...`` with signed real coefficients and powers.
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise PotentialParseError(
            f"potential spec {spec!r} must look like 'kind:param=value,...'")
    kind, _, body = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "custom":
        return PotentialModel.custom(_parse_custom_terms(body.strip()))
    if kind not in _KIND_PARAMS:
        raise PotentialParseError(
            f"unknown potential kind {kind!r}; expected one of "
            f"{sorted(set(_KIND_PARAMS))} or custom")
    wanted = _KIND_PARAMS[kind]
    params = {}
    for item in body.split(","):
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq or name not in wanted:
            raise PotentialParseError(
                f"bad parameter {item.strip()!r} for {kind}; expected {wanted}")
        if name in params:
            raise PotentialParseError(f"parameter {name!r} given twice in "
                                      f"{spec!r}")
        try:
            params[name] = float(value)
        except ValueError as exc:
            raise PotentialParseError(
                f"non-numeric value in {item.strip()!r}") from exc
    missing = [w for w in wanted if w not in params]
    if missing:
        raise PotentialParseError(f"{kind} is missing parameters {missing}")
    try:
        return getattr(PotentialModel, kind)(*(params[w] for w in wanted))
    except ValueError as exc:
        raise PotentialParseError(str(exc)) from exc
