import math
import re

import numpy as np
import pytest

from slet.errors import PotentialParseError, UnsupportedOrderError
from slet.potentials import (
    MAX_DERIVATIVE_ORDER,
    ParticlePair,
    PotentialModel,
    parse_potential,
)

BUILTINS = [
    PotentialModel.coulomb(0.25),
    PotentialModel.oscillator(1.0),
    PotentialModel.linear(0.18),
    PotentialModel.coulomb_plus_linear(0.25, 0.18),
    PotentialModel.custom([(0.3, 2.5), (-0.1, -0.5)]),
]

R_GRID = (0.3, 0.7, 1.5, 3.0, 8.0)


def five_point(f, r, h):
    """Independent 5-point central first-derivative stencil."""
    return (-f(r + 2 * h) + 8 * f(r + h) - 8 * f(r - h) + f(r - 2 * h)) / (12 * h)


class TestEvaluate:
    def test_coulomb(self):
        assert PotentialModel.coulomb(0.25).evaluate(2.0) == -0.125

    def test_linear(self):
        assert PotentialModel.linear(0.18).evaluate(1.0) == 0.18

    def test_cornell(self):
        got = PotentialModel.coulomb_plus_linear(0.25, 0.18).evaluate(1.0)
        assert got == pytest.approx(-0.07, abs=1e-15)

    def test_vectorized(self):
        pot = PotentialModel.linear(0.18)
        np.testing.assert_allclose(pot.evaluate(np.array([1.0, 2.0])),
                                   [0.18, 0.36])

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_radius(self, bad):
        with pytest.raises(ValueError):
            BUILTINS[0].evaluate(bad)
        with pytest.raises(ValueError):
            BUILTINS[0].derivative(bad, 1)
        with pytest.raises(ValueError):
            BUILTINS[0].derivatives(np.array([1.0, bad]), 2)


class TestDerivative:
    def test_coulomb_hand_formula(self):
        # V = -a/r  =>  V^(j) = -a (-1)^j j! r^(-j-1)
        pot = PotentialModel.coulomb(0.25)
        assert pot.derivative(1.0, 2) == pytest.approx(-0.5, rel=1e-14)
        for j in range(MAX_DERIVATIVE_ORDER + 1):
            for r in R_GRID:
                expect = -0.25 * (-1.0) ** j * math.factorial(j) * r ** (-j - 1)
                assert pot.derivative(r, j) == pytest.approx(expect, rel=1e-13)

    def test_linear_high_orders_vanish(self):
        pot = PotentialModel.linear(0.18)
        for r in R_GRID:
            assert pot.derivative(r, 3) == 0.0
            assert pot.derivative(r, 2) == 0.0

    def test_oscillator_curvature(self):
        assert PotentialModel.oscillator(1.0).derivative(3.0, 2) == 1.0

    @pytest.mark.parametrize("pot", BUILTINS, ids=lambda p: p.label)
    def test_order_zero_is_evaluate(self, pot):
        for r in R_GRID:
            assert pot.derivative(r, 0) == pot.evaluate(r)

    @pytest.mark.parametrize("order", [-1, 7, 12])
    def test_unsupported_order(self, order):
        with pytest.raises(UnsupportedOrderError):
            BUILTINS[0].derivative(1.0, order)
        with pytest.raises(UnsupportedOrderError):
            BUILTINS[0].derivatives(1.0, order)

    @pytest.mark.parametrize("pot", BUILTINS, ids=lambda p: p.label)
    def test_stack_scalar_and_array(self, pot):
        # a scalar r gives plain Python floats (CSV cells are reprs), and
        # each element of an array stack equals the scalar stack there
        arrays = pot.derivatives(np.array(R_GRID), MAX_DERIVATIVE_ORDER)
        assert len(arrays) == MAX_DERIVATIVE_ORDER + 1
        for i, r in enumerate(R_GRID):
            stack = pot.derivatives(r, MAX_DERIVATIVE_ORDER)
            assert all(type(v) is float for v in stack)
            assert [float(a[i]) for a in arrays] == stack

    @pytest.mark.parametrize("pot", BUILTINS, ids=lambda p: p.label)
    def test_against_finite_differences(self, pot):
        # each order checked against a stencil built on the previous one
        for order in range(1, MAX_DERIVATIVE_ORDER + 1):
            for r in R_GRID:
                fd = five_point(lambda x: pot.derivative(x, order - 1),
                                r, 0.005 * r)
                exact = pot.derivative(r, order)
                assert fd == pytest.approx(
                    exact, rel=1e-6, abs=1e-9 * max(1.0, abs(exact)))


class TestGamma:
    def test_coulomb_value(self, pair_145):
        pot = PotentialModel.coulomb(0.25)
        expect = -0.25 - 0.0625 / (2.0 * pair_145.eta)
        assert pot.gamma_derivative(pair_145, 1.0, 0) == pytest.approx(
            expect, rel=1e-12)
        assert expect == pytest.approx(-0.26077586, abs=1e-8)

    def test_nonrelativistic_sentinel_bitwise(self):
        pot = PotentialModel.coulomb_plus_linear(0.25, 0.18)
        nr = ParticlePair.equal(1.45, relativistic=False)
        for order in range(MAX_DERIVATIVE_ORDER + 1):
            for r in R_GRID:
                assert pot.gamma_derivative(nr, r, order) == pot.derivative(r, order)

    def test_linear_second_derivative(self, pair_145):
        # gamma'' of b r is -(1/2 eta) (V^2)'' = -b^2/eta; finite
        # differences on gamma itself give the independent check
        b = 0.18
        pot = PotentialModel.linear(b)
        expect = -b * b / pair_145.eta
        assert pot.gamma_derivative(pair_145, 2.0, 2) == pytest.approx(
            expect, rel=1e-12)
        fd = five_point(lambda r: pot.gamma_derivative(pair_145, r, 1),
                        2.0, 0.01)
        assert fd == pytest.approx(expect, rel=1e-6)

    def test_cornell_leibniz_decomposition(self, pair_145):
        # gamma_cornell^(j) = gamma_coulomb^(j) + gamma_linear^(j)
        #                     - (1/eta) sum C(j,k) V1^(k) V2^(j-k)
        eta = pair_145.eta
        cor = PotentialModel.coulomb_plus_linear(0.25, 0.18)
        cou = PotentialModel.coulomb(0.25)
        lin = PotentialModel.linear(0.18)
        for j in range(MAX_DERIVATIVE_ORDER + 1):
            for r in R_GRID:
                cross = sum(math.comb(j, k) * cou.derivative(r, k)
                            * lin.derivative(r, j - k) for k in range(j + 1))
                expect = (cou.gamma_derivative(pair_145, r, j)
                          + lin.gamma_derivative(pair_145, r, j)
                          - cross / eta)
                got = cor.gamma_derivative(pair_145, r, j)
                assert got == pytest.approx(expect, rel=1e-12,
                                            abs=1e-12 * max(1.0, abs(expect)))


class TestParticlePair:
    def test_equal_mass_identities(self):
        pair = ParticlePair.equal(1.45)
        assert pair.mu == pytest.approx(1.45 / 2.0, rel=1e-15)
        assert pair.nu == pytest.approx(1.45**3 / 2.0, rel=1e-15)
        assert pair.eta == pytest.approx(2.0 * 1.45, rel=1e-15)

    def test_random_masses(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m1, m2 = rng.uniform(0.1, 10.0, size=2)
            pair = ParticlePair(m1, m2)
            assert pair.mu == pytest.approx(m1 * m2 / (m1 + m2), rel=1e-14)
            assert pair.nu == pytest.approx(
                m1**3 * m2**3 / (m1**3 + m2**3), rel=1e-14)
            assert pair.eta > 0.0

    def test_derived_masses_kept(self):
        # computed on the first read, the same object afterwards, and
        # equal bit for bit to the formulas
        pair = ParticlePair(1.45, 4.8)
        mu, nu, eta = pair.mu, pair.nu, pair.eta
        assert (pair.mu, pair.nu, pair.eta) == (mu, nu, eta)
        assert pair.mu is mu and pair.nu is nu and pair.eta is eta
        assert mu == 1.45 * 4.8 / (1.45 + 4.8)
        assert nu == 1.45**3 * 4.8**3 / (1.45**3 + 4.8**3)
        assert eta == nu / mu**2
        # the pair stays frozen and compares by its masses alone
        with pytest.raises(AttributeError):
            pair.mu = 1.0
        assert pair == ParticlePair(1.45, 4.8)
        assert hash(pair) == hash(ParticlePair(1.45, 4.8))

    def test_invalid_masses(self):
        with pytest.raises(ValueError):
            ParticlePair(0.0, 1.0)
        with pytest.raises(ValueError):
            ParticlePair(1.0, -2.0)
        for m in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                ParticlePair(m, 1.0)
        # the cube that nu takes would overflow
        with pytest.raises(ValueError, match="m2 = 1e\\+300 GeV"):
            ParticlePair(1.0, 1e300, relativistic=False)
        # finite cubes whose product, which nu takes, overflows
        with pytest.raises(ValueError,
                           match="m1 = 1e\\+100 GeV and m2 = 1e\\+100 GeV"):
            ParticlePair(1e100, 1e100)
        assert math.isinf(ParticlePair(1e100, 1e100, relativistic=False).eta)
        # eta would be 0, or divide by a reduced mass squared to 0
        with pytest.raises(ValueError, match="m1 = 1e-60 GeV and m2 = "
                           "1e-60 GeV are too small: the product of their "
                           "cubes underflows"):
            ParticlePair(1e-60, 1e-60)
        with pytest.raises(ValueError, match="m1 = 1e-200 GeV and m2 = 1 "
                           "GeV are too small: the square of their reduced "
                           "mass underflows"):
            ParticlePair(1e-200, 1, relativistic=False)

    def test_sentinel(self):
        pair = ParticlePair.equal(1.0, relativistic=False)
        assert math.isinf(pair.eta)
        assert ParticlePair(1.0, 2.0).as_nonrelativistic().eta == math.inf


class TestParse:
    @pytest.mark.parametrize("pot", BUILTINS, ids=lambda p: p.label)
    def test_label_round_trip(self, pot):
        again = parse_potential(pot.label)
        assert again.terms == pot.terms

    def test_cornell_spec(self):
        pot = parse_potential("cornell:alpha=0.25,b=0.18")
        assert pot.terms == ((-0.25, -1.0), (0.18, 1.0))
        alias = parse_potential("coulomb_plus_linear:alpha=0.25,b=0.18")
        assert alias.terms == pot.terms

    def test_custom_spec(self):
        pot = parse_potential("custom:0.5*r^2-0.25*r^-1")
        assert pot.terms == ((0.5, 2.0), (-0.25, -1.0))

    @pytest.mark.parametrize("bad", [
        "nope", "coulomb", "coulomb:beta=1", "coulomb:alpha=x",
        "cornell:alpha=0.25", "custom:r+1", "oscillator:k=-2",
        "oscillator:k=inf", "cornell:alpha=0.25,b=0.18,alpha=9",
        # a sign belongs to one term: none missing, none stray or doubled
        "custom:1*r^2+", "custom:1*r^2 1*r^3", "custom:1*r^2++1*r^1",
        "custom:1*r^2-+1*r^3",
    ])
    def test_malformed(self, bad):
        with pytest.raises(PotentialParseError):
            parse_potential(bad)


class TestIntrospection:
    def test_coulomb_strength(self):
        assert PotentialModel.coulomb(0.3).coulomb_strength() == 0.3
        assert PotentialModel.oscillator(1.0).coulomb_strength() == 0.0
        # minus the sum of the 1/r coefficients, negative when they repel
        split = PotentialModel.custom([(-0.1, -1.0), (1.0, 2.0), (-0.2, -1.0)])
        assert split.coulomb_strength() == 0.1 + 0.2
        repulsive = PotentialModel.custom([(0.4, -1.0), (1.0, 2.0)])
        assert repulsive.coulomb_strength() == -0.4

    def test_length_scales(self):
        cornell = PotentialModel.coulomb_plus_linear(0.25, 0.18)
        assert cornell.length_scales(0.5) == (1.0 / (0.5 * 0.25),
                                              (0.5 * 0.18) ** (-1.0 / 3.0))
        # a zero coefficient and a power in (-1, 0] set no scale
        scale_free = PotentialModel.custom([(0.0, 2.0), (-1.0, -0.5)])
        assert scale_free.length_scales(0.5) == ()
        # mu |c| underflows to 0: the scale would be infinite
        for model, term in ((PotentialModel.linear(5e-324), "5e-324 of the "
                             "r^1 term"),
                            (PotentialModel.coulomb(5e-324), "-5e-324 of the "
                             "r^-1 term")):
            message = (f"coefficient {term} is too small for the reduced "
                       "mass 0.5 GeV: their product underflows")
            with pytest.raises(ValueError, match=re.escape(message)):
                model.length_scales(0.5)
        # mu |c| overflows, or the reciprocal of a subnormal mu |c| does
        for model, mu, message in (
                (PotentialModel.custom([(1e300, 0.5)]), 1e10,
                 "coefficient 1e+300 of the r^0.5 term is too large for the "
                 "reduced mass 10000000000.0 GeV: its length scale would be "
                 "0"),
                (PotentialModel.coulomb(1e-310), 0.5,
                 "coefficient -1e-310 of the r^-1 term is too small for the "
                 "reduced mass 0.5 GeV: its length scale would be inf")):
            with pytest.raises(ValueError, match=re.escape(message)):
                model.length_scales(mu)
