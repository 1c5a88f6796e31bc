import numpy as np
import pytest

from curvedks.domain import CartesianGrid
from curvedks.geometry import ConformalFactor
from curvedks.potential import newtonian_potential
from curvedks.profiles import (ScaledCauchyProfile, mu_coulomb_identity, mu_entropy_identity,
                               mu_potential_identity)


def test_rho_peak_value():
    p = ScaledCauchyProfile(lam=1.0)
    assert 8 * np.pi * p(0.0, 0.0) == pytest.approx(8.0, rel=1e-14)


def test_mu_peak_value():
    p = ScaledCauchyProfile(lam=1.0)
    assert p(0.0, 0.0) == pytest.approx(1 / np.pi, rel=1e-14)


def test_mu_off_center_value():
    # lam=2 at distance 2: 4 / (pi * (4+4)^2) = 1/(16 pi)
    p = ScaledCauchyProfile(lam=2.0)
    assert p(2.0, 0.0) == pytest.approx(1 / (16 * np.pi), rel=1e-14)


def test_entropy_identity_lambda_shift():
    m = 8 * np.pi
    # scaling lam by e lowers the value by exactly 2m
    assert mu_entropy_identity(m, np.e * 1.3) - mu_entropy_identity(m, 1.3) == \
        pytest.approx(-2 * m, rel=1e-12)


def test_entropy_identity_against_quadrature():
    # brute-force quadrature oracle for the closed form
    g = CartesianGrid(center=(0, 0), half_width=400.0, n=2048)
    m = 8 * np.pi
    vals = m * ScaledCauchyProfile(lam=1.0).on_grid(g)
    numeric = g.integrate(vals * np.log(vals))
    assert numeric == pytest.approx(mu_entropy_identity(m, 1.0), abs=1e-2)


def test_potential_identity_center_value():
    assert mu_potential_identity(1.0, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)


def test_potential_identity_matches_numeric_convolution():
    g = CartesianGrid(center=(0, 0), half_width=150.0, n=1024)
    mu = ScaledCauchyProfile(lam=1.0).on_grid(g)
    c = newtonian_potential(mu, ConformalFactor.zero(), g)
    for probe in [(0.73, 0.0), (2.2, 1.1), (5.0, -3.0)]:
        i = np.argmin(np.abs(g.x - probe[0]))
        j = np.argmin(np.abs(g.y - probe[1]))
        closed = mu_potential_identity(1.0, (g.x[i], g.y[j]))
        assert c.samples[i, j] == pytest.approx(closed, abs=1e-3)


def test_potential_identity_lambda_shift():
    # at fixed r/lam the value drops by (1/2pi) per ln-lambda unit
    r_over_lam = 3.0
    v1 = mu_potential_identity(1.0, (r_over_lam, 0.0))
    v2 = mu_potential_identity(2.0, (2.0 * r_over_lam, 0.0))
    assert v2 - v1 == pytest.approx(-np.log(2.0) / (2 * np.pi), rel=1e-12)


def test_coulomb_identity_values():
    assert mu_coulomb_identity(1.0) == pytest.approx(-1 / (4 * np.pi), rel=1e-14)
    assert mu_coulomb_identity(np.e) == pytest.approx(-1 / (2 * np.pi) - 1 / (4 * np.pi),
                                                      rel=1e-14)


def test_coulomb_identity_against_double_sum():
    g = CartesianGrid(center=(0, 0), half_width=60.0, n=512)
    mu = ScaledCauchyProfile(lam=1.0).on_grid(g)
    c = newtonian_potential(mu, ConformalFactor.zero(), g)
    numeric = np.sum(mu * c.samples) * g.cell_area
    assert numeric == pytest.approx(mu_coulomb_identity(1.0), abs=2e-3)


def test_identities_hold_under_refinement():
    # errors of all three identities shrink at order >= 1.5
    from conftest import lstsq_order
    ns = [256, 512, 1024]
    ent_errs, pot_errs, cou_errs = [], [], []
    for n in ns:
        g = CartesianGrid(center=(0, 0), half_width=100.0, n=n)
        m = 8 * np.pi
        vals = m * ScaledCauchyProfile(lam=0.5).on_grid(g)
        numeric = g.integrate(vals * np.log(vals))
        # compare against the tail-corrected target so truncation does not floor the order
        tail = _entropy_tail(m, 0.5, 100.0)
        ent_errs.append(abs(numeric - (mu_entropy_identity(m, 0.5) - tail)))
        mu = ScaledCauchyProfile(lam=0.5).on_grid(g)
        c = newtonian_potential(mu, ConformalFactor.zero(), g)
        i = np.argmin(np.abs(g.x - 1.0))
        j = np.argmin(np.abs(g.y))
        pot_errs.append(abs(c.samples[i, j] - mu_potential_identity(0.5, (g.x[i], g.y[j]))))
        gc = CartesianGrid(center=(0, 0), half_width=30.0, n=n)
        muc = ScaledCauchyProfile(lam=0.5).on_grid(gc)
        cc = newtonian_potential(muc, ConformalFactor.zero(), gc)
        cou_errs.append(abs(np.sum(muc * cc.samples) * gc.cell_area
                            - mu_coulomb_identity(0.5)))
    assert lstsq_order(ns, ent_errs) >= 1.5 or max(ent_errs) < 1e-6
    assert lstsq_order(ns, pot_errs) >= 1.5 or max(pot_errs) < 5e-5
    # the Coulomb error bottoms out on its truncation floor; require the
    # pre-floor refinement step to be at least order 1.5
    assert cou_errs[1] <= cou_errs[0] / 2.8 or max(cou_errs) < 5e-4


def _entropy_tail(m, lam, R):
    # int_{r>R} m mu ln(m mu) dA0 for the scaled Cauchy profile, leading order
    from scipy import integrate
    def f(r):
        mu = lam**2 / (np.pi * (lam**2 + r**2) ** 2)
        return m * mu * np.log(m * mu) * 2 * np.pi * r
    val, _ = integrate.quad(f, R, np.inf, limit=200)
    return val


def test_translation_invariance_of_identities():
    # identity values do not depend on the center
    g = CartesianGrid(center=(3.0, -1.0), half_width=60.0, n=512)
    mu = ScaledCauchyProfile(lam=1.0, x_star=(3.0, -1.0)).on_grid(g)
    c = newtonian_potential(mu, ConformalFactor.zero(), g)
    numeric = np.sum(mu * c.samples) * g.cell_area
    assert numeric == pytest.approx(mu_coulomb_identity(1.0), abs=2e-3)


def _dirac_integrals(f, lams, grid):
    """int mu_lam f dA0 on the grid, for each lambda."""
    fs = f(*grid.meshes())
    return [grid.integrate(ScaledCauchyProfile(lam=lam).on_grid(grid) * fs) for lam in lams]


def test_dirac_unit_mass_for_every_lambda():
    # at least 4 cells per lambda, and an off-grid tail below lam^2 / R^2 < 3e-3
    g = CartesianGrid(center=(0, 0), half_width=40.0, n=1024)
    for v in _dirac_integrals(lambda X, Y: np.ones_like(X), [2.0, 1.0, 0.5], g):
        assert v == pytest.approx(1.0, abs=5e-3)


def test_dirac_gaussian_error_decreases():
    # int mu_lam f dA0 -> f(0) = 1 monotonically as lambda shrinks
    g = CartesianGrid(center=(0, 0), half_width=20.0, n=512)
    vals = _dirac_integrals(lambda X, Y: np.exp(-(X**2 + Y**2)), [2.0, 1.0, 0.5, 0.25], g)
    errs = [abs(v - 1.0) for v in vals]
    assert all(a >= b - 1e-14 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0]


def test_dirac_linear_field_exact(grid64):
    # odd moments vanish on the symmetric lattice: for linear f the
    # normalized integral equals f(x_star) exactly, at every lambda
    lams = [1.0, 0.5]
    vals = _dirac_integrals(lambda X, Y: 2.0 + 3.0 * X - Y, lams, grid64)
    masses = _dirac_integrals(lambda X, Y: np.ones_like(X), lams, grid64)
    for v, m in zip(vals, masses):
        assert v / m == pytest.approx(2.0, rel=1e-12)
