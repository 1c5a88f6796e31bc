import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedks.domain import CartesianGrid
from curvedks.geometry import ConformalFactor
from curvedks.energy import (conformal_covariance_check, free_energy, lambda_scan,
                             log_hls_deficit)
from curvedks.potential import estimate_tail, lattice_potential
from curvedks.profiles import ScaledCauchyProfile, mu_entropy_identity
from curvedks.stationary import DensityField, density_from_profile

CRITICAL_F = 8 * np.pi * np.log(8 / np.e)   # free energy of the critical family


@pytest.fixture(scope="module")
def scan_grid():
    return CartesianGrid(center=(0, 0), half_width=60.0, n=512)


def test_critical_family_energy_is_lambda_independent(flat_phi, scan_grid):
    for lam in [0.5, 1.0, 2.0]:
        fld = density_from_profile(8 * np.pi, lam, (0.0, 0.0), flat_phi, scan_grid)
        rep = free_energy(fld)
        assert rep.total == pytest.approx(CRITICAL_F, abs=0.3)


def test_assembly_identity_exact(flat_phi, grid64):
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, grid64)
    rep = free_energy(fld, q=1.3)
    assert rep.total == rep.entropy_term - 0.5 * rep.coulomb_term + 1.3 * rep.coupling_term


def test_entropy_term_matches_identity(flat_phi):
    # lambda-proportional domain keeps peak resolution and tail in balance
    for lam in [0.5, 1.0, 2.0]:
        g = CartesianGrid(center=(0, 0), half_width=200.0 * lam, n=1024)
        fld = density_from_profile(8 * np.pi, lam, (0.0, 0.0), flat_phi, g)
        rep = free_energy(fld)
        assert rep.entropy_term == pytest.approx(
            mu_entropy_identity(8 * np.pi, lam), abs=1e-2 * max(1.0, abs(rep.entropy_term)))


def test_coulomb_term_equals_charges_against_potential(bump_phi, grid64):
    # without c the term is the Parseval energy of the charges; with c it is
    # their dot product with c; both are (q, c) for the explicit potential
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), bump_phi, grid64)
    q = fld.samples * fld.geometry.weights
    c = lattice_potential(q, grid64)
    want = float(np.sum(q * c))
    assert free_energy(fld).coulomb_term == pytest.approx(want, rel=1e-13)
    assert free_energy(fld, c=c).coulomb_term == want


def test_coupled_minimizer_at_q2():
    # with coupling constant 2 the curved profile family is lambda-independent
    # (value pinned at the critical plateau) and minimizes among candidates
    phi = ConformalFactor.radial_bump(0.08, 3.0)
    g = CartesianGrid(center=(0, 0), half_width=40.0, n=512)
    vals = {}
    for lam in [0.5, 1.0, 2.0]:
        fld = density_from_profile(8 * np.pi, lam, (0.0, 0.0), phi, g)
        vals[lam] = free_energy(fld, q=2.0).total
        assert vals[lam] == pytest.approx(CRITICAL_F, abs=0.3)
    spread = max(vals.values()) - min(vals.values())
    assert spread < 0.35
    # a perturbed same-mass candidate lies strictly higher than the matched row
    base = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), phi, g)
    X, Y = g.meshes()
    tilt = base.samples * np.exp(0.8 * np.exp(-((X - 1) ** 2 + Y**2)))
    tilt *= base.mass / np.sum(tilt * base.geometry.weights)
    cand = DensityField(grid=g, samples=tilt, phi=phi)
    assert free_energy(cand, q=2.0).total > vals[1.0] + 0.03


def test_deficit_zero_at_minimizer(flat_phi, scan_grid):
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, scan_grid)
    rep = log_hls_deficit(fld, 1.0, (0.0, 0.0))
    assert abs(rep.deficit) <= 2e-2


def test_deficit_vanishes_along_the_whole_family(flat_phi, scan_grid):
    # the equality set of the inequality is the full conformal family: testing
    # the scale-2 member against the scale-1 reference still gives deficit 0
    # (both sides shift by the same m (2 ln 2 + 2 J - 2) under rescaling)
    fld = density_from_profile(8 * np.pi, 2.0, (0.0, 0.0), flat_phi, scan_grid)
    rep = log_hls_deficit(fld, 1.0, (0.0, 0.0))
    assert abs(rep.deficit) <= 6e-2
    assert rep.lhs > 1.0   # both sides are large; only their difference vanishes


def test_deficit_positive_for_gaussian(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=40.0, n=256)
    X, Y = g.meshes()
    m = 8 * np.pi
    rho = m / (2 * np.pi) * np.exp(-(X**2 + Y**2) / 2)
    rho *= m / (np.sum(rho) * g.cell_area)
    fld = DensityField(grid=g, samples=rho, phi=flat_phi)
    rep = log_hls_deficit(fld, 1.0, (0.0, 0.0))
    assert rep.deficit > 0.1


def test_deficit_translation_covariance(flat_phi):
    g1 = CartesianGrid(center=(0, 0), half_width=40.0, n=256)
    g2 = CartesianGrid(center=(2.5, -1.0), half_width=40.0, n=256)
    d1 = log_hls_deficit(density_from_profile(8 * np.pi, 1.4, (0.0, 0.0), flat_phi, g1),
                         1.0, (0.0, 0.0)).deficit
    d2 = log_hls_deficit(density_from_profile(8 * np.pi, 1.4, (2.5, -1.0), flat_phi, g2),
                         1.0, (2.5, -1.0)).deficit
    assert d1 == pytest.approx(d2, abs=1e-6)


def test_conformal_covariance_flat_is_exact_zero(flat_phi, grid64):
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, grid64)
    chk = conformal_covariance_check(fld, 1.0, (0.0, 0.0))
    assert chk.difference == 0.0  # same code path when phi = 0


def test_conformal_covariance_bump(grid128):
    phi = ConformalFactor.radial_bump(0.1, 3.0)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), phi, grid128)
    chk = conformal_covariance_check(fld, 1.0, (0.0, 0.0))
    assert abs(chk.difference) <= 1e-8


_CAUCHY = st.tuples(st.floats(0.5, 3.0), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
                   st.floats(0.2, 1.0))       # lambda, centre, weight
_GAUSS = st.tuples(st.floats(0.7, 2.0), st.floats(-2.0, 2.0),
                  st.floats(0.0, 1.0))        # sigma, x centre, weight


@settings(derandomize=True, max_examples=40, deadline=None)
@given(bumps=st.lists(_CAUCHY, min_size=1, max_size=3), gauss=st.none() | _GAUSS,
       amplitude=st.floats(-0.3, 0.3), support=st.floats(1.0, 5.0))
def test_deficit_and_covariance_on_random_positive_fields(bumps, gauss, amplitude, support):
    # criterion 6's family, drawn at random: a mixture of Cauchy profiles and a
    # Gaussian of mass 8 pi, under a flat (amplitude 0) or radial-bump factor
    g = CartesianGrid(center=(0.0, 0.0), half_width=25.0, n=128)
    X, Y = g.meshes()
    phi = ConformalFactor.radial_bump(amplitude, support)
    rho = sum(w * ScaledCauchyProfile(lam=lam, x_star=(cx, cy))(X, Y)
              for lam, cx, cy, w in bumps)
    if gauss is not None:
        s, gx, w = gauss
        rho = rho + w * np.exp(-((X - gx) ** 2 + Y**2) / (2.0 * s * s))
    m = 8 * np.pi
    rho *= m / (np.sum(rho * np.exp(2.0 * phi(X, Y))) * g.cell_area)
    chk = conformal_covariance_check(DensityField(grid=g, samples=rho, phi=phi), 1.0)
    assert chk.curved_deficit >= -1e-3
    assert abs(chk.difference) <= 1e-8


def test_conformal_covariance_random_field(grid64):
    phi = ConformalFactor.radial_bump(-0.15, 4.0)
    rng = np.random.default_rng(5)
    rho = rng.random((grid64.n, grid64.n)) + 0.2
    fld = DensityField(grid=grid64, samples=rho, phi=phi)
    chk = conformal_covariance_check(fld, 1.0, (0.0, 0.0))
    assert abs(chk.difference) <= 1e-8


def test_scan_slope_flat_families():
    lams = list(np.geomspace(0.05, 5.0, 9))
    for m, expected in [(4 * np.pi, -4 * np.pi), (10 * np.pi, 5 * np.pi)]:
        tab = lambda_scan(m, ConformalFactor.zero(), lams, scaled_n=256)
        assert tab.predicted_slope == pytest.approx(expected, rel=1e-12)
        assert tab.slope_fit == pytest.approx(expected, rel=0.05)


def test_scan_plateau_critical_mass():
    lams = list(np.geomspace(0.05, 5.0, 7))
    tab = lambda_scan(8 * np.pi, ConformalFactor.zero(), lams, scaled_n=256)
    assert tab.plateau == pytest.approx(CRITICAL_F, abs=0.3)
    assert abs(tab.slope_fit) < 0.2


def test_scan_requires_two_decades():
    with pytest.raises(ValueError):
        lambda_scan(8 * np.pi, ConformalFactor.zero(), [0.5, 1.0, 2.0])


@pytest.mark.parametrize("lams, grid", [([1.0], None),
                                         ([0.01, 1.0, 100.0], CartesianGrid((0, 0), 20.0, 64))])
def test_scan_needs_two_resolved_rows(lams, grid):
    # fewer than two resolved rows fit no slope: refused before any row is computed
    with pytest.raises(ValueError, match="at least two resolved"):
        lambda_scan(8 * np.pi, ConformalFactor.zero(), lams, grid=grid)


def test_scan_curved_needs_fixed_grid():
    with pytest.raises(ValueError):
        lambda_scan(8 * np.pi, ConformalFactor.radial_bump(0.05, 2.0), [0.1, 1.0, 20.0])


def test_scan_flags_unresolved_rows(scan_grid):
    phi = ConformalFactor.radial_bump(0.05, 4.0)
    lams = [0.01, 1.0, 2.0, 100.0]
    tab = lambda_scan(8 * np.pi, phi, lams, grid=scan_grid)
    by_lam = {r.lam: r.resolved for r in tab.rows}
    assert not by_lam[0.01]      # under grid resolution
    assert not by_lam[100.0]     # overflows the domain
    assert by_lam[1.0] and by_lam[2.0]
    # an unresolved row is not computed; a resolved one is a fresh free energy
    for r in tab.rows:
        if r.resolved:
            fld = density_from_profile(8 * np.pi, r.lam, phi.center, phi, scan_grid)
            assert r.value == free_energy(fld).total
            assert r.tail_bound == estimate_tail(fld.samples, scan_grid).bound
        else:
            assert np.isnan(r.value) and np.isnan(r.tail_bound)


@pytest.mark.parametrize("amp, x_star", [(-0.05, (0.0, 0.0)), (0.05, (1.5, -1.0))],
                         ids=["negative-amplitude", "off-centre"])
def test_scan_plateau_shift_is_phi_at_x_star(amp, x_star):
    # the family concentrates at x_star, so the plateau moves by -16 pi phi(x_star): sup phi
    # would predict no shift for the negative bump and 31% too much at the off-centre point
    phi = ConformalFactor.radial_bump(amp, 4.0)
    assert 0.0 != phi(*x_star) != max(amp, 0.0)
    g = CartesianGrid(center=(0, 0), half_width=8.0, n=256)
    lams = [0.01, 0.15, 0.2, 0.3, 0.5, 1.0]
    curved = lambda_scan(8 * np.pi, phi, lams, grid=g, x_star=x_star)
    flat = lambda_scan(8 * np.pi, ConformalFactor.zero(), lams, grid=g, x_star=x_star)
    target = -16 * np.pi * float(phi(*x_star))
    assert curved.predicted_plateau == flat.predicted_plateau + target
    assert curved.plateau - flat.plateau == pytest.approx(target, rel=0.05)


def test_scan_csv_export(tmp_path):
    lams = list(np.geomspace(0.05, 5.0, 5))
    tab = lambda_scan(8 * np.pi, ConformalFactor.zero(), lams, scaled_n=256)
    p = tmp_path / "scan.csv"
    tab.to_csv(p)
    text = p.read_text()
    assert text.splitlines()[0] == "lambda,F,resolved,slope_fit,tail_bound"
    assert len(text.splitlines()) == 6
