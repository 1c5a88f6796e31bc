import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from conftest import lstsq_order, radial_derivative
from curvedks.domain import CartesianGrid, SphereGrid
from curvedks.geometry import ConformalFactor, _bump_profile
from curvedks.profiles import ScaledCauchyProfile
from curvedks.sphere import (SphereField, StereographicMap, degree_one_harmonic,
                             kw_residual, laplacian_sphere, nonexistence_certificate,
                             obstruction_integral, plane_side_obstruction,
                             transport_to_sphere)
from curvedks.stationary import density_from_profile


def _manufactured(sgrid):
    """Smooth test solution with a closed-form spherical Laplacian."""
    T, P = sgrid.meshes()
    u = 0.3 * np.sin(T) + 0.2 * np.cos(T) * np.cos(P) + 0.1 * (1.5 * np.sin(T) ** 2 - 0.5)
    lap = 2 * (0.3 * np.sin(T) + 0.2 * np.cos(T) * np.cos(P)) \
        + 6 * 0.1 * (1.5 * np.sin(T) ** 2 - 0.5)
    return u, lap


def test_map_poles():
    smap = StereographicMap(lam=1.0, x_star=(2.0, -1.0))
    x, y = smap.to_plane(np.array(-np.pi / 2), np.array(0.0))
    assert (x, y) == pytest.approx((2.0, -1.0))
    assert smap.plane_radius(np.array(np.pi / 2 - 1e-8)) > 1e7


def _to_sphere(smap, x, y):
    """Inverse of StereographicMap.to_plane: latitude 2 arctan(r / lam) - pi/2, azimuth
    in [0, 2pi)."""
    dx, dy = x - smap.x_star[0], y - smap.x_star[1]
    theta = 2.0 * np.arctan(np.hypot(dx, dy) / smap.lam) - np.pi / 2.0
    return theta, np.mod(np.arctan2(dy, dx), 2.0 * np.pi)


def test_map_roundtrip():
    smap = StereographicMap(lam=0.7, x_star=(1.0, 2.0))
    rng = np.random.default_rng(2)
    x = rng.uniform(-5, 5, 40)
    y = rng.uniform(-5, 5, 40)
    theta, psi = _to_sphere(smap, x, y)
    xb, yb = smap.to_plane(theta, psi)
    assert np.allclose(xb, x, atol=1e-12) and np.allclose(yb, y, atol=1e-12)


def test_area_transport_gives_sphere_area():
    # omega = (1/2) rho_lam dA0 under the pullback: total 4 pi
    g = CartesianGrid(center=(0, 0), half_width=200.0, n=2048)
    rho = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), ConformalFactor.zero(), g)
    total = 0.5 * g.integrate(rho.samples)
    assert total == pytest.approx(4 * np.pi, abs=1e-3)


def test_transport_exact_profile_gives_trivial_fields(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=60.0, n=512)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)
    sg = SphereGrid(n_lat=64, n_lon=128)
    smap = StereographicMap(lam=1.0, x_star=(0.0, 0.0))
    u, h, rep = transport_to_sphere(fld, flat_phi, smap, sg)
    assert np.max(np.abs(u.values)) < 0.05
    assert np.all(h.values == 1.0)
    assert rep.cap_fraction < 0.01


def test_transport_bump_h_peak(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=60.0, n=256)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)
    sg = SphereGrid(n_lat=64, n_lon=128)
    smap = StereographicMap(lam=1.0, x_star=(0.0, 0.0))
    phi = ConformalFactor.radial_bump(0.25, 2.0, (0.0, 0.0))
    _, h, _ = transport_to_sphere(fld, phi, smap, sg)
    assert h.values.max() == pytest.approx(np.exp(0.5), rel=1e-3)


def test_transport_scale_mismatch_bounded(flat_phi):
    # rho at scale 2 against a scale-1 map: u = (1/2) ln(rho_2 / rho_1), bounded
    g = CartesianGrid(center=(0, 0), half_width=60.0, n=512)
    fld = density_from_profile(8 * np.pi, 2.0, (0.0, 0.0), flat_phi, g)
    sg = SphereGrid(n_lat=64, n_lon=128)
    smap = StereographicMap(lam=1.0, x_star=(0.0, 0.0))
    u, _, _ = transport_to_sphere(fld, flat_phi, smap, sg)
    T, _ = sg.meshes()
    r = smap.plane_radius(T)
    exact = 0.5 * np.log((4.0 * (1 + r**2) ** 2) / (4 + r**2) ** 2)
    assert np.max(np.abs(u.values - exact)) < 0.05
    assert np.max(np.abs(u.values)) <= np.log(2.0) + 0.05  # sup at the pole image


def test_transport_rejects_heavy_polar_cap(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=3.0, n=64)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)
    sg = SphereGrid(n_lat=64, n_lon=128)
    smap = StereographicMap(lam=2.0, x_star=(0.0, 0.0))
    with pytest.raises(ValueError):
        transport_to_sphere(fld, flat_phi, smap, sg)


def test_roundtrip_reproduces_density(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=60.0, n=2048)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)
    sg = SphereGrid(n_lat=256, n_lon=512)
    smap = StereographicMap(lam=1.0, x_star=(0.0, 0.0))
    u, _, _ = transport_to_sphere(fld, flat_phi, smap, sg)
    # the density comes back from the sphere as rho_ref e^{2u}, and u = 0 in the
    # continuum; u is half the bilinear error of ln rho = ln 8 - 2 ln(1 + r^2),
    # at most (h^2 / 8)(max|d_xx| + max|d_yy|) / 2 = h^2 / 2 (both peak at 4, at r = 0)
    inner = smap.plane_radius(sg.theta) <= 10.0
    assert np.max(np.abs(u.values[inner])) <= 0.5 * g.h**2


def test_kw_residual_flat_solution_is_machine_zero():
    sg = SphereGrid(n_lat=32, n_lon=64)
    u = SphereField(grid=sg, values=np.zeros((32, 64)), role="u")
    h = SphereField(grid=sg, values=np.ones((32, 64)), role="h")
    assert kw_residual(u, h) < 1e-12


def test_kw_residual_constant_curvature_two():
    # u = 0, h = 2: residual field is identically 1, norm sqrt(4 pi)
    sg = SphereGrid(n_lat=32, n_lon=64)
    u = SphereField(grid=sg, values=np.zeros((32, 64)), role="u")
    h = SphereField(grid=sg, values=2 * np.ones((32, 64)), role="h")
    assert kw_residual(u, h) == pytest.approx(np.sqrt(4 * np.pi), rel=1e-12)


def test_laplacian_eigenvalue_check():
    sg = SphereGrid(n_lat=96, n_lon=192)
    u1 = degree_one_harmonic(sg, 1)
    lap = laplacian_sphere(u1.values, sg)
    err = np.sqrt(sg.integrate((lap - 2.0 * u1.values) ** 2))
    assert err < 2e-3


def test_manufactured_residual_second_order():
    errs, ns = [], [32, 64, 128]
    for n in ns:
        sg = SphereGrid(n_lat=n, n_lon=2 * n)
        u_vals, lap = _manufactured(sg)
        h_vals = (lap + 1.0) * np.exp(-2.0 * u_vals)
        u = SphereField(grid=sg, values=u_vals, role="u")
        h = SphereField(grid=sg, values=h_vals, role="h")
        errs.append(kw_residual(u, h))
    order = lstsq_order(ns, errs)
    assert order >= 1.5
    assert errs[-1] < 5e-3


def test_obstruction_vanishes_for_manufactured_solutions():
    sg = SphereGrid(n_lat=128, n_lon=256)
    u_vals, lap = _manufactured(sg)
    h_vals = (lap + 1.0) * np.exp(-2.0 * u_vals)
    u = SphereField(grid=sg, values=u_vals, role="u")
    h = SphereField(grid=sg, values=h_vals, role="h")
    for idx in (1, 2, 3):
        assert abs(obstruction_integral(u, h, idx)) < 3e-3


def test_obstruction_decay_order():
    vals, ns = [], [32, 64, 128, 256]
    for n in ns:
        sg = SphereGrid(n_lat=n, n_lon=2 * n)
        u_vals, lap = _manufactured(sg)
        h_vals = (lap + 1.0) * np.exp(-2.0 * u_vals)
        u = SphereField(grid=sg, values=u_vals, role="u")
        h = SphereField(grid=sg, values=h_vals, role="h")
        vals.append(abs(obstruction_integral(u, h, 1)))
    assert lstsq_order(ns, vals) >= 1.5


def test_obstruction_zero_for_constant_h():
    sg = SphereGrid(n_lat=32, n_lon=64)
    rng = np.random.default_rng(0)
    u = SphereField(grid=sg, values=0.1 * rng.standard_normal((32, 64)), role="u")
    h = SphereField(grid=sg, values=np.full((32, 64), 1.7), role="h")
    for idx in (1, 2, 3):
        assert abs(obstruction_integral(u, h, idx)) < 1e-13


def test_monotone_bump_obstruction_sign_flips_with_amplitude():
    sg = SphereGrid(n_lat=128, n_lon=256)
    smap = StereographicMap(lam=1.0, x_star=(0.0, 0.0))
    u = SphereField(grid=sg, values=np.zeros((128, 256)), role="u")
    vals = {}
    for amp in (0.1, -0.1):
        phi = ConformalFactor.radial_bump(amp, 2.0, (0.0, 0.0))
        h = SphereField(grid=sg, values=np.exp(2.0 * phi(*smap.to_plane(*sg.meshes()))),
                        role="h")
        vals[amp] = obstruction_integral(u, h, 1)
    assert abs(vals[0.1]) > 1e-3 and abs(vals[-0.1]) > 1e-3
    assert np.sign(vals[0.1]) == -np.sign(vals[-0.1])
    # our orientation: the pole at the bump center is the South pole, so a
    # positive-amplitude bump has h decreasing in latitude
    assert vals[0.1] < 0


def radial_obstruction(phi: ConformalFactor, u: SphereField,
                       smap: StereographicMap) -> float:
    """Oracle for the certificate's obstructions: the zonal reduction
    int cos(theta) (d_theta h) e^{2u} by 1-D quadrature.

    Valid for phi radial about the map center; d_theta h is evaluated from
    the analytic radial derivative of phi, making this an independent
    quadrature of the same integral as obstruction_integral with u1 = sin.
    """
    if tuple(phi.center) != tuple(smap.x_star) and not phi.is_flat:
        raise ValueError("conformal factor must be radial about the map center")
    grid = u.grid
    theta = grid.theta
    r = smap.plane_radius(theta)
    # dh/dtheta = e^{2 phi} * 2 phi'(r) * dr/dtheta, dr/dtheta = (lam/2) sec^2(sigma/2)
    sigma_half = (theta + np.pi / 2.0) / 2.0
    dr_dtheta = 0.5 * smap.lam / np.cos(sigma_half) ** 2
    phi_r = radial_derivative(phi, r)
    phi_vals = phi(smap.x_star[0] + r, np.full_like(r, smap.x_star[1]))
    dh_dtheta = np.exp(2.0 * phi_vals) * 2.0 * phi_r * dr_dtheta
    e2u_zonal = np.mean(np.exp(2.0 * u.values), axis=1)
    integrand = np.cos(theta) * dh_dtheta * e2u_zonal
    return float(np.sum(integrand * grid.glw) * 2.0 * np.pi)


def test_radial_obstruction_matches_2d_quadrature():
    sg = SphereGrid(n_lat=128, n_lon=256)
    smap = StereographicMap(lam=1.0, x_star=(0.0, 0.0))
    u = SphereField(grid=sg, values=np.zeros((128, 256)), role="u")
    phi = ConformalFactor.radial_bump(0.1, 2.0, (0.0, 0.0))
    h = SphereField(grid=sg, values=np.exp(2.0 * phi(*smap.to_plane(*sg.meshes()))),
                    role="h")
    v2d = obstruction_integral(u, h, 1)
    v1d = radial_obstruction(phi, u, smap)
    assert v1d == pytest.approx(v2d, rel=0.01)


def test_radial_obstruction_zero_for_flat(flat_phi):
    sg = SphereGrid(n_lat=32, n_lon=64)
    smap = StereographicMap(lam=1.0, x_star=(0.0, 0.0))
    u = SphereField(grid=sg, values=np.zeros((32, 64)), role="u")
    assert radial_obstruction(flat_phi, u, smap) == 0.0


def test_radial_obstruction_rejects_offcenter_factor():
    sg = SphereGrid(n_lat=32, n_lon=64)
    smap = StereographicMap(lam=1.0, x_star=(0.0, 0.0))
    u = SphereField(grid=sg, values=np.zeros((32, 64)), role="u")
    phi = ConformalFactor.radial_bump(0.1, 2.0, (3.0, 0.0))
    with pytest.raises(ValueError):
        radial_obstruction(phi, u, smap)


def test_plane_side_agrees_with_sphere_side():
    # conformal factors of inverse metric and area form cancel on the plane
    sg = SphereGrid(n_lat=128, n_lon=256)
    smap = StereographicMap(lam=1.0, x_star=(0.0, 0.0))
    u = SphereField(grid=sg, values=np.zeros((128, 256)), role="u")
    phi = ConformalFactor.radial_bump(0.1, 2.0, (0.0, 0.0))
    h = SphereField(grid=sg, values=np.exp(2.0 * phi(*smap.to_plane(*sg.meshes()))),
                    role="h")
    gp = CartesianGrid(center=(0, 0), half_width=8.0, n=512)
    for idx in (1, 2):
        sphere_val = obstruction_integral(u, h, idx)
        plane_val = plane_side_obstruction(np.zeros((gp.n, gp.n)), phi, smap, gp, idx)
        if abs(sphere_val) > 1e-6:
            assert plane_val == pytest.approx(sphere_val, rel=0.01)
        else:
            assert abs(plane_val) < 1e-6


def test_certificate_issued_for_monotone_bump():
    # a positive bump falls off its centre, a negative one rises, however small it is;
    # the obstruction scales with a small amplitude
    for amplitude, flank_sign in ((0.05, -1), (-0.05, 1), (1e-12, -1), (-1e-12, 1)):
        cert = nonexistence_certificate(ConformalFactor.radial_bump(amplitude, 2.0), n_lat=96,
                                        n_lon=192)
        assert cert.eligible
        assert cert.flank_sign == flank_sign
        assert cert.min_magnitude > 1e-3 * abs(amplitude) / 0.05
        assert set(cert.obstructions) == {"u=0", "scale x0.5", "scale x2"}


@pytest.mark.parametrize("phi, lam", [
    (ConformalFactor.radial_bump(0.1, 2.0, (1.5, -0.7)), 1.7),
    (ConformalFactor.radial_bump(-0.08, 2.5, (0.5, -0.3)), 0.8)],
    ids=["offcentre_bump", "negative_bump"])
def test_certificate_equals_2d_obstruction_integral(phi, lam):
    # the certificate's zonal latitude sum against the full 2-D quadrature
    cert = nonexistence_certificate(phi, lam=lam, n_lat=96, n_lon=192)
    assert cert.eligible
    sg = SphereGrid(n_lat=96, n_lon=192)
    smap = StereographicMap(lam=lam, x_star=phi.center)
    T, P = sg.meshes()
    h = SphereField(grid=sg, values=np.exp(2.0 * phi(*smap.to_plane(T, P))), role="h")
    r = smap.plane_radius(T)
    rho = {s: 8 * np.pi * ScaledCauchyProfile(lam=s * lam)(r, 0.0)
           for s in (0.5, 1.0, 2.0)}
    u = {"u=0": np.zeros_like(T), "scale x0.5": 0.5 * np.log(rho[0.5] / rho[1.0]),
         "scale x2": 0.5 * np.log(rho[2.0] / rho[1.0])}
    assert set(cert.obstructions) == set(u)
    for label, vals in u.items():
        uf = SphereField(grid=sg, values=vals, role="u")
        full = obstruction_integral(uf, h, 1)
        assert cert.obstructions[label] == pytest.approx(full, rel=1e-12)
        # the 1-D oracle takes d_theta h from the analytic phi', not a stencil
        assert radial_obstruction(phi, uf, smap) == pytest.approx(full, rel=0.01)


def test_radial_certificate_reads_one_meridian():
    # a radial factor is zonal, so h is evaluated on n_lat nodes, not n_lat x n_lon:
    # the whole certificate then peaks far below one 4 MB 512 x 1024 field
    phi = ConformalFactor.radial_bump(0.1, 2.0)
    nonexistence_certificate(phi, n_lat=512, n_lon=1024)    # caches the latitude nodes
    tracemalloc.start()
    try:
        nonexistence_certificate(phi, n_lat=512, n_lon=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_certificate_keeps_precision_for_small_factors():
    # obstructions are linear in the amplitude to O(amplitude); rounding
    # h = e^{2 phi} near 1 before differencing it would leave ~1e-5 relative noise
    small, smaller = (nonexistence_certificate(ConformalFactor.radial_bump(a, 2.0)).obstructions
                      for a in (1e-9, 1e-12))
    assert len(small) == 3
    for key, v in small.items():
        assert v / 1e-9 == pytest.approx(smaller[key] / 1e-12, rel=1e-6)


def test_certificate_refuses_zero_factor():
    cert = nonexistence_certificate(ConformalFactor.zero())
    assert not cert.eligible
    assert "constant" in cert.reason


@dataclass
class _StandInFactor:
    """A radial factor ConformalFactor cannot build: what the certificate reads of phi
    (a dataclass, since the certificate moves the factor's center to the origin)."""

    f: Callable
    support_radius: float
    center: tuple[float, float] = (0.0, 0.0)

    def __call__(self, X, Y):
        return self.f(np.asarray(X, dtype=float), np.asarray(Y, dtype=float))


def test_certificate_refuses_ring_factor():
    # radial but non-monotone: 0.1 b(r/2) - 0.1 b(r) rises from 0, then falls back
    def ring(X, Y):
        r = np.hypot(X, Y)
        return 0.1 * _bump_profile(r / 2.0) - 0.1 * _bump_profile(r)
    cert = nonexistence_certificate(_StandInFactor(ring, 2.0))
    assert not cert.eligible
    assert "sign" in cert.reason
