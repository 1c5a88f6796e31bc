import ast
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import radial_derivative
from curvedks.domain import CartesianGrid
from curvedks.geometry import (MAX_AMPLITUDE, ConformalFactor, boundary_mask,
                               gauss_curvature, grad_flat, grid_geometry, laplacian_flat)
from curvedks.profiles import ScaledCauchyProfile
from curvedks.stationary import DensityField

SRC = Path(__file__).resolve().parents[1] / "src" / "curvedks"


def test_zero_factor_weights_are_flat(grid64, flat_phi):
    w = grid_geometry(flat_phi, grid64).weights
    assert np.all(w == grid64.cell_area)


def test_flat_weights_are_a_read_only_constant(grid64, flat_phi):
    # a flat factor's arrays are read-only broadcasts with no n x n array behind them;
    # charges are the bits of the e^{2 phi} route at phi = 0, signs of zero included
    geometry = grid_geometry(flat_phi, grid64)
    for a in (geometry.phi, geometry.e2phi, geometry.e_m2phi, geometry.weights):
        assert a.shape == (grid64.n, grid64.n) and not a.flags.writeable
        assert a.strides == (0, 0) and a.base.nbytes == a.itemsize
    assert np.all(geometry.weights == grid64.cell_area) and geometry.min_e2phi == 1.0
    rho = np.random.default_rng(3).random((grid64.n, grid64.n))
    rho[0, :3] = [0.0, -0.0, 1e-300]
    q = geometry.e2phi * rho * grid64.cell_area
    want = np.exp(2.0 * np.zeros((grid64.n, grid64.n))) * rho * grid64.cell_area
    assert np.array_equal(q, want) and np.array_equal(np.signbit(q), np.signbit(want))


def test_total_flat_area(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=5.0, n=32)
    assert grid_geometry(flat_phi, g).weights.sum() == pytest.approx(100.0, rel=1e-13)


def test_positive_amplitude_inflates_area(grid64):
    phi = ConformalFactor.radial_bump(0.1, 3.0)
    w = grid_geometry(phi, grid64).weights
    assert w.sum() > grid64.cell_area * grid64.n**2
    assert np.all(w > 0)


def test_bump_compact_support(grid64):
    phi = ConformalFactor.radial_bump(0.3, 2.0, (1.0, 0.5))
    X, Y = grid64.meshes()
    vals = phi(X, Y)
    r = np.hypot(X - 1.0, Y - 0.5)
    assert np.all(vals[r >= 2.0] == 0.0)
    assert vals[r < 1.0].max() > 0.2


def test_bump_finite_differences_bounded():
    # C-infinity bump: sampled differences of any low order stay bounded
    phi = ConformalFactor.radial_bump(1.0, 1.0)
    r = np.linspace(0, 1.2, 4001)
    vals = phi(r, np.zeros_like(r))
    for _ in range(3):
        vals = np.diff(vals) / (r[1] - r[0])
        assert np.all(np.isfinite(vals))


def test_laplacian_of_constant_is_zero(grid64):
    f = np.full((grid64.n, grid64.n), 3.7)
    assert np.max(np.abs(laplacian_flat(f, grid64))) < 1e-12 / grid64.h**2


def test_laplacian_exact_on_quadratics(grid64):
    X, _ = grid64.meshes()
    lap = laplacian_flat(X**2, grid64)
    interior = ~boundary_mask(grid64, 1)
    assert np.allclose(lap[interior], -2.0, atol=1e-9)


def test_laplacian_log_profile():
    g = CartesianGrid(center=(0, 0), half_width=4.0, n=256)
    X, Y = g.meshes()
    r2 = X**2 + Y**2
    lap = laplacian_flat(np.log1p(r2), g)
    exact = -4.0 / (1.0 + r2) ** 2
    interior = ~boundary_mask(g, 1)
    assert np.max(np.abs(lap - exact)[interior]) < 3.0 * g.h**2  # O(h^2)


def test_curvature_zero_for_flat(grid64, flat_phi):
    assert np.max(np.abs(gauss_curvature(flat_phi, grid64))) == 0.0


def test_curvature_integrates_to_zero():
    # total curvature of a compactly supported conformal bump vanishes
    g = CartesianGrid(center=(0, 0), half_width=6.0, n=128)
    phi = ConformalFactor.radial_bump(0.2, 3.0)
    kappa = gauss_curvature(phi, g)
    w = grid_geometry(phi, g).weights
    assert abs(np.sum(kappa * w)) < 1e-10


def test_curvature_changes_sign_along_radius():
    g = CartesianGrid(center=(0, 0), half_width=6.0, n=128)
    phi = ConformalFactor.radial_bump(0.1, 3.0)
    kappa = gauss_curvature(phi, g)
    assert kappa.min() < -1e-4 and kappa.max() > 1e-4


def test_curvature_vanishes_outside_support():
    g = CartesianGrid(center=(0, 0), half_width=8.0, n=128)
    phi = ConformalFactor.radial_bump(0.2, 2.0)
    kappa = gauss_curvature(phi, g)
    outside = g.radius() > 2.0 + 2 * g.h
    assert np.max(np.abs(kappa[outside])) == 0.0


def test_discrete_divergence_theorem():
    # interior stencil sum telescopes to zero for compactly supported fields
    g = CartesianGrid(center=(0, 0), half_width=8.0, n=96)
    phi = ConformalFactor.radial_bump(0.5, 3.0)
    f = phi.on_grid(g)
    assert abs(np.sum(laplacian_flat(f, g)) * g.cell_area) < 1e-10


def test_gradient_of_constant(grid64):
    gx, gy = grad_flat(np.full((grid64.n, grid64.n), 2.0), grid64)
    assert np.max(np.abs(gx)) == 0.0 and np.max(np.abs(gy)) == 0.0


def test_log_gradient_magnitude_at_unit_radius():
    # |d ln(1+r^2)|^2 = (2r/(1+r^2))^2 = 1 at r = 1
    g = CartesianGrid(center=(0, 0), half_width=4.0, n=512)
    X, Y = g.meshes()
    f = np.log1p(X**2 + Y**2)
    gx, gy = grad_flat(f, g)
    sq = gx**2 + gy**2
    r = g.radius()
    ring = np.abs(r - 1.0) < g.h / 2
    assert np.max(np.abs(sq[ring] - 1.0)) < 5e-3


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(k=st.integers(4, 48), cx=st.floats(-20.0, 20.0), cy=st.floats(-20.0, 20.0),
       half_width=st.floats(0.5, 50.0), bx=st.floats(-2.0, 2.0), by=st.floats(-2.0, 2.0),
       log_r=st.floats(-0.7, 2.5), amp=st.floats(-1.0, 1.0), lam=st.floats(0.01, 20.0),
       seed=st.integers(0, 2**32 - 1))
@example(k=8, cx=1.0, cy=-2.0, half_width=10.0, bx=0.1, by=0.2, log_r=1.0, amp=-0.0, lam=1.0,
         seed=0)     # a flat factor of amplitude -0.0 is -0.0 everywhere, as amp * bump is
def test_grid_fields_equal_mesh_formulas(k, cx, cy, half_width, bx, by, log_r, amp, lam,
                                         seed):
    # every field built from broadcast axes is bit-equal to its formula on full meshes
    g = CartesianGrid(center=(cx, cy), half_width=half_width, n=2 * k)
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    assert _same_bits(g.radius(), np.hypot(X - cx, Y - cy))
    assert _same_bits(ConformalFactor.zero().on_grid(g), np.zeros((g.n, g.n)))

    # bump centre inside (|b| < 1), straddling or outside the square; support
    # radius from under one cell to far beyond the grid
    c = (cx + bx * half_width, cy + by * half_width)
    R = g.h * 10.0**log_r
    s = np.hypot(X - c[0], Y - c[1]) / R
    inside = np.abs(s) < 1.0
    bump = np.zeros_like(s)
    bump[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] * s[inside]))
    assert _same_bits(ConformalFactor.radial_bump(amp, R, c).on_grid(g), amp * bump)

    # bilinear interpolation from another lattice, clamped at its outer cell centres
    src = CartesianGrid(center=c, half_width=0.7 * half_width, n=16)
    vals = np.random.default_rng(seed).standard_normal((16, 16))
    fx = np.clip((X - src.x[0]) / src.h, 0.0, 15.0)
    fy = np.clip((Y - src.y[0]) / src.h, 0.0, 15.0)
    i0, j0 = np.clip(fx.astype(int), 0, 14), np.clip(fy.astype(int), 0, 14)
    ax, ay = fx - i0, fy - j0
    bilinear = ((1 - ax) * (1 - ay) * vals[i0, j0] + ax * (1 - ay) * vals[i0 + 1, j0]
                + (1 - ax) * ay * vals[i0, j0 + 1] + ax * ay * vals[i0 + 1, j0 + 1])
    assert _same_bits(src.interpolate(vals, X, Y), bilinear)

    d2 = (X - c[0]) ** 2 + (Y - c[1]) ** 2
    mu = lam * lam / (np.pi * (lam * lam + d2) ** 2)
    assert _same_bits(ScaledCauchyProfile(lam=lam, x_star=c).on_grid(g), mu)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 40), half_width=st.floats(0.5, 50.0),
       seed=st.integers(0, 2**32 - 1))
@example(rows=27, cols=64, half_width=20.0, seed=1)     # a test-bank factor stack
@example(rows=96, cols=96, half_width=20.0, seed=2)
@example(rows=1, cols=1, half_width=1.0, seed=3)
@example(rows=2, cols=1, half_width=1.0, seed=4)
@example(rows=1, cols=2, half_width=1.0, seed=5)
def test_stencils_equal_edge_padded_formulas(rows, cols, half_width, seed):
    # the sliced stencils give the bits of the np.pad(edge) formulas, sign bits
    # included, on any shape; an axis of length 1 differences each cell with itself
    g = CartesianGrid(center=(0.0, 0.0), half_width=half_width, n=8)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-300, 300, (rows, cols))
    f[rng.random((rows, cols)) < 0.2] = 0.0
    f[rng.random((rows, cols)) < 0.2] = -0.0
    fp = np.pad(f, 1, mode="edge")
    inv2h = 0.5 / g.h
    with np.errstate(over="ignore", invalid="ignore"):
        gx, gy = grad_flat(f, g)
        lap = laplacian_flat(f, g)
        ref_gx = (fp[2:, 1:-1] - fp[:-2, 1:-1]) * inv2h
        ref_gy = (fp[1:-1, 2:] - fp[1:-1, :-2]) * inv2h
        ref_lap = (4.0 * f - fp[:-2, 1:-1] - fp[2:, 1:-1] - fp[1:-1, :-2]
                   - fp[1:-1, 2:]) / (g.h * g.h)
    assert _same_bits(gx, ref_gx) and _same_bits(gy, ref_gy)
    assert _same_bits(lap, ref_lap)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(amp=st.floats(0.01, 1.0), negative=st.booleans(), R=st.floats(0.3, 10.0),
       cx=st.floats(0.5, 20.0), cy=st.floats(-20.0, -0.5),
       bx=st.floats(-0.9, 0.9), by=st.floats(-0.9, 0.9))
def test_grad_matches_central_differences_at_second_order(amp, negative, R, cx, cy, bx, by):
    # on a grid centred off the origin, the analytic gradient and radial derivative
    # agree with central differences of phi whose error quarters as the step halves
    amp = -amp if negative else amp
    g = CartesianGrid(center=(cx, cy), half_width=10.0, n=40)
    c = (cx + 10.0 * bx, cy + 10.0 * by)
    phi = ConformalFactor.radial_bump(amp, R, c)
    X, Y = g.meshes()
    gx, gy = phi.grad(g)
    r = np.linspace(0.0, 1.2 * R, 301)
    errs = []
    for e in (0.01 * R, 0.005 * R):
        ex = (phi(X + e, Y) - phi(X - e, Y)) / (2.0 * e) - gx
        ey = (phi(X, Y + e) - phi(X, Y - e)) / (2.0 * e) - gy
        along = (phi(c[0] + r + e, c[1]) - phi(c[0] + r - e, c[1])) / (2.0 * e)
        errs.append((max(np.abs(ex).max(), np.abs(ey).max()),
                     np.abs(along - radial_derivative(phi, r)).max()))
    for coarse, fine in zip(*errs):
        assert coarse <= 0.02 * abs(amp) / R
        assert fine <= 0.3 * coarse
    outside = np.hypot(X - c[0], Y - c[1]) >= R
    assert np.all(gx[outside] == 0.0) and np.all(gy[outside] == 0.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_amplitude_stops_where_the_metric_overflows(grid64, sign):
    # at |amplitude| = ln(DBL_MAX) / 2 both e^{2 phi} and e^{-2 phi} are finite; past it, refused
    phis = ConformalFactor.radial_bump(sign * MAX_AMPLITUDE, 3.0).on_grid(grid64)
    assert np.all(np.isfinite(np.exp(2.0 * phis))) and np.all(np.isfinite(np.exp(-2.0 * phis)))
    with pytest.raises(ValueError, match="overflows"):
        ConformalFactor.radial_bump(sign * np.nextafter(MAX_AMPLITUDE, np.inf), 3.0)


def test_zero_amplitude_bump_is_the_flat_factor(grid64):
    flat, zero_bump = ConformalFactor.zero(), ConformalFactor.radial_bump(0.0, 3.0, (1.0, -2.0))
    assert flat.is_flat and zero_bump.is_flat
    assert not ConformalFactor.radial_bump(1e-3, 3.0).is_flat
    X, Y = grid64.meshes()
    zeros = np.zeros((grid64.n, grid64.n))
    for phi in (flat, zero_bump):
        assert _same_bits(phi.on_grid(grid64), zeros) and _same_bits(phi(X, Y), zeros)
        assert all(_same_bits(d, zeros) for d in phi.grad(grid64))
    # amplitude -0.0 is flat too, and like amplitude * bump it is -0.0 everywhere
    negative_zero = ConformalFactor.radial_bump(-0.0, 3.0)
    assert negative_zero.is_flat
    assert _same_bits(negative_zero.on_grid(grid64), -zeros)
    assert _same_bits(negative_zero(X, Y), -zeros)


def _site_expressions(phi, grid):
    """phi, e^{2 phi}, e^{-2 phi}, the weights and min e^{2 phi} as each site formed them
    before the geometry: np.exp(+-2.0 * phi.on_grid(grid)), the weights of the old
    conformal_area_element (a broadcast of h^2 when flat) and flow_init's minimum."""
    phis = phi.on_grid(grid)
    weights = np.broadcast_to(grid.cell_area, phis.shape)
    if not phi.is_flat:
        weights = phi.on_grid(grid)
        np.exp(np.multiply(weights, 2.0, out=weights), out=weights)
        weights *= grid.cell_area
    return (phis, np.exp(2.0 * phis), np.exp(-2.0 * phis), weights,
            float(np.exp(2.0 * phis.min())))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(k=st.integers(4, 40), cx=st.floats(-50.0, 50.0), cy=st.floats(-50.0, 50.0),
       half_width=st.floats(0.5, 50.0),
       amp=st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300]), st.floats(-20.0, 20.0)),
       log_r=st.floats(-0.5, 2.0), bx=st.floats(-1.5, 1.5), by=st.floats(-1.5, 1.5))
@example(k=8, cx=0.0, cy=0.0, half_width=10.0, amp=-0.0, log_r=1.0, bx=0.0, by=0.0)
@example(k=8, cx=0.0, cy=0.0, half_width=10.0, amp=0.3, log_r=1.0, bx=0.0, by=0.0)
def test_geometry_is_the_bits_of_each_site(k, cx, cy, half_width, amp, log_r, bx, by):
    # every array, and min e^{2 phi}, equals the expression its site used, signs of zero
    # included: amplitude -0.0 gives phi = -0.0 everywhere, as on_grid does
    g = CartesianGrid(center=(cx, cy), half_width=half_width, n=2 * k)
    phi = ConformalFactor.radial_bump(amp, g.h * 10.0**log_r,
                                      (cx + bx * half_width, cy + by * half_width))
    geometry = grid_geometry(phi, g)
    *arrays, min_e2phi = _site_expressions(phi, g)
    got = (geometry.phi, geometry.e2phi, geometry.e_m2phi, geometry.weights)
    assert all(_same_bits(a, b) for a, b in zip(got, arrays))
    assert geometry.min_e2phi == min_e2phi


def test_curved_geometry_is_read_only(grid64, bump_phi):
    # fields and flow states share the arrays, so no caller may write into them
    geometry = grid_geometry(bump_phi, grid64)
    for a in (geometry.phi, geometry.e2phi, geometry.e_m2phi, geometry.weights):
        assert a.flags.c_contiguous and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0


def test_geometry_is_kept_for_the_same_factor_and_grid_objects(grid64, bump_phi):
    # one slot, compared by identity: a repeat shares the geometry, an equal but
    # distinct factor or grid is sampled anew, and a flat request leaves the slot alone;
    # the slot's reference is weak, so it keeps no geometry alive that nothing holds
    held = weakref.ref(grid_geometry(bump_phi, grid64))
    assert held() is None
    first = grid_geometry(bump_phi, grid64)
    assert grid_geometry(bump_phi, grid64) is first
    assert DensityField(grid=grid64, samples=np.ones((64, 64)), phi=bump_phi).geometry is first
    grid_geometry(ConformalFactor.zero(), grid64)
    assert grid_geometry(bump_phi, grid64) is first
    twin_phi = ConformalFactor.radial_bump(0.1, 2.0, (0.0, 0.0))
    twin_grid = CartesianGrid(center=(0.0, 0.0), half_width=20.0, n=64)
    for phi, grid in ((twin_phi, grid64), (bump_phi, twin_grid)):
        other = grid_geometry(phi, grid)
        assert other is not first and _same_bits(other.e2phi, first.e2phi)
    assert grid_geometry(bump_phi, grid64) is not first


def test_only_geometry_reads_the_factor_fields():
    # the factor's shape is geometry's decision: every other module asks the factor
    # (is_flat, on_grid, grad) and reads neither a kind nor an amplitude
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("kind", "amplitude"):
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert readers == []
