import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import direct_gradient, lstsq_order, meshgrid_offset_table
from curvedks.domain import AnnulusSpec, CartesianGrid
from curvedks.energy import lambda_scan
from curvedks.flow import FlowDiagnostics, virial_rate
from curvedks.geometry import ConformalFactor, grid_geometry
from curvedks import potential, virial
from curvedks.potential import (coulomb_energy, estimate_tail, green_kernel, lattice_potential,
                                newtonian_potential, self_cell_weight)
from curvedks.profiles import ScaledCauchyProfile
from curvedks.stationary import DensityField, decay_envelope
from curvedks.virial import potential_gradient


def test_kernel_zero_at_unit_distance():
    assert green_kernel((0.0, 0.0), (1.0, 0.0)) == 0.0


def test_kernel_value_at_distance_e():
    assert green_kernel((0.0, 0.0), (np.e, 0.0)) == pytest.approx(-1 / (2 * np.pi), rel=1e-14)


def test_kernel_symmetry_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.uniform(-5, 5, size=(2, 2))
        assert green_kernel(x, y) == green_kernel(y, x)


def test_kernel_rejects_coincident_points():
    with pytest.raises(ValueError):
        green_kernel((1.0, 2.0), (1.0, 2.0))


def _self_cell_oracle(h):
    # adaptive quadrature over one quadrant (singularity sits at the corner)
    a = h / 2
    val, err = integrate.dblquad(
        lambda y, x: -np.log(np.hypot(x, y)) / (2 * np.pi),
        0, a, 0, a, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-10
    return 4 * val


@pytest.mark.parametrize("h", [0.3, 1.0])
def test_self_cell_closed_form_matches_adaptive_oracle(h):
    assert self_cell_weight(h) == pytest.approx(_self_cell_oracle(h), abs=1e-10)


def test_self_cell_scale_invariant_constant():
    # W(h)/h^2 + ln(h)/2pi is h-independent
    c1 = self_cell_weight(0.1) / 0.1**2 + np.log(0.1) / (2 * np.pi)
    c2 = self_cell_weight(0.9) / 0.9**2 + np.log(0.9) / (2 * np.pi)
    assert c1 == pytest.approx(c2, rel=1e-12)
    assert c1 == pytest.approx(_self_cell_oracle(1.0), rel=1e-10)


def test_self_cell_positive_below_unit_spacing():
    for h in [0.05, 0.3, 0.9]:
        assert self_cell_weight(h) > 0


def test_self_cell_doubling_law():
    h = 0.4
    shift = self_cell_weight(2 * h) / (2 * h) ** 2 - self_cell_weight(h) / h**2
    assert shift == pytest.approx(-np.log(2) / (2 * np.pi), rel=1e-12)


def test_fft_matches_direct_summation(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=5.0, n=48)
    rng = np.random.default_rng(0)
    X, Y = g.meshes()
    rho = np.exp(-(X**2 + Y**2)) * (1 + 0.3 * rng.standard_normal(X.shape)) ** 2
    q = rho * g.cell_area
    cd = lattice_potential(q, g, method="direct")
    cf = lattice_potential(q, g, method="fft")
    assert np.max(np.abs(cd - cf)) <= 1e-8 * np.max(np.abs(cd))
    # the engine takes "fft" or "direct" only: a retired or misspelt name is refused
    for bad in ("auto", "fdt", "FFT"):
        with pytest.raises(ValueError, match="unknown method"):
            lattice_potential(q, g, method=bad)
        with pytest.raises(ValueError, match="unknown method"):
            newtonian_potential(rho, flat_phi, g, method=bad)


@pytest.mark.parametrize("n, center, half_width", [(8, (0.7, -1.3), 3.0),
                                                   (10, (-2.1, 0.4), 6.5)])
def test_direct_sum_matches_pairwise_loop(n, center, half_width):
    # brute force over green_kernel and self_cell_weight, independent of the offset table
    g = CartesianGrid(center=center, half_width=half_width, n=n)
    q = np.random.default_rng(n).standard_normal((n, n))
    pts = [(x, y) for x in g.x for y in g.y]   # row-major, like q.ravel()
    qf = q.ravel()
    expect = np.empty(n * n)
    for i, p in enumerate(pts):
        acc = qf[i] * self_cell_weight(g.h) / g.h**2
        for j, r in enumerate(pts):
            if j != i:
                acc += green_kernel(p, r) * qf[j]
        expect[i] = acc
    got = lattice_potential(q, g, method="direct").ravel()
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(k=st.integers(4, 48), cx=st.floats(-10.0, 10.0), cy=st.floats(-10.0, 10.0),
       half_width=st.floats(0.5, 80.0), seed=st.integers(0, 2**32 - 1))
def test_fft_equals_direct_property(k, cx, cy, half_width, seed):
    g = CartesianGrid(center=(cx, cy), half_width=half_width, n=2 * k)
    rng = np.random.default_rng(seed)
    rho = rng.random((g.n, g.n)) ** rng.uniform(0.5, 4.0)
    q = rho * g.cell_area
    cd = lattice_potential(q, g, method="direct")
    cf = lattice_potential(q, g, method="fft")
    assert np.max(np.abs(cd - cf)) <= 1e-8 * np.max(np.abs(cd))
    fld = DensityField(grid=g, samples=rho, phi=ConformalFactor.zero())
    gxd, gyd = direct_gradient(fld)
    gxf, gyf = potential_gradient(fld)
    scale = np.max(np.abs(gxd)) + np.max(np.abs(gyd))
    assert np.max(np.abs(gxd - gxf)) <= 1e-10 * scale
    assert np.max(np.abs(gyd - gyf)) <= 1e-10 * scale


def test_kernel_spectra_shared_across_spacing_and_centre():
    a = CartesianGrid(center=(0.0, 0.0), half_width=3.0, n=24)
    b = CartesianGrid(center=(5.0, -2.0), half_width=40.0, n=24)
    assert potential._kernel_spectra("log", a.n) is potential._kernel_spectra("log", b.n)
    assert virial._grad_kernel_ffts(a) is virial._grad_kernel_ffts(b)
    for kind in ("log", "grad"):
        for Kf in potential._kernel_spectra(kind, a.n):
            assert not Kf.flags.writeable
            with pytest.raises(ValueError):
                Kf[0, 0] = 0.0


@pytest.mark.parametrize("n", [8, 10, 64, 130])
def test_direct_sum_reads_the_full_mesh_table(n):
    # the direct path folds the log quadrant by |offset|; its sum is the sum over
    # the table evaluated on the full offset mesh, bit for bit
    g = CartesianGrid(center=(0.3, -0.8), half_width=5.0, n=n)
    q = np.random.default_rng(n).standard_normal((n, n))
    want = potential._toeplitz_sum(q, meshgrid_offset_table("log", n)[0])
    assert np.array_equal(potential._direct_convolve(q, g), want)


@pytest.mark.parametrize("n", [8, 10, 64, 130])
@pytest.mark.parametrize("kind", ["log", "grad"])
def test_kernel_spectra_equal_the_full_table_transform(kind, n):
    # oracle: rfft2 of each full (2n, 2n) table, shifted to FFT order. Only rows 0..n are
    # stored, as real tables: the log one equals the oracle there bit for bit (signed zeros
    # included), X the imaginary part of KX's in value, and KY's imaginary part is X^T. The
    # other rows are mirrors, with sign +1 (log, KY) or -1 (KX), of rows 2n - k1. KX's real
    # part (KY's, transposed) is the transform of its offset -n row alone, which no n x n
    # sum reads
    want = [np.fft.rfft2(np.fft.ifftshift(T)) for T in meshgrid_offset_table(kind, n)]
    got = potential._kernel_spectra(kind, n)
    top, bottom = slice(0, n + 1), slice(n + 1, 2 * n)
    if kind == "log":
        (K,), (W,) = got, want
        assert K.dtype == np.float64 and K.shape == (n + 1, n + 1)
        assert np.array_equal(K, W.real[top])
        assert np.array_equal(np.signbit(K), np.signbit(W.real[top]))
        mirrors = [(W.real, K, 1.0)]
        scale = np.abs(W).max()
        assert np.abs(W.imag).max() <= 1e-15 * scale
    else:
        X, XT = got
        WX, WY = want
        assert X.dtype == np.float64 and X.shape == (n + 1, n + 1)
        assert np.array_equal(X, WX.imag[top]) and np.array_equal(XT, X.T)
        mirrors = [(WX.imag, X, -1.0), (WY.imag, XT, 1.0)]
        scale = max(np.abs(WX).max(), np.abs(WY).max())
        assert np.abs(WY.imag[top] - X.T).max() <= 1e-15 * scale
        TX = meshgrid_offset_table(kind, n)[0]
        edge = np.zeros_like(TX)
        edge[0] = TX[0]                      # offset a = -n
        E = np.fft.rfft2(np.fft.ifftshift(edge))
        assert np.abs(WX.real - E.real).max() <= 1e-15 * scale
        assert np.abs(WY.real - np.fft.rfft2(np.fft.ifftshift(edge.T)).real).max() <= 1e-15 * scale
    for W, H, sign in mirrors:
        assert np.abs(W[bottom] - sign * H[n - 1:0:-1]).max() <= 1e-15 * scale


@pytest.mark.parametrize("n", [64, 256])
def test_kernel_spectra_cache_half_tables(n):
    # the cache holds (n+1)^2 doubles per log table and at most twice that per gradient
    # pair, each table owning its memory (no view keeps a full-height buffer alive)
    (K,) = potential._kernel_spectra("log", n)
    grad = potential._kernel_spectra("grad", n)
    assert K.nbytes == (n + 1) ** 2 * 8 and K.base is None
    assert sum(T.nbytes for T in grad) <= 2 * (n + 1) ** 2 * 8
    assert all(T.base is None for T in grad)


def test_log_spectrum_build_peak_memory():
    # a cold build transforms the n + 1 distinct quadrant rows and gathers them:
    # about 7 n^2 doubles at its peak, where the (2n)^2 table, its shifted copy
    # and both full transforms took about 16
    n = 256
    tracemalloc.start()
    try:
        potential._kernel_spectra.__wrapped__("log", n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * n * n * 8


@pytest.mark.parametrize("kind", ["log", "grad"])
def test_fft_sums_own_their_samples(kind):
    # each result is an n x n array of its own, not a view of the workspace,
    # whose bottom half the inverse transforms reuse; so later sums at the
    # same or another size leave it unchanged
    flat = ConformalFactor.zero()
    rng = np.random.default_rng(11)

    def sums(n):
        g = CartesianGrid(center=(0.5, -1.0), half_width=6.0, n=n)
        rho = rng.random((n, n)) + 0.1
        if kind == "log":
            return [newtonian_potential(rho, flat, g, method="fft").samples]
        return list(potential_gradient(DensityField(grid=g, samples=rho, phi=flat)))

    results = [sums(n) for n in (40, 64, 40)]
    kept = [[s.copy() for s in r] for r in results]
    results.append(sums(40))
    for r, k in zip(results, kept):
        for s, t in zip(r, k):
            n = s.shape[0]
            assert s.base is None and s.nbytes == n * n * 8
            assert np.array_equal(s, t)
    assert not np.array_equal(results[0][0], results[2][0])
    assert not np.array_equal(results[2][0], results[3][0])


@pytest.mark.parametrize("method", ["direct", "fft"])
def test_potential_shifts_by_log_spacing(method):
    # same n and charges, spacings 0.25 and 3.5: c differs by -(ln h_b/h_a / 2pi) sum q
    a = CartesianGrid(center=(0.0, 0.0), half_width=4.0, n=32)
    b = CartesianGrid(center=(7.0, -3.0), half_width=56.0, n=32)
    q = np.random.default_rng(5).random((32, 32))
    ca = lattice_potential(q, a, method=method)
    cb = lattice_potential(q, b, method=method)
    shift = -np.log(b.h / a.h) / (2 * np.pi) * q.sum()
    assert np.max(np.abs(cb - ca - shift)) <= 1e-12 * np.max(np.abs(cb))


def test_cauchy_profile_potential_closed_form(flat_phi):
    # c of the critical profile is -2 ln(1 + r^2); exact value 0 at the origin
    g = CartesianGrid(center=(0, 0), half_width=40.0, n=256)
    rho = 8.0 * np.pi * ScaledCauchyProfile(lam=1.0).on_grid(g)
    c = newtonian_potential(rho, flat_phi, g)
    X, Y = g.meshes()
    exact = -2.0 * np.log1p(X**2 + Y**2)
    inner = g.radius() < 10.0
    assert np.max(np.abs(c.samples - exact)[inner]) < 0.03
    i = np.argmin(np.abs(g.x))
    assert abs(c.samples[i, i] - (-2.0 * np.log1p(g.x[i] ** 2 + g.y[i] ** 2))) < 0.02


def test_log_density_minus_potential_constant(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=40.0, n=256)
    rho = 8.0 * np.pi * ScaledCauchyProfile(lam=1.0).on_grid(g)
    c = newtonian_potential(rho, flat_phi, g)
    f = np.log(rho) - c.samples
    inner = g.radius() < 16.0
    assert np.mean(f[inner]) == pytest.approx(np.log(8.0), abs=0.02)


def _far_field(c, m, annulus):
    """c + (m / 4pi) ln(1 + r^2) on the annulus cells: constant for exact fields."""
    mask = annulus.mask(c.grid)
    return c.samples[mask] + (m / (4.0 * np.pi)) * np.log1p(c.grid.radius()[mask] ** 2)


def test_far_field_combination_bounded(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=60.0, n=512)
    rho = 8.0 * np.pi * ScaledCauchyProfile(lam=1.0).on_grid(g)
    c = newtonian_potential(rho, flat_phi, g)
    combo = _far_field(c, 8 * np.pi, AnnulusSpec(R=20.0))
    assert np.ptp(combo) <= 0.05
    # same combination for the exact field is identically zero
    assert abs(combo.max()) < 0.1


def test_far_field_detects_mass_mismatch(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=60.0, n=256)
    rho = 8.0 * np.pi * ScaledCauchyProfile(lam=1.0).on_grid(g)
    c = newtonian_potential(rho, flat_phi, g)
    good = np.ptp(_far_field(c, 8 * np.pi, AnnulusSpec(R=20.0)))
    skew = np.ptp(_far_field(c, 8.8 * np.pi, AnnulusSpec(R=20.0)))
    # mismatch drifts by (dm/4pi) * spread of ln(1+r^2) across the annulus
    dm = 0.8 * np.pi
    expected_drift = dm / (4 * np.pi) * (np.log1p(1600.0) - np.log1p(400.0))
    assert skew - good == pytest.approx(expected_drift, rel=0.1)


def test_far_field_bounded_under_conformal_factor():
    # the kernel is conformally invariant: curved-area potential keeps the bound
    g = CartesianGrid(center=(0, 0), half_width=60.0, n=256)
    phi = ConformalFactor.radial_bump(0.1, 2.0)
    mu = ScaledCauchyProfile(lam=1.0).on_grid(g)
    rho = 8 * np.pi * mu * np.exp(-2.0 * phi.on_grid(g))
    c = newtonian_potential(rho, phi, g)
    mass = float(np.sum(grid_geometry(phi, g).e2phi * rho * g.cell_area))
    assert np.ptp(_far_field(c, mass, AnnulusSpec(R=20.0))) <= 0.05


def test_annulus_outside_grid_rejected(flat_phi, grid64):
    rho = 8.0 * np.pi * ScaledCauchyProfile(lam=1.0).on_grid(grid64)
    c = newtonian_potential(rho, flat_phi, grid64)
    with pytest.raises(ValueError):
        _far_field(c, 8 * np.pi, AnnulusSpec(R=grid64.half_width))


def test_coulomb_energy_matches_direct_potential(grid64):
    q = np.random.default_rng(1).random((grid64.n, grid64.n)) * grid64.cell_area
    want = float(np.sum(q * lattice_potential(q, grid64, method="direct")))
    assert coulomb_energy(q, grid64) == pytest.approx(want, rel=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(4, 48), half_width=st.floats(0.02, 200.0), zero_mass=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_coulomb_energy_equals_oracle_property(k, half_width, zero_mass, seed):
    # Parseval on the forward spectrum against (q, c) for the direct and the FFT
    # potential; the tolerance scales with (sum |q|)^2 (1 + |ln h|), the size of
    # the terms that cancel in a zero-mass energy
    g = CartesianGrid(center=(0.7, -1.3), half_width=half_width, n=2 * k)
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((g.n, g.n)) * g.cell_area
    if zero_mass:
        q -= q.mean()
    e = coulomb_energy(q, g)
    tol = 1e-15 * np.sum(np.abs(q)) ** 2 * (1.0 + abs(np.log(g.h)))
    for method in ("direct", "fft"):
        assert abs(e - float(np.sum(q * lattice_potential(q, g, method=method)))) <= tol


def test_coulomb_energy_peak_memory_and_workspace_reuse():
    # a warm energy allocates no grid-sized array; it squares the shared FFT
    # workspace in place, which the next lattice sum overwrites before reading
    n = 256
    g = CartesianGrid(center=(0.2, 0.1), half_width=9.0, n=n)
    rng = np.random.default_rng(5)
    q, p = rng.random((n, n)) * g.cell_area, rng.standard_normal((n, n))
    before = lattice_potential(p, g)
    coulomb_energy(q, g)
    tracemalloc.start()
    try:
        coulomb_energy(q, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * n * n * 8
    assert np.array_equal(lattice_potential(p, g), before)


def test_discrete_laplacian_recovers_density(flat_phi):
    # Delta c = rho in the interior for smooth compactly supported rho
    from curvedks.geometry import boundary_mask, laplacian_flat
    g = CartesianGrid(center=(0, 0), half_width=8.0, n=128)
    X, Y = g.meshes()
    rho = np.exp(-(X**2 + Y**2))
    c = newtonian_potential(rho, flat_phi, g)
    lap = laplacian_flat(c.samples, g)
    interior = ~boundary_mask(g, 2)
    err = np.sqrt(np.sum((lap - rho)[interior] ** 2) * g.cell_area)
    assert err < 0.02  # O(h) or better in L2


def test_potential_probe_convergence_order(flat_phi):
    # fixed physical probe, clipped smooth density, order >= 1.5
    errs, ns = [], [64, 128, 256]
    for n in ns:
        g = CartesianGrid(center=(0, 0), half_width=8.0, n=n)
        X, Y = g.meshes()
        rho = np.exp(-(X**2 + Y**2))
        c = newtonian_potential(rho, flat_phi, g)
        i = np.argmin(np.abs(g.x - 1.37))
        j = np.argmin(np.abs(g.y + 0.54))
        # oracle: adaptive radial quadrature of the convolution at the probe
        px, py = g.x[i], g.y[j]
        val, _ = integrate.dblquad(
            lambda y, x: -np.log(np.hypot(x - px, y - py) + 1e-300) / (2 * np.pi)
            * np.exp(-(x**2 + y**2)),
            -8, 8, -8, 8, epsabs=1e-9, epsrel=1e-9)
        errs.append(abs(c.samples[i, j] - val))
    assert lstsq_order(ns, errs) >= 1.5


def test_truncation_tail_reported(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=30.0, n=128)
    rho = 8.0 * np.pi * ScaledCauchyProfile(lam=1.0).on_grid(g)
    tail = estimate_tail(rho, g)
    # analytic tail mass of the critical profile beyond the grid: 8 pi lam^2 / R^2
    assert tail.finite
    assert tail.m_tail == pytest.approx(8 * np.pi / 30.0**2, rel=0.3)


def test_tail_fit_is_the_least_squares_line():
    # domain.line_fit, as each of its four callers fits with it, against np.polyfit's line
    g = CartesianGrid(center=(0.3, -0.2), half_width=25.0, n=96)
    rho = 8.0 * np.pi * ScaledCauchyProfile(lam=1.0).on_grid(g)
    rho *= np.exp(0.1 * np.random.default_rng(0).standard_normal(rho.shape))
    rep = estimate_tail(rho, g)
    r = g.radius()
    ring = (r >= 0.7 * g.half_width) & (r <= g.half_width)
    slope, intercept = np.polyfit(np.log(r[ring]), np.log(rho[ring]), 1)
    p, W = -slope, g.half_width
    m_tail = 2 * np.pi * np.exp(intercept + (2 - p) * np.log(W)) / (p - 2)
    assert rep.m_tail == pytest.approx(m_tail, rel=1e-12)
    # the envelope's log-log slope over an annulus
    annulus = AnnulusSpec(R=5.0)
    inside = annulus.mask(g)
    envelope = decay_envelope(DensityField(grid=g, samples=rho, phi=ConformalFactor.zero()),
                              annulus)
    assert envelope.tail_slope == pytest.approx(
        np.polyfit(np.log(r[inside]), np.log(rho[inside]), 1)[0], rel=1e-12)
    # the scan's slope of F in ln lambda, where (m/4pi)(m - 8pi) is far from 0
    table = lambda_scan(4.0 * np.pi, ConformalFactor.zero(), [0.05, 0.5, 5.0],
                        scaled_half_width=20.0, scaled_n=64)
    assert table.slope_fit == pytest.approx(np.polyfit(
        np.log([row.lam for row in table.rows]), [row.value for row in table.rows], 1)[0],
        rel=1e-12)
    # the flow's dW/dt over a noisy second moment trace
    t = np.linspace(0.0, 0.3, 12)
    W2 = 2.0 - 4.0 * t + 1e-3 * np.random.default_rng(1).standard_normal(t.size)
    diag = FlowDiagnostics(t=list(t), mass=[4.0 * np.pi] * t.size, second_moment=list(W2))
    assert virial_rate(diag)[0] == pytest.approx(np.polyfit(t, W2, 1)[0], rel=1e-12)
