import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lstsq_order
from curvedks import energy, flow, potential
from curvedks.domain import CartesianGrid
from curvedks.geometry import ConformalFactor
from curvedks.flow import (BlowUpDetected, CFLViolation, FlowDiagnostics, StepLimitReached,
                           cfl_bound, flow_init, flow_step, flux_divergence,
                           run_flow, second_moment, snapshot_writer, virial_rate)
from curvedks.stationary import DensityField, density_from_profile


def _gaussian_field(grid, m, sigma=1.0, phi=None):
    phi = phi or ConformalFactor.zero()
    X, Y = grid.meshes()
    rho = m / (2 * np.pi * sigma**2) * np.exp(-(X**2 + Y**2) / (2 * sigma**2))
    rho *= m / (np.sum(rho * np.exp(2.0 * phi(X, Y))) * grid.cell_area)
    return DensityField(grid=grid, samples=rho, phi=phi)


def test_cfl_rejection():
    g = CartesianGrid(center=(0, 0), half_width=10.0, n=64)
    fld = _gaussian_field(g, 4 * np.pi)
    state = flow_init(fld)
    state.dt = 10.0 * cfl_bound(fld, state.c)
    with pytest.raises(CFLViolation):
        flow_step(state)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(k=st.integers(8, 24), half_width=st.floats(2.0, 20.0), curved=st.booleans(),
       amplitude=st.floats(-0.5, 0.5), support=st.floats(0.3, 1.0),
       floor=st.floats(1e-6, 1.0), seed=st.integers(0, 2**32 - 1))
def test_flow_step_at_cfl_dt_property(k, half_width, curved, amplitude, support, floor, seed):
    # one step at the full CFL dt on a rough positive density, flat or curved
    g = CartesianGrid(center=(0.0, 0.0), half_width=half_width, n=2 * k)
    rng = np.random.default_rng(seed)
    phi = (ConformalFactor.radial_bump(amplitude, support * half_width,
                                       tuple(rng.uniform(-0.5, 0.5, 2) * half_width))
           if curved else ConformalFactor.zero())
    fld = DensityField(grid=g, samples=floor + rng.random((2 * k, 2 * k)), phi=phi)
    state = flow_init(fld)
    state = flow_step(replace(state, dt=cfl_bound(fld, state.c)))
    new = state.field
    assert abs(new.mass - fld.mass) <= 1e-12 * fld.mass
    # the stored mass is the curved sum of the new samples
    assert new.mass == float(np.sum(new.samples * new.geometry.weights))
    assert new.samples.min() >= 0.0
    ref = new.potential(method="fft").samples
    assert np.max(np.abs(state.c.samples - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_mass_conserved_exactly_over_many_steps():
    g = CartesianGrid(center=(0, 0), half_width=10.0, n=64)
    fld = _gaussian_field(g, 4 * np.pi)
    state = flow_init(fld)
    m0 = fld.mass
    for _ in range(2000):
        state = flow_step(state)
    assert abs(state.field.mass - m0) / m0 <= 1e-10


@settings(derandomize=True, max_examples=30, deadline=None)
@given(k=st.integers(16, 32), half_width=st.floats(4.0, 12.0), bump=st.booleans(),
       mass=st.floats(1.0, 20.0), width=st.floats(0.1, 0.4),
       centres=st.lists(st.floats(-0.3, 0.3), min_size=4, max_size=4),
       amplitude=st.floats(-0.5, 0.5), support=st.floats(0.2, 0.8))
def test_curved_mass_and_positivity_over_many_cfl_steps(k, half_width, bump, mass, width,
                                                        centres, amplitude, support):
    # 50 steps, each at the current CFL bound, from a radial bump or a Gaussian
    # density under a radial-bump conformal factor
    g = CartesianGrid(center=(0.0, 0.0), half_width=half_width, n=2 * k)
    cx, cy, px, py = (v * half_width for v in centres)
    phi = ConformalFactor.radial_bump(amplitude, support * half_width, (px, py))
    X, Y = g.meshes()
    s = width * half_width
    if bump:
        rho = ConformalFactor.radial_bump(1.0, s, (cx, cy))(X, Y)
    else:
        rho = np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * s * s))
    rho *= mass / (np.sum(rho * np.exp(2.0 * phi(X, Y))) * g.cell_area)
    state = flow_init(DensityField(grid=g, samples=rho, phi=phi))
    m0, geometry = state.field.mass, state.field.geometry
    for _ in range(50):
        state = flow_step(replace(state, dt=cfl_bound(state.field, state.c)))
    assert abs(state.field.mass - m0) <= 1e-12 * m0
    assert state.field.samples.min() >= 0.0
    # every field of the run shares the one curved geometry (a flat one costs no array)
    assert phi.is_flat or state.field.geometry is geometry


def test_positivity_preserved():
    g = CartesianGrid(center=(0, 0), half_width=10.0, n=96)
    fld = _gaussian_field(g, 8 * np.pi, sigma=0.8)
    state = flow_init(fld)
    for _ in range(50):
        state = flow_step(state)
        assert state.field.samples.min() >= 0.0


def test_stationary_profile_persists(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=15.0, n=256)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)
    final, diag = run_flow(fld, 0.1, snapshot_every=100)
    l1 = np.sum(np.abs(final.field.samples - fld.samples)) * g.cell_area
    assert l1 / (np.sum(np.abs(fld.samples)) * g.cell_area) <= 0.02
    assert diag.mass_drift <= 1e-10


def test_stationary_drift_first_order_in_h(flat_phi):
    # L1 drift at fixed time decreases at order >= 1 as h -> 0
    drifts, ns = [], [64, 128, 256]
    for n in ns:
        g = CartesianGrid(center=(0, 0), half_width=15.0, n=n)
        fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)
        final, _ = run_flow(fld, 0.02, snapshot_every=10**6)
        drifts.append(np.sum(np.abs(final.field.samples - fld.samples)) * g.cell_area)
    assert lstsq_order(ns, drifts) >= 1.0


def test_subcritical_gaussian_spreads():
    g = CartesianGrid(center=(0, 0), half_width=15.0, n=128)
    fld = _gaussian_field(g, 4 * np.pi)
    final, diag = run_flow(fld, 0.05, snapshot_every=1)
    assert diag.mass_drift <= 1e-10
    assert diag.second_moment[-1] > diag.second_moment[0]


def test_virial_rates_match_closed_form():
    g = CartesianGrid(center=(0, 0), half_width=15.0, n=256)
    for m in (4 * np.pi, 8 * np.pi):
        fld = _gaussian_field(g, m)
        _, diag = run_flow(fld, 0.05, snapshot_every=1)
        slope, expected = virial_rate(diag)
        assert slope == pytest.approx(expected, abs=max(0.05 * abs(expected), 0.85))


def test_supercritical_contracts():
    g = CartesianGrid(center=(0, 0), half_width=15.0, n=256)
    m = 12 * np.pi
    fld = _gaussian_field(g, m)
    _, diag = run_flow(fld, 0.02, snapshot_every=1)
    slope, expected = virial_rate(diag)
    assert expected == pytest.approx(4 * m - m**2 / (2 * np.pi), rel=1e-12)
    assert expected < 0
    assert slope == pytest.approx(expected, rel=0.08)


def test_virial_rate_refuses_curved_runs():
    diag = FlowDiagnostics(t=list(np.linspace(0, 1, 20)), mass=[1.0] * 20,
                           second_moment=list(np.linspace(1, 2, 20)),
                           free_energy=[np.nan] * 20, phi_is_flat=False)
    with pytest.raises(ValueError):
        virial_rate(diag)


def test_free_energy_dissipates():
    g = CartesianGrid(center=(0, 0), half_width=15.0, n=128)
    fld = _gaussian_field(g, 4 * np.pi)
    _, diag = run_flow(fld, 0.03, snapshot_every=2)
    F = diag.free_energy
    assert max(np.diff(F)) <= 1e-3 * max(np.abs(F))    # no rise beyond 1e-3 of max |F|
    assert F[-1] < F[0]


def test_stationary_energy_nearly_constant(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=15.0, n=128)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)
    _, diag = run_flow(fld, 0.01, snapshot_every=2)
    F = diag.free_energy
    per_step = (max(F) - min(F)) / max(len(F) - 1, 1)
    assert per_step <= 1e-3 * abs(F[0])


def test_reversed_step_raises_energy():
    # negating the update (time reversal) must push the energy up
    from curvedks.energy import free_energy
    g = CartesianGrid(center=(0, 0), half_width=15.0, n=128)
    fld = _gaussian_field(g, 4 * np.pi)
    state = flow_init(fld)
    div = flux_divergence(state.field, state.c)
    reversed_rho = np.maximum(state.field.samples - state.dt * div, 0.0)
    rev = DensityField(grid=g, samples=reversed_rho, phi=fld.phi)
    assert free_energy(rev).total > free_energy(fld).total


def _padded_flux_divergence(rho, cs, h):
    """Reference: limited slopes from zero-padded backward and forward differences."""
    def slopes(axis):
        d = np.diff(rho, axis=axis)
        pad_b, pad_f = [(0, 0), (0, 0)], [(0, 0), (0, 0)]
        pad_b[axis], pad_f[axis] = (1, 0), (0, 1)
        a, b = np.pad(d, pad_b), np.pad(d, pad_f)
        return np.where(a * b > 0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)
    vx = (cs[1:, :] - cs[:-1, :]) / h
    vy = (cs[:, 1:] - cs[:, :-1]) / h
    sx, sy = slopes(0), slopes(1)
    rho_face_x = np.where(vx > 0, rho[:-1, :] + 0.5 * sx[:-1, :], rho[1:, :] - 0.5 * sx[1:, :])
    rho_face_y = np.where(vy > 0, rho[:, :-1] + 0.5 * sy[:, :-1], rho[:, 1:] - 0.5 * sy[:, 1:])
    Fx = -(rho[1:, :] - rho[:-1, :]) / h + rho_face_x * vx
    Fy = -(rho[:, 1:] - rho[:, :-1]) / h + rho_face_y * vy
    div = np.zeros_like(rho)
    div[1:, :] += Fx / h
    div[:-1, :] -= Fx / h
    div[:, 1:] += Fy / h
    div[:, :-1] -= Fy / h
    return div


@pytest.mark.parametrize("seed", range(4))
def test_flux_divergence_matches_padded_formula(seed):
    # the grid sizes repeat and interleave, while the workspace holds one size,
    # and every result is its own array: later calls leave it unchanged
    rng = np.random.default_rng(seed)
    results = []
    for n in (16 + 2 * seed, 16 + 2 * seed, 8, 16 + 2 * seed):
        g = CartesianGrid(center=(0.4, -0.2), half_width=3.0, n=n)
        rho = rng.random((n, n)) ** 3
        rho[rng.random((n, n)) < 0.2] = 0.0
        fld = DensityField(grid=g, samples=rho, phi=ConformalFactor.zero())
        c = fld.potential(method="fft")
        div = flux_divergence(fld, c)
        results.append((div, div.copy(), _padded_flux_divergence(rho, c.samples, g.h)))
    for div, first, expected in results:
        assert np.array_equal(div, first)
        assert np.array_equal(div, expected)


def test_flow_step_allocates_only_its_outputs():
    # after warm-up, a step's peak traced memory is that of the arrays it keeps
    # (new density, potential, the old potential's two face gradients), the
    # divergence and the lattice sum's FFT transients: about 8 n^2 doubles,
    # where per-operation temporaries took about 14
    g = CartesianGrid(center=(0, 0), half_width=8.0, n=64)
    state = flow_step(flow_step(flow_init(_gaussian_field(g, 4 * np.pi))))
    tracemalloc.start()
    try:
        flow_step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * g.n**2 * 8


def test_second_moment_matches_mesh_formula():
    g = CartesianGrid(center=(0.3, -0.7), half_width=6.0, n=32)
    fld = _gaussian_field(g, 4 * np.pi, phi=ConformalFactor.radial_bump(0.1, 2.0))
    X, Y = g.meshes()
    assert second_moment(fld) == float(np.sum((X**2 + Y**2) * fld.samples) * g.cell_area)


def test_snapshot_writer_is_np_save_of_the_run_states(tmp_path):
    g = CartesianGrid(center=(0, 0), half_width=10.0, n=32)
    snaps = []
    with snapshot_writer(tmp_path / "snaps.npy", g.n) as append:
        _, diag = run_flow(_gaussian_field(g, 4 * np.pi), 0.02, snapshot_every=3,
                           on_snapshot=lambda s: (snaps.append(s), append(s.field.samples)))
    np.save(tmp_path / "stacked.npy", np.stack([s.field.samples for s in snaps]))
    assert (tmp_path / "snaps.npy").read_bytes() == (tmp_path / "stacked.npy").read_bytes()
    assert np.load(tmp_path / "snaps.npy").shape == (len(diag.t), g.n, g.n)
    assert not (tmp_path / "snaps.npy.partial").exists()


@pytest.mark.parametrize("k", [1, 9, 10, 100])
def test_snapshot_writer_is_np_save_of_the_stack(tmp_path, k):
    # the count's digits grow from 1 to 3; the header it was written in must not
    slices = list(np.random.default_rng(k).standard_normal((k, 6, 6)))
    with snapshot_writer(tmp_path / "snaps.npy", 6) as append:
        for a in slices:
            append(a)
    np.save(tmp_path / "stacked.npy", np.stack(slices))
    assert (tmp_path / "snaps.npy").read_bytes() == (tmp_path / "stacked.npy").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snaps.npy", "stacked.npy"]


@pytest.mark.parametrize("bad", [np.zeros((6, 7)), np.zeros((6, 6), dtype=np.float32),
                                 np.zeros((6, 6), dtype=">f8"), np.zeros((1, 6, 6))])
def test_snapshot_writer_rejects_a_bad_slice_and_leaves_no_file(tmp_path, bad):
    with pytest.raises(ValueError, match="float64"):
        with snapshot_writer(tmp_path / "snaps.npy", 6) as append:
            append(np.ones((6, 6)))
            append(bad)
    assert list(tmp_path.iterdir()) == []


def test_snapshot_writer_refuses_a_header_that_outgrows_its_placeholder(tmp_path, monkeypatch):
    # numpy pads the v1.0 header so the count fits in place; should that ever
    # fail, the writer raises instead of shifting the data, and publishes nothing
    real = flow.npy_format.write_array_header_1_0

    def longer_once_counted(fh, d):
        real(fh, dict(d, descr=d["descr"] + " " * 64) if d["shape"][0] else d)

    monkeypatch.setattr(flow.npy_format, "write_array_header_1_0", longer_once_counted)
    with pytest.raises(RuntimeError, match="placeholder"):
        with snapshot_writer(tmp_path / "snaps.npy", 6) as append:
            append(np.ones((6, 6)))
    assert list(tmp_path.iterdir()) == []


def test_blow_up_detection():
    g = CartesianGrid(center=(0, 0), half_width=4.0, n=64)
    X, Y = g.meshes()
    m = 40 * np.pi
    rho = m / (2 * np.pi * 0.05**2) * np.exp(-(X**2 + Y**2) / (2 * 0.05**2))
    rho *= m / (np.sum(rho) * g.cell_area)
    fld = DensityField(grid=g, samples=rho, phi=ConformalFactor.zero())
    state = flow_init(fld)
    with pytest.raises((BlowUpDetected, CFLViolation)):
        for _ in range(5000):
            state = flow_step(state)


def test_blow_up_measures_cell_mass_with_curved_area():
    # one cell holds 60% of the curved mass but only ~20% of the flat-measure mass
    phi = ConformalFactor.radial_bump(1.0, 6.0)
    g = CartesianGrid(center=(0, 0), half_width=4.0, n=16)
    w = np.exp(2.0 * phi.on_grid(g)) * g.cell_area
    rho = np.ones((16, 16))
    rest = np.sum(w) - w[8, 8]
    rho[8, 8] = 1.5 * rest / w[8, 8]
    assert rho[8, 8] * g.cell_area < 0.5 * (rest + rho[8, 8] * w[8, 8])
    state = flow_init(DensityField(grid=g, samples=rho, phi=phi), dt=1e-12)
    with pytest.raises(BlowUpDetected):
        flow_step(state)


def test_run_flow_lands_on_t_end():
    g = CartesianGrid(center=(0, 0), half_width=10.0, n=32)
    fld = _gaussian_field(g, 4 * np.pi)
    final, diag = run_flow(fld, 0.1, dt=0.03)
    assert (final.t, final.step_count, final.dt) == (0.1, 4, 0.03)
    assert diag.t[-1] == 0.1
    # a t_end that is a whole number of steps up to roundoff takes no extra sliver step
    final, _ = run_flow(fld, 0.1, dt=0.01)
    assert (final.t, final.step_count) == (0.1, 10)


def test_run_flow_raises_when_steps_run_out(monkeypatch):
    g = CartesianGrid(center=(0, 0), half_width=10.0, n=32)
    fld = _gaussian_field(g, 4 * np.pi)
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    with pytest.raises(StepLimitReached):
        run_flow(fld, 0.1, dt=0.03)
    assert issubclass(StepLimitReached, RuntimeError)
    final, _ = run_flow(fld, 0.09, dt=0.03)
    assert final.step_count == 3
    # 1000 steps of 0.1 sum to 100 less 1.4e-12, so reaching t = 100 takes a 1001st step
    monkeypatch.setattr(flow, "MAX_STEPS", 1000)
    wide = CartesianGrid(center=(0, 0), half_width=40.0, n=16)
    with pytest.raises(StepLimitReached, match="reached"):
        run_flow(_gaussian_field(wide, 1.0, sigma=10.0), 100.0, dt=0.1)


def test_run_flow_fails_before_its_first_step_when_dt_cannot_reach_t_end(monkeypatch):
    # dt is fixed for the run, so a budget short of t_end / dt is known at t = 0:
    # no step is taken and no snapshot is handed on
    g = CartesianGrid(center=(0, 0), half_width=10.0, n=32)
    taken = []
    monkeypatch.setattr(flow, "MAX_STEPS", 10)
    with pytest.raises(StepLimitReached, match="needs over 10 steps"):
        run_flow(_gaussian_field(g, 4 * np.pi), 1.0, dt=1e-300, on_snapshot=taken.append)
    assert taken == []


def test_second_moment_definition():
    g = CartesianGrid(center=(0, 0), half_width=12.0, n=128)
    fld = _gaussian_field(g, 4 * np.pi, sigma=1.3)
    # W of a mass-m Gaussian is 2 m sigma^2
    assert second_moment(fld) == pytest.approx(2 * 4 * np.pi * 1.3**2, rel=1e-3)


def test_curved_flow_conserves_curved_mass():
    phi = ConformalFactor.radial_bump(0.1, 2.0)
    g = CartesianGrid(center=(0, 0), half_width=10.0, n=96)
    fld = _gaussian_field(g, 4 * np.pi, phi=phi)
    final, diag = run_flow(fld, 0.01, snapshot_every=1)
    assert diag.mass_drift <= 1e-10
    assert final.field.samples.min() >= 0.0


def test_recorded_free_energy_reuses_step_potential(monkeypatch):
    phi = ConformalFactor.radial_bump(0.1, 2.0)
    g = CartesianGrid(center=(0, 0), half_width=10.0, n=64)
    fld = _gaussian_field(g, 4 * np.pi, phi=phi)
    sums = []
    monkeypatch.setattr(energy, "lattice_potential",
                        lambda *a, **k: sums.append(1) or potential.lattice_potential(*a, **k))
    snaps = []
    _, diag = run_flow(fld, 0.01, snapshot_every=2, on_snapshot=snaps.append)
    assert sums == []     # the energy pairs the charges with the step's own potential
    monkeypatch.undo()
    assert len(diag.free_energy) == len(snaps)
    for F, s in zip(diag.free_energy, snaps):
        assert F == pytest.approx(energy.free_energy(s.field).total, rel=1e-12)


def test_flow_sums_by_fft_at_every_grid_size():
    # the engine's default path is FFT at every grid size, small ones included
    for n in (8, 96):
        small = _gaussian_field(CartesianGrid(center=(0, 0), half_width=10.0, n=n), 4 * np.pi)
        q = small.samples * small.geometry.weights
        assert np.array_equal(potential.newtonian_potential(small.samples, small.phi,
                                                            small.grid).samples,
                              potential.lattice_potential(q, small.grid, "fft"))
    g = CartesianGrid(center=(0, 0), half_width=10.0, n=64)
    snaps = []
    run_flow(_gaussian_field(g, 4 * np.pi), 0.05, snapshot_every=1, on_snapshot=snaps.append)
    assert len(snaps) > 2
    for s in snaps:
        q = s.field.samples * s.field.geometry.weights
        assert np.array_equal(s.c.samples, potential.lattice_potential(q, g, "fft"))


def test_diagnostics_csv(tmp_path):
    from curvedks.flow import diagnostics_to_csv
    g = CartesianGrid(center=(0, 0), half_width=10.0, n=64)
    fld = _gaussian_field(g, 4 * np.pi)
    _, diag = run_flow(fld, 0.01, snapshot_every=1)
    p = tmp_path / "diag.csv"
    diagnostics_to_csv(diag, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "t,mass,W,F"
    assert len(lines) == len(diag.t) + 1
