"""Time integration of the parabolic-elliptic system on the curved plane.

Flat-coordinate form of the evolution:

    d rho / dt = e^{-2 phi} div( grad rho - rho grad c ),   c = G * (e^{2 phi} rho),

discretized as a conservative finite-volume update: central diffusive flux,
minmod-limited second-order upwind advective flux, explicit Euler, zero-flux
box boundary. The update is flux-form, so the curved mass
sum rho e^{2 phi} h^2  telescopes and is conserved to roundoff; the limited
upwind reconstruction under the CFL bound preserves positivity.

The factor phi is fixed for a run, so every field of the run holds the one
geometry of phi on the grid (geometry.grid_geometry): e^{-2 phi} for the
update, min e^{2 phi} for the CFL bound and the area weights e^{2 phi} h^2.
A step forms the curved cell masses rho e^{2 phi} h^2 once and hands them to
the lattice sum as its charges; the new field's stored mass is their sum. The
CFL bound and the fluxes read the same face differences of c. Every potential
of a run is an FFT lattice sum, at any grid size.

A step allocates only the arrays it returns: flux_divergence works in one
cached set of per-grid buffers (_flux_workspace), reused by every call at
that grid size. The buffers are shared, so, like the FFT workspace of the
lattice sum, this is not thread-safe: run one flow at a time per process.
run_flow keeps no state it records; snapshot_writer streams densities to disk.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache

import numpy as np
from numpy.lib import format as npy_format

from .domain import line_fit, write_csv
from .energy import free_energy
from .potential import PotentialField, lattice_potential
from .stationary import DensityField

CFL = 0.2                       # stability factor of the explicit step (cfl_bound)
DT_SAFETY = 0.8                 # automatic dt / CFL bound: room for c to steepen
MAX_STEPS = 10**6               # step budget of one run_flow call


class CFLViolation(RuntimeError):
    """Requested time step exceeds the stability bound."""


class BlowUpDetected(RuntimeError):
    """Mass concentrated into a single cell; the run cannot continue."""


class StepLimitReached(RuntimeError):
    """The step budget ran out before the run reached its end time."""


@dataclass
class FlowState:
    """One time level; its field's geometry gives e^{-2 phi} and min e^{2 phi}."""

    t: float
    field: DensityField
    c: PotentialField
    dt: float
    step_count: int = 0


@dataclass
class FlowDiagnostics:
    """Per-snapshot traces of the conserved and monitored quantities."""

    t: list[float] = dc_field(default_factory=list)
    mass: list[float] = dc_field(default_factory=list)
    second_moment: list[float] = dc_field(default_factory=list)
    free_energy: list[float] = dc_field(default_factory=list)
    phi_is_flat: bool = True

    @property
    def mass_drift(self) -> float:
        if not self.mass:
            return 0.0
        m0 = self.mass[0]
        return max(abs(m - m0) for m in self.mass) / abs(m0)


def second_moment(field: DensityField) -> float:
    """W = int |x|^2 rho dA0 (flat measure, absolute coordinates)."""
    grid = field.grid
    r2 = grid.x[:, None] ** 2 + grid.y[None, :] ** 2
    return float(np.sum(r2 * field.samples) * grid.cell_area)


def cfl_bound(field: DensityField, c: PotentialField) -> float:
    """dt <= CFL * h^2 * min(e^{2 phi}) / (1 + max|grad c| h)."""
    h = field.grid.h
    gx, gy = c.face_gradients
    # max|v| as max(max v, -min v): no |v| temporaries
    vmax = max(float(gx.max()), -float(gx.min()), float(gy.max()), -float(gy.min()), 0.0)
    return CFL * h * h * field.geometry.min_e2phi / (1.0 + vmax * h)


def flow_init(field: DensityField, dt: float | None = None) -> FlowState:
    """Initial state; the default dt is DT_SAFETY times the CFL bound, a given one must be > 0."""
    if dt is not None and not dt > 0:
        raise ValueError(f"time step must be positive, got dt = {dt!r}")
    c = field.potential()
    if dt is None:
        dt = DT_SAFETY * cfl_bound(field, c)
    return FlowState(t=0.0, field=field, c=c, dt=float(dt))


@lru_cache(maxsize=1)
def _flux_workspace(n: int) -> tuple[np.ndarray, ...]:
    """Buffers of one grid size for flux_divergence's two axis passes.

    Three flat float buffers (face values twice, cell slopes), a flat face
    mask, and an (n, n) array whose last column stays 0, which holds the
    y-face velocities in the cells' layout. One size only, as a flow keeps one
    grid (potential._fft_workspace grows instead); shared, so not thread-safe.
    """
    size = n * n
    return (np.empty(size), np.empty(size), np.empty(size), np.empty(size, dtype=bool),
            np.zeros((n, n)))


def _axis_fluxes(rho: np.ndarray, v: np.ndarray, h: float, o: int, bufs) -> np.ndarray:
    """Flat face fluxes over h between the cells k and k + o of rho.ravel().

    Offset o = n pairs x-neighbours and o = 1 y-neighbours, so both passes
    run on contiguous runs of the row-major cells; for o = 1 each row end
    also pairs with the next row's start, and those wrap-around fluxes are
    set to 0. v holds the face velocities in the same layout.
    F = (-d / h + rho_face v) / h with d the differences and rho_face the
    minmod-limited upwind state, computed in the workspace buffers bufs; the
    result is a view of the first one.
    """
    n = rho.shape[0]
    r = rho.ravel()
    m = r.size - o
    F, T, S, upwind = bufs
    F, T, upwind = F[:m], T[:m], upwind[:m]
    np.subtract(r[o:], r[:-o], out=F)                      # differences d
    # minmod-limited one-cell slopes: max(min(a, b), 0) + min(max(a, b), 0);
    # zero at the edge cells, which have one neighbour
    s, t = S[o:-o], T[:-o]
    np.minimum(F[:-o], F[o:], out=s)
    np.maximum(s, 0.0, out=s)
    np.maximum(F[:-o], F[o:], out=t)
    np.minimum(t, 0.0, out=t)
    s += t
    edges = [0, -1]
    S.reshape(n, n)[(slice(None), edges) if o == 1 else edges] = 0.0
    # face state from the lower cell where v > 0, else from the upper one
    np.multiply(S[:-o], 0.5, out=T)
    T += r[:-o]
    face = S[o:]
    face *= 0.5
    np.subtract(r[o:], face, out=face)
    np.greater(v, 0.0, out=upwind)
    np.copyto(face, T, where=upwind)
    face *= v
    np.negative(F, out=F)
    F /= h
    F += face
    F /= h
    if o == 1:
        # the caller adds these +0.0 to divergence entries that are never -0.0
        # (sums and differences starting from +0.0 are not), so no bit changes
        F[n - 1::n] = 0.0
    return F


def flux_divergence(field: DensityField, c: PotentialField) -> np.ndarray:
    """-div(F) with F = -grad rho + rho_face grad c on interior faces.

    The advective face state is the minmod-limited second-order upwind
    reconstruction (plain first-order upwinding drags a first-order bias
    into the second-moment rate that swamps the virial diagnostics at
    usable resolutions; the limited reconstruction keeps the face values
    inside the neighbor range, so positivity survives). Zero-flux box
    boundary; by the face-telescoping structure the curved mass of
    rho + dt e^{-2 phi} * (this) is exactly that of rho.

    The x and y passes run one after the other in the same per-grid
    workspace; only the returned array is allocated.
    """
    n = field.grid.n
    rho = field.samples
    vx, vy = c.face_gradients    # face-centred advective velocity, shared with cfl_bound
    *bufs, vy_cells = _flux_workspace(n)
    vy_cells[:, :-1] = vy
    div = np.zeros((n, n))
    flat = div.ravel()
    for o, v in ((n, vx.ravel()), (1, vy_cells.ravel()[:-1])):
        F = _axis_fluxes(rho, v, field.grid.h, o, bufs)
        flat[o:] += F
        flat[:-o] -= F
    return div


def flow_step(state: FlowState) -> FlowState:
    """One explicit conservative step; recomputes the potential afterwards.

    Raises CFLViolation if the stored dt exceeds the current stability
    bound, and BlowUpDetected once a single cell holds the bulk of the mass.
    """
    field, c = state.field, state.c
    bound = cfl_bound(field, c)
    if state.dt > bound * (1.0 + 1e-12):
        raise CFLViolation(f"dt = {state.dt:.3e} exceeds CFL bound {bound:.3e}")

    div = flux_divergence(field, c)
    rho_new = state.dt * field.geometry.e_m2phi    # rho + (dt e^{-2 phi}) div, built in place
    rho_new *= div
    rho_new += field.samples

    worst = float(rho_new.min())
    if worst < 0:
        raise CFLViolation(f"negativity after update (min rho = {worst:.3e}); reduce dt")
    new_field = DensityField(grid=field.grid, samples=rho_new, phi=field.phi)
    mass = new_field.mass    # the sum of q below, formed once by the field
    # curved cell masses, the potential's charges, in the spent divergence
    q = np.multiply(rho_new, new_field.geometry.weights, out=div)
    if float(q.max()) > 0.5 * mass:
        raise BlowUpDetected("more than half the mass sits in one cell")
    c_new = PotentialField(field.grid, lattice_potential(q, field.grid))
    return replace(state, t=state.t + state.dt, field=new_field, c=c_new,
                   step_count=state.step_count + 1)


def run_flow(field: DensityField, t_end: float, dt: float | None = None,
             snapshot_every: int = 1,
             on_snapshot=lambda state: None) -> tuple[FlowState, FlowDiagnostics]:
    """March to t_end; the first and every snapshot_every-th state go to diag and on_snapshot.

    The last step is shortened so the run ends exactly at t_end. Raises
    StepLimitReached if t_end needs more than MAX_STEPS steps (before the first
    step, as dt is fixed), and ValueError unless t_end > 0 and snapshot_every >= 1.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be at least 1, got {snapshot_every!r}")
    state = flow_init(field, dt=dt)
    if t_end > MAX_STEPS * state.dt * (1.0 + 1e-12):    # the last step may take 1e-12 dt more
        raise StepLimitReached(f"t_end {t_end:g} needs over {MAX_STEPS} steps of dt {state.dt:.3g}")
    diag = FlowDiagnostics(phi_is_flat=field.phi.is_flat)
    _record(diag, state, on_snapshot)
    while state.t < t_end:
        if state.step_count >= MAX_STEPS:
            raise StepLimitReached(f"{MAX_STEPS} steps reached t = {state.t:.6g}, "
                                   f"short of t_end = {t_end:.6g}")
        remaining = t_end - state.t
        if remaining > state.dt * (1.0 + 1e-12):
            state = flow_step(state)
        else:
            # a remainder within roundoff of dt is taken whole, not as an extra sliver
            last = flow_step(replace(state, dt=remaining))
            state = replace(last, t=t_end, dt=state.dt)
        if state.step_count % snapshot_every == 0:
            _record(diag, state, on_snapshot)
    return state, diag


def _record(diag: FlowDiagnostics, state: FlowState, on_snapshot) -> None:
    on_snapshot(state)
    diag.t.append(state.t)
    diag.mass.append(state.field.mass)
    diag.second_moment.append(second_moment(state.field))
    diag.free_energy.append(free_energy(state.field, c=state.c.samples).total)


def virial_rate(diag: FlowDiagnostics) -> tuple[float, float]:
    """Least-squares slope dW/dt of the second moment trace, against the
    closed-form rate 4m - m^2 / 2pi at the run's initial mass m.

    Only valid for the flat factor (the identity is a flat statement);
    refuses otherwise. Needs at least a 10-snapshot window.
    """
    if not diag.phi_is_flat:
        raise ValueError("the virial identity is evaluated on the flat plane only; "
                         "curved runs are not comparable")
    if len(diag.t) < 10:
        raise ValueError("virial window needs at least 10 snapshots")
    m = diag.mass[0]
    slope = line_fit(diag.t, diag.second_moment)[0]
    return slope, float(4.0 * m - m * m / (2.0 * np.pi))


def diagnostics_to_csv(diag: FlowDiagnostics, path, meta: str | None = None) -> None:
    write_csv(path, "t,mass,W,F",
              ("%.12g,%.17g,%.17g,%.17g\n" % row
               for row in zip(diag.t, diag.mass, diag.second_moment, diag.free_energy)), meta)


@contextmanager
def snapshot_writer(path, n: int):
    """Stream (n, n) float64 slices to path as np.save(path, np.stack(slices)) would.

    Yields append(samples), which writes at once. A clean exit puts the count in the
    header's padding and moves path + ".partial" to path; any exception removes it."""
    partial = f"{path}.partial"
    header = {"descr": npy_format.dtype_to_descr(np.dtype(float)), "fortran_order": False}

    def append(samples: np.ndarray) -> None:
        if samples.dtype != np.float64 or samples.shape != (n, n):
            raise ValueError(f"snapshot {samples.dtype} {samples.shape} is not float64 {(n, n)}")
        samples.tofile(fh)

    fh = open(partial, "wb")
    try:
        with fh:
            npy_format.write_array_header_1_0(fh, {**header, "shape": (0, n, n)})
            size = fh.tell()
            yield append
            count = (fh.tell() - size) // (8 * n * n)
            fh.seek(0)
            npy_format.write_array_header_1_0(fh, {**header, "shape": (count, n, n)})
            if fh.tell() != size:
                raise RuntimeError(f"the header of {count} snapshots outgrew its placeholder")
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise
