"""Time integration of the parabolic-elliptic system on the curved plane.

Flat-coordinate form of the evolution:

    d rho / dt = e^{-2 phi} div( grad rho - rho grad c ),   c = G * (e^{2 phi} rho),

discretized as a conservative finite-volume update: central diffusive flux,
minmod-limited second-order upwind advective flux, explicit Euler, zero-flux
box boundary. The update is flux-form, so the curved mass
sum rho e^{2 phi} h^2  telescopes and is conserved to roundoff; the limited
upwind reconstruction under the CFL bound preserves positivity.

The factor phi is fixed for a run, so flow_init samples it once: every state
of the run shares e^{-2 phi} on the grid, min e^{2 phi} for the CFL bound,
and the area weights e^{2 phi} h^2 of its density field. A step forms the
curved cell masses rho e^{2 phi} h^2 once and hands them to the lattice sum
as its charges, and the CFL bound and the fluxes read the same face
differences of c. Every potential of a run is an FFT lattice sum, at any
grid size.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .domain import write_csv
from .potential import PotentialField, lattice_potential
from .stationary import DensityField

CFL = 0.2                       # stability factor of the explicit step (cfl_bound)
DT_SAFETY = 0.8                 # automatic dt / CFL bound: room for c to steepen
ENERGY_RISE_TOLERANCE = 1e-3    # energy_trace's monotone flag: largest rise of F / max |F|


class CFLViolation(RuntimeError):
    """Requested time step exceeds the stability bound."""


class BlowUpDetected(RuntimeError):
    """Mass concentrated into a single cell; the run cannot continue."""


class StepLimitReached(RuntimeError):
    """The step budget ran out before the run reached its end time."""


@dataclass
class FlowState:
    """One time level; e_m2phi (e^{-2 phi} on the grid) and min_e2phi are
    sampled once per run by flow_init and shared by every state of the run."""

    t: float
    field: DensityField
    c: PotentialField
    dt: float
    e_m2phi: np.ndarray = dc_field(repr=False)
    min_e2phi: float
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

    @property
    def dW_dt(self) -> float:
        """Least-squares slope of the second moment trace."""
        if len(self.t) < 2:
            return float("nan")
        return float(np.polyfit(self.t, self.second_moment, 1)[0])


def second_moment(field: DensityField) -> float:
    """W = int |x|^2 rho dA0 (flat measure, absolute coordinates)."""
    X, Y = field.grid.meshes()
    return float(np.sum((X**2 + Y**2) * field.samples) * field.grid.cell_area)


def cfl_bound(field: DensityField, c: PotentialField, min_e2phi: float) -> float:
    """dt <= CFL * h^2 * min_e2phi / (1 + max|grad c| h), min_e2phi = min(e^{2 phi})."""
    h = field.grid.h
    gx, gy = c.face_gradients
    vmax = max(float(np.max(np.abs(gx))), float(np.max(np.abs(gy))), 0.0)
    return CFL * h * h * min_e2phi / (1.0 + vmax * h)


def flow_init(field: DensityField, dt: float | None = None) -> FlowState:
    """Initial state; the default dt is DT_SAFETY times the CFL bound, a given one must be > 0."""
    if dt is not None and not dt > 0:
        raise ValueError(f"time step must be positive, got dt = {dt!r}")
    phis = field.phi.on_grid(field.grid)
    min_e2phi = float(np.exp(2.0 * phis.min()))
    # re-summed every step (flow_step keeps c.method), so always by FFT: it
    # matches the direct sum to roundoff and is faster at every n, also in
    # "auto"'s direct range (timings at potential._DIRECT_LIMIT)
    c = field.potential(method="fft")
    if dt is None:
        dt = DT_SAFETY * cfl_bound(field, c, min_e2phi)
    return FlowState(t=0.0, field=field, c=c, dt=float(dt), e_m2phi=np.exp(-2.0 * phis),
                     min_e2phi=min_e2phi)


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smaller-magnitude argument where a and b share a sign, else 0."""
    return np.maximum(np.minimum(a, b), 0.0) + np.minimum(np.maximum(a, b), 0.0)


def flux_divergence(field: DensityField, c: PotentialField) -> np.ndarray:
    """-div(F) with F = -grad rho + rho_face grad c on interior faces.

    The advective face state is the minmod-limited second-order upwind
    reconstruction (plain first-order upwinding drags a first-order bias
    into the second-moment rate that swamps the virial diagnostics at
    usable resolutions; the limited reconstruction keeps the face values
    inside the neighbor range, so positivity survives). Zero-flux box
    boundary; by the face-telescoping structure the curved mass of
    rho + dt e^{-2 phi} * (this) is exactly that of rho.
    """
    grid = field.grid
    h = grid.h
    rho = field.samples
    vx, vy = c.face_gradients    # face-centred advective velocity, shared with cfl_bound
    dx = np.diff(rho, axis=0)
    dy = np.diff(rho, axis=1)
    # minmod-limited one-cell slopes; zero at the edge cells, which have one neighbour
    sx = np.zeros_like(rho)
    sx[1:-1, :] = _minmod(dx[:-1, :], dx[1:, :])
    sy = np.zeros_like(rho)
    sy[:, 1:-1] = _minmod(dy[:, :-1], dy[:, 1:])
    rho_face_x = np.where(vx > 0, rho[:-1, :] + 0.5 * sx[:-1, :],
                          rho[1:, :] - 0.5 * sx[1:, :])
    rho_face_y = np.where(vy > 0, rho[:, :-1] + 0.5 * sy[:, :-1],
                          rho[:, 1:] - 0.5 * sy[:, 1:])
    # face fluxes, already divided by h for the divergence
    Fx = (-dx / h + rho_face_x * vx) / h
    Fy = (-dy / h + rho_face_y * vy) / h
    div = np.zeros_like(rho)
    div[1:, :] += Fx
    div[:-1, :] -= Fx
    div[:, 1:] += Fy
    div[:, :-1] -= Fy
    return div


def flow_step(state: FlowState) -> FlowState:
    """One explicit conservative step; recomputes the potential afterwards.

    Raises CFLViolation if the stored dt exceeds the current stability
    bound, and BlowUpDetected once a single cell holds the bulk of the mass.
    """
    field = state.field
    c = state.c
    bound = cfl_bound(field, c, state.min_e2phi)
    if state.dt > bound * (1.0 + 1e-12):
        raise CFLViolation(f"dt = {state.dt:.3e} exceeds CFL bound {bound:.3e}")

    rho_new = field.samples + state.dt * state.e_m2phi * flux_divergence(field, c)

    if np.any(rho_new < 0):
        worst = float(rho_new.min())
        raise CFLViolation(f"negativity after update (min rho = {worst:.3e}); "
                           "reduce dt")
    new_field = DensityField(grid=field.grid, samples=rho_new, phi=field.phi,
                             area_weights=field.area_weights)
    q = rho_new * new_field.area_weights     # curved cell masses: the potential's charges
    mass = float(q.sum())
    if float(q.max()) > 0.5 * mass:
        raise BlowUpDetected("more than half the mass sits in one cell")
    c_new = PotentialField(grid=field.grid, samples=lattice_potential(q, field.grid, c.method),
                           mass_used=mass, method=c.method, rho=rho_new)
    return replace(state, t=state.t + state.dt, field=new_field, c=c_new,
                   step_count=state.step_count + 1)


def run_flow(field: DensityField, t_end: float, dt: float | None = None,
             snapshot_every: int = 1, with_energy: bool = False, max_steps: int = 10**6
             ) -> tuple[FlowState, FlowDiagnostics, list[FlowState]]:
    """March to t_end collecting diagnostics every snapshot_every steps.

    The last step is shortened so the run ends exactly at t_end. Raises
    StepLimitReached if t_end needs more than max_steps steps, and
    ValueError unless t_end > 0 and snapshot_every >= 1.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be at least 1, got {snapshot_every!r}")
    state = flow_init(field, dt=dt)
    diag = FlowDiagnostics(phi_is_flat=(field.phi.kind == "zero"))
    snapshots = [state]
    _record(diag, state, with_energy)
    while state.t < t_end:
        if state.step_count >= max_steps:
            raise StepLimitReached(f"{max_steps} steps reached t = {state.t:.6g}, "
                                   f"short of t_end = {t_end:.6g}")
        remaining = t_end - state.t
        if remaining > state.dt * (1.0 + 1e-12):
            state = flow_step(state)
        else:
            # a remainder within roundoff of dt is taken whole, not as an extra sliver
            last = flow_step(replace(state, dt=remaining))
            state = replace(last, t=t_end, dt=state.dt)
        if state.step_count % snapshot_every == 0:
            _record(diag, state, with_energy)
            snapshots.append(state)
    return state, diag, snapshots


def _record(diag: FlowDiagnostics, state: FlowState, with_energy: bool) -> None:
    diag.t.append(state.t)
    diag.mass.append(state.field.mass)
    diag.second_moment.append(second_moment(state.field))
    if with_energy:
        from .energy import free_energy
        diag.free_energy.append(free_energy(state.field, c=state.c.samples).total)
    else:
        diag.free_energy.append(float("nan"))


def virial_rate(diag: FlowDiagnostics, mass: float | None = None) -> tuple[float, float]:
    """Fitted dW/dt against the closed-form rate 4m - m^2 / 2pi.

    Only valid for the flat factor (the identity is a flat statement);
    refuses otherwise. Needs at least a 10-snapshot window.
    """
    if not diag.phi_is_flat:
        raise ValueError("the virial identity is evaluated on the flat plane only; "
                         "curved runs are not comparable")
    if len(diag.t) < 10:
        raise ValueError("virial window needs at least 10 snapshots")
    m = diag.mass[0] if mass is None else mass
    expected = 4.0 * m - m * m / (2.0 * np.pi)
    return diag.dW_dt, float(expected)


@dataclass
class EnergyTraceReport:
    t: list[float]
    values: list[float]
    max_increase: float
    monotone: bool


def energy_trace(snapshots: list[FlowState]) -> EnergyTraceReport:
    """Free energy along the run, each paired with its snapshot's potential;
    flags any increase beyond ENERGY_RISE_TOLERANCE of the largest |F|."""
    from .energy import free_energy
    ts, vals = [], []
    for s in snapshots:
        ts.append(s.t)
        vals.append(free_energy(s.field, c=s.c.samples).total)
    scale = max(abs(v) for v in vals) or 1.0
    increases = [b - a for a, b in zip(vals, vals[1:])]
    max_inc = max(increases) if increases else 0.0
    return EnergyTraceReport(t=ts, values=vals, max_increase=float(max_inc),
                             monotone=bool(max_inc <= ENERGY_RISE_TOLERANCE * scale))


def diagnostics_to_csv(diag: FlowDiagnostics, path, meta: str | None = None) -> None:
    write_csv(path, "t,mass,W,F",
              ("%.12g,%.17g,%.17g,%.17g\n" % row
               for row in zip(diag.t, diag.mass, diag.second_moment, diag.free_energy)), meta)
