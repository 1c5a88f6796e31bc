"""Residual evaluation for the static and reduced static equations.

The reduced equation says d(ln rho - c) = 0, so for a candidate density we
form f = ln rho - c and report how far f is from constant: the weighted
gradient norm  sqrt( sum rho |grad f|^2 h^2 )  (flat measure, matching the
quantity the reduction argument drives to zero), the mean of f, and its
max-min spread over an interior probe region. The weak-form residual pairs
rho * grad f against a bank of compactly supported test fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .domain import AnnulusSpec, CartesianGrid, read_lattice_csv, write_lattice_csv
from .geometry import (ConformalFactor, _bump_profile, boundary_mask, conformal_area_element,
                       grad_flat)
from .potential import PotentialField, TruncationReport, estimate_tail, newtonian_potential
from .profiles import ScaledCauchyProfile

# cells below this are excluded from logarithms; rho ln rho -> 0 as rho -> 0
RHO_FLOOR = 1e-300


def rho_log_rho(rho: np.ndarray, ref: np.ndarray | None = None) -> np.ndarray:
    """Per-cell rho ln(rho / ref) (ref = 1 if None), 0 where rho is floored."""
    live = rho > RHO_FLOOR
    out = np.zeros_like(rho)
    r = rho[live]
    out[live] = r * np.log(r if ref is None else r / ref[live])
    return out


class MaskedDensityError(ValueError):
    """The density is floored (masked) on every cell a diagnostic needs.

    A property of the data, not a malformed argument; the CLI reports it as
    a numerical failure.
    """


@dataclass
class DensityField:
    """Nonnegative density samples on a grid, together with its metric factor.

    area_weights are the per-cell weights e^{2 phi} h^2; they are computed
    from phi unless given, as the flow does to carry them from step to step.
    """

    grid: CartesianGrid
    samples: np.ndarray
    phi: ConformalFactor
    area_weights: np.ndarray | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != (self.grid.n, self.grid.n):
            raise ValueError("density shape does not match grid")
        if np.any(self.samples < 0):
            raise ValueError("density must be nonnegative")
        if self.area_weights is None:
            self.area_weights = conformal_area_element(self.phi, self.grid)
        if not self.mass > 0:
            raise ValueError("density must have positive mass")

    @property
    def mass(self) -> float:
        """Total mass with respect to the curved area element."""
        return float(np.sum(self.samples * self.area_weights))

    @property
    def entropy_abs(self) -> float:
        """int rho |ln rho| dA_phi with the limit value 0 at rho = 0."""
        return float(np.sum(np.abs(rho_log_rho(self.samples)) * self.area_weights))

    def potential(self, method: str = "auto") -> PotentialField:
        return newtonian_potential(self.samples, self.phi, self.grid, method=method)

    def to_csv(self, path, meta: str | None = None) -> None:
        write_lattice_csv(path, "x,y,rho", self.grid.x, self.grid.y, self.samples, meta=meta)

    @classmethod
    def from_csv(cls, path, phi: ConformalFactor) -> "DensityField":
        grid, samples = read_lattice_csv(path)
        return cls(grid=grid, samples=samples, phi=phi)


def density_from_profile(m: float, lam: float, x_star: tuple[float, float],
                         phi: ConformalFactor, grid: CartesianGrid) -> DensityField:
    """The density m * mu_{lam, x_star} * e^{-2 phi}, mass m in the curved measure.

    Represented through the profile and phi (never premultiplied samples of a
    product grid), so the curved-mass quadrature reduces to the flat one.
    """
    mu = ScaledCauchyProfile(lam=lam, x_star=x_star, normalization="mu").on_grid(grid)
    rho = m * mu * np.exp(-2.0 * phi.on_grid(grid))
    return DensityField(grid=grid, samples=rho, phi=phi)


@dataclass
class ResidualReport:
    reduced_residual_L2: float
    f_constant: float
    f_variation: float
    static_residual_L2: float
    boundary_mask: np.ndarray
    n_masked_low: int
    tail: TruncationReport


def _interior_probe(field: DensityField, probe_frac: float, layers: int):
    low = field.samples <= RHO_FLOOR
    bmask = boundary_mask(field.grid, layers=layers)
    probe = (field.grid.radius() <= probe_frac * field.grid.half_width) & ~low & ~bmask
    return low, bmask, probe


def reduced_residual(field: DensityField, probe_frac: float = 0.4,
                     test_bank: list[np.ndarray] | None = None,
                     method: str = "auto") -> ResidualReport:
    """Evaluate f = ln rho - c and its deviation from constancy.

    probe_frac fixes the interior region (radius fraction of the grid) over
    which the f statistics are taken; the weighted gradient norm excludes
    only the boundary layer and floored cells. Raises if everything is masked.
    """
    low, bmask, probe = _interior_probe(field, probe_frac, layers=2)
    if probe.sum() == 0:
        raise MaskedDensityError("no usable interior cells: field is all-masked")
    cfield = field.potential(method=method)
    f = np.where(low, 0.0, np.log(np.maximum(field.samples, RHO_FLOOR))) - cfield.samples

    gx, gy = grad_flat(f, field.grid)
    ok = ~(low | bmask)
    dens = np.where(ok, field.samples, 0.0)
    red = float(np.sqrt(np.sum(dens * (gx**2 + gy**2)) * field.grid.cell_area))

    fv = f[probe]
    bank = default_test_bank(field.grid) if test_bank is None else test_bank
    weak = static_weak_residual(field, bank, _f=f, _gf=(gx, gy))
    return ResidualReport(reduced_residual_L2=red,
                          f_constant=float(fv.mean()),
                          f_variation=float(fv.max() - fv.min()),
                          static_residual_L2=weak,
                          boundary_mask=bmask | low,
                          n_masked_low=int(low.sum()),
                          tail=cfield.tail)


def default_test_bank(grid: CartesianGrid, seed: int = 0,
                      scales=(0.10, 0.18, 0.30), n_positions: int = 9) -> list[np.ndarray]:
    """Tensor-product bump test fields: 3 scales x 9 jittered lattice positions."""
    rng = np.random.default_rng(seed)
    X, Y = grid.meshes()
    cx, cy = grid.center
    hw = grid.half_width
    bank = []
    side = int(np.sqrt(n_positions))
    offsets = np.linspace(-0.5 * hw, 0.5 * hw, side)
    for s in scales:
        width = s * hw
        for ox in offsets:
            for oy in offsets:
                px = cx + ox + 0.05 * hw * rng.uniform(-1, 1)
                py = cy + oy + 0.05 * hw * rng.uniform(-1, 1)
                bank.append(_bump_profile((X - px) / width) * _bump_profile((Y - py) / width))
    return bank


def static_weak_residual(field: DensityField, test_bank: list[np.ndarray],
                         _f: np.ndarray | None = None,
                         _gf: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Max over the bank of | sum rho g0(grad T, grad f) h^2 | / ||grad T||.

    Test fields must vanish near the grid boundary (compact support).
    """
    if _f is None or _gf is None:
        cfield = field.potential()
        low = field.samples <= RHO_FLOOR
        _f = np.where(low, 0.0, np.log(np.maximum(field.samples, RHO_FLOOR))) - cfield.samples
        _gf = grad_flat(_f, field.grid)
    gfx, gfy = _gf
    h2 = field.grid.cell_area
    bmask = boundary_mask(field.grid, layers=2)
    worst = 0.0
    for T in test_bank:
        if np.any(T[bmask] != 0.0):
            raise ValueError("test field does not vanish near the grid boundary")
        gtx, gty = grad_flat(T, field.grid)
        energy = np.sqrt(np.sum(gtx**2 + gty**2) * h2)
        if energy == 0.0:
            continue
        val = abs(np.sum(field.samples * (gtx * gfx + gty * gfy)) * h2) / energy
        worst = max(worst, float(val))
    return worst


@dataclass
class EnvelopeReport:
    K_best: float
    tail_slope: float
    n_cells: int


def decay_envelope(field: DensityField, annulus: AnnulusSpec) -> EnvelopeReport:
    """Envelope constant and log-log tail slope of rho over the annulus.

    K_best is the smallest K >= 1 with K >= rho (1 + r^2)^{m/4pi} >= 1/K on
    the annulus; tail_slope is the least-squares d ln rho / d ln r there.
    """
    mask = annulus.mask(field.grid)
    rho = field.samples[mask]
    if np.any(rho <= RHO_FLOOR):
        raise MaskedDensityError("annulus touches masked (zero-density) cells")
    r = field.grid.radius()[mask]
    expo = field.mass / (4.0 * np.pi)
    q = rho * (1.0 + r * r) ** expo
    K_best = max(float(q.max()), float(1.0 / q.min()), 1.0)
    slope = float(np.polyfit(np.log(r), np.log(rho), 1)[0])
    return EnvelopeReport(K_best=K_best, tail_slope=slope, n_cells=int(mask.sum()))


@dataclass
class MembershipReport:
    """Verdict structure for configuration-space membership diagnostics."""

    mass: float
    entropy: float
    zero_fraction: float
    tail: TruncationReport
    positive_ae: bool
    finite_mass: bool
    finite_entropy: bool
    potential_defined: bool

    @property
    def verdict(self) -> bool:
        return (self.positive_ae and self.finite_mass and self.finite_entropy
                and self.potential_defined)


def membership_check(field: DensityField, zero_tolerance: float = 0.01) -> MembershipReport:
    """Positivity a.e., finite mass and entropy, and a finite potential tail."""
    rho = field.samples
    zero_fraction = float(np.mean(rho <= RHO_FLOOR))
    mass = field.mass
    entropy = field.entropy_abs
    tail = estimate_tail(rho, field.grid)
    return MembershipReport(mass=mass, entropy=entropy, zero_fraction=zero_fraction,
                            tail=tail,
                            positive_ae=zero_fraction <= zero_tolerance,
                            finite_mass=bool(np.isfinite(mass) and mass > 0),
                            finite_entropy=bool(np.isfinite(entropy)),
                            potential_defined=tail.finite)
