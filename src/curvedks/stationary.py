"""Residual evaluation for the static and reduced static equations.

The reduced equation says d(ln rho - c) = 0, so for a candidate density we
form f = ln rho - c and report how far f is from constant: the weighted
gradient norm  sqrt( sum rho |grad f|^2 h^2 )  (flat measure, matching the
quantity the reduction argument drives to zero), the mean of f, and its
max-min spread over an interior probe region. The weak-form residual pairs
rho * grad f against a bank of compactly supported test fields: the default
bank is 27 tensor-product bumps a(x) b(y), built by one bump evaluation per
axis, less the fields that reach the two outer cell rings (only grids with
n < 20 have any).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .domain import AnnulusSpec, CartesianGrid, line_fit, read_only, write_lattice_csv
from .geometry import (ConformalFactor, GridGeometry, _bump_profile, boundary_mask, diff_flat,
                       grad_flat, grid_geometry)
from .potential import PotentialField, TruncationReport, estimate_tail, newtonian_potential
from .profiles import ScaledCauchyProfile

# cells below this are excluded from logarithms; rho ln rho -> 0 as rho -> 0
RHO_FLOOR = 1e-300
ZERO_FRACTION_TOLERANCE = 0.01    # largest floored-cell fraction of a positive-a.e. density


def rho_log_rho(rho: np.ndarray, ref: np.ndarray | None = None) -> np.ndarray:
    """Per-cell rho ln(rho / ref) (ref = 1 if None), 0 where rho is floored."""
    live = rho > RHO_FLOOR
    out = np.zeros_like(rho)
    np.divide(rho, 1.0 if ref is None else ref, out=out, where=live)   # rho / 1 is rho exactly
    np.log(out, out=out, where=live)
    return np.multiply(out, rho, out=out, where=live)


class MaskedDensityError(ValueError):
    """The density is floored (masked) on every cell a diagnostic needs.

    A property of the data, not a malformed argument; the CLI reports it as
    a numerical failure.
    """


@dataclass
class DensityField:
    """Nonnegative density samples on a grid, together with its metric factor.

    geometry is grid_geometry(phi, grid), shared with the fields on the same factor and grid.
    mass, the total mass with respect to the curved area element, is computed
    once at construction; the samples are not changed in place afterwards.
    """

    grid: CartesianGrid
    samples: np.ndarray
    phi: ConformalFactor
    geometry: GridGeometry = dc_field(init=False, repr=False)
    mass: float = dc_field(init=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != (self.grid.n, self.grid.n):
            raise ValueError("density shape does not match grid")
        if np.any(self.samples < 0):
            raise ValueError("density must be nonnegative")
        self.geometry = grid_geometry(self.phi, self.grid)
        self.mass = float(np.sum(self.samples * self.geometry.weights))
        if not self.mass > 0:
            raise ValueError("density must have positive mass")

    def potential(self, method: str = "fft") -> PotentialField:
        return newtonian_potential(self.samples, self.phi, self.grid, method=method)

    def to_csv(self, path, meta: str | None = None) -> None:
        write_lattice_csv(path, "x,y,rho", self.grid.x, self.grid.y, self.samples, meta=meta)


def density_from_profile(m: float, lam: float, x_star: tuple[float, float],
                         phi: ConformalFactor, grid: CartesianGrid) -> DensityField:
    """The density m * mu_{lam, x_star} * e^{-2 phi}, mass m in the curved measure.

    Represented through the profile and phi (never premultiplied samples of a
    product grid), so the curved-mass quadrature reduces to the flat one.
    """
    mu = ScaledCauchyProfile(lam=lam, x_star=x_star).on_grid(grid)
    rho = m * mu * grid_geometry(phi, grid).e_m2phi
    return DensityField(grid=grid, samples=rho, phi=phi)


@dataclass
class ResidualReport:
    reduced_residual_L2: float
    f_constant: float
    f_variation: float
    static_residual_L2: float
    n_masked_low: int
    tail: TruncationReport


def reduced_residual(field: DensityField, probe_frac: float = 0.4) -> ResidualReport:
    """Evaluate f = ln rho - c and its deviation from constancy.

    probe_frac fixes the interior region (radius fraction of the grid) over
    which the f statistics are taken; the weighted gradient norm excludes
    only the boundary layer and floored cells. Raises if everything is masked.
    """
    low = field.samples <= RHO_FLOOR
    bmask = boundary_mask(field.grid, layers=2)
    probe = (field.grid.radius() <= probe_frac * field.grid.half_width) & ~low & ~bmask
    if probe.sum() == 0:
        raise MaskedDensityError("no usable interior cells: field is all-masked")
    c = field.potential().samples
    f = np.where(low, 0.0, np.log(np.maximum(field.samples, RHO_FLOOR))) - c

    gx, gy = grad_flat(f, field.grid)
    dens = np.where(low | bmask, 0.0, field.samples)
    red = float(np.sqrt(np.sum(dens * (gx**2 + gy**2)) * field.grid.cell_area))

    fv = f[probe]
    weak = static_weak_residual(field, default_test_bank(field.grid), (gx, gy))
    return ResidualReport(reduced_residual_L2=red,
                          f_constant=float(fv.mean()),
                          f_variation=float(fv.max() - fv.min()),
                          static_residual_L2=weak,
                          n_masked_low=int(low.sum()),
                          tail=estimate_tail(field.samples, field.grid))


# default_test_bank's 27 widths and 3 x 3 lattice offsets, in half-widths
_BANK_SCALE, _BANK_OX, _BANK_OY = (v.ravel() for v in np.meshgrid(
    [0.10, 0.18, 0.30], [-0.5, 0.0, 0.5], [-0.5, 0.0, 0.5], indexing="ij"))


def default_test_bank(grid: CartesianGrid) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product bump test fields: widths 0.10, 0.18, 0.30 x half_width at 3 x 3 lattice
    positions jittered with seed 0, as (k, n) stacks (A, B): field k is np.outer(A[k], B[k])
    on grid.x, grid.y; one bump evaluation per axis. Fields that reach the two outer cell
    rings are left out (only grids with n < 20 have any). The grid keeps it: _default_bank."""
    return _default_bank(grid)[0]


def _default_bank(grid: CartesianGrid) -> tuple[tuple, tuple]:
    """The grid's default bank (A, B) and its checked terms (_bank_terms), built on the grid's
    first request and kept, read-only, in its cache."""
    def build():
        cx, cy = grid.center
        hw = grid.half_width
        width = (_BANK_SCALE * hw)[:, None]
        jx, jy = 0.05 * hw * np.random.default_rng(0).uniform(-1, 1, size=(27, 2)).T
        A = _bump_profile((grid.x - (cx + _BANK_OX * hw + jx)[:, None]) / width)
        B = _bump_profile((grid.y - (cy + _BANK_OY * hw + jy)[:, None]) / width)
        keep = ~_reaches_boundary(A, B)
        bank = read_only((A[keep], B[keep]))
        return bank, read_only(_bank_terms(bank, grid))
    return grid.cached("test bank", build)


def _reaches_boundary(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per field a(x) b(y) of the (k, n) factor stacks: nonzero on the two outer cell rings."""
    return (((A[:, [0, 1, -2, -1]] != 0).any(axis=1) & (B != 0).any(axis=1))
            | ((B[:, [0, 1, -2, -1]] != 0).any(axis=1) & (A != 0).any(axis=1)))


def _bank_terms(test_bank: tuple[np.ndarray, np.ndarray], grid: CartesianGrid) -> tuple:
    """(A, B, dA, dB, ||grad T||) of a bank of (k, n) stacks (A, B), checked: ||grad T||^2 =
    (|a'|^2 |b|^2 + |a|^2 |b'|^2) h^2 comes from 1-D norms."""
    A, B = test_bank
    if len(A) == 0:
        raise ValueError("empty test bank: a residual over no test field checks nothing")
    if np.any(_reaches_boundary(A, B)):
        raise ValueError("test field does not vanish near the grid boundary")
    dA, dB = diff_flat(A, grid, 1), diff_flat(B, grid, 1)
    energy = np.sqrt((np.sum(dA**2, axis=1) * np.sum(B**2, axis=1)
                      + np.sum(A**2, axis=1) * np.sum(dB**2, axis=1)) * grid.cell_area)
    return A, B, dA, dB, energy


def static_weak_residual(field: DensityField, test_bank: tuple[np.ndarray, np.ndarray],
                         grad_f: tuple[np.ndarray, np.ndarray]) -> float:
    """Max over the bank of | sum rho g0(grad T, grad f) h^2 | / ||grad T||.

    grad_f is the flat gradient of f = ln rho - c, as reduced_residual forms it. The bank is
    (k, n) stacks (A, B), as default_test_bank gives: each field T = a(x) b(y) must vanish near
    the grid boundary, and grad T = (a' b, a b') pairs with rho grad f in two matrix products.
    The grid's default bank (the object default_test_bank returns) was checked and
    differentiated when it was built; any other bank is checked on every call.
    """
    grid = field.grid
    gfx, gfy = grad_f
    default, terms = _default_bank(grid)
    A, B, dA, dB, energy = terms if test_bank is default else _bank_terms(test_bank, grid)
    h2 = grid.cell_area
    # sum_ij rho (a'_i b_j gfx_ij + a_i b'_j gfy_ij), for all fields at once
    pair = (np.einsum("ik,ki->k", (field.samples * gfx) @ B.T, dA)
            + np.einsum("kj,kj->k", A @ (field.samples * gfy), dB))
    live = energy != 0.0
    return float(np.max(np.abs(pair[live]) * h2 / energy[live], initial=0.0))


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
    slope = line_fit(np.log(r), np.log(rho))[0]
    return EnvelopeReport(K_best=K_best, tail_slope=slope, n_cells=int(mask.sum()))


@dataclass
class MembershipReport:
    """Verdict structure for configuration-space membership diagnostics."""

    mass: float
    entropy: float
    positive_ae: bool
    finite_mass: bool
    finite_entropy: bool
    potential_defined: bool

    @property
    def verdict(self) -> bool:
        return (self.positive_ae and self.finite_mass and self.finite_entropy
                and self.potential_defined)


def membership_check(field: DensityField, tail: TruncationReport) -> MembershipReport:
    """Positivity a.e., finite mass and entropy int rho |ln rho| dA_phi (0 where rho = 0),
    and a finite tail (estimate_tail's fit)."""
    zero_fraction = float(np.mean(field.samples <= RHO_FLOOR))
    mass = field.mass
    entropy = float(np.sum(np.abs(rho_log_rho(field.samples)) * field.geometry.weights))
    return MembershipReport(mass=mass, entropy=entropy,
                            positive_ae=zero_fraction <= ZERO_FRACTION_TOLERANCE,
                            finite_mass=bool(np.isfinite(mass) and mass > 0),
                            finite_entropy=bool(np.isfinite(entropy)),
                            potential_defined=tail.finite)
