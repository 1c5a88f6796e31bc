"""Logarithmic kernel and the Newtonian potential with singular self-cell quadrature.

The potential of a density rho on the curved plane is the lattice sum

    c(x_i) = sum_j G(x_i, x_j) rho_j e^{2 phi_j} h^2,   G(x, y) = -ln|x - y| / 2pi,

with the singular j = i term replaced by rho_i e^{2 phi_i} W(h), where W(h) is
the exact integral of G over one grid cell centered at the singularity.
Direct O(N^2) summation is the reference path; the FFT path (zero-padded
circulant convolution) evaluates the identical lattice sum and is used for
large grids; resolve_method holds the one policy that picks between them.
The truncation tail of a potential is estimated from its density on first
read of PotentialField.tail, so callers that never read it never pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .domain import AnnulusSpec, CartesianGrid, write_lattice_csv
from .geometry import ConformalFactor

# grids above this size fall back to FFT under method="auto"
_DIRECT_LIMIT = 96

_kernel_fft_cache: dict[tuple[int, float], np.ndarray] = {}


def green_kernel(x, y) -> np.ndarray | float:
    """G(x, y) = -(1/2pi) ln|x - y| for distinct points.

    Accepts points as length-2 sequences or arrays of shape (..., 2).
    Coincident points are rejected; the on-diagonal cell integral is
    handled separately by self_cell_weight.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.linalg.norm(x - y, axis=-1)
    if np.any(d == 0.0):
        raise ValueError("green_kernel is singular at coincident points")
    out = -np.log(d) / (2.0 * np.pi)
    return float(out) if out.ndim == 0 else out


def self_cell_weight(h: float) -> float:
    """Exact integral of -(1/2pi) ln|y| over the square [-h/2, h/2]^2.

    Closed form: W(h) = -(h^2 / 4pi) (2 ln h - ln 2 + pi/2 - 3), so
    W(h)/h^2 + ln(h)/2pi is an h-independent constant and doubling h
    shifts W(h)/h^2 by exactly -(ln 2)/2pi.
    """
    if not h > 0:
        raise ValueError("spacing must be positive")
    return -(h * h / (4.0 * np.pi)) * (2.0 * np.log(h) - np.log(2.0) + np.pi / 2.0 - 3.0)


@dataclass
class TruncationReport:
    """Envelope-based bound on the potential contribution of off-grid mass.

    The missing potential behaves like -(m_tail / 2pi) ln r; it is reported,
    never silently added to the computed field.
    """

    m_tail: float
    bound: float
    envelope_K: float
    envelope_slope: float

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.m_tail))


def estimate_tail(rho: np.ndarray, grid: CartesianGrid) -> TruncationReport:
    """Fit ln rho vs ln r on the outer ring and integrate the envelope outward."""
    r = grid.radius()
    ring = (r >= 0.7 * grid.half_width) & (r <= grid.half_width) & (rho > 0)
    if ring.sum() < 8:
        return TruncationReport(np.inf, np.inf, np.nan, np.nan)
    lr = np.log(r[ring])
    lrho = np.log(rho[ring])
    slope, intercept = np.polyfit(lr, lrho, 1)
    W = grid.half_width
    with np.errstate(over="ignore", invalid="ignore"):
        K = np.exp(intercept)
        if slope < -2.2:  # integrable tail with usable margin from the r^-2 edge
            p = -slope
            # evaluate in log space: exp(intercept + (2 - p) ln W) / (p - 2)
            m_tail = 2.0 * np.pi * np.exp(intercept + (2.0 - p) * np.log(W)) / (p - 2.0)
            # |ln| of distances from on-grid points to the tail region
            bound = m_tail / (2.0 * np.pi) * max(abs(np.log(W)), abs(np.log(3.0 * W)), 1.0)
        else:
            m_tail = np.inf
            bound = np.inf
    return TruncationReport(float(m_tail), float(bound), float(K), float(slope))


@dataclass
class PotentialField:
    """Sampled Newtonian potential with the quadrature metadata that made it.

    rho is the density the potential was computed from (the caller's array,
    not a copy); the truncation tail is estimated from it on first read.
    """

    grid: CartesianGrid
    samples: np.ndarray
    mass_used: float
    self_cell_weight: float
    method: str
    rho: np.ndarray = field(repr=False)

    @cached_property
    def tail(self) -> TruncationReport:
        return estimate_tail(self.rho, self.grid)

    def to_csv(self, path) -> None:
        write_lattice_csv(path, "x,y,c", self.grid.x, self.grid.y, self.samples)


def _direct_convolve(q: np.ndarray, grid: CartesianGrid) -> np.ndarray:
    """Reference O(N^2) summation, row-major target order, chunked."""
    n = grid.n
    h = grid.h
    X, Y = grid.meshes()
    px = X.ravel()
    py = Y.ravel()
    qf = q.ravel()
    w_self = self_cell_weight(h) / (h * h)
    out = np.empty(n * n)
    chunk = max(1, 2**22 // (n * n))
    for start in range(0, n * n, chunk):
        stop = min(start + chunk, n * n)
        dx = px[start:stop, None] - px[None, :]
        dy = py[start:stop, None] - py[None, :]
        d = np.hypot(dx, dy)
        own = d == 0.0
        d[own] = 1.0
        g = -np.log(d) / (2.0 * np.pi)
        g[own] = w_self
        out[start:stop] = g @ qf
    return out.reshape(n, n)


def _kernel_fft(grid: CartesianGrid) -> np.ndarray:
    key = (grid.n, grid.h)
    cached = _kernel_fft_cache.get(key)
    if cached is not None:
        return cached
    n, h = grid.n, grid.h
    m = 2 * n
    idx = np.arange(m)
    d = np.where(idx < n, idx, idx - m).astype(float)
    DX, DY = np.meshgrid(d, d, indexing="ij")
    R = np.hypot(DX, DY) * h
    K = np.empty((m, m))
    nz = R > 0
    K[nz] = -np.log(R[nz]) / (2.0 * np.pi)
    K[0, 0] = self_cell_weight(h) / (h * h)
    Kf = np.fft.rfft2(K)
    if len(_kernel_fft_cache) > 8:
        _kernel_fft_cache.clear()
    _kernel_fft_cache[key] = Kf
    return Kf


def _fft_convolve(q: np.ndarray, grid: CartesianGrid) -> np.ndarray:
    n = grid.n
    m = 2 * n
    qpad = np.zeros((m, m))
    qpad[:n, :n] = q
    conv = np.fft.irfft2(np.fft.rfft2(qpad) * _kernel_fft(grid), s=(m, m))
    return conv[:n, :n]


def resolve_method(method: str, grid: CartesianGrid) -> str:
    """The lattice-sum path that `method` selects on this grid ("auto" by size)."""
    if method == "auto":
        return "direct" if grid.n <= _DIRECT_LIMIT else "fft"
    return method


def lattice_potential(q: np.ndarray, grid: CartesianGrid, method: str = "auto") -> np.ndarray:
    """Potential of per-cell charges q_j (already including area weights)."""
    method = resolve_method(method, grid)
    if method == "direct":
        return _direct_convolve(q, grid)
    if method == "fft":
        return _fft_convolve(q, grid)
    raise ValueError(f"unknown method {method!r}")


def newtonian_potential(rho: np.ndarray, phi: ConformalFactor, grid: CartesianGrid,
                        method: str = "auto") -> PotentialField:
    """Potential c of the density rho with curved area weights e^{2 phi} h^2."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (grid.n, grid.n):
        raise ValueError("density shape does not match grid")
    q = rho * np.exp(2.0 * phi.on_grid(grid)) * grid.cell_area
    method = resolve_method(method, grid)
    c = lattice_potential(q, grid, method=method)
    return PotentialField(grid=grid, samples=c, mass_used=float(q.sum()),
                          self_cell_weight=self_cell_weight(grid.h), method=method, rho=rho)


def coulomb_quadratic_form(f: np.ndarray, g: np.ndarray, phi: ConformalFactor,
                           grid: CartesianGrid, method: str = "auto") -> float:
    """Symmetric double sum  sum_ij f_i w_i G_ij g_j w_j  with curved weights.

    The diagonal uses the self-cell weight, so the form matches what
    newtonian_potential produces when paired against the other factor.
    """
    w = np.exp(2.0 * phi.on_grid(grid)) * grid.cell_area
    cg = lattice_potential(np.asarray(g, dtype=float) * w, grid, method=method)
    return float(np.sum(np.asarray(f, dtype=float) * w * cg))


@dataclass
class FarFieldReport:
    """Statistics of c + (m / 4pi) ln(1 + r^2) over a diagnostic annulus."""

    max_value: float
    min_value: float
    n_cells: int

    @property
    def variation(self) -> float:
        return self.max_value - self.min_value


def far_field_report(c: PotentialField, m: float, annulus: AnnulusSpec) -> FarFieldReport:
    """Boundedness diagnostic: the combination is constant for exact fields."""
    mask = annulus.mask(c.grid)
    r = c.grid.radius()
    combo = c.samples[mask] + (m / (4.0 * np.pi)) * np.log1p(r[mask] ** 2)
    return FarFieldReport(max_value=float(combo.max()), min_value=float(combo.min()),
                          n_cells=int(mask.sum()))
