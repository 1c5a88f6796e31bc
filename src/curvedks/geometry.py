"""Conformal factor, metric operations of e^{2 phi} g0, and flat stencils.

Sign convention: the Laplacian is positive, Delta = -(d2/dx2 + d2/dy2), so
that Delta c = rho holds with nonnegative rho for the logarithmic kernel in
the potential module. All conformal operations reduce to flat ones through
dA_phi = e^{2 phi} dA0 and Delta_phi = e^{-2 phi} Delta0. Only ConformalFactor
knows the factor's shape: callers ask it is_flat, on_grid and grad, which
evaluate a bump only on the index box of its support (every other cell is
exactly 0); plane-side sums read phi, e^{+-2 phi} and the area weights from
grid_geometry. The flat stencils (copy boundary) slice into their output.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .domain import CartesianGrid, read_only

MAX_AMPLITUDE = 0.5 * float(np.log(np.finfo(float).max))   # sup |phi| with e^{2|phi|} finite


def _bump_profile(s: np.ndarray) -> np.ndarray:
    """Standard mollifier profile exp(1 - 1/(1 - s^2)) on |s| < 1, else 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out


@dataclass
class ConformalFactor:
    """Compactly supported smooth phi defining the metric e^{2 phi} g0.

    phi is the mollifier bump amplitude * exp(1 - 1/(1 - s^2)), radial about
    center with s = |x - center| / support_radius; d phi / dr has the sign of
    -amplitude: a positive bump falls off its centre. Amplitude 0 is the flat
    plane, zero(). Callers ask the factor (is_flat, on_grid, grad), not its fields.
    """

    amplitude: float = 0.0
    support_radius: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)

    @classmethod
    def zero(cls) -> "ConformalFactor":
        return cls()

    @classmethod
    def radial_bump(cls, amplitude: float, support_radius: float,
                    center: tuple[float, float] = (0.0, 0.0)) -> "ConformalFactor":
        if not support_radius > 0:
            raise ValueError("support_radius must be positive")
        if not abs(amplitude) <= MAX_AMPLITUDE:
            raise ValueError(f"amplitude {amplitude:g} overflows e^2|phi| past {MAX_AMPLITUDE:.2f}")
        return cls(amplitude=float(amplitude), support_radius=float(support_radius),
                   center=(float(center[0]), float(center[1])))

    @property
    def is_flat(self) -> bool:
        """phi = 0 everywhere, so the metric is g0."""
        return self.amplitude == 0.0

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
        if self.is_flat:     # amplitude * 0, as off the support: -0.0 for amplitude -0.0
            return np.full(np.broadcast(X, Y).shape, 0.0 * self.amplitude)
        r = np.hypot(X - self.center[0], Y - self.center[1])
        return self.amplitude * _bump_profile(r / self.support_radius)

    def _box(self, grid: CartesianGrid) -> tuple[np.ndarray, np.ndarray]:
        """np.ix_ index of the cells with |x - cx|, |y - cy| < R; phi vanishes off it."""
        R = self.support_radius
        return np.ix_(np.abs(grid.x - self.center[0]) < R, np.abs(grid.y - self.center[1]) < R)

    def on_grid(self, grid: CartesianGrid) -> np.ndarray:
        """phi at the cell centres, from the broadcast axes, evaluated only on the support
        box. Off it r >= R, so phi is amplitude * 0 there (-0.0 for a negative amplitude)."""
        out = np.full((grid.n, grid.n), 0.0 * self.amplitude)
        box = self._box(grid)
        out[box] = self(grid.x[box[0]], grid.y[box[1]])
        return out

    def grad(self, grid: CartesianGrid) -> tuple[np.ndarray, np.ndarray]:
        """Analytic (d phi / dx, d phi / dy) at the cell centres, 0 off the support box."""
        gx, gy = np.zeros((grid.n, grid.n)), np.zeros((grid.n, grid.n))
        if self.is_flat:
            return gx, gy
        box = self._box(grid)
        dx, dy = grid.x[box[0]] - self.center[0], grid.y[box[1]] - self.center[1]
        k = self._slope(dx * dx + dy * dy, self(grid.x[box[0]], grid.y[box[1]]))
        gx[box], gy[box] = k * dx, k * dy
        return gx, gy

    def _slope(self, r2: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """(d phi / dr) / r from r^2 and phi there: b'(s) / s = -2 b / (1 - s^2)^2 has no 0/0."""
        R2 = self.support_radius ** 2
        q = np.maximum(1.0 - r2 / R2, 1e-300)    # 1 - s^2; phi = 0 where s >= 1
        return -2.0 * phi / q / q / R2


@dataclass(frozen=True, eq=False)
class GridGeometry:
    """A factor on a grid: phi at the cell centres, e2phi = e^{2 phi}, e_m2phi = e^{-2 phi},
    the area weights e^{2 phi} h^2 (read-only arrays, which fields share) and min e^{2 phi}."""

    phi: np.ndarray
    e2phi: np.ndarray
    e_m2phi: np.ndarray
    weights: np.ndarray
    min_e2phi: float


_last_curved: list = [None, None, None]    # factor, grid and a weak reference to their geometry


def grid_geometry(phi: ConformalFactor, grid: CartesianGrid) -> GridGeometry:
    """The geometry of phi on grid. A flat factor's arrays are broadcasts, with no (n, n) array
    behind them: phi is amplitude * 0, e^{+-2 phi} are 1 and the weights h^2. A curved factor is
    sampled by phi.on_grid; its geometry serves each next request with the same factor and grid
    objects while a field holds it (one slot, a weak reference: it keeps nothing alive)."""
    shape = (grid.n, grid.n)
    if phi.is_flat:
        one = np.broadcast_to(1.0, shape)
        return GridGeometry(np.broadcast_to(0.0 * phi.amplitude, shape), one, one,
                            np.broadcast_to(grid.cell_area, shape), 1.0)
    last_phi, last_grid, last = _last_curved
    geometry = last() if last_phi is phi and last_grid is grid else None
    if geometry is None:
        phis = phi.on_grid(grid)
        e2phi = np.exp(2.0 * phis)
        arrays = read_only((phis, e2phi, np.exp(-2.0 * phis), e2phi * grid.cell_area))
        geometry = GridGeometry(*arrays, float(np.exp(2.0 * phis.min())))
        _last_curved[:] = phi, grid, weakref.ref(geometry)
    return geometry


def laplacian_flat(field: np.ndarray, grid: CartesianGrid) -> np.ndarray:
    """Positive flat Laplacian -(d2/dx2 + d2/dy2), 5-point stencil.

    Boundary cells use edge replication (copy), so downstream norms should
    exclude the layer reported by boundary_mask. The neighbours are subtracted
    by slices, in the order and to the bits of the edge-padded formula.
    """
    f = np.asarray(field, dtype=float)
    out = 4.0 * f
    for a, o in ((f, out), (f.T, out.T)):           # x neighbours, then y neighbours
        o[1:] -= a[:-1]
        o[:1] -= a[:1]
        o[:-1] -= a[1:]
        o[-1:] -= a[-1:]
    out /= grid.h * grid.h
    return out


def gauss_curvature(phi: ConformalFactor, grid: CartesianGrid) -> np.ndarray:
    """kappa_phi = e^{-2 phi} Delta0 phi on cell centers."""
    geometry = grid_geometry(phi, grid)
    return geometry.e_m2phi * laplacian_flat(geometry.phi, grid)


def diff_flat(field: np.ndarray, grid: CartesianGrid, axis: int) -> np.ndarray:
    """Central difference (f[i+1] - f[i-1]) / 2h along axis 0 or 1 of a 2-D field, by slices;
    copy boundary: each end cell is its own outer neighbour, as edge padding gives."""
    f = np.asarray(field, dtype=float)
    out = np.empty(f.shape)
    a, d = (f, out) if axis == 0 else (f.T, out.T)
    n = len(a)
    np.subtract(a[2:], a[:-2], out=d[1:-1])
    np.subtract(a[min(1, n - 1)], a[0], out=d[0])
    np.subtract(a[-1], a[max(n - 2, 0)], out=d[-1])
    out *= 0.5 / grid.h
    return out


def grad_flat(field: np.ndarray, grid: CartesianGrid) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient with copy boundary."""
    return diff_flat(field, grid, 0), diff_flat(field, grid, 1)


def boundary_mask(grid: CartesianGrid, layers: int = 1) -> np.ndarray:
    """True on the outermost `layers` rings of cells."""
    m = np.zeros((grid.n, grid.n), dtype=bool)
    m[:layers, :] = m[-layers:, :] = True
    m[:, :layers] = m[:, -layers:] = True
    return m
