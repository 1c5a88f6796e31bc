"""Grids, quadrature weights, and domain-truncation bookkeeping.

Two grid types cover everything downstream: a uniform cell-centered
Cartesian grid on a square (midpoint rule, weight h^2 per cell) and a
latitude-longitude sphere grid with Gauss-Legendre nodes in sin(latitude)
(exact for low-degree polynomials in sin(latitude), which the degree-one
spherical-harmonic integrands require). A Cartesian field that depends on
(x, y) through a radius or a product of 1-D factors is evaluated from the
broadcast axes x[:, None] and y[None, :]; meshes() is for callers that need
the two coordinate arrays themselves. write_lattice_csv writes a sampled
field as a header row, then one `a,b,value` row per node in row-major ('ij')
order, axes as %.12g and values as %.17g; nothing in the package reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@dataclass
class CartesianGrid:
    """Uniform n x n cell-centered grid on a square of side 2*half_width.

    Treated as immutable after construction; safe for concurrent reads.
    """

    center: tuple[float, float]
    half_width: float
    n: int
    x: np.ndarray = field(init=False, repr=False)
    y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")
        if not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        h = self.h
        cx, cy = self.center
        self.x = cx - self.half_width + (np.arange(self.n) + 0.5) * h
        self.y = cy - self.half_width + (np.arange(self.n) + 0.5) * h

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center coordinate arrays of shape (n, n), 'ij' indexing."""
        return np.meshgrid(self.x, self.y, indexing="ij")

    def radius(self) -> np.ndarray:
        """Distance of each cell center from the grid center."""
        return np.hypot(self.x[:, None] - self.center[0], self.y[None, :] - self.center[1])

    def integrate(self, samples: np.ndarray) -> float:
        """Midpoint-rule integral over the square, flat measure."""
        return float(np.sum(samples) * self.cell_area)

    def interpolate(self, samples: np.ndarray, X, Y) -> np.ndarray:
        """Bilinear interpolant of cell-centre samples at (X, Y).

        A point beyond the outermost cell centres takes the value at its
        nearest point of their square (each fractional index is clamped).
        """
        fx = np.clip((X - self.x[0]) / self.h, 0.0, self.n - 1.0)
        fy = np.clip((Y - self.y[0]) / self.h, 0.0, self.n - 1.0)
        i0 = np.clip(fx.astype(int), 0, self.n - 2)
        j0 = np.clip(fy.astype(int), 0, self.n - 2)
        ax, ay = fx - i0, fy - j0
        s = samples
        return ((1 - ax) * (1 - ay) * s[i0, j0] + ax * (1 - ay) * s[i0 + 1, j0]
                + (1 - ax) * ay * s[i0, j0 + 1] + ax * ay * s[i0 + 1, j0 + 1])


def write_csv(path, header: str, lines, meta: str | None = None) -> None:
    """Write an optional `# meta` row, the header row, then `lines` (each LF-ended)."""
    with open(path, "w", newline="") as fh:
        if meta:
            fh.write(f"# {meta}\n")
        fh.write(f"{header}\n")
        fh.writelines(lines)


def write_lattice_csv(path, header: str, a: np.ndarray, b: np.ndarray,
                      values: np.ndarray, meta: str | None = None) -> None:
    """Write values[i, j] as rows `a[i],b[j],value`, row-major.

    Each axis label is formatted once per call, not once per cell, and each
    lattice row is one %-format over its values. The labels are numbers, so
    they hold no `%`.
    """
    a_labels = [f"{v:.12g}," for v in a.tolist()]
    row_tail = [f"{v:.12g},%.17g\n" for v in b.tolist()]   # "b[j],value" after a[i]
    write_csv(path, header, ((a_label + a_label.join(row_tail)) % tuple(row)
                             for a_label, row in zip(a_labels, values.tolist())), meta)


@dataclass
class SphereGrid:
    """Gauss-Legendre x uniform-azimuth quadrature grid on the unit sphere.

    Nodes are (theta_k, psi_l) with theta = latitude in (-pi/2, pi/2) at
    Gauss-Legendre abscissas of t = sin(theta), and psi uniform on [0, 2pi).
    The weight of node (k, l) is glw_k * 2pi/n_lon, so constants integrate
    to 4pi exactly and polynomials of degree <= 2*n_lat - 1 in sin(theta)
    are integrated exactly. Grids of one n_lat share the read-only glw and
    theta arrays.
    """

    n_lat: int
    n_lon: int
    glw: np.ndarray = field(init=False, repr=False)     # Gauss-Legendre weights
    theta: np.ndarray = field(init=False, repr=False)   # latitude
    psi: np.ndarray = field(init=False, repr=False)     # azimuth

    def __post_init__(self):
        if self.n_lat < 4:
            raise ValueError(f"n_lat must be >= 4, got {self.n_lat}")
        if self.n_lon < 8 or self.n_lon % 2 != 0:
            # even n_lon so the across-pole mirror lands on grid nodes
            raise ValueError(f"n_lon must be even and >= 8, got {self.n_lon}")
        self.glw, self.theta = _latitude_nodes(self.n_lat)
        self.psi = 2.0 * np.pi * np.arange(self.n_lon) / self.n_lon

    def node_weights(self) -> np.ndarray:
        """Quadrature weights, shape (n_lat, n_lon); they sum to 4pi."""
        return np.broadcast_to(
            self.glw[:, None] * (2.0 * np.pi / self.n_lon),
            (self.n_lat, self.n_lon)).copy()

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.theta, self.psi, indexing="ij")

    def integrate(self, samples: np.ndarray) -> float:
        return float(np.sum(samples * self.glw[:, None]) * 2.0 * np.pi / self.n_lon)


@lru_cache(maxsize=16)
def _latitude_nodes(n_lat: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre weights and latitudes arcsin(t) of the nodes t, read-only.

    leggauss is an O(n^3) eigensolve (about 0.13 s at n_lat = 1024), so grids
    of one n_lat share one set of node arrays.
    """
    t, glw = np.polynomial.legendre.leggauss(n_lat)
    return read_only((glw, np.arcsin(t)))


def line_fit(x, y) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line through (x, y), as np.polyfit(x, y, 1)
    gives: the package's one line fit. Its centred sums are numpy's pairwise reductions,
    whose order, unlike a BLAS dot product's, does not depend on the thread count."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = float(np.sum(dx * (y - y_mean)) / np.sum(dx * dx))
    return slope, float(y_mean - slope * x_mean)


def read_only(arrays: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The arrays, each marked read-only in place: callers share them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class AnnulusSpec:
    """Annulus R <= r <= ratio*R around the grid centre, used as a diagnostic region."""

    R: float
    ratio: float = 2.0

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError(f"annulus radius must be positive, got {self.R}")
        if not self.ratio > 1:
            raise ValueError(f"annulus ratio must exceed 1, got {self.ratio}")

    @property
    def outer(self) -> float:
        return self.R * self.ratio

    def mask(self, grid: CartesianGrid) -> np.ndarray:
        """Boolean mask of cells whose centers lie inside the annulus."""
        if self.outer > grid.half_width:
            raise ValueError(
                f"annulus outer radius {self.outer} exceeds grid half_width {grid.half_width}")
        r = grid.radius()
        return (r >= self.R) & (r <= self.outer)
