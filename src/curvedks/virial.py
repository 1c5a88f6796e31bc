"""Critical-mass machinery: the weighted auxiliary PDE and the virial assembly.

The assembly pairs the reduced equation against cut-off dilation fields and
splits the result into

    I1(R) = int chi_R rho dA_phi                      -> m,
    I2(R) = int chi_R rho ((x - x_g) . grad c) dA_phi -> -m^2 / 4pi,
    I3(R) = int chi_R rho (4 r phi_r - Delta_phi f - g_phi(df, dc)) dA0,

so 4 I1 + 2 I2 + I3 tends to 4m - m^2/2pi. For a flat factor that limit holds
for every density of mass m (I2 is fixed by the antisymmetry of the Coulomb
kernel), so the closure checks the Coulomb quadrature, not stationarity; it is
zero at m = 8 pi. For curved factors, I3 is closed by solving the auxiliary
problem  Delta_phi f + g_phi(df, dc) = 4 r phi_r  by one sparse LU solve of its
central discretization on the interior cells (f = 0 on the ring, so the system
has no identity rows), then a check of the true residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .domain import CartesianGrid, write_csv
from .geometry import ConformalFactor, grad_flat, grid_geometry, laplacian_flat
from .potential import PotentialField, _circulant_sums, _kernel_spectra
from .stationary import DensityField

if TYPE_CHECKING:
    from scipy import sparse


class AuxSolveError(RuntimeError):
    """Auxiliary solve left a true relative residual above its tolerance."""


def dilation_source(phi: ConformalFactor, grid: CartesianGrid) -> np.ndarray:
    """Samples of 4 (x - x_g) . grad phi, x_g the grid centre: 4 r phi_r in polar coordinates."""
    gx, gy = phi.grad(grid)
    gx *= 4.0 * (grid.x[:, None] - grid.center[0])
    gx += np.multiply(gy, 4.0 * (grid.y[None, :] - grid.center[1]), out=gy)
    return gx


def cutoff_function(R: float, grid: CartesianGrid) -> np.ndarray:
    """Radial C^1 ramp: 1 on B_R, 0 outside B_2R, max slope 1.5 / R.

    Cubic smoothstep between the radii; the gradient bound 1.5 is the
    smoothstep peak.
    """
    if not R > 0:
        raise ValueError(f"cutoff radius must be positive, got {R}")
    if 2.0 * R > grid.half_width:
        raise ValueError(f"cutoff support 2R = {2*R} exceeds grid half_width")
    r = grid.radius()
    s = np.clip((r - R) / R, 0.0, 1.0)
    return 1.0 - (3.0 * s**2 - 2.0 * s**3)


@dataclass
class WeightedEllipticProblem:
    """Data of the auxiliary equation on a density background."""

    phi: ConformalFactor
    rho: DensityField
    c: PotentialField
    rhs: np.ndarray          # 4 r d_r phi samples

    @classmethod
    def build(cls, rho: DensityField) -> "WeightedEllipticProblem":
        return cls(phi=rho.phi, rho=rho, c=rho.potential(),
                   rhs=dilation_source(rho.phi, rho.grid))


def _stencil_operators(problem: WeightedEllipticProblem) -> sparse.csc_matrix:
    """Sparse A f = Delta0 f + grad f . grad c on the (n - 2)^2 interior cells, row-major.

    Central differences as five diagonals: offsets -+(n - 2) pair x-neighbours, -+1 y-neighbours
    (0 across a row end). The ring holds f = 0, so it adds no unknowns and no identity rows.
    """
    from scipy import sparse    # lazily: most of the package's import time, for this solve only

    grid = problem.rho.grid
    m, inv_h2 = grid.n - 2, 1.0 / grid.h**2
    ax, ay = (g[1:-1, 1:-1] * (0.5 / grid.h) for g in grad_flat(problem.c.samples, grid))
    west, east = -inv_h2 - ay, -inv_h2 + ay
    west[:, 0] = east[:, -1] = 0.0
    return sparse.diags([np.full(m * m, 4.0 * inv_h2), (-inv_h2 - ax).ravel()[m:],
                         (-inv_h2 + ax).ravel()[:-m], west.ravel()[1:], east.ravel()[:-1]],
                        [0, -m, m, -1, 1], format="csc")


@dataclass
class AuxSolution:
    f: np.ndarray
    residual_trace: list[float]      # [||b||, ||b - A f||]
    iterations: int                  # solves with the factor: 0 when b = 0, else 1


def solve_aux_pde(problem: WeightedEllipticProblem, tol: float = 1e-8) -> AuxSolution:
    """Solve  Delta_phi f + g_phi(df, dc) = 4 r phi_r  on the grid, with f = 0 on its ring.

    In flat coordinates: Delta0 f + grad f . grad c = 4 r phi_r e^{2 phi}, Dirichlet zero (the
    data is compactly supported, the continuum solution has square-integrable gradient). One
    sparse LU of the interior system solves it in a fill-reducing column order, then the true
    relative residual ||b - A f|| / ||b|| is checked against tol. The diagonal 4 / h^2 is the
    largest entry of its column while the cell Peclet number |grad c| h / 2 is at most 1; then
    partial pivoting exchanges no rows and the order is kept.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    grid = problem.rho.grid
    b = (problem.rhs * grid_geometry(problem.phi, grid).e2phi)[1:-1, 1:-1].ravel()
    bnorm = float(np.sqrt(np.sum(b ** 2)))
    f = np.zeros((grid.n, grid.n))
    if bnorm == 0.0:
        return AuxSolution(f=f, residual_trace=[0.0, 0.0], iterations=0)
    from scipy.sparse.linalg import splu    # lazily, as in _stencil_operators

    A = _stencil_operators(problem)
    x = splu(A, permc_spec="MMD_AT_PLUS_A").solve(b)
    res = float(np.sqrt(np.sum((b - A @ x) ** 2)))
    if not res <= tol * bnorm:
        raise AuxSolveError(f"relative residual {res / bnorm:.3e} above tolerance {tol:.1e}")
    f[1:-1, 1:-1] = x.reshape(grid.n - 2, grid.n - 2)
    return AuxSolution(f=f, residual_trace=[bnorm, res], iterations=1)


# ---------------------------------------------------------------------------
# virial assembly

@dataclass
class VirialReport:
    R_used: float
    I1: float
    I2: float
    I3: float

    @property
    def closure(self) -> float:
        return 4.0 * self.I1 + 2.0 * self.I2 + self.I3


def _grad_kernel_ffts(grid: CartesianGrid) -> tuple[np.ndarray, ...]:
    return _kernel_spectra("grad", grid.n)


def potential_gradient(rho: DensityField) -> tuple[np.ndarray, np.ndarray]:
    """grad c by FFT convolution with the kernel gradient -(x - y) / (2pi |x - y|^2).

    The self-cell term is zero by oddness of the kernel around the
    singularity. The sums use the unit-spacing kernel, which is h times the
    kernel at spacing h, so they are divided by h.
    """
    grid = rho.grid
    return tuple(_circulant_sums(rho.samples * rho.geometry.weights, "grad",
                                 _grad_kernel_ffts(grid), scale=1.0 / grid.h))


def assemble_virial(rho: DensityField, R_list,
                    f: np.ndarray | None = None) -> list[VirialReport]:
    """I1, I2, I3 and the closure 4 I1 + 2 I2 + I3 for each cutoff radius.

    With a flat factor, pass f = None (zero); both I3 terms then vanish
    identically. Otherwise f should come from solve_aux_pde.
    """
    grid = rho.grid
    w_phi, inv_w = rho.geometry.weights, rho.geometry.e_m2phi
    gcx, gcy = potential_gradient(rho)
    # (x - x_g) . grad c about the grid centre x_g, as the cutoff and dilation_source are
    xdot = (grid.x - grid.center[0])[:, None] * gcx + (grid.y - grid.center[1])[None, :] * gcy

    if f is None:
        f = np.zeros((grid.n, grid.n))
    gfx, gfy = grad_flat(f, grid)

    # the I3 integrand (4 r phi_r - Delta_phi f - g_phi(df, dc)) rho, formed in place
    i3_field = dilation_source(rho.phi, grid)
    i3_field -= inv_w * laplacian_flat(f, grid)
    gfx *= gcx
    gfx += np.multiply(gfy, gcy, out=gfy)
    i3_field -= np.multiply(inv_w, gfx, out=gfx)
    i3_field *= rho.samples
    del gcx, gcy, gfx, gfy

    reports = []
    for R in sorted(float(v) for v in R_list):
        chi = cutoff_function(R, grid)
        I1 = float(np.sum(chi * rho.samples * w_phi))
        I2 = float(np.sum(chi * rho.samples * xdot * w_phi))
        I3 = float(np.sum(chi * i3_field) * grid.cell_area)
        reports.append(VirialReport(R_used=R, I1=I1, I2=I2, I3=I3))
    return reports


def export_virial_csv(reports: list[VirialReport], path, meta: str | None = None) -> None:
    write_csv(path, "R,I1,I2,I3,closure",
              ("%.12g,%.17g,%.17g,%.17g,%.17g\n" % (r.R_used, r.I1, r.I2, r.I3, r.closure)
               for r in reports), meta)
