"""Free energies, the logarithmic HLS deficit, and the lambda scan.

The free energy splits into an entropy term, a Coulomb term (the lattice
self-energy of the charges, self cell included), and an optional curvature
coupling term:

    F = int rho ln rho dA_phi - 1/2 (rho, G rho) + q (kappa_phi, G rho).

The deficit report compares the relative entropy against the Coulomb energy
of the difference from the scaled Cauchy reference; it is nonnegative and
vanishes exactly on the scaled-Cauchy family (both sides shift identically
under rescaling, so any member tested against any reference gives zero).
The lambda scan exhibits the (m/4pi)(m - 8pi) ln(lambda) law and the
critical-mass plateau.

Every lattice sum here takes the engine's default FFT path; none of these
functions picks a path. A Coulomb energy with no potential at hand (every
deficit and scan row) is coulomb_energy's Parseval sum: no inverse transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import CartesianGrid, line_fit, write_csv
from .geometry import ConformalFactor, gauss_curvature
from .potential import coulomb_energy, estimate_tail, lattice_potential
from .profiles import ScaledCauchyProfile
from .stationary import DensityField, density_from_profile, rho_log_rho

# a fixed-grid scan row is resolved when lambda spans at least this many cells
_RESOLUTION_CELLS = 2.0


@dataclass
class EnergyReport:
    entropy_term: float
    coulomb_term: float
    coupling_term: float
    q: float

    @property
    def total(self) -> float:
        return self.entropy_term - 0.5 * self.coulomb_term + self.q * self.coupling_term


def free_energy(field: DensityField, q: float = 0.0,
                c: np.ndarray | None = None) -> EnergyReport:
    """Entropy, Coulomb, and curvature-coupling terms by quadrature.

    c, if given, is the potential samples of the field's charges
    field.samples * field.geometry.weights (a flow step already holds them); the
    Coulomb and coupling terms are then dot products with it. Without c, it is
    summed here only for a coupling term (q != 0); else coulomb_energy is used.
    """
    grid = field.grid
    w = field.geometry.weights
    entropy = float(np.sum(rho_log_rho(field.samples) * w))
    charges = field.samples * w
    if c is None and q == 0.0:
        coulomb = coulomb_energy(charges, grid)
    else:
        c = lattice_potential(charges, grid) if c is None else c
        coulomb = float(np.sum(charges * c))
    coupling = 0.0
    if q != 0.0:
        kappa = gauss_curvature(field.phi, grid)
        coupling = float(np.sum(kappa * w * c))
    return EnergyReport(entropy_term=entropy, coulomb_term=coulomb,
                        coupling_term=coupling, q=q)


@dataclass
class DeficitReport:
    """Relative entropy minus the scaled Coulomb energy of the difference."""

    lhs: float
    rhs: float
    mass: float

    @property
    def deficit(self) -> float:
        return self.lhs - self.rhs


def log_hls_deficit(field: DensityField, lam: float,
                    x_star: tuple[float, float] = (0.0, 0.0)) -> DeficitReport:
    """Deficit of rho against the reference m mu^phi_{lam, x_star}.

    lhs = int rho ln(rho / (m mu^phi)) dA_phi,
    rhs = (4pi/m) (rho - m mu^phi, G (rho - m mu^phi))  (curved weights).
    """
    grid = field.grid
    m = field.mass
    mu = ScaledCauchyProfile(lam=lam, x_star=x_star).on_grid(grid)
    geometry = field.geometry
    ref = m * mu * geometry.e_m2phi
    rho = field.samples
    lhs = float(np.sum(rho_log_rho(rho, ref) * geometry.weights))
    rhs = (4.0 * np.pi / m) * coulomb_energy((rho - ref) * geometry.weights, grid)
    return DeficitReport(lhs=lhs, rhs=rhs, mass=m)


@dataclass
class CovarianceCheck:
    curved_deficit: float
    flat_deficit: float

    @property
    def difference(self) -> float:
        return self.curved_deficit - self.flat_deficit


def conformal_covariance_check(field: DensityField, lam: float,
                               x_star: tuple[float, float] = (0.0, 0.0)) -> CovarianceCheck:
    """Curved deficit of rho equals the flat deficit of rho e^{2 phi}.

    The two sides are the same quadrature sums reassociated, so they agree
    to roundoff; the check guards the weight bookkeeping of both paths.
    """
    curved = log_hls_deficit(field, lam, x_star).deficit
    pushed = DensityField(grid=field.grid, samples=field.samples * field.geometry.e2phi,
                          phi=ConformalFactor.zero())
    flat = log_hls_deficit(pushed, lam, x_star).deficit
    return CovarianceCheck(curved_deficit=curved, flat_deficit=flat)


@dataclass
class ScanRow:
    lam: float
    value: float
    resolved: bool
    tail_bound: float


@dataclass
class ScanTable:
    rows: list[ScanRow]
    slope_fit: float
    predicted_slope: float
    plateau: float
    predicted_plateau: float

    def to_csv(self, path, meta: str | None = None) -> None:
        write_csv(path, "lambda,F,resolved,slope_fit,tail_bound",
                  ("%.12g,%.17g,%d,%.17g,%.17g\n"
                   % (r.lam, r.value, r.resolved, self.slope_fit, r.tail_bound)
                   for r in self.rows), meta)


def lambda_scan(m: float, phi: ConformalFactor, lam_list,
                grid: CartesianGrid | None = None,
                x_star: tuple[float, float] | None = None,
                scaled_half_width: float = 60.0, scaled_n: int = 512) -> ScanTable:
    """Scan F_phi(m mu_lam e^{-2 phi}) over a lambda ladder.

    x_star defaults to the center of phi, because the small-lambda limit of
    the scan picks out the factor value at the concentration point.

    With grid=None (flat factor only) each row runs on a lambda-scaled grid
    of half width scaled_half_width * lambda: the rows are then the same
    lattice problem up to exact logarithmic shifts, so the fitted slope is
    clean. A fixed grid is required for curved factors; its rows are flagged
    unresolved when lambda falls under a few cells or overflows the domain;
    an unresolved row is not computed, and its value and tail_bound are nan.
    Fewer than two resolved rows (every lambda-scaled row is resolved) fit no
    slope, and raise ValueError.
    """
    if x_star is None:
        x_star = phi.center
    lam_arr = sorted(float(v) for v in lam_list)
    if len(lam_arr) >= 2 and lam_arr[-1] / lam_arr[0] < 100.0:
        raise ValueError("lambda list should span at least two decades")
    if grid is None and not phi.is_flat:
        raise ValueError("a fixed grid is required to scan a curved factor")
    lo, hi = (0.0, np.inf) if grid is None else (_RESOLUTION_CELLS * grid.h, grid.half_width / 8.0)
    resolved = [lo <= lam <= hi for lam in lam_arr]
    if sum(resolved) < 2:
        raise ValueError(f"a slope needs at least two resolved lambdas, got {sum(resolved)} of "
                         f"{lam_arr}; a lambda is resolved when {lo:.6g} <= lambda <= {hi:.6g}")
    rows = []
    for lam, ok in zip(lam_arr, resolved):
        if not ok:
            rows.append(ScanRow(lam=lam, value=np.nan, resolved=False, tail_bound=np.nan))
            continue
        g = grid if grid is not None else CartesianGrid(
            center=x_star, half_width=scaled_half_width * lam, n=scaled_n)
        fld = density_from_profile(m, lam, x_star, phi, g)
        rows.append(ScanRow(lam=lam, value=free_energy(fld).total, resolved=True,
                            tail_bound=estimate_tail(fld.samples, g).bound))
    good = [r for r in rows if r.resolved]
    slope = line_fit([np.log(r.lam) for r in good], [r.value for r in good])[0]
    predicted_slope = (m / (4.0 * np.pi)) * (m - 8.0 * np.pi)
    # plateau is meaningful near the critical mass; report the small-lambda end
    plateau = float(np.mean([r.value for r in good[: max(2, len(good) // 3)]]))
    predicted_plateau = 8.0 * np.pi * np.log(8.0 / np.e) - 16.0 * np.pi * float(phi(*x_star))
    return ScanTable(rows=rows, slope_fit=slope, predicted_slope=predicted_slope,
                     plateau=plateau, predicted_plateau=predicted_plateau)
