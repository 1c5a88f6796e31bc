"""Stereographic transport, the Kazdan-Warner residual, and obstruction integrals.

Convention: the sphere carries latitude theta in (-pi/2, pi/2) and azimuth
psi. The stereographic map sends the node (theta, psi) to the plane point
x_star + r (cos psi, sin psi) with r = lam * tan((theta + pi/2) / 2), so the
South pole lands on x_star and the North pole goes to infinity. Pulling the
plane metric weighted by half the critical Cauchy profile back through this
map gives the round metric of unit radius; numerically, transporting the
constant 1 must integrate to 4pi, which validates the convention.

Derivatives act in latitude coordinates (smooth sphere fields stay smooth
there), with ghost rows mirrored across the poles (psi shifted by pi); the
quadrature grid keeps Gauss-Legendre nodes in sin(theta).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domain import AnnulusSpec, CartesianGrid, SphereGrid
from .geometry import ConformalFactor, grad_flat, grid_geometry
from .profiles import ScaledCauchyProfile
from .stationary import RHO_FLOOR, DensityField, decay_envelope

MAX_CAP_WEIGHT = 0.2               # largest polar-cap weight fraction a transport accepts
CERTIFICATE_SCALES = (0.5, 2.0)    # rescalings of the critical profile the certificate tests


@dataclass(frozen=True)
class StereographicMap:
    """Plane-sphere correspondence at scale lam centered at x_star."""

    lam: float
    x_star: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("map scale must be positive")

    def plane_radius(self, theta: np.ndarray) -> np.ndarray:
        """Planar distance from x_star of the image of latitude theta."""
        return self.lam * np.tan((np.asarray(theta) + np.pi / 2.0) / 2.0)

    def to_plane(self, theta: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = self.plane_radius(theta)
        return (self.x_star[0] + r * np.cos(psi), self.x_star[1] + r * np.sin(psi))


@dataclass
class SphereField:
    """Node values on a SphereGrid; role is one of "u", "h", "u1"."""

    grid: SphereGrid
    values: np.ndarray
    role: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_lat, self.grid.n_lon):
            raise ValueError("field shape does not match sphere grid")


# ---------------------------------------------------------------------------
# derivatives on the (theta, psi) grid

def _pad_poles(f: np.ndarray, theta: np.ndarray):
    """Ghost rows mirrored across each pole with a half-turn in psi."""
    n_lon = f.shape[1]
    s = n_lon // 2
    fp = np.vstack([np.roll(f[0:1], s, axis=1), f, np.roll(f[-1:], s, axis=1)])
    thp = np.concatenate([[-np.pi - theta[0]], theta, [np.pi - theta[-1]]])
    return fp, thp


def dtheta(f: np.ndarray, grid: SphereGrid) -> np.ndarray:
    """First latitude derivative, 3-point nonuniform stencil."""
    fp, thp = _pad_poles(f, grid.theta)
    dm = (thp[1:-1] - thp[:-2])[:, None]
    dp = (thp[2:] - thp[1:-1])[:, None]
    return (dp / dm * (fp[1:-1] - fp[:-2]) + dm / dp * (fp[2:] - fp[1:-1])) / (dm + dp)


def _dtheta2(f: np.ndarray, grid: SphereGrid) -> np.ndarray:
    fp, thp = _pad_poles(f, grid.theta)
    dm = (thp[1:-1] - thp[:-2])[:, None]
    dp = (thp[2:] - thp[1:-1])[:, None]
    return 2.0 * (fp[:-2] / (dm * (dm + dp)) - fp[1:-1] / (dm * dp)
                  + fp[2:] / (dp * (dm + dp)))


def _dpsi2(f: np.ndarray, grid: SphereGrid) -> np.ndarray:
    dpsi = 2.0 * np.pi / grid.n_lon
    return (np.roll(f, -1, axis=1) - 2.0 * f + np.roll(f, 1, axis=1)) / dpsi**2


def dpsi(f: np.ndarray, grid: SphereGrid) -> np.ndarray:
    d = 2.0 * np.pi / grid.n_lon
    return (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2.0 * d)


def laplacian_sphere(f: np.ndarray, grid: SphereGrid) -> np.ndarray:
    """Positive (geometer-sign) spherical Laplacian; degree-l harmonics map to +l(l+1)."""
    ct = np.cos(grid.theta)[:, None]
    tt = np.tan(grid.theta)[:, None]
    return -(_dtheta2(f, grid) - tt * dtheta(f, grid) + _dpsi2(f, grid) / ct**2)


def sphere_gradient(f: np.ndarray, grid: SphereGrid) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal-frame gradient components (d/dtheta, sec(theta) d/dpsi)."""
    ct = np.cos(grid.theta)[:, None]
    return dtheta(f, grid), dpsi(f, grid) / ct


def degree_one_harmonic(grid: SphereGrid, index: int) -> SphereField:
    """The three degree-one spherical harmonics: sin(theta), cos(theta)cos(psi), cos(theta)sin(psi)."""
    T, P = grid.meshes()
    if index == 1:
        vals = np.sin(T)
    elif index == 2:
        vals = np.cos(T) * np.cos(P)
    elif index == 3:
        vals = np.cos(T) * np.sin(P)
    else:
        raise ValueError("u1 index must be 1, 2 or 3")
    return SphereField(grid=grid, values=vals, role="u1")


# ---------------------------------------------------------------------------
# transport

@dataclass
class TransportReport:
    cap_fraction: float       # quadrature-weight fraction extrapolated past the grid


def transport_to_sphere(field: DensityField, phi: ConformalFactor,
                        smap: StereographicMap, sgrid: SphereGrid
                        ) -> tuple[SphereField, SphereField, TransportReport]:
    """Pull (1/2) ln(rho / rho_ref) and e^{2 phi} back to the sphere grid.

    Nodes mapping beyond the plane grid form the polar cap; there rho is
    extrapolated by its decay envelope K (1 + r^2)^{-m/4pi}, and h is exact
    because phi has compact support. Rejects transports whose cap carries
    more than MAX_CAP_WEIGHT of the total quadrature weight.
    """
    T, P = sgrid.meshes()
    X, Y = smap.to_plane(T, P)
    g = field.grid
    margin = 1.5 * g.h
    inside = ((X >= g.x[0] + margin) & (X <= g.x[-1] - margin)
              & (Y >= g.y[0] + margin) & (Y <= g.y[-1] - margin))
    W2 = sgrid.node_weights()
    cap_fraction = float(np.sum(W2[~inside]) / np.sum(W2))
    if cap_fraction > MAX_CAP_WEIGHT:
        raise ValueError(
            f"polar cap holds {cap_fraction:.1%} of the quadrature weight "
            f"(limit {MAX_CAP_WEIGHT:.0%}); enlarge the plane grid or lower lam")

    # interpolate ln rho: flat near the peak and log-linear in the tail, so
    # bilinear interpolation is far better conditioned than on rho itself
    log_rho = np.log(np.maximum(field.samples, RHO_FLOOR))
    log_interp = g.interpolate(log_rho, X, Y)
    rho_ref = 8.0 * np.pi * ScaledCauchyProfile(lam=smap.lam, x_star=smap.x_star)(X, Y)

    # envelope for the cap: rho ~ K (1 + r^2)^(-m/4pi)
    ann = AnnulusSpec(R=0.45 * g.half_width, ratio=2.0)
    env = decay_envelope(field, ann)
    expo = field.mass / (4.0 * np.pi)
    r2 = (X - smap.x_star[0]) ** 2 + (Y - smap.x_star[1]) ** 2
    log_cap = np.log(env.K_best) - expo * np.log1p(r2)

    u_vals = 0.5 * (np.where(inside, log_interp, log_cap) - np.log(rho_ref))
    h_vals = np.exp(2.0 * phi(X, Y))

    u = SphereField(grid=sgrid, values=u_vals, role="u")
    h = SphereField(grid=sgrid, values=h_vals, role="h")
    return u, h, TransportReport(cap_fraction=cap_fraction)


# ---------------------------------------------------------------------------
# residual and obstruction

def kw_residual(u: SphereField, h: SphereField) -> float:
    """L2 norm (sphere quadrature) of  Delta u - h e^{2u} + 1."""
    if u.grid is not h.grid and (u.grid.n_lat, u.grid.n_lon) != (h.grid.n_lat, h.grid.n_lon):
        raise ValueError("u and h live on different sphere grids")
    res = laplacian_sphere(u.values, u.grid) - h.values * np.exp(2.0 * u.values) + 1.0
    return float(np.sqrt(u.grid.integrate(res**2)))


def obstruction_integral(u: SphereField, h: SphereField, u1_index: int) -> float:
    """int g(d u1, d h) e^{2u} over the sphere; vanishes for exact solutions."""
    grid = u.grid
    u1 = degree_one_harmonic(grid, u1_index)
    g1t, g1p = sphere_gradient(u1.values, grid)
    ght, ghp = sphere_gradient(h.values, grid)
    integrand = (g1t * ght + g1p * ghp) * np.exp(2.0 * u.values)
    return float(grid.integrate(integrand))


def plane_side_obstruction(field_u: np.ndarray, phi: ConformalFactor,
                           smap: StereographicMap, grid: CartesianGrid,
                           u1_index: int = 1) -> float:
    """The same obstruction evaluated on the plane: int g0(d u1~, d e^{2 phi}) e^{2 u~}.

    The conformal factors of the inverse metric and the area form cancel, so
    the plane-side integrand needs no metric weights; u1~ is the pushforward
    of the degree-one harmonic.
    """
    X, Y = grid.meshes()
    dx, dy = X - smap.x_star[0], Y - smap.x_star[1]
    r2 = dx * dx + dy * dy
    lam2 = smap.lam**2
    if u1_index == 1:
        u1 = (r2 - lam2) / (r2 + lam2)
    elif u1_index == 2:
        u1 = 2.0 * smap.lam * dx / (lam2 + r2)
    elif u1_index == 3:
        u1 = 2.0 * smap.lam * dy / (lam2 + r2)
    else:
        raise ValueError("u1 index must be 1, 2 or 3")
    g1 = grad_flat(u1, grid)
    gh = grad_flat(grid_geometry(phi, grid).e2phi, grid)
    integrand = (g1[0] * gh[0] + g1[1] * gh[1]) * np.exp(2.0 * field_u)
    return grid.integrate(integrand)


# ---------------------------------------------------------------------------
# nonexistence certificate

@dataclass
class CertificateReport:
    eligible: bool
    reason: str
    flank_sign: int                    # sign of d phi / dr where it is nonzero
    obstructions: dict[str, float]     # candidate label -> obstruction value

    @property
    def min_magnitude(self) -> float:
        return min(abs(v) for v in self.obstructions.values()) if self.obstructions else 0.0


def nonexistence_certificate(phi: ConformalFactor, lam: float = 1.0,
                             n_lat: int = 128, n_lon: int = 256) -> CertificateReport:
    """Check the monotone-flank preconditions and report obstruction magnitudes.

    The certificate is translation-invariant, so it works on phi (radial, as every
    ConformalFactor is) moved to the origin. It refuses a constant phi and one whose
    radial derivative changes sign; otherwise the report lists the sin(theta)
    obstruction for u = 0 and for transported scale perturbations (CERTIFICATE_SCALES)
    of the critical profile. A numerical illustration of the obstruction, not a proof.

    Every candidate u is zonal, and so are u1 = sin(theta) and h = e^{2 phi}.
    As d_psi u1 = 0 on the grid, obstruction_integral then reduces exactly to
    2pi sum_k glw_k d_theta(u1)_k d_theta(h)_k e^{2u_k}, with h read on the one
    meridian psi = 0. The stencil of a constant is 0, so h - 1 = expm1(2 phi)
    is differenced in place of h: it keeps full relative precision when phi
    is small. n_lon selects nothing: it only has to make a valid SphereGrid.
    """
    phi = replace(phi, center=(0.0, 0.0))
    r = np.linspace(0.0, phi.support_radius, 512)
    prof = phi(r, np.zeros_like(r))
    dprof = np.gradient(prof, r)
    scale = float(np.max(np.abs(prof)))
    if scale == 0.0:
        return CertificateReport(False, "factor is constant (zero)", 0, {})
    tol = 1e-10 * scale
    has_pos = bool(np.any(dprof > tol))
    has_neg = bool(np.any(dprof < -tol))
    if has_pos and has_neg:
        return CertificateReport(False, "radial derivative changes sign", 0, {})
    flank_sign = 1 if has_pos else -1

    sgrid = SphereGrid(n_lat=n_lat, n_lon=n_lon)
    x, y = StereographicMap(lam=lam).plane_radius(sgrid.theta), np.zeros(n_lat)   # psi = 0
    h1 = np.expm1(2.0 * phi(x, y))[:, None]
    dd = dtheta(np.sin(sgrid.theta)[:, None], sgrid) * dtheta(h1, sgrid)
    weight = 2.0 * np.pi * sgrid.glw * dd[:, 0]
    obstructions = {"u=0": float(np.sum(weight))}
    den = 8.0 * np.pi * ScaledCauchyProfile(lam=lam)(x, y)
    for s in CERTIFICATE_SCALES:    # e^{2u} of the transported rho_{s*lam} against rho_lam
        num = 8.0 * np.pi * ScaledCauchyProfile(lam=s * lam)(x, y)
        obstructions[f"scale x{s:g}"] = float(np.sum(weight * num / den))
    return CertificateReport(True, "monotone radial flank", flank_sign, obstructions)
