"""Scaled Cauchy profiles and their closed-form integral identities.

These closed forms are the exact oracles used throughout the test suite:
the unit-mass profile mu has an explicit entropy, an explicit logarithmic
potential, and an explicit Coulomb self-energy, all elementary to derive by
radial integration. Its mass-8pi multiple rho = 8pi mu, which callers form as
8.0 * np.pi * profile(...), is the explicit stationary family of the flat problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import CartesianGrid


@dataclass(frozen=True)
class ScaledCauchyProfile:
    """Unit-mass profile mu = lambda^2 / (pi (lambda^2 + |x - x_star|^2)^2) of the flat plane."""

    lam: float
    x_star: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("profile scale must be positive")

    def __call__(self, X, Y) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        d2 = (X - self.x_star[0]) ** 2 + (Y - self.x_star[1]) ** 2
        lam2 = self.lam * self.lam
        return lam2 / (np.pi * (lam2 + d2) ** 2)

    def on_grid(self, grid: CartesianGrid) -> np.ndarray:
        """Profile at the cell centres, from the broadcast axes x[:, None], y[None, :]."""
        return self(grid.x[:, None], grid.y[None, :])


def mu_entropy_identity(m: float, lam: float) -> float:
    """Closed form of  int m mu ln(m mu) dA0  =  m ln(m / (pi e^2)) - 2 m ln(lam).

    Derivation is elementary: int mu ln(1 + (r/lam)^2)-type terms reduce to
    int_1^inf ln(u)/u^2 du = 1. Shifting lam -> e*lam lowers the value by
    exactly 2m.
    """
    if not (m > 0 and lam > 0):
        raise ValueError("mass and scale must be positive")
    return m * (np.log(m / np.pi) - 2.0 - 2.0 * np.log(lam))


def mu_potential_identity(lam: float, x) -> np.ndarray | float:
    """Closed-form potential of the unit-mass profile at the origin: -(1/4pi) ln(lam^2 + |x|^2)."""
    if not lam > 0:
        raise ValueError("profile scale must be positive")
    d2 = np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
    out = -np.log(lam * lam + d2) / (4.0 * np.pi)
    return float(out) if out.ndim == 0 else out


def mu_coulomb_identity(lam: float) -> float:
    """Closed-form Coulomb self-energy of mu: -(1/2pi) ln(lam) - 1/(4pi)."""
    if not lam > 0:
        raise ValueError("profile scale must be positive")
    return -np.log(lam) / (2.0 * np.pi) - 1.0 / (4.0 * np.pi)
