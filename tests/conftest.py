import json

import numpy as np
import pytest

from curvedks.cli import main
from curvedks.domain import CartesianGrid
from curvedks.geometry import ConformalFactor
from curvedks.potential import _toeplitz_sum, self_cell_weight


@pytest.fixture(scope="session")
def flat_phi():
    return ConformalFactor.zero()


@pytest.fixture(scope="session")
def bump_phi():
    return ConformalFactor.radial_bump(0.1, 2.0, (0.0, 0.0))


@pytest.fixture(scope="session")
def grid64():
    return CartesianGrid(center=(0.0, 0.0), half_width=20.0, n=64)


@pytest.fixture(scope="session")
def grid128():
    return CartesianGrid(center=(0.0, 0.0), half_width=40.0, n=128)


def run_cli(rundir, command, payload):
    """Run `curvedks <command>` through cli.main on `payload`, written as a config in
    `rundir` with outputs in rundir/out, so runs in separate directories share nothing.
    Returns the exit code and the output directory.
    """
    rundir.mkdir(parents=True, exist_ok=True)
    outdir = rundir / "out"
    cfg = rundir / f"{command.replace('-', '_')}.json"
    cfg.write_text(json.dumps({**payload, "output_dir": str(outdir)}))
    return main([command, "--config", str(cfg)]), outdir


def lstsq_order(ns, errors):
    """Empirical convergence order: least-squares slope of ln(err) vs ln(1/n)."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    return float(np.polyfit(np.log(1.0 / ns), np.log(errors), 1)[0])


def meshgrid_offset_table(kind, n):
    """Each unit-spacing kernel evaluated directly on the full (2n, 2n) offset mesh.

    Entry [a + n, b + n] is the kernel at offset (a, b), a, b in -n..n-1: (G,)
    for "log", with W(1) at offset 0, and (KX, KY), the components of grad G,
    for "grad". It shares no folding code with the engine.
    """
    d = np.arange(-n, n, dtype=float)
    DX, DY = np.meshgrid(d, d, indexing="ij")
    if kind == "log":
        R = np.hypot(DX, DY)
        T = np.empty((2 * n, 2 * n))
        nz = R > 0
        T[nz] = -np.log(R[nz]) / (2.0 * np.pi)
        T[n, n] = self_cell_weight(1.0)
        return (T,)
    R2 = DX**2 + DY**2
    with np.errstate(divide="ignore", invalid="ignore"):
        KX = np.where(R2 > 0, -DX / (2.0 * np.pi * R2), 0.0)
        KY = np.where(R2 > 0, -DY / (2.0 * np.pi * R2), 0.0)
    return KX, KY


def radial_derivative(phi, r):
    """Oracle for ConformalFactor.grad: d phi / dr of the bump A exp(1 - 1/(1 - s^2)),
    s = r / R, in closed form: -2 A s exp(1 - 1/(1 - s^2)) / (R (1 - s^2)^2) on s < 1, else 0."""
    s = np.asarray(r, dtype=float) / phi.support_radius
    out = np.zeros_like(s)
    inside = s < 1.0
    q = 1.0 - s[inside] ** 2
    out[inside] = (-2.0 * phi.amplitude * s[inside] * np.exp(1.0 - 1.0 / q)
                   / (phi.support_radius * q * q))
    return out


def direct_gradient(rho):
    """Oracle for virial.potential_gradient: O(N^2) block-Toeplitz sums over the full-mesh
    gradient tables, divided by the spacing h."""
    q = rho.samples * rho.geometry.weights
    return tuple(_toeplitz_sum(q, K) / rho.grid.h
                 for K in meshgrid_offset_table("grad", rho.grid.n))
