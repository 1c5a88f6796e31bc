"""Logarithmic kernel and the Newtonian potential with singular self-cell quadrature.

The potential of a density rho on the curved plane is the lattice sum

    c(x_i) = sum_j G(x_i, x_j) rho_j e^{2 phi_j} h^2,   G(x, y) = -ln|x - y| / 2pi,

with the singular j = i term replaced by rho_i e^{2 phi_i} W(h), where W(h) is
the exact integral of G over one grid cell centered at the singularity.
On a uniform lattice a kernel depends only on the offset i - j, so each kernel
(G, and the gradient kernel the virial uses) is evaluated once, on the
quadrant of nonnegative offsets at unit spacing, and gathered by symmetry.
It is summed by FFT as a zero-padded circulant convolution (the working path at
every grid size: spectra from the quadrant's distinct rows, cached as the real
half tables that fix them; pruned transforms in one reused buffer). Direct
block-Toeplitz summation of G is the O(N^2) oracle, run only when a caller asks
for method="direct"; the gradient sums have the FFT path only. The spacing h is
applied to the sum, exactly: G(h x) = G(x) - ln h / 2pi and W(h)/h^2 + ln h / 2pi
is h-independent, so at spacing h the log sum shifts by -(ln h / 2pi) sum q, and
the gradient sum scales by 1/h. A Coulomb self-energy (q, G q) that needs no
potential is taken by Parseval from the forward transforms alone (coulomb_energy).
A potential carries no truncation tail: a caller that reports one fits it from the
density with estimate_tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .domain import CartesianGrid, line_fit, read_only
from .geometry import ConformalFactor, grid_geometry


def green_kernel(x, y) -> np.ndarray | float:
    """G(x, y) = -(1/2pi) ln|x - y| for distinct points.

    Accepts points as length-2 sequences or arrays of shape (..., 2).
    Coincident points are rejected; the on-diagonal cell integral is
    handled separately by self_cell_weight.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.hypot(*np.moveaxis(x - y, -1, 0))
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

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.m_tail))


def estimate_tail(rho: np.ndarray, grid: CartesianGrid) -> TruncationReport:
    """Fit ln rho vs ln r on the outer ring and integrate the envelope outward."""
    r = grid.radius()
    ring = (r >= 0.7 * grid.half_width) & (r <= grid.half_width) & (rho > 0)
    if ring.sum() < 8:
        return TruncationReport(np.inf, np.inf)
    slope, intercept = line_fit(np.log(r[ring]), np.log(rho[ring]))
    W = grid.half_width
    with np.errstate(over="ignore", invalid="ignore"):
        if slope < -2.2:  # integrable tail with usable margin from the r^-2 edge
            p = -slope
            # evaluate in log space: exp(intercept + (2 - p) ln W) / (p - 2)
            m_tail = 2.0 * np.pi * np.exp(intercept + (2.0 - p) * np.log(W)) / (p - 2.0)
            # |ln| of distances from on-grid points to the tail region
            bound = m_tail / (2.0 * np.pi) * max(abs(np.log(W)), abs(np.log(3.0 * W)), 1.0)
        else:
            m_tail = np.inf
            bound = np.inf
    return TruncationReport(float(m_tail), float(bound))


@dataclass
class PotentialField:
    """Sampled Newtonian potential on its grid."""

    grid: CartesianGrid
    samples: np.ndarray

    @cached_property
    def face_gradients(self) -> tuple[np.ndarray, np.ndarray]:
        """Differences of c across interior cell faces over h: shapes (n-1, n), (n, n-1)."""
        h = self.grid.h
        gx, gy = np.diff(self.samples, axis=0), np.diff(self.samples, axis=1)
        gx /= h
        gy /= h
        return gx, gy


def _quadrant(kind: str, n: int) -> np.ndarray:
    """A kernel at unit spacing on the (n+1)^2 quadrant of offsets (a, b) >= 0.

    "log" gives G, with W(1) at offset 0; "grad" gives KX, the x component of
    grad G = -(x - y) / (2pi |x - y|^2), with 0 at offset 0 (the self-cell
    term vanishes by oddness). G depends on (|a|, |b|) only, KX up to the
    sign of a, and KY is KX transposed: every table and spectrum is gathered.
    """
    i = np.arange(n + 1, dtype=float)
    if kind == "log":
        R = np.hypot(i[:, None], i)
        R[0, 0] = 1.0                        # offset 0 takes W(1) below, not a log
        Q = -np.log(R) / (2.0 * np.pi)
        Q[0, 0] = self_cell_weight(1.0)
        return Q
    if kind == "grad":
        R2 = i[:, None] ** 2 + i**2
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(R2 > 0, -i[:, None] / (2.0 * np.pi * R2), 0.0)
    raise ValueError(f"unknown kernel kind {kind!r}")


@lru_cache(maxsize=8)
def _kernel_spectra(kind: str, n: int) -> tuple[np.ndarray, ...]:
    """Read-only rows k1 = 0..n of each kernel's rfft2 in FFT order, as real (n+1, n+1) tables:
    (K,) for "log", (X, X^T) for "grad"; one per (kind, n), for any h and centre.

    G is even in both offsets, so its spectrum is K, with row k1 > n equal to row 2n - k1. KX is
    odd in a and even in b, so its spectrum is i X, with row k1 > n equal to -i X[2n - k1]; KY's
    is i X^T, with +i X^T[2n - k1]. FFT-order table row k is quadrant row min(k, 2n - k), up to
    the sign of a for KX, so the row rfft runs on the n+1 distinct rows. The real part of the
    transformed KX table is the transform of its offset -n row, which no n x n sum reads."""
    k = np.arange(2 * n)
    fold, sign = np.minimum(k, 2 * n - k), np.sign((k + n) % (2 * n) - n)[:, None]
    S = np.fft.rfft(_quadrant(kind, n)[:, fold], axis=1)[fold]
    if kind == "grad":
        S *= sign
    S = np.fft.fft(S, axis=0, out=S)[:n + 1]
    X = S.real.copy() if kind == "log" else S.imag.copy()
    return read_only((X,) if kind == "log" else (X, X.T.copy()))   # a transposed read is slower


def _toeplitz_sum(q: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Direct lattice sum out[i, j] = sum_{k, l} table[i - k, j - l] q[k, l].

    Row block i of the output is sum_k q[k, :] @ M_{i-k} with the Toeplitz
    matrix M_a[l, j] = table[a, j - l]; each row offset a is one BLAS matmul
    over every (i, k) pair at that offset. M_a is a strided view of the
    table, copied one offset at a time, so memory stays O(n^2).
    """
    n = q.shape[0]
    M = sliding_window_view(table[:, 1:], n, axis=1)[:, ::-1]   # M[a + n][l, j]
    out = np.zeros((n, n))
    for a in range(1 - n, n):
        lo, hi = max(0, a), min(n, n + a)    # targets i whose source k = i - a is on the grid
        out[lo:hi] += q[lo - a:hi - a] @ M[a + n]
    return out


_spectrum_buffer = np.empty(0, dtype=complex)


def _fft_workspace(n: int) -> np.ndarray:
    """The (2n, n+1) complex spectrum buffer of grid size n, reused by every FFT lattice sum.

    Each inverse row transform writes into a real view of its product's spent bottom half.
    It is a view of one grow-only buffer, reallocated only when a larger n arrives, so sums
    that alternate sizes, or run below the largest size seen, allocate nothing. The sums run
    one at a time; this is not thread-safe.
    """
    global _spectrum_buffer
    size = 2 * n * (n + 1)
    if _spectrum_buffer.size < size:
        _spectrum_buffer = np.empty(size, dtype=complex)
    return _spectrum_buffer[:size].reshape(2 * n, n + 1)


def _padded_spectrum(q: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """rfft2 of scale * q zero-padded to 2n x 2n, in the workspace, from the n data rows."""
    n = q.shape[0]
    S = _fft_workspace(n)
    np.fft.rfft(q, n=2 * n, axis=1, out=S[:n])
    if scale != 1.0:
        S[:n] *= scale
    S[n:] = 0.0
    return np.fft.fft(S, axis=0, out=S)


def _circulant_sums(q: np.ndarray, kind: str, halves, scale: float = 1.0) -> list[np.ndarray]:
    """FFT lattice sums of scale * q, zero-padded to 2n x 2n, with the kernels of a kind.

    The transforms are pruned to the data: the forward row rfft runs over the
    n data rows only (written into the top half of the spectrum buffer), and
    the inverse row irfft over the n output rows only. Each result is copied
    out of the buffer, so it owns its n x n samples.
    """
    n = q.shape[0]
    m = 2 * n
    S = _padded_spectrum(q, scale * 1j if kind == "grad" else scale)   # i: X is Im(spectrum)
    sums = []
    for k in reversed(range(len(halves))):   # kernel 0 last, as it may overwrite the data spectrum
        P = S if k == 0 else np.empty_like(S)
        np.multiply(S[:n + 1], halves[k], out=P[:n + 1])
        np.multiply(S[n + 1:], halves[k][n - 1:0:-1], out=P[n + 1:])   # rows 2n - k1
        if kind == "grad" and k == 0:        # KX's mirrored rows change sign
            np.negative(P[n + 1:].view(float), out=P[n + 1:].view(float))
        np.fft.ifft(P, axis=0, out=P)
        R = P[n:].view(float).reshape(-1)[:n * m].reshape(n, m)   # spent rows, as n x 2n real
        np.fft.irfft(P[:n], n=m, axis=1, out=R)
        sums.insert(0, R[:, :n].copy())
        del P, R                             # freed before the next result: fewer page faults
    return sums


def _direct_convolve(q: np.ndarray, grid: CartesianGrid) -> np.ndarray:
    """Reference O(N^2) summation of the unit-spacing log kernel (block-Toeplitz, no FFT)
    over the (2n, 2n) table of offsets -n..n-1, the quadrant folded by |offset|."""
    n = grid.n
    return _toeplitz_sum(q, _quadrant("log", n)[np.ix_(*2 * [np.abs(np.arange(-n, n))])])


def _fft_convolve(q: np.ndarray, grid: CartesianGrid) -> np.ndarray:
    return _circulant_sums(q, "log", _kernel_spectra("log", grid.n))[0]


def lattice_potential(q: np.ndarray, grid: CartesianGrid, method: str = "fft") -> np.ndarray:
    """Potential of per-cell charges q_j (already including area weights), "fft" or "direct"."""
    if method == "direct":
        c = _direct_convolve(q, grid)
    elif method == "fft":
        c = _fft_convolve(q, grid)
    else:
        raise ValueError(f"unknown method {method!r}")
    c -= np.log(grid.h) / (2.0 * np.pi) * q.sum()    # unit-spacing sum to spacing h
    return c


def newtonian_potential(rho: np.ndarray, phi: ConformalFactor, grid: CartesianGrid,
                        method: str = "fft") -> PotentialField:
    """Potential c of the density rho with curved area weights e^{2 phi} h^2."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (grid.n, grid.n):
        raise ValueError("density shape does not match grid")
    q = grid_geometry(phi, grid).e2phi * rho
    q *= grid.cell_area
    return PotentialField(grid, lattice_potential(q, grid, method=method))


def coulomb_energy(q: np.ndarray, grid: CartesianGrid) -> float:
    """Self-energy (q, G q) of per-cell charges q (area weights included), by Parseval.

    (q, K q) = sum_k K_k |q_k|^2 / (2n)^2 over the zero-padded spectrum: only the forward
    transforms run, and the spectrum is weighted and summed pairwise in the shared workspace.
    """
    n = grid.n
    S = _padded_spectrum(q)
    mass = S[0, 0].real                      # sum q, the zero-frequency coefficient
    A = S.view(float).reshape(2 * n, n + 1, 2)
    A *= A
    A[..., 0] += A[..., 1]                   # |S_k|^2, freeing the imaginary slots
    np.copyto(A[1:n, :, 1], A[:n:-1, :, 0])  # rows 2n - k1 beside rows k1, to meet K's row k1
    B = A[:n + 1, :, 0]
    B[1:n] += A[1:n, :, 1]
    B *= _kernel_spectra("log", n)[0]
    e = (2.0 * B.sum() - B[:, ::n].sum()) / (2 * n) ** 2   # rfft columns 0 and n count once
    return float(e - np.log(grid.h) / (2.0 * np.pi) * mass ** 2)
