"""Exact mean and covariance evolution of the linear lattice model.

The drift matrix A of the linear model is symmetric circulant, so the DFT
matrix F diagonalises it, A = F^{-1} diag(lambda) F with lambda the FFT of
A's first row.  That gives closed forms for e^{At} m0 and for

    C(t) = e^{At} C0 e^{At} + sigma_u^2 F^{-1} diag((e^{2 lambda t} - 1)/(2 lambda)) F,

whose noise part is the circulant with the inverse FFT of the per-mode
kernels as first row.  The kernel is evaluated with expm1 to stay accurate
for |lambda t| << 1.  tests/oracles.py holds the dense reference route.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import BlockCovariance, ContractViolationError, circulant_spectrum, ring_matrix
from .lattice import _FINITE, _real
from .models import LinearParams, linear_model


def build_system_matrix(params: LinearParams, n: int) -> np.ndarray:
    """Spectrum of A = -a I + d_u * (circulant second difference) + (w/N) * ones - w I,
    in Fourier-mode order and read-only: the surrogate circulant
    (``circulant_spectrum``) at the linear model's own constants.

    Its entries are -a and -a - w - 4 d_u sin^2(pi k / N), all negative
    because LinearParams requires a > 0 and d_u, w >= 0.
    """
    return circulant_spectrum(linear_model(params, n).lipschitz, n)


def _noise_kernel(lam: np.ndarray, t: float) -> np.ndarray:
    """(e^{2 lambda t} - 1) / (2 lambda), with the lambda -> 0 limit t."""
    out = np.full(lam.shape, float(t))
    nz = lam != 0.0
    with np.errstate(over="ignore"):  # a huge finite t decays to its t = inf value
        out[nz] = np.expm1(2.0 * lam[nz] * t) / (2.0 * lam[nz])
    return out


def _covariance_row(sys: np.ndarray, sigma_u: float, t: float) -> np.ndarray:
    """First row of the covariance at time t from zero initial covariance;
    ``sys`` is a ``build_system_matrix`` spectrum, as in the functions below."""
    t = _real(t, "t", 0.0, math.inf)
    sigma_u = _real(sigma_u, "sigma_u", -math.sqrt(_FINITE), math.sqrt(_FINITE))  # a finite square
    return np.fft.ifft(sigma_u**2 * _noise_kernel(sys, t)).real


def analytic_mean(sys: np.ndarray, u0: np.ndarray, t: float) -> np.ndarray:
    """e^{At} u0."""
    t = _real(t, "t", 0.0, math.inf)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != sys.shape:
        raise ContractViolationError(f"u0 must have shape {sys.shape}, got {u0.shape}")
    with np.errstate(over="ignore"):  # as in _noise_kernel
        return np.fft.ifft(np.exp(sys * t) * np.fft.fft(u0)).real


def analytic_covariance(
    sys: np.ndarray,
    cov0: np.ndarray | None,
    sigma_u: float,
    t: float,
) -> BlockCovariance:
    """Covariance of the linear lattice at time t from initial covariance cov0.

    The initial covariance is propagated symmetrically, e^{At} cov0 e^{At};
    cov0=None is a zero initial covariance, whose covariance is circulant and
    is handed over as its first row, never built dense.
    """
    n = len(sys)
    row = _covariance_row(sys, sigma_u, t)
    if cov0 is None:
        return BlockCovariance.from_ring_row(row)
    cov0 = np.asarray(cov0, dtype=float)
    if cov0.shape != (n, n):
        raise ContractViolationError(f"cov0 must be ({n}, {n}), got {cov0.shape}")
    with np.errstate(over="ignore"):  # as in _noise_kernel
        e = np.exp(sys * t)
    total = ring_matrix(row) + np.fft.ifft2(np.outer(e, e) * np.fft.fft2(cov0)).real
    return BlockCovariance(total, n_blocks=n, block_dim=1)


def circulant_covariance_row(params: LinearParams, n: int, t: float) -> np.ndarray:
    """First covariance row at time t from zero initial covariance, in O(N)
    memory; row i of the full matrix is this row shifted by i."""
    return _covariance_row(build_system_matrix(params, n), params.sigma_u, t)
