"""Cyclic lattice geometry, model definitions, and per-model coupling constants.

Everything downstream (integration, exact solutions, bounds, localization)
works in terms of blocks: the state is N blocks of dimension q arranged on a
ring, and distances between blocks are measured along the ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

DriftFn = Callable[[np.ndarray, np.ndarray], None]


class ContractViolationError(ValueError):
    """An argument broke a documented precondition."""


class UnsupportedModelError(ValueError):
    """Coupling constants were requested for a model that does not carry them."""


def cyclic_distance(i: int, j: int, n: int) -> int:
    """Shortest separation between 1-based block indices on the N-ring.

    Returns min{|i-j|, |i+n-j|, |j-i+n|}; symmetric in (i, j) and never
    larger than floor(n/2).
    """
    if n < 1:
        raise ContractViolationError(f"ring size must be positive, got n={n}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ContractViolationError(
            f"block indices must lie in 1..{n}, got ({i}, {j})"
        )
    return min(abs(i - j), abs(i + n - j), abs(j - i + n))


def cyclic_distance_matrix(n: int) -> np.ndarray:
    """(n, n) integer matrix of ring distances between block indices."""
    if n < 1:
        raise ContractViolationError(f"ring size must be positive, got n={n}")
    idx = np.arange(n)
    diff = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(diff, n - diff)


@dataclass(frozen=True)
class LipschitzConstants:
    """Coupling strengths driving every covariance bound.

    lambda_0 bounds the symmetric part of the self-Jacobian, lambda_f the
    operator norm of the neighbor Jacobians, lambda_h the operator norm of
    the mean-field Jacobian.
    """

    lambda_0: float
    lambda_f: float
    lambda_h: float

    def __post_init__(self):
        if self.lambda_f < 0 or self.lambda_h < 0:
            raise ContractViolationError(
                "lambda_f and lambda_h must be nonnegative, got "
                f"({self.lambda_f}, {self.lambda_h})"
            )


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LatticeModelSpec:
    """One cyclic coupled SDE system.

    ``drift(state, out)`` writes the full drift of a whole lattice into
    ``out``, in place: local and nearest-neighbour terms plus the mean field
    (1/N) sum_j h(x_j).  Both arrays have shape (..., N, q); axis -2 is the
    ring and leading axes are independent samples, so one call covers a
    whole ensemble chunk.  ``out`` is C-contiguous, never aliases ``state``
    and may hold garbage on entry; the drift is autonomous and deterministic.

    ``sigma`` scales the per-block Brownian increments, ``sigma0``/``m0``
    define the i.i.d. initial law N(m0, sigma0 sigma0^T).
    """

    n_blocks: int
    block_dim: int
    drift: DriftFn
    sigma: np.ndarray
    sigma0: np.ndarray
    m0: np.ndarray
    lipschitz: LipschitzConstants | None = None
    label: str = "custom"
    # Frobenius norms of sigma^2 / sigma0^2 in the convention the bounds
    # expect.  None means "compute from sigma directly"; reference models with
    # a rescaled bound convention (FHN) override these.
    bound_sigma_sq_frob: float | None = None
    bound_sigma0_sq_frob: float | None = None

    def __post_init__(self):
        if self.n_blocks < 3:
            raise ContractViolationError(
                f"cyclic neighbor structure needs n_blocks >= 3, got {self.n_blocks}"
            )
        if self.block_dim < 1:
            raise ContractViolationError(f"block_dim must be >= 1, got {self.block_dim}")
        q = self.block_dim
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (q, q):
            raise ContractViolationError(f"sigma must be {q}x{q}, got {sigma.shape}")
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(sigma).max())):
            raise ContractViolationError("sigma must be symmetric")
        sigma0 = np.asarray(self.sigma0, dtype=float)
        if sigma0.shape != (q, q):
            raise ContractViolationError(f"sigma0 must be {q}x{q}, got {sigma0.shape}")
        m0 = np.asarray(self.m0, dtype=float)
        if m0.shape != (q,):
            raise ContractViolationError(f"m0 must have shape ({q},), got {m0.shape}")
        object.__setattr__(self, "sigma", _readonly(0.5 * (sigma + sigma.T)))
        object.__setattr__(self, "sigma0", _readonly(sigma0))
        object.__setattr__(self, "m0", _readonly(m0))

    def sigma_sq_frob(self) -> float:
        """||sigma^2||_F in the bound convention."""
        if self.bound_sigma_sq_frob is not None:
            return self.bound_sigma_sq_frob
        return float(np.linalg.norm(self.sigma @ self.sigma))

    def sigma0_sq_frob(self) -> float:
        """||sigma0^2||_F in the bound convention."""
        if self.bound_sigma0_sq_frob is not None:
            return self.bound_sigma0_sq_frob
        return float(np.linalg.norm(self.sigma0 @ self.sigma0))


def lipschitz_constants(model: LatticeModelSpec) -> LipschitzConstants:
    """Coupling constants of a reference model.

    Only models constructed with closed-form constants carry them; custom
    drifts must supply a LipschitzConstants explicitly (the library never
    estimates the suprema numerically, since a sampled supremum would
    silently void the bound guarantees).
    """
    if model.lipschitz is None:
        raise UnsupportedModelError(
            f"model {model.label!r} carries no coupling constants; "
            "supply LipschitzConstants explicitly"
        )
    return model.lipschitz


class BlockCovariance:
    """qN x qN symmetric covariance with q x q block accessors.

    Block indices are 1-based; block (i, j) is rows (i-1)q..iq-1 and columns
    (j-1)q..jq-1 of the full matrix.
    """

    def __init__(self, data: np.ndarray, n_blocks: int, block_dim: int):
        data = np.asarray(data, dtype=float)
        d = n_blocks * block_dim
        if data.shape != (d, d):
            raise ContractViolationError(
                f"expected a {d}x{d} matrix for N={n_blocks}, q={block_dim}; "
                f"got {data.shape}"
            )
        scale = max(float(np.abs(data).max(initial=0.0)), np.finfo(float).tiny)
        asym = float(np.abs(data - data.T).max(initial=0.0))
        if asym > 1e-12 * scale:
            raise ContractViolationError(
                f"matrix is not symmetric: relative asymmetry {asym / scale:.3e}"
            )
        self.data = _readonly(0.5 * (data + data.T))
        self.n_blocks = int(n_blocks)
        self.block_dim = int(block_dim)

    def block(self, i: int, j: int) -> np.ndarray:
        """q x q sub-block for 1-based block indices (i, j)."""
        n, q = self.n_blocks, self.block_dim
        if not (1 <= i <= n and 1 <= j <= n):
            raise ContractViolationError(f"block indices must lie in 1..{n}, got ({i}, {j})")
        return self.data[(i - 1) * q : i * q, (j - 1) * q : j * q]

    def entry(self, i: int, j: int, m: int = 1, n: int = 1) -> float:
        """Scalar entry (m, n) of block (i, j); all indices 1-based."""
        return float(self.block(i, j)[m - 1, n - 1])

    def lag_profile(self, component: int = 1) -> np.ndarray:
        """cov(x_1[c], x_{1+k}[c]) for k = 0..floor(N/2)."""
        if not (1 <= component <= self.block_dim):
            raise ContractViolationError(
                f"component must lie in 1..{self.block_dim}, got {component}"
            )
        half = self.n_blocks // 2
        return np.array(
            [self.entry(1, 1 + k, component, component) for k in range(half + 1)]
        )

    def norm2(self) -> float:
        """Spectral (l2) norm."""
        return float(np.linalg.norm(self.data, ord=2))

    def __repr__(self):
        return f"BlockCovariance(n_blocks={self.n_blocks}, block_dim={self.block_dim})"
