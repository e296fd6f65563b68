"""Cyclic lattice geometry, model definitions, and per-model coupling constants.

Everything downstream (integration, exact solutions, bounds, localization)
works in terms of blocks: the state is N blocks of dimension q arranged on a
ring, and distances between blocks are measured along the ring.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DriftFn = Callable[[np.ndarray, np.ndarray], None]


class ContractViolationError(ValueError):
    """An argument, config file or input file broke a documented precondition; the CLI exits 2."""


def _integer(value, what: str, low: int, high: float) -> int:
    """A Python or numpy integer in [low, high) as an int; a bool, a float or
    anything else is refused: the one rule of seeds, indices and counts."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is not None and low <= number < high:
        return number
    raise ContractViolationError(f"{what} must be an integer in [{low}, {high}), got {value!r}")


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


def ring_matrix(row: np.ndarray) -> np.ndarray:
    """Read-only (n, n) matrix whose entry (i, j) is ``row[d]``, d the ring
    distance of blocks i and j, so only row[0..floor(n/2)] is read: the
    circulant of the folded row, as a view in O(n) memory (row i is a window
    of that row repeated twice).  Copy it before writing to it.
    """
    n = len(row)
    k = np.arange(n)
    folded = row[np.minimum(k, n - k)]
    return sliding_window_view(np.concatenate((folded, folded))[1:], n)[::-1]


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


def circulant_spectrum(c: LipschitzConstants, n: int) -> np.ndarray:
    """Read-only eigenvalues, in Fourier-mode order, of the symmetric circulant
    with first row [lambda_0, lambda_f, 0, ..., 0, lambda_f] + lambda_h / N:
    the FFT of that row.  This is the linear surrogate's generator, and with
    the linear model's own constants its drift matrix."""
    if n < 3:
        raise ContractViolationError(f"need n >= 3, got {n}")
    row = np.full(n, c.lambda_h / n)
    row[0] += c.lambda_0
    row[1] += c.lambda_f
    row[-1] += c.lambda_f
    spectrum = np.fft.fft(row).real
    spectrum.flags.writeable = False
    return spectrum


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

    ``sigma`` scales the per-block Brownian increments; every sample starts
    at the point mass ``m0`` in each block.
    """

    n_blocks: int
    block_dim: int
    drift: DriftFn
    sigma: np.ndarray
    m0: np.ndarray
    lipschitz: LipschitzConstants | None = None
    # Frobenius norm of sigma^2 in the convention the bounds expect.  None
    # means "compute from sigma directly"; only FHN, whose bound convention
    # rescales the inhibitor, overrides it.
    bound_sigma_sq_frob: float | None = None

    def __post_init__(self):
        _integer(self.n_blocks, "n_blocks", 3, math.inf)
        _integer(self.block_dim, "block_dim", 1, math.inf)
        q = self.block_dim
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (q, q):
            raise ContractViolationError(f"sigma must be {q}x{q}, got {sigma.shape}")
        if not np.isfinite(sigma).all():
            raise ContractViolationError(f"sigma must be finite, got {sigma.tolist()}")
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(sigma).max())):
            raise ContractViolationError("sigma must be symmetric")
        m0 = np.asarray(self.m0, dtype=float)
        if m0.shape != (q,):
            raise ContractViolationError(f"m0 must have shape ({q},), got {m0.shape}")
        if not np.isfinite(m0).all():
            raise ContractViolationError(f"m0 must be finite, got {m0.tolist()}")
        object.__setattr__(self, "sigma", _readonly(0.5 * (sigma + sigma.T)))
        object.__setattr__(self, "m0", _readonly(m0))

    def sigma_sq_frob(self) -> float:
        """||sigma^2||_F in the bound convention."""
        if self.bound_sigma_sq_frob is not None:
            return self.bound_sigma_sq_frob
        return float(np.linalg.norm(self.sigma @ self.sigma))


def lipschitz_constants(model: LatticeModelSpec) -> LipschitzConstants:
    """Coupling constants of a reference model.

    Only models constructed with closed-form constants carry them; custom
    drifts must supply a LipschitzConstants explicitly (the library never
    estimates the suprema numerically, since a sampled supremum would
    silently void the bound guarantees).
    """
    if model.lipschitz is None:
        raise ContractViolationError(
            "model carries no coupling constants; supply LipschitzConstants explicitly"
        )
    return model.lipschitz


def _block_circulant(data: np.ndarray, q: int) -> bool:
    """Whether block (i, j) of ``data`` depends only on (j - i) mod N, bit for
    bit: every block equals its upper-left neighbour, and the first block
    column continues the last.  The second block row against the first,
    rolled by one block, turns most other matrices away first."""
    bits = data.view(np.uint64)
    if len(bits) > q and not np.array_equal(bits[q : 2 * q], np.roll(bits[:q], q, axis=1)):
        return False
    return np.array_equal(bits[q:, q:], bits[:-q, :-q]) and np.array_equal(
        bits[q:, :q], bits[:-q, -q:]
    )


def _symmetrized(a: np.ndarray, mirror: np.ndarray) -> np.ndarray:
    """``a`` checked finite, then itself when it equals ``mirror`` bit for bit,
    else 0.5 * (a + mirror) when it is within a relative 1e-12 of it.
    ``mirror`` holds the transpose's entries where ``a`` holds its own: the
    matrix and its transpose, or a circulant's first row and the transpose's
    first row.  Bits, not values: 0.0 mirrored by -0.0 goes through the
    formula, which stores +0.0 in both places."""
    # nan and inf propagate into the extremes, with no |a| temporary
    high, low = float(a.max(initial=0.0)), float(a.min(initial=0.0))
    if not (math.isfinite(high) and math.isfinite(low)):
        raise ContractViolationError("matrix has a nan or infinite entry")
    if np.array_equal(a.view(np.uint64), mirror.view(np.uint64)):
        return a
    scale = max(high, -low, np.finfo(float).tiny)
    asym = float(np.abs(a - mirror).max(initial=0.0))
    if asym > 1e-12 * scale:
        raise ContractViolationError(
            f"matrix is not symmetric: relative asymmetry {asym / scale:.3e}"
        )
    return 0.5 * (a + mirror)


class BlockCovariance:
    """qN x qN symmetric covariance with q x q block accessors.

    Block indices are 1-based; block (i, j) is rows (i-1)q..iq-1 and columns
    (j-1)q..jq-1 of the full matrix.  ``circulant`` records whether block
    (i, j) depends only on (j - i) mod N, bit for bit, tested once on
    construction.

    Storage: a circulant with q = 1 is kept as its first row, in O(N) memory,
    and its finite check, symmetry check and symmetrizing run on that row.
    Every other matrix, a q > 1 block-circulant one included, is kept as a
    dense copy.  ``data`` is read-only either way; for a q = 1 circulant it
    is ``ring_matrix`` of the row, an O(N) view, to be copied before writing.
    """

    def __init__(self, data: np.ndarray, n_blocks: int, block_dim: int):
        self.n_blocks = _integer(n_blocks, "n_blocks", 1, math.inf)
        self.block_dim = _integer(block_dim, "block_dim", 1, math.inf)
        data = np.asarray(data, dtype=float)
        d = self.n_blocks * self.block_dim
        if data.shape != (d, d):
            raise ContractViolationError(
                f"expected a {d}x{d} matrix for N={n_blocks}, q={block_dim}; "
                f"got {data.shape}"
            )
        self.circulant = _block_circulant(data, self.block_dim)
        if self.circulant and self.block_dim == 1:
            self._store_first_row(data[0])
        else:
            self.data = _readonly(_symmetrized(data, data.T))

    @classmethod
    def from_ring_row(cls, row: np.ndarray) -> BlockCovariance:
        """The q = 1 covariance of ``ring_matrix`` of ``row``, bit for bit, built
        in O(N) memory: entry (i, j) is row[d], d the ring distance of blocks
        i and j."""
        cov = cls.__new__(cls)
        cov.n_blocks, cov.block_dim, cov.circulant = len(row), 1, True
        cov._store_first_row(ring_matrix(np.asarray(row, dtype=float))[0])
        return cov

    def _store_first_row(self, row: np.ndarray) -> None:
        """Check and keep the circulant whose first row is ``row``; the
        transpose's first row is row[(N - k) mod N]."""
        self.data = ring_matrix(_symmetrized(row, np.roll(row[::-1], 1)))

    def block(self, i: int, j: int) -> np.ndarray:
        """q x q sub-block for 1-based block indices (i, j)."""
        n, q = self.n_blocks, self.block_dim
        if not (1 <= i <= n and 1 <= j <= n):
            raise ContractViolationError(f"block indices must lie in 1..{n}, got ({i}, {j})")
        return self.data[(i - 1) * q : i * q, (j - 1) * q : j * q]

    def entry(self, i: int, j: int, m: int = 1, n: int = 1) -> float:
        """Scalar entry (m, n) of block (i, j); all indices 1-based."""
        q = self.block_dim
        if not (1 <= m <= q and 1 <= n <= q):
            raise ContractViolationError(f"component indices must lie in 1..{q}, got ({m}, {n})")
        return float(self.block(i, j)[m - 1, n - 1])

    def lag_profile(self) -> np.ndarray:
        """cov(u_1, u_{1+k}) for k = 0..floor(N/2), u the first block component."""
        return np.array([self.entry(1, 1 + k) for k in range(self.n_blocks // 2 + 1)])

    def norm2(self) -> float:
        """Spectral (l2) norm: the largest |eigenvalue| of the symmetric matrix.

        A block-circulant matrix, whose block (i, j) is B[(j - i) mod N], takes
        its spectrum from the block DFT of its first block row: the union over
        m of the eigenvalues of the Hermitian q x q matrices
        sum_k B[k] e^{-2 pi i m k / N} (Gray, Toeplitz and Circulant Matrices,
        2006), one FFT and N small eigenproblems.  This route, taken when
        ``circulant`` is set, agrees with the dense one within a relative
        1e-12.  Any other matrix goes through a dense eigvalsh.
        """
        data, q = self.data, self.block_dim
        if self.circulant:
            first_row = data[:q].reshape(q, self.n_blocks, q).swapaxes(0, 1)
            spectrum = np.linalg.eigvalsh(np.fft.fft(first_row, axis=0))
        else:
            spectrum = np.linalg.eigvalsh(data)
        return float(np.abs(spectrum).max())

    def __repr__(self):
        return f"BlockCovariance(n_blocks={self.n_blocks}, block_dim={self.block_dim})"
