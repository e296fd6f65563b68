"""Banded truncation of block covariances and principled bandwidth selection.

Truncation is hard (an indicator on the ring distance) and acts at whole
q x q block granularity: within-block structure at one site is never split.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .bounds import _one_minus_exp
from .lattice import BlockCovariance, ContractViolationError, _integer, ring_matrix


@dataclass(frozen=True)
class LocalizationPlan:
    """A bandwidth and sample-size choice for a target accuracy.

    ``c_constant`` is the universal constant of the sample-size tail bound;
    it is not specified by the theory, so it is a user-settable knob rather
    than invented precision.  ``bound_insufficient`` is set when the error
    bound cannot reach the target within the maximal bandwidth floor(N/2).
    """

    bandwidth: int
    epsilon: float
    recommended_k: int
    c_constant: float = 1.0
    bound_insufficient: bool = False


def localize(c: BlockCovariance, l: int) -> BlockCovariance:
    """Zero every block with ring distance > l; idempotent, symmetry preserving.

    Bandwidths at or above floor(N/2) leave the matrix unchanged (no pair of
    blocks is that far apart).  A bandwidth is a nonnegative integer.
    """
    l = _integer(l, "bandwidth", 0, math.inf)
    keep = np.arange(c.n_blocks) <= l  # by ring distance
    if c.circulant and c.block_dim == 1:  # masks the stored first row alone
        return BlockCovariance.from_ring_row(np.where(keep, c.data[0], 0.0))
    mask = ring_matrix(keep)
    q = c.block_dim
    if q > 1:
        mask = mask.repeat(q, axis=0).repeat(q, axis=1)
    return BlockCovariance(np.where(mask, c.data, 0.0), c.n_blocks, c.block_dim)


def localization_error_bound(l: int, beta: float, local_coefficient: float) -> float:
    """l2-error bound for truncation at bandwidth l: 2 c e^{-beta l} / (1 - e^{-beta}).

    Valid when the covariance obeys the local decay |C_ij| <= c e^{-beta d(i,j)}.
    """
    if not 0 < beta < math.inf:
        raise ContractViolationError(f"beta must be positive and finite, got {beta}")
    _integer(l, "bandwidth", 0, math.inf)
    if not 0 <= local_coefficient < math.inf:
        raise ContractViolationError(
            f"local_coefficient must be finite and nonnegative, got {local_coefficient}"
        )
    return 2.0 * local_coefficient * math.exp(-beta * l) / _one_minus_exp(beta)


def choose_bandwidth(epsilon: float, beta: float, local_coefficient: float, n_blocks: int) -> int:
    """Smallest bandwidth in 0..floor(N/2) whose truncation-error bound is at
    most epsilon, else the cap floor(N/2), beyond which truncation does nothing.
    The bound decreases in the bandwidth, so one bisection over 0..N/2 finds it.
    """
    if not epsilon > 0:
        raise ContractViolationError(f"epsilon must be positive, got {epsilon}")

    def fits(l):
        return localization_error_bound(l, beta, local_coefficient) <= epsilon

    if fits(0):  # also checks beta and the coefficient on any ring
        return 0
    return bisect.bisect_left(range(n_blocks // 2), True, key=fits)


def recommended_sample_size(
    epsilon: float,
    l: int,
    n: int,
    cov_norm: float,
    delta: float,
    c_constant: float = 1.0,
) -> int:
    """Smallest K making the banded-estimation failure probability <= delta.

    Inverts 8 exp(2 log N - c K min{eps / (2 L |C|), eps^2 / (4 L^2 |C|^2)})
    for K; bandwidth 0 is treated as 1 in the denominator.  Never below 2.
    """
    if min(epsilon, n, cov_norm, delta, c_constant) <= 0 or delta >= 1:
        raise ContractViolationError("all inputs must be positive with delta < 1")
    l_eff = max(_integer(l, "bandwidth", 0, math.inf), 1)
    try:  # a rate that underflows to 0, an overflowing |C|^2 or an infinite K
        rate = c_constant * min(
            epsilon / (2.0 * l_eff * cov_norm),
            epsilon**2 / (4.0 * l_eff**2 * cov_norm**2),
        )
        k = math.ceil((2.0 * math.log(n) + math.log(8.0 / delta)) / rate)
    except (ZeroDivisionError, OverflowError):
        raise ContractViolationError("the required K exceeds the float range") from None
    return max(k, 2)


def plan_localization(
    epsilon: float,
    beta: float,
    local_coefficient: float,
    n_blocks: int,
    cov_norm: float,
    delta: float = 0.05,
    c_constant: float = 1.0,
) -> LocalizationPlan:
    """Bandwidth plus sample-size plan for a target accuracy epsilon."""
    bandwidth = choose_bandwidth(epsilon, beta, local_coefficient, n_blocks)
    # the bound decreases in l, so it misses epsilon only at the floor(N/2) cap
    error_bound = localization_error_bound(bandwidth, beta, local_coefficient)
    return LocalizationPlan(
        bandwidth=bandwidth,
        epsilon=epsilon,
        recommended_k=recommended_sample_size(
            epsilon, bandwidth, n_blocks, cov_norm, delta, c_constant
        ),
        c_constant=c_constant,
        bound_insufficient=error_bound > epsilon,
    )
