"""Statistical estimators over ensembles: sample covariance, spatial pooling,
shifted-pair covariance, and the Gaussian integration-by-parts check.

Pooled estimators exploit statistical homogeneity (shift invariance of the
lattice law); their reported standard errors come from the spread across the
independent samples rather than a naive i.i.d. formula, because values at
different lattice positions within one sample are correlated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import BlockCovariance, ContractViolationError, _integer
from .integrator import EnsembleState

MONTE_CARLO = "monte-carlo"
SPATIAL_AVERAGE = "spatial-average"
# Gauss-Legendre nodes of the theta integral in stein_identity_residual
_STEIN_NODES = 64


@dataclass(frozen=True)
class EstimatorReport:
    estimate: float
    n_effective: int
    std_error: float
    method: str


def sample_covariance(
    ensemble: EnsembleState, rows: int | None = None
) -> BlockCovariance | np.ndarray:
    """Classic sample covariance over the K samples, (1/(K-1)) sum of outer products.

    Each entry sums its K products in sample order, one full row at a time,
    so its bits do not depend on the BLAS kernel or SIMD path that runs, and
    the result is exactly symmetric.  With ``rows``, a count in 1..Nq, only
    the first ``rows`` scalar rows are summed, with the same bits, and
    returned as a (rows, Nq) array instead of a BlockCovariance.
    """
    k = ensemble.n_samples
    if k < 2:
        raise ContractViolationError(f"sample covariance needs K >= 2, got K={k}")
    flat = ensemble.samples.reshape(k, -1)
    rows = rows if rows is None else _integer(rows, "rows", 1, flat.shape[1] + 1)
    centered = flat - flat.mean(axis=0)
    cols = centered.T[:rows, :, None]
    cov = np.array([(col * centered).sum(axis=0) for col in cols]) / (k - 1)
    if rows is not None:
        return cov
    return BlockCovariance(cov, ensemble.samples.shape[1], ensemble.samples.shape[2])


def spatial_average(ensemble: EnsembleState) -> EstimatorReport:
    """Mean of the first block component u over samples and lattice positions,
    (1/K) sum_j (1/N) sum_i u_i^j.

    Unbiased for E u_1(t); the effective sample count is K*N.  The standard
    error comes from the K independent per-sample spatial means.
    """
    values = ensemble.samples[:, :, 0]
    k, n = values.shape
    per_sample = values.mean(axis=1)
    std_error = float(per_sample.std(ddof=1) / np.sqrt(k)) if k >= 2 else float("nan")
    return EstimatorReport(
        estimate=float(per_sample.mean()),
        n_effective=k * n,
        std_error=std_error,
        method=SPATIAL_AVERAGE,
    )


def shifted_pair_covariance(ensemble: EnsembleState, lag: int) -> EstimatorReport:
    """Covariance of the first block component u at a given ring lag, pooled
    over samples and positions.

    With m the pooled mean over all samples and positions,

        c_hat = (1/(KN-1)) sum_{j,i} (u_i^j - m)(u_{i+lag}^j - m),

    the cyclic shift estimator of cov(u_1, u_{1+lag}).  Exactly symmetric
    under lag -> N - lag.  The standard error scales the spread of the K
    per-sample lag products.
    """
    k, n, _ = ensemble.samples.shape
    lag = _integer(lag, "lag", 0, n // 2 + 1)
    x = ensemble.samples[:, :, 0]
    centered = x - x.mean()
    products = centered * np.roll(centered, -lag, axis=1)
    per_sample = products.mean(axis=1)  # (K,)
    scale = k * n / (k * n - 1)
    estimate = float(scale * per_sample.mean())
    std_error = (
        float(scale * per_sample.std(ddof=1) / np.sqrt(k)) if k >= 2 else float("nan")
    )
    return EstimatorReport(
        estimate=estimate,
        n_effective=k * n,
        std_error=std_error,
        method=SPATIAL_AVERAGE,
    )


def monte_carlo_pair_covariance(ensemble: EnsembleState, lag: int) -> EstimatorReport:
    """Classic per-pair covariance of the first block component u between
    positions 1 and 1+lag across samples.

    No spatial pooling: this is the direct Monte Carlo reference the pooled
    estimators are compared against.  Standard error by the delta method on
    the centered products.
    """
    k, n, _ = ensemble.samples.shape
    if k < 2:
        raise ContractViolationError(f"need K >= 2 samples, got K={k}")
    lag = _integer(lag, "lag", 0, n)
    x = ensemble.samples[:, 0, 0]
    y = ensemble.samples[:, lag, 0]
    products = (x - x.mean()) * (y - y.mean())
    estimate = float(products.sum() / (k - 1))
    std_error = float(products.std(ddof=1) / np.sqrt(k) * (k / (k - 1)))
    return EstimatorReport(
        estimate=estimate, n_effective=k, std_error=std_error, method=MONTE_CARLO
    )


@dataclass(frozen=True)
class SteinCheck:
    """Both sides of the Gaussian covariance identity and their difference."""

    covariance_side: float
    gradient_side: float
    residual: float
    std_error: float


def stein_identity_residual(
    f_pair,
    g_pair,
    dim: int,
    n_mc: int = 100_000,
    *,
    seed: int,
) -> SteinCheck:
    """Monte Carlo check of cov(f(X), g(X)) = int_0^{pi/2} sin(t) E<grad f(X), grad g(X^t)> dt
    for independent standard Gaussians X, Y and X^t = cos(t) X + sin(t) Y.

    ``f_pair`` and ``g_pair`` are (value, gradient) callables on (..., dim)
    arrays.  Both sides are estimated from the same draws; the reported
    standard error is that of the per-draw difference, so correlation between
    the sides is accounted for.
    """
    dim = _integer(dim, "dim", 1, math.inf)
    n_mc = _integer(n_mc, "n_mc", 2, math.inf)
    seed = _integer(seed, "seed", 0, 2**128)  # a Philox key
    f, grad_f = f_pair
    g, grad_g = g_pair
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = rng.standard_normal((n_mc, dim))
    y = rng.standard_normal((n_mc, dim))

    fx = np.asarray(f(x), dtype=float)
    gx = np.asarray(g(x), dtype=float)
    cov_products = (fx - fx.mean()) * (gx - gx.mean()) * (n_mc / (n_mc - 1))

    nodes, weights = np.polynomial.legendre.leggauss(_STEIN_NODES)
    theta = 0.25 * np.pi * (nodes + 1.0)
    weights = 0.25 * np.pi * weights
    gfx = np.asarray(grad_f(x), dtype=float)
    grad_terms = np.zeros(n_mc)
    for th, wt in zip(theta, weights):
        x_theta = np.cos(th) * x + np.sin(th) * y
        inner = np.einsum("ij,ij->i", gfx, np.asarray(grad_g(x_theta), dtype=float))
        grad_terms += wt * np.sin(th) * inner

    lhs = float(cov_products.mean())
    rhs = float(grad_terms.mean())
    diff = cov_products - grad_terms
    return SteinCheck(
        covariance_side=lhs,
        gradient_side=rhs,
        residual=abs(lhs - rhs),
        std_error=float(diff.std(ddof=1) / np.sqrt(n_mc)),
    )
