"""Closed-form covariance decay bounds and the linear surrogate propagator.

Every bound splits into a local part decaying like exp(-beta * d(i,j)) and a
global part of size 1/N.  The growth rates

    lambda_beta = lambda_0 + lambda_f (e^beta + e^-beta),
    eta_beta    = lambda_beta + lambda_h

control the two parts.  Exponentials are guarded: arguments past ~690 would
overflow, so values saturate at 1e300 and the evaluation is flagged vacuous
(an honest "the bound says nothing here" beats a NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    ContractViolationError,
    LatticeModelSpec,
    LipschitzConstants,
    cyclic_distance,
    cyclic_distance_matrix,
    lipschitz_constants,
)

CAP = 1e300
_LOG_CAP = math.log(CAP)

UNSTABLE = "unstable"


class StabilityWindowError(ValueError):
    """beta lies outside the window where the long-time bound is finite."""


class MisuseError(ValueError):
    """A specialized bound was called outside its specialization."""


@dataclass(frozen=True)
class BoundInputs:
    """Everything a bound evaluation needs besides (i, j, beta)."""

    constants: LipschitzConstants
    sigma_sq_frob: float
    sigma0_sq_frob: float
    q: int
    grad_g_sup: float
    t: float
    n: int

    def __post_init__(self):
        if min(self.sigma_sq_frob, self.sigma0_sq_frob, self.grad_g_sup) < 0:
            raise ContractViolationError("norms must be nonnegative")
        if self.t < 0:
            raise ContractViolationError(f"t must be nonnegative, got {self.t}")
        if self.n < 3 or self.q < 1:
            raise ContractViolationError("need n >= 3 and q >= 1")


@dataclass(frozen=True)
class BoundEvaluation:
    beta: float
    lambda_beta: float
    eta_beta: float
    local_term: float
    global_term: float
    total: float
    vacuous: bool = False


def bound_inputs_from_model(
    model: LatticeModelSpec, t: float, grad_g_sup: float = 1.0
) -> BoundInputs:
    """Assemble BoundInputs from a reference model's attached constants."""
    return BoundInputs(
        constants=lipschitz_constants(model),
        sigma_sq_frob=model.sigma_sq_frob(),
        sigma0_sq_frob=model.sigma0_sq_frob(),
        q=model.block_dim,
        grad_g_sup=grad_g_sup,
        t=t,
        n=model.n_blocks,
    )


def growth_rates(beta: float, c: LipschitzConstants) -> tuple[float, float]:
    """(lambda_beta, eta_beta) for a given beta > 0."""
    if beta <= 0:
        raise ContractViolationError(f"beta must be positive, got {beta}")
    lam = c.lambda_0 + c.lambda_f * (math.exp(beta) + math.exp(-beta))
    return lam, lam + c.lambda_h


def _exp(x: float) -> tuple[float, bool]:
    """exp with saturation at CAP; second value flags saturation."""
    if x > _LOG_CAP:
        return CAP, True
    return math.exp(x), False


def _expm1_over(rate: float, t: float) -> tuple[float, bool]:
    """(e^{rate * t} - 1) / rate with the rate -> 0 limit t, saturated at CAP."""
    if rate == 0.0:
        return t, False
    x = rate * t
    if x > _LOG_CAP:
        return CAP, True
    return math.expm1(x) / rate, False


def local_coefficient(beta: float, inputs: BoundInputs) -> float:
    """Coefficient of exp(-beta * d(i, j)) in the local term.

    This is the constant the localization-error bound needs.
    """
    lam, _ = growth_rates(beta, inputs.constants)
    e_lam, _ = _exp(lam * inputs.t)
    k_lam, _ = _expm1_over(lam, inputs.t)
    pref = 2.0 * math.sqrt(inputs.q) * inputs.grad_g_sup**2
    return min(pref * (e_lam * inputs.sigma0_sq_frob + k_lam * inputs.sigma_sq_frob), CAP)


def covariance_bound(i: int, j: int, beta: float, inputs: BoundInputs) -> BoundEvaluation:
    """Full two-term covariance bound between blocks i and j at time t.

    local  = 2 sqrt(q) |grad g|^2 (e^{lam t} S0 + (e^{lam t} - 1) S / lam) e^{-beta d}
    global = 2 sqrt(q) (1+e^-beta) |grad g|^2 / ((1-e^-beta) N)
             * ((e^{eta t} - e^{lam t}) S0 + ((e^{eta t}-1)/eta - (e^{lam t}-1)/lam) S)

    with S = ||Sigma^2||_F and S0 = ||Sigma0^2||_F.
    """
    lam, eta = growth_rates(beta, inputs.constants)
    t = inputs.t
    dist = cyclic_distance(i, j, inputs.n)
    pref = 2.0 * math.sqrt(inputs.q) * inputs.grad_g_sup**2

    e_lam, f1 = _exp(lam * t)
    k_lam, f2 = _expm1_over(lam, t)
    local = (
        pref
        * (e_lam * inputs.sigma0_sq_frob + k_lam * inputs.sigma_sq_frob)
        * math.exp(-beta * dist)
    )

    e_eta, f3 = _exp(eta * t)
    k_eta, f4 = _expm1_over(eta, t)
    gfac = pref * (1.0 + math.exp(-beta)) / ((1.0 - math.exp(-beta)) * inputs.n)
    global_ = gfac * (
        (e_eta - e_lam) * inputs.sigma0_sq_frob + (k_eta - k_lam) * inputs.sigma_sq_frob
    )

    vacuous = f1 or f2 or f3 or f4
    local = min(local, CAP)
    global_ = min(global_, CAP)
    return BoundEvaluation(
        beta=beta,
        lambda_beta=lam,
        eta_beta=eta,
        local_term=local,
        global_term=global_,
        total=min(local + global_, CAP),
        vacuous=vacuous,
    )


def meanfield_only_bound(inputs: BoundInputs) -> float:
    """beta -> infinity closed form for systems with no neighbor coupling.

    (2 sqrt(q) |grad g|^2 / N) * ((e^{(l0+lh) t} - e^{l0 t}) S0
        + ((e^{(l0+lh) t} - 1)/(l0+lh) - (e^{l0 t} - 1)/l0) S)
    """
    c = inputs.constants
    if c.lambda_f != 0.0:
        raise MisuseError(
            f"mean-field-only bound requires lambda_f = 0, got {c.lambda_f}"
        )
    t = inputs.t
    lam0, eta0 = c.lambda_0, c.lambda_0 + c.lambda_h
    e_eta, _ = _exp(eta0 * t)
    e_lam, _ = _exp(lam0 * t)
    k_eta, _ = _expm1_over(eta0, t)
    k_lam, _ = _expm1_over(lam0, t)
    pref = 2.0 * math.sqrt(inputs.q) * inputs.grad_g_sup**2 / inputs.n
    return min(
        pref
        * ((e_eta - e_lam) * inputs.sigma0_sq_frob + (k_eta - k_lam) * inputs.sigma_sq_frob),
        CAP,
    )


def diffusion_only_bound(i: int, j: int, beta: float, inputs: BoundInputs) -> float:
    """Local-term-only bound for systems with no mean-field coupling."""
    if inputs.constants.lambda_h != 0.0:
        raise MisuseError(
            f"diffusion-only bound requires lambda_h = 0, got {inputs.constants.lambda_h}"
        )
    dist = cyclic_distance(i, j, inputs.n)
    return min(local_coefficient(beta, inputs) * math.exp(-beta * dist), CAP)


def optimize_beta(
    i: int,
    j: int,
    inputs: BoundInputs,
    beta_range: tuple[float, float] = (1e-3, 30.0),
    iterations: int = 60,
) -> tuple[float, BoundEvaluation]:
    """Minimize the covariance bound over beta by golden-section on log beta.

    The bound is smooth and unimodal in practice; endpoint comparison guards
    the result against non-unimodality, so the returned value never exceeds
    the bound at either end of the range.
    """
    lo, hi = beta_range
    if not (0 < lo < hi):
        raise ContractViolationError(f"need 0 < lo < hi, got {beta_range}")

    def objective(log_beta):
        return covariance_bound(i, j, math.exp(log_beta), inputs).total

    a, b = math.log(lo), math.log(hi)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(iterations):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    candidates = [lo, hi, math.exp(0.5 * (a + b))]
    evaluations = [covariance_bound(i, j, beta, inputs) for beta in candidates]
    best = min(range(len(candidates)), key=lambda idx: evaluations[idx].total)
    return candidates[best], evaluations[best]


def estimator_variance_bound(inputs: BoundInputs, beta: float) -> float:
    """Variance bound for the spatially pooled estimator (block average).

    (2 |grad g|^2 / ((1-e^-beta) N)) * (2 e^{2 lam t} S0 + (e^{2 lam t}-1) S / lam)
    + (2 |grad g|^2 / ((1-e^-beta) N)) * ((e^{eta t} - e^{lam t}) S0
          + ((e^{eta t}-1)/eta - (e^{lam t}-1)/lam) S)
    """
    lam, eta = growth_rates(beta, inputs.constants)
    t = inputs.t
    pref = 2.0 * inputs.grad_g_sup**2 / ((1.0 - math.exp(-beta)) * inputs.n)

    e_2lam, _ = _exp(2.0 * lam * t)
    k_2lam, _ = _expm1_over(lam, 2.0 * t)  # (e^{2 lam t} - 1) / lam
    term1 = pref * (2.0 * e_2lam * inputs.sigma0_sq_frob + k_2lam * inputs.sigma_sq_frob)

    e_eta, _ = _exp(eta * t)
    e_lam, _ = _exp(lam * t)
    k_eta, _ = _expm1_over(eta, t)
    k_lam, _ = _expm1_over(lam, t)
    term2 = pref * (
        (e_eta - e_lam) * inputs.sigma0_sq_frob + (k_eta - k_lam) * inputs.sigma_sq_frob
    )
    return min(term1 + term2, CAP)


def longtime_bound(i: int, j: int, inputs: BoundInputs, beta: float):
    """Long-time (t -> infinity) covariance bound, or "unstable".

    Requires lambda_0 + lambda_h + 2 lambda_f < 0 for stability; within the
    stability window (eta_beta < 0) returns

        sqrt(q) |grad g|^2 S * ((-2/lam) e^{-beta d}
            + (2 (1+e^-beta) / ((1-e^-beta) N)) (1/lam - 1/eta)),

    the exact t -> infinity limit of the two-term bound with S0 = 0.
    """
    c = inputs.constants
    if c.lambda_0 + c.lambda_h + 2.0 * c.lambda_f >= 0.0:
        return UNSTABLE
    lam, eta = growth_rates(beta, c)
    if not (lam <= eta < 0.0):
        raise StabilityWindowError(
            f"beta={beta} violates lambda_beta <= eta_beta < 0: "
            f"lambda_beta={lam:.6g}, eta_beta={eta:.6g}; shrink beta toward 0"
        )
    dist = cyclic_distance(i, j, inputs.n)
    pref = math.sqrt(inputs.q) * inputs.grad_g_sup**2 * inputs.sigma_sq_frob
    local = (-2.0 / lam) * math.exp(-beta * dist)
    global_ = (
        2.0
        * (1.0 + math.exp(-beta))
        / ((1.0 - math.exp(-beta)) * inputs.n)
        * (1.0 / lam - 1.0 / eta)
    )
    return pref * (local + global_)


def surrogate_kernel(c: LipschitzConstants, n: int, s: float) -> np.ndarray:
    """Q(s) = e^{G s} (e^{G s})^T for the homogeneous linear surrogate.

    G is the symmetric circulant with first row
    [lambda_0, lambda_f, 0, ..., 0, lambda_f] + lambda_h / N, so
    Q(s) = e^{2 G s} is the symmetric circulant whose first row is the
    inverse FFT of e^{2 s g_k}, where g_k is the FFT of G's first row.
    Q(0) is the identity.
    """
    if n < 3:
        raise ContractViolationError(f"need n >= 3, got {n}")
    if s < 0:
        raise ContractViolationError(f"s must be nonnegative, got {s}")
    row = np.full(n, c.lambda_h / n)
    row[0] += c.lambda_0
    row[1] += c.lambda_f
    row[-1] += c.lambda_f
    kernel_row = np.fft.ifft(np.exp(2.0 * s * np.fft.fft(row).real)).real
    return kernel_row[cyclic_distance_matrix(n)]


def kernel_entry_bound(
    i: int, j: int, c: LipschitzConstants, n: int, s: float, beta: float
) -> float:
    """Closed-form entrywise upper bound for the surrogate kernel:

    2 e^{lam_beta s} (e^{-beta d(i,j)} + (1+e^-beta)(e^{lam_h s} - 1) / ((1-e^-beta) N)).
    """
    lam, _ = growth_rates(beta, c)
    dist = cyclic_distance(i, j, n)
    e_lam, _ = _exp(lam * s)
    e_h = math.expm1(c.lambda_h * s) if c.lambda_h * s <= _LOG_CAP else CAP
    tail = (1.0 + math.exp(-beta)) * e_h / ((1.0 - math.exp(-beta)) * n)
    return min(2.0 * e_lam * (math.exp(-beta * dist) + tail), CAP)
