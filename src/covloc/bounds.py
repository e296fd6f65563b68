"""Closed-form covariance decay bounds and the linear surrogate propagator.

Every bound splits into a local part decaying like exp(-beta * d(i,j)) and a
global part of size 1/N.  The growth rates

    lambda_beta = lambda_0 + lambda_f (e^beta + e^-beta),
    eta_beta    = lambda_beta + lambda_h

control the two parts.  Both parts are built from one growth kernel

    G(r) = e^{r t} S0 + (e^{r t} - 1) S / r,

evaluated at the doubled rates r^ = max(r, 2r): the local part from
G(lambda_beta^), the global part from G(eta_beta^) - G(lambda_beta^), which
is exactly 0 without mean field.  The covariance grows with the propagator
squared, sigma^2 int e^{2As} ds, and the Chernoff bound on the lattice heat
kernel, I_d(x) <= e^{x cosh beta - beta d}, puts the local rate of e^{2As}
at 2 lambda_beta.  A rate r <= 0 is kept as r, which already dominates since
G is increasing in r; a positive rate is doubled.

Two more bounds are evaluations of ``covariance_bound``.  The surrogate
kernel Q(s) = e^{2Gs} is the covariance at time s of the noise-free
surrogate started at the identity, so its entry bound is the two-term bound
with S = 0, S0 = 1 and t = s.  The long-time bound is the two-term bound at
t = infinity, where G(r) = -S / r for r < 0.

Saturation rule: G is +inf once r t passes log(CAP), and every bound is
clamped to CAP at the end, so a saturated evaluation reads exactly CAP = 1e300
and is flagged vacuous.  Infinities never cancel to a small value or vanish
under a decay factor that underflows to 0: both the inf - inf and the
inf * 0 they would give clamp to CAP as well.  The long-time bound of an
unstable system is infinite, so it reads CAP too.  An honest "the bound says
nothing here" beats a NaN or a false zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import (
    ContractViolationError,
    LatticeModelSpec,
    LipschitzConstants,
    circulant_spectrum,
    cyclic_distance,
    lipschitz_constants,
    ring_matrix,
)
from .lattice import _FINITE, _POSITIVE, _integer, _real

CAP = 1e300
_LOG_CAP = math.log(CAP)
# golden-section steps in optimize_beta
_GOLDEN_ITERATIONS = 60

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
        for name in ("sigma_sq_frob", "sigma0_sq_frob", "grad_g_sup"):
            _real(getattr(self, name), name, 0.0, _FINITE)
        _real(self.t, "t", 0.0, math.inf)  # t = inf is the long-time bound
        _integer(self.q, "q", 1, math.inf)
        _integer(self.n, "n", 3, math.inf)


@dataclass(frozen=True)
class BoundEvaluation:
    beta: float
    lambda_beta: float
    eta_beta: float
    local_term: float
    global_term: float
    total: float

    @property
    def vacuous(self) -> bool:
        """A term reads CAP: the bound says nothing here."""
        return max(self.local_term, self.global_term) >= CAP


def bound_inputs_from_model(
    model: LatticeModelSpec, t: float, grad_g_sup: float = 1.0
) -> BoundInputs:
    """Assemble BoundInputs from a reference model's attached constants.

    Every model starts at the point mass m0, so the S0 term is zero."""
    return BoundInputs(
        constants=lipschitz_constants(model),
        sigma_sq_frob=model.sigma_sq_frob(),
        sigma0_sq_frob=0.0,
        q=model.block_dim,
        grad_g_sup=grad_g_sup,
        t=t,
        n=model.n_blocks,
    )


def growth_rates(beta: float, c: LipschitzConstants) -> tuple[float, float]:
    """(lambda_beta, eta_beta) for a given beta > 0."""
    beta = _real(beta, "beta", _POSITIVE, _FINITE)
    try:
        lam = c.lambda_0 + c.lambda_f * (math.exp(beta) + math.exp(-beta))
    except OverflowError:  # e^beta passes the float range; every bound then reads CAP
        lam = c.lambda_0 if c.lambda_f == 0.0 else math.inf
    return lam, lam + c.lambda_h


def _growth(rate: float, t: float, inputs: BoundInputs) -> float:
    """G(rate) = e^{rate t} S0 + (e^{rate t} - 1) S / rate, with the rate -> 0
    limit t S; +inf once rate * t passes log(CAP)."""
    x = rate * t
    if x > _LOG_CAP:
        return math.inf
    k = t if rate == 0.0 else math.expm1(x) / rate
    return math.exp(x) * inputs.sigma0_sq_frob + k * inputs.sigma_sq_frob


def _doubled(rate: float) -> float:
    """max(rate, 2 rate): a growth rate of the propagator, as a rate of its square."""
    return max(rate, 2.0 * rate)


def _mean_field_growth(lam: float, eta: float, inputs: BoundInputs) -> float:
    """G(eta) - G(lam), the growth of the global term.

    Exactly 0 without mean field; once G(eta) saturates the difference is
    +inf, or NaN when G(lam) saturates too, and either clamps to CAP.
    """
    if inputs.constants.lambda_h == 0.0:
        return 0.0
    return _growth(eta, inputs.t, inputs) - _growth(lam, inputs.t, inputs)


def _cap(x: float) -> float:
    """Clamp to CAP; inf and NaN (from inf - inf or inf * 0) read CAP too."""
    return x if x < CAP else CAP


def _one_minus_exp(beta: float) -> float:
    """1 - e^-beta; for beta below about 1.1e-16, where the difference rounds
    to 0, its exact value -expm1(-beta)."""
    return 1.0 - math.exp(-beta) or -math.expm1(-beta)


def _prefactor(inputs: BoundInputs) -> float:
    """2 sqrt(q) |grad g|^2, the common factor of both terms."""
    return 2.0 * math.sqrt(inputs.q) * inputs.grad_g_sup**2


def local_coefficient(beta: float, inputs: BoundInputs) -> float:
    """Coefficient of exp(-beta * d(i, j)) in the local term: that term at d = 0.

    This is the constant the localization-error bound needs.
    """
    return covariance_bound(1, 1, beta, inputs).local_term


def covariance_bound(i: int, j: int, beta: float, inputs: BoundInputs) -> BoundEvaluation:
    """Full two-term covariance bound between blocks i and j at time t.

    local  = 2 sqrt(q) |grad g|^2 G(lam^) e^{-beta d}
    global = 2 sqrt(q) |grad g|^2 (1+e^-beta) / ((1-e^-beta) N) * (G(eta^) - G(lam^))

    with G(r) = e^{r t} S0 + (e^{r t} - 1) S / r, S = ||Sigma^2||_F,
    S0 = ||Sigma0^2||_F and the doubled rates r^ = max(r, 2r).
    """
    lam, eta = growth_rates(beta, inputs.constants)
    lam2, eta2 = _doubled(lam), _doubled(eta)
    pref = _prefactor(inputs)
    dist = cyclic_distance(i, j, inputs.n)
    local = _cap(pref * _growth(lam2, inputs.t, inputs) * math.exp(-beta * dist))
    weight = (1.0 + math.exp(-beta)) / (_one_minus_exp(beta) * inputs.n)
    global_ = _cap(pref * weight * _mean_field_growth(lam2, eta2, inputs))
    return BoundEvaluation(
        beta=beta,
        lambda_beta=lam,
        eta_beta=eta,
        local_term=local,
        global_term=global_,
        total=_cap(local + global_),
    )


def meanfield_only_bound(inputs: BoundInputs) -> float:
    """beta -> infinity closed form for systems with no neighbor coupling.

    (2 sqrt(q) |grad g|^2 / N) * (G((l0 + lh)^) - G(l0^)), r^ = max(r, 2r)
    """
    c = inputs.constants
    if c.lambda_f != 0.0:
        raise ContractViolationError(
            f"mean-field-only bound requires lambda_f = 0, got {c.lambda_f}"
        )
    growth = _mean_field_growth(_doubled(c.lambda_0), _doubled(c.lambda_0 + c.lambda_h), inputs)
    return _cap(_prefactor(inputs) / inputs.n * growth)


def diffusion_only_bound(i: int, j: int, beta: float, inputs: BoundInputs) -> float:
    """Local-term-only bound for systems with no mean-field coupling."""
    if inputs.constants.lambda_h != 0.0:
        raise ContractViolationError(
            f"diffusion-only bound requires lambda_h = 0, got {inputs.constants.lambda_h}"
        )
    return covariance_bound(i, j, beta, inputs).local_term


def optimize_beta(
    i: int,
    j: int,
    inputs: BoundInputs,
    beta_range: tuple[float, float] = (1e-3, 30.0),
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
    for _ in range(_GOLDEN_ITERATIONS):
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

    (2 |grad g|^2 / ((1-e^-beta) N)) * (2 G(2 lam) + G(eta) - G(lam)),

    where 2 G(2 lam) = 2 e^{2 lam t} S0 + (e^{2 lam t} - 1) S / lam.
    """
    lam, eta = growth_rates(beta, inputs.constants)
    pref = 2.0 * inputs.grad_g_sup**2 / (_one_minus_exp(beta) * inputs.n)
    growth = 2.0 * _growth(2.0 * lam, inputs.t, inputs) + _mean_field_growth(lam, eta, inputs)
    return _cap(pref * growth)


def longtime_bound(i: int, j: int, inputs: BoundInputs, beta: float) -> float:
    """Long-time covariance bound: ``covariance_bound`` at t = infinity,
    where G(r) = -S / r for r < 0.

    An unstable system (lambda_0 + lambda_h + 2 lambda_f >= 0) has no finite
    bound and reads CAP.  Within the stability window (eta_beta < 0) this is
    sqrt(q) |grad g|^2 S ((-2/lam) e^{-beta d} + 2 (1+e^-beta)(1/lam - 1/eta) / ((1-e^-beta) N)).
    """
    c = inputs.constants
    if c.lambda_0 + c.lambda_h + 2.0 * c.lambda_f >= 0.0:
        return CAP
    lam, eta = growth_rates(beta, c)
    if not (lam <= eta < 0.0):
        raise ContractViolationError(
            f"beta={beta} violates lambda_beta <= eta_beta < 0: "
            f"lambda_beta={lam:.6g}, eta_beta={eta:.6g}; shrink beta toward 0"
        )
    return covariance_bound(i, j, beta, replace(inputs, t=math.inf)).total


def surrogate_kernel(c: LipschitzConstants, n: int, s: float) -> np.ndarray:
    """Q(s) = e^{G s} (e^{G s})^T for the homogeneous linear surrogate.

    G is the symmetric circulant with first row
    [lambda_0, lambda_f, 0, ..., 0, lambda_f] + lambda_h / N, so
    Q(s) = e^{2 G s} is the symmetric circulant whose first row is the
    inverse FFT of e^{2 s g_k}, where g_k is G's spectrum
    (``circulant_spectrum``).  Q(0) is the identity.  Once 2 s max_k g_k
    passes the log of the largest float, e^{2 s g_k} overflows and the
    kernel is refused.  The result is ``ring_matrix`` of that row, a
    read-only O(N) view, to be copied before writing.
    """
    s = _real(s, "s", 0.0, math.inf)
    spectrum = circulant_spectrum(c, n)
    if not 2.0 * s * float(spectrum.max()) <= math.log(_FINITE):
        raise ContractViolationError(
            f"e^(2 s g) exceeds the float range at s={s}, largest mode g={spectrum.max():.6g}"
        )
    with np.errstate(over="ignore"):  # a huge finite s decays to its s = inf value
        return ring_matrix(np.fft.ifft(np.exp(2.0 * s * spectrum)).real)


def kernel_entry_bound(
    i: int, j: int, c: LipschitzConstants, n: int, s: float, beta: float
) -> float:
    """Entrywise bound on the surrogate kernel Q(s): ``covariance_bound`` of
    the noise-free surrogate started at the identity (S = 0, S0 = 1, q = 1,
    |grad g| = 1, t = s), which is, with that function's doubled rates,

    2 e^{lam^ s} (e^{-beta d(i,j)} + (1+e^-beta)(e^{(eta^ - lam^) s} - 1) / ((1-e^-beta) N)).
    """
    return covariance_bound(i, j, beta, BoundInputs(c, 0.0, 1.0, 1, 1.0, s, n)).total
