"""Reference models: the damped linear lattice and the stochastic FHN lattice.

Both constructors return LatticeModelSpec instances with closed-form coupling
constants attached.  Their drifts fill a whole (..., N, q) lattice in place:
ring neighbours are summed in one pass over the flattened lattice, and the
mean field is folded in as the coupling times the lattice average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import ContractViolationError, LatticeModelSpec, LipschitzConstants


class PresetNotFoundError(LookupError):
    """Unknown regime preset name."""


def _ring_neighbour_sum(x: np.ndarray, out: np.ndarray) -> None:
    """out[..., i] = x[..., i-1] + x[..., i+1] around the ring (last axis).

    One pass over the flattened arrays, then the two edge columns, which
    that pass pairs with the adjacent row, are recomputed.
    """
    flat = out.reshape(-1)
    if not np.may_share_memory(flat, out):
        raise ContractViolationError("drift output must be C-contiguous")
    np.add(x.reshape(-1)[:-2], x.reshape(-1)[2:], out=flat[1:-1])
    np.add(x[..., -1], x[..., 1], out=out[..., 0])
    np.add(x[..., -2], x[..., 0], out=out[..., -1])


def _check_finite(params) -> None:
    """Reject a nan or infinite field, which no sign check below would catch."""
    for name, value in vars(params).items():
        if not math.isfinite(value):
            raise ContractViolationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class LinearParams:
    """Damped diffusive lattice with mean-field coupling, scalar blocks."""

    a: float = 1.0
    d_u: float = 0.0
    w: float = 0.0
    sigma_u: float = 0.5

    def __post_init__(self):
        _check_finite(self)
        if self.a <= 0:
            raise ContractViolationError(f"damping a must be positive, got {self.a}")
        if self.d_u < 0 or self.w < 0:
            raise ContractViolationError("d_u and w must be nonnegative")
        if self.sigma_u <= 0:
            raise ContractViolationError(f"sigma_u must be positive, got {self.sigma_u}")


@dataclass(frozen=True)
class FhnParams:
    """Stochastically coupled FitzHugh-Nagumo lattice, (u, v) blocks.

    epsilon is the fast/slow timescale ratio, a > 1 puts the rest point on
    the stable branch, delta1/delta2 are the activator/inhibitor noise
    amplitudes.
    """

    epsilon: float = 0.01
    a: float = 1.05
    d_u: float = 0.0
    w: float = 0.0
    delta1: float = 0.4
    delta2: float = 0.4

    def __post_init__(self):
        _check_finite(self)
        if self.epsilon <= 0:
            raise ContractViolationError(f"epsilon must be positive, got {self.epsilon}")
        if self.d_u < 0 or self.w < 0:
            raise ContractViolationError("d_u and w must be nonnegative")
        if self.delta1 <= 0 or self.delta2 <= 0:
            raise ContractViolationError("noise amplitudes must be positive")

    def rest_point(self) -> tuple[float, float]:
        """Deterministic fixed point (u*, v*) = (-a, -a + a^3/3)."""
        return (-self.a, -self.a + self.a**3 / 3.0)


@dataclass(frozen=True)
class RegimePreset:
    name: str
    params: FhnParams
    description: str


def linear_model(params: LinearParams, n: int, m0: float = 0.0) -> LatticeModelSpec:
    """Linear lattice: du_i = (-a u_i + d_u (u_{i+1} - 2u_i + u_{i-1}) + w (ubar - u_i)) dt + sigma_u dW_i.

    The mean-field coupling is split as a local -w*u_i term plus the lattice
    average w*ubar, the (1/N) sum_j h(x_j) structure the bounds assume.
    Initial law: a point mass at u_i = m0 (zero spread).
    """
    a, d_u, w = params.a, params.d_u, params.w
    rate = a + w + 2.0 * d_u

    def drift(state, out):
        x, dx = state[..., 0], out[..., 0]
        # d_u (u_{i-1} + u_{i+1}) - rate u_i, with ``out`` as the only buffer
        _ring_neighbour_sum(x, dx)
        dx *= d_u / rate
        dx -= x
        dx *= rate
        if w:
            dx += w * x.mean(axis=-1, keepdims=True)

    return LatticeModelSpec(
        n_blocks=n,
        block_dim=1,
        drift=drift,
        sigma=np.array([[params.sigma_u]]),
        m0=np.array([m0]),
        lipschitz=LipschitzConstants(-a - 2.0 * d_u - w, d_u, w),
    )


def fhn_model(params: FhnParams, n: int) -> LatticeModelSpec:
    """Stochastic FHN lattice with diffusive and mean-field coupling.

    Simulated form (per block, after dividing the activator equation by
    epsilon):

        du_i = eps^-1 (u_i - u_i^3/3 - v_i + d_u (u_{i+1} - 2u_i + u_{i-1})
                       + w (ubar - u_i)) dt + (delta1/sqrt(eps)) dW_u,
        dv_i = (u_i + a) dt + delta2 dW_v.

    The attached coupling constants and the bound-side ||sigma^2||_F use the
    rescaled-inhibitor convention under which the cross terms of the
    self-Jacobian are antisymmetric; covariances of u are identical in both
    conventions.  Initial law: a point mass at the rest point (zero spread).
    """
    eps, a, d_u, w = params.epsilon, params.a, params.d_u, params.w
    inv_eps = 1.0 / eps

    def drift(state, out):
        # u (1 - 2 d_u - w - u^2/3) - v plus the neighbour and mean-field
        # terms, on a contiguous copy of u and per-call scratch (threads may
        # share one model); only the v read and the two writes are strided
        u = state[..., 0].copy()
        du = u * u
        du *= -1.0 / 3.0
        du += 1.0 - 2.0 * d_u - w
        du *= u
        du -= state[..., 1]
        if d_u:
            neighbours = np.empty_like(u)
            _ring_neighbour_sum(u, neighbours)
            neighbours *= d_u
            du += neighbours
        if w:
            du += w * u.mean(axis=-1, keepdims=True)
        np.multiply(du, inv_eps, out=out[..., 0])
        np.add(u, a, out=out[..., 1])

    return LatticeModelSpec(
        n_blocks=n,
        block_dim=2,
        drift=drift,
        sigma=np.diag([params.delta1 / math.sqrt(eps), params.delta2]),
        m0=np.array(params.rest_point()),
        lipschitz=LipschitzConstants(
            inv_eps * max(1.0 - 2.0 * d_u - w, 0.0), inv_eps * d_u, inv_eps * w
        ),
        bound_sigma_sq_frob=math.sqrt(params.delta1**4 + params.delta2**4) / eps,
    )


_PRESET_TABLE = [
    # diffusion-only ladder
    ("diffusion-strongly-mixed", 0.02, 0.0, "strongly mixed, d_u=0.02, w=0"),
    ("diffusion-weakly-coherent", 0.5, 0.0, "weakly coherent, d_u=0.5, w=0"),
    ("diffusion-strongly-coherent", 10.0, 0.0, "strongly coherent, d_u=10, w=0"),
    # mean-field-only ladder
    ("meanfield-weak", 0.0, 0.1, "weak mean field, w=0.1, d_u=0"),
    ("meanfield-moderate", 0.0, 0.3, "moderate mean field, w=0.3, d_u=0"),
    ("meanfield-strong", 0.0, 0.5, "strong mean field, w=0.5, d_u=0"),
    # combined-comparison regimes (a)-(f)
    ("regime-a", 10.0, 0.0, "strong diffusion, no mean field"),
    ("regime-b", 0.0, 0.5, "strong mean field, no diffusion"),
    ("regime-c", 0.5, 0.3, "moderate diffusion, moderate mean field"),
    ("regime-d", 0.5, 0.1, "moderate diffusion, weak mean field"),
    ("regime-e", 0.0, 0.3, "moderate mean field, no diffusion"),
    ("regime-f", 0.5, 0.0, "moderate diffusion, no mean field"),
]

REGIMES: dict[str, RegimePreset] = {
    name: RegimePreset(name, FhnParams(d_u=d_u, w=w), desc)
    for name, d_u, w, desc in _PRESET_TABLE
}


def regime(name: str) -> RegimePreset:
    """Look up a named FHN regime preset with the exact published parameters."""
    try:
        return REGIMES[name]
    except KeyError:
        valid = ", ".join(sorted(REGIMES))
        raise PresetNotFoundError(f"unknown regime {name!r}; valid names: {valid}") from None


def stiffest_rate(params: LinearParams | FhnParams) -> float:
    """The decay rate of the stiffest circulant mode, the one rate every
    default Euler step is set by.  Linear: a + 4 d_u + w.  FHN:
    (1 + u^2 + 4 d_u + w)/eps at the spike amplitude |u| ~ 2.6."""
    if isinstance(params, FhnParams):
        return (1.0 + 2.6**2 + 4.0 * params.d_u + params.w) / params.epsilon
    return params.a + 4.0 * params.d_u + params.w


def build_model(params: LinearParams | FhnParams, n: int) -> LatticeModelSpec:
    """Dispatch a parameter set to its model constructor."""
    if isinstance(params, FhnParams):
        return fhn_model(params, n)
    return linear_model(params, n)
