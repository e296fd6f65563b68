"""Independent numerical oracles the main code paths are checked against.

These deliberately avoid the library's eigendecomposition routes: the matrix
exponential is a scaled-and-squared Taylor series, and the noise covariance
integral is brute-force trapezoid quadrature.
"""

import numpy as np
import scipy.linalg


def taylor_expm(a: np.ndarray, order: int = 30) -> np.ndarray:
    """Scaled-and-squared truncated Taylor series for e^A."""
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-16))))) if norm > 0.5 else 0
    b = a / (2**squarings)
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, order + 1):
        term = term @ b / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def quadrature_covariance(
    a_matrix: np.ndarray, sigma_u: float, t: float, nodes: int = 10_000
) -> np.ndarray:
    """Trapezoid quadrature of int_0^t e^{A(t-s)} S S^T e^{A^T (t-s)} ds.

    The per-node propagators come from scipy's expm applied incrementally.
    """
    n = a_matrix.shape[0]
    if t == 0.0:
        return np.zeros((n, n))
    ds = t / nodes
    step = scipy.linalg.expm(a_matrix * ds)
    prop = np.eye(n)  # e^{A * 0}
    total = np.zeros((n, n))
    for k in range(nodes + 1):
        integrand = sigma_u**2 * (prop @ prop.T)
        weight = 0.5 if k in (0, nodes) else 1.0
        total += weight * integrand
        prop = step @ prop
    return total * ds


def _ring_neighbours(state: np.ndarray):
    """(x_{i-1}, x_{i+1}) for a (..., N, q) state, as rolled copies."""
    return np.roll(state, 1, axis=-2), np.roll(state, -1, axis=-2)


def linear_reference_drift(params, state: np.ndarray) -> np.ndarray:
    """Linear lattice drift in neighbour form: the local term on rolled
    neighbours plus the lattice average of the mean-field term w*u."""
    a, d_u, w = params.a, params.d_u, params.w
    x_prev, x_next = _ring_neighbours(state)
    local = -(a + w) * state + d_u * (x_prev + x_next - 2.0 * state)
    return local + (w * state).mean(axis=-2, keepdims=True)


def fhn_reference_drift(params, state: np.ndarray) -> np.ndarray:
    """FHN lattice drift in neighbour form: the local term on rolled
    neighbours plus the lattice average of the mean-field term (w/eps, 0)*x."""
    inv_eps, a, d_u, w = 1.0 / params.epsilon, params.a, params.d_u, params.w
    x_prev, x_next = _ring_neighbours(state)
    u, v = state[..., 0], state[..., 1]
    local = np.empty_like(state)
    local[..., 0] = inv_eps * (
        u - u * u * u / 3.0 - v + d_u * (x_prev[..., 0] + x_next[..., 0] - 2.0 * u) - w * u
    )
    local[..., 1] = u + a
    mean_field = np.zeros_like(state)
    mean_field[..., 0] = inv_eps * w * u
    return local + mean_field.mean(axis=-2, keepdims=True)
