"""Independent numerical oracles the main code paths are checked against.

These deliberately avoid the library's FFT routes: the linear drift matrix
is built entry by entry and diagonalised densely with eigh, the matrix
exponential is a scaled-and-squared Taylor series, the noise covariance
integral is brute-force trapezoid quadrature, and the Euler-Maruyama
covariance is summed per eigenmode of the dense matrix.  The CSV writers go
through csv.writer one numpy scalar at a time, with no line building.  The
spatial-average comparison runs each replicate as an ensemble call of its
own.  Ring matrices are gathered through the full ring-distance index
matrix, banded truncation goes through a kron-expanded block mask, and
covariances are symmetrized unconditionally.  Spectral norms come from a
dense eigvalsh of the whole matrix.  The FHN drift is also kept in its
strided in-place form, the bitwise reference for the model's drift.
"""

import csv

import numpy as np
import scipy.linalg

from covloc.estimators import monte_carlo_pair_covariance, shifted_pair_covariance
from covloc.figures import _derived_seed, _fhn_run
from covloc.integrator import simulate_ensemble
from covloc.models import build_model, regime


def dense_drift_matrix(params, n: int) -> np.ndarray:
    """A = -a I + d_u * (circulant second difference) + (w/N) * ones - w I."""
    lap = -2.0 * np.eye(n)
    idx = np.arange(n)
    lap[idx, (idx + 1) % n] = 1.0
    lap[idx, (idx - 1) % n] = 1.0
    return (
        -params.a * np.eye(n)
        + params.d_u * lap
        + (params.w / n) * np.ones((n, n))
        - params.w * np.eye(n)
    )


def dense_mean(params, u0: np.ndarray, t: float) -> np.ndarray:
    """e^{At} u0 through the dense eigendecomposition of A."""
    lam, v = np.linalg.eigh(dense_drift_matrix(params, len(u0)))
    return (v * np.exp(lam * t)) @ (v.T @ u0)


def dense_covariance(params, n: int, t: float, cov0: np.ndarray | None = None) -> np.ndarray:
    """e^{At} cov0 e^{At} + sigma_u^2 V diag((e^{2 lambda t} - 1)/(2 lambda)) V^T
    through the dense eigendecomposition A = V diag(lambda) V^T (every
    lambda is negative for valid LinearParams)."""
    lam, v = np.linalg.eigh(dense_drift_matrix(params, n))
    total = params.sigma_u**2 * ((v * (np.expm1(2.0 * lam * t) / (2.0 * lam))) @ v.T)
    if cov0 is not None:
        propagator = (v * np.exp(lam * t)) @ v.T
        total = total + propagator @ cov0 @ propagator.T
    return total


def dense_euler_covariance(params, n: int, h: float, n_steps: int) -> np.ndarray:
    """Exact covariance after ``n_steps`` explicit Euler-Maruyama steps of h
    from a point mass, at any h: per eigenmode lambda of A, c_{j+1} = g c_j +
    h sigma_u^2 with g = (1 + h lambda)^2, so c_n = h sigma_u^2 (1 - g^n)/(1 - g)
    (g != 1 unless h lambda = -2, Euler's stability limit)."""
    lam, v = np.linalg.eigh(dense_drift_matrix(params, n))
    g = (1.0 + h * lam) ** 2
    return h * params.sigma_u**2 * ((v * ((1.0 - g**n_steps) / (1.0 - g))) @ v.T)


def cyclic_distance_matrix(n: int) -> np.ndarray:
    """(n, n) integer matrix of ring distances between block indices."""
    idx = np.arange(n)
    diff = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(diff, n - diff)


def dense_norm2(data: np.ndarray) -> float:
    """Largest |eigenvalue| of a symmetric matrix, from every eigenvalue."""
    return float(np.abs(np.linalg.eigvalsh(data)).max())


def gathered_ring_matrix(row: np.ndarray) -> np.ndarray:
    """Entry (i, j) is row[d(i, j)], indexed through the (n, n) distance matrix."""
    return row[cyclic_distance_matrix(len(row))]


def kron_localize(data: np.ndarray, n_blocks: int, block_dim: int, l: int) -> np.ndarray:
    """Zero the q x q blocks of ``data`` more than l apart on the ring."""
    mask = cyclic_distance_matrix(n_blocks) <= l
    full_mask = np.kron(mask, np.ones((block_dim, block_dim), dtype=bool))
    return np.where(full_mask, data, 0.0)


def symmetrized(data: np.ndarray) -> np.ndarray:
    """0.5 * (A + A^T), applied whether or not A is already symmetric."""
    return 0.5 * (data + data.T)


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


def _strided_ring_neighbour_sum(x: np.ndarray, out: np.ndarray) -> None:
    flat = out.reshape(-1)
    assert np.may_share_memory(flat, out)
    np.add(x.reshape(-1)[:-2], x.reshape(-1)[2:], out=flat[1:-1])
    np.add(x[..., -1], x[..., 1], out=out[..., 0])
    np.add(x[..., -2], x[..., 0], out=out[..., -1])


def strided_fhn_drift(params, state: np.ndarray, out: np.ndarray) -> None:
    """The FHN drift as first written in place: every pass on the strided
    u, v, du and dv views of the (..., N, 2) arrays, with dv as the
    neighbour-sum scratch.  The model's drift must give the same bits."""
    inv_eps, a, d_u, w = 1.0 / params.epsilon, params.a, params.d_u, params.w
    u, v = state[..., 0], state[..., 1]
    du, dv = out[..., 0], out[..., 1]
    np.multiply(u, u, out=du)
    du *= -1.0 / 3.0
    du += 1.0 - 2.0 * d_u - w
    du *= u
    du -= v
    if d_u:
        _strided_ring_neighbour_sum(u, dv)
        dv *= d_u
        du += dv
    if w:
        du += w * u.mean(axis=-1, keepdims=True)
    du *= inv_eps
    np.add(u, a, out=dv)


def reference_csv(path, header, rows) -> None:
    """csv.writer route: floats as repr(float(x)), every other cell as given."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row]
            )


def reference_covariance_csv(path, data: np.ndarray) -> None:
    """row, col, value for a d x d matrix, one indexed entry at a time."""
    d = data.shape[0]
    rows = ((r + 1, c + 1, data[r, c]) for r in range(d) for c in range(d))
    reference_csv(path, ["row", "col", "value"], rows)


def reference_ensemble_csv(path, samples: np.ndarray) -> None:
    """sample, block, component, value for (K, N, q) samples, one indexed entry at a time."""
    k, n, q = samples.shape
    rows = (
        (j + 1, i + 1, c + 1, samples[j, i, c])
        for j in range(k)
        for i in range(n)
        for c in range(q)
    )
    reference_csv(path, ["sample", "block", "component", "value"], rows)


def replicate_loop_rows(preset, n, times, k_mc, sa_replicates, h, seed, threads=1):
    """Rows of ``figures.spatial_vs_mc_rows`` with every lag, one ensemble
    call for the Monte Carlo samples and one K=1 call per replicate."""
    params = regime(preset).params
    model = build_model(params, n)
    lags = range(n // 2 + 1)
    mc_run = _fhn_run(params, h, times[-1], seed, 11)
    mc_states = simulate_ensemble(model, mc_run, k_mc, n_workers=threads, output_times=times)
    sa_states = {t: [] for t in times}
    for r in range(sa_replicates):
        run = _fhn_run(params, h, times[-1], seed, 12, r)
        for state in simulate_ensemble(model, run, 1, output_times=times):
            sa_states[float(state.time)].append(state)
    rows = []
    for state in mc_states:
        for lag in lags:
            rep = monte_carlo_pair_covariance(state, lag)
            rows.append((preset, float(state.time), lag, rep.method, rep.estimate, rep.std_error))
    for t in times:
        for lag in lags:
            values = np.array([shifted_pair_covariance(s, lag).estimate for s in sa_states[t]])
            mean, se = values.mean(), values.std(ddof=1) / np.sqrt(len(values))
            rows.append((preset, float(t), lag, "spatial-average", float(mean), float(se)))
    return rows
