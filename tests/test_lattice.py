import fractions
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cyclic_distance_matrix, dense_norm2, gathered_ring_matrix, symmetrized

from covloc import (
    BlockCovariance,
    ContractViolationError,
    FhnParams,
    LinearParams,
    LipschitzConstants,
    cyclic_distance,
    fhn_model,
    linear_model,
    lipschitz_constants,
)
from covloc.analytic import analytic_covariance, build_system_matrix
from covloc.config import ExperimentConfig
from covloc.lattice import _FINITE, _POSITIVE, LatticeModelSpec, _real, ring_matrix
from covloc.localization import localize


def test_cyclic_distance_examples():
    assert cyclic_distance(3, 7, 10) == 4  # min{4, 6, 14}
    assert cyclic_distance(1, 10, 10) == 1  # wraparound neighbors
    assert cyclic_distance(5, 5, 12) == 0


def test_cyclic_distance_out_of_range():
    with pytest.raises(ContractViolationError):
        cyclic_distance(0, 3, 10)
    with pytest.raises(ContractViolationError):
        cyclic_distance(1, 11, 10)


@given(st.integers(3, 64), st.data())
def test_cyclic_distance_symmetric_and_bounded(n, data):
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(1, n))
    d = cyclic_distance(i, j, n)
    assert d == cyclic_distance(j, i, n)
    assert 0 <= d <= n // 2


def test_cyclic_distance_triangle_inequality_exhaustive():
    # full check on Z/nZ for every n up to 32: d(i,k) <= d(i,j) + d(j,k)
    for n in range(3, 33):
        dm = cyclic_distance_matrix(n)
        assert (dm[:, None, :] <= dm[:, :, None] + dm[None, :, :]).all()


def test_distance_matrix_agrees_with_scalar():
    dm = cyclic_distance_matrix(11)
    for i in range(11):
        for j in range(11):
            assert dm[i, j] == cyclic_distance(i + 1, j + 1, 11)


def _base(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``a`` views."""
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 64, 65])
def test_ring_matrix_equals_the_distance_gather(n):
    row = np.random.default_rng(n).standard_normal(n)  # not a palindrome
    built = ring_matrix(row)
    assert not built.flags.writeable
    assert _base(built).size <= 2 * n  # O(n) values, not the n x n matrix
    assert built.tobytes() == gathered_ring_matrix(row).tobytes()


def test_lipschitz_constants_linear():
    m = linear_model(LinearParams(a=1.0, d_u=0.0, w=5.0), 8)
    assert lipschitz_constants(m) == LipschitzConstants(-6.0, 0.0, 5.0)
    m = linear_model(LinearParams(a=1.0, d_u=20.0, w=0.0), 8)
    assert lipschitz_constants(m) == LipschitzConstants(-41.0, 20.0, 0.0)


def test_lipschitz_constants_fhn_clamped():
    # 1 - 2*0.5 - 0.3 < 0, so the self rate clamps to zero
    m = fhn_model(FhnParams(epsilon=0.01, d_u=0.5, w=0.3), 8)
    c = lipschitz_constants(m)
    assert c == LipschitzConstants(0.0, 50.0, 30.0)


def test_lipschitz_constants_refuses_custom_models():
    spec = LatticeModelSpec(
        n_blocks=4,
        block_dim=1,
        drift=lambda state, out: np.negative(state, out=out),
        sigma=np.eye(1),
        m0=np.zeros(1),
    )
    with pytest.raises(ContractViolationError, match="carries no coupling constants"):
        lipschitz_constants(spec)


def _block_drift(model, lattice, source, target, reference=None):
    """Block ``target``'s drift as a function of block ``source``'s state.

    A block adjacent to neither ``source`` nor ``target`` sees ``source``
    only through the lattice average (1/N) sum_j h(x_j), a share every block
    receives equally; passing it as ``reference`` subtracts its drift and
    leaves the local and neighbour coupling alone.
    """

    def fn(z):
        trial = lattice.copy()
        trial[source] = z
        out = np.empty_like(trial)
        model.drift(trial, out)
        return out[target] if reference is None else out[target] - out[reference]

    return fn


def _finite_difference_jacobian(fn, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    jac = np.empty((x.size, x.size))
    for k in range(x.size):
        dx = np.zeros_like(x)
        dx[k] = eps
        jac[:, k] = (fn(x + dx) - fn(x - dx)) / (2 * eps)
    return jac


def test_linear_self_jacobian_never_exceeds_lambda0():
    params = LinearParams(a=1.3, d_u=2.5, w=0.7)
    model = linear_model(params, 8)
    lam0 = lipschitz_constants(model).lambda_0
    rng = np.random.default_rng(5)
    worst = -np.inf
    for _ in range(1000):
        lattice = np.zeros((8, 1))
        lattice[:3, 0] = rng.standard_normal(3)
        self_drift = _block_drift(model, lattice, source=1, target=1, reference=4)

        # unit-step central difference is exact for a drift linear in x_i
        jac = _finite_difference_jacobian(self_drift, lattice[1], eps=1.0)
        sym_eig = np.linalg.eigvalsh(jac + jac.T).max() / 2.0
        worst = max(worst, sym_eig)
    assert worst <= lam0 + 1e-10


def test_fhn_neighbor_and_meanfield_jacobian_norms():
    """The FHN neighbor and mean-field Jacobians are constant matrices whose
    norms give the coupling rates exactly."""
    params = FhnParams(epsilon=0.01, d_u=0.5, w=0.3)
    model = fhn_model(params, 8)
    c = lipschitz_constants(model)
    rng = np.random.default_rng(6)
    for _ in range(50):
        lattice = np.zeros((8, 2))
        lattice[:3] = rng.standard_normal((3, 2))
        wrt_next = _block_drift(model, lattice, source=2, target=1, reference=5)

        # neighbor and mean-field couplings are linear, so unit-step central
        # differences recover the constant Jacobians exactly
        jac = _finite_difference_jacobian(wrt_next, lattice[2], eps=1.0)
        assert np.linalg.norm(jac, 2) == pytest.approx(c.lambda_f, rel=1e-12)

        # a far block sees block 1 only through its 1/N share of the average
        share = _block_drift(model, lattice, source=1, target=5)
        jac_h = 8 * _finite_difference_jacobian(share, lattice[1], eps=1.0)
        assert np.linalg.norm(jac_h, 2) == pytest.approx(c.lambda_h, rel=1e-12)


def test_fhn_self_jacobian_dominated_in_rescaled_convention():
    # symmetric part of the rescaled self-Jacobian is diag(eps^-1 (1-u^2-2d-w), 0)
    params = FhnParams(epsilon=0.01, d_u=0.5, w=0.3)
    lam0 = lipschitz_constants(fhn_model(params, 8)).lambda_0
    rng = np.random.default_rng(7)
    inv_eps = 1.0 / params.epsilon
    for u in rng.standard_normal(200) * 2:
        j11 = inv_eps * (1.0 - u * u - 2.0 * params.d_u - params.w)
        assert max(j11, 0.0) <= lam0 + 1e-12


def test_model_spec_validates_sigma_symmetry():
    with pytest.raises(ContractViolationError):
        LatticeModelSpec(
            n_blocks=4,
            block_dim=2,
            drift=lambda state, out: np.copyto(out, state),
            sigma=np.array([[1.0, 0.5], [0.0, 1.0]]),
            m0=np.zeros(2),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["sigma", "m0"])
def test_model_spec_refuses_non_finite_sigma_and_m0(field, bad):
    # a nan sigma used to be refused as asymmetric, an inf one passed with a
    # RuntimeWarning, and a non-finite m0 passed to blow up at t=0
    values = {"sigma": np.eye(2), "m0": np.zeros(2)}
    values[field].flat[0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError, match=f"{field} must be finite"):
            LatticeModelSpec(
                n_blocks=4, block_dim=2, drift=lambda state, out: np.copyto(out, state), **values
            )
        with pytest.raises(ContractViolationError, match="m0 must be finite"):
            linear_model(LinearParams(), 4, m0=bad)


def test_model_spec_requires_three_blocks():
    with pytest.raises(ContractViolationError):
        linear_model(LinearParams(), 2)


def test_model_spec_refuses_non_integer_sizes():
    # a 4.5-block model used to build and then fail in numpy inside simulate_ensemble
    for n_blocks, block_dim in ((4.5, 1), (4.0, 1), (4, 1.0), (4, True)):
        q = int(block_dim)
        with pytest.raises(ContractViolationError, match="must be an integer"):
            LatticeModelSpec(n_blocks, block_dim, lambda s, out: None, np.eye(q), np.zeros(q))
    with pytest.raises(ContractViolationError, match="n_blocks must be an integer"):
        ExperimentConfig(LinearParams(), n_blocks=4.5, t_end=1.0, master_seed=1)


@pytest.mark.parametrize("n_blocks, block_dim, field", [("4", 1, "n_blocks"), (4, "1", "block_dim")])
def test_model_spec_refuses_string_sizes(n_blocks, block_dim, field):
    # both used to raise a TypeError from comparing a string with an int
    with pytest.raises(ContractViolationError, match=f"{field} must be an integer"):
        LatticeModelSpec(n_blocks, block_dim, lambda s, out: None, np.eye(1), np.zeros(1))


@pytest.mark.parametrize(
    "value", [True, np.bool_(False), "1", None, 10**400, fractions.Fraction(10**400)]
)
def test_real_refuses_what_is_not_a_real_number_by_name(value):
    # 10**400 used to reach float() and raise OverflowError
    with pytest.raises(ContractViolationError, match=r"^beta must be finite, got "):
        _real(value, "beta", -_FINITE, _FINITE)


@pytest.mark.parametrize(
    "value", [np.float32(0.25), np.int64(3), fractions.Fraction(1, 4), 3, 0.25, np.float64(2.0)]
)
def test_real_takes_python_and_numpy_numbers_and_fractions_as_floats(value):
    number = _real(value, "x", 0.0, math.inf)
    assert type(number) is float and number == float(value)


def test_a_positive_bound_refuses_both_zeros_and_takes_the_least_positive_float():
    for zero in (0.0, -0.0, 0):
        with pytest.raises(ContractViolationError, match=r"^h must be positive, got "):
            _real(zero, "h", _POSITIVE, math.inf)
    assert _real(5e-324, "h", _POSITIVE, math.inf) == 5e-324
    assert _real(-0.0, "t", 0.0, math.inf) == 0.0


@pytest.mark.parametrize(
    "low, high, words",
    [
        (0.0, math.inf, "nonnegative"),
        (_POSITIVE, math.inf, "positive"),
        (0.0, _FINITE, "finite and nonnegative"),
        (_POSITIVE, _FINITE, "finite and positive"),
        (-_FINITE, _FINITE, "finite"),
        (-math.inf, math.inf, "a number"),
        (_POSITIVE, math.nextafter(1.0, 0.0), "positive and below 1.0"),
        (-2.0, 2.0, "above -2.0000000000000004 and below 2.0000000000000004"),
    ],
)
def test_real_states_its_range_in_words(low, high, words):
    # no bound such as 5e-324 or 0.9999999999999999 is printed
    with pytest.raises(ContractViolationError) as err:
        _real(math.nan, "x", low, high)
    assert str(err.value) == f"x must be {words}, got nan"


def test_lipschitz_constants_nonnegative():
    with pytest.raises(ContractViolationError):
        LipschitzConstants(0.0, -1.0, 0.0)


class TestBlockCovariance:
    def test_block_accessor_uses_paper_indexing(self):
        n, q = 3, 2
        data = np.arange(36, dtype=float).reshape(6, 6)
        data = 0.5 * (data + data.T)
        cov = BlockCovariance(data, n, q)
        # block (i, j) holds entries [(i-1)q + m, (j-1)q + n]
        assert np.array_equal(cov.block(2, 3), data[2:4, 4:6])
        assert cov.entry(2, 3, 1, 2) == data[2, 5]

    @pytest.mark.parametrize("m, n", [(0, 1), (1, 0), (3, 1), (1, 3), (-1, 1)])
    def test_entry_rejects_component_indices_outside_the_block(self, m, n):
        # entry(1, 1, 0, 0) used to read component (2, 2) of the block, and
        # m = 3 raised a bare IndexError
        data = np.arange(36, dtype=float).reshape(6, 6)
        cov = BlockCovariance(0.5 * (data + data.T), 3, 2)
        field = "n" if 1 <= m <= 2 else "m"
        match = rf"component {field} must be an integer in \[1, 3\)"
        with pytest.raises(ContractViolationError, match=match):
            cov.entry(1, 1, m, n)

    @pytest.mark.parametrize(
        "data, n_blocks, block_dim, field",
        [
            (np.eye(5), 2.5, 2, "n_blocks"),
            (np.eye(4), 4.0, 1, "n_blocks"),
            (np.eye(1), 1, True, "block_dim"),
            (np.eye(2), 2, np.float64(1.0), "block_dim"),
            (np.eye(0), 0, 1, "n_blocks"),
        ],
    )
    def test_sizes_must_be_positive_integers(self, data, n_blocks, block_dim, field):
        # n_blocks=2.5 with q=2 passed the 5x5 shape check, stored n_blocks=2
        # and failed in norm2's reshape; block_dim=True was taken as 1
        with pytest.raises(ContractViolationError, match=f"{field} must be an integer"):
            BlockCovariance(data, n_blocks, block_dim)

    def test_symmetrized_on_construction(self):
        base = np.array([[1.0, 0.5], [0.5 + 1e-14, 2.0]])
        cov = BlockCovariance(base, 2, 1)  # needs n_blocks * block_dim = 2
        assert np.array_equal(cov.data, cov.data.T)

    @pytest.mark.parametrize("d", [2, 5, 129, 300])
    @pytest.mark.parametrize("asymmetry", [0.0, 1e-13])
    def test_data_equals_the_symmetrizing_formula(self, d, asymmetry):
        rng = np.random.default_rng(d)
        m = rng.standard_normal((d, d))
        data = m + m.T
        data[d - 1, 0] *= 1.0 + asymmetry
        if asymmetry:
            assert not np.array_equal(data, data.T)
        cov = BlockCovariance(data, d, 1)
        assert cov.data.tobytes() == symmetrized(data).tobytes()
        assert not cov.data.flags.writeable

    def test_mirrored_signed_zeros_are_symmetrized(self):
        data = np.array([[1.0, 0.0], [-0.0, 2.0]])
        cov = BlockCovariance(data, 2, 1)
        assert cov.data.tobytes() == symmetrized(data).tobytes()
        assert not np.signbit(cov.data).any()

    def test_symmetric_matrix_is_stored_as_given(self):
        # 0.5 * (A + A^T) would overflow 1e308 + 1e308 to inf
        data = np.array([[1e308, 1.0], [1.0, 2.0]])
        cov = BlockCovariance(data, 2, 1)
        assert cov.data[0, 0] == 1e308
        data[0, 0] = 0.0
        assert cov.data[0, 0] == 1e308  # a copy, not a view of the input

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 2), "mirrored"])
    def test_rejects_non_finite_entries(self, bad, where):
        data = np.eye(3)
        if where == "mirrored":
            data[0, 2] = data[2, 0] = bad
        else:
            data[where] = bad
        with pytest.raises(ContractViolationError, match="nan or infinite"):
            BlockCovariance(data, 3, 1)

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolationError):
            BlockCovariance(np.array([[1.0, 0.5], [0.1, 2.0]]), 2, 1)

    def test_lag_profile(self):
        data = np.diag([1.0, 2.0, 3.0, 4.0])
        cov = BlockCovariance(data, 4, 1)
        assert cov.lag_profile().tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 65])
    def test_a_circulant_is_kept_as_its_first_row(self, n):
        row = np.random.default_rng(n).standard_normal(n)  # not a palindrome
        dense = ring_matrix(row)
        for cov in (BlockCovariance.from_ring_row(row), BlockCovariance(dense, n, 1)):
            assert cov.circulant
            assert cov.data.tobytes() == dense.tobytes()
            assert _base(cov.data).nbytes <= 16 * n  # the row twice, not the n x n matrix
            with pytest.raises(ValueError, match="read-only"):
                cov.data[0, 0] = 1.0

    @pytest.mark.parametrize("n", [3, 5, 300])
    @pytest.mark.parametrize("asymmetry", [0.0, 1e-13])
    def test_a_circulant_is_symmetrized_on_its_row(self, n, asymmetry):
        row = ring_matrix(np.random.default_rng(n).standard_normal(n))[0].copy()
        row[1] *= 1.0 + asymmetry  # row[n - 1] is its mirror image
        idx = np.arange(n)
        data = row[(idx[None, :] - idx[:, None]) % n]  # entry (i, j) = row[(j - i) mod n]
        if asymmetry:
            assert not np.array_equal(data, data.T)
        cov = BlockCovariance(data, n, 1)
        assert cov.circulant
        assert cov.data.tobytes() == symmetrized(data).tobytes()

    @given(st.integers(3, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_accepts_any_symmetric_matrix(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        cov = BlockCovariance(m + m.T, n, 1)
        assert cov.norm2() >= 0


def _block_circulant(blocks: np.ndarray) -> np.ndarray:
    """Symmetric (Nq, Nq) matrix with block (i, j) = S[(j - i) mod N], where
    S[k] = (blocks[k] + blocks[-k]^T) / 2, so that S[-k] = S[k]^T exactly."""
    n = len(blocks)
    sym = 0.5 * (blocks + blocks[-np.arange(n)].swapaxes(1, 2))
    return np.block([[sym[(j - i) % n] for j in range(n)] for i in range(n)])


def _eigvalsh_only_on_blocks(block_dim):
    """np.linalg.eigvalsh that refuses any matrix larger than one q x q block."""
    original = np.linalg.eigvalsh

    def guarded(a, *args, **kwargs):
        if np.shape(a)[-1] > block_dim:
            raise AssertionError(f"dense eigvalsh on a {np.shape(a)} matrix")
        return original(a, *args, **kwargs)

    return guarded


@given(st.sampled_from([1, 2]), st.integers(1, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_norm2_of_a_block_circulant_matrix_matches_the_dense_oracle(q, n, seed):
    data = _block_circulant(np.random.default_rng(seed).standard_normal((n, q, q)))
    expected = dense_norm2(data)
    cov = BlockCovariance(data, n, q)
    with mock.patch.object(np.linalg, "eigvalsh", _eigvalsh_only_on_blocks(q)):
        assert cov.norm2() == pytest.approx(expected, rel=1e-12, abs=0.0)


def _toeplitz_not_circulant():
    # passes the diagonal-shift check; fails the wrap check, column[k] != column[12 - k]
    column = np.random.default_rng(3).standard_normal(12)
    return scipy.linalg.toeplitz(column), 1


def _circulant_with_one_pair_perturbed():
    data = _block_circulant(np.random.default_rng(4).standard_normal((6, 2, 2)))
    data[1, 8] += 1e-3
    data[8, 1] += 1e-3
    return data, 2


def _circulant_with_one_entry_perturbed():
    data = ring_matrix(np.random.default_rng(5).standard_normal(9)).copy()
    data[4, 4] += 1e-3
    return data, 1


@pytest.mark.parametrize(
    "make",
    [_toeplitz_not_circulant, _circulant_with_one_pair_perturbed, _circulant_with_one_entry_perturbed],
    ids=["toeplitz", "perturbed", "perturbed-q1"],
)
def test_norm2_of_a_matrix_that_is_not_block_circulant_is_the_dense_route(make, monkeypatch):
    data, q = make()
    expected = dense_norm2(data)
    shapes = []
    original = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    cov = BlockCovariance(data, len(data) // q, q)
    assert not cov.circulant and cov.data.flags.c_contiguous  # stored dense
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    assert cov.norm2() == expected
    assert shapes == [data.shape]


def test_localization_error_norm_takes_no_dense_eigvalsh(monkeypatch):
    """The l2 error of a banded exact linear covariance is block-circulant,
    so it must never reach an O(n^3) eigendecomposition."""
    params = LinearParams(a=1.0, d_u=20.0, w=0.0, sigma_u=0.5)
    n = 256
    cov = analytic_covariance(build_system_matrix(params, n), None, params.sigma_u, 5.0)
    error = BlockCovariance(cov.data - localize(cov, 37).data, n, 1)
    expected = dense_norm2(error.data)
    monkeypatch.setattr(np.linalg, "eigvalsh", _eigvalsh_only_on_blocks(1))
    assert error.norm2() == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_exact_linear_covariance_localizes_and_takes_its_norm_in_o_n_memory():
    """At N=4096 a dense covariance would need 128 MiB."""
    params = LinearParams(a=1.0, d_u=20.0, w=0.0, sigma_u=0.5)
    n = 4096
    tracemalloc.start()
    try:
        cov = analytic_covariance(build_system_matrix(params, n), None, params.sigma_u, 5.0)
        norm = localize(cov, 37).norm2()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert norm == pytest.approx(cov.norm2(), rel=1e-3)  # the band holds the mass
