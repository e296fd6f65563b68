import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gathered_ring_matrix, symmetrized

from covloc import (
    BlockCovariance,
    ContractViolationError,
    FhnParams,
    LinearParams,
    LipschitzConstants,
    UnsupportedModelError,
    cyclic_distance,
    cyclic_distance_matrix,
    fhn_model,
    linear_model,
    lipschitz_constants,
)
from covloc.lattice import _SYMMETRY_TILE, LatticeModelSpec, ring_matrix


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 64, 65])
def test_ring_matrix_equals_the_distance_gather(n):
    row = np.random.default_rng(n).standard_normal(n)  # not a palindrome
    built = ring_matrix(row)
    assert built.flags.c_contiguous
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
        sigma0=np.zeros((1, 1)),
        m0=np.zeros(1),
    )
    with pytest.raises(UnsupportedModelError):
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
            sigma0=np.zeros((2, 2)),
            m0=np.zeros(2),
        )


def test_model_spec_requires_three_blocks():
    with pytest.raises(ContractViolationError):
        linear_model(LinearParams(), 2)


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

    def test_symmetrized_on_construction(self):
        base = np.array([[1.0, 0.5], [0.5 + 1e-14, 2.0]])
        cov = BlockCovariance(base, 2, 1)  # needs n_blocks * block_dim = 2
        assert np.array_equal(cov.data, cov.data.T)

    # d = 300 spans three tiles a side, with a partial last tile
    @pytest.mark.parametrize("d", [2, 5, _SYMMETRY_TILE + 1, 300])
    @pytest.mark.parametrize("asymmetry", [0.0, 1e-13])
    def test_data_equals_the_symmetrizing_formula(self, d, asymmetry):
        rng = np.random.default_rng(d)
        m = rng.standard_normal((d, d))
        data = m + m.T
        data[d - 1, 0] *= 1.0 + asymmetry  # in the last tile pair
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

    @given(st.integers(3, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_accepts_any_symmetric_matrix(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        cov = BlockCovariance(m + m.T, n, 1)
        assert cov.norm2() >= 0
