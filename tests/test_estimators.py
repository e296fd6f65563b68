import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covloc import (
    ContractViolationError,
    EnsembleState,
    IntegratorConfig,
    LinearParams,
    analytic_covariance,
    build_system_matrix,
    linear_model,
    monte_carlo_pair_covariance,
    sample_covariance,
    shifted_pair_covariance,
    simulate_ensemble,
    spatial_average,
    stein_identity_residual,
)


def _ensemble(samples):
    samples = np.asarray(samples, dtype=float)
    return EnsembleState(samples=samples, time=0.0)


class TestSampleCovariance:
    def test_two_sample_hand_computation(self):
        ens = _ensemble([[[0.0], [0.0]], [[2.0], [2.0]]])
        # pairs (0,0) and (2,2): covariance matrix of all ones times 2
        np.testing.assert_allclose(sample_covariance(ens).data, [[2.0, 2.0], [2.0, 2.0]])

    def test_fixed_order_sum_is_symmetric_and_matches_the_gemm(self):
        samples = np.random.default_rng(102).standard_normal((300, 24, 2))
        cov = sample_covariance(_ensemble(samples)).data
        assert np.array_equal(cov, cov.T)
        centered = samples.reshape(300, -1) - samples.reshape(300, -1).mean(axis=0)
        gemm = centered.T @ centered / 299
        assert np.abs(cov - gemm).max() <= 1e-12 * np.abs(gemm).max()

    def test_identical_samples_give_zero(self):
        ens = _ensemble(np.tile([[1.0], [2.0], [3.0]], (5, 1, 1)))
        np.testing.assert_allclose(sample_covariance(ens).data, 0.0, atol=1e-15)

    def test_iid_normals_recover_identity(self):
        rng = np.random.default_rng(100)
        ens = _ensemble(rng.standard_normal((100_000, 8, 1)))
        cov = sample_covariance(ens)
        assert np.abs(cov.data - np.eye(8)).max() < 0.05

    def test_needs_two_samples(self):
        with pytest.raises(ContractViolationError, match="needs K >= 2"):
            sample_covariance(_ensemble(np.zeros((1, 4, 1))))

    def test_output_is_psd(self):
        rng = np.random.default_rng(101)
        ens = _ensemble(rng.standard_normal((12, 6, 2)))
        cov = sample_covariance(ens)
        assert np.linalg.eigvalsh(cov.data).min() >= -1e-10 * np.trace(cov.data)


class TestSpatialAverage:
    def test_constant_field(self):
        ens = _ensemble(np.full((3, 7, 1), 4.5))
        rep = spatial_average(ens)
        assert rep.estimate == 4.5
        assert rep.n_effective == 21
        assert rep.method == "spatial-average"

    def test_equals_average_of_block_means(self):
        rng = np.random.default_rng(102)
        ens = _ensemble(rng.standard_normal((9, 5, 1)))
        rep = spatial_average(ens)
        block_means = ens.samples[:, :, 0].mean(axis=0)
        assert rep.estimate == pytest.approx(block_means.mean(), abs=1e-12)

    def test_cross_estimator_agreement_on_sde_output(self):
        # pooled mean vs single-position Monte Carlo mean, 4 combined SEs
        model = linear_model(LinearParams(a=1.0, d_u=2.0, w=1.0), 32, m0=1.0)
        cfg = IntegratorConfig(step_size=1e-3, t_end=1.0, master_seed=515)
        ens = simulate_ensemble(model, cfg, 256)
        rep = spatial_average(ens)
        u1 = ens.samples[:, 0, 0]
        se_mc = u1.std(ddof=1) / np.sqrt(len(u1))
        combined = np.hypot(rep.std_error, se_mc)
        assert abs(rep.estimate - u1.mean()) < 4 * combined


class TestShiftedPairCovariance:
    def test_alternating_field_exact(self):
        # mean 0, all lag-1 products -1; pooled normalization N/(N-1)
        n = 8
        ens = _ensemble(((-1.0) ** np.arange(n)).reshape(1, n, 1))
        rep = shifted_pair_covariance(ens, 1)
        assert rep.estimate == pytest.approx(-n / (n - 1), rel=1e-15)

    def test_lag_zero_is_nonnegative(self):
        rng = np.random.default_rng(103)
        ens = _ensemble(rng.standard_normal((4, 10, 1)))
        assert shifted_pair_covariance(ens, 0).estimate >= 0.0

    def test_cyclic_symmetry_exact(self):
        rng = np.random.default_rng(104)
        n = 12
        samples = rng.standard_normal((6, n, 1))
        ens = _ensemble(samples)
        for lag in range(n // 2 + 1):
            a = shifted_pair_covariance(ens, lag).estimate
            # lag N - k visits the same unordered pairs
            mirrored = np.roll(samples, n - lag, axis=1)
            centered = samples[:, :, 0] - samples[:, :, 0].mean()
            other = (centered * np.roll(centered, -(n - lag), axis=1)).mean()
            assert a == pytest.approx(other * 6 * n / (6 * n - 1), abs=1e-12)

    def test_lag_out_of_range(self):
        ens = _ensemble(np.zeros((2, 8, 1)))
        with pytest.raises(Exception):
            shifted_pair_covariance(ens, 5)

    def test_matches_analytic_on_diffusion_model(self):
        params = LinearParams(a=1.0, d_u=20.0, w=0.0, sigma_u=0.5)
        n = 64
        model = linear_model(params, n)
        cfg = IntegratorConfig(step_size=2e-3, t_end=5.0, master_seed=616)
        ens = simulate_ensemble(model, cfg, 1024)
        exact = analytic_covariance(build_system_matrix(params, n), None, 0.5, 5.0)
        for k in range(11):
            rep = shifted_pair_covariance(ens, k)
            assert abs(rep.estimate - exact.entry(1, 1 + k)) < 5 * rep.std_error

    @given(st.integers(0, 2**31), st.integers(4, 16), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_repeated_calls_bit_identical(self, seed, n, k):
        rng = np.random.default_rng(seed)
        ens = _ensemble(rng.standard_normal((k, n, 1)))
        lag = n // 3
        assert (
            shifted_pair_covariance(ens, lag).estimate
            == shifted_pair_covariance(ens, lag).estimate
        )


class TestMonteCarloPairCovariance:
    def test_agrees_with_sample_covariance_entry(self):
        rng = np.random.default_rng(105)
        ens = _ensemble(rng.standard_normal((40, 6, 1)))
        cov = sample_covariance(ens)
        for lag in range(4):
            rep = monte_carlo_pair_covariance(ens, lag)
            assert rep.estimate == pytest.approx(cov.entry(1, 1 + lag), rel=1e-12)
            assert rep.method == "monte-carlo"
            assert rep.n_effective == 40


class TestSteinIdentity:
    ID = (lambda x: x[..., 0], lambda x: np.ones_like(x))
    SQ = (lambda x: x[..., 0] ** 2, lambda x: 2.0 * x)
    NEG = (lambda x: -x[..., 0], lambda x: -np.ones_like(x))

    def test_identity_functions(self):
        chk = stein_identity_residual(self.ID, self.ID, dim=1, seed=2024)
        assert chk.covariance_side == pytest.approx(1.0, abs=0.02)
        assert chk.gradient_side == pytest.approx(1.0, abs=0.02)
        assert chk.residual < 0.02

    def test_squares(self):
        chk = stein_identity_residual(self.SQ, self.SQ, dim=1, seed=2024)
        assert chk.covariance_side == pytest.approx(2.0, abs=0.08)
        assert chk.residual < 0.05

    def test_bilinearity_sign(self):
        chk = stein_identity_residual(self.ID, self.NEG, dim=1, seed=2024)
        assert chk.covariance_side == pytest.approx(-1.0, abs=0.02)
        assert chk.gradient_side == pytest.approx(-1.0, abs=0.02)
        assert chk.residual < 0.02

    def test_multidimensional(self):
        f = (lambda x: x.sum(axis=-1), lambda x: np.ones_like(x))
        chk = stein_identity_residual(f, f, dim=3, n_mc=50_000, seed=2025)
        assert chk.covariance_side == pytest.approx(3.0, abs=0.1)
        assert chk.residual < 3 * chk.std_error
