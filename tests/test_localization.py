import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import kron_localize

from covloc import (
    BlockCovariance,
    ContractViolationError,
    LinearParams,
    analytic_covariance,
    bound_inputs_from_model,
    build_system_matrix,
    choose_bandwidth,
    linear_model,
    local_coefficient,
    localization_error_bound,
    localize,
    plan_localization,
    recommended_sample_size,
)


def _random_cov(n, q=1, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n * q, n * q))
    return BlockCovariance(m @ m.T, n, q)


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_localize_equals_the_kron_route(n, q):
    cov = _random_cov(n, q, seed=10 * n + q)
    for l in range(n // 2 + 1):
        expected = kron_localize(cov.data, n, q, l)
        assert localize(cov, l).data.tobytes() == expected.tobytes(), l


class TestLocalize:
    def test_full_bandwidth_is_identity(self):
        cov = _random_cov(9)
        for l in (4, 5, 9):  # floor(9/2) = 4 and beyond
            np.testing.assert_array_equal(localize(cov, l).data, cov.data)

    def test_zero_bandwidth_is_block_diagonal(self):
        cov = _random_cov(5, q=2, seed=1)
        out = localize(cov, 0)
        for i in range(1, 6):
            for j in range(1, 6):
                block = out.block(i, j)
                if i == j:
                    np.testing.assert_array_equal(block, cov.block(i, j))
                else:
                    np.testing.assert_array_equal(block, 0.0)

    def test_hand_enumeration_on_four_ring(self):
        # d(1, .) = (0, 1, 2, 1): bandwidth 1 keeps (1, 1, 0, 1)
        ones = BlockCovariance(np.ones((4, 4)), 4, 1)
        out = localize(ones, 1)
        np.testing.assert_array_equal(out.data[0], [1.0, 1.0, 0.0, 1.0])
        for r in range(1, 4):
            np.testing.assert_array_equal(out.data[r], np.roll(out.data[0], r))

    def test_blocks_stay_jointly_intact(self):
        # truncation acts on whole q x q blocks, never inside one site
        cov = _random_cov(6, q=2, seed=2)
        out = localize(cov, 1)
        for i in range(1, 7):
            for j in range(1, 7):
                block = out.block(i, j)
                assert (block == 0).all() or (block == cov.block(i, j)).all()

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ContractViolationError):
            localize(_random_cov(4), -1)

    @given(st.integers(3, 16), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_symmetric_never_grows(self, n, l, seed):
        cov = _random_cov(n, seed=seed)
        once = localize(cov, l)
        twice = localize(once, l)
        np.testing.assert_array_equal(once.data, twice.data)
        np.testing.assert_array_equal(once.data, once.data.T)
        assert np.abs(once.data).max() <= np.abs(cov.data).max()


@pytest.mark.parametrize("l", [1.5, 1.0, "1", True, -1, np.float64(2.0)])
@pytest.mark.parametrize(
    "call",
    [
        lambda l: localize(_random_cov(4), l),
        lambda l: localize(BlockCovariance.from_ring_row(np.ones(4)), l),
        lambda l: localization_error_bound(l, 1.0, 1.0),
        lambda l: recommended_sample_size(1.0, l, 64, 1.0, 0.05),
    ],
    ids=["localize-dense", "localize-circulant", "error-bound", "sample-size"],
)
def test_a_bandwidth_is_a_nonnegative_integer(call, l):
    # 1.5 used to act as bandwidth 1 in localize and as 1.5 in the bounds, and
    # "1" raised a TypeError from the comparison with 0
    with pytest.raises(ContractViolationError, match="bandwidth must be an integer"):
        call(l)


def test_a_numpy_integer_bandwidth_is_accepted():
    cov = _random_cov(4)
    assert localize(cov, np.int64(1)).data.tobytes() == localize(cov, 1).data.tobytes()
    assert localization_error_bound(np.int64(2), 1.0, 1.0) == localization_error_bound(2, 1.0, 1.0)


class TestErrorBound:
    def test_direct_value(self):
        assert localization_error_bound(0, 1.0, 1.0) == pytest.approx(
            3.1639534137386528488, rel=1e-14
        )

    def test_vanishes_with_bandwidth(self):
        values = [localization_error_bound(l, 0.7, 2.0) for l in range(200)]
        assert values[-1] < 1e-55

    def test_exact_decay_per_step(self):
        for l in range(5):
            ratio = localization_error_bound(l + 1, 0.9, 3.0) / localization_error_bound(
                l, 0.9, 3.0
            )
            assert ratio == pytest.approx(math.exp(-0.9), rel=1e-14)

    def test_beta_below_float_resolution_divides_by_its_exact_gap(self):
        # 1 - e^-beta rounds to 0 at beta = 1e-17; the gap is beta itself
        assert 1.0 - math.exp(-1e-17) == 0.0
        assert localization_error_bound(0, 1e-17, 1.0) == pytest.approx(2e17, rel=1e-14)


class TestChooseBandwidth:
    def test_generous_target_needs_no_truncation(self):
        bound0 = localization_error_bound(0, 1.0, 1.0)
        assert choose_bandwidth(bound0 * 1.01, 1.0, 1.0, 2**20) == 0

    def test_hand_inversion(self):
        # e^-L <= 0.1 (1 - e^-1)/2 = 0.0316 first at L = 4
        assert choose_bandwidth(0.1, 1.0, 1.0, 2**20) == 4

    def test_result_is_minimal(self):
        for eps in (0.3, 0.05, 1e-3, 1e-7):
            l = choose_bandwidth(eps, 0.45, 2.5, 2**20)
            assert localization_error_bound(l, 0.45, 2.5) <= eps
            if l > 0:
                assert localization_error_bound(l - 1, 0.45, 2.5) > eps

    def test_monotone_in_target(self):
        assert choose_bandwidth(0.05, 1.0, 1.0, 2**20) >= choose_bandwidth(0.1, 1.0, 1.0, 2**20)

    def test_cap_and_flag(self):
        plan = plan_localization(1e-9, 0.2, 1.6, n_blocks=64, cov_norm=1.0)
        assert plan.bandwidth == 32
        assert plan.bound_insufficient
        relaxed = plan_localization(1.0, 0.2, 1.6, n_blocks=64, cov_norm=1.0)
        assert not relaxed.bound_insufficient

    @pytest.mark.parametrize("n_blocks", [64])
    def test_beta_below_float_resolution_ends(self, n_blocks):
        # e^{-1e-17 l} <= 0.01 * 1e-17 / 2 first near l = 4.44e18; the ring caps it at N/2
        assert choose_bandwidth(0.01, 1e-17, 1.0, n_blocks) == 32

    @given(
        st.floats(5e-324, 1e10),
        st.floats(5e-324, 1e3),
        st.floats(0.0, 1e300),
        st.integers(0, 2**40),
    )
    @settings(max_examples=300, deadline=None)
    def test_smallest_fitting_bandwidth_or_the_cap(self, epsilon, beta, coefficient, n_blocks):
        l = choose_bandwidth(epsilon, beta, coefficient, n_blocks)
        assert 0 <= l <= n_blocks // 2
        if l < n_blocks // 2:
            assert localization_error_bound(l, beta, coefficient) <= epsilon
        if l > 0:
            assert localization_error_bound(l - 1, beta, coefficient) > epsilon


class TestSampleSizeRecommendation:
    def test_hand_evaluation(self):
        # min{1/2, 1/4} = 1/4; ceil(4 (2 ln 64 + ln 160)) = 54
        assert recommended_sample_size(1.0, 1, 64, 1.0, 0.05, 1.0) == 54

    def test_monotone_in_dimension(self):
        ks = [recommended_sample_size(1.0, 1, n, 1.0, 0.05) for n in (16, 64, 256, 1024)]
        assert ks == sorted(ks)

    def test_quadratic_bandwidth_scaling_in_small_epsilon_branch(self):
        eps = 1e-6
        k1 = recommended_sample_size(eps, 4, 64, 1.0, 0.05)
        k2 = recommended_sample_size(eps, 8, 64, 1.0, 0.05)
        assert k2 / k1 == pytest.approx(4.0, rel=1e-3)

    def test_bandwidth_zero_uses_one(self):
        assert recommended_sample_size(0.5, 0, 16, 1.0, 0.1) == recommended_sample_size(
            0.5, 1, 16, 1.0, 0.1
        )

    def test_never_below_two(self):
        assert recommended_sample_size(100.0, 1, 4, 0.01, 0.5) >= 2

    @pytest.mark.parametrize(
        "call",
        [
            lambda: recommended_sample_size(1e-170, 1, 64, 1.0, 0.05),
            lambda: plan_localization(1e-200, 0.2, 1.0, 64, 1.0),
            lambda: recommended_sample_size(1e-3, 1, 64, 1e300, 0.05),
        ],
        ids=["rate-underflows", "plan-rate-underflows", "norm-squared-overflows"],
    )
    def test_k_past_the_float_range_is_refused(self, call):
        # a ZeroDivisionError, or an OverflowError from |C|^2, at the parent
        with pytest.raises(ContractViolationError, match="exceeds the float range"):
            call()

    def test_plan_passes_delta_and_c_constant_through(self):
        plan = plan_localization(0.5, 0.2, 1.6, n_blocks=64, cov_norm=1.0, delta=0.1, c_constant=2.0)
        assert plan.c_constant == 2.0
        assert plan.recommended_k == recommended_sample_size(
            0.5, plan.bandwidth, 64, 1.0, 0.1, 2.0
        )
        assert plan.recommended_k != plan_localization(0.5, 0.2, 1.6, 64, 1.0).recommended_k


def test_end_to_end_bandwidth_meets_target_on_exact_covariance():
    """Theory-driven bandwidth choice keeps the measured truncation error
    under the target on the exact diffusion-only covariance."""
    params = LinearParams(a=1.0, d_u=20.0, w=0.0, sigma_u=0.5)
    n = 64
    exact = analytic_covariance(build_system_matrix(params, n), None, 0.5, 5.0)
    inputs = bound_inputs_from_model(linear_model(params, n), 5.0)
    coeff = local_coefficient(0.2, inputs)
    for eps in (0.1, 0.01):
        l = choose_bandwidth(eps, 0.2, coeff, n_blocks=n)
        err = np.linalg.norm(exact.data - localize(exact, l).data, ord=2)
        assert err <= eps


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_error_bound_rejects_a_nonfinite_or_negative_coefficient(bad):
    with pytest.raises(ContractViolationError, match="local_coefficient"):
        localization_error_bound(3, 0.2, bad)
    with pytest.raises(ContractViolationError, match="local_coefficient"):
        choose_bandwidth(0.01, 0.2, bad, 2**20)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_error_bound_rejects_a_nonfinite_or_nonpositive_beta(bad):
    with pytest.raises(ContractViolationError, match="beta"):
        choose_bandwidth(0.01, bad, 1.0, 2**20)


def test_choose_bandwidth_rejects_a_nan_epsilon():
    with pytest.raises(ContractViolationError, match="epsilon"):
        choose_bandwidth(math.nan, 0.2, 1.0, 2**20)
