import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from covloc import (
    BoundInputs,
    ContractViolationError,
    LinearParams,
    LipschitzConstants,
    REGIMES,
    analytic_covariance,
    bound_inputs_from_model,
    build_system_matrix,
    covariance_bound,
    diffusion_only_bound,
    estimator_variance_bound,
    fhn_model,
    growth_rates,
    kernel_entry_bound,
    linear_model,
    local_coefficient,
    longtime_bound,
    meanfield_only_bound,
    optimize_beta,
    regime,
    surrogate_kernel,
)
from covloc.analytic import circulant_covariance_row
from covloc.bounds import CAP

from oracles import dense_drift_matrix, taylor_expm


def _inputs(c, sigma_sq=0.25, sigma0_sq=0.0, q=1, grad=1.0, t=5.0, n=64):
    return BoundInputs(
        constants=c,
        sigma_sq_frob=sigma_sq,
        sigma0_sq_frob=sigma0_sq,
        q=q,
        grad_g_sup=grad,
        t=t,
        n=n,
    )


def _preset_inputs(name, t, n=64):
    return bound_inputs_from_model(fhn_model(regime(name).params, n), t)


class TestGrowthRates:
    def test_diffusion_example(self):
        # frozen from 50-digit evaluation of -41 + 20 (e^0.2 + e^-0.2)
        lam, eta = growth_rates(0.2, LipschitzConstants(-41.0, 20.0, 0.0))
        assert lam == pytest.approx(-0.19732977523696614818, rel=1e-14)
        assert eta == lam

    def test_no_neighbor_coupling_is_flat_in_beta(self):
        c = LipschitzConstants(-3.0, 0.0, 1.0)
        for beta in (0.01, 0.5, 7.0):
            lam, eta = growth_rates(beta, c)
            assert lam == -3.0
            assert eta == -2.0

    def test_meanfield_example(self):
        lam, eta = growth_rates(1.0, LipschitzConstants(-6.0, 0.0, 5.0))
        assert (lam, eta) == (-6.0, -1.0)

    def test_beta_past_the_float_range(self):
        # e^800 overflows a float: lambda_beta is +inf with neighbor coupling
        # and stays exactly lambda_0 without it
        assert growth_rates(800.0, LipschitzConstants(-2.0, 0.5, 1.0)) == (math.inf, math.inf)
        assert growth_rates(800.0, LipschitzConstants(-3.0, 0.0, 1.0)) == (-3.0, -2.0)

    def test_every_bound_reads_cap_past_the_float_range(self):
        c = LipschitzConstants(-2.0, 0.5, 1.0)
        inputs = _inputs(c, n=16)
        for j in (1, 2, 9):
            ev = covariance_bound(1, j, 800.0, inputs)
            assert ev.vacuous and ev.total == CAP
        assert estimator_variance_bound(inputs, 800.0) == CAP
        assert kernel_entry_bound(1, 2, c, 16, 1.0, 800.0) == CAP
        finite = _inputs(LipschitzConstants(-3.0, 0.0, 1.0), n=16)
        assert not covariance_bound(1, 2, 800.0, finite).vacuous
        assert estimator_variance_bound(finite, 800.0) < CAP


class TestCovarianceBound:
    def test_zero_time_zero_initial_noise(self):
        ev = covariance_bound(1, 5, 0.5, _inputs(LipschitzConstants(-2.0, 1.0, 0.5), t=0.0))
        assert ev.total == 0.0
        assert ev.local_term == 0.0 and ev.global_term == 0.0

    def test_no_meanfield_matches_diffusion_specialization(self):
        c = LipschitzConstants(-41.0, 20.0, 0.0)
        inputs = _inputs(c)
        for j in (1, 2, 9, 33):
            ev = covariance_bound(1, j, 0.2, inputs)
            assert ev.global_term == 0.0
            assert ev.total == pytest.approx(diffusion_only_bound(1, j, 0.2, inputs), rel=1e-15)
        # e^{lambda_beta t} passes CAP: the specialization saturates like the local term
        saturated = _preset_inputs("regime-a", 0.5)
        ev = covariance_bound(1, 2, 0.5, saturated)
        assert diffusion_only_bound(1, 2, 0.5, saturated) == ev.local_term == CAP
        assert ev.global_term == 0.0

    def test_large_beta_converges_to_meanfield_closed_form(self):
        c = LipschitzConstants(-6.0, 0.0, 5.0)
        inputs = _inputs(c)
        limit = meanfield_only_bound(inputs)
        ev = covariance_bound(1, 2, 30.0, inputs)
        assert ev.total == pytest.approx(limit, rel=1e-3)

    def test_total_is_sum_and_rates_are_consistent(self):
        c = LipschitzConstants(-2.0, 0.7, 0.3)
        ev = covariance_bound(2, 7, 0.4, _inputs(c, sigma0_sq=0.1, q=2, t=1.5, n=16))
        assert ev.total == ev.local_term + ev.global_term
        assert ev.eta_beta == pytest.approx(ev.lambda_beta + 0.3)

    def test_monotone_nondecreasing_in_t_when_rate_positive(self):
        c = LipschitzConstants(96.0, 2.0, 0.0)  # strongly mixed FHN scales
        prev = -1.0
        for t in np.linspace(0.0, 0.05, 11):
            ev = covariance_bound(1, 3, 0.5, _inputs(c, sigma_sq=22.6, q=2, t=t, n=16))
            assert ev.total >= prev
            prev = ev.total

    def test_vacuous_flag_on_overflow(self):
        c = LipschitzConstants(9600.0, 200.0, 0.0)
        ev = covariance_bound(1, 2, 0.5, _inputs(c, t=5.0))
        assert ev.vacuous
        assert ev.total <= 1e300 and math.isfinite(ev.total)

    def test_beta_too_small_for_one_minus_exp(self):
        # 1 - e^-beta rounds to 0 at beta = 1e-17: the global weight takes its
        # exact value -expm1(-beta), so no bound divides by zero
        beta = 1e-17
        assert 1.0 - math.exp(-beta) == 0.0
        # lam_beta = -2 + 0.5 (e^beta + e^-beta) = -1, so G = (1 - e^-5) S
        inputs = _inputs(LipschitzConstants(-2.0, 0.5, 0.0))
        local = 2.0 * -math.expm1(-5.0) * 0.25
        assert local_coefficient(beta, inputs) == pytest.approx(local, rel=1e-15)
        assert covariance_bound(1, 1, beta, inputs).global_term == 0.0
        mean_field = _inputs(LipschitzConstants(-2.0, 0.5, 0.3))
        ev = covariance_bound(1, 2, beta, mean_field)
        assert 0.0 < ev.global_term < CAP and ev.total < CAP
        assert 0.0 < estimator_variance_bound(mean_field, beta) < CAP

    def test_saturated_global_term_reads_cap(self):
        # eta_beta t = 1400: G(eta) and G(lambda) both saturate and must not cancel
        ev = covariance_bound(1, 2, 0.5, _preset_inputs("meanfield-strong", 14.0))
        assert ev.global_term == CAP
        assert ev.vacuous


class TestMeanfieldOnlyBound:
    def test_zero_time(self):
        assert meanfield_only_bound(_inputs(LipschitzConstants(-6.0, 0.0, 5.0), t=0.0)) == 0.0

    def test_published_coefficient(self):
        # 2 ((1 - e^-5) - (1 - e^-30)/6) * 0.25, frozen from 50-digit evaluation
        model = linear_model(LinearParams(a=1.0, d_u=0.0, w=5.0), 64)
        value = meanfield_only_bound(bound_inputs_from_model(model, 5.0))
        assert value * 64 == pytest.approx(0.41329769316713173114, rel=1e-14)

    def test_rejects_neighbor_coupling(self):
        with pytest.raises(ContractViolationError, match="requires lambda_f = 0"):
            meanfield_only_bound(_inputs(LipschitzConstants(-2.0, 0.5, 1.0)))

    def test_saturates_to_cap_not_zero(self):
        assert meanfield_only_bound(_preset_inputs("meanfield-strong", 14.0)) == CAP


class TestDiffusionOnlyBound:
    def test_published_coefficient_and_decay(self):
        # coefficient 2 (e^{lam t} - 1) sigma^2 / lam at beta = 0.2, frozen
        # from 50-digit evaluation: 1.5891570848468004882
        model = linear_model(LinearParams(a=1.0, d_u=20.0, w=0.0), 64)
        inputs = bound_inputs_from_model(model, 5.0)
        coeff = diffusion_only_bound(1, 1, 0.2, inputs)
        assert coeff == pytest.approx(1.5891570848468004882, rel=1e-13)
        for k in (1, 5, 17):
            expected = coeff * math.exp(-0.2 * k)
            assert diffusion_only_bound(1, 1 + k, 0.2, inputs) == pytest.approx(expected)

    def test_decreasing_in_distance(self):
        inputs = _inputs(LipschitzConstants(-41.0, 20.0, 0.0))
        values = [diffusion_only_bound(1, 1 + k, 0.2, inputs) for k in range(33)]
        assert (np.diff(values) < 0).all()

    def test_rejects_meanfield_coupling(self):
        with pytest.raises(ContractViolationError, match="requires lambda_h = 0"):
            diffusion_only_bound(1, 2, 0.2, _inputs(LipschitzConstants(-2.0, 0.5, 1.0)))


class TestOptimizeBeta:
    def test_no_neighbor_coupling_pushes_beta_up(self):
        inputs = _inputs(LipschitzConstants(-6.0, 0.0, 5.0))
        beta, ev = optimize_beta(1, 5, inputs, beta_range=(0.1, 20.0))
        assert beta == 20.0
        assert ev.total <= covariance_bound(1, 5, 0.1, inputs).total

    def test_zero_distance_pushes_beta_down(self):
        inputs = _inputs(LipschitzConstants(-41.0, 20.0, 0.0))
        beta, ev = optimize_beta(1, 1, inputs, beta_range=(0.1, 20.0))
        assert beta == 0.1

    def test_never_worse_than_fixed_beta(self):
        inputs = _inputs(LipschitzConstants(-41.0, 20.0, 0.0))
        _, ev = optimize_beta(1, 11, inputs)
        assert ev.total <= diffusion_only_bound(1, 11, 0.2, inputs) * (1 + 1e-12)


class TestEstimatorVarianceBound:
    def test_zero_time(self):
        assert estimator_variance_bound(_inputs(LipschitzConstants(-2.0, 0.5, 0.3), t=0.0), 0.5) == 0.0

    def test_exact_one_over_n_scaling(self):
        c = LipschitzConstants(-2.0, 0.5, 0.3)
        v1 = estimator_variance_bound(_inputs(c, n=32), 0.5)
        v2 = estimator_variance_bound(_inputs(c, n=64), 0.5)
        assert v1 == pytest.approx(2.0 * v2, rel=1e-15)

    def test_fhn_regime_f_golden_value(self):
        # frozen from a 50-digit re-derivation of the display with
        # lam = 50 (e^0.1 + e^-0.1), S = sqrt(2 * 0.4^4)/0.01, N = 128, t = 0.1
        model = fhn_model(regime("regime-f").params, 128)
        inputs = bound_inputs_from_model(model, 0.1)
        value = estimator_variance_bound(inputs, 0.1)
        assert value > 0 and math.isfinite(value)
        assert value == pytest.approx(19823311.956476453294, rel=1e-12)


class TestLongtimeBound:
    def test_stability_gate(self):
        inputs = _inputs(LipschitzConstants(-1.0, 0.5, 1.0))  # -1 + 1 + 1 = +1
        assert longtime_bound(1, 2, inputs, 0.5) == CAP

    def test_meanfield_example_finite(self):
        # frozen from 50-digit evaluation with lam=-6, eta=-1, S=0.25, N=64
        inputs = _inputs(LipschitzConstants(-6.0, 0.0, 5.0))
        value = longtime_bound(1, 2, inputs, 1.0)
        assert value == pytest.approx(0.044744858468314547953, rel=1e-13)

    def test_window_violation_explains_sign(self):
        c = LipschitzConstants(-3.0, 1.0, 0.5)  # stable: -3 + 0.5 + 2 < 0
        inputs = _inputs(c)
        with pytest.raises(ContractViolationError, match="violates lambda_beta <= eta_beta < 0"):
            longtime_bound(1, 2, inputs, 5.0)

    def test_is_the_time_limit_of_the_two_term_bound(self):
        c = LipschitzConstants(-6.0, 0.0, 5.0)
        beta = 1.0
        lam, _ = growth_rates(beta, c)
        t = 1e4 * abs(1.0 / lam)
        inputs = _inputs(c, t=t)
        limit = longtime_bound(1, 4, inputs, beta)
        assert covariance_bound(1, 4, beta, inputs).total == pytest.approx(limit, abs=1e-6)
        # also with neighbor coupling present
        c2 = LipschitzConstants(-4.0, 0.5, 0.5)
        lam2, _ = growth_rates(beta, c2)
        t2 = 1e4 * abs(1.0 / lam2)
        inputs2 = _inputs(c2, t=t2, n=16)
        limit2 = longtime_bound(2, 5, inputs2, beta)
        assert covariance_bound(2, 5, beta, inputs2).total == pytest.approx(limit2, abs=1e-6)


class TestSurrogateKernel:
    def test_time_zero_is_identity(self):
        q = surrogate_kernel(LipschitzConstants(-2.0, 0.5, 0.3), 8, 0.0)
        np.testing.assert_allclose(q, np.eye(8), atol=1e-12)

    def test_uncoupled_scalar_case(self):
        q = surrogate_kernel(LipschitzConstants(-1.5, 0.0, 0.0), 6, 2.0)
        np.testing.assert_allclose(q, math.exp(-6.0) * np.eye(6), rtol=1e-12)

    def test_against_taylor_exponential_oracle(self):
        c = LipschitzConstants(-1.0, 0.5, 0.0)
        n, s = 3, 1.0
        g = np.array(
            [
                [c.lambda_0, c.lambda_f, c.lambda_f],
                [c.lambda_f, c.lambda_0, c.lambda_f],
                [c.lambda_f, c.lambda_f, c.lambda_0],
            ]
        )
        e_gs = taylor_expm(g * s)
        np.testing.assert_allclose(surrogate_kernel(c, n, s), e_gs @ e_gs.T, rtol=1e-12)

    def test_against_dense_expm_with_meanfield(self):
        c = LipschitzConstants(-2.0, 0.5, 0.3)
        for n in (8, 257):
            idx = np.arange(n)
            g = np.full((n, n), c.lambda_h / n)
            g[idx, idx] += c.lambda_0
            g[idx, (idx + 1) % n] += c.lambda_f
            g[idx, (idx - 1) % n] += c.lambda_f
            for s in (0.3, 1.3):
                np.testing.assert_allclose(
                    surrogate_kernel(c, n, s), scipy.linalg.expm(2.0 * s * g), rtol=1e-12
                )

    def test_linear_model_constants_give_its_own_propagator(self):
        # the linear lattice is its own surrogate: with its constants, G is
        # the drift matrix A itself, diffusion and mean field alike
        params = LinearParams(a=1.0, d_u=2.0, w=1.5)
        for n, s in ((8, 0.3), (17, 0.05)):
            a = dense_drift_matrix(params, n)
            np.testing.assert_allclose(
                surrogate_kernel(linear_model(params, n).lipschitz, n, s),
                taylor_expm(2.0 * s * a),
                rtol=1e-12,
                atol=1e-15,
            )

    def test_symmetric_psd_circulant_with_distance_structure(self):
        c = LipschitzConstants(-2.0, 0.5, 0.3)
        q = surrogate_kernel(c, 16, 1.3)
        np.testing.assert_allclose(q, q.T, atol=1e-13)
        assert np.linalg.eigvalsh(q).min() > 0
        for r in range(1, 16):
            np.testing.assert_allclose(q[r], np.roll(q[0], r), atol=1e-12)


    @pytest.mark.filterwarnings("error")
    def test_refuses_a_kernel_past_the_float_range(self):
        c = LipschitzConstants(10.0, 5.0, 0.0)  # largest mode g = 20
        with pytest.raises(ContractViolationError, match="float range"):
            surrogate_kernel(c, 16, 40.0)  # 2 s g = 1600
        assert np.isfinite(surrogate_kernel(c, 16, 17.0)).all()  # 2 s g = 680

    def test_is_a_read_only_view_in_o_n_memory(self):
        """At N=4096 a dense kernel would need 128 MiB."""
        tracemalloc.start()
        try:
            q = surrogate_kernel(LipschitzConstants(-41.0, 20.0, 0.0), 4096, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert q.shape == (4096, 4096)
        with pytest.raises(ValueError, match="read-only"):
            q[0, 0] = 1.0


class TestKernelEntryBound:
    def test_s_zero_dominates_identity(self):
        c = LipschitzConstants(-2.0, 0.5, 0.3)
        for i, j in ((1, 1), (1, 5), (3, 11)):
            b = kernel_entry_bound(i, j, c, 16, 0.0, 0.5)
            q = 1.0 if i == j else 0.0
            assert b > q

    def test_no_meanfield_no_distance(self):
        c = LipschitzConstants(-2.0, 0.5, 0.0)
        lam, _ = growth_rates(0.4, c)
        assert kernel_entry_bound(2, 2, c, 8, 1.5, 0.4) == pytest.approx(
            2.0 * math.exp(lam * 1.5)
        )

    def test_is_the_written_out_closed_form(self):
        """2 e^{lam^ s} (e^{-beta d} + (1+e^-beta)(e^{(eta^ - lam^) s} - 1) / ((1-e^-beta) N)),
        evaluated in 40 digits, wherever e^{lam^ s} stays above e^-600 and
        no exponent passes log(CAP)."""
        rng = np.random.default_rng(27)
        checked = 0
        for _ in range(3000):
            lambda_h = rng.choice([0.0, 10.0]) * rng.random()
            c = LipschitzConstants(rng.uniform(-60.0, 10.0), rng.uniform(0.0, 5.0), lambda_h)
            n, s, beta = int(rng.integers(3, 300)), rng.uniform(0.0, 20.0), rng.uniform(0.01, 5.0)
            lam, eta = growth_rates(beta, c)
            lam2, eta2 = max(lam, 2.0 * lam), max(eta, 2.0 * eta)
            if lam2 * s < -600.0 or max(lam2, eta2) * s > math.log(CAP):
                continue
            d = int(rng.integers(0, n // 2 + 1))
            with localcontext() as ctx:
                ctx.prec = 40
                e, rise = (-Decimal(beta)).exp(), Decimal(eta2 - lam2) * Decimal(s)
                closed = 2 * (Decimal(lam2) * Decimal(s)).exp() * (
                    (-Decimal(beta) * d).exp() + (1 + e) * (rise.exp() - 1) / ((1 - e) * n)
                )
            bound = kernel_entry_bound(1, 1 + d, c, n, s, beta)
            assert bound == pytest.approx(float(closed), rel=1e-8)
            checked += 1
        assert checked > 1000

    def test_a_mean_field_rise_past_the_cap_stays_finite(self):
        # (eta^ - lam^) s = 804 passes log(CAP) while eta^ s = 4 does not:
        # the parent read CAP, the two-term bound reads 6.97
        c = LipschitzConstants(-400.0, 0.0, 401.0)
        bound = kernel_entry_bound(1, 2, c, 64, 2.0, 0.5)
        assert bound < CAP
        assert bound >= surrogate_kernel(c, 64, 2.0)[0, 1] == pytest.approx(0.853, abs=1e-3)

    def test_refuses_a_negative_time_and_a_short_ring(self):
        c = LipschitzConstants(-2.0, 0.5, 0.3)
        with pytest.raises(ContractViolationError, match="t must be nonnegative"):
            kernel_entry_bound(1, 2, c, 8, -1.0, 0.5)
        with pytest.raises(ContractViolationError, match="need n >= 3"):
            kernel_entry_bound(1, 2, c, 2, 1.0, 0.5)


def test_dominance_on_exact_linear_covariances():
    """The two-term bound dominates the exact covariance of all three linear
    parameter sets, every pair and horizon, for every beta: lambda_beta is
    positive at beta = 1 with d_u = 20, where the local term grows at the
    doubled rate of the squared propagator."""
    for params in (
        LinearParams(a=1.0, d_u=0.0, w=5.0),
        LinearParams(a=1.0, d_u=20.0, w=0.0),
        LinearParams(a=1.0, d_u=20.0, w=5.0),
    ):
        n = 64
        sysm = build_system_matrix(params, n)
        model = linear_model(params, n)
        for t in (1.0, 5.0):
            cov = analytic_covariance(sysm, None, params.sigma_u, t)
            profile = cov.lag_profile()
            inputs = bound_inputs_from_model(model, t)
            for beta in (0.1, 0.2, 0.5, 1.0):
                bound = np.array(
                    [covariance_bound(1, 1 + k, beta, inputs).total for k in range(33)]
                )
                assert (np.abs(profile) <= bound).all(), (params, t, beta)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.05, 5.0),
    d_u=st.floats(0.0, 30.0),
    w=st.floats(0.0, 10.0),
    sigma_u=st.floats(0.1, 2.0),
    log2_n=st.floats(np.log2(3), 12.0),
    t=st.floats(0.01, 20.0),
    beta=st.floats(0.05, 5.0),
)
def test_estimator_variance_bound_dominates_the_exact_lattice_average(
    a, d_u, w, sigma_u, log2_n, t, beta
):
    """The pooled-estimator bound lies at or above the exact variance of the
    lattice average (1/N) sum_i u_i, which is (1/N) sum_k C(1, 1+k) on the
    circulant linear lattice started from a point mass."""
    params = LinearParams(a=a, d_u=d_u, w=w, sigma_u=sigma_u)
    n = int(round(2.0**log2_n))
    exact = circulant_covariance_row(params, n, t).sum() / n
    inputs = bound_inputs_from_model(linear_model(params, n), t)
    assert exact <= estimator_variance_bound(inputs, beta)


# Exact entries below this fraction of C(1, 1) are FFT round-off, which a
# bound decaying like e^{-beta d} may legitimately undercut.
_ROUNDOFF = 1e-12


def _exceedance(params, n, t, beta):
    """max |C(1, 1+k)| / bound(1, 1+k) over lags k <= n/2 above round-off."""
    row = circulant_covariance_row(params, n, t)[: n // 2 + 1]
    inputs = bound_inputs_from_model(linear_model(params, n), t)
    lags = np.flatnonzero(np.abs(row) > _ROUNDOFF * row[0])
    bound = np.array([covariance_bound(1, 1 + k, beta, inputs).total for k in lags])
    return float((np.abs(row[lags]) / bound).max())


def _kernel_exceedance(c, n, s, beta):
    """max |Q(1, 1+d)| / kernel_entry_bound over d above round-off."""
    row = surrogate_kernel(c, n, s)[0]
    lags = np.flatnonzero(np.abs(row) > _ROUNDOFF * row[0])
    bound = np.array([kernel_entry_bound(1, 1 + d, c, n, s, beta) for d in lags])
    return float((np.abs(row[lags]) / bound).max())


def test_bound_dominates_at_a_positive_rate_far_across_the_ring():
    # lambda_beta = +4.1 (beta = 0.5, d_u = 20): a local term growing like
    # e^{lambda t} dipped below the exact covariance at the far side at t = 1
    params = LinearParams(a=1.0, d_u=20.0, w=0.0)
    sysm = build_system_matrix(params, 64)
    exact = analytic_covariance(sysm, None, 0.5, 1.0).entry(1, 33)
    inputs = bound_inputs_from_model(linear_model(params, 64), 1.0)
    lam, _ = growth_rates(0.5, inputs.constants)
    assert lam > 0
    assert abs(exact) <= covariance_bound(1, 33, 0.5, inputs).total


def test_bound_dominates_a_random_sweep_counterexample():
    # exact 6.18e-8 against 5.28e-8 when the local rate was lambda_beta
    params = LinearParams(a=0.378, d_u=23.09, w=0.0, sigma_u=0.663)
    exact = circulant_covariance_row(params, 257, 5.0)[85]
    inputs = bound_inputs_from_model(linear_model(params, 257), 5.0)
    assert growth_rates(0.5, inputs.constants)[0] > 0
    assert exact == pytest.approx(6.18e-8, rel=1e-3)
    assert exact <= covariance_bound(1, 86, 0.5, inputs).total


def test_bound_dominates_criterion_2_model_at_beta_half():
    # criterion 2's model on a larger ring was up to 576x over the bound
    assert _exceedance(LinearParams(a=1.0, d_u=20.0, w=0.0), 1025, 5.0, 0.5) <= 1.0


@pytest.mark.parametrize("n", [64, 256])
def test_kernel_entry_bound_dominates_at_a_positive_rate(n):
    # lambda_beta = -1 + 0.25 (e^3 + e^-3) > 0: hundreds of times over at the parent
    c = LipschitzConstants(-1.0, 0.25, 0.0)
    assert growth_rates(3.0, c)[0] > 0
    assert _kernel_exceedance(c, n, 5.0, 3.0) <= 1.0


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_kernel_entry_bound_dominates_when_only_eta_is_positive(beta):
    # lambda_beta < 0 < eta_beta: the mean-field tail grew like e^{lambda_h s}
    # against the kernel's e^{2 lambda_h s}, a hundred times over at s = 5
    c = LipschitzConstants(-1.0, 0.25, 2.0)
    lam, eta = growth_rates(beta, c)
    assert lam < 0 < eta
    assert _kernel_exceedance(c, 64, 5.0, beta) <= 1.0


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(0.05, 5.0),
    d_u=st.floats(0.0, 30.0),
    w=st.floats(0.0, 10.0),
    sigma_u=st.floats(0.1, 2.0),
    log2_n=st.floats(np.log2(3), 12.0),
    t=st.floats(0.01, 20.0),
    beta=st.floats(0.05, 5.0),
)
def test_bounds_dominate_exact_linear_covariances_and_kernels(a, d_u, w, sigma_u, log2_n, t, beta):
    """Every bound dominates on the linear lattice, for either sign of
    lambda_beta: the exact covariance row (N up to 2^12, row route) stays
    at or below covariance_bound, and the surrogate kernel built from the
    same constants (N up to 2^9) at or below kernel_entry_bound."""
    params = LinearParams(a=a, d_u=d_u, w=w, sigma_u=sigma_u)
    n = int(round(2.0**log2_n))
    assert _exceedance(params, n, t, beta) <= 1.0
    c = linear_model(params, 3).lipschitz
    assert _kernel_exceedance(c, min(n, 512), t, beta) <= 1.0


def test_saturated_bounds_read_cap_and_never_nan():
    """Every bound whose exponent passes log(CAP) reads exactly CAP; none is NaN
    or negative.  beta = 30 at d = 32 underflows e^{-beta d} to 0, where the
    naive saturated product inf * 0 is NaN."""
    models = [fhn_model(r.params, 64) for r in REGIMES.values()] + [
        linear_model(LinearParams(a=1.0, d_u=d_u, w=w), 64)
        for d_u, w in ((0.0, 5.0), (20.0, 0.0), (20.0, 5.0))
    ]
    log_cap = math.log(CAP)
    n_saturated = 0

    def check(value, exponent):
        nonlocal n_saturated
        assert not math.isnan(value) and 0.0 <= value <= CAP
        if exponent > log_cap:
            assert value == CAP
            n_saturated += 1

    for model in models:
        c = model.lipschitz
        for t in (0.0, 0.5, 14.0, 50.0):
            inputs = bound_inputs_from_model(model, t)
            for beta in (0.05, 0.5, 30.0):
                lam, eta = growth_rates(beta, c)
                lam2, eta2 = max(lam, 2.0 * lam), max(eta, 2.0 * eta)
                # G(eta) - G(lambda) vanishes identically without mean field
                gap = eta2 * t if c.lambda_h > 0 else -math.inf
                if c.lambda_f == 0.0:
                    check(meanfield_only_bound(inputs), gap)
                check(local_coefficient(beta, inputs), lam2 * t)
                variance_gap = eta * t if c.lambda_h > 0 else -math.inf
                check(estimator_variance_bound(inputs, beta), max(2.0 * lam * t, variance_gap))
                for d in (0, 1, 32):
                    ev = covariance_bound(1, 1 + d, beta, inputs)
                    check(ev.local_term, lam2 * t)
                    check(ev.global_term, gap)
                    check(ev.total, max(lam2 * t, gap))
                    assert ev.vacuous == (max(ev.local_term, ev.global_term) == CAP)
                    if c.lambda_h == 0.0:
                        check(diffusion_only_bound(1, 1 + d, beta, inputs), lam2 * t)
                    check(kernel_entry_bound(1, 1 + d, c, 64, t, beta), max(lam2 * t, gap))
    assert n_saturated > 1000
