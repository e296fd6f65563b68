import math

import numpy as np
import pytest

from covloc import (
    ContractViolationError,
    IntegratorConfig,
    LinearParams,
    LipschitzConstants,
    analytic_covariance,
    analytic_mean,
    bound_inputs_from_model,
    build_system_matrix,
    circulant_covariance_row,
    diffusion_only_bound,
    linear_model,
    meanfield_only_bound,
    monte_carlo_pair_covariance,
    shifted_pair_covariance,
    simulate_ensemble,
    surrogate_kernel,
)

from oracles import (
    dense_covariance,
    dense_drift_matrix,
    dense_euler_covariance,
    dense_mean,
    quadrature_covariance,
    taylor_expm,
)

# the diffusion, mean-field and combined figures' parameter sets, and a fourth
# with every coupling at a different scale
PARAMETER_SETS = (
    LinearParams(a=1.0, d_u=20.0, w=0.0),
    LinearParams(a=1.0, d_u=0.0, w=5.0),
    LinearParams(a=1.0, d_u=20.0, w=5.0),
    LinearParams(a=2.0, d_u=3.0, w=1.5),
)


class TestBuildSystemMatrix:
    def test_pure_damping(self):
        params = LinearParams(a=2.0, d_u=0.0, w=0.0)
        sysm = build_system_matrix(params, 5)
        np.testing.assert_allclose(dense_drift_matrix(params, 5), -2.0 * np.eye(5))
        np.testing.assert_allclose(sysm, -2.0)

    def test_spectrum_matches_dense_matrix(self):
        for params in PARAMETER_SETS:
            for n in (3, 8, 64, 257):
                eigs = np.sort(build_system_matrix(params, n))
                dense = np.linalg.eigvalsh(dense_drift_matrix(params, n))
                np.testing.assert_allclose(eigs, dense, atol=1e-12)

    def test_meanfield_spectrum(self):
        # ones/N has spectrum {1, 0^(N-1)}: eigenvalues {-a, -(a+w)^(N-1)}
        for n in (4, 16, 64):
            sysm = build_system_matrix(LinearParams(a=1.0, d_u=0.0, w=5.0), n)
            eigs = np.sort(sysm)
            np.testing.assert_allclose(eigs[-1], -1.0, atol=1e-10)
            np.testing.assert_allclose(eigs[:-1], -6.0, atol=1e-10)

    def test_circulant_diffusion_spectrum(self):
        # -a - 2 d_u (1 - cos(2 pi k / N)) for N = 4: {-1, -41, -81, -41}
        sysm = build_system_matrix(LinearParams(a=1.0, d_u=20.0, w=0.0), 4)
        np.testing.assert_allclose(
            np.sort(sysm), [-81.0, -41.0, -41.0, -1.0], atol=1e-9
        )

    def test_negative_definite(self):
        sysm = build_system_matrix(LinearParams(a=0.1, d_u=30.0, w=2.0), 32)
        assert sysm.max() < 0


class TestAnalyticMean:
    def test_t_zero_is_identity(self):
        sysm = build_system_matrix(LinearParams(a=1.0, d_u=3.0, w=1.0), 8)
        u0 = np.arange(8.0)
        np.testing.assert_allclose(analytic_mean(sysm, u0, 0.0), u0, atol=1e-12)

    def test_rejects_a_state_of_the_wrong_shape(self):
        # a length-1 state would otherwise broadcast across every Fourier mode
        sysm = build_system_matrix(LinearParams(a=1.0, d_u=3.0, w=1.0), 8)
        for u0 in (np.ones(1), np.ones(7), np.ones((8, 2))):
            with pytest.raises(ContractViolationError, match="u0"):
                analytic_mean(sysm, u0, 1.0)

    def test_constant_field_decays_at_rate_a(self):
        # constants are null vectors of the Laplacian and the centered coupling
        sysm = build_system_matrix(LinearParams(a=1.0, d_u=7.0, w=0.0), 12)
        out = analytic_mean(sysm, np.full(12, 3.0), 0.7)
        np.testing.assert_allclose(out, 3.0 * np.exp(-0.7), rtol=1e-12)

    def test_against_taylor_exponential_oracle(self):
        params = LinearParams(a=1.0, d_u=20.0, w=0.0)
        sysm = build_system_matrix(params, 4)
        u0 = np.eye(4)[0]
        expected = taylor_expm(dense_drift_matrix(params, 4) * 0.1) @ u0
        np.testing.assert_allclose(analytic_mean(sysm, u0, 0.1), expected, rtol=1e-12)


class TestAnalyticCovariance:
    def test_zero_time_zero_initial(self):
        sysm = build_system_matrix(LinearParams(a=1.0, d_u=2.0, w=1.0), 6)
        cov = analytic_covariance(sysm, None, 0.5, 0.0)
        np.testing.assert_allclose(cov.data, 0.0, atol=1e-15)

    def test_scalar_ou_longtime_limit(self):
        # sigma^2 / (2a) on the diagonal, zero elsewhere
        sysm = build_system_matrix(LinearParams(a=1.0, d_u=0.0, w=0.0), 4)
        cov = analytic_covariance(sysm, None, 0.5, 60.0)
        np.testing.assert_allclose(cov.data, 0.125 * np.eye(4), atol=1e-12)

    def test_meanfield_offdiagonals_equal_and_match_spectral_formula(self):
        n = 64
        params = LinearParams(a=1.0, d_u=0.0, w=5.0)
        sysm = build_system_matrix(params, n)
        cov = analytic_covariance(sysm, None, 0.5, 5.0)
        off = cov.data[0, 1:]
        np.testing.assert_allclose(off, off[0], atol=1e-14)
        # (sigma^2/N) ((1 - e^-10)/2 - (1 - e^-60)/12)
        expected = 0.25 / n * ((1 - np.exp(-10)) / 2 - (1 - np.exp(-60)) / 12)
        assert off[0] == pytest.approx(expected, rel=1e-12)
        # the dumb quadrature oracle lands on the same value at its own accuracy
        oracle = quadrature_covariance(dense_drift_matrix(params, n), 0.5, 5.0, nodes=10_000)
        assert off[0] == pytest.approx(oracle[0, 1], rel=1e-4)

    def test_quadrature_oracle_agreement(self):
        # trapezoid error is O((t lambda / nodes)^2); 2e5 nodes covers the
        # stiffest parameter set well below the 1e-8 gate
        for params in (
            LinearParams(a=1.0, d_u=20.0, w=0.0),
            LinearParams(a=1.0, d_u=0.0, w=5.0),
            LinearParams(a=1.0, d_u=4.0, w=2.0),
        ):
            for n in (8, 16):
                sysm = build_system_matrix(params, n)
                got = analytic_covariance(sysm, None, 0.5, 1.5).data
                a_matrix = dense_drift_matrix(params, n)
                expected = quadrature_covariance(a_matrix, 0.5, 1.5, nodes=200_000)
                err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
                assert err < 1e-8

    def test_initial_covariance_propagation(self):
        params = LinearParams(a=1.0, d_u=3.0, w=0.0)
        sysm = build_system_matrix(params, 8)
        cov0 = 0.3 * np.eye(8)
        got = analytic_covariance(sysm, cov0, 0.5, 0.8).data
        a_matrix = dense_drift_matrix(params, 8)
        prop = taylor_expm(a_matrix * 0.8)
        expected = prop @ cov0 @ prop.T + quadrature_covariance(a_matrix, 0.5, 0.8)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_vanishing_damping_takes_the_zero_rate_limit(self):
        # at a = 1e-16 the constant mode's computed rate is 0 or +3e-15, not
        # -a; the noise kernel's lambda -> 0 limit t still gives the answer,
        # which differs from the a = 1e-12 one by O(a t^2 sigma^2) ~ 1e-11
        for n in (3, 7, 64):
            sysm = build_system_matrix(LinearParams(a=1e-16, d_u=20.0, w=5.0), n)
            got = analytic_covariance(sysm, None, 0.5, 5.0).data
            expected = dense_covariance(LinearParams(a=1e-12, d_u=20.0, w=5.0), n, 5.0)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_result_is_circulant(self):
        # spatial homogeneity: every row is the previous row shifted by one
        sysm = build_system_matrix(LinearParams(a=1.0, d_u=20.0, w=5.0), 64)
        cov = analytic_covariance(sysm, None, 0.5, 5.0).data
        for r in range(1, 64):
            np.testing.assert_allclose(cov[r], np.roll(cov[0], r), atol=1e-10)

    def test_monotone_decay_for_diffusion_only(self):
        for d_u in (1.0, 5.0, 20.0):
            sysm = build_system_matrix(LinearParams(a=1.0, d_u=d_u, w=0.0), 64)
            profile = analytic_covariance(sysm, None, 0.5, 5.0).lag_profile()
            assert (np.diff(profile) <= 1e-15).all()

    def test_psd_up_to_roundoff(self):
        sysm = build_system_matrix(LinearParams(a=1.0, d_u=20.0, w=5.0), 32)
        cov = analytic_covariance(sysm, None, 0.5, 5.0)
        assert np.linalg.eigvalsh(cov.data).min() >= -1e-12 * np.trace(cov.data)


def test_fft_route_matches_dense_route():
    # the dense eigh route lives on in tests/oracles.py as the reference
    for params in PARAMETER_SETS:
        for n in (8, 64, 257):
            sysm = build_system_matrix(params, n)
            u0 = np.sin(0.7 * np.arange(n))
            cov0 = 0.3 * np.eye(n)
            for t in (0.0, 1.0, 5.0):
                np.testing.assert_allclose(
                    analytic_mean(sysm, u0, t), dense_mean(params, u0, t), atol=1e-12
                )
                np.testing.assert_allclose(
                    analytic_covariance(sysm, None, params.sigma_u, t).data,
                    dense_covariance(params, n, t),
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    analytic_covariance(sysm, cov0, params.sigma_u, t).data,
                    dense_covariance(params, n, t, cov0),
                    atol=1e-12,
                )
            np.testing.assert_allclose(
                circulant_covariance_row(params, n, 5.0),
                dense_covariance(params, n, 5.0)[0],
                atol=1e-12,
            )


def test_row_route_reaches_large_lattices():
    # criterion 3's 1/N law and criterion 9's bound dominance, out to N = 2^16
    meanfield = LinearParams(a=1.0, d_u=0.0, w=5.0, sigma_u=0.5)
    sizes = [2**p for p in range(10, 17)]
    scaled = [circulant_covariance_row(meanfield, n, 5.0)[1] * n for n in sizes]
    assert (max(scaled) - min(scaled)) / min(scaled) <= 0.01
    for n in sizes:
        coeff = meanfield_only_bound(bound_inputs_from_model(linear_model(meanfield, n), 5.0)) * n
        assert coeff == pytest.approx(0.41329769316713173, rel=1e-12)
        assert coeff > max(scaled)

    diffusion = LinearParams(a=1.0, d_u=20.0, w=0.0, sigma_u=0.5)
    n = 2**16
    row = circulant_covariance_row(diffusion, n, 5.0)
    inputs = bound_inputs_from_model(linear_model(diffusion, n), 5.0)
    for k in range(65):
        assert abs(row[k]) < diffusion_only_bound(1, 1 + k, 0.2, inputs), k


def test_euler_ensemble_matches_the_exact_discrete_covariance():
    # h * stiffest_rate = 0.15 * 10 = 1.5, where Euler's lag-0 variance is
    # 64% above the continuous one; the discrete covariance is exact at any h,
    # so every lag is held to it within 5 standard errors of both estimators
    params = LinearParams(a=1.0, d_u=2.0, w=1.0, sigma_u=0.5)
    n, h, steps = 16, 0.15, 20
    ensemble = simulate_ensemble(linear_model(params, n), IntegratorConfig(h, h * steps, 17), 4000)
    exact = dense_euler_covariance(params, n, h, steps)[0]
    for lag in range(n // 2 + 1):
        reports = shifted_pair_covariance(ensemble, lag), monte_carlo_pair_covariance(ensemble, lag)
        for rep in reports:
            assert abs(rep.estimate - exact[lag]) <= 5.0 * rep.std_error, (lag, rep.method)


_TIMED = {
    "circulant_covariance_row": lambda t: circulant_covariance_row(LinearParams(), 8, t),
    "analytic_covariance": lambda t: analytic_covariance(
        build_system_matrix(LinearParams(), 8), None, 0.5, t
    ),
    "analytic_mean": lambda t: analytic_mean(build_system_matrix(LinearParams(), 8), np.ones(8), t),
    "surrogate_kernel": lambda t: surrogate_kernel(LipschitzConstants(-1.0, 0.5, 0.2), 8, t),
    "BoundInputs": lambda t: bound_inputs_from_model(linear_model(LinearParams(), 8), t),
}


@pytest.mark.parametrize("t", [-1.0, math.nan])
@pytest.mark.parametrize("route", sorted(_TIMED))
def test_a_negative_or_nan_time_is_refused(route, t):
    # circulant_covariance_row read a negative variance at t = -1, and every
    # route read a NaN row, a NaN mean or a vacuous CAP bound at t = nan
    with pytest.raises(ContractViolationError, match=f"must be nonnegative, got {t}"):
        _TIMED[route](t)


_STATIONARY = {
    "analytic_mean": lambda t: analytic_mean(
        build_system_matrix(LinearParams(a=100.0), 8), np.ones(8), t
    ),
    "circulant_covariance_row": lambda t: circulant_covariance_row(LinearParams(a=100.0), 8, t),
    "analytic_covariance(cov0)": lambda t: analytic_covariance(
        build_system_matrix(LinearParams(a=100.0), 8), np.eye(8), 0.5, t
    ).data,
    "surrogate_kernel": lambda t: surrogate_kernel(LipschitzConstants(-100.0, 0.0, 0.0), 8, t),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route", sorted(_STATIONARY))
def test_a_huge_finite_time_reads_the_t_inf_value_silently(route):
    # 1e307 times the spectrum passes the float range, and e^-inf = 0 as at
    # t = inf; numpy used to warn "overflow encountered in multiply"
    huge, stationary = _STATIONARY[route](1e307), _STATIONARY[route](math.inf)
    assert huge.tobytes() == stationary.tobytes()
