import math
import sys
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from covloc import integrator
from covloc import (
    ContractViolationError,
    FhnParams,
    IntegratorConfig,
    LinearParams,
    NumericalBlowupError,
    analytic_mean,
    build_system_matrix,
    euler_step,
    fhn_model,
    linear_model,
    regime,
    simulate_ensemble,
    simulate_path,
)
from covloc.lattice import LatticeModelSpec


def _zero_drift(state, out):
    out[...] = 0.0


def _zero_model(n=4, q=1):
    return LatticeModelSpec(
        n_blocks=n,
        block_dim=q,
        drift=_zero_drift,
        sigma=np.zeros((q, q)),
        sigma0=np.zeros((q, q)),
        m0=np.zeros(q),
    )


def _ramp_model(threshold, n=3, sigma0=0.0):
    """Noise-free unit-speed ramp du = dt whose drift turns NaN on any block
    that has reached ``threshold``: the state first goes non-finite one step
    after the first crossing."""

    def drift(state, out):
        out[...] = 1.0
        out[state >= threshold] = np.nan

    return LatticeModelSpec(
        n_blocks=n,
        block_dim=1,
        drift=drift,
        sigma=np.zeros((1, 1)),
        sigma0=np.array([[sigma0]]),
        m0=np.zeros(1),
    )


def _drawn_up_front(model, cfg, k):
    """Reference ensemble: each sample's initial state and all its noise drawn
    in one go from its own stream, then stepped by the kernel's step."""
    gens = [integrator._sample_generator(cfg.master_seed, j) for j in range(k)]
    state = np.stack([integrator._initial_state(model, gen, None) for gen in gens])
    noise = np.stack([gen.standard_normal((cfg.n_steps,) + state.shape[1:]) for gen in gens])
    scale = math.sqrt(cfg.step_size) * model.sigma.T
    work = np.empty_like(state)
    for step in range(cfg.n_steps):
        integrator._step(model, state, noise[:, step], cfg.step_size, scale, work)
    return state


class TestEulerStep:
    def test_zero_drift_zero_noise_is_identity(self):
        state = np.arange(4.0).reshape(4, 1)
        out = euler_step(state, 0.0, _zero_model(), 0.01, np.zeros((4, 1)))
        np.testing.assert_array_equal(out, state)

    def test_scalar_decay_step(self):
        model = linear_model(LinearParams(a=1.0, d_u=0.0, w=0.0), 4)
        state = np.ones((4, 1))
        out = euler_step(state, 0.0, model, 0.01, np.zeros((4, 1)))
        np.testing.assert_allclose(out, 0.99)

    def test_fhn_fixed_point_is_stationary(self):
        params = FhnParams(d_u=0.0, w=0.0)
        model = fhn_model(params, 4)
        state = np.tile([-1.05, -0.664125], (4, 1))
        out = euler_step(state, 0.0, model, 1e-4, np.zeros((4, 2)))
        np.testing.assert_allclose(out, state, atol=1e-12)

    def test_non_diagonal_sigma_matches_hand_computed_step(self):
        sigma = np.array([[1.0, 0.5], [0.5, 2.0]])
        model = LatticeModelSpec(
            n_blocks=3,
            block_dim=2,
            drift=lambda state, out: np.negative(state, out=out),
            sigma=sigma,
            sigma0=np.zeros((2, 2)),
            m0=np.zeros(2),
        )
        h = 0.01
        state = np.array([[1.0, -2.0], [0.5, 0.25], [3.0, 0.0]])
        noise = np.array([[0.3, -1.2], [2.0, 0.7], [-0.4, 0.1]])
        expected = np.empty_like(state)
        for i in range(3):
            (x1, x2), (z1, z2) = state[i], noise[i]
            expected[i] = (
                x1 - h * x1 + math.sqrt(h) * (1.0 * z1 + 0.5 * z2),
                x2 - h * x2 + math.sqrt(h) * (0.5 * z1 + 2.0 * z2),
            )
        out = euler_step(state, 0.0, model, h, noise)
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-15)
        # the ensemble kernel takes the same step with each sample's own draw
        cfg = IntegratorConfig(step_size=h, t_end=h, master_seed=4)
        path = simulate_path(model, cfg, state)
        draw = integrator._sample_generator(4, 0).standard_normal((3, 2))
        np.testing.assert_array_equal(path.states[-1], euler_step(state, 0.0, model, h, draw))

    def test_blowup_names_first_block(self):
        model = linear_model(LinearParams(), 4)
        state = np.ones((4, 1))
        state[2, 0] = np.inf
        with pytest.raises(NumericalBlowupError) as err:
            euler_step(state, 0.0, model, 0.01, np.zeros((4, 1)))
        assert err.value.block_index == 3


class TestConfig:
    def test_step_count_must_be_integral(self):
        with pytest.raises(ContractViolationError):
            IntegratorConfig(step_size=0.3, t_end=1.0, master_seed=0)

    def test_valid(self):
        cfg = IntegratorConfig(step_size=0.25, t_end=1.0, master_seed=0)
        assert cfg.n_steps == 4

    def test_positive_step(self):
        with pytest.raises(ContractViolationError):
            IntegratorConfig(step_size=0.0, t_end=1.0, master_seed=0)


class TestSimulatePath:
    def test_t_end_zero_returns_initial_state_only(self):
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=0.01, t_end=0.0, master_seed=3)
        initial = np.ones((4, 1))
        result = simulate_path(model, cfg, initial)
        assert result.times.tolist() == [0.0]
        np.testing.assert_array_equal(result.states[0], initial)

    def test_bit_identical_reruns(self):
        model = linear_model(LinearParams(a=1.0, d_u=2.0, w=1.0), 8)
        cfg = IntegratorConfig(step_size=1e-3, t_end=0.25, master_seed=99)
        a = simulate_path(model, cfg)
        b = simulate_path(model, cfg)
        assert np.array_equal(a.states, b.states)

    def test_output_times_must_hit_the_grid(self):
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=0.01, t_end=1.0, master_seed=3)
        with pytest.raises(ContractViolationError):
            simulate_path(model, cfg, output_times=[0.005])

    def test_ou_variance_matches_closed_form(self):
        """Scalar Ornstein-Uhlenbeck: E u(1)^2 = sigma^2 (1 - e^-2) / (2a)."""
        model = linear_model(LinearParams(a=1.0, d_u=0.0, w=0.0, sigma_u=0.5), 3)
        cfg = IntegratorConfig(step_size=1e-3, t_end=1.0, master_seed=2718)
        ens = simulate_ensemble(model, cfg, 10_000)
        u1_sq = ens.samples[:, 0, 0] ** 2
        target = 0.10808308959542341  # 0.25 (1 - e^-2) / 2
        se = u1_sq.std(ddof=1) / np.sqrt(len(u1_sq))
        assert abs(u1_sq.mean() - target) < 3 * se

    def test_path_blowup_reports_exact_step(self):
        h = 1e-3
        initial = np.zeros((3, 1))
        initial[1, 0] = 0.5
        # block 2 reaches the threshold after 12 steps, so step 13 is the
        # first non-finite one; the failing check runs at step 16
        model = _ramp_model(0.5 + 11.5 * h)
        cfg = IntegratorConfig(step_size=h, t_end=20 * h, master_seed=1)
        with pytest.raises(NumericalBlowupError) as err:
            simulate_path(model, cfg, initial)
        assert err.value.time == pytest.approx(13 * h, abs=1e-15)
        assert err.value.block_index == 2
        assert err.value.sample_index is None


class TestSimulateEnsemble:
    def test_single_sample_equals_path(self):
        model = linear_model(LinearParams(a=1.0, d_u=1.0, w=0.5), 8)
        cfg = IntegratorConfig(step_size=1e-3, t_end=0.1, master_seed=7)
        ens = simulate_ensemble(model, cfg, 1)
        path = simulate_path(model, cfg)
        np.testing.assert_array_equal(ens.samples[0], path.states[-1])
        assert ens.time == pytest.approx(0.1)

    def test_worker_count_does_not_change_results(self):
        model = linear_model(LinearParams(a=1.0, d_u=1.0, w=0.5), 8)
        cfg = IntegratorConfig(step_size=1e-3, t_end=0.1, master_seed=7)
        # 600 samples span multiple scheduling chunks
        seq = simulate_ensemble(model, cfg, 600, n_workers=1)
        par = simulate_ensemble(model, cfg, 600, n_workers=8)
        assert np.array_equal(seq.samples, par.samples)
        # sample j is the same in every ensemble size, however the chunks
        # fall: 600 samples run in three 200-sample chunks, 300 in two of 150,
        # 257 in chunks of 129 and 128, 532 in chunks of 178, 178 and 176
        for k in (1, 37, 256, 257, 300, 532):
            for n_workers in (1, 2):
                ens = simulate_ensemble(model, cfg, k, n_workers=n_workers)
                assert np.array_equal(ens.samples, seq.samples[:k]), (k, n_workers)

    @pytest.mark.parametrize("budget", [2**10, 3 * 2**11])
    def test_noise_block_length_does_not_change_results(self, monkeypatch, budget):
        # 8-step blocks (the floor) and 12-step blocks, whose ends fall between
        # the every-8-step checks, against the default 256-step blocks
        model = fhn_model(regime("regime-c").params, 16)
        cfg = IntegratorConfig(step_size=1e-4, t_end=50e-4, master_seed=3)
        times = [0.0, 9e-4, 20e-4, 50e-4]
        expected = simulate_ensemble(model, cfg, 8, output_times=times)
        monkeypatch.setattr(integrator, "_NOISE_BUDGET", budget)
        states = simulate_ensemble(model, cfg, 8, output_times=times)
        for got, want in zip(states, expected):
            assert np.array_equal(got.samples, want.samples)

    def test_workers_share_one_noise_budget(self, monkeypatch):
        # 2 workers split a 2**20-double (8 MiB) budget: each worker's two
        # noise buffers, the one being stepped and the one being drawn, hold
        # 2 MiB each; a full budget per worker or per buffer would pass 12 MiB
        monkeypatch.setattr(integrator, "_NOISE_BUDGET", 2**20)
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 2)
        model = fhn_model(regime("regime-c").params, 32)
        cfg = IntegratorConfig(step_size=1e-4, t_end=130e-4, master_seed=5)
        tracemalloc.start()
        try:
            simulate_ensemble(model, cfg, 512, n_workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_explicit_streams_match_their_own_runs(self):
        model = fhn_model(regime("regime-c").params, 16)
        cfg = IntegratorConfig(step_size=1e-4, t_end=30e-4, master_seed=5)
        streams = [(5, 2), (9, 0), (5, 0), (2**64 - 1, 7)]
        times = [10e-4, 30e-4]
        states = simulate_ensemble(
            model, cfg, 4, n_workers=2, output_times=times, streams=streams
        )
        for j, (seed, index) in enumerate(streams):
            own = IntegratorConfig(step_size=1e-4, t_end=30e-4, master_seed=seed)
            alone = simulate_ensemble(model, own, index + 1, output_times=times)
            for got, want in zip(states, alone):
                assert np.array_equal(got.samples[j], want.samples[index]), (j, got.time)
        assert states[0].seeds == tuple(integrator.sample_stream_key(*s) for s in streams)

    @pytest.mark.parametrize(
        "streams, match",
        [
            ([(1, 0), (1, 1)], "one stream per sample"),
            ([(1, 0), (2, 0), (1, 0)], "distinct"),
            ([(1, 0), (2**64, 1), (1, 2)], "seed"),
            ([(1, 0), (-1, 1), (1, 2)], "seed"),
            ([(1, 0), (1, -1), (1, 2)], "index"),
        ],
    )
    def test_bad_streams_are_rejected_before_stepping(self, monkeypatch, streams, match):
        def refuse(*args, **kwargs):
            raise AssertionError("stepped before checking the streams")

        monkeypatch.setattr(integrator, "_advance", refuse)
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=0.01, t_end=0.05, master_seed=1)
        with pytest.raises(ContractViolationError, match=match):
            simulate_ensemble(model, cfg, 3, streams=streams)

    def test_stepper_draws_the_rows_the_helper_leaves(self, monkeypatch):
        # a helper that takes no row: the stepping thread draws every row of
        # every block itself, into the same buffers, from the same streams
        class IdleHelper(integrator.ThreadPoolExecutor):
            def submit(self, fn, *args):
                done = Future()
                done.set_result(None)
                return done

        model = fhn_model(regime("regime-c").params, 16)
        cfg = IntegratorConfig(step_size=1e-4, t_end=50e-4, master_seed=3)
        times = [20e-4, 50e-4]
        monkeypatch.setattr(integrator, "_NOISE_BUDGET", 3 * 2**11)  # 12-step blocks
        expected = simulate_ensemble(model, cfg, 8, output_times=times)
        path = simulate_path(model, cfg, output_times=times)
        monkeypatch.setattr(integrator, "ThreadPoolExecutor", IdleHelper)
        for got, want in zip(simulate_ensemble(model, cfg, 8, output_times=times), expected):
            assert np.array_equal(got.samples, want.samples)
        assert np.array_equal(simulate_path(model, cfg, output_times=times).states, path.states)

    def test_shared_row_drawing_survives_frequent_thread_switches(self, monkeypatch):
        # three workers, each with its helper, on a 2-core box and with the
        # interpreter switching threads every microsecond: a row taken twice
        # or skipped would shift or garble a stream and break the equality
        model = linear_model(LinearParams(a=1.0, d_u=1.0, w=0.5), 4)
        cfg = IntegratorConfig(step_size=1e-3, t_end=40e-3, master_seed=11)
        monkeypatch.setattr(integrator, "_NOISE_BUDGET", 2**10)  # 8-step blocks
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 3)
        expected = _drawn_up_front(model, cfg, 600)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = simulate_ensemble(model, cfg, 600, n_workers=3)
                assert np.array_equal(got.samples, expected)
        finally:
            sys.setswitchinterval(interval)

    def test_seeds_are_distinct_and_recorded(self):
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=0.01, t_end=0.05, master_seed=123)
        ens = simulate_ensemble(model, cfg, 16)
        assert len(set(ens.seeds)) == 16

    def test_snapshots_along_the_way(self):
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=0.01, t_end=0.1, master_seed=5)
        states = simulate_ensemble(model, cfg, 3, output_times=[0.0, 0.05, 0.1])
        assert [s.time for s in states] == [0.0, 0.05, 0.1]
        final = simulate_ensemble(model, cfg, 3)
        np.testing.assert_array_equal(states[-1].samples, final.samples)

    def test_ensemble_blowup_reports_exact_step_sample_and_block(self):
        h, seed, k = 1e-3, 2, 300
        start = IntegratorConfig(step_size=h, t_end=0.0, master_seed=seed)
        x0 = simulate_ensemble(_ramp_model(np.inf, sigma0=1.0), start, k)
        values = np.sort(x0.samples.ravel())
        sample, block, _ = np.unravel_index(np.argmax(x0.samples), x0.samples.shape)
        # precondition of the scenario: the largest initial value sits past
        # sample 256, in the second chunk however the 300 samples are cut,
        # and leads the runner-up by more than the 20-step horizon, so
        # exactly one sample crosses the threshold
        assert sample >= 256 and values[-1] - values[-2] > 20 * h
        model = _ramp_model(values[-1] + 11.5 * h, sigma0=1.0)
        cfg = IntegratorConfig(step_size=h, t_end=20 * h, master_seed=seed)
        with pytest.raises(NumericalBlowupError) as err:
            simulate_ensemble(model, cfg, k, n_workers=2)
        assert err.value.time == pytest.approx(13 * h, abs=1e-15)
        assert err.value.sample_index == sample
        assert err.value.block_index == block + 1
        # the index points into the call's streams, whatever their order
        reverse = [(seed, j) for j in reversed(range(k))]
        with pytest.raises(NumericalBlowupError) as err:
            simulate_ensemble(model, cfg, k, n_workers=2, streams=reverse)
        assert err.value.sample_index == k - 1 - sample

    def test_blowup_reports_sample_index(self):
        model = fhn_model(FhnParams(), 4)
        cfg = IntegratorConfig(step_size=0.5, t_end=5.0, master_seed=1)
        with pytest.raises(NumericalBlowupError) as err:
            simulate_ensemble(model, cfg, 3)
        assert err.value.sample_index is not None

    def test_ensemble_mean_matches_analytic_propagation(self):
        params = LinearParams(a=1.0, d_u=2.0, w=1.0, sigma_u=0.5)
        n = 16
        model = linear_model(params, n, m0=2.0)
        cfg = IntegratorConfig(step_size=1e-3, t_end=1.0, master_seed=31)
        ens = simulate_ensemble(model, cfg, 2000)
        sysm = build_system_matrix(params, n)
        expected = analytic_mean(sysm, np.full(n, 2.0), 1.0)
        se = ens.samples[:, :, 0].std(axis=0, ddof=1) / np.sqrt(2000)
        assert (np.abs(ens.samples[:, :, 0].mean(axis=0) - expected) < 4 * se).all()

    @pytest.mark.parametrize("n_workers", [0, -2])
    def test_worker_count_must_be_positive(self, n_workers):
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=0.01, t_end=0.05, master_seed=1)
        with pytest.raises(ContractViolationError, match="n_workers"):
            simulate_ensemble(model, cfg, 4, n_workers=n_workers)

    def test_pool_is_capped_by_chunks_and_cores(self, monkeypatch):
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 2)
        assert integrator._pool_size(32, 32) == 2
        assert integrator._pool_size(32, 1) == 1
        assert integrator._pool_size(1, 32) == 1
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: None)
        assert integrator._pool_size(8, 4) == 1
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 64)
        assert integrator._pool_size(8, 4) == 4
        with pytest.raises(ContractViolationError):
            integrator._pool_size(0, 4)

    @pytest.mark.slow
    def test_large_fhn_ensemble_runs_to_completion(self):
        # strongly mixed regime, 8192 samples, all states finite at t=5
        model = fhn_model(regime("diffusion-strongly-mixed").params, 16)
        cfg = IntegratorConfig(step_size=1e-3, t_end=5.0, master_seed=888)
        ens = simulate_ensemble(model, cfg, 8192, n_workers=2)
        assert np.isfinite(ens.samples).all()
        assert ens.samples.shape == (8192, 16, 2)
