import dataclasses
import math
import sys
import threading
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from covloc import integrator
from covloc import (
    ContractViolationError,
    EnsembleState,
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
        m0=np.zeros(q),
    )


def _ramp_model(threshold, n=3, sigma=0.0):
    """Unit-speed ramp du = dt + sigma dW whose drift turns NaN on any block
    that has reached ``threshold``: the state first goes non-finite one step
    after the first crossing."""

    def drift(state, out):
        out[...] = 1.0
        out[state >= threshold] = np.nan

    return LatticeModelSpec(
        n_blocks=n,
        block_dim=1,
        drift=drift,
        sigma=np.array([[sigma]]),
        m0=np.zeros(1),
    )


def _drawn_up_front(model, cfg, streams):
    """Reference ensemble by the plain route, as the (n_steps + 1, K, N, q)
    states after every step.  Each sample starts at m0 and draws from its own
    Philox stream first the N*q normals every stream opens with, which it
    discards, then all its noise in one go; each step adds h * drift plus
    that step's noise times sqrt(h) sigma^T by np.matmul."""
    shape = (model.n_blocks, model.block_dim)
    gens = [
        np.random.Generator(np.random.Philox(key=integrator.sample_stream_key(*stream)))
        for stream in streams
    ]
    for gen in gens:
        gen.standard_normal(shape)
    noise = np.stack([gen.standard_normal((cfg.n_steps,) + shape) for gen in gens])
    state = np.tile(model.m0, (len(gens), model.n_blocks, 1))
    scale = math.sqrt(cfg.step_size) * model.sigma.T
    work = np.empty_like(state)
    history = [state.copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.n_steps):
            model.drift(state, work)
            work *= cfg.step_size
            state += work
            np.matmul(noise[:, step], scale, out=work)
            state += work
            history.append(state.copy())
    return np.stack(history)


def _first_blowup(history, h):
    """(time, sample, 1-based block) of the first non-finite entry at the
    first step of a reference history that has one, checked after every step."""
    for step, state in enumerate(history):
        bad = np.argwhere(~np.isfinite(state))
        if len(bad):
            sample, block, _ = bad[0]
            return step * h, int(sample), int(block) + 1
    return None


def _streams(seed, k):
    return [(seed, j) for j in range(k)]


def _non_diagonal_model(n=3):
    """Linear decay with correlated noise: sigma has off-diagonal entries."""
    return LatticeModelSpec(
        n_blocks=n,
        block_dim=2,
        drift=lambda state, out: np.negative(state, out=out),
        sigma=np.array([[1.0, 0.5], [0.5, 2.0]]),
        m0=np.zeros(2),
    )


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
        model = _non_diagonal_model()
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
        # the kernel takes the same step from m0, nonzero so that the drift
        # acts, with the stream's second N*q draw: every stream discards its first
        model = dataclasses.replace(model, m0=np.array([1.0, -2.0]))
        cfg = IntegratorConfig(step_size=h, t_end=h, master_seed=4)
        path = simulate_path(model, cfg)
        gen = integrator._sample_generator(4, 0)
        gen.standard_normal((3, 2))
        draw = gen.standard_normal((3, 2))
        start = np.tile(model.m0, (3, 1))
        np.testing.assert_array_equal(path.states[-1], euler_step(start, 0.0, model, h, draw))

    def test_blowup_names_first_block(self):
        model = linear_model(LinearParams(), 4)
        state = np.ones((4, 1))
        state[2, 0] = np.inf
        with pytest.raises(NumericalBlowupError) as err:
            euler_step(state, 0.0, model, 0.01, np.zeros((4, 1)))
        assert (err.value.block_index, err.value.sample_index) == (3, 0)

    @pytest.mark.parametrize("h", [0.0, -0.01, math.nan, math.inf, -math.inf])
    def test_step_must_be_positive_and_finite(self, h):
        model = linear_model(LinearParams(), 4)
        with pytest.raises(ContractViolationError, match="h must be finite and positive"):
            euler_step(np.ones((4, 1)), 0.0, model, h, np.zeros((4, 1)))


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

    @pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(1.0), "1", None, True, -1, 2**64])
    def test_seed_must_be_a_64_bit_integer(self, seed):
        # 1.5 used to run as seed 1, bit for bit
        with pytest.raises(ContractViolationError, match="master_seed"):
            IntegratorConfig(step_size=1e-2, t_end=5e-2, master_seed=seed)

    def test_numpy_integer_seeds_and_indices_are_accepted(self):
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=1e-2, t_end=5e-2, master_seed=1)
        expected = simulate_ensemble(model, cfg, 3).samples
        numpy_cfg = IntegratorConfig(step_size=1e-2, t_end=5e-2, master_seed=np.uint64(1))
        assert type(numpy_cfg.master_seed) is int
        assert np.array_equal(simulate_ensemble(model, numpy_cfg, 3).samples, expected)
        streams = [(np.uint64(1), np.int64(j)) for j in range(3)]
        assert np.array_equal(simulate_ensemble(model, cfg, 3, streams=streams).samples, expected)

    def test_step_count_beyond_float_range_is_rejected(self):
        # 1e10 / 1e-302 overflows to inf, which has no whole count to round
        # to: dividing_step keeps its cap and the config refuses the pair
        h = integrator.dividing_step(1e10, 1e-302)
        assert h == 1e-302
        with pytest.raises(ContractViolationError, match="integer step count"):
            IntegratorConfig(step_size=h, t_end=1e10, master_seed=0)


@pytest.mark.parametrize(
    "span, cap, expected",
    [
        (0.0, 0.3, 0.3),  # zero steps of any length cover a zero span
        (1.0, 0.25, 0.25),  # an exact multiple keeps the cap
        (0.3, 0.1, 0.1),  # 2.9999999999999996 steps: whole within 1e-9
        (0.2, 0.5, 0.2),  # a cap at or above the span takes one step
        (0.2, 0.2, 0.2),
        (1.0, 0.3, 0.25),  # 3.33 steps round up to 4
        (5e-4, 1.2e-4, 1e-4),  # 4.17 steps round up to 5
        # a span outside [0, inf) keeps the cap, for the run check to reject
        (-5e-5, 1e-4, 1e-4),
        (-1.5e-4, 1e-4, 1e-4),
        (-math.inf, 0.1, 0.1),
        (math.nan, 0.1, 0.1),
    ],
)
def test_dividing_step(span, cap, expected):
    h = integrator.dividing_step(span, cap)
    assert h == expected and h <= cap
    if span >= 0:
        IntegratorConfig(step_size=h, t_end=span, master_seed=0)  # a whole step count
    else:
        with pytest.raises(ContractViolationError, match="t_end"):
            IntegratorConfig(step_size=h, t_end=span, master_seed=0)


class TestSimulatePath:
    def test_t_end_zero_returns_initial_state_only(self):
        model = linear_model(LinearParams(), 4, m0=1.5)
        cfg = IntegratorConfig(step_size=0.01, t_end=0.0, master_seed=3)
        result = simulate_path(model, cfg)
        assert result.times.tolist() == [0.0]
        np.testing.assert_array_equal(result.states, np.full((1, 4, 1), 1.5))

    def test_no_output_times_give_an_empty_path(self):
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=0.01, t_end=0.05, master_seed=3)
        result = simulate_path(model, cfg, output_times=[])
        assert result.times.shape == (0,)
        assert result.states.shape == (0, 4, 1)

    def test_bit_identical_reruns(self):
        model = linear_model(LinearParams(a=1.0, d_u=2.0, w=1.0), 8)
        cfg = IntegratorConfig(step_size=1e-3, t_end=0.25, master_seed=99)
        a = simulate_path(model, cfg)
        b = simulate_path(model, cfg)
        assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("t", [0.005, 1.01, -0.01, math.nan, math.inf, -math.inf])
    def test_output_times_must_hit_the_grid(self, t):
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=0.01, t_end=1.0, master_seed=3)
        with pytest.raises(ContractViolationError, match="output time"):
            simulate_path(model, cfg, output_times=[t])
        with pytest.raises(ContractViolationError, match="output time"):
            simulate_ensemble(model, cfg, 2, output_times=[0.5, t])

    def test_ou_variance_matches_closed_form(self):
        """Scalar Ornstein-Uhlenbeck: E u(1)^2 = sigma^2 (1 - e^-2) / (2a)."""
        model = linear_model(LinearParams(a=1.0, d_u=0.0, w=0.0, sigma_u=0.5), 3)
        cfg = IntegratorConfig(step_size=1e-3, t_end=1.0, master_seed=2718)
        ens = simulate_ensemble(model, cfg, 10_000)
        u1_sq = ens.samples[:, 0, 0] ** 2
        target = 0.10808308959542341  # 0.25 (1 - e^-2) / 2
        se = u1_sq.std(ddof=1) / np.sqrt(len(u1_sq))
        assert abs(u1_sq.mean() - target) < 3 * se

    def test_path_output_time_zero_is_the_start(self):
        model = linear_model(LinearParams(a=1.0, d_u=1.0, w=0.5), 8, m0=2.0)
        cfg = IntegratorConfig(step_size=1e-3, t_end=0.02, master_seed=4)
        start = simulate_path(model, cfg, output_times=[0.0])
        assert start.times.tolist() == [0.0]
        np.testing.assert_array_equal(start.states, np.full((1, 8, 1), 2.0))
        both = simulate_path(model, cfg, output_times=[0.0, 0.02])
        np.testing.assert_array_equal(both.states[0], start.states[0])
        np.testing.assert_array_equal(both.states[1], simulate_path(model, cfg).states[0])
        assert not both.states.flags.writeable

    def test_path_blowup_reports_exact_step(self):
        # the noise alone decides when each block crosses: block 3 first goes
        # non-finite at step 14 and block 2 at step 26, both inside the path's
        # one noise block, so the failing check at its end re-steps the block
        h, seed = 1e-3, 1
        model = _ramp_model(0.1, sigma=1.0)
        cfg = IntegratorConfig(step_size=h, t_end=40 * h, master_seed=seed)
        history = _drawn_up_front(model, cfg, _streams(seed, 1))
        time, sample, block = _first_blowup(history, h)
        assert (round(time / h), sample, block) == (14, 0, 3)
        assert _first_blowup(history[..., :2, :], h)[0] == 26 * h
        with pytest.raises(NumericalBlowupError) as err:
            simulate_path(model, cfg)
        assert err.value.time == time
        assert err.value.block_index == block
        assert err.value.sample_index == 0


class TestSimulateEnsemble:
    def test_single_sample_equals_path(self):
        model = linear_model(LinearParams(a=1.0, d_u=1.0, w=0.5), 8)
        cfg = IntegratorConfig(step_size=1e-3, t_end=0.1, master_seed=7)
        times = [0.0, 0.04, 0.04, 0.1]
        states = simulate_ensemble(model, cfg, 1, output_times=times)
        path = simulate_path(model, cfg, output_times=times)
        assert len(path.times) == len(path.states) == len(states) == 4
        for t, snapshot, state in zip(path.times, path.states, states):
            assert t == state.time
            assert np.array_equal(snapshot, state.samples[0])
        assert not path.states.flags.writeable

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
        # 8-step blocks (the floor) and 12-step blocks, with output times
        # inside blocks, against the default 256-step blocks
        model = fhn_model(regime("regime-c").params, 16)
        cfg = IntegratorConfig(step_size=1e-4, t_end=50e-4, master_seed=3)
        times = [0.0, 9e-4, 20e-4, 50e-4]
        expected = simulate_ensemble(model, cfg, 8, output_times=times)
        monkeypatch.setattr(integrator, "_NOISE_BUDGET", budget)
        states = simulate_ensemble(model, cfg, 8, output_times=times)
        for got, want in zip(states, expected):
            assert np.array_equal(got.samples, want.samples)

    @pytest.mark.parametrize(
        "model, h",
        [
            (fhn_model(regime("regime-c").params, 16), 1e-4),
            (linear_model(LinearParams(a=1.0, d_u=1.0, w=0.5), 16), 1e-3),
        ],
        ids=["fhn-regime-c", "linear"],
    )
    def test_chunk_size_does_not_change_results(self, monkeypatch, model, h):
        # both models couple by diffusion and mean field; chunks of 1, 7 and
        # all K samples against the default 256 (two chunks of 150)
        cfg = IntegratorConfig(step_size=h, t_end=40 * h, master_seed=11)
        times = [15 * h, 40 * h]
        expected = simulate_ensemble(model, cfg, 300, n_workers=2, output_times=times)
        for chunk in (1, 7, 300):
            monkeypatch.setattr(integrator, "_CHUNK_SAMPLES", chunk)
            states = simulate_ensemble(model, cfg, 300, n_workers=2, output_times=times)
            for got, want in zip(states, expected):
                assert got.samples.tobytes() == want.samples.tobytes(), (chunk, got.time)

    @pytest.mark.parametrize(
        "values, sizes", [(100, [1] * 9), (512, [2, 2, 2, 2, 1]), (2**15, [9])]
    )
    def test_chunk_value_cap_does_not_change_results(self, monkeypatch, values, sizes):
        # at N=128, q=2 a sample holds 256 lattice values: a cap of 100 values
        # still takes one sample per chunk, 512 takes two and 2**15 all nine;
        # each against one chunk under a cap no lattice reaches
        model = fhn_model(regime("regime-c").params, 128)
        cfg = IntegratorConfig(step_size=1e-5, t_end=30e-5, master_seed=15)
        times = [7e-5, 30e-5]
        monkeypatch.setattr(integrator, "_CHUNK_VALUES", 2**40)
        expected = simulate_ensemble(model, cfg, 9, n_workers=2, output_times=times)
        chunks, advance = [], integrator._advance

        def record(model, config, state, *args):
            chunks.append(state.shape[0])
            return advance(model, config, state, *args)

        monkeypatch.setattr(integrator, "_advance", record)
        monkeypatch.setattr(integrator, "_CHUNK_VALUES", values)
        states = simulate_ensemble(model, cfg, 9, n_workers=2, output_times=times)
        assert chunks == sizes
        for got, want in zip(states, expected):
            assert got.samples.tobytes() == want.samples.tobytes(), got.time

    def test_workers_share_one_noise_budget(self, monkeypatch):
        # two helper threads, on three cores, and the stepper fill one noise
        # array of 2**20 doubles (8 MiB): its two buffers, the one being
        # stepped and the one being drawn, hold 4 MiB each; a full budget per
        # thread or per buffer would pass 12 MiB
        monkeypatch.setattr(integrator, "_NOISE_BUDGET", 2**20)
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 3)
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

    @pytest.mark.parametrize(
        "streams, match",
        [
            ([(1, 0), (1, 1)], "one stream per sample"),
            ([(1, 0), (2, 0), (1, 0)], "distinct"),
            ([(1, 0), (2**64, 1), (1, 2)], "seed"),
            ([(1, 0), (-1, 1), (1, 2)], "seed"),
            ([(1, 0), (1, -1), (1, 2)], "index"),
            ([(1.9, 0), (1, 1), (1, 2)], "seed"),
            ([(1, 0), (1, 1.0), (1, 2)], "index"),
            ([(1, 0), (1, 1), (1, np.float64(2.0))], "index"),
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

    def test_noise_is_scaled_on_the_stepping_thread_once_per_block(self, monkeypatch):
        # two chunks of 150 samples, two threads drawing, 12-step blocks over
        # 50 steps: each chunk's noise is scaled in five whole blocks, all on
        # the calling thread, and the drawing threads only draw
        n, size, block = 16, 150, 12
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(integrator, "_NOISE_BUDGET", block * 2 * size * n * 2)
        model = fhn_model(regime("regime-c").params, n)
        cfg = IntegratorConfig(step_size=1e-4, t_end=50e-4, master_seed=4)
        expected = simulate_ensemble(model, cfg, 2 * size, n_workers=2)
        scaling, calls = integrator._noise_scaling, []

        def recording(model, h):
            scale = scaling(model, h)

            def record(noise):
                calls.append((threading.get_ident(), noise.shape))
                return scale(noise)

            return record

        monkeypatch.setattr(integrator, "_noise_scaling", recording)
        got = simulate_ensemble(model, cfg, 2 * size, n_workers=2)
        assert got.samples.tobytes() == expected.samples.tobytes()
        blocks = [(size, block, n, 2)] * 4 + [(size, 2, n, 2)]
        assert calls == [(threading.get_ident(), shape) for shape in 2 * blocks]

    def test_shared_row_drawing_survives_frequent_thread_switches(self, monkeypatch):
        # three drawing threads beside the stepper on four cores, and the interpreter
        # switching threads every microsecond: a row taken twice or skipped
        # would shift or garble a stream and break the equality
        model = linear_model(LinearParams(a=1.0, d_u=1.0, w=0.5), 4)
        cfg = IntegratorConfig(step_size=1e-3, t_end=40e-3, master_seed=11)
        monkeypatch.setattr(integrator, "_NOISE_BUDGET", 2**10)  # 8-step blocks
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 4)
        expected = _drawn_up_front(model, cfg, _streams(11, 600))[-1]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = simulate_ensemble(model, cfg, 600, n_workers=3)
                assert np.array_equal(got.samples, expected)
        finally:
            sys.setswitchinterval(interval)

    def test_chunks_reuse_noise_slots_under_frequent_thread_switches(self, monkeypatch):
        # five chunks of 240 stepped in turn on the one noise array, three
        # helper threads drawing into it: a draw of one chunk still running when the
        # next chunk reuses the array would mix their noise and break the
        # equality
        model = linear_model(LinearParams(a=1.0, d_u=1.0, w=0.5), 4)
        cfg = IntegratorConfig(step_size=1e-3, t_end=40e-3, master_seed=12)
        monkeypatch.setattr(integrator, "_NOISE_BUDGET", 2**10)  # 8-step blocks
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 4)
        expected = _drawn_up_front(model, cfg, _streams(12, 1200))[-1]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = simulate_ensemble(model, cfg, 1200, n_workers=3)
                assert np.array_equal(got.samples, expected)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize(
        "make_model",
        [
            lambda: fhn_model(regime("regime-c").params, 8),
            lambda: fhn_model(regime("regime-f").params, 8),
            lambda: linear_model(LinearParams(a=1.0, d_u=1.0, w=0.5), 8),
            lambda: _non_diagonal_model(8),
        ],
        ids=["regime-c", "regime-f", "linear", "non-diagonal-sigma"],
    )
    def test_kernel_matches_noise_drawn_up_front(self, make_model, n_workers):
        # 300 samples run in two chunks of 150; the kernel scales each drawn
        # block once, the reference multiplies every step's noise by np.matmul
        model = make_model()
        cfg = IntegratorConfig(step_size=1e-4, t_end=30e-4, master_seed=21)
        got = simulate_ensemble(model, cfg, 300, n_workers=n_workers)
        expected = _drawn_up_front(model, cfg, _streams(21, 300))[-1]
        assert got.samples.tobytes() == expected.tobytes()

    def test_diagonal_sigma_scales_noise_without_matmul(self, monkeypatch):
        calls = []
        matmul = np.matmul

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        cfg = IntegratorConfig(step_size=1e-4, t_end=20e-4, master_seed=2)
        simulate_ensemble(fhn_model(regime("regime-c").params, 16), cfg, 300, n_workers=2)
        simulate_path(linear_model(LinearParams(), 4), cfg)
        euler_step(np.zeros((16, 2)), 0.0, fhn_model(FhnParams(), 16), 1e-4, np.ones((16, 2)))
        assert calls == []
        # the wrapper does see the kernel's matmul, which a general sigma takes
        simulate_ensemble(_non_diagonal_model(), cfg, 4)
        assert calls

    @pytest.mark.parametrize(
        "model",
        [fhn_model(regime("regime-c").params, 16), linear_model(LinearParams(), 16)],
        ids=["fhn", "linear"],
    )
    def test_diagonal_and_general_noise_scaling_agree_bitwise(self, model):
        # the diagonal branch only saves time: for a diagonal sigma both
        # forms give the same bits, so which one runs never shows in a result
        h = 1e-4
        rows = np.random.default_rng(9).standard_normal((30, 16, model.block_dim))
        scale = math.sqrt(h) * model.sigma.T
        diagonal, general = rows.copy(), rows.copy()
        integrator._noise_scaling(model, h)(diagonal)
        np.matmul(general, scale, out=general)  # the general form, in place
        assert diagonal.tobytes() == general.tobytes() == (rows @ scale).tobytes()

    def test_snapshots_along_the_way(self):
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=0.01, t_end=0.1, master_seed=5)
        states = simulate_ensemble(model, cfg, 3, output_times=[0.0, 0.05, 0.1])
        assert [s.time for s in states] == [0.0, 0.05, 0.1]
        final = simulate_ensemble(model, cfg, 3)
        np.testing.assert_array_equal(states[-1].samples, final.samples)

    @pytest.mark.parametrize(
        "budget", [None, 2**10, 21_600], ids=["one-block", "8-step", "12-step"]
    )
    def test_ensemble_blowup_reports_exact_step_sample_and_block(self, monkeypatch, budget):
        # 300 samples run in chunks of 150, 2 threads drawing: a budget of 2**10
        # doubles gives 8-step noise blocks (the floor), 21,600 gives 12-step
        # blocks, and the default takes all 30 steps in one block
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 2)
        if budget is not None:
            monkeypatch.setattr(integrator, "_NOISE_BUDGET", budget)
        h, seed, k = 1e-3, 2, 300
        model = _ramp_model(0.55, sigma=1.0)
        cfg = IntegratorConfig(step_size=h, t_end=30 * h, master_seed=seed)
        history = _drawn_up_front(model, cfg, _streams(seed, k))
        time, sample, block = _first_blowup(history, h)
        # preconditions of the scenario: the noise alone decides who crosses,
        # a sample past 256, in the second chunk however the 300 samples are
        # cut; exactly one block of one sample crosses within the horizon, and
        # its first non-finite step falls inside a later block for 8-step and
        # for 12-step blocks
        step = round(time / h)
        assert sample >= 256 and np.isfinite(history[-1]).sum() == history[-1].size - 1
        assert step > 12 and step % 8 and step % 12
        with pytest.raises(NumericalBlowupError) as err:
            simulate_ensemble(model, cfg, k, n_workers=2)
        assert err.value.time == time
        assert err.value.sample_index == sample
        assert err.value.block_index == block
        # the index points into the call's streams, whatever their order
        reverse = _streams(seed, k)[::-1]
        with pytest.raises(NumericalBlowupError) as err:
            simulate_ensemble(model, cfg, k, n_workers=2, streams=reverse)
        assert (err.value.time, err.value.sample_index) == (time, k - 1 - sample)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_ensemble_blowup_reports_the_earliest_of_all_chunks(self, monkeypatch, n_workers):
        # two chunks of 150 both blow up: sample 125 first goes non-finite at
        # step 30, sample 270 already at step 28, so the later chunk holds the
        # ensemble's earliest blow-up whichever chunk finishes first
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 2)
        h, seed, k = 1e-3, 2, 300
        model = _ramp_model(0.5, sigma=1.0)
        cfg = IntegratorConfig(step_size=h, t_end=40 * h, master_seed=seed)
        history = _drawn_up_front(model, cfg, _streams(seed, k))
        assert _first_blowup(history, h) == (28 * h, 270, 3)
        assert _first_blowup(history[:, :150], h)[:2] == (30 * h, 125)
        with pytest.raises(NumericalBlowupError) as err:
            simulate_ensemble(model, cfg, k, n_workers=n_workers)
        assert (err.value.time, err.value.sample_index, err.value.block_index) == (28 * h, 270, 3)
        reverse = _streams(seed, k)[::-1]
        with pytest.raises(NumericalBlowupError) as err:
            simulate_ensemble(model, cfg, k, n_workers=n_workers, streams=reverse)
        assert (err.value.time, err.value.sample_index) == (28 * h, k - 1 - 270)

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

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"n_samples": 2.5}, "n_samples"),
            ({"n_samples": 2.0}, "n_samples"),
            ({"n_samples": True}, "n_samples"),
            ({"n_samples": "3"}, "n_samples"),
            ({"n_workers": 1.5}, "n_workers"),
            ({"n_workers": True}, "n_workers"),
            ({"n_workers": np.float64(2.0)}, "n_workers"),
        ],
    )
    def test_counts_must_be_integers_before_anything_is_allocated(
        self, monkeypatch, kwargs, name
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before checking the counts")

        monkeypatch.setattr(integrator, "_array_shapes", refuse)
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=0.01, t_end=0.05, master_seed=1)
        args = {"n_samples": 4, "n_workers": 1, **kwargs}
        with pytest.raises(ContractViolationError, match=f"{name} must be an integer"):
            simulate_ensemble(model, cfg, **args)

    def test_numpy_integer_counts_are_accepted(self):
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=0.01, t_end=0.05, master_seed=1)
        expected = simulate_ensemble(model, cfg, 3).samples
        got = simulate_ensemble(model, cfg, np.int64(3), n_workers=np.uint8(2)).samples
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n_workers", [0, -2])
    def test_worker_count_must_be_positive(self, n_workers):
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=0.01, t_end=0.05, master_seed=1)
        with pytest.raises(ContractViolationError, match="n_workers"):
            simulate_ensemble(model, cfg, 4, n_workers=n_workers)

    def test_drawing_threads_are_capped_by_cores(self, monkeypatch):
        helpers = []
        advance = integrator._advance

        def record(*args):
            helpers.append(args[-1])
            return advance(*args)

        monkeypatch.setattr(integrator, "_advance", record)
        model = linear_model(LinearParams(), 4)
        cfg = IntegratorConfig(step_size=0.01, t_end=0.02, master_seed=1)

        def drawing_threads(n_workers, n_samples=4):
            helpers.clear()
            simulate_ensemble(model, cfg, n_samples, n_workers=n_workers)
            assert len(set(helpers)) == 1
            return helpers[0]

        # one helper per core the stepper leaves, at least one
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 2)
        assert drawing_threads(32, 600) == 1
        assert drawing_threads(32) == 1
        assert drawing_threads(1, 600) == 1
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 1)
        assert drawing_threads(8) == 1
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: None)
        assert drawing_threads(8) == 1
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 3)
        assert drawing_threads(8) == 2
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 64)
        assert drawing_threads(8) == 8
        with pytest.raises(ContractViolationError, match="n_workers"):
            drawing_threads(0)

    def test_one_thread_steps_every_chunk(self, monkeypatch):
        # 600 samples run in three chunks of 200 with two helper threads and
        # the stepper drawing noise; every step of every chunk runs on the
        # calling thread
        idents = set()
        step = integrator._step

        def record(*args):
            idents.add(threading.get_ident())
            return step(*args)

        monkeypatch.setattr(integrator, "_step", record)
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 3)
        model = linear_model(LinearParams(a=1.0, d_u=1.0, w=0.5), 4)
        cfg = IntegratorConfig(step_size=1e-3, t_end=20e-3, master_seed=13)
        simulate_ensemble(model, cfg, 600, n_workers=3)
        assert idents == {threading.get_ident()}

    def test_peak_memory_is_one_result_one_noise_array_and_the_chunks(self, monkeypatch):
        # 1024 samples in four chunks of 256, 2 threads drawing, snapshot at
        # all 33 steps: the 4.1 MiB result outweighs the 0.5 MiB noise array
        # (8-step blocks), so a second copy of the result would break the bound
        monkeypatch.setattr(integrator, "_NOISE_BUDGET", 2**16)
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 2)
        model = fhn_model(regime("regime-c").params, 8)
        h, k, steps, workers, size = 1e-4, 1024, 32, 2, 256
        cfg = IntegratorConfig(step_size=h, t_end=steps * h, master_seed=8)
        times = [s * h for s in range(steps + 1)]
        doubles = 8 * 2  # N * q
        result = 8 * len(times) * k * doubles
        noise = 8 * 2 * size * 8 * doubles
        chunk = 8 * 3 * size * doubles  # state, scratch, saved block start
        assert result > 4 * noise
        tracemalloc.start()
        try:
            states = simulate_ensemble(model, cfg, k, n_workers=workers, output_times=times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(states) == len(times)
        assert peak <= result + noise + chunk + 2**20

    def test_peak_memory_at_the_fhn_benchmark_shape_holds_an_8_mib_noise_array(
        self, monkeypatch
    ):
        # regime-c at N=128, 512 samples in four chunks of 128 (2**15 lattice
        # values each), two cores, at the default budget: the noise array is
        # 2**20 doubles (16-step blocks).  Two 256-sample chunks (1.5 MiB of
        # state and scratch) or 32-step blocks (2**21 doubles) would pass the
        # bound, whose last MiB leaves room for the drift's temporaries
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 2)
        n, k, size, steps, h = 128, 512, 128, 48, 1e-5
        model = fhn_model(regime("regime-c").params, n)
        cfg = IntegratorConfig(step_size=h, t_end=steps * h, master_seed=24)
        chunks, advance = [], integrator._advance

        def record(model, config, state, gens, out_steps, out, buffers, *args):
            chunks.append((state.shape[0], buffers.shape))
            return advance(model, config, state, gens, out_steps, out, buffers, *args)

        monkeypatch.setattr(integrator, "_advance", record)
        result = 8 * k * n * 2
        noise = 8 * 2**20
        chunk = 8 * 3 * size * n * 2  # state, scratch, saved block start
        tracemalloc.start()
        try:
            simulate_ensemble(model, cfg, k, n_workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks == [(size, (2, size, 16, n, 2))] * 4
        assert peak <= result + noise + chunk + 2**20

    def test_ensemble_state_keeps_a_read_only_array_and_copies_a_writeable_one(self):
        samples = np.arange(24.0).reshape(4, 3, 2)
        copied = EnsembleState(samples, 0.0)
        assert not np.shares_memory(copied.samples, samples)
        assert not copied.samples.flags.writeable and samples.flags.writeable
        samples.flags.writeable = False
        shared = EnsembleState(samples, 0.0)
        assert shared.samples is samples
        view = EnsembleState(shared.samples[1:3], 0.0)
        assert np.shares_memory(view.samples, samples)

    def test_duplicate_output_times_give_equal_separate_snapshots(self):
        model = fhn_model(regime("regime-c").params, 16)
        cfg = IntegratorConfig(step_size=1e-4, t_end=30e-4, master_seed=6)
        states = simulate_ensemble(model, cfg, 300, n_workers=2, output_times=[10e-4, 10e-4, 30e-4])
        alone = simulate_ensemble(model, cfg, 300, output_times=[10e-4, 30e-4])
        assert [s.time for s in states] == [10e-4, 10e-4, 30e-4]
        assert np.array_equal(states[0].samples, states[1].samples)
        assert np.array_equal(states[1].samples, alone[0].samples)
        assert np.array_equal(states[2].samples, alone[1].samples)
        assert not np.shares_memory(states[0].samples, states[1].samples)
        assert not any(s.samples.flags.writeable for s in states)

    def test_preflight_refuses_a_call_beyond_physical_memory(self, monkeypatch):
        # 1000 samples run in four chunks of 250, one at a time; a 2**10-double
        # budget is below the 8-step floor, so the noise array counts 8 steps
        def refuse(*args, **kwargs):
            raise AssertionError("stepped past the memory check")

        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(integrator, "_NOISE_BUDGET", 2**10)
        monkeypatch.setattr(integrator, "_advance", refuse)
        model = fhn_model(regime("regime-c").params, 16)
        cfg = IntegratorConfig(step_size=1e-4, t_end=20e-4, master_seed=1)
        result = 8 * 2 * 1000 * 16 * 2
        noise = 8 * 2 * 250 * 8 * 16 * 2
        chunk = 8 * 3 * 250 * 16 * 2
        need = result + noise + chunk
        monkeypatch.setattr(integrator, "_physical_memory", lambda: need - 1)
        with pytest.raises(ContractViolationError, match=f"needs {need} bytes.* {need - 1} bytes"):
            simulate_ensemble(model, cfg, 1000, n_workers=2, output_times=[0.0, 20e-4])
        # the check comes before the streams are built or checked
        with pytest.raises(ContractViolationError, match="physical memory"):
            simulate_ensemble(model, cfg, 1000, 2, [0.0, 20e-4], streams=[(1, 0)])
        monkeypatch.setattr(integrator, "_physical_memory", lambda: 2**10)
        with pytest.raises(ContractViolationError, match="physical memory"):
            simulate_path(model, cfg)
        # exactly enough memory passes
        monkeypatch.setattr(integrator, "_physical_memory", lambda: need)
        with pytest.raises(AssertionError, match="stepped past"):
            simulate_ensemble(model, cfg, 1000, n_workers=2, output_times=[0.0, 20e-4])
        # a platform that cannot tell its memory skips the check
        monkeypatch.setattr(integrator, "_physical_memory", lambda: None)
        with pytest.raises(AssertionError, match="stepped past"):
            simulate_ensemble(model, cfg, 1000, n_workers=2)

    @pytest.mark.slow
    def test_large_fhn_ensemble_runs_to_completion(self):
        # strongly mixed regime, 8192 samples, all states finite at t=5
        model = fhn_model(regime("diffusion-strongly-mixed").params, 16)
        cfg = IntegratorConfig(step_size=1e-3, t_end=5.0, master_seed=888)
        ens = simulate_ensemble(model, cfg, 8192, n_workers=2)
        assert np.isfinite(ens.samples).all()
        assert ens.samples.shape == (8192, 16, 2)
