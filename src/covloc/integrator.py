"""Reproducible Euler-Maruyama stepping for single paths and parallel ensembles.

Reproducibility contract: sample j's entire noise stream is a pure function
of (master_seed, j), realized by a counter-based Philox generator keyed with
the pair.  Results are therefore bit-identical across worker counts and
execution orders; reductions over samples happen in fixed index order.

One kernel, ``_advance``, steps a (C, N, q) block of samples in place: on
chunks of _CHUNK_SAMPLES samples across min(n_workers, chunks, os.cpu_count())
threads for ensembles, on one sample for ``simulate_path``.  ``euler_step``
takes one step with the same step function; blow-ups: see ``_advance``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lattice import ContractViolationError, LatticeModelSpec

SAMPLE_INITIAL_LAW = "sample-initial-law"

# Finite-ness is checked every _CHECK_EVERY steps and at the end of each noise
# block; NaNs and infs persist under the update, so nothing escapes detection.
_CHECK_EVERY = 8
# Noise is pre-generated in blocks of steps sized to keep the buffer small;
# block size never affects results (each sample is one continuous stream).
_NOISE_BUDGET = 8_000_000  # doubles per buffer
_CHUNK_SAMPLES = 256


class NumericalBlowupError(RuntimeError):
    """A state or drift evaluation left the finite range."""

    def __init__(self, time: float, block_index: int, sample_index: int | None = None):
        self.time = time
        self.block_index = block_index
        self.sample_index = sample_index
        where = f"block {block_index}"
        if sample_index is not None:
            where = f"sample {sample_index}, " + where
        super().__init__(f"non-finite state at t={time:.6g} ({where}); reduce the step size")


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon, and the master seed all randomness derives from."""

    step_size: float
    t_end: float
    master_seed: int

    def __post_init__(self):
        if self.step_size <= 0:
            raise ContractViolationError(f"step_size must be positive, got {self.step_size}")
        if self.t_end < 0:
            raise ContractViolationError(f"t_end must be nonnegative, got {self.t_end}")
        if not (0 <= int(self.master_seed) < 2**64):
            raise ContractViolationError("master_seed must fit in 64 unsigned bits")
        ratio = self.t_end / self.step_size
        if abs(ratio - round(ratio)) > 1e-9:
            raise ContractViolationError(
                f"t_end/step_size = {ratio!r} is not an integer step count"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.step_size))


@dataclass(frozen=True)
class EnsembleState:
    """K independent lattice states at a common time, with seed provenance."""

    samples: np.ndarray  # (K, N, q), read-only
    time: float
    seeds: tuple[int, ...]

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 3:
            raise ContractViolationError(f"samples must be (K, N, q), got {samples.shape}")
        if len(self.seeds) != samples.shape[0]:
            raise ContractViolationError("one derived seed per sample is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ContractViolationError("derived seeds must be pairwise distinct")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def component(self, c: int = 1) -> np.ndarray:
        """(K, N) view of one block component, 1-based."""
        return self.samples[:, :, c - 1]


def sample_stream_key(master_seed: int, sample_index: int) -> int:
    """128-bit Philox key for one sample: (master_seed << 64) | sample_index."""
    return (int(master_seed) << 64) | int(sample_index)


def _sample_generator(master_seed: int, sample_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=sample_stream_key(master_seed, sample_index)))


def _require_finite(state: np.ndarray, time: float, sample_lo: int | None = None) -> None:
    """Name the first non-finite entry of a (C, N, q) state, if any."""
    bad = ~np.isfinite(state)
    if bad.any():
        sample, block, _ = np.argwhere(bad)[0]
        local = None if sample_lo is None else sample_lo + int(sample)
        raise NumericalBlowupError(time, int(block) + 1, local)


def _step(model: LatticeModelSpec, state, noise, h, noise_scale, work) -> None:
    """state += h * drift(state) + noise @ noise_scale in place, via scratch ``work``."""
    model.drift(state, work)
    work *= h
    state += work
    np.matmul(noise, noise_scale, out=work)
    state += work


def euler_step(
    state: np.ndarray,
    t: float,
    model: LatticeModelSpec,
    h: float,
    noise: np.ndarray,
) -> np.ndarray:
    """One explicit Euler-Maruyama step for a single (N, q) lattice state.

    ``noise`` is an (N, q) standard normal draw; returns state + h * drift +
    sqrt(h) * noise @ sigma^T by the kernel's step function.  Deterministic
    given (state, noise); ``t`` only dates a blow-up report.
    """
    if h <= 0:
        raise ContractViolationError(f"h must be positive, got {h}")
    state = np.array(state, dtype=float)
    noise = np.asarray(noise, dtype=float)
    expected = (model.n_blocks, model.block_dim)
    if state.shape != expected or noise.shape != expected:
        raise ContractViolationError(
            f"state and noise must have shape {expected}, got {state.shape} and {noise.shape}"
        )
    _require_finite(state[None], t)
    with np.errstate(over="ignore", invalid="ignore"):
        _step(model, state, noise, h, math.sqrt(h) * model.sigma.T, np.empty_like(state))
    _require_finite(state[None], t + h)
    return state


@dataclass(frozen=True)
class PathResult:
    """States of one path captured at the requested output times."""

    times: np.ndarray  # (T,)
    states: np.ndarray  # (T, N, q)


def _resolve_output_steps(config: IntegratorConfig, output_times) -> list[int]:
    if output_times is None:
        output_times = [config.t_end]
    steps = []
    for t in output_times:
        ratio = t / config.step_size if config.step_size else 0.0
        k = int(round(ratio))
        if abs(ratio - k) > 1e-9 or not (0 <= k <= config.n_steps):
            raise ContractViolationError(
                f"output time {t} is not a multiple of h within [0, t_end]"
            )
        steps.append(k)
    if steps != sorted(steps):
        raise ContractViolationError("output times must be nondecreasing")
    return steps


def _initial_state(model, gen, initial):
    n, q = model.n_blocks, model.block_dim
    if isinstance(initial, str):
        if initial != SAMPLE_INITIAL_LAW:
            raise ContractViolationError(f"unknown initial condition {initial!r}")
        zeta = gen.standard_normal((n, q))
        return model.m0 + zeta @ model.sigma0.T
    state = np.asarray(initial, dtype=float)
    if state.shape != (n, q):
        raise ContractViolationError(f"initial state must be ({n}, {q}), got {state.shape}")
    return state.copy()


def simulate_path(
    model: LatticeModelSpec,
    config: IntegratorConfig,
    initial=SAMPLE_INITIAL_LAW,
    output_times=None,
) -> PathResult:
    """Integrate one path; a deterministic function of (model, config, initial).

    ``initial`` is an (N, q) array or the literal "sample-initial-law", in
    which case the initial state is drawn from N(m0, sigma0 sigma0^T) using
    the path's own stream (master_seed, 0), so a path is sample 0 of the
    ensemble with the same config.  Output times must be multiples of h.
    """
    out_steps = _resolve_output_steps(config, output_times)
    gen = _sample_generator(config.master_seed, 0)
    state = _initial_state(model, gen, initial)[None]
    snapshots = _advance(model, config, state, [gen], set(out_steps))
    times = np.array([s * config.step_size for s in out_steps])
    states = np.concatenate([snapshots[s] for s in out_steps]) if out_steps else state[:0]
    return PathResult(times=times, states=states)


def _advance(model, config, state, gens, snapshot_steps, sample_lo=None):
    """The stepping kernel: advance the (C, N, q) block ``state`` in place
    to t_end, sample c drawing its noise from ``gens[c]``; returns
    {step: copy of the state} for ``snapshot_steps``.

    The next noise block is drawn on a helper thread while the current one
    is stepped.  The state is saved at each passing finite check; a failed
    check re-steps from there with the same buffered noise, checking every
    step, and reports sample ``sample_lo`` + c (None for a single path).
    Checking at each block's end keeps that replay within one noise block.
    """
    count, n, q = state.shape
    h, n_steps = config.step_size, config.n_steps
    block_steps = max(1, min(256, _NOISE_BUDGET // (count * n * q)))
    noise_scale = math.sqrt(h) * model.sigma.T
    work = np.empty_like(state)

    _require_finite(state, 0.0, sample_lo)
    checked, checked_step = state.copy(), 0
    snapshots = {0: state.copy()} if 0 in snapshot_steps else {}

    def generate(steps):
        buf = np.empty((count, steps, n, q))
        for c, gen in enumerate(gens):
            gen.standard_normal(out=buf[c])
        return buf

    with ThreadPoolExecutor(max_workers=1) as prefetch, np.errstate(
        over="ignore", invalid="ignore"
    ):
        pending = prefetch.submit(generate, min(block_steps, n_steps)) if n_steps else None
        for lo in range(0, n_steps, block_steps):
            hi = min(lo + block_steps, n_steps)
            noise = pending.result()
            pending = prefetch.submit(generate, min(block_steps, n_steps - hi)) if hi < n_steps else None
            for k in range(lo + 1, hi + 1):
                _step(model, state, noise[:, k - lo - 1], h, noise_scale, work)
                if k % _CHECK_EVERY == 0 or k == hi:
                    if not np.isfinite(state).all():
                        np.copyto(state, checked)
                        for j in range(checked_step + 1, k + 1):
                            _step(model, state, noise[:, j - lo - 1], h, noise_scale, work)
                            _require_finite(state, j * h, sample_lo)
                    np.copyto(checked, state)
                    checked_step = k
                if k in snapshot_steps:
                    snapshots[k] = state.copy()
    return snapshots


def _pool_size(n_workers: int, n_chunks: int) -> int:
    """Worker threads: each in-flight chunk holds two noise buffers."""
    if n_workers < 1:
        raise ContractViolationError(f"n_workers must be >= 1, got {n_workers}")
    return min(n_workers, n_chunks, os.cpu_count() or 1)


def simulate_ensemble(
    model: LatticeModelSpec,
    config: IntegratorConfig,
    n_samples: int,
    n_workers: int = 1,
    output_times=None,
) -> EnsembleState | list[EnsembleState]:
    """Integrate K independent samples of the lattice SDE to t_end.

    Per-sample noise streams are derived from (master_seed, sample index), so
    the result is independent of chunking, scheduling, and ``n_workers``.
    With ``output_times`` given, returns one EnsembleState per time
    (nondecreasing multiples of h); otherwise a single EnsembleState at t_end.
    """
    if n_samples < 1:
        raise ContractViolationError(f"n_samples must be >= 1, got {n_samples}")
    snapshot_steps = _resolve_output_steps(config, output_times)
    starts = range(0, n_samples, _CHUNK_SAMPLES)
    workers = _pool_size(n_workers, len(starts))

    def run(lo):
        hi = min(lo + _CHUNK_SAMPLES, n_samples)
        gens = [_sample_generator(config.master_seed, j) for j in range(lo, hi)]
        state = np.stack([_initial_state(model, gen, SAMPLE_INITIAL_LAW) for gen in gens])
        return _advance(model, config, state, gens, set(snapshot_steps), lo)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run, starts))
    else:
        chunks = [run(lo) for lo in starts]
    seeds = tuple(sample_stream_key(config.master_seed, j) for j in range(n_samples))
    states = [
        EnsembleState(np.concatenate([c[s] for c in chunks]), s * config.step_size, seeds)
        for s in snapshot_steps
    ]
    return states if output_times is not None else states[0]
