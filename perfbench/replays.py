"""Replays of the stepping internals that no shim can reach.

Noise generation, noise application and the finite check run inside
``covloc.integrator`` loops, so the traced run times them by replaying the
same calls at the same shapes and streams: per-sample Philox generators keyed
by ``sample_stream_key(master_seed, j)``.  The shapes are the integrator's as
of this benchmark: ensembles step samples in chunks of 256, draw noise in
blocks of ``min(256, 8e6 // (chunk * N * q))`` steps and check finiteness
every 8 steps; a single path draws an (N, q) normal and checks its state
before and after every step.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from covloc.integrator import sample_stream_key

CHUNK_SAMPLES = 256
NOISE_BUDGET = 8_000_000
CHECK_EVERY = 8
REPEATS = 3


def _median_of(fn) -> float:
    return statistics.median(fn() for _ in range(REPEATS))


def ensemble(count: int, n: int, sigma: np.ndarray, h: float, master_seed: int) -> dict:
    q = sigma.shape[0]
    count = min(count, CHUNK_SAMPLES)
    steps = max(1, min(256, NOISE_BUDGET // (count * n * q)))
    gens = [np.random.Generator(np.random.Philox(key=sample_stream_key(master_seed, j))) for j in range(count)]
    buf = np.empty((count, steps, n, q))
    sigma_t = sigma.T
    sqrt_h = math.sqrt(h)

    def noise():
        t0 = time.perf_counter()
        for c, gen in enumerate(gens):
            gen.standard_normal(out=buf[c])
        return time.perf_counter() - t0

    def apply():
        t0 = time.perf_counter()
        for b in range(steps):
            sqrt_h * (buf[:, b] @ sigma_t)
        return time.perf_counter() - t0

    state = np.ascontiguousarray(buf[:, 0])

    def finite():
        t0 = time.perf_counter()
        for b in range(1, steps + 1):
            if b % CHECK_EVERY == 0:
                np.isfinite(state).all()
        return time.perf_counter() - t0

    block_steps = count * n * steps
    return {
        "integrator.noise_replay_ns_per_normal": _median_of(noise) * 1e9 / buf.size,
        "integrator.noise_apply_replay_ns_per_block_step": _median_of(apply) * 1e9 / block_steps,
        "integrator.finite_check_replay_ns_per_block_step": _median_of(finite) * 1e9 / block_steps,
    }


def path(n: int, sigma: np.ndarray, h: float, master_seed: int, steps: int = 2000) -> dict:
    q = sigma.shape[0]
    gen = np.random.Generator(np.random.Philox(key=sample_stream_key(master_seed, 0)))
    sigma_t = sigma.T
    sqrt_h = math.sqrt(h)
    draws = [gen.standard_normal((n, q)) for _ in range(steps)]

    def noise():
        t0 = time.perf_counter()
        for _ in range(steps):
            gen.standard_normal((n, q))
        return time.perf_counter() - t0

    def apply():
        t0 = time.perf_counter()
        for draw in draws:
            sqrt_h * (draw @ sigma_t)
        return time.perf_counter() - t0

    def finite():
        t0 = time.perf_counter()
        for draw in draws:
            np.isfinite(draw).all()
            np.isfinite(draw).all()
        return time.perf_counter() - t0

    block_steps = n * steps
    return {
        "integrator.noise_replay_ns_per_normal": _median_of(noise) * 1e9 / (steps * n * q),
        "integrator.noise_apply_replay_ns_per_block_step": _median_of(apply) * 1e9 / block_steps,
        "integrator.finite_check_replay_ns_per_block_step": _median_of(finite) * 1e9 / block_steps,
    }


def none() -> dict:
    return {
        "integrator.noise_replay_ns_per_normal": 0.0,
        "integrator.noise_apply_replay_ns_per_block_step": 0.0,
        "integrator.finite_check_replay_ns_per_block_step": 0.0,
    }
