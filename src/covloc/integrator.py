"""Reproducible Euler-Maruyama stepping for single paths and ensembles.

Reproducibility contract: sample j's entire noise stream is a pure function
of its stream pair (master_seed, index), (master_seed, j) unless the caller
names the pairs, realized by a counter-based Philox generator keyed with the
pair.  Results are therefore bit-identical whatever thread draws a row and
however many draw; reductions over samples happen in fixed index order.
Every sample and every path starts at its model's point mass m0, yet each
stream opens with N*q standard normals that are drawn and discarded: they are
part of every stream, so sample j's noise comes after them.

One kernel, ``_advance``, steps (C, N, q) chunks of an ensemble in place on
the calling thread, one chunk after another; a path is a one-sample
ensemble.  K samples are cut into chunks of ceil(K / ceil(K / _CHUNK_SAMPLES))
samples, the last one shorter; no chunk exceeds _CHUNK_SAMPLES and the
chunks are balanced.  Before any stepping a call allocates two arrays: its
whole (T, K, N, q) result, into whose slices the chunks write their
snapshots, and one noise array that every chunk reuses.  Drawing normals is
most of the work, so that is where the threads go: min(n_workers,
os.cpu_count()) helper threads draw a noise block row by row while the
previous block is stepped, and the stepper takes the rows left before it
steps it.  Either way sample c's rows come from its own stream, in order, as
raw standard normals; the stepper then scales the whole block by sqrt(h)
sigma^T with one call and only adds noise as it steps.  ``euler_step`` scales
its draw the same way and takes one step with the same step function; noise
and blow-ups: see ``_advance``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lattice import ContractViolationError, LatticeModelSpec, _integer

# Noise is pre-generated in blocks of steps sized to keep the noise array small;
# block size never affects results (each sample is one continuous stream).
# 2**21 doubles (16 MiB): one call's noise array, above the 8-step floor; 16-step
# rows at N=128, q=2, C=256.  2**20's 8-step rows cost more CPU, as each row's
# draw releases and retakes the GIL.
_NOISE_BUDGET = 2**21
_CHUNK_SAMPLES = 256


class NumericalBlowupError(RuntimeError):
    """A state or drift evaluation left the finite range.

    ``sample_index`` is the failing sample's position in the ensemble call's
    ``streams``, 0 for a path or a single step; ``block_index`` is 1-based.
    """

    def __init__(self, time: float, block_index: int, sample_index: int):
        self.time = time
        self.block_index = block_index
        self.sample_index = sample_index
        where = f"sample {sample_index}, block {block_index}"
        super().__init__(f"non-finite state at t={time:.6g} ({where}); reduce the step size")


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon, and the master seed all randomness derives from."""

    step_size: float
    t_end: float
    master_seed: int

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and math.isfinite(self.t_end)):
            raise ContractViolationError(
                f"step_size and t_end must be finite, got ({self.step_size}, {self.t_end})"
            )
        if self.step_size <= 0:
            raise ContractViolationError(f"step_size must be positive, got {self.step_size}")
        if self.t_end < 0:
            raise ContractViolationError(f"t_end must be nonnegative, got {self.t_end}")
        object.__setattr__(self, "master_seed", unsigned_64(self.master_seed, "master_seed"))
        if _whole_steps(self.t_end, self.step_size) is None:
            raise ContractViolationError(
                f"t_end/step_size = {self.t_end / self.step_size!r} is not an integer step count"
            )

    @property
    def n_steps(self) -> int:
        return _whole_steps(self.t_end, self.step_size)


def _whole_steps(span: float, h: float) -> int | None:
    """The whole number of steps h in ``span``, or None when span/h is not
    finite or lies more than 1e-9 from a whole number: the one rule for the
    horizon, the output times and ``dividing_step``."""
    ratio = span / h
    if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
        return None
    return round(ratio)


def dividing_step(span: float, cap: float) -> float:
    """The longest step of at most ``cap`` that divides ``span``: ``cap`` when
    ``_whole_steps`` finds a whole count, else span / ceil(span / cap).  A span outside
    [0, inf) or a count beyond float range keeps ``cap``, for IntegratorConfig to reject."""
    steps = span / cap
    if not (0 <= span and math.isfinite(steps)) or _whole_steps(span, cap) is not None:
        return cap
    return span / math.ceil(steps)


@dataclass(frozen=True)
class EnsembleState:
    """K independent lattice states at a common time.

    A read-only float array is kept as it is, so slicing a simulated
    ensemble's samples costs no copy; anything else is copied and the copy
    made read-only.
    """

    samples: np.ndarray  # (K, N, q), read-only
    time: float

    def __post_init__(self):
        samples = self.samples
        read_only = isinstance(samples, np.ndarray) and not samples.flags.writeable
        if not (read_only and samples.dtype == float):
            samples = np.array(samples, dtype=float)
            samples.flags.writeable = False
        if samples.ndim != 3:
            raise ContractViolationError(f"samples must be (K, N, q), got {samples.shape}")
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


def unsigned_64(value, what: str) -> int:
    """An integer in [0, 2**64) as an int; see ``_integer``."""
    return _integer(value, what, 0, 2**64)


def sample_stream_key(master_seed: int, sample_index: int) -> int:
    """128-bit Philox key for one sample: (master_seed << 64) | sample_index."""
    high = unsigned_64(master_seed, "stream seed")
    return high << 64 | unsigned_64(sample_index, "stream index")


def _sample_generator(master_seed: int, sample_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=sample_stream_key(master_seed, sample_index)))


def _require_finite(state: np.ndarray, time: float, sample_lo: int) -> None:
    """Name the first non-finite entry of a (C, N, q) state, if any; its
    sample is ``sample_lo`` + c."""
    bad = ~np.isfinite(state)
    if bad.any():
        sample, block, _ = np.argwhere(bad)[0]
        raise NumericalBlowupError(time, int(block) + 1, sample_lo + int(sample))


def _noise_scaling(model: LatticeModelSpec, h: float):
    """The in-place map block -> block @ (sqrt(h) sigma^T) on a drawn
    (C, steps, N, q) noise block.  A diagonal sigma, every model's, multiplies
    by its diagonal tiled over the N blocks: the same bits as the matmul,
    whose q-wide rows cost several times more.  Any other sigma takes the
    matmul."""
    scale = math.sqrt(h) * model.sigma.T
    diagonal = np.diag(scale)
    if np.array_equal(scale, np.diag(diagonal)):
        tiled = np.tile(diagonal, (model.n_blocks, 1))
        return lambda rows: np.multiply(rows, tiled, out=rows)
    return lambda rows: np.matmul(rows, scale, out=rows)


def _step(model: LatticeModelSpec, state, noise, h, work) -> None:
    """state += h * drift(state) + noise in place, via scratch ``work``;
    ``noise`` is already scaled by sqrt(h) sigma^T."""
    model.drift(state, work)
    work *= h
    state += work
    state += noise


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
    given (state, noise); ``t`` only dates a blow-up report, whose sample is 0.
    """
    if not (math.isfinite(h) and h > 0):
        raise ContractViolationError(f"h must be positive and finite, got {h}")
    state = np.array(state, dtype=float)
    noise = np.array(noise, dtype=float)
    expected = (model.n_blocks, model.block_dim)
    if state.shape != expected or noise.shape != expected:
        raise ContractViolationError(
            f"state and noise must have shape {expected}, got {state.shape} and {noise.shape}"
        )
    _require_finite(state[None], t, 0)
    _noise_scaling(model, h)(noise[None])
    with np.errstate(over="ignore", invalid="ignore"):
        _step(model, state, noise, h, np.empty_like(state))
    _require_finite(state[None], t + h, 0)
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
        k = _whole_steps(t, config.step_size)
        if k is None or not (0 <= k <= config.n_steps):
            raise ContractViolationError(
                f"output time {t} is not a multiple of h within [0, t_end]"
            )
        steps.append(k)
    if steps != sorted(steps):
        raise ContractViolationError("output times must be nondecreasing")
    return steps


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform cannot tell."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * size if pages > 0 and size > 0 else None


def _array_shapes(model, n_steps, n_out, n_samples, count):
    """Shapes of a call's (T, K, N, q) result and its noise array, refused
    before either is allocated when they, with one chunk's state, scratch
    and saved block start, exceed physical memory.  The noise array holds
    the two (count, block, N, q) buffers every chunk reuses, one being
    scaled and stepped while the other is drawn; blocks run 8 to 256 steps,
    sized so the array holds ``_NOISE_BUDGET`` doubles where the 8-step floor
    allows: at large count * N * q the floor wins and the array exceeds the
    budget."""
    n, q = model.n_blocks, model.block_dim
    block = max(8, min(256, _NOISE_BUDGET // (2 * count * n * q)))
    result, noise = (n_out, n_samples, n, q), (2, count, min(block, n_steps), n, q)
    need = 8 * (math.prod(result) + math.prod(noise) + 3 * count * n * q)
    have = _physical_memory()
    if have is not None and need > have:
        raise ContractViolationError(
            f"the call needs {need} bytes for its result and buffers, "
            f"more than the {have} bytes of physical memory"
        )
    return result, noise


def simulate_path(
    model: LatticeModelSpec,
    config: IntegratorConfig,
    output_times=None,
) -> PathResult:
    """Integrate one path: sample 0 of the ensemble with the same config,
    by ``simulate_ensemble``'s route, so its blow-up reports sample 0.
    Output times must be multiples of h; the default is t_end, and no times
    give an empty path.  The states are a read-only view of the result.
    """
    result, out_steps = _simulate(model, config, 1, 1, output_times, None)
    times = np.array([s * config.step_size for s in out_steps])
    return PathResult(times=times, states=result[:, 0])


def _advance(model, config, state, gens, out_steps, out, buffers, sample_lo, helpers):
    """The stepping kernel: advance the (C, N, q) block ``state`` in place
    to t_end on the calling thread, sample c drawing its noise from
    ``gens[c]``; the state at step ``out_steps[i]`` is written into
    ``out[i]``, a (C, N, q) slice of the call's result, so equal steps give
    equal, separate snapshots.

    Noise comes in blocks, drawn alternately into the two (C, steps, N, q)
    ``buffers`` of the call's one noise array (see ``_array_shapes`` for the
    block length).  ``helpers`` threads start drawing the next block, one
    sample's row at a time, while the current one is stepped; at the top of
    each block the stepping thread draws the rows no helper has taken, then
    waits for every helper's last row.  Rows hold raw standard normals; once
    the next block's drawing has started, the stepping thread scales the
    whole block by sqrt(h) sigma^T with one call (see ``_noise_scaling``),
    so a step adds the buffered noise as it is.  The state is checked for
    finiteness once, at the end of each block; NaNs and infs persist under
    the update, so a failed check restores the block's saved start and
    re-steps the block with its still buffered noise, checking every step.
    That names the first non-finite step and its first sample
    ``sample_lo`` + c, an index into the caller's streams.
    """
    count = state.shape[0]
    h, n_steps = config.step_size, config.n_steps
    block_steps = max(1, buffers.shape[2])
    scale_noise = _noise_scaling(model, h)
    work, start_state = np.empty_like(state), np.empty_like(state)
    targets = {}
    for i, k in enumerate(out_steps):
        targets.setdefault(k, []).append(out[i])

    def snapshot(k):
        for dst in targets.get(k, ()):
            np.copyto(dst, state)

    _require_finite(state, 0.0, sample_lo)
    snapshot(0)

    def draw(rows, buf, steps):
        # next() on a shared range iterator is atomic under the GIL, so no
        # two of the helpers and the stepper take the same row
        for c in rows:
            gens[c].standard_normal(out=buf[c, :steps])

    def start(lo):
        rows = iter(range(count))
        buf = buffers[lo // block_steps % 2]
        steps = min(block_steps, n_steps - lo)
        return rows, buf, steps, [pool.submit(draw, rows, buf, steps) for _ in range(helpers)]

    with ThreadPoolExecutor(helpers) as pool, np.errstate(over="ignore", invalid="ignore"):
        pending = start(0)
        for lo in range(0, n_steps, block_steps):
            hi = min(lo + block_steps, n_steps)
            rows, noise, steps, drawing = pending
            draw(rows, noise, steps)
            for future in drawing:
                future.result()
            pending = start(hi) if hi < n_steps else None
            scale_noise(noise[:, :steps])
            np.copyto(start_state, state)
            for k in range(lo + 1, hi + 1):
                _step(model, state, noise[:, k - lo - 1], h, work)
                snapshot(k)
            if not np.isfinite(state).all():
                np.copyto(state, start_state)
                for k in range(lo + 1, hi + 1):
                    _step(model, state, noise[:, k - lo - 1], h, work)
                    _require_finite(state, k * h, sample_lo)


def _check_streams(streams, n_samples: int) -> None:
    """Refuse (master_seed, index) streams that are not one per sample,
    pairwise distinct and valid Philox keys, before anything is integrated."""
    if len(streams) != n_samples:
        raise ContractViolationError(
            f"need one stream per sample: {len(streams)} streams for {n_samples} samples"
        )
    keys = {sample_stream_key(seed, index) for seed, index in streams}
    if len(keys) != n_samples:
        raise ContractViolationError("streams must be pairwise distinct")


def simulate_ensemble(
    model: LatticeModelSpec,
    config: IntegratorConfig,
    n_samples: int,
    n_workers: int = 1,
    output_times=None,
    streams=None,
) -> EnsembleState | list[EnsembleState]:
    """Integrate K independent samples of the lattice SDE to t_end.

    Sample j starts at m0 and draws its noise from the Philox stream
    ``streams[j]``, a (master_seed, index) pair; the default is
    (config.master_seed, j) for j < n_samples.  Samples with different
    master seeds can so share one call, and each gives the same result as
    in a call of its own.  A call whose ``n_samples`` or ``n_workers`` is
    not an integer >= 1 (a bool is refused), or whose result and buffers
    exceed physical memory, is refused first; then the streams are checked
    before any stepping: one per sample, pairwise distinct, seed and index in
    [0, 2**64).  The chunks are stepped in order on the calling thread while
    min(n_workers, os.cpu_count()) helper threads draw their noise; the
    result is independent of chunking, of which thread draws a row, and of
    ``n_workers``.  Every chunk runs to its own blow-up, if any, and the
    call reports the earliest (time, sample) of them, whose
    ``sample_index`` indexes ``streams``.  With ``output_times`` given,
    returns one EnsembleState per time (nondecreasing multiples of h), each
    a read-only view of the call's one result array; otherwise a single
    EnsembleState at t_end.
    """
    args = (n_samples, n_workers, output_times, streams)
    result, out_steps = _simulate(model, config, *args)
    states = [EnsembleState(result[i], s * config.step_size) for i, s in enumerate(out_steps)]
    return states if output_times is not None else states[0]


def _simulate(model, config, n_samples, n_workers, output_times, streams):
    """``simulate_ensemble``'s work: its read-only (T, K, N, q) result and
    the output steps."""
    n_samples = _integer(n_samples, "n_samples", 1, math.inf)
    out_steps = _resolve_output_steps(config, output_times)
    helpers = min(_integer(n_workers, "n_workers", 1, math.inf), os.cpu_count() or 1)
    n_chunks = -(-n_samples // _CHUNK_SAMPLES)
    size = -(-n_samples // n_chunks)
    shapes = _array_shapes(model, config.n_steps, len(out_steps), n_samples, size)
    if streams is None:
        streams = [(config.master_seed, j) for j in range(n_samples)]
    _check_streams(streams, n_samples)
    result, noise = map(np.empty, shapes)
    errors = []
    for lo in range(0, n_samples, size):
        gens = [_sample_generator(*stream) for stream in streams[lo : lo + size]]
        count = len(gens)
        for gen in gens:  # discard the N*q normals each stream opens with
            gen.standard_normal((model.n_blocks, model.block_dim))
        state = np.tile(model.m0, (count, model.n_blocks, 1))
        out = result[:, lo : lo + count]
        try:
            _advance(model, config, state, gens, out_steps, out, noise[:, :count], lo, helpers)
        except NumericalBlowupError as err:
            errors.append(err)
    if errors:
        raise min(errors, key=lambda err: (err.time, err.sample_index))
    result.flags.writeable = False
    return result, out_steps
