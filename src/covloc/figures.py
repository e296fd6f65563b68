"""Registry of reproducible figure-data experiments F1..F12.

Each entry regenerates the data behind one published figure panel set, at
either the published scale ("paper") or a reduced desk scale whose (N, K)
substitutions are recorded in the metadata written next to the data.  The
linear-model figures are analytic and identical at both scales.

Figure map:
  F1  linear, mean field only: cov(u_1, u_i) profiles across N
  F2  linear, mean field only: cov(u_1, u_2) vs N with the 1/N bound overlay
  F3  linear, diffusion only: cov(u_1, u_i) profiles across d_u
  F4  linear, diffusion only: decay curve with the beta=0.2 bound overlay
  F5  linear, both couplings: cov(u_1, u_i) profile
  F6  linear, both couplings: decay-then-plateau curve
  F7  FHN, diffusion regimes: Monte Carlo covariance curves at t=5
  F8  FHN, diffusion regimes: single-path space-time fields
  F9  FHN, mean-field regimes: Monte Carlo cov(u_1, u_2) vs N at t in {3, 5}
  F10 FHN, mean-field regimes: single-path space-time fields
  F11 FHN, regimes (a)-(e): spatial-average vs Monte Carlo covariance curves
  F12 FHN, regime (f): spatial-average vs Monte Carlo covariance curves

Builder contract: each figure's builder is a pure function
``builder(cfg, seed, threads)`` that does no I/O and returns
``(stem, header, rows, settings)``.  ``cfg`` is ``SCALES[figure_id][scale]``,
or None for a figure without a scale table.  ``run_figure`` is the one place
that writes figure data: ``<id>_<stem>.csv`` with ``header`` and ``rows``,
then ``<id>_metadata.json`` recording ``settings``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .analytic import analytic_covariance, build_system_matrix
from .bounds import bound_inputs_from_model, diffusion_only_bound, meanfield_only_bound
from .estimators import monte_carlo_pair_covariance, sample_covariance, shifted_pair_covariance
from .integrator import (
    EnsembleState,
    IntegratorConfig,
    dividing_step,
    simulate_ensemble,
    simulate_path,
)
from .lattice import _FINITE, _POSITIVE, ContractViolationError, _integer, _real
from .models import (
    FhnParams,
    LinearParams,
    build_model,
    fhn_model,
    linear_model,
    regime,
    stiffest_rate,
)
from .storage import write_csv, write_metadata


class UnknownFigureError(LookupError):
    pass


# The linear-model experiments never state the mean-field strength used for
# the mean-field figures; w=5 (the value of the combined-coupling figures) is
# the harness default and is recorded in every metadata record.
LINEAR_MEANFIELD = LinearParams(a=1.0, d_u=0.0, w=5.0, sigma_u=0.5)
LINEAR_DIFFUSION = LinearParams(a=1.0, d_u=20.0, w=0.0, sigma_u=0.5)
LINEAR_BOTH = LinearParams(a=1.0, d_u=20.0, w=5.0, sigma_u=0.5)

_DIFFUSION_REGIMES = (
    "diffusion-strongly-mixed",
    "diffusion-weakly-coherent",
    "diffusion-strongly-coherent",
)
_MEANFIELD_REGIMES = ("meanfield-weak", "meanfield-moderate", "meanfield-strong")

# Desk-scale reduction table.  Tolerances in the acceptance suite are tied to
# these values; paper scale reproduces the published (N, K) exactly.  "h" is a
# base step dividing every output time; an FHN regime steps at h / m for the
# least whole m that puts h / m under its explicit-Euler limit (_fhn_run).
SCALES = {
    "F7": {
        "paper": {"n": 512, "k": 8192, "h": 1e-4},
        "desk": {"n": 128, "k": 1024, "h": 5e-4},
    },
    "F8": {"paper": {"n": 512, "h": 1e-4}, "desk": {"n": 128, "h": 5e-4}},
    "F9": {
        "paper": {"n_list": [64, 128, 256, 512], "k": 8192, "h": 1e-4},
        "desk": {"n_list": [16, 32, 64, 128], "k": 1024, "h": 5e-4},
    },
    "F10": {"paper": {"n": 512, "h": 1e-4}, "desk": {"n": 128, "h": 5e-4}},
    "F11": {
        "paper": {"n": 512, "k_mc": 512, "sa_replicates": 20, "h": 1e-4},
        "desk": {"n": 128, "k_mc": 512, "sa_replicates": 20, "h": 5e-4},
    },
    "F12": {
        "paper": {"n": 512, "k_mc": 512, "sa_replicates": 20, "h": 1e-4},
        "desk": {"n": 128, "k_mc": 512, "sa_replicates": 20, "h": 5e-4},
    },
    "F2": {
        "paper": {"n_list": [16, 32, 64, 128, 256, 512]},
        "desk": {"n_list": [16, 32, 64, 128]},
    },
}

# Panel count and N values for the mean-field profile figure are not stated
# in the source experiments; this registry choice is labeled in metadata.
_F1_N_LIST = [16, 32, 64, 128]

DEFAULT_SEED = 20240 * 100003


def _derived_seed(master_seed: int, *tags: int) -> int:
    """Well-mixed 64-bit sub-seed for an independent sub-experiment."""
    seq = np.random.SeedSequence([_integer(master_seed, "seed", 0, 2**64)] + [int(t) for t in tags])
    return int(seq.generate_state(1, np.uint64)[0])


def _linear_row(params: LinearParams, n: int, t: float = 5.0) -> np.ndarray:
    """cov(u_1, u_i) for i = 1..n: the first row of the exact linear covariance."""
    return analytic_covariance(build_system_matrix(params, n), None, params.sigma_u, t).data[0]


def _fhn_run(params: FhnParams, base_h: float, t_end: float, seed: int, *tags: int):
    """Integrator settings for one FHN sub-experiment, seeded by ``tags``: the
    longest step of at most min(base_h, 0.5 / ``stiffest_rate``) that divides ``base_h``."""
    h = dividing_step(base_h, min(base_h, 0.5 / stiffest_rate(params)))
    return IntegratorConfig(h, t_end, _derived_seed(seed, *tags))


def _figure_f1(cfg, seed, threads):
    rows = [
        (n, i, value)
        for n in _F1_N_LIST
        for i, value in enumerate(_linear_row(LINEAR_MEANFIELD, n), 1)
    ]
    settings = {"params": vars(LINEAR_MEANFIELD), "t": 5.0, "n_list": _F1_N_LIST}
    return "meanfield_profiles", ["n", "i", "covariance"], rows, settings


def _figure_f2(cfg, seed, threads):
    rows = []
    for n in cfg["n_list"]:
        model = linear_model(LINEAR_MEANFIELD, n)
        bound = meanfield_only_bound(bound_inputs_from_model(model, 5.0))
        rows.append((n, _linear_row(LINEAR_MEANFIELD, n)[1], bound))
    settings = {"params": vars(LINEAR_MEANFIELD), "t": 5.0, "n_list": cfg["n_list"]}
    return "meanfield_vs_n", ["n", "covariance", "bound"], rows, settings


def _figure_f3(cfg, seed, threads):
    rows = []
    for d_u in (1.0, 5.0, 20.0):
        params = LinearParams(a=1.0, d_u=d_u, w=0.0, sigma_u=0.5)
        rows.extend((d_u, i, value) for i, value in enumerate(_linear_row(params, 64), 1))
    settings = {"a": 1.0, "sigma_u": 0.5, "n": 64, "t": 5.0, "d_u_list": [1, 5, 20]}
    return "diffusion_profiles", ["d_u", "i", "covariance"], rows, settings


def _figure_f4(cfg, seed, threads):
    n, t, beta = 64, 5.0, 0.2
    row = _linear_row(LINEAR_DIFFUSION, n, t)
    inputs = bound_inputs_from_model(linear_model(LINEAR_DIFFUSION, n), t)
    rows = [
        (k, row[k], float(np.log(abs(row[k]))), diffusion_only_bound(1, 1 + k, beta, inputs))
        for k in range(n // 2 + 1)
    ]
    header = ["k", "covariance", "log_abs_covariance", "bound"]
    settings = {"params": vars(LINEAR_DIFFUSION), "n": n, "t": t, "beta": beta}
    return "diffusion_decay", header, rows, settings


def _figure_f5(cfg, seed, threads):
    rows = list(enumerate(_linear_row(LINEAR_BOTH, 64), 1))
    settings = {"params": vars(LINEAR_BOTH), "n": 64, "t": 5.0}
    return "combined_profile", ["i", "covariance"], rows, settings


def _figure_f6(cfg, seed, threads):
    rows = list(enumerate(_linear_row(LINEAR_BOTH, 64)[:33]))
    settings = {"params": vars(LINEAR_BOTH), "n": 64, "t": 5.0}
    return "combined_decay", ["k", "covariance"], rows, settings


def _figure_f7(cfg, seed, threads):
    n = cfg["n"]
    rows = []
    for ridx, name in enumerate(_DIFFUSION_REGIMES):
        params = regime(name).params
        run = _fhn_run(params, cfg["h"], 5.0, seed, 7, ridx)
        # scalar rows 0 and 1: block 1's u and v against every block
        top = sample_covariance(
            simulate_ensemble(fhn_model(params, n), run, cfg["k"], n_workers=threads), rows=2
        )
        for comp, label in ((0, "u"), (1, "v")):
            rows.extend((name, label, i, c) for i, c in enumerate(top[comp, comp::2].tolist(), 1))
    header = ["regime", "component", "i", "covariance"]
    settings = {"t": 5.0, **cfg, "regimes": list(_DIFFUSION_REGIMES)}
    return "fhn_diffusion_covariance", header, rows, settings


def _figure_fields(regimes, cfg, seed, threads):
    n = cfg["n"]
    times = [round(0.05 * m, 10) for m in range(101)]
    rows = []
    for ridx, name in enumerate(regimes):
        params = regime(name).params
        run = _fhn_run(params, cfg["h"], times[-1], seed, 8, ridx)
        path = simulate_path(fhn_model(params, n), run, output_times=times)
        for t, state in zip(path.times, path.states):
            rows.extend((name, float(t), i, u, v) for i, (u, v) in enumerate(state, 1))
    settings = {"t_end": 5.0, **cfg, "regimes": list(regimes)}
    return "fhn_fields", ["regime", "time", "block", "u", "v"], rows, settings


def _figure_f9(cfg, seed, threads):
    rows = []
    for widx, (w, preset) in enumerate(((0.3, "meanfield-moderate"), (0.5, "meanfield-strong"))):
        params = regime(preset).params
        for nidx, n in enumerate(cfg["n_list"]):
            run = _fhn_run(params, cfg["h"], 5.0, seed, 9, widx, nidx)
            states = simulate_ensemble(
                fhn_model(params, n), run, cfg["k"], n_workers=threads, output_times=[3.0, 5.0]
            )
            for state in states:
                top = sample_covariance(state, rows=2)  # block 1's u and v rows
                for comp, label in ((0, "u"), (1, "v")):
                    rows.append((w, float(state.time), n, label, float(top[comp, 2 + comp])))
    settings = {**cfg, "w_list": [0.3, 0.5], "t_list": [3.0, 5.0]}
    return "fhn_meanfield_vs_n", ["w", "t", "n", "component", "covariance"], rows, settings


def _samples(state: EnsembleState, lo: int, hi: int) -> EnsembleState:
    """Samples lo..hi-1 of an ensemble state, as an ensemble of their own."""
    return EnsembleState(state.samples[lo:hi], state.time)


def spatial_vs_mc_rows(
    preset: str,
    n: int,
    times: list[float],
    k_mc: int,
    sa_replicates: int,
    h: float,
    seed: int,
    threads: int = 1,
    max_lag: int | None = None,
):
    """Spatial-average vs Monte Carlo covariance curves for one FHN preset.

    The Monte Carlo reference is one ensemble of ``k_mc`` paths and the
    per-pair estimator cov(u_1, u_{1+k}); the spatial-average estimate pools
    one path over all positions (the shift trick) and is replicated
    ``sa_replicates`` times for an honest replicate standard error.  Replicate
    r is the single path seeded by ``(seed, 12, r)``, and one ensemble call
    steps all paths.  ``h`` is a base step dividing every time in ``times``;
    the paths step at h / m, the longest such step under the preset's
    explicit-Euler limit (``_fhn_run``).  The arguments are checked when
    iteration starts, before anything is integrated.  Yields rows
    (preset, time, lag, method, estimate, std_error).
    """
    if not times or list(times) != sorted(times):
        raise ContractViolationError(f"times must be nonempty and nondecreasing, got {times}")
    n = _integer(n, "n", 3, math.inf)
    max_lag = _integer(n // 2 if max_lag is None else max_lag, "max_lag", 0, n // 2 + 1)
    k_mc = _integer(k_mc, "k_mc", 2, math.inf)
    sa_replicates = _integer(sa_replicates, "sa_replicates", 2, math.inf)
    h = _real(h, "h", _POSITIVE, _FINITE)
    params = regime(preset).params
    model = build_model(params, n)
    lags = range(max_lag + 1)

    # the replicates share the Monte Carlo run's step and horizon, so one
    # call steps both, each sample on its own stream
    mc_run = _fhn_run(params, h, times[-1], seed, 11)
    streams = [(mc_run.master_seed, j) for j in range(k_mc)] + [
        (_derived_seed(seed, 12, r), 0) for r in range(sa_replicates)
    ]
    states = simulate_ensemble(
        model, mc_run, len(streams), n_workers=threads, output_times=times, streams=streams
    )
    for state in states:
        mc = _samples(state, 0, k_mc)
        for lag in lags:
            rep = monte_carlo_pair_covariance(mc, lag)
            yield (preset, float(state.time), lag, rep.method, rep.estimate, rep.std_error)
    for state in states:
        replicates = [_samples(state, j, j + 1) for j in range(k_mc, len(streams))]
        for lag in lags:
            values = np.array([shifted_pair_covariance(s, lag).estimate for s in replicates])
            mean, se = values.mean(), values.std(ddof=1) / np.sqrt(len(values))
            yield (preset, float(state.time), lag, "spatial-average", float(mean), float(se))


def _figure_comparison(regimes, cfg, seed, threads):
    times = [0.5, 1.0, 2.0, 5.0]
    n, k_mc, replicates, h = cfg["n"], cfg["k_mc"], cfg["sa_replicates"], cfg["h"]
    rows = [
        row
        for ridx, name in enumerate(regimes)
        for row in spatial_vs_mc_rows(
            name, n, times, k_mc, replicates, h, _derived_seed(seed, 13, ridx), threads=threads
        )
    ]
    header = ["regime", "time", "lag", "method", "estimate", "std_error"]
    return "spatial_vs_mc", header, rows, {**cfg, "times": times, "regimes": list(regimes)}


@dataclass(frozen=True)
class FigureSpec:
    description: str
    builder: Callable


FIGURES: dict[str, FigureSpec] = {
    "F1": FigureSpec("linear mean-field-only covariance profiles", _figure_f1),
    "F2": FigureSpec("linear mean-field-only cov(u1,u2) vs N with bound", _figure_f2),
    "F3": FigureSpec("linear diffusion-only covariance profiles", _figure_f3),
    "F4": FigureSpec("linear diffusion-only decay with bound overlay", _figure_f4),
    "F5": FigureSpec("linear combined-coupling covariance profile", _figure_f5),
    "F6": FigureSpec("linear combined-coupling decay curve", _figure_f6),
    "F7": FigureSpec("FHN diffusion-regime Monte Carlo covariance", _figure_f7),
    "F8": FigureSpec(
        "FHN diffusion-regime space-time fields", partial(_figure_fields, _DIFFUSION_REGIMES)
    ),
    "F9": FigureSpec("FHN mean-field covariance vs N", _figure_f9),
    "F10": FigureSpec(
        "FHN mean-field-regime space-time fields", partial(_figure_fields, _MEANFIELD_REGIMES)
    ),
    "F11": FigureSpec(
        "FHN spatial-average vs Monte Carlo, regimes a-e",
        partial(_figure_comparison, ("regime-a", "regime-b", "regime-c", "regime-d", "regime-e")),
    ),
    "F12": FigureSpec(
        "FHN spatial-average vs Monte Carlo, regime f",
        partial(_figure_comparison, ("regime-f",)),
    ),
}


def run_figure(
    figure_id: str,
    scale: str = "desk",
    *,
    seed: int,
    out_dir,
    threads: int = 1,
) -> list[Path]:
    """Regenerate the data behind one figure; returns [<id>_<stem>.csv, <id>_metadata.json]."""
    if figure_id not in FIGURES:
        raise UnknownFigureError(
            f"unknown figure {figure_id!r}; valid: {', '.join(sorted(FIGURES))}"
        )
    if scale not in ("paper", "desk"):
        raise ContractViolationError(f"scale must be 'paper' or 'desk', got {scale!r}")
    threads = _integer(threads, "threads", 1, math.inf)
    seed = _integer(seed, "seed", 0, 2**64)
    spec = FIGURES[figure_id]
    cfg = SCALES[figure_id][scale] if figure_id in SCALES else None
    stem, header, rows, settings = spec.builder(cfg, seed, threads)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{figure_id}_{stem}.csv"
    write_csv(path, header, rows)
    meta = write_metadata(
        out_dir,
        figure_id,
        {
            "figure": figure_id,
            "description": spec.description,
            "scale": scale,
            "seed": seed,
            "settings": settings,
        },
    )
    return [path, meta]
