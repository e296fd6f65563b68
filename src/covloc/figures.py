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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .analytic import analytic_covariance, build_system_matrix
from .bounds import bound_inputs_from_model, diffusion_only_bound, meanfield_only_bound
from .estimators import (
    monte_carlo_pair_covariance,
    sample_covariance,
    shifted_pair_covariance,
)
from .integrator import IntegratorConfig, simulate_ensemble, simulate_path
from .lattice import ContractViolationError
from .models import (
    FhnParams,
    LinearParams,
    build_model,
    default_step_size,
    fhn_model,
    linear_model,
    regime,
)
from .storage import write_csv


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
# these values; paper scale reproduces the published (N, K) exactly.  The
# listed "h" is a base step: strongly diffusive FHN regimes need a finer step
# for explicit-Euler stability, see _fhn_step.
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
    seq = np.random.SeedSequence([int(master_seed)] + [int(t) for t in tags])
    return int(seq.generate_state(1, np.uint64)[0])


_H_GRID = (5e-4, 2.5e-4, 1e-4, 5e-5, 2.5e-5, 1e-5)


def _fhn_step(params, base_h: float) -> float:
    """Explicit-Euler-stable step for an FHN regime, snapped to a grid that
    divides the output times evenly.

    The stiffest circulant mode scales like (1 + u^2 + 4 d_u)/eps with spike
    amplitudes |u| ~ 2.6, so strong diffusion caps the usable step well below
    the coarse desk default.
    """
    worst_rate = (1.0 + 2.6**2 + 4.0 * params.d_u + params.w) / params.epsilon
    cap = min(base_h, 0.5 / worst_rate)
    for h in _H_GRID:
        if h <= cap:
            return h
    return _H_GRID[-1]


def _write_metadata(out_dir: Path, name: str, payload: dict) -> Path:
    path = out_dir / f"{name}_metadata.json"
    payload = {"library_version": __version__, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _linear_profile_rows(params: LinearParams, n: int, t: float):
    sys = build_system_matrix(params, n)
    cov = analytic_covariance(sys, None, params.sigma_u, t)
    return [(i, cov.entry(1, i)) for i in range(1, n + 1)]


def _figure_f1(scale, seed, out_dir, threads):
    rows = []
    for n in _F1_N_LIST:
        for i, value in _linear_profile_rows(LINEAR_MEANFIELD, n, 5.0):
            rows.append((n, i, value))
    path = out_dir / "F1_meanfield_profiles.csv"
    write_csv(path, ["n", "i", "covariance"], rows)
    return [path], {"params": vars(LINEAR_MEANFIELD), "t": 5.0, "n_list": _F1_N_LIST}


def _figure_f2(scale, seed, out_dir, threads):
    n_list = SCALES["F2"][scale]["n_list"]
    rows = []
    for n in n_list:
        sys = build_system_matrix(LINEAR_MEANFIELD, n)
        cov12 = analytic_covariance(sys, None, LINEAR_MEANFIELD.sigma_u, 5.0).entry(1, 2)
        model = linear_model(LINEAR_MEANFIELD, n)
        bound = meanfield_only_bound(bound_inputs_from_model(model, 5.0))
        rows.append((n, cov12, bound))
    path = out_dir / "F2_meanfield_vs_n.csv"
    write_csv(path, ["n", "covariance", "bound"], rows)
    return [path], {"params": vars(LINEAR_MEANFIELD), "t": 5.0, "n_list": n_list}


def _figure_f3(scale, seed, out_dir, threads):
    rows = []
    for d_u in (1.0, 5.0, 20.0):
        params = LinearParams(a=1.0, d_u=d_u, w=0.0, sigma_u=0.5)
        for i, value in _linear_profile_rows(params, 64, 5.0):
            rows.append((d_u, i, value))
    path = out_dir / "F3_diffusion_profiles.csv"
    write_csv(path, ["d_u", "i", "covariance"], rows)
    return [path], {"a": 1.0, "sigma_u": 0.5, "n": 64, "t": 5.0, "d_u_list": [1, 5, 20]}


def _figure_f4(scale, seed, out_dir, threads):
    n, t, beta = 64, 5.0, 0.2
    sys = build_system_matrix(LINEAR_DIFFUSION, n)
    cov = analytic_covariance(sys, None, LINEAR_DIFFUSION.sigma_u, t)
    inputs = bound_inputs_from_model(linear_model(LINEAR_DIFFUSION, n), t)
    rows = []
    for k in range(n // 2 + 1):
        value = cov.entry(1, 1 + k)
        bound = diffusion_only_bound(1, 1 + k, beta, inputs)
        rows.append((k, value, float(np.log(abs(value))), bound))
    path = out_dir / "F4_diffusion_decay.csv"
    write_csv(path, ["k", "covariance", "log_abs_covariance", "bound"], rows)
    return [path], {"params": vars(LINEAR_DIFFUSION), "n": n, "t": t, "beta": beta}


def _figure_f5(scale, seed, out_dir, threads):
    rows = _linear_profile_rows(LINEAR_BOTH, 64, 5.0)
    path = out_dir / "F5_combined_profile.csv"
    write_csv(path, ["i", "covariance"], rows)
    return [path], {"params": vars(LINEAR_BOTH), "n": 64, "t": 5.0}


def _figure_f6(scale, seed, out_dir, threads):
    sys = build_system_matrix(LINEAR_BOTH, 64)
    cov = analytic_covariance(sys, None, LINEAR_BOTH.sigma_u, 5.0)
    rows = [(k, cov.entry(1, 1 + k)) for k in range(33)]
    path = out_dir / "F6_combined_decay.csv"
    write_csv(path, ["k", "covariance"], rows)
    return [path], {"params": vars(LINEAR_BOTH), "n": 64, "t": 5.0}


def _figure_f7(scale, seed, out_dir, threads):
    cfg = SCALES["F7"][scale]
    n, k = cfg["n"], cfg["k"]
    rows = []
    for ridx, name in enumerate(_DIFFUSION_REGIMES):
        params = regime(name).params
        model = fhn_model(params, n)
        run = IntegratorConfig(
            step_size=_fhn_step(params, cfg["h"]),
            t_end=5.0,
            master_seed=_derived_seed(seed, 7, ridx),
        )
        ensemble = simulate_ensemble(model, run, k, n_workers=threads)
        cov = sample_covariance(ensemble)
        for comp, label in ((1, "u"), (2, "v")):
            for i in range(1, n + 1):
                rows.append((name, label, i, cov.entry(1, i, comp, comp)))
    path = out_dir / "F7_fhn_diffusion_covariance.csv"
    write_csv(path, ["regime", "component", "i", "covariance"], rows)
    return [path], {"t": 5.0, **cfg, "regimes": list(_DIFFUSION_REGIMES)}


def _space_time_rows(name, n, base_h, seed, times):
    params = regime(name).params
    model = fhn_model(params, n)
    run = IntegratorConfig(
        step_size=_fhn_step(params, base_h), t_end=times[-1], master_seed=seed
    )
    path_result = simulate_path(model, run, output_times=times)
    for t, state in zip(path_result.times, path_result.states):
        for i in range(n):
            yield (name, float(t), i + 1, state[i, 0], state[i, 1])


def _figure_fields(figure_id, regimes, scale, seed, out_dir):
    cfg = SCALES[figure_id][scale]
    n, h = cfg["n"], cfg["h"]
    times = [round(0.05 * m, 10) for m in range(101)]
    rows = []
    for ridx, name in enumerate(regimes):
        rows.extend(_space_time_rows(name, n, h, _derived_seed(seed, 8, ridx), times))
    path = out_dir / f"{figure_id}_fhn_fields.csv"
    write_csv(path, ["regime", "time", "block", "u", "v"], rows)
    return [path], {"t_end": 5.0, **cfg, "regimes": list(regimes)}


def _figure_f8(scale, seed, out_dir, threads):
    return _figure_fields("F8", _DIFFUSION_REGIMES, scale, seed, out_dir)


def _figure_f9(scale, seed, out_dir, threads):
    cfg = SCALES["F9"][scale]
    rows = []
    for widx, w in enumerate((0.3, 0.5)):
        preset = "meanfield-moderate" if w == 0.3 else "meanfield-strong"
        params = regime(preset).params
        for nidx, n in enumerate(cfg["n_list"]):
            model = fhn_model(params, n)
            run = IntegratorConfig(
                step_size=_fhn_step(params, cfg["h"]),
                t_end=5.0,
                master_seed=_derived_seed(seed, 9, widx, nidx),
            )
            states = simulate_ensemble(
                model, run, cfg["k"], n_workers=threads, output_times=[3.0, 5.0]
            )
            for state in states:
                cov = sample_covariance(state)
                for comp, label in ((1, "u"), (2, "v")):
                    rows.append((w, float(state.time), n, label, cov.entry(1, 2, comp, comp)))
    path = out_dir / "F9_fhn_meanfield_vs_n.csv"
    write_csv(path, ["w", "t", "n", "component", "covariance"], rows)
    return [path], {**cfg, "w_list": [0.3, 0.5], "t_list": [3.0, 5.0]}


def _figure_f10(scale, seed, out_dir, threads):
    return _figure_fields("F10", _MEANFIELD_REGIMES, scale, seed, out_dir)


def spatial_vs_mc_rows(
    params,
    n: int,
    times: list[float],
    k_mc: int,
    sa_replicates: int,
    h: float,
    seed: int,
    threads: int = 1,
    max_lag: int | None = None,
    label: str | None = None,
):
    """Spatial-average vs Monte Carlo covariance curves for one model.

    ``params`` is a preset name or a parameter set.  The Monte Carlo
    reference is one ensemble of ``k_mc`` paths and the per-pair estimator
    cov(u_1, u_{1+k}); the spatial-average estimate pools one path over all
    positions (the shift trick) and is replicated ``sa_replicates`` times for
    an honest replicate standard error.  Yields rows
    (label, time, lag, method, estimate, std_error).
    """
    if isinstance(params, str):
        label = params if label is None else label
        params = regime(params).params
    if label is None:
        label = "model"
    model = build_model(params, n)
    max_lag = n // 2 if max_lag is None else max_lag
    lags = range(max_lag + 1)
    if isinstance(params, FhnParams):
        h = _fhn_step(params, h)

    mc_cfg = IntegratorConfig(step_size=h, t_end=times[-1], master_seed=_derived_seed(seed, 11))
    mc_states = simulate_ensemble(model, mc_cfg, k_mc, n_workers=threads, output_times=times)

    sa_states: dict[float, list] = {t: [] for t in times}
    for r in range(sa_replicates):
        cfg = IntegratorConfig(
            step_size=h, t_end=times[-1], master_seed=_derived_seed(seed, 12, r)
        )
        for state in simulate_ensemble(model, cfg, 1, output_times=times):
            sa_states[float(state.time)].append(state)

    for state in mc_states:
        for lag in lags:
            rep = monte_carlo_pair_covariance(state, lag)
            yield (label, float(state.time), lag, rep.method, rep.estimate, rep.std_error)
    for t in times:
        replicates = sa_states[float(t)]
        for lag in lags:
            values = np.array(
                [shifted_pair_covariance(s, lag).estimate for s in replicates]
            )
            yield (
                label,
                float(t),
                lag,
                "spatial-average",
                float(values.mean()),
                float(values.std(ddof=1) / np.sqrt(len(values))),
            )


def _figure_comparison(figure_id, regimes, scale, seed, out_dir, threads):
    cfg = SCALES[figure_id][scale]
    times = [0.5, 1.0, 2.0, 5.0]
    rows = []
    for ridx, name in enumerate(regimes):
        rows.extend(
            spatial_vs_mc_rows(
                name,
                cfg["n"],
                times,
                cfg["k_mc"],
                cfg["sa_replicates"],
                cfg["h"],
                _derived_seed(seed, 13, ridx),
                threads=threads,
            )
        )
    path = out_dir / f"{figure_id}_spatial_vs_mc.csv"
    write_csv(path, ["regime", "time", "lag", "method", "estimate", "std_error"], rows)
    return [path], {**cfg, "times": times, "regimes": list(regimes)}


def _figure_f11(scale, seed, out_dir, threads):
    regimes = ("regime-a", "regime-b", "regime-c", "regime-d", "regime-e")
    return _figure_comparison("F11", regimes, scale, seed, out_dir, threads)


def _figure_f12(scale, seed, out_dir, threads):
    return _figure_comparison("F12", ("regime-f",), scale, seed, out_dir, threads)


@dataclass(frozen=True)
class FigureSpec:
    figure_id: str
    description: str
    builder: Callable


FIGURES: dict[str, FigureSpec] = {
    "F1": FigureSpec("F1", "linear mean-field-only covariance profiles", _figure_f1),
    "F2": FigureSpec("F2", "linear mean-field-only cov(u1,u2) vs N with bound", _figure_f2),
    "F3": FigureSpec("F3", "linear diffusion-only covariance profiles", _figure_f3),
    "F4": FigureSpec("F4", "linear diffusion-only decay with bound overlay", _figure_f4),
    "F5": FigureSpec("F5", "linear combined-coupling covariance profile", _figure_f5),
    "F6": FigureSpec("F6", "linear combined-coupling decay curve", _figure_f6),
    "F7": FigureSpec("F7", "FHN diffusion-regime Monte Carlo covariance", _figure_f7),
    "F8": FigureSpec("F8", "FHN diffusion-regime space-time fields", _figure_f8),
    "F9": FigureSpec("F9", "FHN mean-field covariance vs N", _figure_f9),
    "F10": FigureSpec("F10", "FHN mean-field-regime space-time fields", _figure_f10),
    "F11": FigureSpec("F11", "FHN spatial-average vs Monte Carlo, regimes a-e", _figure_f11),
    "F12": FigureSpec("F12", "FHN spatial-average vs Monte Carlo, regime f", _figure_f12),
}


def run_figure(
    figure_id: str,
    scale: str = "desk",
    seed: int = DEFAULT_SEED,
    out_dir="figures",
    threads: int = 1,
) -> list[Path]:
    """Regenerate the data files behind one figure; returns the written paths."""
    if figure_id not in FIGURES:
        raise UnknownFigureError(
            f"unknown figure {figure_id!r}; valid: {', '.join(sorted(FIGURES))}"
        )
    if scale not in ("paper", "desk"):
        raise ContractViolationError(f"scale must be 'paper' or 'desk', got {scale!r}")
    if threads < 1:
        raise ContractViolationError(f"threads must be >= 1, got {threads}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = FIGURES[figure_id]
    files, settings = spec.builder(scale, seed, out_dir, threads)
    meta = _write_metadata(
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
    return list(files) + [meta]
