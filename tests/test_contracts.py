"""One contract sweep over the public API.

Every scalar argument of every callable that ``covloc`` exports, and of
``storage.read_covariance`` and ``figures.spatial_vs_mc_rows``, is given
values outside or at the edge of its contract, one argument at a time from a
valid baseline call.  Each call returns a result free of NaN or raises
ContractViolationError naming the argument; any other exception or warning
fails.  A scalar argument is one annotated ``int`` or ``float``, with or
without ``| None``.  Every lattice is tiny, and no value asks for more than
four threads.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import covloc
from covloc import (
    BlockCovariance,
    ContractViolationError,
    EnsembleState,
    IntegratorConfig,
    LatticeModelSpec,
    LinearParams,
    LipschitzConstants,
    bound_inputs_from_model,
    build_system_matrix,
    linear_model,
)
from covloc.figures import spatial_vs_mc_rows
from covloc.storage import read_covariance, write_covariance

REALS = [math.nan, math.inf, -math.inf, -1, 0, 1.5, True, 1e300, 5e-324, 10**400]
SIZES = [0, -1, 1.5, True, 2.0, np.int64(4), 3, "1"]
# Values of the kind every real, or every size, argument accepts.  A call may
# still refuse one for how it combines with another argument (a 3-block
# matrix given as 4x4) or for a result beyond the float range, so only the
# other values must be refused by name.
PLAUSIBLE = {1.5, 1e300, 5e-324, 3, 4}

_MODEL = linear_model(LinearParams(), 8)
_CONSTANTS = LipschitzConstants(-1.0, 0.25, 0.1)
_INPUTS = bound_inputs_from_model(_MODEL, 1.0)
_SYSTEM = build_system_matrix(LinearParams(), 8)
_ENSEMBLE = EnsembleState(np.random.default_rng(0).standard_normal((3, 8, 1)), 0.0)
_RUN = IntegratorConfig(0.01, 0.02, 1)
_BLOCKS = BlockCovariance(np.eye(8), 4, 2)
_SUM = (lambda x: x.sum(axis=-1), np.ones_like)


def _read_covariance(block_dim):
    """``storage.read_covariance`` of a 4x4 CVL1 file written for the call."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cvl"
        write_covariance(path, BlockCovariance(np.eye(4), 4, 1))
        return read_covariance(path, block_dim)


def _rows(**kwargs):
    """``figures.spatial_vs_mc_rows`` as a list: its checks run on iteration."""
    return list(spatial_vs_mc_rows(**kwargs))


# name -> (callable, a valid baseline call's keyword arguments); the sweep
# varies each scalar parameter of the callable's signature in turn
BASELINES = {
    "BlockCovariance": (BlockCovariance, {"data": np.eye(4), "n_blocks": 4, "block_dim": 1}),
    "BlockCovariance.block": (BlockCovariance.block, {"self": _BLOCKS, "i": 1, "j": 2}),
    "BlockCovariance.entry": (
        BlockCovariance.entry,
        {"self": _BLOCKS, "i": 1, "j": 2, "m": 1, "n": 2},
    ),
    "LatticeModelSpec": (
        LatticeModelSpec,
        {
            "n_blocks": 4,
            "block_dim": 1,
            "drift": lambda state, out: None,
            "sigma": np.eye(1),
            "m0": np.zeros(1),
            "bound_sigma_sq_frob": 1.0,
        },
    ),
    "LipschitzConstants": (
        LipschitzConstants,
        {"lambda_0": -1.0, "lambda_f": 0.25, "lambda_h": 0.1},
    ),
    "cyclic_distance": (covloc.cyclic_distance, {"i": 1, "j": 2, "n": 8}),
    "FhnParams": (covloc.FhnParams, {}),
    "LinearParams": (LinearParams, {}),
    "fhn_model": (covloc.fhn_model, {"params": covloc.FhnParams(), "n": 8}),
    "linear_model": (linear_model, {"params": LinearParams(), "n": 8, "m0": 0.0}),
    "EnsembleState": (EnsembleState, {"samples": np.zeros((2, 4, 1)), "time": 0.0}),
    "IntegratorConfig": (
        IntegratorConfig,
        {"step_size": 0.01, "t_end": 0.02, "master_seed": 1},
    ),
    "euler_step": (
        covloc.euler_step,
        {"state": np.ones((8, 1)), "t": 0.0, "model": _MODEL, "h": 0.01, "noise": np.ones((8, 1))},
    ),
    "simulate_ensemble": (
        covloc.simulate_ensemble,
        {"model": _MODEL, "config": _RUN, "n_samples": 3, "n_workers": 1},
    ),
    "analytic_covariance": (
        covloc.analytic_covariance,
        {"sys": _SYSTEM, "cov0": None, "sigma_u": 0.5, "t": 1.0},
    ),
    "analytic_mean": (covloc.analytic_mean, {"sys": _SYSTEM, "u0": np.ones(8), "t": 1.0}),
    "build_system_matrix": (build_system_matrix, {"params": LinearParams(), "n": 8}),
    "circulant_covariance_row": (
        covloc.circulant_covariance_row,
        {"params": LinearParams(), "n": 8, "t": 1.0},
    ),
    "sample_covariance": (covloc.sample_covariance, {"ensemble": _ENSEMBLE, "rows": 2}),
    "shifted_pair_covariance": (
        covloc.shifted_pair_covariance,
        {"ensemble": _ENSEMBLE, "lag": 1},
    ),
    "monte_carlo_pair_covariance": (
        covloc.monte_carlo_pair_covariance,
        {"ensemble": _ENSEMBLE, "lag": 1},
    ),
    "stein_identity_residual": (
        covloc.stein_identity_residual,
        {"f_pair": _SUM, "g_pair": _SUM, "dim": 2, "n_mc": 64, "seed": 1},
    ),
    "BoundInputs": (
        covloc.BoundInputs,
        {
            "constants": _CONSTANTS,
            "sigma_sq_frob": 1.0,
            "sigma0_sq_frob": 0.0,
            "q": 1,
            "grad_g_sup": 1.0,
            "t": 1.0,
            "n": 8,
        },
    ),
    "bound_inputs_from_model": (
        bound_inputs_from_model,
        {"model": _MODEL, "t": 1.0, "grad_g_sup": 1.0},
    ),
    "covariance_bound": (
        covloc.covariance_bound,
        {"i": 1, "j": 2, "beta": 0.2, "inputs": _INPUTS},
    ),
    "diffusion_only_bound": (
        covloc.diffusion_only_bound,
        {"i": 1, "j": 2, "beta": 0.2, "inputs": _INPUTS},
    ),
    "estimator_variance_bound": (
        covloc.estimator_variance_bound,
        {"inputs": _INPUTS, "beta": 0.2},
    ),
    "growth_rates": (covloc.growth_rates, {"beta": 0.2, "c": _CONSTANTS}),
    "kernel_entry_bound": (
        covloc.kernel_entry_bound,
        {"i": 1, "j": 2, "c": _CONSTANTS, "n": 8, "s": 1.0, "beta": 0.2},
    ),
    "local_coefficient": (covloc.local_coefficient, {"beta": 0.2, "inputs": _INPUTS}),
    "longtime_bound": (
        covloc.longtime_bound,
        {"i": 1, "j": 2, "inputs": _INPUTS, "beta": 0.2},
    ),
    "optimize_beta": (covloc.optimize_beta, {"i": 1, "j": 2, "inputs": _INPUTS}),
    "surrogate_kernel": (covloc.surrogate_kernel, {"c": _CONSTANTS, "n": 8, "s": 1.0}),
    "choose_bandwidth": (
        covloc.choose_bandwidth,
        {"epsilon": 0.01, "beta": 0.2, "local_coefficient": 1.0, "n_blocks": 64},
    ),
    "localization_error_bound": (
        covloc.localization_error_bound,
        {"l": 2, "beta": 0.2, "local_coefficient": 1.0},
    ),
    "localize": (covloc.localize, {"c": _BLOCKS, "l": 1}),
    "plan_localization": (
        covloc.plan_localization,
        {
            "epsilon": 0.01,
            "beta": 0.2,
            "local_coefficient": 1.0,
            "n_blocks": 64,
            "cov_norm": 1.0,
            "delta": 0.05,
            "c_constant": 1.0,
        },
    ),
    "recommended_sample_size": (
        covloc.recommended_sample_size,
        {"epsilon": 0.01, "l": 2, "n": 64, "cov_norm": 1.0, "delta": 0.05, "c_constant": 1.0},
    ),
    "storage.read_covariance": (_read_covariance, {"block_dim": 1}),
    "figures.spatial_vs_mc_rows": (
        _rows,
        {
            "preset": "regime-f",
            "n": 4,
            "times": [0.002],
            "k_mc": 3,
            "sa_replicates": 2,
            "h": 5e-4,
            "seed": 1,
            "threads": 1,
            "max_lag": None,
        },
    ),
}
# the signature the sweep reads where the baseline calls a wrapper
SIGNATURES = {
    "storage.read_covariance": read_covariance,
    "figures.spatial_vs_mc_rows": spatial_vs_mc_rows,
}
# Exports the sweep leaves out: exceptions, and records whose fields the
# library computes and returns (EstimatorReport.std_error is NaN by design
# for one sample), not arguments it checks.
NOT_ARGUMENTS = {
    "ContractViolationError",
    "NumericalBlowupError",
    "PresetNotFoundError",
    "BoundEvaluation",
    "EstimatorReport",
    "LocalizationPlan",
    "PathResult",
    "RegimePreset",
    "SteinCheck",
}
# A callee that names an argument by its own field: a bandwidth l, a ring
# size n that becomes a model's n_blocks, the kernel time s that becomes
# BoundInputs.t, plan_localization's n_blocks that becomes
# recommended_sample_size's n, and threads that become simulate_ensemble's
# n_workers.
ALIASES = {"l": "bandwidth", "n": "n_blocks", "s": "t", "n_blocks": "n", "threads": "n_workers"}
_SCALAR = re.compile(r"(int|float)( \| None)?")


def scalar_parameters(fn) -> dict[str, list]:
    """Parameter -> the values the sweep gives it, for each parameter of
    ``fn`` annotated as a scalar: REALS for a float, SIZES for an int."""
    return {
        name: REALS if param.annotation.startswith("float") else SIZES
        for name, param in inspect.signature(fn).parameters.items()
        if isinstance(param.annotation, str) and _SCALAR.fullmatch(param.annotation)
    }


def nan_free(value) -> bool:
    """Whether no float in ``value`` is NaN: numbers, arrays, sequences,
    dicts and the fields of dataclasses and plain objects, skipping
    callables such as a model's drift."""
    if isinstance(value, (float, np.floating)):
        return not math.isnan(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind != "f" or not np.isnan(value).any()
    if isinstance(value, (list, tuple)):
        return all(map(nan_free, value))
    if isinstance(value, dict):
        return all(map(nan_free, value.values()))
    if dataclasses.is_dataclass(value) or hasattr(value, "__dict__") and not callable(value):
        return all(nan_free(v) for v in vars(value).values() if not callable(v))
    return True


def unswept(exports: dict) -> set[str]:
    """Public callables of ``exports`` with a scalar parameter and no row,
    in BASELINES or NOT_ARGUMENTS."""
    return {
        name
        for name, value in exports.items()
        if callable(value) and not name.startswith("_")
        if name not in BASELINES and name not in NOT_ARGUMENTS and scalar_parameters(value)
    }


def test_unswept_finds_an_export_with_a_scalar_argument_and_no_row():
    def new_export(model, lag: int | None, tag: str, pair: tuple[float, float]):
        pass

    def no_scalar(model, name: str):
        pass

    assert scalar_parameters(new_export) == {"lag": SIZES}
    assert scalar_parameters(covloc.growth_rates) == {"beta": REALS}
    exports = {"new_export": new_export, "no_scalar": no_scalar, "_private": new_export}
    exports |= {"growth_rates": covloc.growth_rates, "SteinCheck": covloc.SteinCheck}
    assert unswept(exports) == {"new_export"}


def test_every_exported_callable_has_a_row():
    assert unswept(vars(covloc)) == set()
    assert all(callable(getattr(covloc, name)) for name in NOT_ARGUMENTS)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(BASELINES))
def test_every_baseline_call_is_valid(name):
    fn, kwargs = BASELINES[name]
    assert nan_free(fn(**kwargs))


_CASES = [
    (name, param)
    for name, (fn, _) in sorted(BASELINES.items())
    for param in scalar_parameters(SIGNATURES.get(name, fn))
]


def test_every_row_sweeps_at_least_one_scalar_argument():
    assert {name for name, _ in _CASES} == set(BASELINES)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, param", _CASES, ids=[f"{n}.{p}" for n, p in _CASES])
def test_a_scalar_argument_outside_its_contract_is_refused_by_name(name, param):
    fn, kwargs = BASELINES[name]
    values = scalar_parameters(SIGNATURES.get(name, fn))[param]
    names = {param, ALIASES.get(param, param)}
    named = re.compile("|".join(rf"(?<![\w.]){re.escape(n)}\b" for n in names))
    problems = []
    for value in values:
        try:
            result = fn(**{**kwargs, param: value})
        except ContractViolationError as err:
            if value not in PLAUSIBLE and not named.search(str(err)):
                problems.append(f"{value!r:.20}: the message does not name {param}: {err}")
            continue
        except Exception as err:  # a warning, under this test's filter, too
            problems.append(f"{value!r:.20}: {type(err).__name__}: {err}")
            continue
        if not nan_free(result):
            problems.append(f"{value!r:.20}: a result with NaN")
    assert problems == []
