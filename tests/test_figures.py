"""Figure registry: exact linear figures against the dense oracle, the FHN
figures' files, headers and row counts at tiny scales, and the argument
checks of the spatial-average comparison."""

import csv
import json

import numpy as np
import pytest

from covloc import figures, fhn_model, regime, shifted_pair_covariance, simulate_ensemble
from covloc.figures import (
    LINEAR_BOTH,
    LINEAR_DIFFUSION,
    LINEAR_MEANFIELD,
    run_figure,
    spatial_vs_mc_rows,
)
from covloc.integrator import IntegratorConfig
from covloc.lattice import ContractViolationError
from covloc.models import REGIMES, LinearParams, stiffest_rate
from oracles import dense_covariance, replicate_loop_rows


def _read(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def _column(rows, index):
    return np.array([float(r[index]) for r in rows])


def _cell(x):
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _oracle_row(params, n):
    return dense_covariance(params, n, 5.0)[0]


def _run(tmp_path, figure_id, stem):
    files = run_figure(figure_id, scale="desk", seed=3, out_dir=tmp_path)
    assert files == [tmp_path / f"{figure_id}_{stem}.csv", tmp_path / f"{figure_id}_metadata.json"]
    return _read(files[0])


def test_f1_profiles_match_the_dense_oracle(tmp_path):
    header, rows = _run(tmp_path, "F1", "meanfield_profiles")
    assert header == ["n", "i", "covariance"]
    for n in (16, 32, 64, 128):
        mine = [r for r in rows if r[0] == str(n)]
        assert [int(r[1]) for r in mine] == list(range(1, n + 1))
        np.testing.assert_allclose(
            _column(mine, 2), _oracle_row(LINEAR_MEANFIELD, n), rtol=0, atol=1e-12
        )


def test_f2_covariance_matches_the_dense_oracle(tmp_path):
    header, rows = _run(tmp_path, "F2", "meanfield_vs_n")
    assert header == ["n", "covariance", "bound"]
    expected = [_oracle_row(LINEAR_MEANFIELD, int(r[0]))[1] for r in rows]
    np.testing.assert_allclose(_column(rows, 1), expected, rtol=0, atol=1e-12)


def test_f3_profiles_match_the_dense_oracle(tmp_path):
    header, rows = _run(tmp_path, "F3", "diffusion_profiles")
    assert header == ["d_u", "i", "covariance"]
    for d_u in (1.0, 5.0, 20.0):
        mine = [r for r in rows if float(r[0]) == d_u]
        expected = _oracle_row(LinearParams(a=1.0, d_u=d_u, w=0.0, sigma_u=0.5), 64)
        np.testing.assert_allclose(_column(mine, 2), expected, rtol=0, atol=1e-12)


def test_f4_decay_matches_the_dense_oracle(tmp_path):
    header, rows = _run(tmp_path, "F4", "diffusion_decay")
    assert header == ["k", "covariance", "log_abs_covariance", "bound"]
    expected = _oracle_row(LINEAR_DIFFUSION, 64)[:33]
    np.testing.assert_allclose(_column(rows, 1), expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(_column(rows, 2), np.log(np.abs(_column(rows, 1))), rtol=1e-15)


def test_f5_and_f6_match_the_dense_oracle(tmp_path):
    expected = _oracle_row(LINEAR_BOTH, 64)
    header, rows = _run(tmp_path, "F5", "combined_profile")
    assert header == ["i", "covariance"] and len(rows) == 64
    np.testing.assert_allclose(_column(rows, 1), expected, rtol=0, atol=1e-12)
    header, rows = _run(tmp_path, "F6", "combined_decay")
    assert header == ["k", "covariance"] and len(rows) == 33
    np.testing.assert_allclose(_column(rows, 1), expected[:33], rtol=0, atol=1e-12)


@pytest.mark.parametrize("figure_id", ["F1", "F2", "F3", "F4", "F5", "F6"])
def test_builders_return_the_data_and_write_nothing(tmp_path, monkeypatch, figure_id):
    monkeypatch.chdir(tmp_path)
    cfg = figures.SCALES[figure_id]["desk"] if figure_id in figures.SCALES else None
    stem, header, rows, settings = figures.FIGURES[figure_id].builder(cfg, 3, 1)
    assert list(tmp_path.iterdir()) == []
    files = run_figure(figure_id, seed=3, out_dir=tmp_path / "out")
    assert files[0].name == f"{figure_id}_{stem}.csv"
    assert _read(files[0]) == (header, [[_cell(x) for x in row] for row in rows])
    assert json.loads(files[1].read_text())["settings"] == json.loads(json.dumps(settings))


_SA_HEADER = ["regime", "time", "lag", "method", "estimate", "std_error"]
_SA_TINY = {"n": 8, "k_mc": 2, "sa_replicates": 2, "h": 5e-4}
# figure -> (tiny desk scale, stem, header, row count)
TINY = {
    "F7": (
        {"n": 8, "k": 4, "h": 5e-4},
        "fhn_diffusion_covariance",
        ["regime", "component", "i", "covariance"],
        3 * 2 * 8,  # regimes x components x blocks
    ),
    "F9": (
        {"n_list": [8], "k": 4, "h": 5e-4},
        "fhn_meanfield_vs_n",
        ["w", "t", "n", "component", "covariance"],
        2 * 1 * 2 * 2,  # w values x lattice sizes x times x components
    ),
    "F10": (
        {"n": 8, "h": 5e-4},
        "fhn_fields",
        ["regime", "time", "block", "u", "v"],
        3 * 101 * 8,  # regimes x snapshots x blocks
    ),
    # regimes x times x lags 0..4 x methods
    "F11": (_SA_TINY, "spatial_vs_mc", _SA_HEADER, 5 * 4 * 5 * 2),
    "F12": (_SA_TINY, "spatial_vs_mc", _SA_HEADER, 1 * 4 * 5 * 2),
}


@pytest.mark.parametrize("figure_id", sorted(TINY))
def test_fhn_figures_write_one_csv_and_metadata(tmp_path, monkeypatch, figure_id):
    scale, stem, header, n_rows = TINY[figure_id]
    monkeypatch.setitem(figures.SCALES[figure_id], "desk", scale)
    got_header, rows = _run(tmp_path, figure_id, stem)
    assert got_header == header
    assert len(rows) == n_rows


@pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(3.0), "3", -1, 2**64])
def test_run_figure_rejects_a_seed_that_is_not_a_64_bit_integer(tmp_path, seed):
    # 1.5 used to run as seed 1 while the metadata recorded 1.5
    with pytest.raises(ContractViolationError, match="seed"):
        run_figure("F7", seed=seed, out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("threads", [True, 1.5, np.float64(2.0), "2", 0, -1])
def test_run_figure_rejects_threads_that_are_not_a_positive_integer(tmp_path, monkeypatch, threads):
    # True and 1.5 used to pass a ``threads < 1`` check and run F1
    def refuse(*args):
        raise AssertionError("built before checking threads")

    monkeypatch.setitem(figures.FIGURES, "F1", figures.FigureSpec("refused", refuse))
    with pytest.raises(ContractViolationError, match="threads must be an integer"):
        run_figure("F1", seed=3, out_dir=tmp_path, threads=threads)
    assert list(tmp_path.iterdir()) == []


def test_run_figure_takes_a_numpy_integer_seed(tmp_path):
    files = run_figure("F1", seed=np.uint64(3), out_dir=tmp_path)
    assert json.loads(files[1].read_text())["seed"] == 3


def _whole(ratio):
    return abs(ratio - round(ratio)) <= 1e-9


# the desk-scale steps of the regimes that step below the 5e-4 base; every
# paper-scale regime steps at its 1e-4 base
_DESK_STEPS = {"diffusion-strongly-coherent": 1e-4, "regime-a": 1e-4, "regime-c": 2.5e-4}


@pytest.mark.parametrize("scale", ["desk", "paper"])
@pytest.mark.parametrize("figure_id", ["F7", "F8", "F9", "F10", "F11", "F12"])
def test_every_fhn_step_is_stable_and_divides_the_output_times(monkeypatch, figure_id, scale):
    # run the builder on SCALES' base step at tiny shapes, record each
    # _fhn_run and the output times of the call it feeds, and step nothing
    cfg = figures.SCALES[figure_id][scale]
    tiny = {"n": 8, "n_list": [8], "k": 2, "k_mc": 2, "sa_replicates": 2}
    runs, calls = {}, []

    def record_run(params, base_h, *args):
        run = real_run(params, base_h, *args)
        runs[id(run)] = (run, params, base_h)
        return run

    def zero_horizon(simulate):
        def record(model, config, *args, output_times=None, **kwargs):
            times = [config.t_end] if output_times is None else output_times
            calls.append((runs[id(config)], times))
            start = IntegratorConfig(config.step_size, 0.0, config.master_seed)
            zeros = None if output_times is None else [0.0] * len(output_times)
            return simulate(model, start, *args, output_times=zeros, **kwargs)

        return record

    real_run = figures._fhn_run
    monkeypatch.setattr(figures, "_fhn_run", record_run)
    monkeypatch.setattr(figures, "simulate_ensemble", zero_horizon(figures.simulate_ensemble))
    monkeypatch.setattr(figures, "simulate_path", zero_horizon(figures.simulate_path))
    figures.FIGURES[figure_id].builder({**cfg, **{k: tiny[k] for k in cfg if k in tiny}}, 3, 1)
    assert calls
    for (run, params, base_h), times in calls:
        name = next(name for name, preset in REGIMES.items() if preset.params == params)
        h = run.step_size
        assert base_h == cfg["h"] and h <= 0.5 / stiffest_rate(params)
        assert _whole(base_h / h) and all(_whole(t / h) for t in times)
        assert h == (_DESK_STEPS.get(name, 5e-4) if scale == "desk" else 1e-4), name


def _refuse_to_integrate(*args, **kwargs):
    raise AssertionError("integrated before checking its arguments")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_lag": 9},
        {"max_lag": -1},
        {"k_mc": 1},
        {"sa_replicates": 1},
        {"times": []},
        pytest.param({"times": [0.02, 0.01]}, id="decreasing-times"),
    ],
)
def test_spatial_vs_mc_rejects_bad_arguments_before_integrating(monkeypatch, kwargs):
    monkeypatch.setattr(figures, "simulate_ensemble", _refuse_to_integrate)
    args = {"n": 16, "times": [0.01], "k_mc": 4, "sa_replicates": 3, "h": 5e-4, "seed": 1}
    # the message names the argument, or for times out of order that order
    match = "nondecreasing" if kwargs.get("times") else next(iter(kwargs))
    with pytest.raises(ContractViolationError, match=match):
        list(spatial_vs_mc_rows("regime-f", **{**args, **kwargs}))


@pytest.mark.parametrize("threads", [1, 2])
def test_spatial_vs_mc_matches_the_replicate_loop(threads):
    args = ("regime-f", 16, [0.01, 0.02], 30, 3, 5e-4, 17)
    rows = list(spatial_vs_mc_rows(*args, threads=threads))
    assert len(rows) == 2 * 2 * 9  # times x methods x lags 0..8
    assert rows == replicate_loop_rows(*args, threads=threads)


def test_spatial_vs_mc_steps_all_paths_in_one_call(monkeypatch):
    calls = []
    original = figures.simulate_ensemble

    def counted(*args, **kwargs):
        calls.append(kwargs["streams"])
        return original(*args, **kwargs)

    monkeypatch.setattr(figures, "simulate_ensemble", counted)
    list(spatial_vs_mc_rows("regime-f", 16, [0.01], 4, 3, 5e-4, 1))
    assert len(calls) == 1 and len(calls[0]) == 4 + 3


# the gap between neighbouring presets' ratios must exceed this many of its
# delta-method standard errors
_LADDER_Z = 5.0


def test_stronger_diffusion_correlates_further():
    # paper claim: diffusion localizes, and stronger diffusion correlates
    # neighbours more.  c(lag 1)/c(lag 0) of the pooled shift estimator rises
    # along the ladder, each gap many standard errors wide
    ratios, errors = [], []
    ladder = ("diffusion-strongly-mixed", "diffusion-weakly-coherent", "diffusion-strongly-coherent")
    for ridx, name in enumerate(ladder):
        params = regime(name).params
        run = figures._fhn_run(params, 5e-4, 0.5, figures.DEFAULT_SEED, 7, ridx)
        ens = simulate_ensemble(fhn_model(params, 32), run, 512, n_workers=2)
        ratio = shifted_pair_covariance(ens, 1).estimate / shifted_pair_covariance(ens, 0).estimate
        # per-sample lag products; the delta method gives the ratio's error
        centered = ens.samples[:, :, 0] - ens.samples[:, :, 0].mean()
        lag1 = (centered * np.roll(centered, -1, axis=1)).mean(axis=1)
        lag0 = (centered * centered).mean(axis=1)
        ratios.append(ratio)
        errors.append((lag1 - ratio * lag0).std(ddof=1) / np.sqrt(len(lag0)) / lag0.mean())
    for k in range(len(ratios) - 1):
        gap = ratios[k + 1] - ratios[k]
        assert gap > _LADDER_Z * np.hypot(errors[k], errors[k + 1]), (ratios, errors)
