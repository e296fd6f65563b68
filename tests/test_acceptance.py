"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single "[acceptance] criterion k (<label>): PASS" line on
success; a failed assertion leaves the line absent and the test red.  Scales,
step sizes, and seeds are frozen here so the tolerances stay tied to a fixed
configuration.
"""

import math
import time

import numpy as np
import pytest

from covloc import (
    IntegratorConfig,
    LinearParams,
    LipschitzConstants,
    analytic_covariance,
    bound_inputs_from_model,
    build_system_matrix,
    choose_bandwidth,
    covariance_bound,
    diffusion_only_bound,
    euler_step,
    kernel_entry_bound,
    linear_model,
    local_coefficient,
    localize,
    meanfield_only_bound,
    sample_covariance,
    shifted_pair_covariance,
    simulate_ensemble,
    stein_identity_residual,
    surrogate_kernel,
)
from covloc.cli import main
from covloc.figures import spatial_vs_mc_rows
from covloc.integrator import _sample_generator

FIG34 = LinearParams(a=1.0, d_u=20.0, w=0.0, sigma_u=0.5)
MEANFIELD = LinearParams(a=1.0, d_u=0.0, w=5.0, sigma_u=0.5)
COMBINED = LinearParams(a=1.0, d_u=20.0, w=5.0, sigma_u=0.5)


def _ok(k, label):
    print(f"[acceptance] criterion {k} ({label}): PASS")


@pytest.fixture(scope="module")
def fig34_run():
    """Criterion 1/2 share one K=8192 ensemble of the diffusion-only model."""
    start = time.perf_counter()
    n = 64
    model = linear_model(FIG34, n)
    cfg = IntegratorConfig(step_size=1.25e-3, t_end=5.0, master_seed=1234567)
    ensemble = simulate_ensemble(model, cfg, 8192)
    reports = [shifted_pair_covariance(ensemble, k) for k in range(n // 2 + 1)]
    exact = analytic_covariance(build_system_matrix(FIG34, n), None, FIG34.sigma_u, 5.0)
    return {
        "elapsed": time.perf_counter() - start,
        "reports": reports,
        "exact": exact,
        "n": n,
    }


@pytest.mark.slow
def test_criterion_1_analytic_vs_monte_carlo(fig34_run):
    exact = fig34_run["exact"]
    for k, rep in enumerate(fig34_run["reports"]):
        if k > 32:
            break
        assert abs(rep.estimate - exact.entry(1, 1 + k)) <= 5.0 * rep.std_error, k
    assert fig34_run["elapsed"] <= 120.0, f"took {fig34_run['elapsed']:.1f}s"
    _ok(1, "analytic-vs-MC equivalence, K=8192, <= 2 min")


@pytest.mark.slow
def test_criterion_2_exponential_decay_and_bound_dominance(fig34_run):
    exact = fig34_run["exact"]
    profile = exact.lag_profile()
    ks = np.arange(2, 16)
    slope = np.polyfit(ks, np.log(np.abs(profile[2:16])), 1)[0]
    assert slope < 0.0
    inputs = bound_inputs_from_model(linear_model(FIG34, 64), 5.0)
    for k in range(33):
        bound = diffusion_only_bound(1, 1 + k, 0.2, inputs)
        assert abs(profile[k]) < bound  # strict, both sides exact
    _ok(2, "exponential decay with beta=0.2 bound strictly above")


def test_criterion_3_one_over_n_scaling():
    scaled = []
    for n in (16, 32, 64, 128):
        cov = analytic_covariance(build_system_matrix(MEANFIELD, n), None, 0.5, 5.0)
        scaled.append(cov.entry(1, 2) * n)
    spread = (max(scaled) - min(scaled)) / min(scaled)
    assert spread <= 0.01
    for n in (16, 32, 64, 128):
        coeff = meanfield_only_bound(bound_inputs_from_model(linear_model(MEANFIELD, n), 5.0)) * n
        assert coeff == pytest.approx(0.41329769316713173, rel=1e-12)
        assert coeff > max(scaled)
    _ok(3, "1/N scaling constant to 1% and dominated by 0.41330")


def test_criterion_4_combined_regime_shape():
    n = 64
    cov = analytic_covariance(build_system_matrix(COMBINED, n), None, 0.5, 5.0)
    profile = cov.lag_profile()
    assert profile.min() > 0.0
    plateau = profile[n // 2] * n
    mf_plateau = (
        analytic_covariance(build_system_matrix(MEANFIELD, n), None, 0.5, 5.0).entry(1, 2) * n
    )
    assert 0.5 <= plateau / mf_plateau <= 2.0
    assert profile[1] > profile[n // 2]  # decays into the plateau
    _ok(4, "combined regime decays then plateaus at the mean-field level")


def test_criterion_5_surrogate_kernel_bound_dominance():
    n = 16
    constant_sets = [
        LipschitzConstants(-2.0, 0.5, 0.3),
        LipschitzConstants(-1.0, 0.25, 0.0),
        LipschitzConstants(-3.0, 1.0, 0.5),
        LipschitzConstants(-1.5, 0.0, 0.4),
    ]
    combos = 0
    for c in constant_sets:
        for s in (0.1, 1.0, 5.0):
            kernel = surrogate_kernel(c, n, s)
            for beta in (0.1, 0.5, 1.0):
                bound = np.array(
                    [
                        [kernel_entry_bound(i, j, c, n, s, beta) for j in range(1, n + 1)]
                        for i in range(1, n + 1)
                    ]
                )
                assert (kernel < bound).all()  # strict, entry-wise
                combos += 1
    assert combos == 36
    _ok(5, "surrogate kernel strictly below its entry bound, 36 combos")


def test_criterion_6_gaussian_covariance_identity():
    identity = (lambda x: x[..., 0], lambda x: np.ones_like(x))
    square = (lambda x: x[..., 0] ** 2, lambda x: 2.0 * x)
    negate = (lambda x: -x[..., 0], lambda x: -np.ones_like(x))
    cases = [
        (identity, identity, 1.0),
        (square, square, 2.0),
        (identity, negate, -1.0),
    ]
    for f_pair, g_pair, target in cases:
        chk = stein_identity_residual(f_pair, g_pair, dim=1, n_mc=100_000, n_theta=64, seed=2024)
        assert chk.residual < 3.0 * chk.std_error, (target, chk)
    _ok(6, "Gaussian integration-by-parts identity within 3 MC standard errors")


def test_criterion_7_discretization_order():
    """Coupled-noise refinement: halving h halves the strong error (additive
    noise makes explicit Euler first order), ratio gated to [1.8, 2.2]."""
    params = LinearParams(a=1.0, d_u=1.0, w=1.0, sigma_u=0.5)
    n, n_paths = 16, 32
    model = linear_model(params, n)
    h_fine = 1.25e-3  # finest level: smallest ladder step halved
    n_fine = 800
    rms_sq = {h: 0.0 for h in (1e-2, 5e-3, 2.5e-3)}
    for p in range(n_paths):
        gen = _sample_generator(555000 + p, 0)
        increments = gen.standard_normal((n_fine, n, 1)) * math.sqrt(h_fine)
        for h in rms_sq:
            states = {}
            for step in (h, h / 2):
                per_step = int(round(step / h_fine))
                state = np.zeros((n, 1))
                for k in range(int(round(1.0 / step))):
                    dw = increments[k * per_step : (k + 1) * per_step].sum(axis=0)
                    state = euler_step(state, k * step, model, step, dw / math.sqrt(step))
                states[step] = state
            rms_sq[h] += float(((states[h] - states[h / 2]) ** 2).mean())
    errs = {h: math.sqrt(v / n_paths) for h, v in rms_sq.items()}
    for coarse, fine in ((1e-2, 5e-3), (5e-3, 2.5e-3)):
        ratio = errs[coarse] / errs[fine]
        assert 1.8 <= ratio <= 2.2, ratio
    _ok(7, "strong-order refinement ratios inside [1.8, 2.2]")


def _comparison_z_scores(regime_name, t_end, seed):
    rows = list(
        spatial_vs_mc_rows(
            regime_name,
            n=128,
            times=[t_end],
            k_mc=512,
            sa_replicates=20,
            h=5e-4,
            seed=seed,
            max_lag=16,
        )
    )
    mc = {r[2]: (r[4], r[5]) for r in rows if r[3] == "monte-carlo"}
    sa = {r[2]: (r[4], r[5]) for r in rows if r[3] == "spatial-average"}
    zs = {}
    for lag in range(17):
        diff = abs(sa[lag][0] - mc[lag][0])
        zs[lag] = diff / math.hypot(sa[lag][1], mc[lag][1])
    return zs


@pytest.mark.slow
def test_criterion_8_spatial_averaging_consistency_and_failure():
    consistent = _comparison_z_scores("regime-f", 1.0, seed=777001)
    assert max(consistent.values()) <= 5.0, consistent
    # strong mean field synchronizes the ring; pooling over positions then
    # carries no cross-sample information and the curves separate sharply
    lost = _comparison_z_scores("regime-b", 5.0, seed=777002)
    assert max(lost.values()) > 5.0, lost
    _ok(8, "spatial averaging consistent at t=1 (f) and lost at t=5 (b)")


def test_criterion_9_localization_end_to_end():
    n = 64
    model = linear_model(FIG34, n)
    exact = analytic_covariance(build_system_matrix(FIG34, n), None, 0.5, 5.0)
    coeff = local_coefficient(0.2, bound_inputs_from_model(model, 5.0))
    bandwidth = choose_bandwidth(0.01, 0.2, coeff, n_blocks=n)
    measured = np.linalg.norm(exact.data - localize(exact, bandwidth).data, ord=2)
    assert measured <= 0.01

    raw_err, loc_err = [], []
    for r in range(20):
        cfg = IntegratorConfig(step_size=1.25e-3, t_end=5.0, master_seed=31337 + 7919 * r)
        estimate = sample_covariance(simulate_ensemble(model, cfg, 100))
        raw_err.append(np.linalg.norm(estimate.data - exact.data, ord=2))
        loc_err.append(np.linalg.norm(localize(estimate, 16).data - exact.data, ord=2))
    assert np.median(loc_err) < np.median(raw_err)
    _ok(9, "bandwidth meets the target and localization beats raw estimation")


def test_criterion_10_byte_identical_runs(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        "[model]\nkind = linear\na = 1.0\nd_u = 2.0\nw = 1.0\nsigma_u = 0.5\n\n"
        "[run]\nn_blocks = 16\nn_samples = 300\nt_end = 0.2\nstep_size = 0.002\n"
        "master_seed = 99\n"
    )

    def run(cmd, tag, threads):
        out = tmp_path / tag
        assert main([cmd, "--config", str(cfg_path), "--out", str(out), "--threads", str(threads)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert run("simulate", "s1", 1) == run("simulate", "s2", 8) == run("simulate", "s3", 1)
    assert run("cov", "c1", 1) == run("cov", "c2", 4)
    assert run("bounds", "b1", 1) == run("bounds", "b2", 2)
    _ok(10, "byte-identical outputs, independent of thread count")
