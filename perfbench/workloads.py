"""The four benchmark workloads, each driven through covloc's public entry points.

A workload turns the benchmark seed into the program's inputs (config files,
master seeds, covariance files), runs one operation into a fresh output
directory, and checks the operation's outputs afterwards.  Every covloc
function an operation calls directly is imported by name into this module so
the traced run can wrap it here, as bound in the module that calls it.

Shapes: ``full`` is what the benchmark measures; ``tiny`` is a seconds-long
version of the same route used for warm-up and the self-tests.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from covloc.analytic import analytic_covariance, build_system_matrix, circulant_covariance_row
from covloc.bounds import (
    bound_inputs_from_model,
    diffusion_only_bound,
    kernel_entry_bound,
    local_coefficient,
    surrogate_kernel,
)
from covloc.cli import main as cli_main
from covloc.figures import run_figure, spatial_vs_mc_rows
from covloc.integrator import IntegratorConfig, simulate_path
from covloc.lattice import BlockCovariance, lipschitz_constants
from covloc.localization import choose_bandwidth, localize
from covloc.models import LinearParams, fhn_model, linear_model, regime
from covloc.storage import read_covariance, write_covariance, write_covariance_csv, write_csv

from . import replays

# Paper-scale work, in the workload's own work unit (see README.md).
PAPER_F7_BLOCK_STEPS = 512 * 8192 * 50_000  # F7, one regime: N=512, K=8192, h=1e-4, t=5
PAPER_F12_BLOCK_STEPS = 512 * (512 + 20) * 50_000  # F12: K_mc=512 plus 20 replicates
PAPER_F10_BLOCK_STEPS = 3 * 512 * 50_000  # F10: three single paths


def derive_seed(seed: int, tag: str) -> int:
    """63-bit master seed for one workload, a pure function of (seed, tag)."""
    words = [int(seed) & 0xFFFFFFFF, int(seed) >> 32] + list(tag.encode())
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0] >> np.uint64(1))


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for item in sorted(path.rglob("*")):
        if item.is_file():
            h.update(str(item.relative_to(path)).encode())
            h.update(item.read_bytes())
    return h.hexdigest()


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _finite_columns(rows, columns) -> bool:
    return all(math.isfinite(float(row[c])) for row in rows for c in columns)


class Workload:
    """One named workload: inputs from a seed, one operation, output gates."""

    name = ""
    threads = 1  # worker threads the operation asks covloc for

    def __init__(self, seed: int, shape: str = "full"):
        if shape not in ("full", "tiny"):
            raise ValueError(f"shape must be 'full' or 'tiny', got {shape!r}")
        self.seed = seed
        self.shape = shape
        self.master_seed = derive_seed(seed, self.name)

    def setup(self, work: Path) -> None:
        """Write the operation's input files under ``work``."""

    def warm_up(self, work: Path) -> None:
        """Run the route once at a tiny shape so lazy set-up is paid here."""
        tiny = type(self)(self.seed, "tiny")
        tiny.setup(work)
        tiny.run(work, work / "warm")

    paper_work = 0  # work units of the paper-scale run this workload stands for

    @property
    def work(self) -> int:
        """Work units one operation performs (block-steps for FHN)."""
        raise NotImplementedError

    def run(self, work: Path, out: Path, threads: int | None = None):
        """The timed operation; returns what ``check`` and ``digest`` need."""
        raise NotImplementedError

    def check(self, out: Path, result) -> list[str]:
        """Failed correctness gates, as messages; empty when all pass."""
        raise NotImplementedError

    def digest(self, out: Path, result) -> str:
        return digest_dir(out)

    def replay(self) -> dict:
        """Replayed stepping internals at this workload's call shapes."""
        return replays.none()

    def observed(self, result) -> dict:
        """Per-layer values read off a checked result."""
        return {"analytic.max_dev_vs_fft": 0.0}


class FhnCov(Workload):
    """``covloc cov`` on a generated regime-c config, two worker threads."""

    name = "fhn-cov"
    threads = 2
    paper_work = PAPER_F7_BLOCK_STEPS

    def __init__(self, seed, shape="full"):
        super().__init__(seed, shape)
        if shape == "full":
            self.n, self.k, self.steps = 128, 512, 250
        else:
            self.n, self.k, self.steps = 16, 300, 5
        self.h = 1e-4

    @property
    def work(self):
        return self.k * self.n * self.steps

    def setup(self, work):
        work.mkdir(parents=True, exist_ok=True)
        (work / f"{self.name}-{self.shape}.ini").write_text(
            "[model]\npreset = regime-c\n\n"
            f"[run]\nn_blocks = {self.n}\nn_samples = {self.k}\n"
            f"t_end = {self.steps * self.h!r}\nstep_size = {self.h!r}\n"
            f"master_seed = {self.master_seed}\n"
        )

    def run(self, work, out, threads=None):
        config = work / f"{self.name}-{self.shape}.ini"
        threads = self.threads if threads is None else threads
        return cli_main(["cov", "--config", str(config), "--out", str(out), "--threads", str(threads)])

    def replay(self):
        model = fhn_model(regime("regime-c").params, self.n)
        return replays.ensemble(self.k, self.n, model.sigma, self.h, self.master_seed)

    def check(self, out, result):
        if result != 0:
            return [f"covloc cov exited with {result}"]
        header, rows = read_csv_rows(out / "cov_curve.csv")
        expected = 2 * (self.n // 2 + 1)
        failures = []
        if len(rows) != expected:
            failures.append(f"cov_curve.csv has {len(rows)} rows, expected {expected}")
        if not _finite_columns(rows, (header.index("estimate"), header.index("std_error"))):
            failures.append("cov_curve.csv holds a non-finite estimate or standard error")
        return failures


class FhnSpatialVsMc(Workload):
    """Criterion-8/F12 shape: one K=512 ensemble and 20 K=1 replicates, one thread."""

    name = "fhn-sa-vs-mc"
    paper_work = PAPER_F12_BLOCK_STEPS
    max_z = 5.0  # criterion 8's consistency rule

    def __init__(self, seed, shape="full"):
        super().__init__(seed, shape)
        if shape == "full":
            self.n, self.k_mc, self.replicates, self.max_lag, self.t_end = 128, 512, 20, 64, 0.1
        else:
            self.n, self.k_mc, self.replicates, self.max_lag, self.t_end = 32, 128, 8, 16, 0.02
        self.h = 5e-4  # regime-f keeps the base step (see figures._fhn_step)

    @property
    def work(self):
        return (self.k_mc + self.replicates) * self.n * round(self.t_end / self.h)

    def run(self, work, out, threads=None):
        return list(
            spatial_vs_mc_rows(
                "regime-f",
                n=self.n,
                times=[self.t_end],
                k_mc=self.k_mc,
                sa_replicates=self.replicates,
                h=self.h,
                seed=self.master_seed,
                max_lag=self.max_lag,
            )
        )

    def replay(self):
        model = fhn_model(regime("regime-f").params, self.n)
        return replays.ensemble(self.k_mc, self.n, model.sigma, self.h, self.master_seed)

    def z_scores(self, rows) -> list[float]:
        mc = {r[2]: (r[4], r[5]) for r in rows if r[3] == "monte-carlo"}
        sa = {r[2]: (r[4], r[5]) for r in rows if r[3] == "spatial-average"}
        return [
            abs(sa[lag][0] - mc[lag][0]) / math.hypot(sa[lag][1], mc[lag][1])
            for lag in range(self.max_lag + 1)
        ]

    def check(self, out, rows):
        expected = 2 * (self.max_lag + 1)
        if len(rows) != expected:
            return [f"{len(rows)} rows, expected {expected}"]
        if not all(math.isfinite(r[4]) and math.isfinite(r[5]) for r in rows):
            return ["a non-finite estimate or standard error"]
        z = max(self.z_scores(rows))
        if not z <= self.max_z:
            return [f"max z over lags 0..{self.max_lag} is {z:.3f} > {self.max_z}"]
        return []

    def digest(self, out, rows):
        return hashlib.sha256(repr(rows).encode()).hexdigest()


class FhnFields(Workload):
    """``run_figure("F10", scale="desk")``: three single paths and one CSV."""

    name = "fhn-fields"
    paper_work = PAPER_F10_BLOCK_STEPS
    # desk F10: N=128, h=5e-4 to t=5, 101 snapshots, three mean-field regimes
    n, steps, paths, snapshots = 128, 10_000, 3, 101

    @property
    def work(self):
        return self.paths * self.n * self.steps

    def warm_up(self, work):
        # F10 has no smaller public shape: warm the same layers through the
        # single-path integrator and the CSV writer directly.
        model = fhn_model(regime("meanfield-moderate").params, 16)
        path = simulate_path(
            model, IntegratorConfig(step_size=5e-4, t_end=0.01, master_seed=self.master_seed),
            output_times=[0.0, 0.01],
        )
        work.mkdir(parents=True, exist_ok=True)
        write_csv(work / "warm.csv", ["u"], ((float(u),) for u in path.states[:, :, 0].ravel()))

    def replay(self):
        model = fhn_model(regime("meanfield-moderate").params, self.n)
        return replays.path(self.n, model.sigma, 5e-4, self.master_seed)

    def run(self, work, out, threads=None):
        return run_figure("F10", scale="desk", seed=self.master_seed, out_dir=out)

    def check(self, out, result):
        path = out / "F10_fhn_fields.csv"
        if not path.is_file() or not (out / "F10_metadata.json").is_file():
            return ["F10 outputs are missing"]
        header, rows = read_csv_rows(path)
        expected = self.paths * self.snapshots * self.n
        failures = []
        if len(rows) != expected:
            failures.append(f"F10_fhn_fields.csv has {len(rows)} rows, expected {expected}")
        if not _finite_columns(rows, (header.index("u"), header.index("v"))):
            failures.append("F10_fhn_fields.csv holds a non-finite state")
        return failures


class LinearLocalize(Workload):
    """Exact covariance, bounds and banded localization of criterion 9's model."""

    name = "linear-localize"
    params = LinearParams(a=1.0, d_u=20.0, w=0.0, sigma_u=0.5)
    beta, epsilon, kernel_s = 0.2, 0.01, 1.0
    # The bound checks stop at lag 64: further out, the dense entries are
    # float roundoff (~1e-17) and exceed bounds that are far smaller.
    gate_lags = 64
    row_tol = 1e-12

    def __init__(self, seed, shape="full"):
        super().__init__(seed, shape)
        # the CLI route (CSV input, CVL reference) runs at csv_n; the larger
        # size goes through CVL1 and the library calls directly
        self.cvl_n, self.csv_n = (2048, 512) if shape == "full" else (128, 64)
        self.t = 4.0 + 0.25 * (self.master_seed % 9)

    paper_work = 512**2  # one localization at the paper's largest linear lattice

    @property
    def work(self):
        return self.cvl_n**2 + self.csv_n**2

    def _exact(self, n):
        cov = analytic_covariance(build_system_matrix(self.params, n), None, self.params.sigma_u, self.t)
        model = linear_model(self.params, n)
        inputs = bound_inputs_from_model(model, self.t)
        coefficient = local_coefficient(self.beta, inputs)
        lags = min(self.gate_lags, n // 2)
        bound_row = [diffusion_only_bound(1, 1 + k, self.beta, inputs) for k in range(lags + 1)]
        constants = lipschitz_constants(model)
        kernel_row = surrogate_kernel(constants, n, self.kernel_s)[0].copy()
        return cov, coefficient, {
            "n": n,
            "row": cov.data[0].copy(),
            "bound_row": bound_row,
            "kernel_row": kernel_row,
            "constants": constants,
        }

    def run(self, work, out, threads=None):
        out.mkdir(parents=True, exist_ok=True)
        results = []

        cov, coefficient, res = self._exact(self.cvl_n)
        cvl = out / f"cov{self.cvl_n}.cvl"
        write_covariance(cvl, cov)
        loaded, _ = read_covariance(cvl)
        res["bandwidth"] = choose_bandwidth(self.epsilon, self.beta, coefficient, self.cvl_n)
        truncated = localize(loaded, res["bandwidth"])
        res["measured"] = BlockCovariance(cov.data - truncated.data, self.cvl_n, 1).norm2()
        res["truncated"] = truncated.data
        del cov, loaded, truncated
        results.append(res)

        cov, coefficient, res = self._exact(self.csv_n)
        inputs = out / f"cov{self.csv_n}.csv"
        reference = out / f"cov{self.csv_n}.cvl"
        write_covariance_csv(inputs, cov)
        write_covariance(reference, cov)
        res["exit"] = cli_main(
            ["localize", "--input", str(inputs), "--reference", str(reference),
             "--epsilon", repr(self.epsilon), "--beta", repr(self.beta),
             "--coefficient", repr(coefficient), "--out", str(out / "localized")]
        )
        results.append(res)
        return results

    def check(self, out, results):
        failures = []
        for res in results:
            n = res["n"]
            dev = float(np.abs(res["row"] - circulant_covariance_row(self.params, n, self.t)).max())
            res["max_dev_vs_fft"] = dev
            if not dev <= self.row_tol:
                failures.append(f"N={n}: dense row deviates from the FFT row by {dev:.3g}")
            lags = len(res["bound_row"])
            if not all(b > abs(c) for b, c in zip(res["bound_row"], res["row"][:lags])):
                failures.append(f"N={n}: diffusion_only_bound fails to dominate |C(1,1+k)|, k<{lags}")
            kernel_bound = [
                kernel_entry_bound(1, 1 + k, res["constants"], n, self.kernel_s, self.beta)
                for k in range(lags)
            ]
            if not all(q < b for q, b in zip(res["kernel_row"][:lags], kernel_bound)):
                failures.append(f"N={n}: surrogate kernel row not below kernel_entry_bound, k<{lags}")
            if "exit" in res:
                if res["exit"] != 0:
                    failures.append(f"covloc localize exited with {res['exit']}")
                    continue
                report = json.loads((out / "localized" / "localize_report.jsonl").read_text())
                res["bandwidth"], res["measured"] = report["bandwidth"], report["measured_error"]
            if not res["measured"] <= self.epsilon:
                failures.append(f"N={n}: l2 localization error {res['measured']:.3g} > {self.epsilon}")
        return failures

    def observed(self, results):
        return {"analytic.max_dev_vs_fft": max(res.get("max_dev_vs_fft", 0.0) for res in results)}

    def digest(self, out, results):
        h = hashlib.sha256(digest_dir(out).encode())
        for res in results:
            h.update(res["row"].tobytes())
            h.update(res["kernel_row"].tobytes())
            if "truncated" in res:
                h.update(res.pop("truncated").tobytes())
            h.update(repr((res["bound_row"], res["measured"])).encode())
        return h.hexdigest()


WORKLOADS = {cls.name: cls for cls in (FhnCov, FhnSpatialVsMc, FhnFields, LinearLocalize)}
