import contextlib
import csv
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covloc import BlockCovariance, ContractViolationError, integrator
from covloc.cli import main
from covloc.config import parse_config
from covloc.figures import FIGURES
from covloc.integrator import IntegratorConfig
from covloc.lattice import ring_matrix
from covloc.localization import choose_bandwidth, localization_error_bound
from covloc.models import REGIMES, FhnParams, LinearParams
from covloc.storage import write_covariance, write_covariance_csv

LINEAR_CFG = """
[model]
kind = linear
a = 1.0
d_u = 2.0
w = 1.0
sigma_u = 0.5

[run]
n_blocks = 16
n_samples = 24
t_end = 0.2
step_size = 0.002
master_seed = 424242

[outputs]
out_dir = {out}

[bounds]
betas = 0.2, 0.5
"""

PRESET_CFG = """
[model]
preset = regime-f

[run]
n_blocks = 8
n_samples = 4
t_end = 0.01
step_size = 0.0005
master_seed = 31337

[outputs]
out_dir = {out}
"""


def _write(tmp_path, text, name="cfg.ini", **kw):
    path = tmp_path / name
    path.write_text(text.format(**kw))
    return str(path)


class TestParseConfig:
    def test_explicit_linear(self, tmp_path):
        cfg = parse_config(_write(tmp_path, LINEAR_CFG, out="o"))
        assert cfg.params == LinearParams(a=1.0, d_u=2.0, w=1.0, sigma_u=0.5)
        assert cfg.n_blocks == 16 and cfg.n_samples == 24
        assert cfg.betas == (0.2, 0.5)

    def test_preset(self, tmp_path):
        cfg = parse_config(_write(tmp_path, PRESET_CFG, out="o"))
        assert cfg.params == FhnParams(d_u=0.5, w=0.0)

    def test_unknown_key_rejected_with_name(self, tmp_path):
        bad = LINEAR_CFG.replace("sigma_u = 0.5", "sigma = 0.5")
        with pytest.raises(ContractViolationError, match="sigma"):
            parse_config(_write(tmp_path, bad, out="o"))

    def test_unknown_section_rejected(self, tmp_path):
        bad = LINEAR_CFG + "\n[extras]\nfoo = 1\n"
        with pytest.raises(ContractViolationError, match="extras"):
            parse_config(_write(tmp_path, bad, out="o"))

    def test_missing_required_key(self, tmp_path):
        bad = LINEAR_CFG.replace("master_seed = 424242", "")
        with pytest.raises(ContractViolationError, match="master_seed"):
            parse_config(_write(tmp_path, bad, out="o"))

    def test_unparsable_value_names_field(self, tmp_path):
        bad = LINEAR_CFG.replace("t_end = 0.2", "t_end = soon")
        with pytest.raises(ContractViolationError, match="t_end"):
            parse_config(_write(tmp_path, bad, out="o"))

    def test_preset_conflicts_with_explicit_params(self, tmp_path):
        bad = PRESET_CFG.replace("preset = regime-f", "preset = regime-f\nd_u = 3")
        with pytest.raises(ContractViolationError, match="exclusive"):
            parse_config(_write(tmp_path, bad, out="o"))


class TestCliCommands:
    def test_simulate_writes_snapshot_and_metadata(self, tmp_path):
        out = tmp_path / "sim"
        cfg = _write(tmp_path, LINEAR_CFG, out=out)
        assert main(["simulate", "--config", cfg]) == 0
        assert (out / "ensemble.cvl").exists()
        assert (out / "ensemble.csv").exists()
        meta = json.loads((out / "simulate_metadata.json").read_text())
        assert meta["config"]["run"]["master_seed"] == 424242
        assert "library_version" in meta

    def test_cov_emits_documented_columns(self, tmp_path):
        out = tmp_path / "cov"
        cfg = _write(tmp_path, LINEAR_CFG, out=out)
        assert main(["cov", "--config", cfg]) == 0
        lines = (out / "cov_curve.csv").read_text().splitlines()
        assert lines[0] == "lag,estimate,std_error,method"
        methods = {line.split(",")[-1] for line in lines[1:]}
        assert methods == {"spatial-average", "monte-carlo"}

    def test_bounds_emits_documented_columns(self, tmp_path):
        out = tmp_path / "bounds"
        cfg = _write(tmp_path, LINEAR_CFG, out=out)
        assert main(["bounds", "--config", cfg]) == 0
        lines = (out / "bounds.csv").read_text().splitlines()
        assert lines[0] == "i,j,beta,local,global,total"
        # one row per (beta, j)
        assert len(lines) == 1 + 2 * 16

    def test_bounds_saturated_global_term_reads_cap(self, tmp_path):
        out = tmp_path / "bounds"
        text = PRESET_CFG.replace("regime-f", "meanfield-strong") + "\n[bounds]\nt = 14\n"
        assert main(["bounds", "--config", _write(tmp_path, text, out=out)]) == 0
        header, *rows = (out / "bounds.csv").read_text().splitlines()
        assert header.split(",")[4] == "global"
        assert rows and all(row.split(",")[4] == "1e+300" for row in rows)
        assert json.loads((out / "bounds_metadata.json").read_text())["any_vacuous"]

    def test_bounds_beta_past_the_float_range_reads_cap(self, tmp_path, capsys):
        # e^800 overflows a float: with neighbor coupling every bound at that
        # beta is vacuous; without it the rows stay finite
        for d_u, expect_cap in (("1.0", True), ("0.0", False)):
            out = tmp_path / f"bounds-{d_u}"
            text = LINEAR_CFG.replace("d_u = 2.0", f"d_u = {d_u}").replace("w = 1.0", "w = 0.5")
            text = text.replace("betas = 0.2, 0.5", "betas = 0.2, 800")
            assert main(["bounds", "--config", _write(tmp_path, text, out=out)]) == 0
            rows = list(csv.DictReader((out / "bounds.csv").open()))
            far = [row for row in rows if float(row["beta"]) == 800.0]
            assert len(far) == 16
            assert all((row["total"] == "1e+300") == expect_cap for row in far)
            assert ("vacuous" in capsys.readouterr().err) == expect_cap

    def test_localize_via_files(self, tmp_path):
        out = tmp_path / "cov"
        cfg = _write(tmp_path, LINEAR_CFG, out=out)
        main(["simulate", "--config", cfg])
        # build a covariance csv from the ensemble via the library, then truncate
        from covloc import BlockCovariance, EnsembleState, sample_covariance
        from covloc.storage import read_array, write_covariance_csv

        samples, _ = read_array(out / "ensemble.cvl")
        ens = EnsembleState(samples=samples, time=0.2)
        cov = sample_covariance(ens)
        cov_path = tmp_path / "cov.csv"
        write_covariance_csv(cov_path, cov)

        loc_out = tmp_path / "loc"
        rc = main(
            [
                "localize",
                "--input",
                str(cov_path),
                "--bandwidth",
                "2",
                "--reference",
                str(cov_path),
                "--out",
                str(loc_out),
            ]
        )
        assert rc == 0
        report = json.loads((loc_out / "localize_report.jsonl").read_text())
        assert report["bandwidth"] == 2
        assert report["measured_error"] >= 0

    def test_models_list(self, capsys):
        assert main(["models"]) == 0
        outp = capsys.readouterr().out.splitlines()
        assert outp[0].startswith("name,epsilon,a,d_u,w")
        assert len(outp) == 1 + 12
        assert any(line.startswith("regime-f,") for line in outp)
        # every description holds commas, so its cell must be quoted
        header, *rows = csv.reader(outp)
        assert len(rows) == 12 and all(len(row) == len(header) == 8 for row in [header, *rows])
        assert {row[0]: row[-1] for row in rows} == {
            name: preset.description for name, preset in REGIMES.items()
        }
        # the table is the command's one output, so it takes no flag
        assert main(["models", "--list"]) == 2
        assert "unrecognized arguments: --list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, t_end, step",
        [
            # a tenth of the stiffest time scale gives t_end/h = 5969.1 and 1213.7 steps
            ("kind = fhn\nepsilon = 0.013", "1.0", 0.00016750418760469013),
            ("kind = linear\na = 1.37\nd_u = 30", "1.0", 0.0008237232289950577),
            # t_end/h = 602.9999999999999 is whole within 1e-9: the default 0.1/201 stays
            ("kind = linear\na = 1.0\nd_u = 50.0\nw = 0.0", "0.3", 0.0004975124378109454),
            # 0.1/81 lies above the 1e-3 cap
            ("kind = linear\na = 1.0\nd_u = 20.0\nw = 0.0", "1.0", 0.001),
        ],
        ids=["fhn", "linear", "linear-whole", "linear-capped"],
    )
    def test_default_step_is_shortened_to_divide_t_end(self, tmp_path, model, t_end, step):
        # simulate and bounds record the same resolved step and bounds time
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            f"[model]\n{model}\n\n[run]\nn_blocks = 4\nn_samples = 2\nt_end = {t_end}\n"
            "master_seed = 5\n"
        )
        for command in ("simulate", "bounds"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            meta = json.loads((out / f"{command}_metadata.json").read_text())["config"]
            assert meta["run"]["step_size"] == step
            assert meta["bounds"]["t"] == float(t_end)

    def test_default_fhn_step_is_stable_under_strong_diffusion(self, tmp_path):
        # at d_u = 50 the stiffest rate is 20776, so the default step is 4.8e-6
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[model]\nkind = fhn\nd_u = 50\n\n"
            "[run]\nn_blocks = 8\nn_samples = 4\nt_end = 0.2\nmaster_seed = 1\n"
        )
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.reader((out / "ensemble.csv").read_text().splitlines()))
        assert len(rows) > 1 and np.isfinite(np.array(rows[1:], dtype=float)).all()

    def test_figure_f2_and_f4(self, tmp_path):
        out = tmp_path / "figs"
        assert main(["figure", "F2", "--scale", "desk", "--out", str(out)]) == 0
        rows = (out / "F2_meanfield_vs_n.csv").read_text().splitlines()
        assert rows[0] == "n,covariance,bound"
        ns = [int(r.split(",")[0]) for r in rows[1:]]
        assert ns == [16, 32, 64, 128]
        for r in rows[1:]:
            _, cov, bound = r.split(",")
            assert 0 < float(cov) < float(bound)
        assert main(["figure", "F4", "--scale", "desk", "--out", str(out)]) == 0
        rows = (out / "F4_diffusion_decay.csv").read_text().splitlines()
        assert rows[0] == "k,covariance,log_abs_covariance,bound"
        meta = json.loads((out / "F4_metadata.json").read_text())
        assert meta["settings"]["beta"] == 0.2

    def test_figure_has_no_svg_flag(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main(["figure", "F4", "--svg", "--out", str(out)]) == 2
        assert "--svg" in capsys.readouterr().err
        assert not out.exists()

    def test_figure_f8_space_time_fields(self, tmp_path):
        out = tmp_path / "figs"
        assert main(["figure", "F8", "--scale", "desk", "--out", str(out)]) == 0
        rows = (out / "F8_fhn_fields.csv").read_text().splitlines()
        assert rows[0] == "regime,time,block,u,v"


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nkind = warp\n[run]\nn_blocks = 8\nt_end = 1\nmaster_seed = 1\n")
        assert main(["simulate", "--config", str(bad)]) == 2

    def test_missing_config_is_2(self):
        assert main(["simulate"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--out", "out"],
            ["cov", "--out", "out"],
            ["bounds", "--out", "out"],
            ["localize", "--out", "out"],
            ["figure", "F4", "--out", "out"],
            ["models"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unknown_flag_is_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--no-such-flag"]) == 2
        assert "--no-such-flag" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["figure", "--help"]])
    def test_help_and_version_are_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out

    def test_blowup_is_3(self, tmp_path):
        # h * stiffest_rate = 0.078, yet noise of amplitude 100/sqrt(eps)
        # kicks u onto the cubic's divergent branch
        cfg = tmp_path / "explode.ini"
        cfg.write_text(
            "[model]\nkind = fhn\ndelta1 = 100\n\n[run]\nn_blocks = 8\nn_samples = 2\n"
            "t_end = 0.01\nstep_size = 0.0001\nmaster_seed = 1\n\n[outputs]\n"
            f"out_dir = {tmp_path / 'x'}\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 3
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "model, step, product",
        [
            ("preset = regime-f", "0.5", "488"),
            # a + 4 d_u + w = 10: h * rate = 2.0 exactly, Euler's stability limit
            ("kind = linear\na = 1.0\nd_u = 2.0\nw = 1.0", "0.2", "2"),
            # 5/26 divides t_end, and h * rate = 1.92 is inside the limit
            ("kind = linear\na = 1.0\nd_u = 2.0\nw = 1.0", repr(5 / 26), None),
        ],
        ids=["regime-f", "linear-at-the-limit", "linear-inside-the-limit"],
    )
    def test_step_at_or_beyond_euler_stability_is_2_and_writes_nothing(
        self, tmp_path, capsys, model, step, product
    ):
        out = tmp_path / "x"
        cfg = tmp_path / "unstable.ini"
        cfg.write_text(
            f"[model]\n{model}\n\n[run]\nn_blocks = 8\nn_samples = 2\nt_end = 5.0\n"
            f"step_size = {step}\nmaster_seed = 1\n\n[outputs]\nout_dir = {out}\n"
        )
        capsys.readouterr()
        if product is None:
            assert main(["simulate", "--config", str(cfg)]) == 0
            return
        assert main(["simulate", "--config", str(cfg)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert f"step_size = {step} " in err and f" is {product}," in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "cov"])
    def test_ensemble_beyond_physical_memory_is_2_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, command
    ):
        monkeypatch.setattr(integrator, "_physical_memory", lambda: 2**12)
        out = tmp_path / "run"
        cfg = _write(tmp_path, LINEAR_CFG, out=out)
        capsys.readouterr()
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "physical memory" in err[0]
        assert not out.exists()

    def test_cov_step_that_does_not_divide_t_end_is_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "cov"
        # h * stiffest_rate = 1.5, inside Euler's stability limit
        text = LINEAR_CFG.replace("t_end = 0.2", "t_end = 1.0").replace("0.002", "0.15")
        assert main(["cov", "--config", _write(tmp_path, text, out=out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            # the step check of simulate and cov holds for bounds too
            ("t_end = 0.2\nstep_size = 0.002", "t_end = 1.0\nstep_size = 0.15"),
            ("betas = 0.2, 0.5", "betas ="),
            # no step_size: the default step must not be taken from a negative t_end
            ("t_end = 0.2\nstep_size = 0.002", "t_end = -0.0005"),
        ],
        ids=["step-does-not-divide-t_end", "empty-betas", "negative-t_end-default-step"],
    )
    def test_bounds_bad_run_or_betas_is_2_and_writes_nothing(self, tmp_path, capsys, old, new):
        out = tmp_path / "bounds"
        cfg = _write(tmp_path, LINEAR_CFG.replace(old, new), out=out)
        capsys.readouterr()
        assert main(["bounds", "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_bounds_negative_beta_is_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "bounds"
        text = LINEAR_CFG.replace("betas = 0.2, 0.5", "betas = -0.5")
        assert main(["bounds", "--config", _write(tmp_path, text, out=out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_nonpositive_threads_is_2(self, tmp_path, threads):
        cfg = _write(tmp_path, PRESET_CFG, out=tmp_path / "sim")
        assert main(["simulate", "--config", str(cfg), "--threads", threads]) == 2
        assert main(["figure", "F1", "--out", str(tmp_path / "fig"), "--threads", threads]) == 2
        assert not (tmp_path / "fig").exists()

    @pytest.mark.parametrize("command", ["simulate", "cov", "bounds", "localize", "figure"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_blocked_by_a_file_is_2(self, tmp_path, capsys, command, under):
        blocker = tmp_path / "afile"
        blocker.write_text("keep\n")
        out = blocker / "sub" if under else blocker
        if command == "localize":
            cov = tmp_path / "cov.csv"
            cov.write_text("row,col,value\n1,1,1.0\n")
            argv = ["localize", "--input", str(cov), "--bandwidth", "0"]
        elif command == "figure":
            argv = ["figure", "F5"]
        else:
            argv = [command, "--config", _write(tmp_path, LINEAR_CFG, out="unused")]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "afile" in err[0]
        assert blocker.read_text() == "keep\n"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_localize_non_finite_input_is_2_and_writes_nothing(self, tmp_path, bad):
        cov = tmp_path / "cov.csv"
        cov.write_text(f"row,col,value\n1,1,1.0\n1,2,{bad}\n2,1,{bad}\n2,2,1.0\n")
        out = tmp_path / "loc"
        assert main(["localize", "--input", str(cov), "--bandwidth", "0", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "reference",
        ["row,col,value\n1,1,nan\n", "row,col,value\n1,1,1.0\n1,2,0.0\n2,1,0.0\n2,2,1.0\n"],
        ids=["nan", "other-size"],
    )
    def test_localize_bad_reference_is_2_and_writes_nothing(self, tmp_path, reference):
        cov = tmp_path / "cov.csv"
        cov.write_text("row,col,value\n1,1,1.0\n")
        ref = tmp_path / "ref.csv"
        ref.write_text(reference)
        out = tmp_path / "loc"
        argv = ["localize", "--input", str(cov), "--bandwidth", "0", "--reference", str(ref)]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_figure_is_4(self, tmp_path):
        assert main(["figure", "F99", "--out", str(tmp_path)]) == 4

    def test_unknown_preset_is_2(self, tmp_path):
        cfg = tmp_path / "p.ini"
        cfg.write_text(
            "[model]\npreset = regime-z\n\n[run]\nn_blocks = 8\nn_samples = 1\n"
            "t_end = 0.1\nmaster_seed = 1\n"
        )
        # preset resolution happens at parse time and is reported as a config
        # error naming the preset problem
        assert main(["simulate", "--config", str(cfg)]) == 2


class TestDeterminism:
    def _run_and_fingerprint(self, tmp_path, name, argv, files):
        out = tmp_path / name
        rc = main(argv + ["--out", str(out)])
        assert rc == 0
        return {f: (out / f).read_bytes() for f in files}

    def test_same_seed_same_bytes_any_thread_count(self, tmp_path):
        cfg = _write(tmp_path, LINEAR_CFG, out="unused")
        files = ["cov_curve.csv", "cov_metadata.json"]
        runs = [
            self._run_and_fingerprint(tmp_path, f"r{i}", ["cov", "--config", cfg, "--threads", str(th)], files)
            for i, th in enumerate((1, 1, 4))
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_simulate_bytes_stable_across_threads(self, tmp_path):
        cfg = _write(tmp_path, PRESET_CFG, out="unused")
        files = ["ensemble.cvl", "ensemble.csv", "simulate_metadata.json"]
        one = self._run_and_fingerprint(tmp_path, "s1", ["simulate", "--config", cfg, "--threads", "1"], files)
        two = self._run_and_fingerprint(tmp_path, "s2", ["simulate", "--config", cfg, "--threads", "8"], files)
        assert one == two

    def test_different_seed_changes_estimates_not_bounds(self, tmp_path):
        cfg = _write(tmp_path, LINEAR_CFG, out="unused")
        a = self._run_and_fingerprint(tmp_path, "a", ["cov", "--config", cfg, "--seed", "1"], ["cov_curve.csv"])
        b = self._run_and_fingerprint(tmp_path, "b", ["cov", "--config", cfg, "--seed", "2"], ["cov_curve.csv"])
        assert a != b
        ba = self._run_and_fingerprint(tmp_path, "ba", ["bounds", "--config", cfg, "--seed", "1"], ["bounds.csv"])
        bb = self._run_and_fingerprint(tmp_path, "bb", ["bounds", "--config", cfg, "--seed", "2"], ["bounds.csv"])
        assert ba == bb


class TestRejectsBadInput:
    def test_negative_max_lag_is_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "cov"
        cfg = _write(tmp_path, LINEAR_CFG, out=out)
        assert main(["cov", "--config", cfg, "--max-lag", "-3"]) == 2
        assert not out.exists()

    def test_max_lag_above_half_ring_is_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "cov"
        cfg = _write(tmp_path, LINEAR_CFG, out=out)
        # n_blocks = 16, so the largest ring lag is 8
        assert main(["cov", "--config", cfg, "--max-lag", "9"]) == 2
        assert not out.exists()

    @staticmethod
    def _inputs(tmp_path):
        from covloc import BlockCovariance
        from covloc.storage import write_covariance, write_covariance_csv

        m = np.random.default_rng(6).standard_normal((8, 8))
        cov = BlockCovariance(m + m.T, 8, 1)
        write_covariance(tmp_path / "c.cvl", cov)
        write_covariance_csv(tmp_path / "c.csv", cov)
        return tmp_path / "c.cvl", tmp_path / "c.csv"

    def _localize(self, tmp_path, path, *extra):
        out = tmp_path / "loc"
        return main(["localize", "--input", str(path), "--out", str(out), *extra]), out

    def test_block_dim_zero_is_2(self, tmp_path):
        for path in self._inputs(tmp_path):
            rc, out = self._localize(tmp_path, path, "--bandwidth", "1", "--block-dim", "0")
            assert rc == 2 and not out.exists()

    def test_epsilon_mode_reports_the_chosen_bandwidth_and_its_bound(self, tmp_path):
        _, path = self._inputs(tmp_path)
        choose = ["--epsilon", "0.05", "--beta", "0.3", "--coefficient", "2.0"]
        rc, out = self._localize(tmp_path, path, *choose)
        assert rc == 0
        report = json.loads((out / "localize_report.jsonl").read_text())
        bandwidth = choose_bandwidth(0.05, 0.3, 2.0, 8)
        assert report["bandwidth"] == bandwidth
        assert report["error_bound"] == localization_error_bound(bandwidth, 0.3, 2.0)

    def test_beta_below_float_resolution_takes_the_whole_ring(self, tmp_path, capsys):
        # 1 - e^-beta rounds to 0 at beta = 1e-17; the bound divides by -expm1(-beta)
        _, path = self._inputs(tmp_path)
        choose = ["--epsilon", "0.01", "--beta", "1e-17", "--coefficient", "1.0"]
        rc, out = self._localize(tmp_path, path, *choose)
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == "" and len(captured.out.splitlines()) == 1
        report = json.loads((out / "localize_report.jsonl").read_text())
        assert report["bandwidth"] == 4 and report["error_bound"] == pytest.approx(2e17)

    @pytest.mark.parametrize(
        "choose",
        [
            ["--epsilon", "0.01", "--beta", "1e-300", "--coefficient", "1.0"],
            ["--epsilon", "1e-300", "--beta", "0.2", "--coefficient", "1e300"],
        ],
        ids=["beta-1e-300", "epsilon-1e-300"],
    )
    def test_target_out_of_reach_takes_the_whole_ring(self, tmp_path, choose):
        # no bandwidth on a 16-ring meets either target, so the choice is N/2
        path = tmp_path / "c16.csv"
        write_covariance_csv(path, BlockCovariance(np.eye(16), 16, 1))
        rc, out = self._localize(tmp_path, path, *choose)
        assert rc == 0
        assert json.loads((out / "localize_report.jsonl").read_text())["bandwidth"] == 8

    def test_cvl_input_writes_the_bytes_of_csv_input(self, tmp_path):
        choose = ["--epsilon", "0.05", "--beta", "0.3", "--coefficient", "2.0"]
        files = ["localized.csv", "localized.cvl", "localize_report.jsonl"]
        written = []
        for path in self._inputs(tmp_path):
            rc, out = self._localize(tmp_path, path, *choose)
            assert rc == 0
            written.append({name: (out / name).read_bytes() for name in files})
        assert written[0] == written[1]

    @pytest.mark.parametrize("coefficient", ["nan", "inf"])
    def test_nonfinite_coefficient_is_2(self, tmp_path, coefficient):
        _, path = self._inputs(tmp_path)
        choose = ["--epsilon", "0.01", "--beta", "0.2", "--coefficient", coefficient]
        assert self._localize(tmp_path, path, *choose)[0] == 2
        fixed = ["--bandwidth", "2", "--beta", "0.2", "--coefficient", coefficient]
        assert self._localize(tmp_path, path, *fixed)[0] == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines + ["1,1,9.0"],
            lambda lines: [line for line in lines if not line.startswith(("1,6,", "6,1,"))],
        ],
        ids=["repeat", "missing"],
    )
    def test_csv_that_is_not_every_entry_once_is_2(self, tmp_path, edit):
        _, path = self._inputs(tmp_path)
        header, *lines = path.read_text().splitlines()
        path.write_text("\n".join([header, *edit(lines)]) + "\n")
        rc, out = self._localize(tmp_path, path, "--bandwidth", "2")
        assert rc == 2 and not out.exists()

    @pytest.mark.parametrize("flag", ["--input", "--reference"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_localize_unreadable_path_is_one_error_line_and_writes_nothing(
        self, tmp_path, capsys, flag, kind
    ):
        _, good = self._inputs(tmp_path)
        bad = tmp_path / "nonexist.csv"
        if kind == "directory":
            bad.mkdir()
        paths = {"--input": good, "--reference": good, flag: bad}
        argv = ["--bandwidth", "1"] + [arg for f, p in paths.items() for arg in (f, str(p))]
        capsys.readouterr()
        rc = main(["localize", *argv, "--out", str(tmp_path / "loc")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and not (tmp_path / "loc").exists()
        assert len(err) == 1 and err[0].startswith("error: ") and "nonexist.csv" in err[0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "cls, field",
        [(LinearParams, name) for name in ("a", "d_u", "w", "sigma_u")]
        + [(FhnParams, name) for name in ("epsilon", "a", "d_u", "w", "delta1", "delta2")],
    )
    def test_model_params_reject_non_finite_fields(self, cls, field, value):
        with pytest.raises(ContractViolationError, match=f"{field} must be finite"):
            cls(**{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["step_size", "t_end"])
    def test_integrator_config_rejects_non_finite_fields(self, field, value):
        # step_size = inf used to mean 0 steps, and the initial state came back
        kwargs = {"step_size": 1e-3, "t_end": 0.01, "master_seed": 1, field: value}
        with pytest.raises(ContractViolationError, match="must be finite"):
            IntegratorConfig(**kwargs)

    def test_linear_infinite_diffusion_is_2_and_writes_nothing(self, tmp_path, capsys):
        # used to end in a ZeroDivisionError from the default step size
        out = tmp_path / "sim"
        text = LINEAR_CFG.replace("d_u = 2.0", "d_u = inf").replace("step_size = 0.002", "")
        capsys.readouterr()
        assert main(["simulate", "--config", _write(tmp_path, text, out=out)]) == 2
        assert "d_u must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("step_size = 0.002", "step_size = inf"),
            ("t_end = 0.2", "t_end = inf"),
            ("t_end = 0.2", "t_end = nan"),
            ("betas = 0.2, 0.5", "betas = 0.2, nan"),
        ],
        ids=["step-inf", "t-inf", "t-nan", "beta-nan"],
    )
    def test_non_finite_run_or_bounds_value_is_2_and_writes_nothing(self, tmp_path, old, new):
        # step_size = inf with t_end = 0.01 used to exit 0 after 0 steps
        out = tmp_path / "run"
        text = LINEAR_CFG.replace(old, new)
        for command in ("simulate", "bounds"):
            assert main([command, "--config", _write(tmp_path, text, out=out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_figure_seed_outside_64_bits_is_2_and_writes_nothing(self, tmp_path, seed):
        # F7 used to end in a ValueError traceback from the seed sequence
        out = tmp_path / "fig"
        assert main(["figure", "F7", "--seed", seed, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "n_blocks = 4\n[model]\npreset = regime-f\n",
            "[model]\npreset = regime-f\npreset = regime-c\n",
            "[model]\npreset = regime-f\n[outputs]\nout_dir = run%1\n",
        ],
        ids=["no-section-header", "duplicate-key", "bad-interpolation"],
    )
    def test_unparsable_config_is_one_error_line_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, text
    ):
        # each used to end in a configparser traceback and exit 1
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            text + "[run]\nn_blocks = 4\nn_samples = 2\nt_end = 0.001\nmaster_seed = 1\n"
        )
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "cfg.ini" in err[0]
        assert list(tmp_path.iterdir()) == [cfg]

    def test_binary_config_is_one_error_line_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        # a CVL1 file used to end in a UnicodeDecodeError traceback
        monkeypatch.chdir(tmp_path)
        cvl, _ = self._inputs(tmp_path)
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert main(["simulate", "--config", str(cvl)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "c.cvl" in err[0]
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("flag", ["--input", "--reference"])
    def test_localize_non_utf8_csv_is_one_error_line_and_writes_nothing(
        self, tmp_path, capsys, flag
    ):
        # a CVL1 file named .csv used to end in a UnicodeDecodeError traceback
        cvl, good = self._inputs(tmp_path)
        bad = tmp_path / "binary.csv"
        bad.write_bytes(cvl.read_bytes())
        paths = {"--input": good, "--reference": good, flag: bad}
        argv = ["--bandwidth", "1"] + [arg for f, p in paths.items() for arg in (f, str(p))]
        capsys.readouterr()
        rc = main(["localize", *argv, "--out", str(tmp_path / "loc")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and not (tmp_path / "loc").exists()
        assert len(err) == 1 and err[0].startswith("error: ") and "binary.csv" in err[0]

    def test_localize_csv_with_an_overlong_first_line_is_2(self, tmp_path):
        # csv's field size limit used to end in a _csv.Error traceback
        _, good = self._inputs(tmp_path)
        bad = tmp_path / "long.csv"
        bad.write_text("x" * 200_000)
        rc, out = self._localize(tmp_path, bad, "--bandwidth", "1", "--reference", str(good))
        assert rc == 2 and not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--seed", "-1"],
            ["bounds", "--seed", str(2**64)],
        ],
        ids=["seed-negative", "seed-2**64"],
    )
    def test_command_line_override_meets_the_config_contract(self, tmp_path, argv):
        # bounds reads no seed, and used to exit 0 recording master_seed = -1
        out = tmp_path / "run"
        cfg = _write(tmp_path, LINEAR_CFG, out=out)
        assert main([*argv, "--config", cfg]) == 2
        assert not out.exists()


# The tiny config every probe starts from: 4 blocks, 3 samples, 2 steps.
_TINY_MODELS = {
    "linear": {"kind": "linear", "a": "1.0", "d_u": "2.0", "w": "1.0", "sigma_u": "0.5"},
    "fhn": {"kind": "fhn", "epsilon": "0.08", "a": "0.7", "d_u": "0.5", "w": "0.2",
            "delta1": "0.1", "delta2": "0.1"},
    "preset": {"preset": "regime-f"},
}
_TINY_SECTIONS = {
    "run": {"n_blocks": "4", "n_samples": "3", "t_end": "0.002", "step_size": "0.001",
            "master_seed": "7", "threads": "1"},
    "bounds": {"betas": "0.2", "grad_g_sup": "1.0", "t": "0.5"},
    "outputs": {"out_dir": "out"},
}
_PROBES = ["nan", "inf", "-inf", "0", "-1.5", "-3", "text"]


def _within_contract(model, key, value):
    """Whether a probe value is one the field accepts."""
    if key == "out_dir":
        return True  # any text names a directory
    if model == "fhn" and key == "a":
        return value not in ("nan", "inf", "-inf", "text")  # the FHN offset a is any real
    # 0 is the edge of every nonnegative field
    return value == "0" and key in {"d_u", "w", "t_end", "master_seed", "grad_g_sup", "t"}


def _ini(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


def _run_in(directory, argv):
    """(exit code, stderr lines) of covloc run from ``directory``."""
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    return rc, err.getvalue().splitlines()


class TestErrorContract:
    """Bad input of any kind ends in exit 2, 3 or 4, one stderr line and no
    output directory; nothing ends in a traceback.  Every shape is tiny."""

    @settings(max_examples=150, deadline=None)
    @given(
        model=st.sampled_from(sorted(_TINY_MODELS)),
        command=st.sampled_from(["simulate", "cov", "bounds"]),
        data=st.data(),
    )
    def test_config_value_outside_its_field_contract(self, model, command, data):
        sections = {"model": _TINY_MODELS[model], **_TINY_SECTIONS}
        keys = [(name, key) for name, fields in sections.items() for key in fields]
        name, key = data.draw(st.sampled_from(keys))
        value = data.draw(st.sampled_from(_PROBES))
        sections = {**sections, name: {**sections[name], key: value}}
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "cfg.ini").write_text(_ini(sections))
            rc, err = _run_in(tmp, [command, "--config", "cfg.ini"])
            written = sorted(p.name for p in Path(tmp).iterdir())
        if _within_contract(model, key, value):
            assert rc == 0
        else:
            assert rc in (2, 3, 4) and len(err) == 1, (rc, err)
            assert written == ["cfg.ini"]

    @settings(max_examples=100, deadline=None)
    @given(
        flag=st.sampled_from(["--input", "--reference"]),
        suffix=st.sampled_from([".csv", ".cvl"]),
        kind=st.sampled_from(["missing", "directory", "truncated", "non-utf8"]),
        data=st.data(),
    )
    def test_unusable_covariance_file(self, flag, suffix, kind, data):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cov = BlockCovariance(ring_matrix(np.array([1.0, 0.25, 0.25])), 3, 1)
            good, bad = tmp / "good.csv", tmp / f"bad{suffix}"
            write_covariance_csv(good, cov)
            (write_covariance_csv if suffix == ".csv" else write_covariance)(bad, cov)
            raw = bad.read_bytes()
            if kind == "missing":
                bad.unlink()
            elif kind == "directory":
                bad.unlink()
                bad.mkdir()
            elif kind == "truncated":
                # a CSV loses at least its last entry's line, a CVL1 file a byte
                keep = raw.rstrip(b"\n").rfind(b"\n") + 1 if suffix == ".csv" else len(raw) - 1
                bad.write_bytes(raw[: data.draw(st.integers(0, keep))])
            else:
                bad.write_bytes(b"\xff" + data.draw(st.binary(max_size=64)))
            paths = {"--input": good, "--reference": good, flag: bad}
            argv = [arg for f, p in paths.items() for arg in (f, str(p))]
            rc, err = _run_in(tmp, ["localize", *argv, "--bandwidth", "1", "--out", "loc"])
            assert rc == 2 and len(err) == 1, (rc, err)
            assert not (tmp / "loc").exists()

    @settings(max_examples=30, deadline=None)
    @given(
        command=st.sampled_from(["simulate", "cov", "bounds"]),
        kind=st.sampled_from(["missing", "directory", "non-utf8"]),
        data=st.data(),
    )
    def test_unusable_config_file(self, command, kind, data):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.ini"
            if kind == "directory":
                cfg.mkdir()
            elif kind == "non-utf8":
                cfg.write_bytes(b"\xff" + data.draw(st.binary(max_size=64)))
            rc, err = _run_in(tmp, [command, "--config", "cfg.ini"])
            written = sorted(p.name for p in Path(tmp).iterdir())
        assert rc == 2 and len(err) == 1, (rc, err)
        assert written == ([] if kind == "missing" else ["cfg.ini"])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64)),
        command=st.sampled_from(["simulate", "cov", "bounds", "figure"]),
        in_config=st.booleans(),
        figure=st.sampled_from(sorted(FIGURES)),
    )
    def test_seed_outside_64_bits(self, seed, command, in_config, figure):
        sections = {"model": _TINY_MODELS["linear"], **_TINY_SECTIONS}
        if in_config:
            sections["run"] = {**sections["run"], "master_seed": str(seed)}
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "cfg.ini").write_text(_ini(sections))
            if command == "figure":
                argv = ["figure", figure, "--seed", str(seed), "--out", "out"]
            else:
                argv = [command, "--config", "cfg.ini"]
                argv += [] if in_config else ["--seed", str(seed)]
            rc, err = _run_in(tmp, argv)
            written = sorted(p.name for p in Path(tmp).iterdir())
        assert rc == 2 and len(err) == 1, (rc, err)
        assert written == ["cfg.ini"]
