import csv
import json
from pathlib import Path

import numpy as np
import pytest

from covloc.cli import main
from covloc.config import ConfigError, parse_config
from covloc.localization import choose_bandwidth, localization_error_bound
from covloc.models import REGIMES, FhnParams, LinearParams
from covloc.svgplot import write_line_plot

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
        with pytest.raises(ConfigError, match="sigma"):
            parse_config(_write(tmp_path, bad, out="o"))

    def test_unknown_section_rejected(self, tmp_path):
        bad = LINEAR_CFG + "\n[extras]\nfoo = 1\n"
        with pytest.raises(ConfigError, match="extras"):
            parse_config(_write(tmp_path, bad, out="o"))

    def test_missing_required_key(self, tmp_path):
        bad = LINEAR_CFG.replace("master_seed = 424242", "")
        with pytest.raises(ConfigError, match="master_seed"):
            parse_config(_write(tmp_path, bad, out="o"))

    def test_unparsable_value_names_field(self, tmp_path):
        bad = LINEAR_CFG.replace("t_end = 0.2", "t_end = soon")
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(_write(tmp_path, bad, out="o"))

    def test_preset_conflicts_with_explicit_params(self, tmp_path):
        bad = PRESET_CFG.replace("preset = regime-f", "preset = regime-f\nd_u = 3")
        with pytest.raises(ConfigError, match="exclusive"):
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

    def test_localize_via_files(self, tmp_path):
        out = tmp_path / "cov"
        cfg = _write(tmp_path, LINEAR_CFG, out=out)
        main(["simulate", "--config", cfg])
        # build a covariance csv from the ensemble via the library, then truncate
        from covloc import BlockCovariance, EnsembleState, sample_covariance
        from covloc.storage import read_array, write_covariance_csv

        samples, _ = read_array(out / "ensemble.cvl")
        ens = EnsembleState(samples=samples, time=0.2, seeds=tuple(range(len(samples))))
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
        assert main(["models", "--list"]) == 0
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

    @pytest.mark.parametrize(
        "model",
        ["kind = fhn\nepsilon = 0.013", "kind = linear\na = 1.37\nd_u = 30"],
        ids=["fhn", "linear"],
    )
    def test_default_step_is_shortened_to_divide_t_end(self, tmp_path, model):
        # the model defaults give t_end/h = 7692.3 and 1213.7 steps
        out = tmp_path / "sim"
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            f"[model]\n{model}\n\n[run]\nn_blocks = 4\nn_samples = 2\nt_end = 1.0\n"
            f"master_seed = 5\n\n[outputs]\nout_dir = {out}\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        step = json.loads((out / "simulate_metadata.json").read_text())["config"]["run"]["step_size"]
        expected = 1 / 7693 if "fhn" in model else 1 / 1214
        assert step == pytest.approx(expected, rel=1e-12)

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
        assert main(["figure", "F4", "--scale", "desk", "--out", str(out), "--svg"]) == 0
        rows = (out / "F4_diffusion_decay.csv").read_text().splitlines()
        assert rows[0] == "k,covariance,log_abs_covariance,bound"
        assert (out / "F4_diffusion_decay.svg").exists()
        meta = json.loads((out / "F4_metadata.json").read_text())
        assert meta["settings"]["beta"] == 0.2

    @pytest.mark.parametrize("figure_id", ["F1", "F3"])
    def test_figure_svg_skips_a_csv_of_several_curves(self, tmp_path, capsys, figure_id):
        # F1 and F3 hold one profile per n or d_u, so their first column repeats
        out = tmp_path / "figs"
        assert main(["figure", figure_id, "--out", str(out), "--svg"]) == 0
        assert not list(out.glob("*.svg"))
        (csv_path,) = out.glob("*.csv")
        assert str(csv_path) in capsys.readouterr().err

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

    def test_blowup_is_3(self, tmp_path):
        cfg = tmp_path / "explode.ini"
        cfg.write_text(
            "[model]\npreset = regime-f\n\n[run]\nn_blocks = 8\nn_samples = 2\n"
            "t_end = 5.0\nstep_size = 0.5\nmaster_seed = 1\n\n[outputs]\n"
            f"out_dir = {tmp_path / 'x'}\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 3
        assert not (tmp_path / "x").exists()

    def test_cov_step_that_does_not_divide_t_end_is_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "cov"
        text = LINEAR_CFG.replace("t_end = 0.2", "t_end = 1.0").replace("0.002", "0.3")
        assert main(["cov", "--config", _write(tmp_path, text, out=out)]) == 2
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

    def test_unknown_figure_is_4(self, tmp_path):
        assert main(["figure", "F99", "--out", str(tmp_path)]) == 4

    def test_unknown_preset_is_4(self, tmp_path):
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

    @pytest.mark.parametrize("x", [[np.inf] * 3, [0.0, np.nan, 1.0]], ids=["all-inf", "one-nan"])
    def test_line_plot_rejects_non_finite_x(self, tmp_path, x):
        # such x used to write "nan" ticks and polyline points, an invalid SVG
        with pytest.raises(ValueError, match="finite"):
            write_line_plot(tmp_path / "p.svg", x, {"y": [1.0, 2.0, 3.0]})
        assert not (tmp_path / "p.svg").exists()
