import json
from pathlib import Path

import numpy as np
import pytest

from covloc.cli import main
from covloc.config import ConfigError, parse_config
from covloc.models import FhnParams, LinearParams

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

    def test_localize_via_files(self, tmp_path):
        out = tmp_path / "cov"
        cfg = _write(tmp_path, LINEAR_CFG, out=out)
        main(["simulate", "--config", cfg])
        # build a covariance csv from the ensemble via the library, then truncate
        from covloc import BlockCovariance, EnsembleState, sample_covariance
        from covloc.storage import read_ensemble, write_covariance_csv

        samples, _ = read_ensemble(out / "ensemble.cvl")
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
