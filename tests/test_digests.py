"""Byte-identity gate: the sha256 of every covered output, recomputed and
compared with the digests committed in ``tests/digests.json``.

The outputs are the CLI's ``simulate``, ``cov`` and ``bounds`` files for a
linear and a regime-c config at 1 and 2 threads, ``simulate`` on a linear and
an FHN config that leave the step to the model's default, ``localize`` on a ring
covariance CSV with ``--reference``, figures F1-F12 at tiny scales, the
spatial-average comparison rows, ensembles and a path with snapshots, and
two blow-up reports.  Criterion 10 only compares runs of one tree with each
other; this gate also catches a change that alters every output alike.

A change that alters an output on purpose regenerates the file with
``PYTHONPATH=src python tests/test_digests.py`` in the same commit and names
each changed digest in CHANGES.md.  numpy's FFT may take another SIMD route
on another CPU, so the file records the numpy version, the BLAS with the
OpenBLAS kernel it ran, and the SIMD extensions numpy found.  No covered
output goes through BLAS: ``sample_covariance`` sums in a fixed order.  The
test's own inputs avoid numpy's SIMD transcendentals, and one test reruns the
gate on numpy's AVX2 path with OpenBLAS's Sandybridge kernel, as on an x86-64
host without AVX-512.
"""

import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import covloc
from covloc import figures
from covloc.cli import main
from covloc.figures import run_figure, spatial_vs_mc_rows
from covloc.integrator import (
    IntegratorConfig,
    NumericalBlowupError,
    simulate_ensemble,
    simulate_path,
)
from covloc.lattice import BlockCovariance, ring_matrix
from covloc.models import FhnParams, fhn_model, regime
from covloc.storage import write_covariance_csv

DIGESTS = Path(__file__).with_name("digests.json")

_CONFIGS = {
    "linear": "[model]\nkind = linear\na = 1.0\nd_u = 2.0\nw = 1.0\nsigma_u = 0.5\n\n"
    "[run]\nn_blocks = 16\nn_samples = 37\nt_end = 0.2\nstep_size = 0.002\n"
    "master_seed = 424242\n\n[bounds]\nbetas = 0.2, 0.5\n",
    # 300 samples run in two chunks, whose noise 2 threads draw at --threads 2
    "regime-c": "[model]\npreset = regime-c\n\n"
    "[run]\nn_blocks = 8\nn_samples = 300\nt_end = 0.01\nstep_size = 0.00025\n"
    "master_seed = 31337\n\n[bounds]\nbetas = 0.5\n",
}

# configs with no step_size, which run at the model's default step
_DEFAULT_STEP_CONFIGS = {
    "linear-default-step": _CONFIGS["linear"].replace("step_size = 0.002\n", ""),
    "fhn-default-step": "[model]\nkind = fhn\n\n"
    "[run]\nn_blocks = 8\nn_samples = 4\nt_end = 0.01\nmaster_seed = 2718\n",
}

# figure -> the tiny desk scale it runs at; F1 and F3-F6 take no scale
_FIGURE_SCALES = {
    "F2": {"n_list": [16, 32]},
    "F7": {"n": 8, "k": 4, "h": 5e-4},
    "F8": {"n": 8, "h": 5e-4},
    "F9": {"n_list": [8], "k": 4, "h": 5e-4},
    "F10": {"n": 8, "h": 5e-4},
    "F11": {"n": 8, "k_mc": 2, "sa_replicates": 2, "h": 5e-4},
    "F12": {"n": 8, "k_mc": 2, "sa_replicates": 2, "h": 5e-4},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# numpy's AVX-512 dispatch targets: disabling them leaves its AVX2 path
_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


def _openblas_core() -> str | None:
    """The OpenBLAS kernel numpy's BLAS runs, where numpy's bundled
    scipy-openblas names it."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    corename = getattr(lib, "scipy_openblas_get_corename64_", None)
    if corename is None:
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_core": _openblas_core(),
        "simd": config["SIMD Extensions"]["found"],
    }


def _blowup(h: float, n_workers: int) -> bytes:
    cfg = IntegratorConfig(step_size=h, t_end=5.0, master_seed=1)
    try:
        simulate_ensemble(fhn_model(FhnParams(), 8), cfg, 300, n_workers=n_workers)
    except NumericalBlowupError as err:
        return json.dumps([err.time, err.block_index, err.sample_index, str(err)]).encode()
    raise AssertionError(f"no blow-up at h={h}")


def compute_digests() -> dict[str, str]:
    """sha256 of every covered output, keyed by file path or case name.

    Writes into the working directory, with relative paths only, so no
    metadata record holds the directory the outputs went to."""
    cwd = Path.cwd()
    for name, text in _CONFIGS.items():
        Path(f"{name}.ini").write_text(text)
        for command in ("simulate", "cov", "bounds"):
            for threads in (1, 2):
                out = f"{command}-{name}-t{threads}"
                argv = [command, "--config", f"{name}.ini", "--out", out]
                assert main([*argv, "--threads", str(threads)]) == 0
    for name, text in _DEFAULT_STEP_CONFIGS.items():
        Path(f"{name}.ini").write_text(text)
        assert main(["simulate", "--config", f"{name}.ini", "--out", f"simulate-{name}"]) == 0

    # scalar exp: numpy's vector exp differs between its AVX-512 and AVX2 paths
    row = np.array([math.exp(-0.4 * k) + 0.01 for k in range(64)])
    write_covariance_csv("ring.csv", BlockCovariance(ring_matrix(row), 64, 1))
    argv = ["localize", "--input", "ring.csv", "--reference", "ring.csv", "--out", "localize"]
    assert main([*argv, "--epsilon", "1e-3", "--beta", "0.4", "--coefficient", "1.0"]) == 0

    saved = {fid: figures.SCALES[fid]["desk"] for fid in _FIGURE_SCALES}
    try:
        for fid, scale in _FIGURE_SCALES.items():
            figures.SCALES[fid]["desk"] = scale
        for fid in figures.FIGURES:
            run_figure(fid, seed=3, out_dir="figures")
    finally:
        for fid, scale in saved.items():
            figures.SCALES[fid]["desk"] = scale

    digests = {
        path.relative_to(cwd).as_posix(): _sha(path.read_bytes())
        for path in sorted(cwd.rglob("*"))
        if path.is_file()
    }

    args = ("regime-f", 16, [0.01, 0.02], 30, 3, 5e-4, 17)
    for threads in (1, 2):
        rows = list(spatial_vs_mc_rows(*args, threads=threads))
        digests[f"spatial_vs_mc_rows-t{threads}"] = _sha(json.dumps(rows).encode())

    model = fhn_model(regime("regime-c").params, 8)
    cfg = IntegratorConfig(step_size=2.5e-4, t_end=0.01, master_seed=5)
    times = [0.0, 0.005, 0.005, 0.01]
    for n_workers in (1, 2):
        states = simulate_ensemble(model, cfg, 300, n_workers=n_workers, output_times=times)
        data = b"".join(s.samples.tobytes() for s in states)
        digests[f"ensemble-snapshots-w{n_workers}"] = _sha(data)
    path = simulate_path(model, cfg, output_times=times)
    digests["path-snapshots"] = _sha(path.times.tobytes() + path.states.tobytes())

    for h in (0.5, 0.05):
        for n_workers in (1, 2):
            digests[f"blowup-h{h}-w{n_workers}"] = _sha(_blowup(h, n_workers))
    return digests


def _require_committed(got: dict[str, str], running: dict) -> None:
    recorded = json.loads(DIGESTS.read_text())
    want = recorded["digests"]
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not changed, (
        f"outputs differ from tests/digests.json: {changed}; recorded with "
        f"{recorded['environment']}, running {running}"
    )


def test_every_output_matches_its_committed_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _require_committed(compute_digests(), environment())


def test_digests_hold_on_numpy_avx2_path(tmp_path):
    code = (
        "import json, test_digests as t; "
        "print(json.dumps({'environment': t.environment(), 'digests': t.compute_digests()}))"
    )
    paths = [Path(__file__).parent, Path(covloc.__file__).parents[1], os.environ.get("PYTHONPATH")]
    pythonpath = os.pathsep.join(str(p) for p in paths if p)
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": _AVX512,
        "OPENBLAS_CORETYPE": "Sandybridge",
        "PYTHONPATH": pythonpath,
    }
    run = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])  # after main's "wrote" lines
    assert not set(_AVX512.split()) & set(got["environment"]["simd"])
    assert got["environment"]["blas_core"] in (None, "Sandybridge")
    _require_committed(got["digests"], got["environment"])


if __name__ == "__main__":
    import tempfile

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            record = {"environment": environment(), "digests": compute_digests()}
        finally:
            os.chdir(home)
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {DIGESTS}")
