"""Measurement loop: set-up, timed operations, determinism checks, the trace.

Untraced runs (``trace=False``) time whole operations and report the
end-to-end metrics.  Traced runs alternate an untraced and a traced operation,
so ``trace.overhead_s`` compares like with like, and report the per-layer
metrics.  Correctness gates, digests and determinism re-runs happen outside
every timed interval and outside ``setup_s``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import tracing, workloads

SETUP_REPEATS = 5
MIN_REPEATS = 2
MIN_TRACED_PAIRS = 1
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import covloc.cli, covloc.figures; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "paper_projected_h": "h",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
}


class Run:
    """Counts operations and failures across one benchmark process."""

    def __init__(self, workload: workloads.Workload, work: Path):
        self.workload = workload
        self.work = work
        self.out = work / "out"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: str | None = None

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.failures.extend(f"{label}: {p}" for p in problems)

    def operation(self, label: str, timed, threads=None):
        """Run one operation into the fixed output directory and check it.

        ``timed(fn)`` calls ``fn`` and returns ``(result, wall)``.  Returns the
        wall time, or None when the operation failed.
        """
        if self.out.exists():
            shutil.rmtree(self.out)
        gc.collect()
        self.attempted += 1
        wl = self.workload
        try:
            result, wall = timed(lambda: wl.run(self.work, self.out, threads))
            problems = wl.check(self.out, result)
            digest = wl.digest(self.out, result)
        except Exception as exc:  # an operation that raises is a failed operation
            self.fail(label, [f"{type(exc).__name__}: {exc}"])
            return None, None
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("outputs differ from the first operation's")
        if problems:
            self.fail(label, problems)
            return None, None
        return wall, result


def _plain(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def import_seconds(root: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


def setup_seconds(wl: workloads.Workload, root: Path, work: Path) -> list[float]:
    """Import, input generation and warm-up, repeated; the import is timed in
    a fresh interpreter each time."""
    samples = []
    for i in range(SETUP_REPEATS):
        imported = import_seconds(root)
        t0 = time.perf_counter()
        wl.setup(work)
        wl.warm_up(work / f"warm{i}")
        samples.append(imported + time.perf_counter() - t0)
    return samples


def machine(root: Path, wl: workloads.Workload, blas_threads: str) -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "covloc").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2_cache": read(cache.format(2)),
        "l3_cache": read(cache.format(3)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": wl.name,
        "seed": wl.seed,
        "master_seed": wl.master_seed,
        "covloc_threads": wl.threads,
    }


def _untraced(run: Run, seconds: float):
    walls = []
    start = time.perf_counter()
    while True:
        wall, _ = run.operation(f"op {run.attempted}", _plain)
        if wall is not None:
            walls.append(wall)
        elapsed = time.perf_counter() - start
        estimate = statistics.median(walls) if walls else elapsed / run.attempted
        if run.attempted >= MIN_REPEATS and elapsed + estimate > seconds:
            return walls


def _traced(run: Run, seconds: float):
    plain_walls, traced_walls, samples = [], [], []
    start = time.perf_counter()
    while True:
        wall, _ = run.operation(f"op {run.attempted}", _plain)
        if wall is not None:
            plain_walls.append(wall)

        tracer = tracing.Tracer()
        shims = tracing.Shims(tracer)

        def timed(fn):
            tracing.install(shims, workloads)
            try:
                root = tracer.open("op")
                try:
                    result = fn()
                finally:
                    span = tracer.close(root)
            finally:
                shims.restore()
            return result, span.duration

        label = f"traced op {run.attempted}"
        wall, result = run.operation(label, timed)
        if wall is not None:
            problems = tracing.check_spans(tracer.spans, wall)
            if problems:
                run.fail(label, problems)
            else:
                traced_walls.append(wall)
                samples.append({**tracing.span_metrics(tracer.spans), **run.workload.observed(result)})
        elapsed = time.perf_counter() - start
        pair = elapsed / (run.attempted // 2)
        done = len(samples) >= MIN_TRACED_PAIRS or elapsed > seconds
        if done and elapsed + pair > seconds:
            return plain_walls, traced_walls, samples, shims.missing


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path, blas_threads: str,
            shape: str = "full") -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details)."""
    wl = workloads.WORKLOADS[name](seed, shape)
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        # covloc's CLI reports the files it writes on stdout; keep stdout for the result
        with contextlib.redirect_stdout(sys.stderr):
            setups = setup_seconds(wl, root, work)
            run = Run(wl, work)
            details = {"machine": machine(root, wl, blas_threads), "setup_s": setups}
            if not trace:
                walls = _untraced(run, seconds)
                if wl.threads > 1:
                    # criterion 10 at this shape: one worker must give the same bytes
                    run.operation("threads=1 rerun", _plain, threads=1)
                details["wall_s"] = walls
            else:
                plain, traced, samples, missing = _traced(run, seconds)
                details.update(wall_s=plain, traced_wall_s=traced, missing_shims=missing)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    failed = run.failed
    details["failures"] = run.failures
    if not trace:
        if not walls:
            raise RuntimeError(f"every operation failed: {run.failures[:3]}")
        wall = statistics.median(walls)
        rate = wl.work / wall
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "work_per_s": rate,
            "paper_projected_h": wl.paper_work / rate / 3600.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": 1.0 - failed / run.attempted,
        }
        units = END_TO_END
    else:
        if not samples or not plain:
            raise RuntimeError(f"no traced operation completed: {run.failures[:3]}")
        values = tracing.median_metrics(samples)
        values.update(wl.replay())
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        units = tracing.PER_LAYER
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    result = {"correct": not run.failures, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    return result, details


def emit(result: dict, details: dict) -> None:
    print(json.dumps({"perfbench": details}, sort_keys=True, default=str))
    print(json.dumps(result))
