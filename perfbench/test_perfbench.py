"""Self-tests of the benchmark: metric names, span invariants, tiny smoke runs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import re
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import harness, tracing, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == harness.END_TO_END
    assert per_layer == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for name in [*end_to_end, *per_layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_nested_spans_self_times_sum_to_the_root():
    tracer = tracing.Tracer(FakeClock())
    root = tracer.open("op")
    cli = tracer.open("cli")
    for _ in range(3):
        tracer.close(tracer.open("models.drift"))
    tracer.close(cli)
    tracer.close(root)
    spans = tracer.spans
    assert tracing.check_spans(spans, spans[root].duration) == []
    selfs = tracing.layer_self_times(spans)
    assert selfs["models"] == 3.0
    assert selfs["cli"] == spans[cli].duration - 3.0
    assert sum(selfs.values()) == spans[root].duration


def test_overlapping_worker_spans_are_counted_once_in_self_time():
    tracer = tracing.Tracer()
    root = tracer.open("op")
    ensemble = tracer.open(tracing.ENSEMBLE)
    barrier = threading.Barrier(2)

    def worker():
        barrier.wait(timeout=10)
        index = tracer.open("models.drift")
        time.sleep(0.02)
        tracer.close(index)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.close(ensemble)
    tracer.close(root)
    spans = tracer.spans
    drifts = [s for s in spans if s.name == "models.drift"]
    assert all(s.parent == ensemble for s in drifts)
    assert tracing.check_spans(spans, spans[root].duration) == []
    # busy time counts both threads; wall-clock self time counts the overlap once
    assert sum(s.duration for s in drifts) > tracing.layer_self_times(spans)["models"]


def test_a_child_outside_its_parent_is_reported():
    root, child = tracing.Span("op", 0.0, None), tracing.Span("cli", 1.0, 0)
    root.end, child.end = 2.0, 3.0
    problems = tracing.check_spans([root, child], 10.0)
    assert any("outside its parent" in p for p in problems)


def test_self_times_above_the_wall_time_are_reported():
    tracer = tracing.Tracer(FakeClock())
    tracer.close(tracer.open("op"))
    assert tracing.check_spans(tracer.spans, 0.5) != []


def test_shims_are_removed_after_use():
    import covloc.cli
    import covloc.lattice

    originals = (covloc.cli.simulate_ensemble, covloc.lattice.BlockCovariance.__dict__["norm2"])
    shims = tracing.Shims(tracing.Tracer())
    tracing.install(shims, workloads)
    assert covloc.cli.simulate_ensemble is not originals[0]
    shims.restore()
    assert (covloc.cli.simulate_ensemble, covloc.lattice.BlockCovariance.__dict__["norm2"]) == originals
    assert shims.missing == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(name, trace):
    result, details = harness.measure(name, 7, 0.01, trace, ROOT, "2", shape="tiny")
    assert details["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = tracing.PER_LAYER if trace else harness.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), key
        if not trace:
            assert metric["value"] > 0, key
