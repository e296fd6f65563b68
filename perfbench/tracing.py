"""Spans recorded from outside the program, and the per-layer metrics they give.

The benchmark never edits covloc.  A traced run replaces selected module
attributes with timing shims for the duration of one operation and puts the
originals back afterwards.  Each shim wraps a function *as bound in the module
that calls it* (``covloc.cli.simulate_ensemble``, ``covloc.figures.write_csv``,
the names this package's workloads module imported), so calls a covloc module
makes to its own helpers stay untouched.  Model ``drift``/``mean_field``
callables are wrapped by rebuilding the model spec with ``dataclasses.replace``
as the model constructors return it.

Spans live in memory.  A span opened on a worker thread with nothing open on
that thread takes as parent the innermost span open on the main thread, which
is where every covloc thread pool is started.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import statistics
import threading
import time

from covloc.bounds import CAP

# Span names, grouped by layer (the text before the first dot).
ENSEMBLE = "integrator.ensemble"
ENSEMBLE_K1 = "integrator.ensemble_k1"
PATH = "integrator.path"
CSV_WRITE = "storage.csv_write"
CSV_READ = "storage.csv_read"
CVL_WRITE = "storage.cvl_write"
CVL_READ = "storage.cvl_read"
BOUND_ROW = ("bounds.local_coefficient", "bounds.diffusion_only_bound")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``open``/``close`` are safe to call from any thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(name, self.clock(), parent)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        self._stack().pop()
        return span

    def wrap(self, name, fn, before=None, after=None):
        """Shim around ``fn`` recording one span per call.

        ``before(bound_args)`` returns the span name to use (or None for
        ``name``); ``after(span, bound_args, result)`` adds attributes.  Both
        run outside the span's timed interval.
        """
        signature = _signature(fn) if (before or after) else None

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            bound = _bind(signature, args, kwargs) if signature else {}
            index = self.open((before(bound) if before else None) or name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(index)
            if after is not None:
                after(span, bound, result)
            return result

        return shim

    def wrap_generator(self, name, fn):
        """Shim for a generator function: the span covers its consumption."""

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            index = self.open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.close(index)

        return shim


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def _bind(signature, args, kwargs) -> dict:
    if signature is None:
        return {}
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


class Shims:
    """Installs timing shims on module attributes and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- shim factories ---------------------------------------------------

    def span(self, name, before=None, after=None):
        return lambda fn: self.tracer.wrap(name, fn, before, after)

    def generator(self, name):
        return lambda fn: self.tracer.wrap_generator(name, fn)

    def model(self):
        """Wrap a model constructor so the returned spec's callables are traced."""
        tracer = self.tracer

        def make(fn):
            @functools.wraps(fn)
            def shim(*args, **kwargs):
                return traced_model(tracer, fn(*args, **kwargs))

            return shim

        return make

    def integrator(self, kind: str):
        """Wrap ``simulate_ensemble`` (kind "ensemble") or ``simulate_path``."""

        def before(bound):
            if kind == "path":
                return PATH
            return ENSEMBLE if bound.get("n_samples", 1) > 1 else ENSEMBLE_K1

        def after(span, bound, result):
            model, config = bound.get("model"), bound.get("config")
            k = 1 if kind == "path" else bound.get("n_samples", 1)
            span.attrs["block_steps"] = k * model.n_blocks * config.n_steps
            span.attrs["max_abs_state"] = _max_abs_state(result)

        return self.span(None, before, after)

    def csv_write(self):
        """``write_csv(path, header, rows)``: count rows as they are consumed."""
        tracer = self.tracer

        def make(fn):
            @functools.wraps(fn)
            def shim(path, header, rows):
                count = [0]

                def counted():
                    for row in rows:
                        count[0] += 1
                        yield row

                index = tracer.open(CSV_WRITE)
                try:
                    fn(path, header, counted())
                finally:
                    span = tracer.close(index)
                span.attrs.update(rows=count[0], bytes=os.path.getsize(path))

            return shim

        return make

    def covariance_write(self, name):
        """``write_covariance[_csv](path, cov, ...)``: one CSV row per entry."""

        def after(span, bound, result):
            span.attrs["bytes"] = os.path.getsize(bound["path"])
            if name == CSV_WRITE:
                d = bound["cov"].n_blocks * bound["cov"].block_dim
                span.attrs["rows"] = d * d

        return self.span(name, after=after)

    def covariance_csv_read(self):
        def after(span, bound, result):
            d = result.n_blocks * result.block_dim
            span.attrs["rows"] = d * d

        return self.span(CSV_READ, after=after)

    def bound_value(self, name):
        def after(span, bound, result):
            span.attrs["vacuous"] = int(result >= CAP)  # saturated, so vacuous

        return self.span(name, after=after)

    def returning(self, name, key):
        def after(span, bound, result):
            span.attrs[key] = result

        return self.span(name, after=after)


def traced_model(tracer: Tracer, model):
    """The same model spec with its drift and mean-field callables traced."""
    fields = {}
    for attr, name in (("drift", "models.drift"), ("mean_field", "models.mean_field")):
        fn = getattr(model, attr, None)
        if callable(fn):
            fields[attr] = tracer.wrap(name, fn)
    return dataclasses.replace(model, **fields) if fields else model


def _max_abs_state(result) -> float:
    items = result if isinstance(result, list) else [result]
    peak = 0.0
    for item in items:
        states = getattr(item, "samples", None)
        if states is None:
            states = getattr(item, "states", None)
        if states is not None and states.size:
            peak = max(peak, float(abs(states).max()))
    return peak


# -- self time and span checks ------------------------------------------------


def _merge(intervals):
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def _length(merged) -> float:
    return sum(end - start for start, end in merged)


def _overlap(a, b) -> float:
    """Length of the intersection of two merged interval lists."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Wall time during which each layer ran with none of its children running.

    A layer's spans and the spans they directly parent in other layers are
    each merged into interval sets first, so children that overlap on worker
    threads are not counted twice.
    """
    own: dict[str, list] = {}
    children: dict[str, list] = {}
    for span in spans:
        own.setdefault(span.layer, []).append((span.start, span.end))
        if span.parent is not None:
            parent_layer = spans[span.parent].layer
            if parent_layer != span.layer:
                children.setdefault(parent_layer, []).append((span.start, span.end))
    result = {}
    for layer, intervals in own.items():
        merged = _merge(intervals)
        covered = _overlap(merged, _merge(children.get(layer, [])))
        result[layer] = _length(merged) - covered
    return result


def check_spans(spans: list[Span], wall: float, slack: float = 1e-6) -> list[str]:
    """Violations of: every span closed, each child inside its parent, self
    times non-negative and summing to at most ``wall``."""
    problems = []
    for index, span in enumerate(spans):
        if span.end is None or span.end < span.start:
            problems.append(f"span {index} ({span.name}) is not closed")
            continue
        if span.parent is not None:
            parent = spans[span.parent]
            if parent.end is None or span.start < parent.start or span.end > parent.end:
                problems.append(f"span {index} ({span.name}) lies outside its parent {parent.name}")
    if problems:
        return problems
    selfs = layer_self_times(spans)
    for layer, value in selfs.items():
        if value < -slack:
            problems.append(f"self time of {layer} is negative: {value}")
    total = sum(selfs.values())
    if total > wall + slack:
        problems.append(f"self times sum to {total:.6f} s, more than the wall time {wall:.6f} s")
    return problems


# -- per-layer metrics ----------------------------------------------------------

PER_LAYER = {
    "models.drift_s": "s",
    "models.drift_calls": "count",
    "models.drift_ns_per_block_step": "ns",
    "models.mean_field_s": "s",
    "models.mean_field_calls": "count",
    "integrator.ensemble_s": "s",
    "integrator.ensemble_k1_s": "s",
    "integrator.path_s": "s",
    "integrator.block_steps": "count",
    "integrator.self_s": "s",
    "integrator.self_ns_per_block_step": "ns",
    "integrator.max_abs_state": "1",
    "integrator.noise_replay_ns_per_normal": "ns",
    "integrator.noise_apply_replay_ns_per_block_step": "ns",
    "integrator.finite_check_replay_ns_per_block_step": "ns",
    "estimators.shifted_pair_s": "s",
    "estimators.shifted_pair_calls": "count",
    "estimators.mc_pair_s": "s",
    "estimators.mc_pair_calls": "count",
    "figures.self_s": "s",
    "analytic.build_system_matrix_s": "s",
    "analytic.analytic_covariance_s": "s",
    "analytic.max_dev_vs_fft": "1",
    "bounds.bound_row_s": "s",
    "bounds.calls": "count",
    "bounds.vacuous_count": "count",
    "bounds.surrogate_kernel_s": "s",
    "localization.choose_bandwidth_s": "s",
    "localization.localize_s": "s",
    "localization.bandwidth": "count",
    "lattice.norm2_s": "s",
    "storage.csv_write_s": "s",
    "storage.csv_rows_written": "count",
    "storage.csv_read_s": "s",
    "storage.csv_rows_read": "count",
    "storage.cvl_write_s": "s",
    "storage.cvl_read_s": "s",
    "storage.bytes_written": "B",
    "cli.self_s": "s",
    "config.parse_s": "s",
    "trace.overhead_s": "s",
}


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced operation (replays and overhead excluded)."""

    def named(*names):
        return [s for s in spans if s.name in names]

    def busy(*names):
        return sum(s.duration for s in named(*names))

    def attr_sum(key, *names):
        return sum(s.attrs.get(key, 0) for s in (named(*names) if names else spans))

    selfs = layer_self_times(spans)
    block_steps = attr_sum("block_steps", ENSEMBLE, ENSEMBLE_K1, PATH)
    per_step = (1e9 / block_steps) if block_steps else 0.0
    bandwidths = [s.attrs["bandwidth"] for s in named("localization.choose_bandwidth")]
    bound_spans = [s for s in spans if s.layer == "bounds"]
    return {
        "models.drift_s": busy("models.drift"),
        "models.drift_calls": len(named("models.drift")),
        "models.drift_ns_per_block_step": busy("models.drift") * per_step,
        "models.mean_field_s": busy("models.mean_field"),
        "models.mean_field_calls": len(named("models.mean_field")),
        "integrator.ensemble_s": busy(ENSEMBLE),
        "integrator.ensemble_k1_s": busy(ENSEMBLE_K1),
        "integrator.path_s": busy(PATH),
        "integrator.block_steps": block_steps,
        "integrator.self_s": selfs.get("integrator", 0.0),
        "integrator.self_ns_per_block_step": selfs.get("integrator", 0.0) * per_step,
        "integrator.max_abs_state": max(
            [s.attrs.get("max_abs_state", 0.0) for s in named(ENSEMBLE, ENSEMBLE_K1, PATH)],
            default=0.0,
        ),
        "estimators.shifted_pair_s": busy("estimators.shifted_pair"),
        "estimators.shifted_pair_calls": len(named("estimators.shifted_pair")),
        "estimators.mc_pair_s": busy("estimators.mc_pair"),
        "estimators.mc_pair_calls": len(named("estimators.mc_pair")),
        "figures.self_s": selfs.get("figures", 0.0),
        "analytic.build_system_matrix_s": busy("analytic.build_system_matrix"),
        "analytic.analytic_covariance_s": busy("analytic.analytic_covariance"),
        "bounds.bound_row_s": busy(*BOUND_ROW),
        "bounds.calls": len(bound_spans),
        "bounds.vacuous_count": sum(s.attrs.get("vacuous", 0) for s in bound_spans),
        "bounds.surrogate_kernel_s": busy("bounds.surrogate_kernel"),
        "localization.choose_bandwidth_s": busy("localization.choose_bandwidth"),
        "localization.localize_s": busy("localization.localize"),
        "localization.bandwidth": max(bandwidths, default=0),
        "lattice.norm2_s": busy("lattice.norm2"),
        "storage.csv_write_s": busy(CSV_WRITE),
        "storage.csv_rows_written": attr_sum("rows", CSV_WRITE),
        "storage.csv_read_s": busy(CSV_READ),
        "storage.csv_rows_read": attr_sum("rows", CSV_READ),
        "storage.cvl_write_s": busy(CVL_WRITE),
        "storage.cvl_read_s": busy(CVL_READ),
        "storage.bytes_written": attr_sum("bytes", CSV_WRITE, CVL_WRITE),
        "cli.self_s": selfs.get("cli", 0.0),
        "config.parse_s": busy("config.parse"),
    }


def median_metrics(samples: list[dict]) -> dict[str, float]:
    """Key-wise median of per-operation metric dicts."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def install(shims: Shims, caller) -> None:
    """Shim every entry point a workload reaches; ``caller`` is the module
    from which the benchmark makes its own calls into covloc."""
    from covloc import cli, config, figures, lattice, localization

    s = shims
    bandwidth = s.returning("localization.choose_bandwidth", "bandwidth")
    # calls the benchmark makes itself
    s.patch(caller, "cli_main", s.span("cli"))
    s.patch(caller, "run_figure", s.span("figures"))
    s.patch(caller, "spatial_vs_mc_rows", s.generator("figures"))
    s.patch(caller, "build_system_matrix", s.span("analytic.build_system_matrix"))
    s.patch(caller, "analytic_covariance", s.span("analytic.analytic_covariance"))
    s.patch(caller, "linear_model", s.model())
    s.patch(caller, "bound_inputs_from_model", s.span("bounds.inputs"))
    s.patch(caller, "local_coefficient", s.bound_value("bounds.local_coefficient"))
    s.patch(caller, "diffusion_only_bound", s.bound_value("bounds.diffusion_only_bound"))
    s.patch(caller, "surrogate_kernel", s.span("bounds.surrogate_kernel"))
    s.patch(caller, "choose_bandwidth", bandwidth)
    s.patch(caller, "localize", s.span("localization.localize"))
    s.patch(caller, "write_covariance", s.covariance_write(CVL_WRITE))
    s.patch(caller, "write_covariance_csv", s.covariance_write(CSV_WRITE))
    s.patch(caller, "read_covariance", s.span(CVL_READ))
    s.patch(lattice.BlockCovariance, "norm2", s.span("lattice.norm2"))
    # cli; _cmd_localize imports choose_bandwidth from its module at call time
    s.patch(cli, "parse_config", s.span("config.parse"))
    s.patch(config, "fhn_model", s.model())
    s.patch(config, "linear_model", s.model())
    s.patch(cli, "simulate_ensemble", s.integrator("ensemble"))
    s.patch(cli, "shifted_pair_covariance", s.span("estimators.shifted_pair"))
    s.patch(cli, "monte_carlo_pair_covariance", s.span("estimators.mc_pair"))
    s.patch(cli, "write_csv", s.csv_write())
    s.patch(cli, "write_covariance", s.covariance_write(CVL_WRITE))
    s.patch(cli, "write_covariance_csv", s.covariance_write(CSV_WRITE))
    s.patch(cli, "read_covariance", s.span(CVL_READ))
    s.patch(cli, "read_covariance_csv", s.covariance_csv_read())
    s.patch(cli, "localize", s.span("localization.localize"))
    s.patch(localization, "choose_bandwidth", bandwidth)
    # figures
    s.patch(figures, "build_model", s.model())
    s.patch(figures, "fhn_model", s.model())
    s.patch(figures, "linear_model", s.model())
    s.patch(figures, "simulate_ensemble", s.integrator("ensemble"))
    s.patch(figures, "simulate_path", s.integrator("path"))
    s.patch(figures, "shifted_pair_covariance", s.span("estimators.shifted_pair"))
    s.patch(figures, "monte_carlo_pair_covariance", s.span("estimators.mc_pair"))
    s.patch(figures, "sample_covariance", s.span("estimators.sample_covariance"))
    s.patch(figures, "build_system_matrix", s.span("analytic.build_system_matrix"))
    s.patch(figures, "analytic_covariance", s.span("analytic.analytic_covariance"))
    s.patch(figures, "write_csv", s.csv_write())
