"""Experiment configuration: flat INI-style files with strict key checking.

Unknown sections or keys are rejected outright; a silent typo in a regime
parameter would otherwise invalidate a whole reproduction run.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields

from .integrator import IntegratorConfig, dividing_step
from .lattice import _FINITE, _POSITIVE, ContractViolationError, LatticeModelSpec, _integer, _real
from .models import (
    FhnParams,
    LinearParams,
    PresetNotFoundError,
    fhn_model,
    linear_model,
    regime,
    stiffest_rate,
)

_PARAMS = {"linear": LinearParams, "fhn": FhnParams}
_MODEL_KEYS = {"preset", "kind"} | {f.name for cls in _PARAMS.values() for f in fields(cls)}


# ExperimentConfig's checks: every subcommand and every command-line override
# meets the same contract, whether or not it reads the field; t_end, step_size
# and master_seed meet IntegratorConfig's.  (field, least value) for the
# counts, which must be integers, bools refused; the other reals must be finite.
_COUNTS = [("n_blocks", 3), ("n_samples", 1), ("threads", 1)]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, resolved on construction: a missing ``step_size`` is
    min(1e-3, 0.1 / ``stiffest_rate``), shortened by ``dividing_step`` to divide
    ``t_end``, and a given one must keep h * ``stiffest_rate`` below 2, where the
    stiffest linear mode stops decaying under explicit Euler; a missing ``bounds_t``
    is ``t_end``; and ``run`` is the IntegratorConfig of the step, ``t_end`` and
    ``master_seed``, which every subcommand thereby meets."""

    params: LinearParams | FhnParams
    n_blocks: int
    t_end: float
    master_seed: int
    n_samples: int = 1
    step_size: float | None = None
    threads: int = 1
    out_dir: str = "out"
    betas: tuple[float, ...] = (0.2,)
    grad_g_sup: float = 1.0
    bounds_t: float | None = None
    run: IntegratorConfig = field(init=False)

    def __post_init__(self):
        for name, low in _COUNTS:
            count = _integer(getattr(self, name), f"run.{name}", low, math.inf)
            object.__setattr__(self, name, count)
        if not self.betas:
            raise ContractViolationError(f"bounds.betas must list a beta, got {self.betas}")
        for beta in self.betas:
            _real(beta, "bounds.betas", _POSITIVE, _FINITE)
        _real(self.grad_g_sup, "bounds.grad_g_sup", 0.0, _FINITE)
        if self.bounds_t is not None:  # a missing bounds.t is t_end
            _real(self.bounds_t, "bounds.t", 0.0, _FINITE)
        h, rate = self.step_size, stiffest_rate(self.params)
        if h is None:
            h = dividing_step(self.t_end, min(1e-3, 0.1 / rate))
        elif h * rate >= 2.0:
            raise ContractViolationError(
                f"run.step_size = {h} times the stiffest rate {rate:.4g} is {h * rate:.4g}, "
                "not below explicit Euler's stability limit 2"
            )
        object.__setattr__(self, "step_size", h)
        t = self.t_end if self.bounds_t is None else self.bounds_t
        object.__setattr__(self, "bounds_t", t)
        object.__setattr__(self, "run", IntegratorConfig(h, self.t_end, self.master_seed))

    def build_model(self) -> LatticeModelSpec:
        if isinstance(self.params, LinearParams):
            return linear_model(self.params, self.n_blocks)
        return fhn_model(self.params, self.n_blocks)

    def as_dict(self) -> dict:
        """Fully resolved configuration for metadata records.

        Thread count and output directory are execution details that never
        affect results, so they are excluded: identical configs produce
        byte-identical records wherever they are written.
        """
        kind = "linear" if isinstance(self.params, LinearParams) else "fhn"
        run = {"n_blocks": self.n_blocks, "n_samples": self.n_samples, **vars(self.run)}
        bounds = {"betas": list(self.betas), "grad_g_sup": self.grad_g_sup, "t": self.bounds_t}
        return {"model": {"kind": kind, **vars(self.params)}, "run": run, "bounds": bounds}


def _parse_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


# (section, key) -> (ExperimentConfig field, converter); omitted keys take the
# field's default, and fields without one are required
_FIELDS = {
    ("run", "n_blocks"): ("n_blocks", int),
    ("run", "n_samples"): ("n_samples", int),
    ("run", "t_end"): ("t_end", float),
    ("run", "master_seed"): ("master_seed", int),
    ("run", "step_size"): ("step_size", float),
    ("run", "threads"): ("threads", int),
    ("outputs", "out_dir"): ("out_dir", str),
    ("bounds", "betas"): ("betas", lambda raw: tuple(float(x) for x in _parse_list(raw))),
    ("bounds", "grad_g_sup"): ("grad_g_sup", float),
    ("bounds", "t"): ("bounds_t", float),
}
_REQUIRED = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
_SECTIONS = {"model": _MODEL_KEYS} | {
    section: {key for s, key in _FIELDS if s == section} for section, _ in _FIELDS
}


def _get(section, key, convert, where):
    if key not in section:
        raise ContractViolationError(f"missing required key {where}.{key}")
    raw = section[key]
    try:
        return convert(raw)
    except (TypeError, ValueError):
        raise ContractViolationError(f"cannot parse {where}.{key} = {raw!r}") from None


def _parse_model(section) -> LinearParams | FhnParams:
    if "preset" in section:
        extra = set(section) - {"preset"}
        if extra:
            raise ContractViolationError(
                f"model.preset is exclusive; remove keys {sorted(extra)} or the preset"
            )
        try:
            return regime(section["preset"]).params
        except PresetNotFoundError as exc:
            raise ContractViolationError(f"model.preset: {exc}") from None
    kind = _get(section, "kind", str, "model")
    if kind not in _PARAMS:
        raise ContractViolationError(f"model.kind must be 'linear' or 'fhn', got {kind!r}")
    names = [f.name for f in fields(_PARAMS[kind])]
    extra = set(section) - {"kind", *names}
    if extra:
        raise ContractViolationError(f"unknown keys for model.kind = {kind}: {sorted(extra)}")
    return _PARAMS[kind](
        **{key: _get(section, key, float, "model") for key in names if key in section}
    )


def parse_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path, encoding="utf-8")
        # every value is interpolated here, so a bad % is reported as a parse error
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages can span lines; the CLI reports one
        message = " ".join(str(exc).split())
        raise ContractViolationError(f"cannot parse config file {path}: {message}") from None
    if not read:
        raise ContractViolationError(f"cannot read config file {path}")

    for name, section in sections.items():
        if name not in _SECTIONS:
            raise ContractViolationError(f"unknown section [{name}]")
        unknown = set(section) - _SECTIONS[name]
        if unknown:
            raise ContractViolationError(f"unknown keys in [{name}]: {sorted(unknown)}")
    for required in ("model", "run"):
        if required not in sections:
            raise ContractViolationError(f"missing required section [{required}]")

    params = _parse_model(sections["model"])
    values = {}
    for (where, key), (name, convert) in _FIELDS.items():
        section = sections.get(where, {})
        if key in section or name in _REQUIRED:
            values[name] = _get(section, key, convert, where)
    return ExperimentConfig(params=params, **values)
