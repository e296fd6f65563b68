"""Experiment configuration: flat INI-style files with strict key checking.

Unknown sections or keys are rejected outright; a silent typo in a regime
parameter would otherwise invalidate a whole reproduction run.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields

from .lattice import LatticeModelSpec
from .models import (
    FhnParams,
    LinearParams,
    PresetNotFoundError,
    default_step_size,
    fhn_model,
    linear_model,
    regime,
)

_PARAMS = {"linear": LinearParams, "fhn": FhnParams}
_MODEL_KEYS = {"preset", "kind"} | {f.name for cls in _PARAMS.values() for f in fields(cls)}


class ConfigError(ValueError):
    """Configuration file is malformed; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
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

    def resolved_step_size(self) -> float:
        """The configured step; else the model default, shortened to divide t_end."""
        if self.step_size is not None:
            return self.step_size
        h = default_step_size(self.params)
        steps = self.t_end / h
        return h if abs(steps - round(steps)) <= 1e-9 else self.t_end / math.ceil(steps)

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
        out = {"model": {"kind": kind, **vars(self.params).copy()}}
        out["run"] = {
            "n_blocks": self.n_blocks,
            "n_samples": self.n_samples,
            "t_end": self.t_end,
            "step_size": self.resolved_step_size(),
            "master_seed": self.master_seed,
        }
        out["bounds"] = {
            "betas": list(self.betas),
            "grad_g_sup": self.grad_g_sup,
            "t": self.bounds_t if self.bounds_t is not None else self.t_end,
        }
        return out


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
        raise ConfigError(f"missing required key {where}.{key}")
    raw = section[key]
    try:
        return convert(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse {where}.{key} = {raw!r}") from None


def _parse_model(section) -> LinearParams | FhnParams:
    if "preset" in section:
        extra = set(section) - {"preset"}
        if extra:
            raise ConfigError(
                f"model.preset is exclusive; remove keys {sorted(extra)} or the preset"
            )
        try:
            return regime(section["preset"]).params
        except PresetNotFoundError as exc:
            raise ConfigError(f"model.preset: {exc}") from None
    kind = _get(section, "kind", str, "model")
    if kind not in _PARAMS:
        raise ConfigError(f"model.kind must be 'linear' or 'fhn', got {kind!r}")
    names = [f.name for f in fields(_PARAMS[kind])]
    extra = set(section) - {"kind", *names}
    if extra:
        raise ConfigError(f"unknown keys for model.kind = {kind}: {sorted(extra)}")
    return _PARAMS[kind](
        **{key: _get(section, key, float, "model") for key in names if key in section}
    )


def parse_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        unknown = set(parser[name]) - _SECTIONS[name]
        if unknown:
            raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
    for required in ("model", "run"):
        if required not in parser:
            raise ConfigError(f"missing required section [{required}]")

    params = _parse_model(parser["model"])
    values = {}
    for (where, key), (name, convert) in _FIELDS.items():
        section = parser[where] if where in parser else {}
        if key in section or name in _REQUIRED:
            values[name] = _get(section, key, convert, where)
    cfg = ExperimentConfig(params=params, **values)
    if cfg.n_blocks < 3:
        raise ConfigError(f"run.n_blocks must be >= 3, got {cfg.n_blocks}")
    if cfg.n_samples < 1:
        raise ConfigError(f"run.n_samples must be >= 1, got {cfg.n_samples}")
    if cfg.t_end < 0:
        raise ConfigError(f"run.t_end must be nonnegative, got {cfg.t_end}")
    if cfg.threads < 1:
        raise ConfigError(f"run.threads must be >= 1, got {cfg.threads}")
    return cfg
