"""Run configuration: defaults, flat key=value config files, CLI overrides.

The config file is a TOML-compatible subset: one ``key = value`` pair per
line, ``#`` comments, values being integers, floats, booleans or (optionally
quoted) strings.  Unknown keys are rejected by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError

__all__ = ["RunConfig", "parse_config_file", "load_config"]


@dataclass(frozen=True)
class RunConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    event_tol: float = 1e-12
    r_target: float = 1e6
    decay_threshold: float = 0.05
    grid_nodes: int = 2048
    v0_tol: float = 1e-13
    tol_curve: float = 1e-9
    resolution: int = 400
    ladder_kmax: int = 5
    ladder_m_per_k: int = 1024
    eig_tol: float = 1e-11
    eig_max_iter: int = 10000
    out: str = "."
    cache: bool = True
    cache_dir: str = ""

    def validate(self) -> None:
        positive = ("rtol", "atol", "event_tol", "r_target", "decay_threshold",
                    "v0_tol", "tol_curve", "eig_tol")
        for name in positive:
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ConfigError(f"config key '{name}' must be positive, got {v!r}")
        for name, lo in (("grid_nodes", 16), ("resolution", 16),
                         ("ladder_m_per_k", 16), ("ladder_kmax", 1),
                         ("eig_max_iter", 1)):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= lo):
                raise ConfigError(f"config key '{name}' must be an integer >= {lo}, got {v!r}")

    def payload(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if raw in ("true", "True"):
        return True
    if raw in ("false", "False"):
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config_file(path: str | Path) -> dict:
    """Parse a flat key=value file into a dict of known config keys."""
    text = Path(path).read_text()
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        value = _parse_value(key, raw)
        want = _FIELD_TYPES[key]
        if want in ("int", int) and isinstance(value, bool):
            raise ConfigError(f"{path}:{lineno}: key '{key}' expects an integer")
        if want in ("int", int) and not isinstance(value, int):
            raise ConfigError(f"{path}:{lineno}: key '{key}' expects an integer")
        if want in ("float", float) and isinstance(value, (int, float)) and not isinstance(value, bool):
            value = float(value)
        elif want in ("float", float):
            raise ConfigError(f"{path}:{lineno}: key '{key}' expects a number")
        if want in ("bool", bool) and not isinstance(value, bool):
            raise ConfigError(f"{path}:{lineno}: key '{key}' expects true/false")
        if want in ("str", str) and not isinstance(value, str):
            value = str(value)
        out[key] = value
    return out


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file, then explicit overrides."""
    cfg = RunConfig()
    if path is not None:
        cfg = replace(cfg, **parse_config_file(path))
    if overrides:
        unknown = set(overrides) - set(_FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config key '{sorted(unknown)[0]}'")
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg
