"""Run configuration: defaults, flat key=value config files, CLI overrides.

The config file is a TOML-compatible subset: one ``key = value`` pair per
line, ``#`` comments, values being integers, floats, booleans or (optionally
quoted) strings.  A ``#`` inside a quoted string is part of the string.
Unknown keys, a key given twice and text that is not UTF-8 are refused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .options import SolverOptions

__all__ = ["RunConfig", "parse_config_file", "load_config"]


@dataclass(frozen=True)
class RunConfig:
    """The settable values; the solver defaults are those of
    ``SolverOptions``.  The eigen ladder has no setting: ``eig`` runs
    ``default_ladder()`` or its ``--annulus``.  Nor has a shot's stopping
    width: ``--polish`` narrows it to 4 ulp from ``options.V0_TOL``."""

    rtol: float = SolverOptions.rtol
    atol: float = SolverOptions.atol
    r_target: float = SolverOptions.r_target
    grid_nodes: int = SolverOptions.grid_nodes
    resolution: int = 400
    out: str = "."
    cache: bool = True

    def solver_options(self) -> SolverOptions:
        """The four solver keys as validated ``SolverOptions``; a value that
        fails is a ConfigError that names its key."""
        opts = SolverOptions(**{f.name: getattr(self, f.name)
                                for f in fields(SolverOptions)})
        opts.validate()
        return opts

    def validate(self) -> None:
        self.solver_options()
        v = self.resolution
        if not (isinstance(v, int) and not isinstance(v, bool) and v >= 1):
            raise ConfigError(f"config key 'resolution' must be an integer >= 1, got {v!r}")


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_TRUTH = {"true": True, "True": True, "false": False, "False": False}
_EXPECTS = {int: "an integer", float: "a number", bool: "true/false"}
# the longest start of a line without a comment: characters other than '"'
# and '#', and whole quoted strings
_BEFORE_COMMENT = re.compile(r'(?:[^"#]|"[^"]*")*')


def _parse_value(raw: str, want: type):
    """``raw`` as a value of type ``want``; KeyError or ValueError when it
    is not one.  A string may be quoted."""
    if want is bool:
        return _TRUTH[raw]
    if want is str:
        quoted = len(raw) >= 2 and raw[0] == raw[-1] == '"'
        return raw[1:-1] if quoted else raw
    return want(raw)


def parse_config_file(path: str | Path) -> dict:
    """Parse a flat key=value file into a dict of known config keys, each
    value typed like its key's default."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        end = _BEFORE_COMMENT.match(line).end()
        if line[end:end + 1] == '"':
            raise ConfigError(f"{path}:{lineno}: unterminated quote in {line!r}")
        stripped = line[:end].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: key '{key}' given twice")
        want = type(_DEFAULTS[key])
        try:
            out[key] = _parse_value(raw.strip(), want)
        except (KeyError, ValueError):
            raise ConfigError(f"{path}:{lineno}: key '{key}' expects "
                              f"{_EXPECTS[want]}") from None
    return out


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file, then explicit overrides."""
    cfg = RunConfig()
    if path is not None:
        cfg = replace(cfg, **parse_config_file(path))
    if overrides:
        unknown = set(overrides) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config key '{sorted(unknown)[0]}'")
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg
