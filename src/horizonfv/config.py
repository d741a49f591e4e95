"""Run configuration: a plain key-value format with sections.

Everything a run needs lives in one INI-style file; no environment
variables and no positional tuning flags, so a config plus a seed pins an
experiment exactly.  Each key is declared once, as a ``RunConfig`` field
that names its section (and its key, where that differs from the field
name); the field's annotation picks the parser and its default fills a
key left out.  Unknown sections or keys are rejected by name, with the
line number inside their own section when it can be located; type errors
(a number that is not finite among them) and constraint violations name
the offending key, and the fully resolved configuration (defaults
applied, in field order) is echoed into the output directory for
provenance.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field, fields
from itertools import groupby
from pathlib import Path

from .errors import ConfigError
from .model import DEFAULT_KRUZHKOV_LEVELS, FluxModel, burgers_model, polynomial_model
from .scheme import (COPY_BOUNDARY, FLUX_KINDS, OuterBoundary, bump_data, constant_data, fixed_boundary,
                     step_data)

_PRESET_NAMES = ("smooth", "riemann", "flat")


def _ini(section: str, default, key: str | None = None):
    """A field read from ``key`` (default: the field name) in ``[section]``."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass
class RunConfig:
    """Typed, validated run configuration with defaults applied."""

    model: str = _ini("model", "burgers")
    f_coeffs: tuple = _ini("model", (-0.5, 0.0, 0.5))
    h_coeffs: tuple = _ini("model", (0.0,))
    mass: float = _ini("geometry", 1.0)
    r_max: float = _ini("geometry", 12.0)
    cells: int = _ini("geometry", 200)
    outer_boundary: str = _ini("geometry", "copy")
    flux: str = _ini("evolution", "godunov")
    cfl_fraction: float = _ini("evolution", 0.9)
    t_end: float = _ini("evolution", 1.0)
    snapshot_every: int = _ini("evolution", 10)
    initial_kind: str = _ini("initial", "bump", "kind")
    initial_constant: float = _ini("initial", 0.5, "constant")
    initial_left: float = _ini("initial", 0.8, "left")
    initial_right: float = _ini("initial", -0.4, "right")
    initial_jump_r: float = _ini("initial", 7.0, "jump_r")
    initial_amplitude: float = _ini("initial", 0.5, "amplitude")
    initial_center: float = _ini("initial", 6.0, "center")
    initial_width: float = _ini("initial", 1.0, "width")
    entropy_diagnostics: bool = _ini("diagnostics", False)
    kruzhkov_levels: tuple = _ini("diagnostics", DEFAULT_KRUZHKOV_LEVELS)
    seed: int = _ini("run", 0)
    output_dir: str = _ini("run", "out")
    char_r0: float = _ini("characteristics", 8.0, "r0")
    char_u0: float = _ini("characteristics", 0.6, "u0")
    char_ds: float = _ini("characteristics", 1e-3, "ds")
    char_s_max: float = _ini("characteristics", 5.0, "s_max")
    char_r_stop: float = _ini("characteristics", 120.0, "r_stop")
    coordinates: str = _ini("characteristics", "exterior")
    interior_shift: float = _ini("characteristics", 0.5)
    steady_r0: float = _ini("steady", 4.0, "r0")
    steady_u0: float = _ini("steady", 0.9, "u0")
    converge_preset: str = _ini("converge", "smooth", "preset")
    converge_levels: int = _ini("converge", 4, "levels")
    oracle_preset: str = _ini("oracle", "smooth", "preset")
    oracle_cells: int = _ini("oracle", 400, "cells")
    fuzz_trials: int = _ini("fuzz", 100, "trials")
    fuzz_tau_scale: float = _ini("fuzz", 1.0, "tau_scale")

    def build_model(self) -> FluxModel:
        if self.model == "burgers":
            return burgers_model()
        return polynomial_model("custom", self.f_coeffs, self.h_coeffs)

    def build_outer_boundary(self) -> OuterBoundary:
        if self.outer_boundary == "copy":
            return COPY_BOUNDARY
        return fixed_boundary(float(self.outer_boundary.split(":", 1)[1]))

    def build_v0(self):
        if self.initial_kind == "constant":
            return constant_data(self.initial_constant)
        if self.initial_kind == "riemann":
            return step_data(self.initial_left, self.initial_right, self.initial_jump_r)
        return bump_data(self.initial_amplitude, self.initial_center, self.initial_width)


# (section, key) -> (attribute, parser kind), in declaration order; the
# annotations are strings here, and a tuple is a list of floats
_KEYS = {(f.metadata["section"], f.metadata["key"] or f.name):
         (f.name, "floats" if f.type == "tuple" else f.type) for f in fields(RunConfig)}
_SECTIONS = {section for section, _ in _KEYS}

_REQUIRED = (("geometry", "mass"), ("geometry", "r_max"), ("geometry", "cells"),
             ("evolution", "t_end"))


def _find_line(text: str, section: str, key: str | None = None) -> int | None:
    """Line of the header of [section], or of ``key`` inside that section.

    Keys match whole and case-insensitively, as configparser reads them.
    """
    inside = False
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            inside = stripped.startswith(f"[{section}]")
            if inside and key is None:
                return i
        elif inside and key is not None and re.split("[=:]", stripped, maxsplit=1)[0].strip().lower() == key:
            return i
    return None


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _convert(raw: str, kind: str, where: str):
    raw = raw.strip()
    try:
        if kind == "float":
            return _finite(raw)
        if kind == "int":
            value = _finite(raw)
            if value != int(value):
                raise ValueError("not an integer")
            return int(value)
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError("not a boolean")
        if kind == "floats":
            parts = [p for p in raw.replace(",", " ").split() if p]
            if not parts:
                raise ValueError("empty list")
            return tuple(_finite(p) for p in parts)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind} ({exc})") from None


def _validate(cfg: RunConfig) -> None:
    def fail(key: str, message: str):
        raise ConfigError(f"{key}: {message}")

    if cfg.model not in ("burgers", "custom"):
        fail("model.model", f"must be 'burgers' or 'custom', got {cfg.model!r}")
    if len(cfg.f_coeffs) > 9 or len(cfg.h_coeffs) > 9:
        fail("model.f_coeffs", "polynomial degree must be <= 8")
    if not cfg.mass >= 0.0:
        fail("geometry.mass", f"mass >= 0 required, got {cfg.mass}")
    if not cfg.r_max > 2.0 * cfg.mass:
        fail("geometry.r_max", f"r_max must exceed 2*mass = {2 * cfg.mass}")
    if cfg.cells < 2:
        fail("geometry.cells", f"cells >= 2 required, got {cfg.cells}")
    if cfg.outer_boundary != "copy":
        parts = cfg.outer_boundary.split(":", 1)
        if len(parts) != 2 or parts[0] != "fixed":
            fail("geometry.outer_boundary", f"must be 'copy' or 'fixed:<value>', got {cfg.outer_boundary!r}")
        try:
            value = float(parts[1])
        except ValueError:
            fail("geometry.outer_boundary", f"fixed value {parts[1]!r} is not a number")
        if not -1.0 <= value <= 1.0:
            fail("geometry.outer_boundary", f"fixed value {value} outside [-1, 1]")
    if cfg.flux not in FLUX_KINDS:
        fail("evolution.flux", f"must be one of {FLUX_KINDS}, got {cfg.flux!r}")
    if not 0.0 < cfg.cfl_fraction <= 1.0:
        fail("evolution.cfl_fraction", f"must lie in (0, 1], got {cfg.cfl_fraction}")
    if not cfg.t_end > 0.0:
        fail("evolution.t_end", f"t_end > 0 required, got {cfg.t_end}")
    if cfg.snapshot_every < 1:
        fail("evolution.snapshot_every", "snapshot_every >= 1 required")
    if cfg.initial_kind not in ("constant", "riemann", "bump"):
        fail("initial.kind", f"must be 'constant', 'riemann' or 'bump', got {cfg.initial_kind!r}")
    for key, val in (("initial.constant", cfg.initial_constant), ("initial.left", cfg.initial_left),
                     ("initial.right", cfg.initial_right), ("initial.amplitude", cfg.initial_amplitude)):
        if not -1.0 <= val <= 1.0:
            fail(key, f"state value {val} outside [-1, 1]")
    if not cfg.initial_width > 0.0:
        fail("initial.width", "width > 0 required")
    for k in cfg.kruzhkov_levels:
        if not -1.0 <= k <= 1.0:
            fail("diagnostics.kruzhkov_levels", f"level {k} outside [-1, 1]")
    if not cfg.char_ds > 0.0:
        fail("characteristics.ds", "ds > 0 required")
    if not cfg.char_s_max > 0.0:
        fail("characteristics.s_max", "s_max > 0 required")
    if cfg.coordinates not in ("exterior", "interior"):
        fail("characteristics.coordinates", f"must be 'exterior' or 'interior', got {cfg.coordinates!r}")
    if not abs(cfg.char_u0) <= 1.0:
        fail("characteristics.u0", f"|u0| <= 1 required, got {cfg.char_u0}")
    if cfg.steady_u0 == 0.0 or not abs(cfg.steady_u0) < 1.0:
        fail("steady.u0", f"u0 must be nonzero with |u0| < 1, got {cfg.steady_u0}")
    if cfg.converge_preset not in _PRESET_NAMES:
        fail("converge.preset", f"must be one of {_PRESET_NAMES}, got {cfg.converge_preset!r}")
    if cfg.converge_levels < 3:
        fail("converge.levels", "levels >= 3 required")
    if cfg.oracle_preset not in _PRESET_NAMES:
        fail("oracle.preset", f"must be one of {_PRESET_NAMES}, got {cfg.oracle_preset!r}")
    if cfg.oracle_cells < 2:
        fail("oracle.cells", "cells >= 2 required")
    if cfg.fuzz_trials < 1:
        fail("fuzz.trials", "trials >= 1 required")
    if not 0.0 < cfg.fuzz_tau_scale <= 1.0:
        fail("fuzz.tau_scale", "tau_scale must lie in (0, 1]; steps beyond the stability bound are rejected")


def parse_config(path) -> RunConfig:
    """Parse and validate a configuration file; defaults fill missing keys."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None

    # no header can name the empty section, so [DEFAULT] is an ordinary
    # section here: refused as unknown, its keys not copied into the others
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None,
                                       default_section="")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    cfg = RunConfig()
    seen = set()
    for section in parser.sections():
        if section not in _SECTIONS:
            line = _find_line(text, section)
            at = f" (line {line})" if line else ""
            raise ConfigError(f"unknown section [{section}]{at}")
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                line = _find_line(text, section, key)
                at = f" (line {line})" if line else ""
                raise ConfigError(f"unknown key '{key}' in section [{section}]{at}")
            attr, kind = _KEYS[section, key]
            setattr(cfg, attr, _convert(raw, kind, f"{section}.{key}"))
            seen.add((section, key))

    missing = [f"{s}.{k}" for s, k in _REQUIRED if (s, k) not in seen]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    _validate(cfg)
    return cfg


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ", ".join(f"{v:.17g}" for v in value)
    return str(value)


def resolved_config_text(cfg: RunConfig) -> str:
    """Canonical dump of the fully resolved configuration."""
    lines = []
    for section, entries in groupby(_KEYS.items(), key=lambda entry: entry[0][0]):
        lines.append(f"[{section}]")
        lines += [f"{key} = {_format_value(getattr(cfg, attr))}" for (_, key), (attr, _) in entries]
        lines.append("")
    return "\n".join(lines)
