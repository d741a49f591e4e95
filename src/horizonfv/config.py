"""Run configuration: a plain key-value format with sections.

Everything a run needs lives in one INI-style file; no environment
variables and no positional tuning flags, so a config plus a seed pins an
experiment exactly.  Each key is declared once, as a ``RunConfig`` field
that names its section (and its key, where that differs from the field
name); the field's annotation picks the parser, its default fills a key
left out, and its declared set bounds the values it takes.  Unknown
sections or keys are rejected by name, with the line number inside their
own section when it can be located; type errors (a number that is not
finite among them) and constraint violations name the offending key, and
the fully resolved configuration (defaults applied, in field order) is
echoed into the output directory for provenance.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field, fields
from itertools import groupby
from pathlib import Path

from .characteristics import FhatTable
from .errors import ConfigError
from .harness import PRESET_NAMES
from .model import BURGERS_COEFFS, DEFAULT_KRUZHKOV_LEVELS, MAX_DEGREE, FluxModel, _trimmed, polynomial_model
from .scheme import FLUX_KINDS, bump_data, constant_data, step_data

_CELLS = "[2, 10000000]"


def _admits(admits, value) -> bool:
    """Whether value lies in admits: a tuple of choices, or the text of an interval, such as
    "(0, 1]" or "[2, inf)", whose square bracket admits its end."""
    if isinstance(admits, tuple):
        return value in admits
    lo, hi = map(float, admits[1:-1].split(", "))
    return (lo < value or admits[0] == "[" and value == lo) and (value < hi or admits[-1] == "]" and value == hi)


def _ini(section: str, default, key: str | None = None, admits=None):
    """A field read from ``key`` (default: the field name) in ``[section]``.  ``admits``, if given,
    is the set its value, or each element of a tuple value, must lie in (see ``_admits``)."""
    return field(default=default, metadata={"section": section, "key": key, "admits": admits})


@dataclass
class RunConfig:
    """Typed, validated run configuration with defaults applied."""

    model: str = _ini("model", "burgers", admits=("burgers", "custom"))
    f_coeffs: tuple = _ini("model", BURGERS_COEFFS[0])
    h_coeffs: tuple = _ini("model", BURGERS_COEFFS[1])
    mass: float = _ini("geometry", 1.0, admits="[0, inf)")
    r_max: float = _ini("geometry", 12.0)
    cells: int = _ini("geometry", 200, admits=_CELLS)
    outer_boundary: str = _ini("geometry", "copy")
    flux: str = _ini("evolution", "godunov", admits=FLUX_KINDS)
    cfl_fraction: float = _ini("evolution", 0.9, admits="(0, 1]")
    t_end: float = _ini("evolution", 1.0, admits="(0, inf)")
    snapshot_every: int = _ini("evolution", 10, admits="[1, inf)")
    initial_kind: str = _ini("initial", "bump", "kind", ("constant", "riemann", "bump"))
    initial_constant: float = _ini("initial", 0.5, "constant", "[-1, 1]")
    initial_left: float = _ini("initial", 0.8, "left", "[-1, 1]")
    initial_right: float = _ini("initial", -0.4, "right", "[-1, 1]")
    initial_jump_r: float = _ini("initial", 7.0, "jump_r")
    initial_amplitude: float = _ini("initial", 0.5, "amplitude", "[-1, 1]")
    initial_center: float = _ini("initial", 6.0, "center")
    initial_width: float = _ini("initial", 1.0, "width", "(0, inf)")
    entropy_diagnostics: bool = _ini("diagnostics", False)
    kruzhkov_levels: tuple = _ini("diagnostics", DEFAULT_KRUZHKOV_LEVELS, admits="[-1, 1]")
    seed: int = _ini("run", 0, admits="[0, inf)")
    output_dir: str = _ini("run", "out")
    char_r0: float = _ini("characteristics", 8.0, "r0")
    char_u0: float = _ini("characteristics", 0.6, "u0", "[-1, 1]")
    char_ds: float = _ini("characteristics", 1e-3, "ds", "(0, inf)")
    char_s_max: float = _ini("characteristics", 5.0, "s_max", "(0, inf)")
    char_r_stop: float = _ini("characteristics", 120.0, "r_stop")
    coordinates: str = _ini("characteristics", "exterior", admits=("exterior", "interior"))
    interior_shift: float = _ini("characteristics", 0.5)
    steady_r0: float = _ini("steady", 4.0, "r0")
    steady_u0: float = _ini("steady", 0.9, "u0")
    converge_preset: str = _ini("converge", "smooth", "preset", PRESET_NAMES)
    converge_levels: int = _ini("converge", 4, "levels", "[3, 17]")  # 100 cells doubled 16 times are 6 553 600
    oracle_preset: str = _ini("oracle", "smooth", "preset", PRESET_NAMES)
    oracle_cells: int = _ini("oracle", 400, "cells", _CELLS)
    fuzz_trials: int = _ini("fuzz", 100, "trials", "[1, inf)")
    fuzz_tau_scale: float = _ini("fuzz", 1.0, "tau_scale", "(0, 1]")  # a step beyond the stability bound is refused

    def build_model(self) -> FluxModel:  # under model = burgers, _validate admits only Burgers' coefficients
        return polynomial_model(self.model, self.f_coeffs, self.h_coeffs)

    def outer_ghost(self) -> float | None:
        return None if self.outer_boundary == "copy" else float(self.outer_boundary.split(":", 1)[1])

    def build_v0(self):
        if self.initial_kind == "constant":
            return constant_data(self.initial_constant)
        if self.initial_kind == "riemann":
            return step_data(self.initial_left, self.initial_right, self.initial_jump_r)
        return bump_data(self.initial_amplitude, self.initial_center, self.initial_width)


# (section, key) -> (attribute, parser kind, admitted values), in declaration order;
# the annotations are strings here, and a tuple is a list of floats
_KEYS = {(f.metadata["section"], f.metadata["key"] or f.name):
         (f.name, "floats" if f.type == "tuple" else f.type, f.metadata["admits"]) for f in fields(RunConfig)}
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
            value = int(raw) if re.fullmatch(r"[+-]?\d+", raw) else _finite(raw)  # exact, not through a float
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
    """Refuse a value outside the set its key admits, in declaration order, then the checks no one
    key declares: the degree cap, Burgers' own coefficients under model = burgers, r_max > 2*mass,
    the form of outer_boundary and the nonzero clamp of steady.u0.  ConfigError names the key."""
    def fail(key: str, message: str):
        raise ConfigError(f"{key}: {message}")

    for (section, key), (attr, _, admits) in _KEYS.items():
        value = getattr(cfg, attr)
        for v in value if isinstance(value, tuple) else (value,):
            if admits is not None and not _admits(admits, v):
                fail(f"{section}.{key}", f"{v!r} is not in {admits}")
    for key, burgers in zip(("f_coeffs", "h_coeffs"), BURGERS_COEFFS):
        coeffs = _trimmed(getattr(cfg, key))  # trailing zeros do not count
        if len(coeffs) > MAX_DEGREE + 1:
            fail(f"model.{key}", f"polynomial degree must be <= {MAX_DEGREE}")
        if cfg.model == "burgers" and coeffs != burgers:
            fail(f"model.{key}", f"{getattr(cfg, key)} is not Burgers' {burgers}; set model = custom to use it")
    if not cfg.r_max > 2.0 * cfg.mass:
        fail("geometry.r_max", f"r_max must exceed 2*mass = {2 * cfg.mass}")
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
    if cfg.steady_u0 == 0.0 or not abs(cfg.steady_u0) <= 1.0 - FhatTable.epsilon:
        fail("steady.u0", f"u0 must be nonzero with |u0| <= 1 - {FhatTable.epsilon}, got {cfg.steady_u0}")


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
            attr, kind, _ = _KEYS[section, key]
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
        lines += [f"{key} = {_format_value(getattr(cfg, attr))}" for (_, key), (attr, _, _) in entries]
        lines.append("")
    return "\n".join(lines)
