"""Byte-identity manifest of a fixed set of small CLI runs.

``RUNS`` names each run with its subcommand and config.  ``digests`` runs
them all in the current directory and returns the sha256 of every
artifact, keyed "<run>/<file>".  The manifest next to this file stores
those digests with the numpy version they were made under, and
tests/test_golden_manifest.py reruns the set and compares.

A change that moves output on purpose rewrites the manifest, so its diff
names exactly the artifacts that moved:

    PYTHONPATH=src python tests/golden/regenerate.py

Before it writes, the script prints one line per artifact whose digest was
added, removed or changed against the manifest it replaces.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from horizonfv.cli import main as horizonfv_main

MANIFEST = Path(__file__).with_name("manifest.json")

_QUARTIC = {"model": "custom", "f_coeffs": "-0.5, 0, 0, 0, 0.5", "h_coeffs": "0"}
# f = s**2/2, h = 0: f + h vanishes at 0 and is positive elsewhere
_INADMISSIBLE = {"model": "custom", "f_coeffs": "0, 0, 0.5", "h_coeffs": "0"}


def _config(name: str, **sections: dict) -> str:
    """INI text: the required keys, the given sections on top, output into name/."""
    merged = {"geometry": {"mass": "1", "r_max": "12", "cells": "50"}, "evolution": {"t_end": "0.1"},
              "run": {"output_dir": name}}
    for section, keys in sections.items():
        merged[section] = {**merged.get(section, {}), **keys}
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in merged.items())


def _runs() -> dict[str, tuple[str, str]]:
    runs = {}
    for flux in ("godunov", "eo", "rusanov"):
        for ghost in ("copy", "fixed:-0.5"):
            for mass in ("0", "1"):
                name = f"run-{flux}-{ghost.split(':')[0]}-m{mass}"
                runs[name] = ("run", _config(
                    name, geometry={"mass": mass, "cells": "40", "outer_boundary": ghost},
                    evolution={"flux": flux, "t_end": "0.5"}, initial={"kind": "riemann"},
                    diagnostics={"entropy_diagnostics": "true"}))
    for model, keys in (("burgers", {"model": "burgers"}), ("quartic", _QUARTIC)):
        for command in ("steady", "steady-drift", "characteristics"):
            name = f"{command}-{model}"
            runs[name] = (command, _config(name, model=keys, characteristics={"s_max": "1.0"}))
    runs["oracle-smooth"] = ("oracle", _config("oracle-smooth", oracle={"preset": "smooth", "cells": "100"}))
    runs["oracle-quartic"] = ("oracle", _config("oracle-quartic", model=_QUARTIC,
                                                oracle={"preset": "smooth", "cells": "100"}))
    runs["converge-smooth"] = ("converge", _config("converge-smooth",
                                                   converge={"preset": "smooth", "levels": "3"}))
    runs["converge-quartic"] = ("converge", _config("converge-quartic", model=_QUARTIC,
                                                    converge={"preset": "smooth", "levels": "3"}))
    runs["fuzz-seed42"] = ("fuzz", _config("fuzz-seed42", fuzz={"trials": "8"}, run={"seed": "42"}))
    runs["fuzz-quartic"] = ("fuzz", _config("fuzz-quartic", model=_QUARTIC, fuzz={"trials": "3"}, run={"seed": "42"}))
    runs["check-model-inadmissible"] = ("check-model",
                                        _config("check-model-inadmissible", model=_INADMISSIBLE))
    return runs


RUNS = _runs()


def digests() -> dict[str, str]:
    """Run every entry of RUNS below the current directory; sha256 per artifact."""
    out = {}
    for name, (command, body) in RUNS.items():
        config = Path(f"{name}.ini")
        config.write_text(body)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            horizonfv_main([command, str(config)])
        for path in sorted(Path(name).iterdir()):
            out[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def moved(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """"added", "removed" or "changed" and the artifact name, for every
    artifact whose digest differs between two digest maps, sorted by name."""
    out = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old:
            out.append(f"added {name}")
        elif name not in new:
            out.append(f"removed {name}")
        elif old[name] != new[name]:
            out.append(f"changed {name}")
    return out


def main() -> None:
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            artifacts = digests()
        finally:
            os.chdir(here)
    for line in moved(json.loads(MANIFEST.read_text())["artifacts"] if MANIFEST.exists() else {}, artifacts):
        sys.stdout.write(line + "\n")
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "artifacts": artifacts}, indent=2) + "\n")
    sys.stdout.write(f"wrote {len(artifacts)} digests to {MANIFEST}\n")


if __name__ == "__main__":
    main()
