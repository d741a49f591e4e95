"""Byte identity of the CLI artifacts against tests/golden/manifest.json.

A mismatch names every artifact that moved.  If the change was intended,
regenerate the manifest with tests/golden/regenerate.py and commit it."""

import json

import numpy as np

from golden.regenerate import MANIFEST, digests


def test_cli_artifacts_match_the_manifest(tmp_path, monkeypatch):
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["numpy"] == np.__version__, (
        f"manifest made under numpy {manifest['numpy']}, running {np.__version__}: regenerate it")
    monkeypatch.chdir(tmp_path)
    expected, actual = manifest["artifacts"], digests()
    moved = sorted(name for name in expected.keys() | actual.keys() if expected.get(name) != actual.get(name))
    assert not moved, f"artifacts differing from the manifest: {moved}"
