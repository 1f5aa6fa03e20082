"""Byte identity of the CLI artifacts against ``tests/golden/manifest.json``.

On the numpy version and machine the manifest was recorded on, every file's
sha256 must match; anywhere else the test compares file names, sizes, CSV
headers and row counts, and a JSON summary by its name alone. The test id names the mode that ran. After an
intended byte change, rerun ``tests/golden/regenerate.py`` and list the
manifest diff in CHANGES.md.
"""

import json
import platform

import numpy as np
import pytest

from golden.regenerate import MANIFEST, describe, run_config

RECORDED = json.loads(MANIFEST.read_text())
EXACT = (np.__version__, platform.machine()) == (RECORDED["numpy"], RECORDED["machine"])


def _portable(files: dict) -> dict:
    return {name: {k: v for k, v in entry.items() if k != "sha256"}
            for name, entry in files.items()}


@pytest.mark.parametrize("exact", [EXACT], ids=["sha256" if EXACT else "portable"])
def test_every_config_writes_the_recorded_files(exact, tmp_path):
    moved = []
    for config in RECORDED["configs"]:
        files = describe(run_config(config["name"], config["argv"], tmp_path), config["argv"])
        expected = config["files"]
        if not exact:
            files, expected = _portable(files), _portable(expected)
        moved += [f"{config['name']}/{name}" for name in sorted(files.keys() | expected.keys())
                  if files.get(name) != expected.get(name)]
    assert moved == [], f"files that differ from the manifest: {moved}"
