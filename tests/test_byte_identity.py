"""Byte identity of the CLI's files: the runs of ``tools/compare_cli.py``
(every command on its defaults and on the README examples, the quadrature
lines, three oracle runs, the sampled densities and the optimal-state scan)
against the SHA-256 digests of ``cli_manifest.json``.

The digests pin the arithmetic of the Python and numpy versions they were
written under (numpy's FFT and elementwise kernels shape the oracle's
bytes).  Under other versions the test runs and is reported as xfail,
naming both versions and the files that moved; it never passes there.
A change that moves bytes on purpose rewrites the manifest with
``python tools/compare_cli.py OUT --write-manifest``.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_cli.py"


def load_compare_cli():
    spec = importlib.util.spec_from_file_location("compare_cli", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_files_match_the_manifest(tmp_path):
    compare_cli = load_compare_cli()
    manifest = json.loads(compare_cli.MANIFEST.read_text())
    want = manifest.pop("files")
    compare_cli.write_runs(tmp_path)
    got = compare_cli.digests(tmp_path)
    moved = sorted(path for path in want.keys() | got.keys()
                   if got.get(path) != want.get(path))
    here = compare_cli.versions()
    if here != manifest:
        pytest.xfail(f"digests pinned under {manifest}, running under "
                     f"{here}; {len(moved)} files moved: {moved}")
    assert not moved, f"{len(moved)} files moved: {moved}"
