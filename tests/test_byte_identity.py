"""Byte identity of the CLI's files: the runs of ``tools/compare_cli.py``
(every command on its defaults and on the README examples, the quadrature
lines, three oracle runs, the CLI's refusals and other flag spellings, the
sampled densities and the optimal-state scan) against the SHA-256 digests
of ``cli_manifest.json``.

The digests pin the arithmetic of the Python and numpy versions they were
written under and of the CPU dispatch targets numpy enabled there (numpy's
FFT and elementwise kernels shape the oracle's bytes, and its exp every
Gaussian's last bit).  Under other versions or targets the test runs and
is reported as xfail, naming both and the files that moved; it never
passes there.  A change that moves bytes on purpose rewrites the manifest
with ``python tools/compare_cli.py OUT --write-manifest``.
"""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_cli.py"


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


def test_other_cpu_dispatch_xfails():
    """Under numpy's AVX2-level dispatch (``NPY_ENABLE_CPU_FEATURES=X86_V3``)
    the files move in their last bits on a host with wider targets; with
    the versions unchanged, the manifest test reports xfail there, not a
    failure."""
    env = {**os.environ, "NPY_ENABLE_CPU_FEATURES": "X86_V3"}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True)
    if probe.returncode:
        pytest.skip("this CPU cannot run numpy's X86_V3 dispatch")
    manifest = json.loads(load_compare_cli().MANIFEST.read_text())
    if manifest["cpu_dispatch"] == ["X86_V3"]:
        pytest.skip("the manifest was written under X86_V3 dispatch")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-rx",
         f"{__file__}::test_cli_files_match_the_manifest"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "1 xfailed" in result.stdout, result.stdout
    assert "cpu_dispatch" in result.stdout
