"""Run every gravclock command on a fixed list of configs, and compare the
files written with those of another checkout.

    python tools/compare_cli.py OUT
    python tools/compare_cli.py OUT --against REF [--expect PATTERN ...]
    python tools/compare_cli.py OUT --write-manifest

Run it from anywhere: it imports gravclock from the ``src/`` of the
checkout it sits in.  To get the files of a checkout that predates this
script, copy the script into that checkout's ``tools/`` and run it there.

Each run of ``RUNS`` writes its command's files into ``OUT/<run>/``, plus
``console.txt``: the exit status (an argparse ``SystemExit`` included),
stdout and stderr.  The runs are the defaults (all seven commands on an
empty config), the README examples, a ``spectrum`` with ``"method":
"quadrature"`` at desk scale (r = 1e3) and at Earth scale (the defaults),
``oracle`` runs with flat and tilted couplings and at r = 1e4, and two
mixture states, one in zeta form at Earth scale and one in meter form at
desk scale, each through ``spectrum`` (Voigt and quadrature), ``survival``
and ``tcoh``.  The runs of ``ARGV_RUNS`` pin how the CLI reads its flags
and refuses what it cannot read: flags argparse reads in other spellings or
refuses, config files that are missing, not files, not UTF-8 or not JSON,
an unknown key, a missing output directory and a state at the horizon.
Consoles write the run's temporary directory as ``<TMP>`` and its output
directory as ``<OUT>``, so that their bytes do not depend on where the runs
are made.  Every CLI density is analytic, so the library runs of
``SAMPLED`` cover the sampled-density paths: each pdf callable is built
with ``HeightDensity.from_callable`` and writes a line at r = 1e3
(``spectrum.csv``), a survival curve (``survival.csv``) and its
``total_rate`` (``rate.json``) into ``OUT/sampled_<name>/`` through
``gravclock.serialize``.  No command runs ``optimal_state_scan`` either, so
its result at delta_zeta = 0.01 goes to ``OUT/optimal_state/scan.json``.
All of them take a few seconds.

With ``--against REF`` every file under OUT or REF is reported as
``identical`` (same bytes) or with the largest absolute and relative
difference of its numbers; text outside the numbers must match.  The
relative difference of two numbers is |a - b| / max(|a|, |b|).  The exit
status is 1 if any file differs, or is on one side only, unless its path
below OUT matches one of the ``--expect`` glob patterns (for example
``'spectrum_quadrature_*/spectrum.csv'``), and 0 otherwise.

``--write-manifest`` rewrites ``tests/cli_manifest.json``: the SHA-256 of
every file written, with the Python and numpy versions and numpy's CPU
dispatch targets they were written under.  ``tests/test_byte_identity.py``
writes the same runs and holds their digests to it.
"""
from __future__ import annotations

import argparse
import contextlib
import fnmatch
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import gravclock as gc  # noqa: E402
from gravclock import cli, serialize  # noqa: E402

MANIFEST = Path(__file__).resolve().parents[1] / "tests" / "cli_manifest.json"

COMMANDS = ("rate", "spectrum", "survival", "oracle", "sweep", "figures",
            "tcoh")

# r = omega / gamma0 = 1e3, with a packet pair a few linewidths apart there
_DESK = {"params": {"omega_rad_s": 1e9, "gamma0_s": 1e6},
         "state": {"zeta1": 0.0, "zeta2": 2e-3, "delta_zeta": 1e-3,
                   "theta_rad": 0.392699, "phi_rad": 0.0}}

# mixture states: zeta form at Earth scale, and meter form at r = 1e3 with
# c = 1e3 m/s, where 200 m is zeta ~ 2e-3
_MIXTURES = {
    "zeta": {"state": {"zeta1": 0.0, "zeta2": 0.02, "delta_zeta": 0.01,
                       "theta_rad": 0.3, "kind": "mixture"}},
    "meter_desk": {"params": {"omega_rad_s": 1e9, "gamma0_s": 1e6,
                              "c": 1e3},
                   "state": {"z1_m": 0.0, "z2_m": 200.0, "delta_m": 100.0,
                             "theta_rad": 0.392699, "kind": "mixture"}},
}

RUNS = (
    *((f"default_{command}", command, {}) for command in COMMANDS),
    ("readme_oracle", "oracle", {"oracle": {"zeta": 0.5, "r": 1000.0}}),
    ("spectrum_quadrature_earth", "spectrum",
     {"spectrum": {"method": "quadrature"}}),
    ("spectrum_quadrature_desk", "spectrum",
     {**_DESK, "spectrum": {"method": "quadrature"}}),
    ("oracle_tilted", "oracle", {"oracle": {"coupling": "tilted"}}),
    # 52001 modes and 19864 samples: the longest sums of any run
    ("oracle_r1e4", "oracle", {"oracle": {"zeta": 0.3, "r": 1e4}}),
    *((f"mixture_{form}_{name}", command, {**config, **extra})
      for form, config in _MIXTURES.items()
      for name, command, extra in (
          ("spectrum", "spectrum", {}),
          ("spectrum_quadrature", "spectrum",
           {"spectrum": {"method": "quadrature"}}),
          ("survival", "survival", {}), ("tcoh", "tcoh", {}))),
)


# name, argv and the bytes of its config file (None: none is written), for
# runs that are not "COMMAND --config CFG --out OUT" on a valid config.  In
# argv, {cfg} is the config file's path, {tmp} the temporary directory that
# holds it and {out} the run's output directory.
_CFG, _OUT = ["--config", "{cfg}"], ["--out", "{out}"]
ARGV_RUNS = (
    ("argv_unknown_flag", ["rate", "--quad-order", "80", *_CFG, *_OUT], b"{}"),
    ("argv_abbreviated_flag", ["rate", "--conf", "{cfg}", *_OUT], b"{}"),
    ("argv_config_equals", ["rate", "--config={cfg}", *_OUT], b"{}"),
    ("config_missing", ["rate", *_CFG, *_OUT], None),
    ("config_directory", ["rate", "--config", "{tmp}", *_OUT], None),
    ("config_invalid_json", ["rate", *_CFG, *_OUT], b"{not json"),
    ("config_not_utf8", ["rate", *_CFG, *_OUT], b'\xff\xfe{"a": 1'),
    ("config_unknown_key", ["rate", *_CFG, *_OUT], b'{"frobnicate": 1}'),
    ("out_missing", ["rate", *_CFG, "--out", "{tmp}/absent"], b"{}"),
    ("state_at_horizon", ["survival", *_CFG, *_OUT],
     b'{"state": {"zeta1": -0.9, "zeta2": 0.0, "delta_zeta": 0.01}}'),
)


def _two_packets(z):
    """Packets of weights 0.35 and 0.65 at -1e-3 and 2e-3, width 8e-4."""
    q = (np.asarray(z, dtype=float)[..., None] - [-1e-3, 2e-3]) / 8e-4
    return np.exp(-q * q) @ [0.35, 0.65] / (np.sqrt(np.pi) * 8e-4)


def _top_hat(z):
    return np.full(np.shape(z), 1.0 / 7e-3)


# name, pdf callable, support; r = 1e3 for the lines
SAMPLED = (
    ("two_packets", _two_packets, (-1e-3 - 12 * 8e-4, 2e-3 + 12 * 8e-4)),
    ("top_hat", _top_hat, (-3e-3, 4e-3)),
)


def run_sampled(out: Path) -> None:
    """Write the line, survival curve and total rate of every SAMPLED pdf
    into out/sampled_<name>/."""
    r = 1e3
    for name, pdf, (lo, hi) in SAMPLED:
        run_dir = out / f"sampled_{name}"
        run_dir.mkdir(parents=True, exist_ok=True)
        density = gc.HeightDensity.from_callable(pdf, (lo, hi))
        nu = np.linspace(r * lo - 10.0, r * hi + 10.0, 121)
        serialize.write_csv(run_dir / "spectrum.csv", "nu,p",
                            [nu, gc.spectrum(density, nu, r).p_values])
        s = np.linspace(0.0, 6.0, 61)
        serialize.write_csv(run_dir / "survival.csv", "s,p",
                            [s, gc.survival_probability(density, s)])
        serialize.dump_json(run_dir / "rate.json",
                            {"total_rate": gc.total_rate(density)})
        print(f"sampled_{name}: written", flush=True)


def run_scan(out: Path) -> None:
    """Write optimal_state_scan(0.01) into out/optimal_state/scan.json."""
    run_dir = out / "optimal_state"
    run_dir.mkdir(parents=True, exist_ok=True)
    serialize.dump_json(run_dir / "scan.json", gc.optimal_state_scan(0.01))
    print("optimal_state: written", flush=True)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _runs():
    """(name, argv, config bytes) of every run of RUNS and ARGV_RUNS."""
    for name, command, config in RUNS:
        yield name, [command, *_CFG, *_OUT], json.dumps(config).encode()
    yield from ARGV_RUNS


def run_all(out: Path) -> None:
    """Write the files of every run into out/<run>/."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, config in _runs():
            run_dir = out / name
            run_dir.mkdir(parents=True, exist_ok=True)
            cfg = Path(tmp) / f"{name}.json"
            if config is not None:
                cfg.write_bytes(config)
            argv = [a.format(cfg=cfg, tmp=tmp, out=run_dir) for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            # argparse wraps its usage text to the terminal's width
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr), \
                    mock.patch.dict(os.environ, COLUMNS="80"):
                try:
                    status = cli.main(argv)
                except SystemExit as exc:
                    status = exc.code
            console = (f"exit {status}\n--- stdout\n{stdout.getvalue()}"
                       f"--- stderr\n{stderr.getvalue()}")
            (run_dir / "console.txt").write_text(
                console.replace(str(run_dir), "<OUT>").replace(tmp, "<TMP>"))
            print(f"{name}: exit {status}", flush=True)


def write_runs(out: Path) -> None:
    """Write the files of every run, sampled run and the scan into out."""
    run_all(out)
    run_sampled(out)
    run_scan(out)


def digests(out: Path) -> dict[str, str]:
    """The SHA-256 of every file below out, by its path below out."""
    return {p.relative_to(out).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def versions() -> dict:
    """The Python and numpy versions whose arithmetic the digests pin, and
    the CPU dispatch targets numpy enabled at import (its elementwise
    kernels differ in their last bits between them)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_dispatch": [target for target in umath.__cpu_dispatch__
                             if umath.__cpu_features__.get(target)]}


def difference(got: bytes, want: bytes) -> str | None:
    """None for identical bytes, else a one-line account of the change."""
    if got == want:
        return None
    got_text, want_text = got.decode(), want.decode()
    if _NUMBER.split(got_text) != _NUMBER.split(want_text):
        return "text differs outside its numbers"
    pairs = [(float(a), float(b)) for a, b in
             zip(_NUMBER.findall(got_text), _NUMBER.findall(want_text))]
    abs_diff = max(abs(a - b) for a, b in pairs)
    rel_diff = max(abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
                   for a, b in pairs)
    return (f"max abs diff {abs_diff:.3e}, max rel diff {rel_diff:.3e} "
            f"over {len(pairs)} numbers")


def compare(out: Path, ref: Path, expected: list[str]) -> int:
    """Report every file of out against ref; 1 on an unexpected change."""
    paths = sorted({p.relative_to(root).as_posix()
                    for root in (out, ref) for p in root.rglob("*")
                    if p.is_file()})
    status = 0
    for path in paths:
        mine, theirs = out / path, ref / path
        if not (mine.is_file() and theirs.is_file()):
            change = f"only in {out if mine.is_file() else ref}"
        else:
            change = difference(mine.read_bytes(), theirs.read_bytes())
        allowed = any(fnmatch.fnmatch(path, p) for p in expected)
        if change is None:
            print(f"{path}: identical")
        else:
            print(f"{path}: {change}"
                  + (" (expected)" if allowed else " (UNEXPECTED)"))
            status |= not allowed
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory for this run")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="compare with the files of an earlier run")
    parser.add_argument("--expect", action="append", default=[],
                        metavar="PATTERN",
                        help="glob of files below OUT allowed to differ")
    parser.add_argument("--write-manifest", action="store_true",
                        help=f"rewrite {MANIFEST.name} from this run")
    args = parser.parse_args(argv)
    write_runs(args.out)
    if args.write_manifest:
        MANIFEST.write_text(json.dumps({**versions(),
                                        "files": digests(args.out)},
                                       indent=1) + "\n")
    if args.against is None:
        return 0
    return compare(args.out, args.against, args.expect)


if __name__ == "__main__":
    sys.exit(main())
