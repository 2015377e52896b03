"""Command-line front end: deterministic table/JSON writers over the library.

Exit codes: 0 success, 2 configuration problems (always naming the offending
field), 3 integration/accuracy failures and non-finite results (naming the
field).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import analytic, experiments, numerics, serialize
from .model import (C_LIGHT, HBAR, STANDARD_GRAVITY, ConfigurationError,
                    DimensionlessScales, HeightDensity, HorizonError,
                    MixtureSpec, SuperpositionSpec, gamma0_from_dipole)

# The default parameters, used where a config has no ``params``: Earth's
# gravity and the 267.4 nm intercombination line of the aluminium ion, whose
# decay rate follows from the pinned ratio r = Omega/Gamma0 = 1.5e17.
_EARTH_R = 1.5e17
_EARTH_OMEGA = 7.045e15
_EARTH = DimensionlessScales(g=STANDARD_GRAVITY, c=C_LIGHT,
                             omega=_EARTH_OMEGA,
                             gamma0=_EARTH_OMEGA / _EARTH_R)

_DEFAULT_STATE = {"zeta1": 0.0, "zeta2": 0.02, "delta_zeta": 0.01,
                  "theta_rad": math.pi / 8, "phi_rad": 0.0,
                  "kind": "superposition"}

_REQUIRED = object()


def _bad(path: str, message: str):
    raise ConfigurationError(f"{path}: {message}")


@dataclass(frozen=True)
class _Key:
    """One config key: its default and the values it accepts.

    The default's type sets the kind: a string (or ``options``) takes a
    string, an int an integer, anything else a finite number within the
    bounds.  A default of None means "derive it from the rest of the run"
    and admits an explicit null; ``nullable`` admits null beside a default.
    """

    default: object = None
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    options: tuple[str, ...] = ()
    nullable: bool = False

    def check(self, path: str, value):
        """``value`` if this key accepts it; else ConfigurationError."""
        lo, hi = self.lo, self.hi
        if value is None and (self.default is None or self.nullable):
            return None
        if self.options:
            if value not in self.options:
                _bad(path, f"must be one of {'|'.join(self.options)}, "
                           f"got {value!r}")
        elif isinstance(self.default, str):
            if not isinstance(value, str):
                _bad(path, "must be a string")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            _bad(path, "must be a number")
        elif isinstance(self.default, int) and not isinstance(value, int):
            _bad(path, "must be an integer")
        elif not -sys.float_info.max <= value <= sys.float_info.max:
            # exact for any int, false for nan
            _bad(path, "must be finite and within float range")
        elif lo is not None and (value <= lo if self.lo_open else value < lo):
            _bad(path, f"must be {'>' if self.lo_open else '>='} {lo}")
        elif hi is not None and value > hi:
            _bad(path, f"must be <= {hi}")
        return value


_POSITIVE = dict(lo=0.0, lo_open=True)

# Every config key and its default.  Top-level entries are keys; nested
# dicts are sections.  ``params`` and ``state`` have no defaults section of
# their own (_EARTH and _DEFAULT_STATE stand in); their tables follow.
CONFIG_SCHEMA = {
    "out": _Key("."),
    "rate": {
        "method": _Key("closed-form", options=("closed-form", "quadrature")),
    },
    "spectrum": {
        # null bounds: a window centred on the line, see _line_window
        "nu_min": _Key(None),
        "nu_max": _Key(None),
        "n_points": _Key(4001, lo=2),
        "method": _Key("auto", options=("auto", "quadrature")),
    },
    "survival": {
        "s_max": _Key(5.0, **_POSITIVE),
        "n_points": _Key(101, lo=2),
    },
    "oracle": {
        "zeta": _Key(0.25, lo=-1.0, lo_open=True),   # above the horizon
        "r": _Key(1e3, **_POSITIVE),
        "halfwidth_linewidths": _Key(None, **_POSITIVE),
        "dnu": _Key(None, hi=0.05, **_POSITIVE),
        "s_max": _Key(12.0, **_POSITIVE),
        "coupling": _Key("flat", options=("flat", "tilted")),
        # null compares over the whole run
        "compare_up_to": _Key(5.0, nullable=True, **_POSITIVE),
    },
    "sweep": {
        "panel": _Key("b", options=("a", "b", "c")),
        "n_grid": _Key(201, lo=2),
        "delta_zeta": _Key(0.01, **_POSITIVE),
    },
    "figures": {
        "n_grid": _Key(201, lo=2),
        "n_nu": _Key(4001, lo=2),
    },
    "tcoh": {
        # null spread, velocity spread and z2 follow from the reference
        # separation zeta = 1e-18 and the minimum-uncertainty relation
        "sigma_z_m": _Key(None, **_POSITIVE),
        "sigma_v_m_s": _Key(None, **_POSITIVE),
        "p_bar": _Key(0.0),
        "alpha_w": _Key(math.cos(math.pi / 8) ** 2, lo=0.0, hi=1.0),
        "phi_rad": _Key(0.0),
        "t_s": _Key(1e-8, lo=0.0),
        "mass_kg": _Key(1e-27, **_POSITIVE),
        "z1_m": _Key(0.0),
        "z2_m": _Key(None),
    },
}

_PARAMS = {
    "g": _Key(STANDARD_GRAVITY, **_POSITIVE),
    "c": _Key(C_LIGHT, **_POSITIVE),
    "omega_rad_s": _Key(_REQUIRED, **_POSITIVE),
    # exactly one of these two; the other is derived
    "gamma0_s": _Key(None, **_POSITIVE),
    "dipole_Cm": _Key(None, **_POSITIVE),
}

_THETA = dict(lo=0.0, hi=math.pi / 2)
# phi in [0, 2 pi): the largest float below 2 pi is the last one admitted
_PHI = dict(lo=0.0, hi=math.nextafter(2.0 * math.pi, 0.0))
_KIND = _Key("superposition", options=("superposition", "mixture"))

_ZETA_PACKET = ("zeta1", "zeta2", "delta_zeta")
_METER_PACKET = ("z1_m", "z2_m", "delta_m")

_ZETA_STATE = {
    "zeta1": _Key(_REQUIRED),
    "zeta2": _Key(_REQUIRED),
    "delta_zeta": _Key(_REQUIRED, **_POSITIVE),
    "theta_rad": _Key(0.0, **_THETA),
    "phi_rad": _Key(0.0, **_PHI),
    "kind": _KIND,
}

_METER_STATE = {
    "z1_m": _Key(_REQUIRED),
    "z2_m": _Key(_REQUIRED),
    "delta_m": _Key(_REQUIRED, **_POSITIVE),
    "theta_rad": _Key(_REQUIRED, **_THETA),
    "phi_rad": _Key(_REQUIRED, **_PHI),
    "kind": _KIND,
}


def _merge(path: str, sec, table: dict) -> dict:
    """``sec`` checked against ``table`` and completed with its defaults."""
    if not isinstance(sec, dict):
        _bad(path, "must be an object")
    for key in sec:
        if key not in table:
            _bad(f"{path}.{key}", "unknown config key")
    out = {}
    for key, spec in table.items():
        if key in sec:
            out[key] = spec.check(f"{path}.{key}", sec[key])
        elif spec.default is _REQUIRED:
            _bad(f"{path}.{key}", "is required")
        else:
            out[key] = spec.default
    return out


def _check_window(nu_min: float, nu_max: float) -> None:
    if not nu_max > nu_min:
        _bad("spectrum.nu_max", "must exceed spectrum.nu_min")


def _merge_state(sec) -> dict:
    """A state section, zeta or meter form, checked and completed; a
    mixture drops ``phi_rad``."""
    if not isinstance(sec, dict):
        _bad("state", "must be an object")
    has_m = any(k in sec for k in _METER_PACKET)
    has_z = any(k in sec for k in _ZETA_PACKET)
    if has_m and has_z:
        _bad("state", "mixes meter and zeta coordinate keys")
    if not has_m and not has_z:
        _bad("state", "needs z1_m/z2_m/delta_m or zeta1/zeta2/delta_zeta")
    table = _ZETA_STATE if has_z else _METER_STATE
    if sec.get("kind") == "mixture":
        if sec.get("phi_rad") is not None:
            _bad("state.phi_rad", "mixture state takes no phi_rad")
        sec = {k: v for k, v in sec.items() if k != "phi_rad"}
        table = {k: v for k, v in table.items() if k != "phi_rad"}
    return _merge("state", sec, table)


def _scales(sec: dict) -> DimensionlessScales:
    """The scales of a checked ``params`` section, Gamma0 derived from
    ``dipole_Cm`` where that is the key given."""
    g, c, omega = (float(sec[k]) for k in ("g", "c", "omega_rad_s"))
    gamma0, dipole = sec["gamma0_s"], sec["dipole_Cm"]
    if gamma0 is None and dipole is None:
        _bad("params", "one of gamma0_s or dipole_Cm is required")
    if gamma0 is not None and dipole is not None:
        _bad("params", "gamma0_s and dipole_Cm are mutually exclusive")
    if gamma0 is None:
        gamma0 = gamma0_from_dipole(float(dipole), omega, c=c)
        if gamma0 == 0.0:
            _bad("params.dipole_Cm", "too small: the derived gamma0_s "
                                     "underflows to 0")
    gamma0 = float(gamma0)
    if omega / gamma0 < 1.0:
        _bad("params", f"omega_rad_s/gamma0_s = {omega / gamma0:.3g} < 1; "
                       "the emitter must be underdamped for the line-shape "
                       "treatment to make sense")
    try:
        return DimensionlessScales(g=g, c=c, omega=omega, gamma0=gamma0)
    except ConfigurationError as exc:
        _bad("params", str(exc))


def validate_config(cfg: dict) -> dict:
    """Check a config against CONFIG_SCHEMA and the params and state tables
    and return it completed with their defaults (and the reference state);
    raises ConfigurationError naming the offending field.  The rules that
    join several keys are checked where :class:`_Env` resolves them."""
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    for key in cfg:
        if key not in CONFIG_SCHEMA and key not in ("params", "state"):
            _bad(str(key), "unknown config key")
    merged = {}
    if "params" in cfg:
        merged["params"] = _merge("params", cfg["params"], _PARAMS)
    merged["state"] = _merge_state(cfg.get("state", _DEFAULT_STATE))
    for name, spec in CONFIG_SCHEMA.items():
        if isinstance(spec, _Key):
            merged[name] = spec.check(name, cfg[name]) if name in cfg \
                else spec.default
        else:
            merged[name] = _merge(name, cfg.get(name, {}), spec)
    window = merged["spectrum"]["nu_min"], merged["spectrum"]["nu_max"]
    if None not in window:
        _check_window(*window)
    return merged


def _check_zeta_range(scales: DimensionlessScales, packet: list) -> None:
    """Refuse a meter-form packet that leaves float range in zeta units: a
    height that converts to inf, or a spread whose square there is 0 or inf
    (the closed forms divide by it)."""
    with np.errstate(over="ignore", under="ignore"):
        zetas = [float(scales.zeta(x)) for x in packet]
    for key, x, z in zip(_METER_PACKET, packet, zetas):
        spread = key == "delta_m"
        if not (0.0 < z * z < math.inf if spread else math.isfinite(z)):
            _bad(f"state.{key}", f"the packet leaves float range in zeta "
                                 f"units under these params: {x!r} m is "
                                 f"{z!r} in zeta"
                                 + (f", squared {z * z!r}" if spread else ""))


class _Env:
    """Everything a command needs, resolved from config + flags."""

    def __init__(self, cfg: dict, args: argparse.Namespace):
        self.cfg = cfg
        self.scales = _scales(cfg["params"]) if "params" in cfg else _EARTH
        sec = cfg["state"]
        if "zeta1" in sec:
            packet = [self.scales.height_m(sec[k]) for k in _ZETA_PACKET]
        else:
            packet = [sec[k] for k in _METER_PACKET]
        z1, z2, delta, theta = (float(x) for x in (*packet, sec["theta_rad"]))
        try:
            if sec["kind"] == "mixture":
                self.spec = MixtureSpec(z1=z1, z2=z2, delta=delta,
                                        theta=theta)
            else:
                self.spec = SuperpositionSpec(z1=z1, z2=z2, delta=delta,
                                              theta=theta,
                                              phi=float(sec["phi_rad"]))
        except ConfigurationError as exc:
            _bad("state", str(exc))
        if "zeta1" not in sec:
            _check_zeta_range(self.scales, packet)
        # The horizon rule lives in HeightDensity.  Building the density
        # here, once the params have set the scales, applies it to both
        # state forms on every command.
        build = HeightDensity.mixture if sec["kind"] == "mixture" \
            else HeightDensity.superposition
        try:
            self.density = build(self.spec, self.scales)
        except (ConfigurationError, HorizonError) as exc:
            _bad("state", str(exc))
        self.out = self._resolve_out(cfg, args)

    @staticmethod
    def _resolve_out(cfg: dict, args) -> Path:
        out = Path(args.out or cfg["out"])
        if not out.is_dir():
            raise ConfigurationError(
                f"out: output directory {str(out)!r} does not exist")
        if not os.access(out, os.W_OK):
            raise ConfigurationError(
                f"out: output directory {str(out)!r} is not writable")
        return out


def cmd_rate(env: _Env) -> int:
    spec = env.spec
    if not isinstance(spec, SuperpositionSpec):
        raise ConfigurationError(
            "state.kind: rate needs a superposition state (the mixture is "
            "derived from it)")
    result = analytic.decay_rates(spec, env.scales,
                                  method=env.cfg["rate"]["method"])
    serialize.dump_json(env.out / "rate.json", result.to_dict())
    print(format(result.gammaQ_inv, ".11e"))
    return 0


def _line_window(density: HeightDensity, r: float) -> tuple[float, float]:
    """Window centred on the mean line shift r<zeta>, wide enough for six
    packet widths and half the packet separation in line shift, plus 20
    natural linewidths of tail."""
    center = r * density.mean()
    half = (6.0 * r * density.width
            + 0.5 * r * (max(density.centers) - min(density.centers)) + 20.0)
    return center - half, center + half


def cmd_spectrum(env: _Env) -> int:
    sec = env.cfg["spectrum"]
    density = env.density
    nu_min, nu_max = sec["nu_min"], sec["nu_max"]
    if nu_min is None or nu_max is None:
        lo, hi = _line_window(density, env.scales.r)
        nu_min = lo if nu_min is None else nu_min
        nu_max = hi if nu_max is None else nu_max
        _check_window(nu_min, nu_max)
    grid = np.linspace(nu_min, nu_max, sec["n_points"])
    result = analytic.spectrum(density, grid, env.scales.r,
                               method=sec["method"])
    serialize.write_csv(env.out / "spectrum.csv", "nu,p",
                        [result.nu_grid, result.p_values])
    if result.low_mass:
        print(f"warning: frequency window captures only "
              f"{result.total_mass:.4f} of the line mass; widen nu_min/nu_max",
              file=sys.stderr)
    return 0


def cmd_survival(env: _Env) -> int:
    sec = env.cfg["survival"]
    s = np.linspace(0.0, sec["s_max"], sec["n_points"])
    p = analytic.survival_probability(env.density, s)
    serialize.write_csv(env.out / "survival.csv", "s,p", [s, p])
    return 0


def cmd_oracle(env: _Env) -> int:
    sec = env.cfg["oracle"]
    zeta, r = sec["zeta"], sec["r"]
    # the window and the coupling are refused here, before the solve, so
    # that the message names the key at fault
    try:
        grid = numerics.ModeGrid.for_line(
            zeta, r, halfwidth_linewidths=sec["halfwidth_linewidths"],
            dnu=sec["dnu"])
        grid.require_contains(zeta, r)
    except ConfigurationError as exc:
        _bad("oracle.halfwidth_linewidths", str(exc))
    try:
        numerics._coupling_line(sec["coupling"], grid, r * zeta, 1.0 + zeta,
                                r)
    except ConfigurationError as exc:
        _bad("oracle.coupling", str(exc))
    run = numerics.ww_simulate(zeta, r, grid, sec["s_max"],
                               coupling=sec["coupling"])
    deviation, s_cap, truncated = run.single_pole_deviation(
        sec["compare_up_to"])
    # the summary goes first: it is the file a run too short to fit fails on
    serialize.dump_json(env.out / "oracle_summary.json", {
        "zeta": zeta, "r": r, "fitted_rate": run.fitted_rate,
        "fit_residual": run.fit_residual,
        "max_deviation_single_pole": deviation})
    serialize.write_csv(env.out / "oracle_trajectory.csv", "s,alpha_sq",
                        [run.times, run.alpha_sq])
    serialize.write_csv(env.out / "oracle_modes.csv", "nu,beta_sq",
                        [grid.nus, run.beta_sq_final])
    note = " (comparison truncated at the comb recurrence)" \
        if truncated else ""
    print(f"fitted rate {run.fitted_rate:.6f} vs local rate "
          f"{1.0 + zeta:.6f}; max deviation {deviation:.3%} up to "
          f"s={s_cap:g}{note}")
    return 0


def _write_sweep(path: Path, spec: experiments.SweepSpec) -> None:
    gammaq = experiments.figure1_grid(spec)[-1]
    serialize.write_csv(path, "theta,phi,dz,gammaQ_inv", [gammaq.ravel()],
                        axes=(spec.theta_values, spec.phi_values,
                              spec.dz_values))


def cmd_sweep(env: _Env) -> int:
    sec = env.cfg["sweep"]
    panels = experiments.figure1_default_panels(
        n_grid=sec["n_grid"], delta_zeta=sec["delta_zeta"])
    _write_sweep(env.out / "sweep.csv", panels[sec["panel"]])
    return 0


def cmd_figures(env: _Env) -> int:
    sec = env.cfg["figures"]
    panels = experiments.figure1_default_panels(n_grid=sec["n_grid"])
    for name, spec in panels.items():
        _write_sweep(env.out / f"figure1_{name}.csv", spec)
    cases = experiments.figure2_default_cases(n_points=sec["n_nu"])
    for name, case in cases.items():
        res_sup, res_mix = experiments.figure2_lines(case)
        serialize.write_csv(env.out / f"figure2_{name}.csv", "nu,p_sup,p_cl",
                            [case.nu_grid, res_sup.p_values,
                             res_mix.p_values])
    return 0


def cmd_tcoh(env: _Env) -> int:
    sec = env.cfg["tcoh"]
    g, c = env.scales.g, env.scales.c
    sigma_z = sec["sigma_z_m"]
    if sigma_z is None:
        sigma_z = 1e-18 * c**2 / g
    mass = sec["mass_kg"]
    sigma_v = sec["sigma_v_m_s"]
    if sigma_v is None:
        # inf, as in IEEE arithmetic, where mass * sigma_z underflows
        sigma_v = HBAR / (mass * sigma_z) if mass * sigma_z else math.inf
    z1 = sec["z1_m"]
    z2 = z1 + sigma_z if sec["z2_m"] is None else sec["z2_m"]
    try:
        kp = analytic.KhandelwalParams(
            sigma_z=sigma_z, sigma_v=sigma_v, p_bar=sec["p_bar"],
            alpha_w=sec["alpha_w"], phi=sec["phi_rad"], t=sec["t_s"],
            m=mass)
        full = analytic.khandelwal_tcoh_full(kp, z1, z2, g=g, c=c)
        reduced = analytic.khandelwal_tcoh_reduced(kp, z1, z2, g=g, c=c)
    except ConfigurationError as exc:
        _bad("tcoh", str(exc))
    report = experiments.term_magnitude_report(g=g, c=c)
    serialize.dump_json(env.out / "tcoh.json", {
        "term1": full.term1, "term2": full.term2, "term3": full.term3,
        "n_factor": full.n_factor, "tcoh_s": full.tcoh,
        "reduced_gammaQ": reduced,
        "reference_magnitudes": report,
    })
    print(f"tcoh = {full.tcoh:.6e} s; reduced rate excess "
          f"{reduced:.6e}")
    return 0


_COMMANDS = {"rate": cmd_rate, "spectrum": cmd_spectrum,
             "survival": cmd_survival, "oracle": cmd_oracle,
             "sweep": cmd_sweep, "figures": cmd_figures, "tcoh": cmd_tcoh}


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (must exist; default '.')")
    parser = argparse.ArgumentParser(
        prog="gravclock",
        description="Spontaneous emission of two-packet clock states in "
                    "uniform gravity: rates, line shapes, and a mode-comb "
                    "oracle.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "rate": "rate excess of the superposition over its mixture",
        "spectrum": "emission line shape of the configured state",
        "survival": "excited-state survival probability table",
        "oracle": "mode-comb decay run checked against the exponential law",
        "sweep": "rate-excess map over one standard panel",
        "figures": "all standard sweep panels and line-shape tables",
        "tcoh": "wave-packet coherence-time terms",
    }
    for name, cmd_help in helps.items():
        sub.add_parser(name, parents=[common], help=cmd_help)
    return parser


def _load_config(args: argparse.Namespace) -> dict:
    if args.config is None:
        return validate_config({})
    path = Path(args.config)
    if not path.is_file():
        raise ConfigurationError(f"--config: file {str(path)!r} not found")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"--config: not valid JSON ({exc})") from exc
    return validate_config(cfg)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        env = _Env(cfg, args)
        return _COMMANDS[args.command](env)
    except (ConfigurationError, HorizonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (numerics.AccuracyError, serialize.NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
