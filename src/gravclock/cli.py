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
from pathlib import Path

import numpy as np

from . import analytic, experiments, numerics, serialize
from .model import (ATOMIC_MASS, C_LIGHT, STANDARD_GRAVITY, ConfigurationError,
                    HeightDensity, HorizonError, MixtureSpec, PhysicalParams,
                    SuperpositionSpec, state_from_dict)

_PRESET_R = 1.5e17
# 267.4 nm intercombination line of the aluminium ion; the decay rate follows
# from the pinned ratio r = Omega/Gamma0 = 1.5e17.
_PRESET_OMEGA = 7.045e15

PRESETS = {
    "earth-aluminium": dict(g=STANDARD_GRAVITY, c=C_LIGHT,
                            omega=_PRESET_OMEGA,
                            gamma0=_PRESET_OMEGA / _PRESET_R),
}

_DEFAULT_STATE = {"zeta1": 0.0, "zeta2": 0.02, "delta_zeta": 0.01,
                  "theta_rad": math.pi / 8, "phi_rad": 0.0,
                  "kind": "superposition"}

_TOP_KEYS = ("preset", "params", "state", "seed", "out", "rate", "spectrum",
             "survival", "oracle", "sweep", "figures", "tcoh")


def _bad(path: str, message: str):
    raise ConfigurationError(f"{path}: {message}")


def _num(path: str, value, *, integer: bool = False, lo=None, hi=None,
         lo_open=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _bad(path, "must be a number")
    if integer and not isinstance(value, int):
        _bad(path, "must be an integer")
    v = float(value)
    if not math.isfinite(v):
        _bad(path, "must be finite")
    if lo is not None and (v <= lo if lo_open else v < lo):
        _bad(path, f"must be {'>' if lo_open else '>='} {lo}")
    if hi is not None and v > hi:
        _bad(path, f"must be <= {hi}")
    return v


def _choice(path: str, value, options: tuple[str, ...]) -> str:
    if value not in options:
        _bad(path, f"must be one of {'|'.join(options)}, got {value!r}")
    return value


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        _bad(name, "must be an object")
    return sec


def _reject_unknown(path: str, sec: dict, allowed: tuple[str, ...]) -> None:
    for key in sec:
        if key not in allowed:
            _bad(f"{path}.{key}", "unknown config key")


_ZETA_STATE_KEYS = ("zeta1", "zeta2", "delta_zeta", "theta_rad", "phi_rad",
                    "kind")


def _validate_state(sec: dict) -> None:
    has_m = any(k in sec for k in ("z1_m", "z2_m", "delta_m"))
    has_z = any(k in sec for k in ("zeta1", "zeta2", "delta_zeta"))
    if has_m and has_z:
        _bad("state", "mixes meter and zeta coordinate keys")
    if not has_m and not has_z:
        _bad("state", "needs z1_m/z2_m/delta_m or zeta1/zeta2/delta_zeta")
    if has_z:
        _reject_unknown("state", sec, _ZETA_STATE_KEYS)
        for key in ("zeta1", "zeta2", "delta_zeta"):
            if key not in sec:
                _bad(f"state.{key}", "is required")
        _num("state.zeta1", sec["zeta1"])
        _num("state.zeta2", sec["zeta2"])
        _num("state.delta_zeta", sec["delta_zeta"], lo=0.0, lo_open=True)
        kind = _choice("state.kind", sec.get("kind", "superposition"),
                       ("superposition", "mixture"))
        _num("state.theta_rad", sec.get("theta_rad", 0.0))
        if kind == "superposition":
            _num("state.phi_rad", sec.get("phi_rad", 0.0))
        elif sec.get("phi_rad") is not None:
            _bad("state.phi_rad", "mixture state takes no phi_rad")
        return
    # meter form: its own parser does the detailed checks
    try:
        state_from_dict(sec)
    except ConfigurationError as exc:
        _bad("state", str(exc))


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    for key in cfg:
        if key not in _TOP_KEYS:
            _bad(str(key), "unknown config key")
    if "preset" in cfg:
        _choice("preset", cfg["preset"], tuple(PRESETS))
    if "params" in cfg:
        if not isinstance(cfg["params"], dict):
            _bad("params", "must be an object")
        try:
            PhysicalParams.from_dict(cfg["params"])
        except ConfigurationError as exc:
            _bad("params", str(exc))
    if "state" in cfg:
        if not isinstance(cfg["state"], dict):
            _bad("state", "must be an object")
        _validate_state(cfg["state"])
    if "seed" in cfg:
        _num("seed", cfg["seed"], integer=True, lo=0)
    if "out" in cfg and not isinstance(cfg["out"], str):
        _bad("out", "must be a string path")

    sec = _section(cfg, "rate")
    _reject_unknown("rate", sec, ("method",))
    if "method" in sec:
        _choice("rate.method", sec["method"], ("closed-form", "quadrature"))

    sec = _section(cfg, "spectrum")
    _reject_unknown("spectrum", sec, ("nu_min", "nu_max", "n_points",
                                      "method"))
    nu_min = _num("spectrum.nu_min", sec.get("nu_min", -5.0))
    nu_max = _num("spectrum.nu_max", sec.get("nu_max", 5.0))
    if nu_max <= nu_min:
        _bad("spectrum.nu_max", "must exceed spectrum.nu_min")
    _num("spectrum.n_points", sec.get("n_points", 4001), integer=True, lo=2)
    if "method" in sec:
        _choice("spectrum.method", sec["method"],
                ("auto", "voigt", "quadrature"))

    sec = _section(cfg, "survival")
    _reject_unknown("survival", sec, ("s_max", "n_points"))
    _num("survival.s_max", sec.get("s_max", 5.0), lo=0.0, lo_open=True)
    _num("survival.n_points", sec.get("n_points", 101), integer=True, lo=2)

    sec = _section(cfg, "oracle")
    _reject_unknown("oracle", sec, ("zeta", "r", "halfwidth_linewidths",
                                    "dnu", "s_max", "coupling",
                                    "compare_up_to"))
    zeta = _num("oracle.zeta", sec.get("zeta", 0.25))
    if zeta <= -1.0:
        _bad("oracle.zeta", "must be > -1 (above the horizon)")
    _num("oracle.r", sec.get("r", 1e3), lo=0.0, lo_open=True)
    if sec.get("halfwidth_linewidths") is not None:
        _num("oracle.halfwidth_linewidths", sec["halfwidth_linewidths"],
             lo=0.0, lo_open=True)
    if sec.get("dnu") is not None:
        _num("oracle.dnu", sec["dnu"], lo=0.0, hi=0.05, lo_open=True)
    _num("oracle.s_max", sec.get("s_max", 12.0), lo=0.0, lo_open=True)
    _choice("oracle.coupling", sec.get("coupling", "flat"),
            ("flat", "tilted"))
    if sec.get("compare_up_to") is not None:
        _num("oracle.compare_up_to", sec["compare_up_to"], lo=0.0,
             lo_open=True)

    sec = _section(cfg, "sweep")
    _reject_unknown("sweep", sec, ("panel", "n_grid", "delta_zeta"))
    _choice("sweep.panel", sec.get("panel", "b"), ("a", "b", "c"))
    _num("sweep.n_grid", sec.get("n_grid", 201), integer=True, lo=2)
    _num("sweep.delta_zeta", sec.get("delta_zeta", 0.01), lo=0.0,
         lo_open=True)

    sec = _section(cfg, "figures")
    _reject_unknown("figures", sec, ("n_grid", "n_nu"))
    _num("figures.n_grid", sec.get("n_grid", 201), integer=True, lo=2)
    _num("figures.n_nu", sec.get("n_nu", 4001), integer=True, lo=2)

    sec = _section(cfg, "tcoh")
    _reject_unknown("tcoh", sec, ("sigma_z_m", "sigma_v_m_s", "p_bar",
                                  "alpha_w", "phi_rad", "t_s", "mass_kg",
                                  "z1_m", "z2_m"))
    if "sigma_z_m" in sec:
        _num("tcoh.sigma_z_m", sec["sigma_z_m"], lo=0.0, lo_open=True)
    if "sigma_v_m_s" in sec:
        _num("tcoh.sigma_v_m_s", sec["sigma_v_m_s"], lo=0.0, lo_open=True)
    if "p_bar" in sec:
        _num("tcoh.p_bar", sec["p_bar"])
    if "alpha_w" in sec:
        _num("tcoh.alpha_w", sec["alpha_w"], lo=0.0, hi=1.0)
    if "phi_rad" in sec:
        _num("tcoh.phi_rad", sec["phi_rad"])
    if "t_s" in sec:
        _num("tcoh.t_s", sec["t_s"], lo=0.0)
    if "mass_kg" in sec:
        _num("tcoh.mass_kg", sec["mass_kg"], lo=0.0, lo_open=True)
    for key in ("z1_m", "z2_m"):
        if key in sec:
            _num(f"tcoh.{key}", sec[key])


class _Env:
    """Everything a command needs, resolved from config + flags."""

    def __init__(self, cfg: dict, args: argparse.Namespace):
        self.cfg = cfg
        self.params = self._resolve_params(cfg, args)
        self.scales = self.params.scales()
        self.out = self._resolve_out(cfg, args)
        self.quad_spec = self._resolve_quad(args)

    @staticmethod
    def _resolve_params(cfg: dict, args) -> PhysicalParams:
        if "params" in cfg:
            if args.preset is not None:
                raise ConfigurationError(
                    "params: mutually exclusive with --preset")
            return PhysicalParams.from_dict(cfg["params"])
        name = args.preset or cfg.get("preset", "earth-aluminium")
        return PhysicalParams(**PRESETS[name])

    @staticmethod
    def _resolve_out(cfg: dict, args) -> Path:
        out = Path(args.out or cfg.get("out", "."))
        if not out.is_dir():
            raise ConfigurationError(
                f"out: output directory {str(out)!r} does not exist")
        if not os.access(out, os.W_OK):
            raise ConfigurationError(
                f"out: output directory {str(out)!r} is not writable")
        return out

    @staticmethod
    def _resolve_quad(args) -> numerics.QuadratureSpec:
        order = 80 if args.quad_order is None else args.quad_order
        if order < 2:
            raise ConfigurationError("--quad-order: must be >= 2")
        if args.tol is None:
            return numerics.QuadratureSpec(order=order)
        if args.tol <= 0.0:
            raise ConfigurationError("--tol: must be > 0")
        return numerics.QuadratureSpec(order=order, rel_tol=args.tol,
                                       abs_tol=args.tol * 1e-2)

    def state(self) -> SuperpositionSpec | MixtureSpec:
        sec = self.cfg.get("state")
        if sec is None:
            sec = _DEFAULT_STATE
        if any(k in sec for k in ("zeta1", "zeta2", "delta_zeta")):
            meters = {
                "z1_m": float(self.scales.height_m(sec["zeta1"])),
                "z2_m": float(self.scales.height_m(sec["zeta2"])),
                "delta_m": float(self.scales.height_m(sec["delta_zeta"])),
                "theta_rad": float(sec.get("theta_rad", 0.0)),
                "kind": sec.get("kind", "superposition"),
            }
            if meters["kind"] == "superposition":
                meters["phi_rad"] = float(sec.get("phi_rad", 0.0))
            return state_from_dict(meters)
        return state_from_dict(sec)

    def density(self) -> HeightDensity:
        spec = self.state()
        if isinstance(spec, SuperpositionSpec):
            return HeightDensity.superposition(spec, self.scales)
        return HeightDensity.mixture(spec, self.scales)


def cmd_rate(env: _Env) -> int:
    spec = env.state()
    if not isinstance(spec, SuperpositionSpec):
        raise ConfigurationError(
            "state.kind: rate needs a superposition state (the mixture is "
            "derived from it)")
    method = env.cfg.get("rate", {}).get("method", "closed-form")
    result = analytic.decay_rates(spec, env.scales, method=method,
                                  quad_spec=env.quad_spec)
    serialize.dump_json(env.out / "rate.json", result.to_dict())
    print(format(result.gammaQ_inv, ".11e"))
    return 0


def cmd_spectrum(env: _Env) -> int:
    sec = env.cfg.get("spectrum", {})
    grid = np.linspace(sec.get("nu_min", -5.0), sec.get("nu_max", 5.0),
                       sec.get("n_points", 4001))
    result = analytic.spectrum(env.density(), grid, env.scales.r,
                               method=sec.get("method", "auto"))
    serialize.write_csv(env.out / "spectrum.csv", "nu,p",
                        [result.nu_grid, result.p_values])
    if result.low_mass:
        print(f"warning: frequency window captures only "
              f"{result.total_mass:.4f} of the line mass; widen nu_min/nu_max",
              file=sys.stderr)
    return 0


def cmd_survival(env: _Env) -> int:
    sec = env.cfg.get("survival", {})
    s = np.linspace(0.0, sec.get("s_max", 5.0), sec.get("n_points", 101))
    p = analytic.survival_probability(env.density(), s)
    serialize.write_csv(env.out / "survival.csv", "s,p", [s, p])
    return 0


def cmd_oracle(env: _Env) -> int:
    sec = env.cfg.get("oracle", {})
    zeta = sec.get("zeta", 0.25)
    r = sec.get("r", 1e3)
    grid = numerics.ModeGrid.for_line(
        zeta, r, halfwidth_linewidths=sec.get("halfwidth_linewidths"),
        dnu=sec.get("dnu"))
    report = numerics.validate_single_pole(
        zeta, r, grid, sec.get("s_max", 12.0),
        coupling=sec.get("coupling", "flat"),
        compare_up_to=sec.get("compare_up_to", 5.0))
    run = report.run
    # the summary goes first: it is the file a run too short to fit fails on
    serialize.dump_json(env.out / "oracle_summary.json",
                        numerics.single_pole_summary(report))
    serialize.write_csv(env.out / "oracle_trajectory.csv", "s,alpha_sq",
                        [run.times, run.alpha_sq])
    serialize.write_csv(env.out / "oracle_modes.csv", "nu,beta_sq",
                        [run.grid.nus, run.beta_sq_final])
    note = " (comparison truncated at the comb recurrence)" \
        if report.truncated else ""
    print(f"fitted rate {report.fitted_rate:.6f} vs local rate "
          f"{1.0 + zeta:.6f}; max deviation "
          f"{report.max_rel_deviation:.3%} up to s={report.compare_s_max:g}"
          f"{note}")
    return 0


def cmd_sweep(env: _Env) -> int:
    sec = env.cfg.get("sweep", {})
    panels = experiments.figure1_default_panels(
        n_grid=sec.get("n_grid", 201),
        delta_zeta=sec.get("delta_zeta", 0.01))
    spec = panels[sec.get("panel", "b")]
    rows = experiments.figure1_sweep(spec)
    serialize.write_csv(env.out / "sweep.csv", "theta,phi,dz,gammaQ_inv",
                        [rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]])
    return 0


def cmd_figures(env: _Env) -> int:
    sec = env.cfg.get("figures", {})
    panels = experiments.figure1_default_panels(n_grid=sec.get("n_grid", 201))
    for name, spec in panels.items():
        rows = experiments.figure1_sweep(spec)
        serialize.write_csv(env.out / f"figure1_{name}.csv",
                            "theta,phi,dz,gammaQ_inv",
                            [rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]])
    cases = experiments.figure2_default_cases(n_points=sec.get("n_nu", 4001))
    for name, case in cases.items():
        res_sup, res_mix = experiments.figure2_lines(case)
        serialize.write_csv(env.out / f"figure2_{name}.csv", "nu,p_sup,p_cl",
                            [case.nu_grid, res_sup.p_values,
                             res_mix.p_values])
    return 0


def cmd_tcoh(env: _Env) -> int:
    sec = env.cfg.get("tcoh", {})
    p = env.params
    sigma_z = sec.get("sigma_z_m", 1e-18 * p.c**2 / p.g)
    mass = sec.get("mass_kg", 1e-27)
    kp = analytic.KhandelwalParams(
        sigma_z=sigma_z,
        sigma_v=sec.get("sigma_v_m_s", p.hbar / (mass * sigma_z)),
        p_bar=sec.get("p_bar", 0.0),
        alpha_w=sec.get("alpha_w", math.cos(math.pi / 8) ** 2),
        phi=sec.get("phi_rad", 0.0),
        t=sec.get("t_s", 1e-8),
        m=mass)
    z1 = sec.get("z1_m", 0.0)
    z2 = sec.get("z2_m", z1 + sigma_z)
    full = analytic.khandelwal_tcoh_full(kp, z1, z2, g=p.g, c=p.c,
                                         hbar=p.hbar)
    reduced = analytic.khandelwal_tcoh_reduced(kp, z1, z2, g=p.g, c=p.c)
    report = experiments.term_magnitude_report(g=p.g, c=p.c, hbar=p.hbar)
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (must exist; default '.')")
    common.add_argument("--preset", choices=tuple(PRESETS),
                        help="named physical-parameter preset")
    common.add_argument("--quad-order", type=int, dest="quad_order",
                        metavar="N", help="Gauss-Hermite order (default 80)")
    common.add_argument("--tol", type=float, metavar="X",
                        help="quadrature relative tolerance")
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
        return {}
    path = Path(args.config)
    if not path.is_file():
        raise ConfigurationError(f"--config: file {str(path)!r} not found")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"--config: not valid JSON ({exc})") from exc
    validate_config(cfg)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        env = _Env(cfg, args)
        return _COMMANDS[args.command](env)
    except (ConfigurationError, HorizonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (numerics.AccuracyError, numerics.IntegrationError,
            numerics.ValidityError, serialize.NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
