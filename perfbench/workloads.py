"""Seeded workload inputs and the calls that run them.

A workload is a list of operations generated from the seed; one pass runs
every operation once.  Input sizes are stratified: each pass holds the same
fixed set of size classes, and the seed draws the order, the pairing of
sizes with other inputs, and every continuous parameter.  Two seeds thus
ask for different numbers but the same amount of work, which keeps the
timings comparable across seeds.

Operations are plain JSON-able dicts with a ``kind`` key.  ``Runner.run``
executes one and returns an ``Outcome``; only the calls into gravclock are
timed.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("oracle", "figures", "sampled", "states")

# Real seconds one pass takes on a 2-core Xeon VM, checks included.  A
# run makes round(--seconds / this) passes, at least one, so both sides of a
# comparison do the same work whatever their speed.
NOMINAL_PASS_S = {"oracle": 30.0, "figures": 4.5, "sampled": 3.0,
                  "states": 0.5}

# How the repeats of one operation within a run become its time.  The host's
# speed drifts: slow spells of +30-50% last a minute or more, fast spells of
# -30% a second or two.  `states` operations last milliseconds and repeat
# about 50 times a run, so their best repeat lands in a fast spell every time
# and slow spells do not move it.  The other workloads' operations last
# hundreds of milliseconds to seconds and repeat a few times at most; whether
# a fast spell covered one of them is luck, so they take the median repeat.
BEST_OF_REPEATS = frozenset({"states"})

ORACLE_R = 1e3
ORACLE_S_MAX = 12.0
SAMPLED_SPECTRUM_POINTS = 61
SAMPLED_SURVIVAL_POINTS = 31

# Desk-scale parameter block: r = omega/gamma0 is drawn per request.
_DESK_GAMMA0 = 1e6


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def generate(workload: str, seed: int) -> list[dict]:
    """The operations of one pass, as a pure function of the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return _GENERATORS[workload](_rng(workload, seed))


def _gen_oracle(rng: np.random.Generator) -> list[dict]:
    """Four mode-comb runs with zeta in [0, 0.5] at r = 1e3.

    Cost grows like (1+zeta)^2, so zeta is drawn as two antithetic pairs
    (z, 0.5 - z), whose summed cost hardly depends on z: one pair from the
    outer strata [0, 1/32] and [15/32, 1/2], one from the inner strata that
    cover the rest.  The narrow outer strata pin down the slowest run.  Each
    pair has one flat and one tilted run.
    """
    ops = []
    for lo, hi in ((0.0, 1.0 / 32.0), (1.0 / 32.0, 0.25)):
        low = rng.uniform(lo, hi)
        couplings = ("flat", "tilted") if rng.random() < 0.5 \
            else ("tilted", "flat")
        for zeta, coupling in zip((low, 0.5 - low), couplings):
            ops.append({"kind": "oracle", "zeta": float(zeta),
                        "coupling": coupling})
    return [ops[i] for i in rng.permutation(len(ops))]


def _gen_figures(rng: np.random.Generator) -> list[dict]:
    """Three figure sets: a `figures` run plus one `sweep` panel each.

    Grid sizes 181/201/221 keep pi/8 and dz = 2*width on the grid (n - 1
    divisible by 20) so the standard spot value can be read off.  The sweep
    takes 402 - n so every set costs about the same.  The sizes run in a
    fixed order: the order sets the process's peak memory, by up to 6%.
    """
    sizes = (181, 201, 221)
    panels = rng.permutation(["a", "b", "c"])
    return [{"kind": "figures_set", "n_grid": int(n),
             "n_nu": int(rng.integers(3601, 4402)),
             "panel": str(panel), "sweep_n_grid": int(402 - n),
             "delta_zeta": float(rng.uniform(0.008, 0.012))}
            for n, panel in zip(sizes, panels)]


def _packet(rng: np.random.Generator, delta_lo: float, delta_hi: float,
            z_span: float) -> dict:
    """Two-packet state in the style of tests/conftest.random_specs:
    heights in zeta units, clear of the zero manifolds of the rate excess."""
    while True:
        delta = rng.uniform(delta_lo, delta_hi)
        dz = rng.uniform(0.5, 4.0) * delta * rng.choice((-1.0, 1.0))
        z1 = rng.uniform(-z_span, z_span)
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if abs(theta - math.pi / 4) >= 0.1 and abs(math.cos(phi)) >= 0.3:
            return {"zeta1": float(z1), "zeta2": float(z1 + dz),
                    "delta_zeta": float(delta), "theta_rad": float(theta),
                    "phi_rad": float(phi)}


def _gen_sampled(rng: np.random.Generator) -> list[dict]:
    """Six 61-point lines and four 31-point survival curves of
    two-Gaussian packets handed to gravclock as a plain pdf callable.

    The packet width sets how hard the pointwise quadrature works, so each
    kind takes one width from each of equal strata of [5e-4, 2e-3]; half of
    each kind is a mixture, half a superposition.
    """
    ops = []
    for kind, count in (("line", 6), ("curve", 4)):
        edges = np.linspace(0.0005, 0.002, count + 1)
        forms = rng.permutation(["mixture", "superposition"] * (count // 2))
        for lo, hi, form in zip(edges[:-1], edges[1:], forms):
            op = {"kind": kind, "form": str(form),
                  "r": float(rng.uniform(900.0, 1100.0)),
                  **_packet(rng, lo, hi, 0.003)}
            if kind == "curve":
                op["s_max"] = float(rng.uniform(4.0, 6.0))
            ops.append(op)
    return [ops[i] for i in rng.permutation(len(ops))]


# One block of the `states` workload: five CLI requests and three scalar
# calls.  A pass is _STATE_BLOCKS blocks in seeded order.
_STATE_BLOCK = ("cli_rate_closed", "cli_rate_quad", "cli_survival", "cli_tcoh",
                "cli_spectrum", "qc_closed", "qc_closed", "qc_quad")
_STATE_BLOCKS = 40


def _gen_states(rng: np.random.Generator) -> list[dict]:
    """Each slot of the block is filled _STATE_BLOCKS times.  The survival
    and spectrum sizes of those requests come one from each of
    _STATE_BLOCKS equal strata of their range, and exactly half of the CLI
    requests use the earth preset."""
    ops = []
    for kind in _STATE_BLOCK:
        strata = rng.permutation(_STATE_BLOCKS)
        presets = rng.permutation([True, False] * (_STATE_BLOCKS // 2))
        for k, preset in zip(strata, presets):
            frac = (k + rng.random()) / _STATE_BLOCKS
            ops.append(_state_request(rng, kind, frac, bool(preset)))
    return [ops[i] for i in rng.permutation(len(ops))]


def _state_request(rng: np.random.Generator, kind: str, frac: float,
                   preset: bool) -> dict:
    """One request; ``frac`` in [0, 1) places its size in its range."""
    state = _packet(rng, 0.005, 0.025, 0.04)
    if kind.startswith("qc_"):
        return {"kind": kind, **state}
    op = {"kind": kind, "state": state}
    if preset:
        op["params"] = None      # earth-aluminium preset, r = 1.5e17
        r = 1.5e17
    else:
        r = float(10.0 ** rng.uniform(2.0, 4.0))
        op["params"] = {"omega_rad_s": r * _DESK_GAMMA0,
                        "gamma0_s": _DESK_GAMMA0}
    if kind == "cli_survival":
        op["survival"] = {"s_max": float(rng.uniform(1.0, 10.0)),
                          "n_points": 51 + int(frac * 151)}
    elif kind == "cli_spectrum":
        op["spectrum"] = _spectrum_window(state, r, 201 + int(frac * 601))
    elif kind == "cli_tcoh":
        op["tcoh"] = _tcoh_section(rng)
    return op


def components(state: dict, form: str = "superposition"):
    """(weights, centers) of the equal-width Gaussians that make up a
    two-packet density, heights in zeta units.  ``mixture`` has weights
    cos^2/sin^2 theta; ``superposition`` adds the interference packet at the
    midpoint, as in the model's superposition density."""
    z1, z2 = state["zeta1"], state["zeta2"]
    theta = state["theta_rad"]
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    if form == "mixture":
        return np.array([c2, s2]), np.array([z1, z2])
    a = (math.cos(state["phi_rad"]) * math.sin(2.0 * theta)
         * math.exp(-((z2 - z1) ** 2) / (4.0 * state["delta_zeta"] ** 2)))
    return (np.array([c2, s2, a]) / (1.0 + a),
            np.array([z1, z2, 0.5 * (z1 + z2)]))


def _spectrum_window(state: dict, r: float, n_points: int) -> dict:
    """Window centred on the line, wide enough for the spread of line shifts
    across the packets plus 20 natural linewidths of tail."""
    weights, centers = components(state)
    center = r * float(weights @ centers)
    half = (6.0 * r * state["delta_zeta"]
            + 0.5 * r * abs(state["zeta2"] - state["zeta1"]) + 20.0)
    return {"nu_min": center - half, "nu_max": center + half,
            "n_points": n_points, "method": "auto"}


def _tcoh_section(rng: np.random.Generator) -> dict:
    sigma_z = 1e-18 * 299792458.0 ** 2 / 9.80665 * rng.uniform(0.5, 2.0)
    return {"sigma_z_m": float(sigma_z),
            "p_bar": float(rng.uniform(-1e-30, 1e-30)),
            "alpha_w": float(rng.uniform(0.05, 0.95)),
            "phi_rad": float(rng.uniform(0.0, 2.0 * math.pi)),
            "t_s": float(10.0 ** rng.uniform(-9.0, -7.0)),
            "mass_kg": float(10.0 ** rng.uniform(-27.0, -25.0)),
            "z1_m": 0.0,
            "z2_m": float(sigma_z * rng.uniform(0.5, 4.0)
                          * rng.choice((-1.0, 1.0)))}


_GENERATORS = {"oracle": _gen_oracle, "figures": _gen_figures,
               "sampled": _gen_sampled, "states": _gen_states}


def warmup_ops(workload: str) -> list[dict]:
    """Tiny operations that load every code path a workload uses, so lazy
    set-up (imports, node caches) is paid before the timed passes."""
    state = {"zeta1": 0.0, "zeta2": 0.02, "delta_zeta": 0.01,
             "theta_rad": math.pi / 8, "phi_rad": 0.0}
    if workload == "oracle":
        return [{"kind": "oracle_warmup"}]
    if workload == "figures":
        return [{"kind": "figures_set", "n_grid": 21, "n_nu": 41,
                 "panel": "b", "sweep_n_grid": 21, "delta_zeta": 0.01}]
    if workload == "sampled":
        packet = {"zeta1": 0.0, "zeta2": 0.002, "delta_zeta": 0.001,
                  "theta_rad": math.pi / 8, "phi_rad": 0.0}
        return [{"kind": "line", "form": "superposition", "r": 1e3,
                 "points": 5, **packet},
                {"kind": "curve", "form": "mixture", "r": 1e3,
                 "s_max": 5.0, "points": 3, **packet}]
    ops = [{"kind": kind, "state": state, "params": None}
           for kind in ("cli_rate_closed", "cli_rate_quad", "cli_survival",
                        "cli_tcoh")]
    ops.append({"kind": "cli_spectrum", "state": state, "params": None,
                "spectrum": _spectrum_window(state, 1.5e17, 11)})
    ops += [{"kind": kind, **state} for kind in ("qc_closed", "qc_quad")]
    return ops


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one operation produced.  ``files`` maps output names to their
    bytes; ``values`` holds results of direct library calls."""

    seconds: float = 0.0
    error: str | None = None
    rc: int | None = None
    stdout: str = ""
    files: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    def digest(self) -> str:
        """Hash of everything the program produced, for comparing passes."""
        h = hashlib.sha256()
        h.update(repr((self.error, self.rc, self.stdout)).encode())
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(self.files[name])
        for key in sorted(self.values):
            val = self.values[key]
            h.update(key.encode())
            h.update(val.tobytes() if isinstance(val, np.ndarray)
                     else repr(val).encode())
        return h.hexdigest()


class PacketPdf:
    """Two-packet height density as a plain callable, counting evaluations.
    Equal widths make the matching analytic density a Voigt reference."""

    def __init__(self, op: dict):
        self.weights, self.centers = components(op, op["form"])
        self.width = op["delta_zeta"]
        self.support = (float(self.centers.min()) - 12.0 * self.width,
                        float(self.centers.max()) + 12.0 * self.width)
        self.evals = 0

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        self.evals += z.size
        q = (z[..., None] - self.centers) / self.width
        out = (np.exp(-q * q) @ self.weights) / (math.sqrt(math.pi)
                                                  * self.width)
        return np.maximum(out, 0.0)


_OUT_FILES = {
    "oracle": ("oracle_trajectory.csv", "oracle_modes.csv",
               "oracle_summary.json"),
    "figures": tuple(f"figure1_{p}.csv" for p in "abc")
    + tuple(f"figure2_{c}.csv" for c in "abcd"),
    "sweep": ("sweep.csv",),
    "rate": ("rate.json",),
    "survival": ("survival.csv",),
    "tcoh": ("tcoh.json",),
    "spectrum": ("spectrum.csv",),
}


class Runner:
    """Runs operations against an imported gravclock in a scratch folder.

    Config files are written once, before timing; each CLI call is timed
    from entry to return, with its printed output captured.
    """

    def __init__(self, gc, workdir: Path):
        self.gc = gc
        self.cli = importlib.import_module(f"{gc.__name__}.cli")
        self.workdir = workdir
        self.out = workdir / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self._configs: dict[str, str] = {}
        # identity conversion: scalar calls take heights in zeta units
        self.unit_scales = gc.DimensionlessScales(g=1.0, c=1.0, omega=2.0,
                                                  gamma0=1.0)

    # -- CLI plumbing --------------------------------------------------------

    def _config(self, cfg: dict) -> str:
        key = json.dumps(cfg, sort_keys=True)
        path = self._configs.get(key)
        if path is None:
            path = str(self.workdir / f"cfg{len(self._configs)}.json")
            Path(path).write_text(json.dumps(cfg))
            self._configs[key] = path
        return path

    def _cli(self, outcome: Outcome, command: str, cfg: dict) -> None:
        argv = [command, "--config", self._config(cfg), "--out",
                str(self.out)]
        for name in _OUT_FILES[command]:
            (self.out / name).unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            rc = self.cli.main(argv)
            outcome.seconds += time.perf_counter() - t0
        outcome.stdout += stdout.getvalue()
        if rc != 0:
            outcome.rc = rc
            raise RuntimeError(f"gravclock {command} exited {rc}: "
                               f"{stderr.getvalue().strip()}")
        outcome.rc = 0
        for name in _OUT_FILES[command]:
            path = self.out / name
            if path.exists():
                outcome.files[name] = path.read_bytes()

    def _timed(self, outcome: Outcome, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            outcome.seconds += time.perf_counter() - t0

    # -- operations ----------------------------------------------------------

    def run(self, op: dict) -> Outcome:
        outcome = Outcome()
        try:
            getattr(self, "_op_" + op["kind"])(op, outcome)
        except Exception as exc:  # noqa: BLE001 -- any failure is counted
            outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome

    def _op_oracle(self, op: dict, o: Outcome) -> None:
        gc = self.gc
        self._cli(o, "oracle", {"oracle": {
            "zeta": op["zeta"], "r": ORACLE_R, "s_max": ORACLE_S_MAX,
            "coupling": op["coupling"]}})
        traj = _csv_columns(o.files["oracle_trajectory.csv"])
        modes = _csv_columns(o.files["oracle_modes.csv"])
        summary = json.loads(o.files["oracle_summary.json"])
        grid = gc.ModeGrid(nu_min=float(modes[0][0]),
                           nu_max=float(modes[0][-1]),
                           n_modes=len(modes[0]))
        run = gc.OracleRun(
            zeta=op["zeta"], r=ORACLE_R, grid=grid, coupling=op["coupling"],
            times=traj[0], alpha_sq=traj[1], beta_sq_final=modes[1],
            fitted_rate=summary["fitted_rate"],
            fit_residual=summary["fit_residual"],
            max_unitarity_defect=math.nan)
        line = self._timed(o, gc.oracle_spectrum, run)
        o.values["line_mass"] = line.total_mass
        o.values["line_peak"] = self._timed(o, gc.line_peak, line.nu_grid,
                                            line.p_values)
        o.values["line_fwhm"] = self._timed(o, gc.line_fwhm, line.nu_grid,
                                            line.p_values)

    def _op_oracle_warmup(self, op: dict, o: Outcome) -> None:
        self._cli(o, "oracle", {"oracle": {
            "zeta": 0.0, "r": 100.0, "s_max": 2.0,
            "halfwidth_linewidths": 30.0}})

    def _op_figures_set(self, op: dict, o: Outcome) -> None:
        self._cli(o, "figures", {"figures": {"n_grid": op["n_grid"],
                                             "n_nu": op["n_nu"]}})
        self._cli(o, "sweep", {"sweep": {"panel": op["panel"],
                                         "n_grid": op["sweep_n_grid"],
                                         "delta_zeta": op["delta_zeta"]}})

    def _sampled_density(self, op: dict, o: Outcome):
        pdf = PacketPdf(op)
        density = self._timed(o, self.gc.HeightDensity.from_callable, pdf,
                              pdf.support)
        return pdf, density

    def _op_line(self, op: dict, o: Outcome) -> None:
        pdf, density = self._sampled_density(op, o)
        nu = line_grid(op)
        before = pdf.evals
        res = self._timed(o, self.gc.spectrum, density, nu, op["r"])
        o.values["pdf_evals"] = pdf.evals - before
        o.values["nu"] = res.nu_grid
        o.values["p"] = res.p_values
        o.values["mass"] = res.total_mass

    def _op_curve(self, op: dict, o: Outcome) -> None:
        _, density = self._sampled_density(op, o)
        s = np.linspace(0.0, op["s_max"],
                        op.get("points", SAMPLED_SURVIVAL_POINTS))
        o.values["s"] = s
        o.values["p"] = self._timed(o, self.gc.survival_probability,
                                    density, s)

    def _state_cli(self, command: str, op: dict, o: Outcome,
                   section: dict) -> None:
        cfg = {"state": op["state"], **section}
        if op["params"] is not None:
            cfg["params"] = op["params"]
        self._cli(o, command, cfg)

    def _op_cli_rate_closed(self, op: dict, o: Outcome) -> None:
        self._state_cli("rate", op, o, {"rate": {"method": "closed-form"}})

    def _op_cli_rate_quad(self, op: dict, o: Outcome) -> None:
        self._state_cli("rate", op, o, {"rate": {"method": "quadrature"}})

    def _op_cli_survival(self, op: dict, o: Outcome) -> None:
        self._state_cli("survival", op, o,
                        {"survival": op.get("survival", {})})

    def _op_cli_tcoh(self, op: dict, o: Outcome) -> None:
        self._state_cli("tcoh", op, o, {"tcoh": op.get("tcoh", {})})

    def _op_cli_spectrum(self, op: dict, o: Outcome) -> None:
        self._state_cli("spectrum", op, o, {"spectrum": op["spectrum"]})

    def _qc(self, op: dict, o: Outcome, method: str) -> None:
        gc = self.gc
        spec = gc.SuperpositionSpec(z1=op["zeta1"], z2=op["zeta2"],
                                    delta=op["delta_zeta"],
                                    theta=op["theta_rad"], phi=op["phi_rad"])
        o.values["gammaQ_inv"] = self._timed(o, gc.quantum_correction, spec,
                                             self.unit_scales, method=method)

    def _op_qc_closed(self, op: dict, o: Outcome) -> None:
        self._qc(op, o, "closed-form")

    def _op_qc_quad(self, op: dict, o: Outcome) -> None:
        self._qc(op, o, "quadrature")


def line_grid(op: dict) -> np.ndarray:
    """Frequency grid of a sampled line: the packets' shifted lines plus
    15 natural linewidths of tail on each side."""
    r = op["r"]
    lo = r * min(op["zeta1"], op["zeta2"]) - 6.0 * r * op["delta_zeta"] - 15.0
    hi = r * max(op["zeta1"], op["zeta2"]) + 6.0 * r * op["delta_zeta"] + 15.0
    return np.linspace(lo, hi, op.get("points", SAMPLED_SPECTRUM_POINTS))


def _csv_columns(data: bytes) -> np.ndarray:
    body = data.split(b"\n", 1)[1]
    return np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2).T
