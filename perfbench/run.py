"""gravclock benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in fresh single-threaded
child processes, one at a time: a few that only set up (import plus warm-up)
to time set-up, then one that sets up, runs round(seconds / nominal pass
time) passes over the inputs generated from the seed, and checks every
output.  With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Lines before it give the same figures
for reading, with the machine they were measured on.  A record of each run
is appended to .perfbench/results.jsonl.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NOMINAL_PASS_S, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_ONLY_CHILDREN = 4
RUN_BUDGET_S = 170.0
# Every BLAS/OpenMP pool in a child gets one thread, on both sides of any
# comparison.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env.update({name: "1" for name in THREAD_VARS})
    return env


def run_child(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker; return its start time and its JSON result."""
    remaining = deadline - monotonic()
    if remaining <= 0.0:
        raise BenchError("run budget exhausted")
    start = monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                               *args], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("worker printed no result")
    return start, json.loads(lines[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "ram_gib": round(ram / 2**30, 2),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "commit": git_commit(), "child_threads": 1}


def measure(args, bench: dict) -> dict:
    deadline = monotonic() + RUN_BUDGET_S
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_ONLY_CHILDREN):
            start, res = run_child([*common, "--setup-only"], deadline)
            setups.append(res["ready"] - start)
    start, res = run_child([*common, "--passes", str(passes), "--trace",
                            str(args.trace)], deadline)
    setups.append(res["ready"] - start)
    res["setup_s"] = statistics.median(setups)
    res["setup_samples"] = setups
    res["failed_frac"] = res["failed"] / res["attempted"]
    specs = bench["per_layer" if args.trace else "end_to_end"]
    source = res["per_layer"] if args.trace else res
    res["metrics"] = {m["name"]: {"value": float(source.get(m["name"], 0.0)),
                                  "unit": m["unit"]} for m in specs}
    return res


def report(args, res: dict, env: dict) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={res['passes']} "
          f"ops_per_pass={res['timed_ops']}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in res["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  median of {len(res['setup_samples'])} child starts"
        elif name == "wall_s":
            note = (f"  sum of operation times; median pass "
                    f"{res['pass_wall_median_s']:.6g} s")
        elif name == "op_p50_s":
            which = "best" if res["op_time"] == "min" else "median"
            note = (f"  an operation's time is the {which} of its "
                    f"{res['repeats']} repeats")
        elif name == "op_tail_s":
            note = (f"  p{res['tail_percentile']:.2f} of "
                    f"{res['timed_ops']} operations, {res['tail_beyond']} "
                    "beyond")
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':40s} {res['failed_frac']:.6g} 1  "
          f"({res['failed']} of {res['attempted']} operations)")
    if "spans_file" in res:
        print(f"spans written to {res['spans_file']}")
    for message in res["failures"]:
        print(f"FAILED {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one gravclock benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gravclock" / "__init__.py").is_file():
        print(f"error: no gravclock sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        res = measure(args, bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = {**machine(), "seed": args.seed, "workload": args.workload}
    report(args, res, env)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"env": env, "trace": args.trace, **res}) + "\n")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
