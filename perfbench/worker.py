"""One benchmark run inside a fresh process.

Imports gravclock from the checkout's ``src``, runs the workload's warm-up
operations (set-up ends here), then runs the generated passes, checks every
output, and prints one JSON line for ``run.py``.  With ``--setup-only`` it
stops after set-up.  With ``--trace 1`` the first half of the passes run
untraced and the rest under the span tracer.

Every pass repeats the same operations.  An operation's time is the best
or the median of its repeats, as ``workloads.BEST_OF_REPEATS`` says for the
workload; ``op_p50_s`` and ``op_tail_s`` are taken over these times and
``wall_s`` is their sum, the time of one pass.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
MAX_FAILURE_MESSAGES = 10


def monotonic() -> float:
    """System-wide clock, comparable with the parent's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with ten
    samples beyond it, or with n/10 beyond when there are fewer than 100
    samples, so that the percentile never drops below p90."""
    xs = sorted(times)
    n = len(xs)
    beyond = min(10, n // 10)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def _pick_median(walls: list[float]) -> int:
    """Index of the pass whose wall time is the (lower) median."""
    order = sorted(range(len(walls)), key=walls.__getitem__)
    return order[(len(order) - 1) // 2]


class Session:
    """Runs passes over the generated operations and tallies failures."""

    def __init__(self, runner, ops: list[dict], checks):
        self.runner = runner
        self.ops = ops
        self.checks = checks
        self.good_digest: dict[int, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> tuple[float, list[float], dict]:
        """Wall time of the pass, per-operation times, and sampled-pdf
        evaluation counts."""
        times = []
        evals = {"pdf_evals": 0, "points": 0}
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            outcome = self.runner.run(op)
            times.append(outcome.seconds)
            self.attempted += 1
            if "pdf_evals" in outcome.values:
                evals["pdf_evals"] += outcome.values["pdf_evals"]
                evals["points"] += len(outcome.values["nu"])
            self._judge(i, op, outcome)
        return sum(times), times, evals

    def _judge(self, i: int, op: dict, outcome) -> None:
        digest = outcome.digest()
        if self.good_digest.get(i) is not None:
            # identical input must give byte-identical output
            if digest == self.good_digest[i]:
                return
            self._fail(i, op, "output differs from an earlier pass")
            return
        try:
            self.checks.check(op, outcome)
        except self.checks.CheckError as exc:
            self.good_digest[i] = None
            self._fail(i, op, str(exc))
            return
        self.good_digest[i] = digest

    def _fail(self, i: int, op: dict, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(f"op {i} ({op['kind']}): {message}")


def layer_metrics(summary: dict, evals: dict) -> dict:
    """Derived per-layer figures on top of the tracer's summary."""
    out = dict(summary)
    wall = summary["trace.wall_s"]
    out["numerics.ww_simulate.share"] = \
        summary.get("numerics.ww_simulate.busy_s", 0.0) / wall
    out["serialize.write_csv.share"] = \
        summary.get("serialize.write_csv.busy_s", 0.0) / wall
    written = (summary.get("serialize.write_csv.bytes", 0.0)
               + summary.get("serialize.dump_json.bytes", 0.0))
    busy = (summary.get("serialize.write_csv.busy_s", 0.0)
            + summary.get("serialize.dump_json.busy_s", 0.0))
    out["serialize.bytes_per_s"] = written / busy if busy > 0.0 else 0.0
    out["model.pdf_evals_per_point"] = \
        evals["pdf_evals"] / evals["points"] if evals["points"] else 0.0
    return out


def run(args, workdir: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import gravclock

    from workloads import BEST_OF_REPEATS, Runner, generate, warmup_ops

    runner = Runner(gravclock, workdir)
    for op in warmup_ops(args.workload):
        runner.run(op)
    ready = monotonic()
    if args.setup_only:
        return {"ready": ready}

    import checks

    session = Session(runner, generate(args.workload, args.seed), checks)
    untraced = args.passes if not args.trace else max(1, args.passes // 2)
    walls, pass_times = [], []
    for _ in range(untraced):
        wall, times, _ = session.run_pass()
        walls.append(wall)
        pass_times.append(times)
    pick = min if args.workload in BEST_OF_REPEATS else statistics.median
    op_times = [pick(repeats) for repeats in zip(*pass_times)]
    result = {"ready": ready, "passes": untraced}

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(gravclock)
        summaries = []
        try:
            for pass_no in range(max(1, args.passes - untraced)):
                tracer.begin_pass(pass_no)
                wall, _, evals = session.run_pass(tracer)
                summaries.append(layer_metrics(tracer.summary(pass_no, wall),
                                               evals))
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_file)
        chosen = summaries[_pick_median([s["trace.wall_s"]
                                         for s in summaries])]
        chosen["trace.untraced_wall_s"] = statistics.median(walls)
        chosen["trace.overhead_s"] = (chosen["trace.wall_s"]
                                      - chosen["trace.untraced_wall_s"])
        result["per_layer"] = chosen
        result["spans_file"] = str(spans_file.relative_to(ROOT))
        result["passes"] += len(summaries)

    value, pct, beyond = tail(op_times)
    result.update({
        "attempted": session.attempted, "failed": session.failed,
        "failures": session.failures,
        "wall_s": sum(op_times),
        "op_p50_s": statistics.median(op_times),
        "op_tail_s": value, "tail_percentile": pct, "tail_beyond": beyond,
        "timed_ops": len(op_times), "repeats": untraced,
        "op_time": pick.__name__,
        "pass_wall_median_s": statistics.median(walls),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
