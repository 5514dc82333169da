"""shadowcheck benchmark: time to verdict on three workloads, plus a traced run.

Usage, from the root of a source checkout (the package is imported from
``src/``, never from an installed copy):

    python3 bench/run.py --workload livelock-deep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, each in its own process

A run draws its inputs from ``--seed``, sets up, then repeats passes over
the workload's operations until ``--seconds`` of measured time have
passed (at least one pass). With ``--trace 0`` it prints the end-to-end
metrics, measured with tracing off; with ``--trace 1`` it alternates
untraced and traced passes and prints the per-layer metrics, the layer
self-time accounting and the tracing overhead. Outputs are verified
outside the timed regions. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 15
WARM_UP_SECONDS = 2.0

# Metric name -> (unit, better). BENCHMARK.json lists the same names.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "iterations_per_s": ("1/s", "higher"),
    "steps_per_s": ("1/s", "higher"),
    "iterations": ("count", "lower"),
    "iterations_per_behaviour": ("ratio", "lower"),
    "iteration_p50_ms": ("ms", "lower"),
    "program_p50_ms": ("ms", "lower"),
    "violations_per_unique": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
# The JSON result holds only metrics that are non-zero on every workload (a
# 0 baseline has no share, and an exact 0 time reads the same on every run).
# The rest are printed. These two read 0 whenever the checker is right.
END_TO_END_PRINTED = {
    "failed_share": ("ratio", "lower"),
    "duplicate_share": ("ratio", "lower"),
    # Printed only: the tails follow the seconds-long swings of the
    # machine's speed, and their spread between runs of unchanged code
    # exceeded the largest bound allowed.
    "iteration_p99_ms": ("ms", "lower"),
    "program_p95_ms": ("ms", "lower"),
}
PER_LAYER = {
    "runtime.run_s": ("s", "lower"),
    "runtime.self_s": ("s", "lower"),
    "runtime.us_per_step": ("us", "lower"),
    "runtime.threads_started": ("count", "lower"),
    "runtime.replay_share": ("ratio", "lower"),
    "scheduler.pick_next_s": ("s", "lower"),
    "scheduler.decisions": ("count", "lower"),
    "scheduler.yield_share": ("ratio", "lower"),
    "dpor.on_execute_s": ("s", "lower"),
    "dpor.dependent_subset_s": ("s", "lower"),
    "dpor.additions": ("count", "lower"),
    "explorer.self_s": ("s", "lower"),
    "explorer.step_hook_self_s": ("s", "lower"),
    "explorer.store_select_s": ("s", "lower"),
    "explorer.store_flush_s": ("s", "lower"),
    "explorer.store_flush_bytes": ("bytes", "lower"),
    "explorer.store_live_peak": ("count", "lower"),
    "explorer.store_records_peak": ("count", "lower"),
    "explorer.points_banked_state": ("count", "lower"),
    "explorer.points_banked_lookback": ("count", "lower"),
    "explorer.points_taken": ("count", "lower"),
    "explorer.init_s": ("s", "lower"),
    "tracer.close_s": ("s", "lower"),
    "tracer.files_written": ("count", "lower"),
    "tracer.bytes_written": ("bytes", "lower"),
    "tracer.write_report_s": ("s", "lower"),
    "dispatch.encode_s": ("s", "lower"),
}
# Printed only: each reads 0 on the workloads that do not run its layer
# (race on the livelock workloads, dispatch on the single-node ones, race
# dodges without races, unfair prunes on all three today).
PER_LAYER_PRINTED = {
    "explorer.points_banked_race": ("count", "lower"),
    "explorer.unfair_share": ("ratio", "lower"),
    "race.on_pending_calls": ("count", "lower"),
    "race.on_pending_s": ("s", "lower"),
    "race.fired": ("count", "lower"),
    "dispatch.master_initial_s": ("s", "lower"),
    "dispatch.decode_s": ("s", "lower"),
    "dispatch.points_shipped": ("count", "lower"),
    "dispatch.worker_busy_s": ("s", "lower"),
    "dispatch.worker_overlap_s": ("s", "higher"),
    "tracing.overhead_s": ("s", "lower"),
}
LAYERS = ("bench", "runtime", "scheduler", "dpor", "explorer", "race", "tracer", "dispatch")


def load_shadowcheck() -> None:
    """Import shadowcheck from this checkout's ``src/``; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "shadowcheck" / "__init__.py").is_file():
        print(f"error: no shadowcheck sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import shadowcheck

    if Path(shadowcheck.__file__).resolve().parent != (src / "shadowcheck").resolve():
        print(f"error: shadowcheck imported from {shadowcheck.__file__}", file=sys.stderr)
        sys.exit(2)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


# -- set-up -------------------------------------------------------------------------


def warm_up() -> None:
    """Untimed explorations first, so no run starts on a cold machine."""
    from shadowcheck import ExplorationConfig, explore
    from shadowcheck.corpus import get_program

    OUT.mkdir(exist_ok=True)
    program = get_program("livelock-philosophers")
    deadline = time.perf_counter() + WARM_UP_SECONDS
    while time.perf_counter() < deadline:
        out_dir = tempfile.mkdtemp(prefix="warm-", dir=OUT)
        try:
            explore(program, ExplorationConfig(out_dir=out_dir, bound=20))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def setup_probe(workload: str, seed: int) -> None:
    """Fresh interpreter: import the package and build the workload's programs."""
    wl = workloads.WORKLOADS[workload]
    drawn = wl.drawn(seed)
    start = time.perf_counter()
    load_shadowcheck()
    wl.build(drawn)
    print(repr(time.perf_counter() - start))


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


# -- passes -------------------------------------------------------------------------


class Run:
    """One workload in this process: its operations, passes and checks."""

    def __init__(self, workload, ops: list) -> None:
        self.workload = workload
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.wrong_outputs = 0
        self.reasons: list[str] = []
        self.inconsistent: list[str] = []
        self.signatures: dict[int, tuple] = {}
        self.first_reports: dict[int, object] = {}
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))

    @classmethod
    def for_seed(cls, name: str, seed: int) -> "Run":
        workload = workloads.WORKLOADS[name]
        drawn = workload.drawn(seed)
        ops = workload.build(drawn)
        for op, verdict in zip(ops, workload.references(drawn)):
            op.reference = verdict
        return cls(workload, ops)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fail(self, i: int, reason: str, wrong_output: bool) -> None:
        """Count a failed operation; ``wrong_output`` marks a false report."""
        self.failed += 1
        self.wrong_outputs += wrong_output
        self.reasons.append(f"operation {i}: {reason}")

    def one_pass(self, probe, tracer=None, verify_replays: bool = False) -> dict:
        """Run every operation once; only the calls themselves are timed."""
        totals = {
            "wall": 0.0, "times": [], "intervals": [], "iterations": 0, "steps": 0,
            "replayed": 0, "threads": 0, "decisions": 0, "unfair": 0, "races": 0,
            "files_written": 0, "bytes_written": 0,
        }
        from shadowcheck import IterationOutcome

        root = tracer.name_id("bench.op") if tracer is not None else None
        for i, op in enumerate(self.ops):
            out_dir = Path(tempfile.mkdtemp(prefix=f"op{i}-", dir=self.tmp))
            probe.reset()
            self.attempted += 1
            frame = tracer.open(root) if tracer is not None else None
            start = time.perf_counter()
            try:
                report, error = op.call(out_dir), None
            except Exception as exc:  # a failed operation is counted, not fatal
                report, error = None, (f"raised {type(exc).__name__}: {exc}", False)
            end = time.perf_counter()
            if frame is not None:
                tracer.close(frame)
            totals["times"].append(end - start)
            previous = start
            for t in probe.ends:
                totals["intervals"].append(t - previous)
                previous = t
            totals["iterations"] += len(probe.ends)
            for key in ("steps", "replayed", "threads", "decisions"):
                totals[key] += getattr(probe, key)
            totals["unfair"] += probe.outcomes[IterationOutcome.UNFAIR_STOP]
            totals["races"] += probe.outcomes[IterationOutcome.DATA_RACE]
            traces = out_dir / "traces"
            written = [*traces.iterdir()] if traces.is_dir() else []
            totals["files_written"] += len(written)
            written.append(out_dir / "report.txt")
            totals["bytes_written"] += sum(p.stat().st_size for p in written if p.exists())
            if report is not None:
                violations = tuple(workloads.violation_list(report))
                self.check_repeat(i, (len(probe.ends), probe.steps, violations))
                problems = [workloads.verify_verdict(op, report, probe.terminals)]
                if verify_replays:
                    self.first_reports[i] = report
                    problems.append(workloads.verify_replays(op, report, out_dir))
                problems = [p for p in problems if p is not None]
                if problems:
                    error = ("; ".join(p[0] for p in problems), any(p[1] for p in problems))
            if error is not None:
                self.fail(i, *error)
            # Removed at once: files deleted before writeback never reach the
            # disk, so they cannot load it while later operations are timed.
            shutil.rmtree(out_dir, ignore_errors=True)
        totals["wall"] = sum(totals["times"])
        return totals

    def check_repeat(self, i: int, signature: tuple) -> None:
        first = self.signatures.setdefault(i, signature)
        if signature != first:
            self.inconsistent.append(
                f"operation {i}: iterations, steps or violations changed between passes "
                f"({first[:2]} then {signature[:2]})"
            )

    def check_single_node(self) -> None:
        """The unique violation set of a multi-node run equals the single-node set."""
        for i, report in self.first_reports.items():
            if self.ops[i].nodes == 1:
                continue
            out_dir = Path(tempfile.mkdtemp(prefix="single-", dir=self.tmp))
            error = workloads.verify_single_node(self.ops[i], report, out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            if error is not None:
                self.fail(i, *error)

    def duplicates(self) -> tuple[int, int]:
        """Reported and unique violations over the first pass."""
        reported = unique = 0
        for report in self.first_reports.values():
            found = workloads.violation_list(report)
            reported += len(found)
            unique += len(set(found))
        return reported, unique

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            # Correct: nothing reported is false and repeats agree. Missed
            # behaviours and raised errors count as failed operations.
            "correct": self.wrong_outputs == 0 and not self.inconsistent,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
        }


def measured_passes(seconds: float, make_pass) -> list[dict]:
    """Passes until ``seconds`` of measured time have accumulated; at least one."""
    passes: list[dict] = []
    measured = 0.0
    while not passes or measured < seconds:
        passes.append(make_pass(first=not passes))
        measured += passes[-1]["measured"]
    return passes


# -- end-to-end ---------------------------------------------------------------------


def end_to_end(run: Run, setup_s: float, seconds: float) -> tuple[dict, dict]:
    from spans import Patches, Probe, install_probe

    probe, patches = Probe(), Patches()
    install_probe(probe, patches)
    try:

        def make_pass(first: bool) -> dict:
            totals = run.one_pass(probe, verify_replays=first)
            totals["measured"] = totals["wall"]
            # After the first pass, so the figure does not depend on the
            # number of passes that fit in the run.
            totals["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            return totals

        passes = measured_passes(seconds, make_pass)
    finally:
        patches.undo()
    run.check_single_node()

    def per_pass(key: str, p: float) -> float:
        """Median over passes of each pass's percentile, so one disturbed
        pass does not set the tail."""
        return statistics.median(percentile(totals[key], p) for totals in passes)

    iterations = passes[0]["iterations"]
    reported, unique = run.duplicates()
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "iterations_per_s": statistics.median(p["iterations"] / p["wall"] for p in passes),
        "steps_per_s": statistics.median(p["steps"] / p["wall"] for p in passes),
        "iterations": iterations,
        "iterations_per_behaviour": iterations / sum(op.reference.behaviours for op in run.ops),
        "iteration_p50_ms": 1000 * per_pass("intervals", 50),
        "iteration_p99_ms": 1000 * per_pass("intervals", 99),
        "program_p50_ms": 1000 * per_pass("times", 50),
        "program_p95_ms": 1000 * per_pass("times", 95),
        "violations_per_unique": reported / unique if unique else 1.0,
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        "setup_s": setup_s,
        "failed_share": run.failed / run.attempted,
        "duplicate_share": (reported - unique) / reported if reported else 0.0,
    }
    info = {
        "passes": len(passes),
        "operations per pass": len(run.ops),
        "steps per pass": passes[0]["steps"],
        "iteration samples per pass": len(passes[0]["intervals"]),
        "program samples per pass": len(passes[0]["times"]),
        "violations reported/unique": f"{reported}/{unique}",
    }
    return metrics, info


# -- traced -------------------------------------------------------------------------


def layer_metrics(tracer, totals: dict) -> dict:
    """Per-layer figures of one traced pass."""
    total = tracer.by_name(tracer.total)
    own = tracer.by_name(tracer.self_time)
    calls = tracer.by_name(tracer.calls)

    def layer_self(layer: str) -> float:
        return sum(v for k, v in own.items() if k.startswith(layer + "."))

    steps = totals["steps"]
    counts, maxima = tracer.counts, tracer.maxima
    runtime_self = layer_self("runtime")
    workers = sorted(tracer.intervals("dispatch.serve_worker"))
    overlap = sum(
        max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
        for i, a in enumerate(workers)
        for b in workers[i + 1 :]
    )
    return {
        "runtime.run_s": total.get("runtime.run", 0.0),
        "runtime.self_s": runtime_self,
        "runtime.us_per_step": 1e6 * runtime_self / steps,
        "runtime.threads_started": totals["threads"],
        "runtime.replay_share": totals["replayed"] / steps,
        "scheduler.pick_next_s": total.get("scheduler.pick_next", 0.0),
        "scheduler.decisions": totals["decisions"],
        "scheduler.yield_share": (totals["decisions"] - steps) / totals["decisions"],
        "dpor.on_execute_s": total.get("dpor.on_execute", 0.0),
        "dpor.dependent_subset_s": total.get("dpor.dependent_subset", 0.0),
        "dpor.additions": counts["dpor.additions"],
        "explorer.self_s": layer_self("explorer"),
        "explorer.step_hook_self_s": own.get("explorer.step_hook", 0.0),
        "explorer.store_select_s": total.get("explorer.store_select", 0.0),
        "explorer.store_flush_s": total.get("explorer.store_flush", 0.0),
        "explorer.store_flush_bytes": counts["store_flush_bytes"],
        "explorer.store_live_peak": maxima["store_live_peak"],
        "explorer.store_records_peak": maxima["store_records_peak"],
        "explorer.points_banked_state": counts["points_banked_state"],
        "explorer.points_banked_lookback": counts["points_banked_lookback"],
        "explorer.points_banked_race": counts["points_banked_race"],
        "explorer.points_taken": calls.get("explorer.store_take", 0),
        "explorer.unfair_share": totals["unfair"] / totals["iterations"],
        "explorer.init_s": total.get("explorer.init", 0.0),
        "race.on_pending_calls": calls.get("race.on_pending", 0),
        "race.on_pending_s": total.get("race.on_pending", 0.0),
        "race.fired": totals["races"],
        "tracer.close_s": total.get("tracer.close_iteration", 0.0),
        "tracer.files_written": totals["files_written"],
        "tracer.bytes_written": totals["bytes_written"],
        "tracer.write_report_s": total.get("tracer.write_report", 0.0),
        "dispatch.master_initial_s": total.get("explorer.explore_initial", 0.0),
        "dispatch.encode_s": total.get("dispatch.encode_point", 0.0) + total.get("dispatch.encode_report", 0.0),
        "dispatch.decode_s": total.get("dispatch.decode_point", 0.0) + total.get("dispatch.decode_report", 0.0),
        "dispatch.points_shipped": calls.get("dispatch.decode_point", 0),
        "dispatch.worker_busy_s": total.get("dispatch.serve_worker", 0.0),
        "dispatch.worker_overlap_s": overlap,
    }


def self_time_by_layer(tracer) -> dict[str, float]:
    own = tracer.by_name(tracer.self_time)
    return {layer: sum(v for k, v in own.items() if k.startswith(layer + ".")) for layer in LAYERS}


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; report the traced layers."""
    from spans import Patches, Probe, Tracer, install_probe

    probe, tracer = Probe(), Tracer()
    layers, accounting = [], []

    def make_pass(first: bool) -> dict:
        patches = Patches()
        install_probe(probe, patches)
        try:
            plain = run.one_pass(probe, verify_replays=first)
        finally:
            patches.undo()
        tracer.reset()
        patches = Patches()
        tracer.install(probe, patches)
        try:
            totals = run.one_pass(probe, tracer=tracer)
        finally:
            patches.undo()
        layers.append(layer_metrics(tracer, totals))
        accounting.append(self_time_by_layer(tracer))
        return {"measured": plain["wall"] + totals["wall"], "plain": plain["wall"], "traced": totals["wall"]}

    passes = measured_passes(seconds, make_pass)
    run.check_single_node()
    metrics = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
    untraced_wall = statistics.median(p["plain"] for p in passes)
    traced_wall = statistics.median(p["traced"] for p in passes)
    # Each traced pass against the untraced pass just before it.
    metrics["tracing.overhead_s"] = statistics.median(p["traced"] - p["plain"] for p in passes)
    spans_file = OUT / f"spans-{run.workload.name}.bin.gz"
    count = tracer.write(spans_file)
    info = {
        "passes": len(passes),
        "untraced wall_s": untraced_wall,
        "traced wall_s": traced_wall,
        "accounting": accounting[-1],
        "last traced wall_s": passes[-1]["traced"],
        "spans": count,
        "spans file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, info


# -- output -------------------------------------------------------------------------


def show(workload: str, metrics: dict, units: dict, info: dict) -> None:
    for key, value in info.items():
        if key != "accounting":
            print(f"{workload}  {key}: {value}")
    for name, (unit, better) in units.items():
        print(f"{workload}  {name:34s} {metrics[name]:>16.6g} {unit:6s} ({better} is better)")
    if "accounting" in info:
        layers = info["accounting"]
        wall = info["last traced wall_s"]
        print(f"{workload}  self time by layer over the last traced pass ({wall:.4f} s):")
        for layer, seconds in layers.items():
            print(f"{workload}    {layer:10s} {seconds:10.4f} s  {100 * seconds / wall:6.2f} %")
        print(f"{workload}    {'sum':10s} {sum(layers.values()):10.4f} s  (traced wall {wall:.4f} s)")


def run_one(args) -> dict:
    load_shadowcheck()
    warm_up()
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    run = Run.for_seed(args.workload, args.seed)
    try:
        if args.trace:
            metrics, info = traced(run, args.seconds)
            show(args.workload, metrics, {**PER_LAYER, **PER_LAYER_PRINTED}, info)
            units = PER_LAYER
        else:
            metrics, info = end_to_end(run, setup_s, args.seconds)
            show(args.workload, metrics, {**END_TO_END, **END_TO_END_PRINTED}, info)
            units = END_TO_END
    finally:
        run.close()
    for reason in sorted(set(run.reasons))[:20] + run.inconsistent[:20]:
        print(f"{args.workload}  FAILED {reason}")
    unmeasured = [k for k in units if not metrics[k] or not math.isfinite(metrics[k])]
    if unmeasured:
        # A layer the harness no longer reaches, not a figure to compare.
        print(f"error: {args.workload}: {', '.join(unmeasured)} read 0 or not a number", file=sys.stderr)
        sys.exit(3)
    return run.result(metrics, units)


def run_all(args, names: list[str]) -> dict:
    """Each workload in a fresh process, so set-up and peak RSS are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            print(out.stdout, end="")
            sys.exit(out.returncode or 1)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS)
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(names)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run_all(args, names) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
