"""Benchmark of the cofsat pipeline: parse, decompose, leaf solve, gather, emit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process runs one workload as a closed
loop with one client: each call to ``cofsat.cli.run`` starts when the
previous one has returned and its output has been checked against the
benchmark's own oracle (``oracle.py``).  Inputs are DIMACS files generated
from the seed under ``.bench_out/``.  With ``--trace 0`` the loop makes whole
passes over the seed's instances, as many as fit in ``--seconds`` and at
least one, and the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` it runs each instance untraced and then traced
until ``--seconds`` are spent, and reports the per-layer metrics of
``tracing.py``.  A fuller report, with the machine and the sample count of
every metric, is written beside the inputs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gen
import oracle
import speed
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MODES = ("sat", "count", "allsat", "decompose")
SETUP_REPEATS = 21

# Times are rescaled to a reference speed of the host (see Calibration).
# REFERENCE_S is the time of speed.kernel at that speed, about its median on
# a 2-vCPU Intel Xeon host under CPython 3.11.
REFERENCE_S = 0.004
SPEED_WINDOW = 3  # kernel samples taken on each side of the timed work
SETUP_KERNEL_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    shapes: tuple[tuple[int, int], ...]  # (variables, clauses), cycled
    pool: int  # instances drawn from the seed; one pass is a fixed work unit
    options: dict = field(default_factory=dict)  # RunConfig fields

    @property
    def pivot(self) -> str:
        return self.options.get("pivot_strategy", "vars")

    @property
    def output_format(self) -> str:
        return self.options.get("output_format", "text")


# Each workload loads a different layer.  A pass over the pool takes 15-25 s
# at the reference speed, so a 30-second run makes one whole pass (more for a
# faster cofsat) and every commit is measured on the same instances.  With n0=8,
# n <= 16 keeps the variable-partition tree at two levels; at n=17 a third
# level makes calls four times slower and their times bimodal.
WORKLOADS = {
    # Threshold ratio 4.26, few models: building the variable-partition tree
    # (choose_var_subset, the 2^|X1| enumeration, substitute) is most of a
    # call.
    "hard-vars": Workload(
        shapes=((15, 64), (16, 68)), pool=220,
        options=dict(pivot_strategy="vars", n0=8, jobs=1)),
    # One clause-pivot level gives 7 large leaves, so all_solutions on the
    # leaves dominates.  --jobs 1: worker threads may run the leaves on the
    # other vCPU, whose speed the kernel on the main thread does not see.
    "clause-pivot": Workload(
        shapes=((14, 42), (15, 55), (16, 68), (15, 64)), pool=96,
        options=dict(pivot_strategy="clause", pivot_clause=0, jobs=1)),
    # --verify with JSON output: the only CLI path into boolfn, whose truth
    # tables dominate at n=16 while per-call costs dominate at n=12.  One
    # shape in six is n=16, so the medians fall inside the n=13 calls and p90
    # inside the n=16 ones, which take about 70% of a pass.
    "small-verify": Workload(
        shapes=((16, 68), (12, 51), (13, 55), (13, 50), (12, 45), (14, 60),
                (16, 64), (13, 48), (12, 48), (13, 52), (14, 56), (12, 42)),
        pool=48, options=dict(verify=True, output_format="json")),
}

END_TO_END_UNITS = {
    "calls_per_s": "1/s",
    "latency_s_p50": "s",
    "latency_s_p90": "s",
    "sat_s_p50": "s",
    "count_s_p50": "s",
    "allsat_s_p50": "s",
    "decompose_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Set-up is timed in fresh interpreters: from just before ``import
# cofsat.cli`` until a RunConfig for the first call exists.  Each probe first
# times speed.kernel, which imports nothing, to rescale its own set-up time.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import speed
kernel_s = speed.kernel_seconds(int(sys.argv[4]), time.perf_counter)
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import cofsat.cli
cofsat.cli.RunConfig(input_path=sys.argv[3], mode="sat")
print(time.perf_counter() - start, kernel_s)
"""


class Calibration:
    """The host's speed, from speed.kernel timed between pieces of work.

    The speed of a shared host drifts by tens of percent within a minute,
    and CPU time drifts with it, so every time is rescaled to the reference
    speed: ``t * REFERENCE_S / k``, where ``k`` is the median kernel time
    of the SPEED_WINDOW samples on each side of ``t``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def tick(self) -> int:
        """Time the kernel once; returns the index of the sample."""
        start = perf_counter()
        speed.kernel()
        self.samples.append(perf_counter() - start)
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Factor for work done between samples k and k+1."""
        window = self.samples[max(0, k - SPEED_WINDOW + 1):k + SPEED_WINDOW + 1]
        return REFERENCE_S / statistics.median(window)


@dataclass
class Call:
    mode: str
    seconds: float
    error: str | None


@dataclass
class Loop:
    calls: list[Call] = field(default_factory=list)

    @property
    def busy(self) -> float:  # time inside cli.run, checking excluded
        return sum(c.seconds for c in self.calls)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.calls if c.error is not None)


def visit(cli, workload: Workload, inst, want) -> list[Call]:
    """Call cli.run on one instance in every mode, in a fixed order, and
    check each output."""
    calls = []
    for mode in MODES:
        config = cli.RunConfig(input_path=str(inst.path), mode=mode,
                               **workload.options)
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            status = cli.run(config, out, err)
        except Exception as exc:  # a crash is a failed call, not the end
            traceback.print_exc()
            status, crash = None, f"raised {exc!r}"
        else:
            crash = None
        elapsed = perf_counter() - start
        error = crash or check(mode, workload, status, out.getvalue(), want)
        if error is not None:
            stderr = err.getvalue().strip()
            print(f"FAIL instance {inst.index} ({inst.path.name}) mode "
                  f"{mode}: {error}" + (f" [stderr: {stderr[:200]}]"
                                        if stderr else ""),
                  file=sys.stderr)
        calls.append(Call(mode, elapsed, error))
    return calls


def check(mode, workload, status, out, want) -> str | None:
    try:
        return oracle.check_output(mode, workload.output_format,
                                   workload.pivot, status, out, want,
                                   workload.options.get("pivot_clause", 0))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def end_to_end(per_key: dict, setup: list[float]) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count).

    ``per_key`` maps (instance, mode) to that call's rescaled times, one per
    pass; each key counts once, with its median over the passes.
    """
    typical = {key: statistics.median(ts) for key, ts in per_key.items()}
    times = list(typical.values())
    calls = sum(len(ts) for ts in per_key.values())
    total = sum(sum(ts) for ts in per_key.values())
    out = {
        "calls_per_s": (calls / total, calls),
        "latency_s_p50": (statistics.median(times), len(times)),
        "latency_s_p90": (stats.percentile(times, 90), len(times)),
    }
    for mode in MODES:
        mode_times = [t for (_, m), t in typical.items() if m == mode]
        out[f"{mode}_s_p50"] = (statistics.median(mode_times), len(mode_times))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (rss_kb / 1024, 1)
    out["setup_s"] = (statistics.median(setup), len(setup))
    return out


def time_setup(sample: Path) -> list[float]:
    """Set-up times of SETUP_REPEATS fresh interpreters, each rescaled by
    the kernel time that its own interpreter measured."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH), str(SRC),
             str(sample), str(SETUP_KERNEL_REPEATS)],
            capture_output=True, text=True, timeout=120, check=True)
        seconds, kernel_s = map(float, proc.stdout.split())
        times.append(seconds * REFERENCE_S / kernel_s)
    return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def prepare(name: str, seed: int) -> tuple[list, dict, Path]:
    """Write the seed's instances and manifest; solve each with the oracle."""
    workload = WORKLOADS[name]
    run_dir = OUT / f"{name}-seed{seed}"
    instances = gen.generate(name, seed, list(workload.shapes), workload.pool,
                             run_dir)
    expected = {}
    for inst in instances:
        if inst.sha256 not in expected:
            expected[inst.sha256] = oracle.solve(inst.clauses, inst.num_vars)
    manifest = [{"file": inst.path.name, "n": inst.num_vars,
                 "m": inst.num_clauses, "seed": seed, "sha256": inst.sha256,
                 "models": expected[inst.sha256].count} for inst in instances]
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return instances, expected, run_dir


def traced_run(cofsat, workload, instances, expected, run_dir, seconds):
    """Per-layer metrics from instances in pool order, each run untraced and
    then traced, until ``seconds`` are spent or the pool is done; both call
    rates see the same machine load.  Layer times are rescaled by the run's
    median kernel time."""
    plain, traced, tracer = Loop(), Loop(), tracing.Tracer()
    calib = Calibration()
    start = perf_counter()
    for inst in instances:
        want = expected[inst.sha256]
        calib.tick()
        plain.calls += visit(cofsat.cli, workload, inst, want)
        tracing.install(tracer, cofsat)
        try:
            traced.calls += visit(cofsat.cli, workload, inst, want)
        finally:
            tracer.uninstall()
        if perf_counter() - start >= seconds:
            break
    tracer.write_spans(run_dir / "spans.jsonl")
    values = tracer.layer_metrics()
    scale = REFERENCE_S / statistics.median(calib.samples)
    metrics = {name: (values[name] * (scale if unit == "s" else 1),
                      tracer.call_id)
               for name, unit in tracing.LAYER_METRICS.items()}
    metrics["trace.overhead_ratio"] = (
        traced.busy / plain.busy, len(plain.calls) + len(traced.calls))
    units = {**tracing.LAYER_METRICS, "trace.overhead_ratio": "ratio"}
    info = {"instances_run": len(plain.calls) // len(MODES),
            "loop_s": round(perf_counter() - start, 3),
            "kernel_s_median": statistics.median(calib.samples)}
    return [plain, traced], metrics, units, tracer.missing, info


def timed_run(cofsat, workload, instances, expected, seconds):
    """End-to-end metrics with tracing off, from whole passes over the pool:
    another pass starts only if it is expected to end within ``seconds``."""
    setup = time_setup(instances[0].path)
    calib = Calibration()
    loop = Loop()
    visits = []  # (instance index, its calls, kernel sample taken before)
    passes, start = 0, perf_counter()
    while True:
        pass_start = perf_counter()
        for inst in instances:
            k = calib.tick()
            calls = visit(cofsat.cli, workload, inst, expected[inst.sha256])
            loop.calls += calls
            visits.append((inst.index, calls, k))
        passes += 1
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    calib.tick()
    per_key: defaultdict = defaultdict(list)
    for index, calls, k in visits:
        for call in calls:
            per_key[index, call.mode].append(call.seconds * calib.scale(k))
    info = {"passes": passes, "loop_s": round(perf_counter() - start, 3),
            "wall_calls_per_s": round(len(loop.calls) / loop.busy, 4),
            "kernel_s_median": statistics.median(calib.samples)}
    return [loop], end_to_end(per_key, setup), END_TO_END_UNITS, {}, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "cofsat" / "cli.py").is_file():
        print(f"error: no cofsat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cofsat.cli  # also compiles the bytecode the set-up probes load

    workload = WORKLOADS[args.workload]
    start = perf_counter()
    instances, expected, run_dir = prepare(args.workload, args.seed)
    prepare_s = perf_counter() - start
    if args.trace:
        loops, metrics, units, missing, info = traced_run(
            cofsat, workload, instances, expected, run_dir, args.seconds)
    else:
        loops, metrics, units, missing, info = timed_run(
            cofsat, workload, instances, expected, args.seconds)
        if not stats.tail_is_sampled(metrics["latency_s_p90"][1], 90):
            print(f"warning: fewer than {stats.MIN_BEYOND_TAIL} samples "
                  "beyond latency_s_p90", file=sys.stderr)

    attempted = sum(len(lp.calls) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "platform": platform.platform(),
        "instances": len(instances), "prepare_s": round(prepare_s, 3),
        **info, "busy_s": round(sum(lp.busy for lp in loops), 3),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
    }
    for key, value in header.items():
        print(f"# {key}: {value}")
    report = {}
    for name, (value, samples) in metrics.items():
        note = f"  MISSING: {missing[name]}" if name in missing else ""
        print(f"{name:34s} {value:14.6g} {units[name]:6s} n={samples}{note}")
        report[name] = {"value": value, "unit": units[name], "samples": samples}
    result = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result.write_text(json.dumps({"header": header, "metrics": report,
                                  "missing": missing}, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
