#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fluid-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
instrumentation.  Every time is taken between two runs of a fixed
calibration workload and reported at the reference host speed (see
``hostspeed.py``); the raw medians are printed before the result.
``--trace 1`` alternates untraced passes with passes in
which the layers of ``spans.py`` are wrapped, and reports the per-layer
metrics: self times and work counts per pass, the share of traced time the
layers cover and the tracing overhead.  ``--workload all`` runs every
workload in its own child process (so each reports its own peak memory) and
ends with one combined line.  ``--size tiny`` runs the same code on small
inputs; the benchmark's tests use it.

The last line of standard output is the JSON result; the lines before it
state the provenance, the error rate, the tail percentile and whether the
work counts repeated.  The program under test is imported from ``src/`` of
the checkout that holds this script.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fluid-sweep", "single-replica", "equilibrium", "cg-city")
# Set-up runs at least SETUP_REPEATS times, and more (up to SETUP_MAX) while
# the repeats have taken under SETUP_BUDGET_S, so a quick set-up gets a
# steadier median.
SETUP_REPEATS = 3
SETUP_MAX = 15
SETUP_BUDGET_S = 2.0
MIN_PASSES = 3
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Cap BLAS/OpenMP threads at ``nproc``; must run before numpy loads."""
    limit = nproc()
    for variable in BLAS_THREAD_VARIABLES:
        value = os.environ.get(variable, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[variable] = str(limit)


def git_revision() -> str:
    """Read the checked-out commit from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "nproc": nproc(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARIABLES},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """Return (value, percentile, samples beyond) of the tail percentile.

    That is the highest percentile with at least ten samples beyond it, but
    never below the 90th: with fewer than 100 samples the 90th percentile
    (interpolated) is reported, with fewer than ten samples beyond it.  A
    percentile that followed the sample count would move between runs as
    the number of passes that fit in ``--seconds`` changes.
    """
    import numpy as np

    count = len(samples)
    percentile = max(90.0, 100.0 * (count - 10) / count)
    value = float(np.percentile(samples, percentile))
    return value, percentile, sum(1 for sample in samples if sample > value)


def declared_metrics(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as declared in ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


class Tally:
    """Attempted and failed operations over all checked passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        for problem in problems[:5]:
            print(f"failed: {problem}", file=sys.stderr)


def timed_pass(workload, reference, tally: Tally, clock):
    """Run and check one pass.

    Return (wall seconds, call latencies, raw wall seconds, factor), the
    first two at reference host speed (``clock`` is a ``HostClock``), or
    None when the pass raised.
    """
    gc.collect()
    try:
        (latencies, outputs), raw, factor = clock.around(workload.run_pass)
    except Exception:  # a raising pass fails all its operations
        traceback.print_exc()
        tally.add(workload.operations, ["pass raised"] * workload.operations)
        return None
    verdict = workload.check(outputs, reference)
    tally.add(verdict.attempted, verdict.problems)
    return raw * factor, [latency * factor for latency in latencies], raw, factor


def end_to_end(workload, walls, latencies, setups) -> Dict[str, float]:
    """``latencies`` holds one list of call latencies per pass."""
    wall = statistics.median(walls)
    calls = [latency for latencies_of_pass in latencies for latency in latencies_of_pass]
    value, percentile, beyond = tail(calls)
    print(f"run_tail_ms: p{percentile:.1f} of {len(calls)} call samples ({beyond} beyond it)")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "row_phases_per_s": workload.row_phases / wall,
        # Every pass makes the same calls, so the median of the passes'
        # medians is the typical call; pooling would put the median between
        # two different kinds of call when a pass holds an even number.
        "run_p50_ms": 1e3 * statistics.median(statistics.median(p) for p in latencies),
        "run_tail_ms": 1e3 * value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(summaries, traced_walls, untraced_walls) -> Tuple[Dict[str, float], List[str]]:
    """Average the traced passes' summaries; list the counts that differ."""
    from spans import ENGINES

    keys = set().union(*summaries)
    metrics = {key: statistics.fmean(s.get(key, 0.0) for s in summaries) for key in keys}
    candidates = metrics.get("largescale.columns.candidates", 0.0)
    metrics["largescale.columns.added_ratio"] = (
        metrics.get("largescale.columns.added", 0.0) / candidates if candidates else 0.0
    )
    covered = sum(
        value for key, value in metrics.items()
        if key.endswith(".self_s") and key[: -len(".self_s")] not in ENGINES
    )
    metrics["trace.covered_frac"] = covered / statistics.fmean(traced_walls)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    # Everything but a time is a work count, and must repeat exactly.
    unstable = sorted(
        key for key in keys
        if not key.endswith(".self_s") and len({s.get(key, 0.0) for s in summaries}) > 1
    )
    return metrics, unstable


def run_workload(args) -> Dict[str, object]:
    from hostspeed import HostClock
    from workloads import WORKLOADS

    with HostClock(WORKLOADS[args.workload].CALIBRATION) as clock:
        return measure_workload(args, clock)


def measure_workload(args, clock) -> Dict[str, object]:
    from workloads import WORKLOADS, load_reference

    cls = WORKLOADS[args.workload]
    setups: List[float] = []
    raw_setups: List[float] = []
    while len(setups) < SETUP_REPEATS or (len(setups) < SETUP_MAX and sum(raw_setups) < SETUP_BUDGET_S):
        workload = None  # free the previous set-up before timing the next
        gc.collect()
        workload, raw, factor = clock.around(lambda: cls(args.size, args.seed))
        raw_setups.append(raw)
        setups.append(raw * factor)
    reference = load_reference(args.size, args.workload)
    tally = Tally()
    walls: List[float] = []
    raw_walls: List[float] = []
    factors: List[float] = []
    latencies: List[List[float]] = []
    traced_walls: List[float] = []
    summaries: List[Dict[str, float]] = []
    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
    # Rounds of one untraced pass (plus one traced pass in a traced run)
    # continue while another typical round still fits in --seconds.
    least = 2 if args.trace else MIN_PASSES
    rounds: List[float] = []
    begin = perf_counter()
    while len(rounds) < least or perf_counter() - begin + statistics.median(rounds) <= args.seconds:
        round_begin = perf_counter()
        outcome = timed_pass(workload, reference, tally, clock)
        if outcome is not None:
            walls.append(outcome[0])
            latencies.append(outcome[1])
            raw_walls.append(outcome[2])
            factors.append(outcome[3])
        if recorder is not None:
            recorder.reset()
            recorder.install()
            try:
                outcome = timed_pass(workload, reference, tally, clock)
            finally:
                recorder.uninstall()
            if outcome is not None:
                traced_walls.append(outcome[0])
                summaries.append({
                    key: value * outcome[3] if key.endswith(".self_s") else value
                    for key, value in recorder.summary().items()
                })
        rounds.append(perf_counter() - round_begin)
    if not walls or (recorder is not None and not traced_walls):
        raise RuntimeError("every pass raised; nothing was measured")

    print(
        f"raw (not normalised): setup_s median {statistics.median(raw_setups):.6g}, "
        f"pass median {statistics.median(raw_walls):.6g} s; host speed factor median "
        f"{statistics.median(factors):.4g} (range {min(factors):.4g}-{max(factors):.4g})"
    )
    unstable: List[str] = []
    if recorder is None:
        computed = end_to_end(workload, walls, latencies, setups)
    else:
        computed, unstable = per_layer(summaries, traced_walls, walls)
        print(f"work counts repeat exactly: {not unstable}" + (f" ({unstable})" if unstable else ""))
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"error_rate: {error_rate:.6g} ({tally.failed} of {tally.attempted} operations failed)")
    # A layer that does not run on this workload leaves no spans: it reads 0.
    metrics = {
        name: {"value": float(computed.get(name, 0.0) if args.trace else computed[name]), "unit": unit}
        for name, unit in declared_metrics(args.trace).items()
    }
    return {
        "correct": tally.failed == 0 and not unstable,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def run_all(args) -> Dict[str, object]:
    """Run each workload in a child process; combine their result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
        lines = child.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    print("provenance: " + json.dumps(provenance(args), sort_keys=True))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
