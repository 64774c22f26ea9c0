"""E8 -- throughput of one batched run vs. a loop of one-row batches.

The batched engine integrates a whole ensemble of replicas as one stacked
``(B, P)`` array -- including *multi-network* ensembles where every replica
routes on its own same-topology instance with different latency
coefficients.  This benchmark builds the acceptance workload of the
family-batching layer: a 64-case two-link sweep whose slope coefficient
``beta`` differs per case, run once as one `NetworkFamily` batched
integration and once as a per-case loop of ``simulate`` calls, each of which
is a one-row batch.  The 64-row run must be at least 10x faster and
bit-equivalent to the one-row runs; in practice the gap is well over an
order of magnitude.

The one-row loop is timed on an 8-case subsample to keep the benchmark
quick: every case has the same horizon, resolution and nearly the same
period, hence the same per-case cost, so the subsample rate is an unbiased
estimate of the full loop's rate.

Script mode (``python benchmarks/bench_batch_throughput.py [--smoke]``)
additionally measures the *telemetry overhead guarantee*: the instrumented
engines must cost < 2% extra when no telemetry session is active.  The check
combines an end-to-end enabled-vs-disabled timing with a deterministic
microbenchmark bound (null-op cost x instrumentation calls per run).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import print_table
from repro.batch import distance_stop, simulate_batch
from repro.core import LinearMigration, ReroutingPolicy, UniformSampling, simulate
from repro.experiments import group_key
from repro.analysis.sweeps import SweepCase
from repro.instances import two_link_network
from repro.telemetry import get_telemetry, telemetry_session
from repro.telemetry.bench import bench_timer, emit_record
from repro.wardrop import FlowVector, NetworkFamily

NUM_CASES = 64
SCALAR_SAMPLE = 8
PERIODS = [0.08, 0.1]
HORIZON = 2.0
STEPS_PER_PHASE = 20
BETAS = np.linspace(2.0, 6.0, NUM_CASES)


def build_family_sweep():
    """Return the 64-network family and its per-case configurations."""
    family = NetworkFamily([two_link_network(beta=beta) for beta in BETAS])
    # One shared policy for the whole family: uniform sampling is
    # network-independent and the linear migration rule uses the family-wide
    # latency bound, so the fully vectorised sigma/mu path applies.
    policy = ReroutingPolicy(
        sampling=UniformSampling(),
        migration=LinearMigration(family.max_latency()),
        name="uniform+linear(family)",
    )
    rng = np.random.default_rng(42)
    starts = [FlowVector.random(network, rng) for network in family.networks]
    periods = [PERIODS[i % len(PERIODS)] for i in range(NUM_CASES)]
    return family, policy, starts, periods


@pytest.mark.experiment("E8")
def test_family_batch_vs_one_row_loop_throughput(report_header):
    family, policy, starts, periods = build_family_sweep()

    # The runner fuses all 64 same-topology/different-coefficient cases into
    # one batch group -- no process pool involved.
    cases = [
        SweepCase({"beta": float(BETAS[i])}, family.member(i), policy, periods[i], HORIZON)
        for i in range(NUM_CASES)
    ]
    assert len({group_key(case) for case in cases}) == 1

    loop_final = []
    with bench_timer(
        "bench_batch_throughput", "E8 one-row batch loop",
        engine="fluid-batch", instance="two-links-family", cases=SCALAR_SAMPLE,
    ) as loop_timer:
        for row in range(SCALAR_SAMPLE):
            trajectory = simulate(
                family.member(row), policy, update_period=periods[row], horizon=HORIZON,
                initial_flow=starts[row], steps_per_phase=STEPS_PER_PHASE,
            )
            loop_final.append(trajectory.final_flow.values())
    loop_seconds = loop_timer.seconds
    loop_rate = loop_timer.rate

    with bench_timer(
        "bench_batch_throughput", "E8 family batch",
        engine="fluid-batch", instance="two-links-family", cases=NUM_CASES,
    ) as batch_timer:
        result = simulate_batch(
            family, policy, periods, HORIZON,
            initial_flows=starts, steps_per_phase=STEPS_PER_PHASE,
        )
    batch_seconds = batch_timer.seconds
    batch_rate = batch_timer.rate

    speedup = batch_rate / loop_rate
    print_table(
        [
            {
                "engine": "one-row batch loop",
                "cases": SCALAR_SAMPLE,
                "seconds": loop_seconds,
                "cases/sec": loop_rate,
            },
            {
                "engine": "BatchSimulator (family)",
                "cases": NUM_CASES,
                "seconds": batch_seconds,
                "cases/sec": batch_rate,
            },
            {"engine": "speedup", "cases/sec": speedup},
        ],
        title=(
            f"E8: family-batched vs one-row loop throughput "
            f"({NUM_CASES}-case two-link beta sweep)"
        ),
    )

    # The batched rows must agree with the one-row runs they replace.
    final = result.final_flows()
    for row, loop_values in enumerate(loop_final):
        assert np.allclose(final[row], loop_values, atol=1e-10)
    assert speedup >= 10.0, f"family-batched engine only {speedup:.1f}x faster"


@pytest.mark.experiment("E8")
def test_early_stopping_saves_steps_on_convergence_sweep(report_header):
    """Frozen rows skip work: a convergence sweep with stop_when finishes
    integrating far fewer phases than the full-horizon run."""
    family, policy, _, _ = build_family_sweep()
    starts = [FlowVector(network, [0.9, 0.1]) for network in family.networks]
    periods = [0.1] * NUM_CASES
    horizon = 40.0
    targets = [FlowVector(network, [0.5, 0.5]) for network in family.networks]
    condition = distance_stop(targets, 1e-3)

    with bench_timer(
        "bench_batch_throughput", "E8b stop_when",
        engine="fluid-batch", instance="two-links-family", cases=NUM_CASES,
        early_stopping=True,
    ) as stopped_timer:
        stopped = simulate_batch(
            family, policy, periods, horizon,
            initial_flows=starts, steps_per_phase=10, stop_when=condition,
        )
    stopped_seconds = stopped_timer.seconds

    with bench_timer(
        "bench_batch_throughput", "E8b full horizon",
        engine="fluid-batch", instance="two-links-family", cases=NUM_CASES,
        early_stopping=False,
    ) as full_timer:
        full = simulate_batch(
            family, policy, periods, horizon, initial_flows=starts, steps_per_phase=10,
        )
    full_seconds = full_timer.seconds

    integrated_phases = int((stopped.num_points - 1).sum())
    full_phases = int((full.num_points - 1).sum())
    print_table(
        [
            {"run": "stop_when", "phases": integrated_phases, "seconds": stopped_seconds},
            {"run": "full horizon", "phases": full_phases, "seconds": full_seconds},
        ],
        title="E8b: early stopping on a 64-row convergence sweep",
    )
    assert stopped.stopped_rows().all()
    assert integrated_phases < full_phases / 2


@pytest.mark.experiment("E8")
def test_benchmark_family_batched_sweep(benchmark, report_header):
    family, policy, starts, periods = build_family_sweep()

    def run():
        return simulate_batch(
            family, policy, periods, HORIZON,
            initial_flows=starts, steps_per_phase=STEPS_PER_PHASE,
        )

    result = benchmark(run)
    assert result.batch_size == NUM_CASES


# Script mode: the telemetry overhead guarantee ------------------------------

OVERHEAD_BUDGET = 0.02  # instrumentation must cost < 2% with telemetry off


def _best_run_seconds(repeats: int) -> float:
    """Best-of-``repeats`` wall time of the family-batched integration."""
    family, policy, starts, periods = build_family_sweep()
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        simulate_batch(
            family, policy, periods, HORIZON,
            initial_flows=starts, steps_per_phase=STEPS_PER_PHASE,
        )
        best = min(best, time.perf_counter() - begin)
    return best


def _null_op_seconds(samples: int = 50_000) -> float:
    """Measure the cost of one disabled span + counter + event round."""
    tele = get_telemetry()
    assert not tele.enabled, "overhead microbenchmark needs telemetry off"
    counter = tele.counter("bench.overhead")
    begin = time.perf_counter()
    for _ in range(samples):
        with tele.span("phase", index=0, active_rows=64):
            counter.add()
            tele.event("bulletin_refresh", rows=64)
    return (time.perf_counter() - begin) / samples


def measure_overhead(repeats: int):
    """Return the overhead report rows of the disabled-telemetry guarantee.

    Two complementary measurements:

    * ``measured``: end-to-end enabled-vs-disabled delta of the batched
      integration (noisy on CI runners -- reported, not asserted);
    * ``bounded``: a deterministic upper bound with telemetry *off* -- the
      per-phase null-op cost times the instrumentation call volume of one
      run, relative to its wall time.  This is the < 2% assertion.
    """
    # Warm-up pass so allocator/JIT-ish effects do not bias the first timing.
    _best_run_seconds(1)
    disabled = _best_run_seconds(repeats)
    with telemetry_session():
        enabled = _best_run_seconds(repeats)
    null_op = _null_op_seconds()
    # One run integrates <= ceil(HORIZON / min period) phases; each phase
    # issues a handful of span/counter/event calls (phase + field_eval +
    # integrate + refresh bookkeeping).  Budget 8 null-op rounds per phase.
    phases = int(np.ceil(HORIZON / min(PERIODS)))
    bound = phases * 8 * null_op / disabled
    measured = enabled / disabled - 1.0
    return disabled, enabled, measured, bound


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="fewer repeats (CI smoke job)"
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the enabled-telemetry pass's JSONL trace to this file",
    )
    args = parser.parse_args(argv)
    repeats = 2 if args.smoke else 5

    disabled, enabled, measured, bound = measure_overhead(repeats)
    if args.trace is not None:
        with telemetry_session(trace_path=args.trace):
            _best_run_seconds(1)
        print(f"wrote trace {args.trace}")

    family_batch = bench_timer(
        "bench_batch_throughput", "overhead baseline",
        engine="fluid-batch", instance="two-links-family", cases=NUM_CASES,
    )
    family_batch.seconds = disabled
    emit_record(family_batch.record())

    print_table(
        [
            {
                "telemetry": "off",
                "seconds": disabled,
                "cases/sec": NUM_CASES / disabled,
                "overhead": "-",
            },
            {
                "telemetry": "on",
                "seconds": enabled,
                "cases/sec": NUM_CASES / enabled,
                "overhead": f"{measured:+.2%}",
            },
            {
                "telemetry": "off (bound)",
                "seconds": disabled,
                "cases/sec": NUM_CASES / disabled,
                "overhead": f"{bound:.2%}",
            },
        ],
        title=(
            f"telemetry overhead, family-batched sweep "
            f"({NUM_CASES} cases, best of {repeats})"
        ),
    )
    if bound >= OVERHEAD_BUDGET:
        print(
            f"FAIL: disabled-telemetry overhead bound {bound:.2%} "
            f">= budget {OVERHEAD_BUDGET:.0%}"
        )
        return 1
    print(
        f"OK: disabled-telemetry overhead bound {bound:.2%} "
        f"< budget {OVERHEAD_BUDGET:.0%} "
        f"(measured enabled-vs-disabled delta {measured:+.2%})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
