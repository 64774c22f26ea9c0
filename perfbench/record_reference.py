#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every input of every workload's seed menu (both sizes) and writes
``perfbench/reference.json``.  Run it only when the program's results are
meant to change; a kernel that changes them by accident must fail the
benchmark's checks instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fluid_sweep(size: str) -> dict:
    import repro.experiments as experiments
    from workloads import FluidSweep

    workload = FluidSweep(size, seed=0)
    menu = len(workload.starts) * len(workload.flows)
    rows = len(workload.cases)
    reference = {}
    for first in range(0, menu, rows):
        entries = range(first, min(first + rows, menu))
        result = experiments.run_cases(
            [workload.case(entry) for entry in entries], workload.row_builder
        )
        for entry, row in zip(entries, result.rows):
            reference[str(entry)] = workload.fingerprint(row["final"])
    return reference


def single_replica(size: str) -> dict:
    from workloads import SIZES, SingleReplica

    spec = SIZES[size][SingleReplica.name]
    workload = SingleReplica(size, seed=0)
    reference = {}
    for name in workload.INSTANCES:
        for label in workload.RUNS:
            choices = spec["agent_seeds" if label == "agents" else "flows"]
            for choice in range(choices):
                reference[f"{name}/{label}/{choice}"] = workload.run_one(name, label, choice).tolist()
    return reference


def equilibrium(size: str) -> dict:
    from workloads import Equilibrium

    result = Equilibrium(size, seed=0).solve()
    return {"tstt": result.tstt, "iterations": result.iterations}


def dump(reference: dict) -> str:
    """Format as JSON with one recorded output per line."""
    lines = ["{"]
    for i, size in enumerate(sorted(reference)):
        lines.append(f" {json.dumps(size)}: {{")
        workloads = sorted(reference[size])
        for j, workload in enumerate(workloads):
            entries = sorted(reference[size][workload].items())
            lines.append(f"  {json.dumps(workload)}: {{")
            lines.extend(
                f"   {json.dumps(key)}: {json.dumps(value)}" + ("," if k < len(entries) - 1 else "")
                for k, (key, value) in enumerate(entries)
            )
            lines.append("  }" + ("," if j < len(workloads) - 1 else ""))
        lines.append(" }" + ("," if i < len(reference) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> int:
    from run import pin_blas_threads

    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    recorders = {
        "fluid-sweep": fluid_sweep,
        "single-replica": single_replica,
        "equilibrium": equilibrium,
        # cg-city rows are checked by their duality-gap certificates.
        "cg-city": lambda size: {},
    }
    reference = {
        size: {name: record(size) for name, record in recorders.items()}
        for size in ("tiny", "full")
    }
    path = Path(__file__).with_name("reference.json")
    path.write_text(dump(reference))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
