"""Spans around the program's public functions, recorded from outside ``src/``.

:class:`SpanRecorder` wraps each function named in :data:`LAYERS` for the
duration of a traced pass: every wrapped call becomes a span (name, start,
end, parent) held in flat arrays, and :meth:`SpanRecorder.summary` turns the
spans into per-layer self times -- a span's duration minus the part covered
by its wrapped children -- plus call counts and the work counts the hooks
read from arguments and results.  A call of a layer made directly inside a
span of the same layer (a method delegating to a sibling, a subclass calling
its base) is not a new span.

Wrapping replaces the function object wherever a ``repro`` module holds it:
as a class attribute (on the class and every subclass that overrides it), as
a module attribute (re-exports and ``from x import f`` copies) and as a value
of a module-level dict (stepper registries).  :meth:`SpanRecorder.uninstall`
puts every original back.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Engine entry points: their self time is the engine's own per-phase work,
# and they do not count as covered layer time.
ENGINES = (
    "batch.engine",
    "core.simulator",
    "core.agents",
    "largescale.batch_columns",
    "experiments.runner",
    "solvers.edge_frank_wolfe",
)

Hook = Callable[[tuple, dict, object], Dict[str, int]]


def _projected_rows(args, kwargs, result):
    return {"wardrop.flow.project_batch.rows": int(np.shape(result)[0])}


def _posted_rows(args, kwargs, result):
    path_flows = args[2] if len(args) > 2 else kwargs["path_flows"]
    mask = args[3] if len(args) > 3 else kwargs.get("mask")
    rows = int(np.count_nonzero(mask)) if mask is not None else len(path_flows)
    return {"batch.board.post_rows.rows": rows}


def _table_entries(args, kwargs, result):
    return {"core.migration.table_entries": int(np.size(result))}


def _row_phases(args, kwargs, result):
    return {"batch.engine.row_phases": int(np.sum(result.num_points - 1))}


def _columns(args, kwargs, result):
    paths = args[1] if len(args) > 1 else kwargs["paths"]
    return {"largescale.columns.candidates": len(paths), "largescale.columns.added": len(result)}


def _iterations(args, kwargs, result):
    return {"solvers.edge_frank_wolfe.iterations": int(result.iterations)}


# (layer, module, class or None, attributes, hook, span).  A layer without a
# span only counts calls; a hook returns work counts read from the call.
LAYERS: List[Tuple[str, str, Optional[str], Tuple[str, ...], Optional[Hook], bool]] = [
    ("core.migration.matrix_batch", "repro.core.migration", "MigrationRule",
     ("matrix_batch",), _table_entries, True),
    ("core.migration.matrix", "repro.core.migration", "MigrationRule",
     ("matrix",), _table_entries, True),
    ("core.sampling.probabilities_batch", "repro.core.sampling", "SamplingRule",
     ("probabilities_batch",), None, True),
    ("core.sampling.probabilities", "repro.core.sampling", "SamplingRule",
     ("probabilities",), None, True),
    ("core.dynamics.rk4_step_batch", "repro.core.dynamics", None,
     ("rk4_step_batch",), None, True),
    ("core.dynamics.rk4_step", "repro.core.dynamics", None, ("rk4_step",), None, True),
    ("wardrop.flow.project_batch", "repro.wardrop.flow", "FlowVector",
     ("project_batch",), _projected_rows, True),
    ("wardrop.flow.projected", "repro.wardrop.flow", "FlowVector", ("projected",), None, True),
    ("batch.board.post_rows", "repro.batch.board", "BatchBulletinBoard",
     ("post_rows",), _posted_rows, True),
    ("wardrop.network.latencies", "repro.wardrop.network", "WardropNetwork",
     ("edge_latencies", "edge_latencies_batch", "path_latencies", "path_latencies_batch"),
     None, True),
    ("wardrop.family.latencies", "repro.wardrop.family", "NetworkFamily",
     ("edge_latencies_batch", "path_latencies_batch"), None, True),
    ("wardrop.latency.value", "repro.wardrop.latency", "LatencyFunction", ("value",), None, False),
    ("scenarios.scenario.family_at", "repro.scenarios.scenario", "ScenarioEnsemble",
     ("family_at",), None, True),
    ("scenarios.scenario.network_at", "repro.scenarios.scenario", "Scenario",
     ("network_at",), None, True),
    ("largescale.shortest.shortest_commodity_paths", "repro.largescale.shortest",
     "ShortestPathOracle", ("shortest_commodity_paths",), None, True),
    ("largescale.shortest.all_or_nothing", "repro.largescale.shortest",
     "ShortestPathOracle", ("all_or_nothing",), None, True),
    ("largescale.shortest.latency_costs", "repro.largescale.shortest",
     "ShortestPathOracle", ("latency_costs",), None, True),
    ("largescale.columns", "repro.largescale.columns", "ActivePathSet",
     ("add_paths",), _columns, False),
    ("solvers.line_search.bisection_root", "repro.solvers.line_search", None,
     ("bisection_root",), None, True),
    ("solvers.edge_frank_wolfe", "repro.solvers.edge_frank_wolfe", None,
     ("solve_edge_flow_equilibrium",), _iterations, True),
    ("batch.engine", "repro.batch.engine", "BatchSimulator", ("run",), _row_phases, True),
    ("core.simulator", "repro.core.simulator", "ReroutingSimulator", ("run",), None, True),
    ("core.agents", "repro.core.agents", "AgentBasedSimulator", ("run",), None, True),
    ("largescale.batch_columns", "repro.largescale.batch_columns", None,
     ("simulate_with_column_generation_batch",), None, True),
    ("experiments.runner", "repro.experiments.runner", None, ("run_cases",), None, True),
]

# Steppers whose field argument is wrapped to count stage evaluations.
FIELD_COUNTED = ("core.dynamics.rk4_step_batch", "core.dynamics.rk4_step")


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in found:
            found.append(current)
            todo.extend(current.__subclasses__())
    return found


class SpanRecorder:
    """Records spans of the wrapped layers while installed."""

    def __init__(self) -> None:
        self.layer_names: List[str] = [layer[0] for layer in LAYERS]
        self._restore: List[Callable[[], None]] = []
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.counts: Dict[str, float] = defaultdict(float)

    # Installing ----------------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("spans are already installed")
        modules = [
            module for name, module in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and module is not None
        ]
        for layer_id, (_, module_name, class_name, attributes, hook, span) in enumerate(LAYERS):
            module = importlib.import_module(module_name)
            if class_name is None:
                for attribute in attributes:
                    original = getattr(module, attribute)
                    self._replace_everywhere(
                        modules, original, self._wrap(layer_id, original, hook, span)
                    )
                continue
            for cls in _subclasses(getattr(module, class_name)):
                for attribute in attributes:
                    if attribute in cls.__dict__:
                        self._replace_method(cls, attribute, layer_id, hook, span)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _replace_method(self, cls, attribute: str, layer_id: int, hook, span: bool) -> None:
        original = cls.__dict__[attribute]
        if isinstance(original, staticmethod):
            replacement = staticmethod(self._wrap(layer_id, original.__func__, hook, span))
        else:
            replacement = self._wrap(layer_id, original, hook, span)
        setattr(cls, attribute, replacement)
        self._restore.append(lambda: setattr(cls, attribute, original))

    def _replace_everywhere(self, modules, original, replacement) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._restore.append(
                        lambda module=module, key=key: setattr(module, key, original)
                    )
                elif isinstance(value, dict):
                    for item, entry in list(value.items()):
                        if entry is original:
                            value[item] = replacement
                            self._restore.append(
                                lambda table=value, item=item: table.__setitem__(item, original)
                            )

    def _wrap(self, layer_id: int, function, hook: Optional[Hook], span: bool):
        recorder = self
        layer = self.layer_names[layer_id]
        calls_key = layer + ".calls"
        counts_field = layer in FIELD_COUNTED

        def count(args, kwargs, result) -> None:
            counts = recorder.counts
            counts[calls_key] += 1
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counts[key] += value

        if not span:
            def counted(*args, **kwargs):
                result = function(*args, **kwargs)
                count(args, kwargs, result)
                return result

            return counted

        def wrapped(*args, **kwargs):
            stack = recorder._stack
            parent = stack[-1]
            if parent >= 0 and recorder.name[parent] == layer_id:
                return function(*args, **kwargs)
            if counts_field:
                args = (recorder._counting_field(args[0]),) + args[1:]
            index = len(recorder.start)
            recorder.name.append(layer_id)
            recorder.parent.append(parent)
            recorder.end.append(0.0)
            stack.append(index)
            recorder.start.append(perf_counter())
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.end[index] = perf_counter()
                stack.pop()
            count(args, kwargs, result)
            return result

        return wrapped

    def _counting_field(self, field):
        def counted_field(*args):
            self.counts["core.dynamics.field_evals"] += 1
            return field(*args)

        return counted_field

    # Reading -------------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Return ``<layer>.self_s``, ``<layer>.calls`` and hook counts."""
        names, parents = np.asarray(self.name), np.asarray(self.parent)
        duration = np.asarray(self.end) - np.asarray(self.start)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
        self_time = np.bincount(names, weights=duration - covered, minlength=len(self.layer_names))
        summary = {f"{layer}.self_s": float(self_time[i]) for i, layer in enumerate(self.layer_names)}
        summary.update(self.counts)
        return summary

