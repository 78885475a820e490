"""Spans around routelearn's public functions, recorded from outside src/.

`Tracer.install` rebinds each traced function, in every routelearn module
that holds a reference to it, to a wrapper that records a span: name,
start, end, parent span and one optional measured value (Frank-Wolfe
iterations, batch rows, CSV bytes, stages). Spans stay in memory and are
written out once, when the run ends. `uninstall` restores the originals,
so untraced rounds run the unmodified program.

Only this process is traced: work done in a process-pool worker records
no spans, which is why traced runs use one worker.
"""

from __future__ import annotations

import csv
import functools
import importlib
import math
import os
import sys
import time
from pathlib import Path


def _rows(result, args, kwargs):
    thetas = args[2] if len(args) > 2 else kwargs["thetas"]
    return len(thetas)


# (module, attribute, span name, value recorded from (result, args, kwargs)).
# Spans with no metric of their own (summarize, compare_average_costs) keep
# library time out of the CLI's self time.
TARGETS = (
    ("routelearn.cli", "main", "cli.main", None),
    ("routelearn.scenario", "load_scenario", "scenario.load_scenario", None),
    ("routelearn.graph", "used_edges", "graph.used_edges", None),
    ("routelearn.graph", "is_series_parallel", "graph.is_series_parallel", None),
    ("routelearn.equilibrium", "solve_wardrop", "equilibrium.solve_wardrop",
     lambda res, a, k: res.n_iterations),
    ("routelearn.equilibrium", "solve_wardrop_batch", "equilibrium.solve_wardrop_batch", _rows),
    ("routelearn.belief", "bayes_update", "belief.bayes_update", None),
    ("routelearn.belief", "log_likelihoods", "belief.log_likelihoods", None),
    ("routelearn.dynamics", "NoiseSampler.sample", "dynamics.noise_sample", None),
    ("routelearn.dynamics", "realize_costs", "dynamics.realize_costs", None),
    ("routelearn.dynamics", "step", "dynamics.step", None),
    ("routelearn.dynamics", "run", "dynamics.run", lambda res, a, k: res.n_stages),
    ("routelearn.dynamics", "summarize", "dynamics.summarize", None),
    ("routelearn.dynamics", "write_trajectory_csv", "dynamics.write_trajectory_csv",
     lambda res, a, k: os.path.getsize(res)),
    ("routelearn.dynamics", "monte_carlo", "dynamics.monte_carlo", None),
    ("routelearn.analysis", "enumerate_rest_points", "analysis.enumerate_rest_points", None),
    ("routelearn.analysis", "check_rest_point", "analysis.check_rest_point", None),
    ("routelearn.analysis", "compare_average_costs", "analysis.compare_average_costs", None),
    ("routelearn.analysis", "check_complete_learning_conditions",
     "analysis.check_complete_learning_conditions", None),
)

NAME, START, END, PARENT, VALUE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, value]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[VALUE] = measure(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "routelearn"]
        for module_name, attr, name, measure in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, measure))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "start_ns", "end_ns", "parent", "value"])
            for i, span in enumerate(self.spans):
                writer.writerow([i, *span])


class SpanStats:
    """Per-name durations, self times, values and parent names of the spans."""

    def __init__(self, spans: list[list]):
        child_ns = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        self.duration: dict[str, list[float]] = {}
        self.self_time: dict[str, list[float]] = {}
        self.values: dict[str, list] = {}
        self.under: dict[tuple[str, str], int] = {}
        for i, span in enumerate(spans):
            name = span[NAME]
            dur = span[END] - span[START]
            self.duration.setdefault(name, []).append(dur * 1e-9)
            self.self_time.setdefault(name, []).append((dur - child_ns[i]) * 1e-9)
            if span[VALUE] is not None:
                self.values.setdefault(name, []).append(span[VALUE])
            parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
            self.under[(name, parent)] = self.under.get((name, parent), 0) + 1

    def calls(self, name: str) -> int:
        return len(self.duration.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.duration.get(name, ()))

    def self_total(self, name: str) -> float:
        return sum(self.self_time.get(name, ()))

    def percentile(self, name: str, q: float) -> float:
        """Nearest-rank percentile of the span durations, 0 when there are none."""
        vals = sorted(self.duration.get(name, ()))
        if not vals:
            return 0.0
        return vals[max(0, math.ceil(len(vals) * q / 100) - 1)]

    def value_sum(self, name: str) -> float:
        return sum(self.values.get(name, ()))
