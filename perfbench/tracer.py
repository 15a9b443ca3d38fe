"""Span tracing around the public functions of each dqroute layer.

`Tracer.install` replaces every module attribute that names a listed function
(so `run_paths` is wrapped in `dynamics`, `bestresponse`, `equilibrium`, `spe`
and the package itself) and every listed method on its class; `remove` puts
the originals back.  Each call records one span: name, start, end, parent
span and job id.  Spans stay in memory; `metrics` derives the per-layer
numbers from them once the traced pass is over.  A span's self time is its
duration minus the time its child spans cover.

Counts such as agent-steps or history nodes are computed from the values the
wrapped calls return, never from program internals.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

# (module, attribute path) of every traced function, by layer
TARGETS = (
    ("scenario", "parse_scenario"),
    ("scenario", "load_scenario"),
    ("netcore", "build_extended"),
    ("netcore", "normalize_to_unit"),
    ("netcore", "sp_decompose"),
    ("netcore", "leftmost_min_cut"),
    ("netcore", "Graph.paths"),
    ("dynamics", "run_paths"),
    ("dynamics", "step"),
    ("dynamics", "action_set"),
    ("dynamics", "Configuration.restrict"),
    ("bestresponse", "earliest_arrival_table"),
    ("bestresponse", "fixed_counters"),
    ("bestresponse", "dp_from_vertex"),
    ("equilibrium", "iterative_dominating_profile"),
    ("equilibrium", "build_exit_table"),
    ("equilibrium", "enumerate_all_ne"),
    ("equilibrium", "check_properties"),
    ("equilibrium", "verify_ne"),
    ("spe", "exhaustive_histories"),
    ("spe", "one_deviation_audit"),
    ("spe", "induced_paths"),
    ("spe", "SigmaStar.prescription"),
    ("spe", "NEBasedOracle.profile_at"),
    ("analysis", "queue_bound_experiment"),
    ("analysis", "route_entry_order"),
    ("analysis", "occupancy_trace"),
    ("analysis", "degree_ratio_monitor"),
)

SOLVER = "equilibrium.iterative_dominating_profile"
PRESCRIPTION = "spe.SigmaStar.prescription"


def _agent_steps(trace) -> int:
    return sum(t - trace.start_time for t in trace.exit_times.values())


# span name -> (count name, count of one return value)
COUNTS: dict[str, tuple[str, Callable[[Any], int]]] = {
    "dynamics.run_paths": ("agent_steps", _agent_steps),
    SOLVER: ("iterations", lambda result: len(result.order)),
    "equilibrium.build_exit_table": ("profiles", lambda table: len(table.exits)),
    "spe.exhaustive_histories": ("nodes", len),
    "spe.one_deviation_audit": ("deviations", lambda report: report.audited_deviations),
    "analysis.route_entry_order": ("agents", lambda result: len(result.paths)),
}


class Tracer:
    def __init__(self):
        self.names = [f"{module}.{attr}" for module, attr in TARGETS]
        # one span per call, column-wise to keep a long pass small in memory
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_book = array("d")  # count bookkeeping after the span, off its parent's self time
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct_configs = 0
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, name_id: int, fn: Callable) -> Callable:
        name = self.names[name_id]
        count = COUNTS.get(name)
        stack = self._stack
        clock = time.perf_counter
        cols = (self.span_name, self.span_parent, self.span_job, self.span_start, self.span_end,
                self.span_book)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(cols[0])
            cols[0].append(name_id)
            cols[1].append(stack[-1] if stack else -1)
            cols[2].append(self.job)
            cols[3].append(0.0)
            cols[4].append(0.0)
            cols[5].append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                cols[3][idx] = start
                cols[4][idx] = end
            if count is not None:
                self.counts[f"{name}.{count[0]}"] += count[1](result)
                if name == "spe.exhaustive_histories":
                    self.distinct_configs += len({node.config for node in result})
                cols[5][idx] = clock() - end
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "dqroute" or n.startswith("dqroute.")]
        for name_id, (module, attr) in enumerate(TARGETS):
            home = sys.modules[f"dqroute.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name_id, original))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name_id, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def metrics(self) -> dict[str, float]:
        """Per-name calls and self time, plus the derived counts."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        self_s = list(duration)
        for i in range(n):
            if parents[i] >= 0:
                self_s[parents[i]] -= duration[i] + self.span_book[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            calls[names[i]] += 1
            own[names[i]] += self_s[i]
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = own[k]
        for name, (count, _) in COUNTS.items():
            out[f"{name}.{count}"] = self.counts[f"{name}.{count}"]
        solver, prescription = self.names.index(SOLVER), self.names.index(PRESCRIPTION)
        under = [i for i in range(n) if names[i] == solver and parents[i] >= 0
                 and names[parents[i]] == prescription]
        out[f"{PRESCRIPTION}.solves"] = len(under)
        out[f"{PRESCRIPTION}.solve_s"] = sum(duration[i] for i in under)
        presc_calls = calls[prescription]
        out[f"{PRESCRIPTION}.hit_ratio"] = 1 - len(under) / presc_calls if presc_calls else 0.0
        out["spe.distinct_configs"] = self.distinct_configs
        out["trace.spans"] = n
        return out

