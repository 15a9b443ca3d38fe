"""Long-horizon equilibrium routing experiments: occupancy tracking, the
parallel-composition ratio monitor, and the two boundedness checks."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .bestresponse import QueueCounters, dp_from_vertex
from .errors import DegreeConditionViolated, InflowExceedsCut, NotSeriesParallel
from .netcore import (
    Agent,
    GraphStats,
    InflowSchedule,
    SPDecomposition,
    UnitNetwork,
    leftmost_min_cut,
    sp_decompose,
    validate_and_stats,
)


@dataclass
class RouterResult:
    """Equilibrium routing of a whole schedule, agent by agent in entry order."""

    paths: dict[Agent, tuple[str, ...]]
    arrivals: dict[Agent, dict[str, int]]
    exit_times: dict[Agent, int]
    timelines: QueueCounters

    def latency(self, agent: Agent) -> int:
        return self.exit_times[agent] - agent.entry


def route_entry_order(net: UnitNetwork, schedule: InflowSchedule) -> RouterResult:
    """Assign earliest-arrival best responses wave by wave, slot by slot.

    From a schedule-built initial configuration this reproduces the iterative
    dominating profile: earlier entrants are never disturbed by later ones, so
    each agent's trajectory can be committed incrementally, entering its first
    edge with rank slot - 1, after the solver's no-displacement check.
    """
    timelines = QueueCounters()
    paths: dict[Agent, tuple[str, ...]] = {}
    arrivals: dict[Agent, dict[str, int]] = {}
    exits: dict[Agent, int] = {}
    d = net.destination
    for r, wave in schedule.waves:
        for slot, agent in enumerate(wave, start=1):
            table = dp_from_vertex(net, agent, start_vertex=net.origin, start_time=r,
                                   start_edge=None, start_rank=slot - 1, counters=timelines)
            assert d in table.tau, "validated networks always reach the destination"
            path = table.path_to(net, d)
            times = {v: table.tau[v] for v in net.path_vertices(path)}
            timelines.assert_displaces_none(net, path, times, slot - 1)
            timelines.commit(net, path, times, slot - 1)
            paths[agent] = path
            arrivals[agent] = times
            exits[agent] = times[d]
    return RouterResult(paths=paths, arrivals=arrivals, exit_times=exits, timelines=timelines)


# -- occupancy bookkeeping ---------------------------------------------------------


@dataclass
class OccupancyTrace:
    """Per-time queue lengths, network occupancy and entry/exit ledger."""

    horizon: int
    per_edge: dict[str, list[int]]
    total: list[int]
    entrants: list[int]
    exiters: list[int]
    arrival_counts: dict[tuple[str, int], int]

    def occupancy(self, edges: frozenset[str] | set[str], t: int) -> int:
        return sum(self.per_edge[e][t] for e in edges if e in self.per_edge)

    def series(self, edges: frozenset[str] | set[str]) -> list[int]:
        """The occupancy of the edges at every time 0..horizon."""
        return _column_sums([self.per_edge[e] for e in edges if e in self.per_edge], self.horizon)

    def conservation_holds(self) -> bool:
        for t in range(1, self.horizon + 1):
            if self.total[t] != self.total[t - 1] + self.entrants[t] - self.exiters[t]:
                return False
        return True


def _column_sums(series: list[list[int]], horizon: int) -> list[int]:
    return list(map(sum, zip(*series))) if series else [0] * (horizon + 1)


def occupancy_trace(net: UnitNetwork, result: RouterResult) -> OccupancyTrace:
    horizon = max(result.exit_times.values(), default=0)
    per_edge = {e: [0] * (horizon + 1) for e in result.timelines.sizes}
    for e, counts in result.timelines.sizes.items():
        series = per_edge[e]
        for t, n in counts.items():
            if t <= horizon:
                series[t] = n
    total = _column_sums(list(per_edge.values()), horizon)
    entrants = [0] * (horizon + 1)
    exiters = [0] * (horizon + 1)
    for agent, t in result.exit_times.items():
        entrants[agent.entry] += 1
        exiters[t] += 1
    arrival_counts = Counter(cell for times in result.arrivals.values() for cell in times.items())
    return OccupancyTrace(horizon, per_edge, total, entrants, exiters, arrival_counts)


@dataclass
class RatioVerdict:
    node: str
    ok: bool
    worst_time: Optional[int] = None
    worst_pair: Optional[tuple[int, int]] = None


def degree_ratio_monitor(
    trace: OccupancyTrace, decomp: SPDecomposition, stats: GraphStats
) -> list[RatioVerdict]:
    """Check n_i <= 2 m^2 (2m + n_j) at every step of every parallel node."""
    m = stats.m
    scale, base = 2 * m * m, 2 * m  # n_i may not exceed scale * (base + n_j)
    verdicts = []
    for idx, node in enumerate(decomp.parallel_nodes()):
        left = trace.series(node.left.edge_set())
        right = trace.series(node.right.edge_set())
        verdict = RatioVerdict(node=f"parallel#{idx}", ok=True)
        for t in range(trace.horizon + 1):
            n1, n2 = left[t], right[t]
            if n1 > scale * (base + n2) or n2 > scale * (base + n1):
                verdict = RatioVerdict(verdict.node, False, worst_time=t, worst_pair=(n1, n2))
                break
        verdicts.append(verdict)
    return verdicts


@dataclass
class BoundReport:
    horizon: int
    inflow_end: int
    max_occupancy: int
    stabilization_time: int
    headroom_required: int
    bounded: bool
    max_latency: int
    latency_stabilization_entry: int
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.bounded and all(ok for _, ok, _ in self.checks)

    def to_text(self) -> str:
        lines = [
            f"horizon={self.horizon} inflow_end={self.inflow_end}",
            f"max_occupancy={self.max_occupancy} max_latency={self.max_latency}",
            f"stabilization_time={self.stabilization_time} "
            f"(headroom needed {self.headroom_required}) bounded={self.bounded}",
        ]
        for name, ok, detail in self.checks:
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}" + (f" - {detail}" if detail else ""))
        return "\n".join(lines)


def _stabilization(series: list[int]) -> tuple[int, int]:
    """(last time the running max grew, running max)."""
    best = -1
    when = 0
    for t, v in enumerate(series):
        if v > best:
            best = v
            when = t
    return when, best


def _experiment_report(
    net: UnitNetwork,
    schedule: InflowSchedule,
    result: RouterResult,
    trace: OccupancyTrace,
    stats: GraphStats,
) -> BoundReport:
    inflow_end = schedule.last_time
    required = max(inflow_end // 2, 200)
    occ_stab, max_occ = _stabilization(trace.total)
    edge_stab = 0
    for series in trace.per_edge.values():
        s, _ = _stabilization(series)
        edge_stab = max(edge_stab, s)
    stabilization = max(occ_stab, edge_stab)

    latency_by_entry: dict[int, int] = {}
    for agent in result.exit_times:
        lat = result.latency(agent)
        latency_by_entry[agent.entry] = max(latency_by_entry.get(agent.entry, 0), lat)
    entries = sorted(latency_by_entry)
    lat_series = [latency_by_entry[r] for r in entries]
    lat_stab_idx, max_latency = _stabilization(lat_series)
    lat_stab_entry = entries[lat_stab_idx] if entries else 0
    max_latency = max(max_latency, 0)

    if not result.exit_times:
        bounded = True
    else:
        bounded = stabilization + required <= inflow_end and lat_stab_entry + required <= inflow_end

    over = [(v, t, n) for (v, t), n in trace.arrival_counts.items()
            if n > stats.max_in_degree and v != net.origin]
    checks = [
        ("occupancy_conservation", trace.conservation_holds(), ""),
        ("simultaneous_arrivals_within_max_in_degree", not over,
         f"first violation {over[0]}" if over else ""),
    ]
    return BoundReport(
        horizon=trace.horizon,
        inflow_end=inflow_end,
        max_occupancy=max_occ,
        stabilization_time=stabilization,
        headroom_required=required,
        bounded=bounded,
        max_latency=max_latency,
        latency_stabilization_entry=lat_stab_entry,
        checks=checks,
    )


def _check_full_cut_drain(
    net: UnitNetwork, trace: OccupancyTrace, cut: frozenset[str], left_edges: frozenset[str]
) -> tuple[str, bool, str]:
    """Whenever the cut is full, exactly its size crosses next step, so the left
    side changes by the inflow minus the cut size."""

    def qlen(e: str, t: int) -> int:
        series = trace.per_edge.get(e)
        return series[t] if series and t < len(series) else 0

    left = trace.series(left_edges)
    for t in range(trace.horizon):
        if not all(qlen(e, t) > 0 for e in cut):
            continue
        n_now, n_next = left[t], left[t + 1]
        inflow = trace.entrants[t + 1] if t + 1 < len(trace.entrants) else 0
        if n_next != n_now - len(cut) + inflow:
            return (
                "full_cut_drain",
                False,
                f"t={t}: left occupancy {n_now}->{n_next} with inflow {inflow}, cut {len(cut)}",
            )
    return ("full_cut_drain", True, "")


def queue_bound_experiment(
    net: UnitNetwork,
    schedule: InflowSchedule,
) -> tuple[BoundReport, OccupancyTrace, list[RatioVerdict]]:
    """Route the whole schedule by the iterative dominating equilibrium and
    verify empirical boundedness plus the parallel-node ratio bound."""
    decomp = sp_decompose(net)
    if decomp is None:
        raise NotSeriesParallel("queue bound experiment needs a series-parallel network")
    cut, left, _ = leftmost_min_cut(net)
    for r, wave in schedule.waves:
        if len(wave) > len(cut):
            raise InflowExceedsCut(f"wave at t={r} has {len(wave)} agents > cut size {len(cut)}")
    stats = validate_and_stats(net)
    result = route_entry_order(net, schedule)
    trace = occupancy_trace(net, result)
    report = _experiment_report(net, schedule, result, trace, stats)
    verdicts = degree_ratio_monitor(trace, decomp, stats)
    ratio_ok = all(v.ok for v in verdicts)
    report.checks.append(("parallel_ratio_bound", ratio_ok, "" if ratio_ok else "see verdicts"))
    # queues live on tail parts, so an edge counts into the side of its tail
    left_edges = frozenset(e for e, edge in net.edges.items() if edge.tail in left)
    report.checks.append(_check_full_cut_drain(net, trace, cut, left_edges))
    return report, trace, verdicts


def spe_bound_experiment(
    net: UnitNetwork,
    schedule: InflowSchedule,
) -> tuple[BoundReport, OccupancyTrace]:
    """Latency boundedness under the Markovian equilibrium play on networks whose
    internal out-degrees dominate in-degrees."""
    for v in net.vertices:
        if v in (net.origin, net.destination):
            continue
        if len(net.out_edges(v)) < len(net.in_edges(v)):
            raise DegreeConditionViolated(
                f"vertex {v!r} has out-degree {len(net.out_edges(v))} < in-degree {len(net.in_edges(v))}"
            )
    cut, _, _ = leftmost_min_cut(net)
    for r, wave in schedule.waves:
        if len(wave) > len(cut):
            raise InflowExceedsCut(f"wave at t={r} has {len(wave)} agents > min cut {len(cut)}")
    stats = validate_and_stats(net)
    result = route_entry_order(net, schedule)
    trace = occupancy_trace(net, result)
    report = _experiment_report(net, schedule, result, trace, stats)
    return report, trace
