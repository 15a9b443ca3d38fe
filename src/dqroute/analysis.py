"""Long-horizon equilibrium routing experiments: occupancy tracking, the
parallel-composition ratio monitor, and the two boundedness checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, count, cycle, islice, repeat
from operator import add, and_, attrgetter, gt, ne, sub
from typing import Optional

from .bestresponse import UNREACHED, QueueCounters, dp_from_vertex
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
    """Equilibrium routing of a whole schedule, agent by agent in entry order:
    each agent's path and exit time, and the occupancy index of all their
    trajectories, counting from time 0."""

    paths: dict[Agent, tuple[str, ...]]
    exit_times: dict[Agent, int]
    timelines: QueueCounters


def route_entry_order(net: UnitNetwork, schedule: InflowSchedule) -> RouterResult:
    """Assign earliest-arrival best responses wave by wave, slot by slot.

    From a schedule-built initial configuration this reproduces the iterative
    dominating profile: earlier entrants are never disturbed by later ones, so
    each agent's trajectory can be committed incrementally, entering its first
    edge with rank slot - 1: one DP from the origin and one `commit_table`,
    which runs the solver's no-displacement check, per agent. Agents on the
    same edges share one tuple of names.

    A wave at r reads only the index cells from r to the frontier. If they
    equal those the wave at r - 1 of equal width read, it and the rest of its
    run of equal-width waves route as that one shifted, with no DP or check;
    cells are compared once two waves' paths and exit - r have matched. A run
    ends where the waves' (time - index, width) key changes, and its agents'
    paths and exits are filled with one `dict.update` each.
    """
    plan = net.plan()
    edge_names = plan.edges
    timelines = QueueCounters(net)
    paths: dict[Agent, tuple[str, ...]] = {}
    exits: dict[Agent, int] = {}
    named: dict[tuple[int, ...], tuple[str, ...]] = {}
    o, d = plan.vertex_id[net.origin], plan.vertex_id[net.destination]
    waves, i = schedule.waves, 0
    groups = [wave for _, wave in waves]
    keys = list(zip(map(sub, [r for r, _ in waves], count()), map(len, groups)))
    ref: tuple = (0, [], [])  # the last DP-routed wave: time, relative routing, trajectories
    repeated = held = None  # whether its relative routing repeated the wave's before; its window
    while i < len(waves):
        r, wave = waves[i]
        window = None
        if repeated and ref[0] == r - 1 and len(wave) == len(ref[2]):
            f, index = timelines.frontier, (timelines.lengths, timelines.entered)
            window = [cells[e][r : f + 1] for cells in index for e in timelines.committed]
            if window == held:
                ends = compress(count(i), map(ne, islice(keys, i, None), repeat(keys[i])))
                j, (route, offsets) = next(ends, len(waves)), zip(*ref[1])  # its paths and exits - r
                run = list(chain.from_iterable(groups[i:j]))
                paths.update(zip(run, cycle(route)))
                exits.update(zip(run, chain.from_iterable(
                    zip(*[range(r + x, r + x + j - i) for x in offsets]))))
                timelines.add_translates(ref[2], j - i)
                i = j  # ref's time is now before r - 1: waves[j] takes no window
                continue
        held = window
        relative, trajectories = [], []
        for rank, agent in enumerate(wave):  # rank slot - 1
            table = dp_from_vertex(o, r, None, rank, timelines)
            exits[agent] = t = table.time_at[d]
            assert t != UNREACHED, "validated networks always reach the destination"
            ids = tuple(timelines.commit_table(table, d, rank))
            path = named.get(ids)
            if path is None:
                path = named[ids] = tuple([edge_names[e] for e in ids])
            paths[agent] = path
            relative.append((path, t - r))
            trajectories.append((ids, table.time_at, rank))
        repeated = relative == ref[1]
        ref = (r, relative, trajectories)
        i += 1
    return RouterResult(paths=paths, exit_times=exits, timelines=timelines)


# -- occupancy bookkeeping ---------------------------------------------------------


@dataclass
class OccupancyTrace:
    """Per-time queue lengths, network occupancy and entry/exit ledger."""

    horizon: int
    per_edge: dict[str, list[int]]
    total: list[int]
    entrants: list[int]
    exiters: list[int]

    def occupancy(self, edges: frozenset[str] | set[str], t: int) -> int:
        return sum(self.per_edge[e][t] for e in edges if e in self.per_edge)

    def series(self, edges: frozenset[str] | set[str]) -> list[int]:
        """The occupancy of the edges at every time 0..horizon."""
        return _column_sums([self.per_edge[e] for e in edges if e in self.per_edge], self.horizon)

    def conservation_holds(self) -> bool:  # each step's change is entrants less exiters
        h, total = self.horizon, self.total
        return list(map(sub, total[1 : h + 1], total[:h])) == list(
            map(sub, self.entrants[1 : h + 1], self.exiters[1 : h + 1]))


def _column_sums(series: list[list[int]], horizon: int) -> list[int]:
    """Elementwise sums, as long as the shortest series."""
    total = list(series[0]) if series else [0] * (horizon + 1)
    for other in series[1:]:
        total = list(map(add, total, other))
    return total


def occupancy_trace(net: UnitNetwork, result: RouterResult) -> OccupancyTrace:
    horizon = max(result.exit_times.values(), default=0)
    timelines = result.timelines
    timelines.pad(horizon + 1)
    names = timelines.plan.edges
    per_edge = {names[e]: timelines.lengths[e][: horizon + 1] for e in timelines.committed}
    total = _column_sums(list(per_edge.values()), horizon)
    entrants = [0] * (horizon + 1)
    exiters = [0] * (horizon + 1)
    for agent, t in result.exit_times.items():
        entrants[agent.entry] += 1
        exiters[t] += 1
    return OccupancyTrace(horizon, per_edge, total, entrants, exiters)


def _check_simultaneous_arrivals(
    net: UnitNetwork, timelines: QueueCounters, exiters: list[int], max_in_degree: int
) -> tuple[str, bool, str]:
    """No vertex but the origin sees more simultaneous arrivals than the
    maximum in-degree; the detail names the earliest violation. Read off the
    index: the arrivals at an inner vertex at t are the entrants of its
    out-edges at t, and those at the destination are the exits at t, the
    occupancy trace's exiter ledger. A vertex whose out-edges' largest entrant
    cells sum to at most the bound has no time over it, so only the others are
    summed time by time."""
    entered, edge_id = timelines.entered, timelines.plan.edge_id
    over = [(t, net.destination, n) for t, n in enumerate(exiters) if n > max_in_degree]
    for v in net.vertices:
        if v in (net.origin, net.destination):
            continue
        cells = [entered[edge_id[e]] for e in net.out_edges(v)]
        if sum(max(map(len, c), default=0) for c in cells) <= max_in_degree:
            continue
        for t, n in enumerate(map(sum, zip(*(map(len, c) for c in cells)))):
            if n > max_in_degree:
                over.append((t, v, n))
                break
    if not over:
        return ("simultaneous_arrivals_within_max_in_degree", True, "")
    t, v, n = min(over)
    return ("simultaneous_arrivals_within_max_in_degree", False, f"first violation {(v, t, n)}")


@dataclass
class RatioVerdict:
    node: str
    ok: bool
    worst_time: Optional[int] = None
    worst_pair: Optional[tuple[int, int]] = None


def degree_ratio_monitor(
    trace: OccupancyTrace, decomp: SPDecomposition, stats: GraphStats
) -> list[RatioVerdict]:
    """Check n_i <= 2 m^2 (2m + n_j) at every step of every parallel node. A
    node whose sides' maxima are within the bound of the other side's minimum
    passes every step; the steps of any other are checked one by one."""
    m = stats.m
    scale, base = 2 * m * m, 2 * m  # n_i may not exceed scale * (base + n_j)
    verdicts = []
    for idx, node in enumerate(decomp.parallel_nodes()):
        left = trace.series(node.left.edge_set())
        right = trace.series(node.right.edge_set())
        verdict = RatioVerdict(node=f"parallel#{idx}", ok=True)
        steps = range(trace.horizon + 1)
        if max(left) <= scale * (base + min(right)) and max(right) <= scale * (base + min(left)):
            steps = ()  # every step is within the bound
        for t in steps:
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
    """(last time the running max grew, running max): the running max last
    grows where the series first reaches its maximum."""
    if not series:
        return 0, -1
    best = max(series)
    return series.index(best), best


def _experiment_report(net: UnitNetwork, schedule: InflowSchedule
                       ) -> tuple[BoundReport, OccupancyTrace, GraphStats, frozenset, frozenset]:
    """Check every wave against the leftmost min cut and the network's
    invariants, route the schedule in entry order and report on its occupancy
    trace: (report, trace, stats, cut, cut's left side)."""
    cut, left, _ = leftmost_min_cut(net)
    for r, wave in schedule.waves:
        if len(wave) > len(cut):
            raise InflowExceedsCut(f"wave at t={r} has {len(wave)} agents > min cut {len(cut)}")
    stats = validate_and_stats(net)
    result = route_entry_order(net, schedule)
    trace = occupancy_trace(net, result)
    inflow_end = schedule.last_time
    required = max(inflow_end // 2, 200)
    occ_stab, max_occ = _stabilization(trace.total)
    edge_stab = max((_stabilization(series)[0] for series in trace.per_edge.values()), default=0)
    stabilization = max(occ_stab, edge_stab)

    # every agent's exit after its entry, in entry order: the latest, and the
    # entry time of the first agent it is reached by
    entries = list(map(attrgetter("entry"), result.exit_times))
    lat_stab_idx, max_latency = _stabilization(list(map(sub, result.exit_times.values(), entries)))
    lat_stab_entry = entries[lat_stab_idx] if entries else 0
    max_latency = max(max_latency, 0)

    if not result.exit_times:
        bounded = True
    else:
        bounded = stabilization + required <= inflow_end and lat_stab_entry + required <= inflow_end

    checks = [
        ("occupancy_conservation", trace.conservation_holds(), ""),
        _check_simultaneous_arrivals(net, result.timelines, trace.exiters, stats.max_in_degree),
    ]
    report = BoundReport(
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
    return report, trace, stats, cut, left


def _check_full_cut_drain(
    net: UnitNetwork, trace: OccupancyTrace, cut: frozenset[str], left_edges: frozenset[str]
) -> tuple[str, bool, str]:
    """Whenever the cut is full, exactly its size crosses next step, so the left
    side changes by the inflow minus the cut size. The times t < horizon where
    the cut is full and the change is not that are found by `map`s over the
    series; the first one is reported."""
    h, left = trace.horizon, trace.series(left_edges)
    # the shortest queue on the cut at each time; a missing series is empty
    cols = [trace.per_edge.get(e, ()) for e in cut]
    shortest = cols[0] if len(cols) == 1 else map(min, zip(*cols))
    inflow = trace.entrants[1 : h + 1]
    inflow += [0] * (h - len(inflow))
    changed = map(ne, map(sub, left[1 : h + 1], left[:h]), map(sub, inflow, repeat(len(cut))))
    full = map(gt, shortest, repeat(0))
    t = next(compress(range(h), map(and_, full, changed)), None)
    if t is None:
        return ("full_cut_drain", True, "")
    detail = f"t={t}: left occupancy {left[t]}->{left[t + 1]} with inflow {inflow[t]}, cut {len(cut)}"
    return ("full_cut_drain", False, detail)


def queue_bound_experiment(
    net: UnitNetwork,
    schedule: InflowSchedule,
) -> tuple[BoundReport, OccupancyTrace, list[RatioVerdict]]:
    """Route the whole schedule by the iterative dominating equilibrium and
    verify empirical boundedness plus the parallel-node ratio bound."""
    decomp = sp_decompose(net)
    if decomp is None:
        raise NotSeriesParallel("queue bound experiment needs a series-parallel network")
    report, trace, stats, cut, left = _experiment_report(net, schedule)
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
    return _experiment_report(net, schedule)[:2]
