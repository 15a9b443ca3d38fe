"""Earliest-arrival best responses via dynamic programming, with a brute-force
oracle and the vertex-domination predicate."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .dynamics import Configuration, RoutingTrace, run_paths
from .errors import DQRouteError, Unreachable, VertexNotOnPath
from .netcore import Agent, Graph, GraphPlan


UNREACHED = 1 << 62  # the time at a vertex the deviator cannot reach, later than any other


class QueueCounters:
    """The occupancy index the best-response recursion reads, on the graph
    plan's edge ids, as lists over index time s, the time since
    `start_time`, before which no agent queues: `lengths[e][s]` is |Q_e^t| at
    t = start_time + s and `entered[e][s]` the tuple of previous-edge ranks of
    the agents entering e at t. `commit`, `commit_table` and the DP's
    `time_at` lists use index times; the name-keyed view `sizes`, built on
    read, uses absolute times.

    It is written one trajectory at a time: by `commit`, each of a
    simulation's (`from_trace`), and by `commit_table`, each chosen path of a
    solver or each agent the entry-order router routes, whose arrivals at an
    inner vertex are then the entrants of the vertex's out-edges, or in bulk
    by `add_translates`. Initial queue members rank -1, ahead of any entrant;
    edges nothing commits to share one list of zeros and one of empty cells.

    Padding, in index times: a DP starting at s0 first pads every list to
    max(frontier, s0) + |V| cells, `frontier` being the latest committed
    leave time, and it produces no time, and so reads no cell, past that.
    Under unit capacity, which both commits hold by refusing a trajectory
    that leaves an edge in the same step as an indexed agent, at most one
    agent leaves an edge per step, so a queue at t holds at most frontier - t
    agents and a hop from it arrives by frontier + 1; past the frontier
    every hop costs exactly one step, and a path has < |V| hops.
    """

    def __init__(self, graph: Graph, start_time: int = 0):
        self.plan = plan = graph.plan()
        self.start_time = start_time
        self.frontier = self.length = 0
        self._zeros: list[int] = []
        self._nobody: list[tuple] = []
        self.lengths: list[list[int]] = [self._zeros] * len(plan.edges)
        self.entered: list[list[tuple]] = [self._nobody] * len(plan.edges)
        self.committed: list[int] = []  # edge ids with lists of their own, in commit order

    @classmethod
    def from_trace(cls, graph: Graph, trace: RoutingTrace) -> "QueueCounters":
        """The queue lengths and entrants of a simulation, from its trajectories."""
        start = trace.start_time
        counters = cls(graph, start)
        edge_id, vertex_id = counters.plan.edge_id, counters.plan.vertex_id
        # the padding a DP from the last exit needs, once, not per commit
        counters.pad(trace.horizon - start + len(vertex_id))
        for agent, path in trace.paths.items():
            times = {vertex_id[v]: t - start for v, t in trace.vertex_times[agent].items()}
            counters.commit([edge_id[e] for e in path], times, -1)
        return counters

    @property
    def sizes(self) -> dict[str, dict[int, int]]:
        names, start = self.plan.edges, self.start_time
        return {
            names[e]: {start + t: n for t, n in enumerate(self.lengths[e]) if n}
            for e in self.committed
        }

    def pad(self, need: int) -> None:
        """Grow every list to at least `need` cells, at least doubling it."""
        if need <= self.length:
            return
        more = max(need, 2 * self.length) - self.length
        for e in self.committed:
            self.lengths[e].extend([0] * more)
            self.entered[e].extend([()] * more)
        self._zeros.extend([0] * more)
        self._nobody.extend([()] * more)
        self.length += more

    def _refuse(self, enter: int, broken: int, leave: int) -> None:
        """Refuse a trajectory that enters at `enter` < 0, before the index's start,
        or leaves edge id `broken` (-1 for none) at `leave` with an indexed agent."""
        if enter < 0:
            raise DQRouteError(f"a trajectory enters before its index's start {self.start_time}")
        if broken >= 0:
            raise DQRouteError(f"a trajectory leaves edge {self.plan.edges[broken]!r} at index "
                               f"time {leave} with an indexed agent")

    def commit(
        self, path: Sequence[int], times: Mapping[int, int] | Sequence[int], rank: int
    ) -> None:
        """Add one trajectory, on edge and vertex ids and index times: the agent
        queues on each path edge (u, v) during [times[u], times[v]) and enters it
        with the rank of its previous edge, or with the given rank on its first
        edge. Times rise strictly along the path, so every entrant of an edge
        at t is queued there at t. Under unit capacity no indexed agent leaves
        a path edge at the same time: the departures at L, the agents queued at
        L - 1 less those still queued at L, are 0 or the trajectory is refused."""
        arcs = self.plan.arcs
        last = times[arcs[path[-1]][1]]
        if last >= self.length:
            self.pad(last + 1)  # the departure check reads the cell at the last leave time
        lengths, entered = self.lengths, self.entered
        broken = leave = -1
        for e in path:
            leave = times[arcs[e][1]]
            sizes = lengths[e]
            if sizes[leave - 1] - sizes[leave] + len(entered[e][leave]):
                broken = e
                break
        self._refuse(times[arcs[path[0]][0]], broken, leave)
        self._add(path, times, rank)

    def commit_table(self, table: EarliestArrivalTable, v: int, rank: int) -> list[int]:
        """Commit the e*(.) path traced back from vertex id v until the table has
        none (so a queued agent's table yields its start edge), at the table's
        times, each edge entered with the rank of the previous e* or the given
        rank, and return its edge ids. One walk back checks every edge first:
        the assertion that no indexed agent ends up behind the trajectory (no
        lower-priority entrant at its entry, no entrant while it queues), which
        iterative domination promises a dominating-profile solver's paths, then
        `commit`'s refusals."""
        at, estar, arcs = table.time_at, table.estar_at, self.plan.arcs
        lengths, entered = self.lengths, self.entered
        leave = at[v]
        if leave >= self.length:
            self.pad(leave + 1)
        path: list[int] = []
        broken = broken_at = -1
        e = estar[v]
        while e >= 0:
            u = arcs[e][0]
            f = estar[u]
            r = rank if f < 0 else arcs[f][2]
            enter = at[u]
            cells = entered[e]
            for x in cells[enter]:
                assert x <= r
            if leave > enter + 1:
                assert not any(cells[enter + 1 : leave])
            sizes = lengths[e]
            if sizes[leave - 1] - sizes[leave] + len(cells[leave]):
                broken, broken_at = e, leave  # the first such edge on the path
            path.append(e)
            e, leave = f, enter
        self._refuse(leave, broken, broken_at)
        path.reverse()
        self._add(path, at, rank)
        return path

    def _add(self, path: Sequence[int], times: Mapping[int, int] | Sequence[int], rank: int) -> None:
        """The increments of a checked trajectory, as `commit` describes them."""
        arcs, lengths, entered, zeros = self.plan.arcs, self.lengths, self.entered, self._zeros
        enter = times[arcs[path[0]][0]]
        last = times[arcs[path[-1]][1]]
        if last > self.frontier:
            self.frontier = last
        for e in path:  # consecutive edges: each one's head is the next one's tail
            _, head, next_rank = arcs[e]
            leave = times[head]
            sizes = lengths[e]
            if sizes is zeros:
                sizes = lengths[e] = [0] * self.length
                entered[e] = [()] * self.length
                self.committed.append(e)
            sizes[enter] += 1
            if leave > enter + 1:
                for t in range(enter + 1, leave):
                    sizes[t] += 1
            entered[e][enter] += (rank,)
            enter, rank = leave, next_rank

    def add_translates(self, trajectories: Sequence[tuple], copies: int) -> None:
        """Add `copies` translates of committed (path, times, rank) trajectories,
        the k-th k steps later, as `_add` would one by one, unchecked: an edge's
        cell q past its first gets its offsets [q - copies, q), ramp, plateau, ramp.
        No agent is indexed at or past the frontier, so the plateau's cells
        there are set, not added to."""
        arcs, stays, last = self.plan.arcs, {}, 0
        for path, times, rank in trajectories:
            for e in path:
                tail, head, next_rank = arcs[e]
                stays.setdefault(e, []).append((times[tail], times[head], rank))
                rank = next_rank
            last = max(last, times[head])
        self.pad(last + copies + 1)
        frontier, self.frontier = self.frontier, max(self.frontier, last + copies)
        for e, visits in stays.items():
            lo = min(v[0] for v in visits)
            span = max(v[1] for v in visits) - lo
            inc, ent = [0] * span, [()] * span
            for enter, leave, rank in visits:
                inc[enter - lo : leave - lo] = [n + 1 for n in inc[enter - lo : leave - lo]]
                ent[enter - lo] += (rank,)
            sizes, cells = self.lengths[e], self.entered[e]
            for q in [*range(1, span), *range(max(span, copies + 1), copies + span)]:
                i, j = max(0, q - copies), min(span, q)
                sizes[lo + q] += sum(inc[i:j])
                cells[lo + q] += sum(ent[i:j][::-1], ())
            end = lo + copies + 1
            fresh = max(lo + span, min(frontier, end))  # the plateau is [lo + span, end)
            total, everyone = sum(inc), sum(ent[::-1], ())
            sizes[lo + span : fresh] = [n + total for n in sizes[lo + span : fresh]]
            cells[lo + span : fresh] = [c + everyone for c in cells[lo + span : fresh]]
            sizes[fresh:end] = [total] * (end - fresh)
            cells[fresh:end] = [everyone] * (end - fresh)


@dataclass(slots=True)
class EarliestArrivalTable:
    """On the plan's ids: the deviator reaches v at base + time_at[v] at the
    earliest (time_at[v] is an index time of the DP's `QueueCounters`, or
    UNREACHED) over the entering edge estar_at[v], e*(v), the first achieving
    edge in priority order (-1 where v is unreached or the recursion starts
    without one). `tau` and `estar` are the name-keyed views, built on read,
    in absolute times."""

    start_vertex: int
    plan: GraphPlan
    base: int
    time_at: list[int]
    estar_at: list[int]

    @property
    def tau(self) -> dict[str, int]:
        names, base = self.plan.vertices, self.base
        return {names[v]: base + t for v, t in enumerate(self.time_at) if t != UNREACHED}

    @property
    def estar(self) -> dict[str, str]:
        names, edges = self.plan.vertices, self.plan.edges
        return {names[v]: edges[e] for v, e in enumerate(self.estar_at) if e >= 0}

    def arrival(self, vertex: str) -> float:
        t = self.time_at[self.plan.vertex_id[vertex]]
        return math.inf if t == UNREACHED else self.base + t

    def path_to(self, vertex: str) -> tuple[str, ...]:
        """The edges e*(.) from the start vertex to the vertex, traced back from it."""
        estar, arcs, v = self.estar_at, self.plan.arcs, self.plan.vertex_id[vertex]
        path: list[int] = []
        while v != self.start_vertex:
            e = estar[v]
            path.append(e)
            v = arcs[e][0]
        return tuple(self.plan.edges[e] for e in reversed(path))


def dp_from_vertex(
    start_vertex: int,
    start_time: int,
    start_edge: Optional[int],
    start_rank: int,
    counters: QueueCounters,
) -> EarliestArrivalTable:
    """Run the earliest-arrival recursion on the index's plan from a seeded
    vertex id in topological order, reading the index's lists (padded first,
    see `QueueCounters`), keeping one e*, the first winner in priority order.

    start_edge/start_rank describe how the deviator shows up at start_vertex for
    same-time priority comparisons on the first hop; start_edge is its e*.
    """
    plan = counters.plan
    n = len(plan.vertices)
    base = counters.start_time  # the recursion runs on the index's times
    s0 = start_time - base
    if s0 < 0:
        raise DQRouteError(f"the recursion starts before its index's start {base}")
    need = counters.frontier
    if s0 > need:
        need = s0
    if need + n > counters.length:
        counters.pad(need + n)
    tau = [UNREACHED] * n
    estar = [-1] * n
    inrank = [start_rank] * n  # the rank of e*(v), read only at reached vertices
    tau[start_vertex] = s0
    if start_edge is not None:
        estar[start_vertex] = start_edge
    lengths, entered, order = counters.lengths, counters.entered, plan.order
    # vertices before start_vertex in topological order cannot be reached
    for v in range(start_vertex + 1, n):
        best = unreached = UNREACHED
        for e, u, rank in order[v]:  # priority order: first winner is e*(v)
            tu = tau[u]
            if tu == unreached:
                continue
            val = tu + 1
            # agents ahead: those queued at tu less the entrants ranked no
            # higher; every entrant at tu is queued at tu
            queued = lengths[e][tu]
            if queued:
                val += queued
                ref = inrank[u]
                if ref >= 0:
                    for r in entered[e][tu]:
                        if r >= ref:
                            val -= 1
            if val < best:
                best, win, winrank = val, e, rank
        if best < unreached:
            tau[v] = best
            estar[v] = win
            inrank[v] = winrank
    return EarliestArrivalTable(start_vertex, plan, base, tau, estar)


def fixed_counters(
    graph: Graph,
    config: Configuration,
    paths: Mapping[Agent, Sequence[str]],
) -> QueueCounters:
    """Simulate the given agents on their paths and index the queues."""
    if not paths:
        return QueueCounters(graph, config.time)
    trace = run_paths(graph, config.restrict(paths), paths)
    return QueueCounters.from_trace(graph, trace)


def queued_agent_table(
    edge_name: str,
    time: int,
    idx: int,
    counters: QueueCounters,
) -> EarliestArrivalTable:
    """Earliest-arrival table of an agent with idx agents ahead of it in the
    queue of edge_name at the given time."""
    plan = counters.plan
    e = plan.edge_id[edge_name]
    tail, head, rank = plan.arcs[e]
    table = dp_from_vertex(start_vertex=head, start_time=time + idx + 1,
                           start_edge=e, start_rank=rank, counters=counters)
    # the agent counts as reaching its current tail at the configuration time
    table.time_at[tail] = time - counters.start_time
    return table


def earliest_arrival_table(
    graph: Graph,
    config: Configuration,
    fixed: Mapping[Agent, Sequence[str]],
    zeta: Agent,
) -> EarliestArrivalTable:
    """Earliest times the deviator can reach every vertex given the others' paths.

    The deviator's queue position among the fixed agents on its current edge
    seeds the recursion; every other agent vanishes. A path of the deviator's
    own in `fixed` is left out of the index.
    """
    edge_name, pos = config.locate(zeta)
    idx = sum(a in fixed for a in config.queue(edge_name)[:pos])
    others = {a: fixed[a] for a in config.agents() if a in fixed and a != zeta}
    return queued_agent_table(edge_name, config.time, idx, fixed_counters(graph, config, others))


def best_response_path(
    graph: Graph,
    config: Configuration,
    fixed: Mapping[Agent, Sequence[str]],
    zeta: Agent,
    table: Optional[EarliestArrivalTable] = None,
) -> tuple[str, ...]:
    """The unique earliest-arrival best response: trace e*(v) back from the destination."""
    if table is None:
        table = earliest_arrival_table(graph, config, fixed, zeta)
    d = graph.destination
    if math.isinf(table.arrival(d)):
        raise Unreachable(f"{zeta} cannot reach {d!r}")
    edge_name, _ = config.locate(zeta)
    return (edge_name,) + table.path_to(d)


def _deviations(
    graph: Graph,
    config: Configuration,
    others: Mapping[Agent, Sequence[str]],
    zeta: Agent,
    guard: int,
) -> Iterator[tuple[tuple[str, ...], RoutingTrace]]:
    """Each path of the deviator's strategy set, with the simulation of the
    world of the others on their paths and the deviator on it."""
    world = config.restrict([*others, zeta])
    edge_name, _ = world.locate(zeta)
    for path in graph.paths(edge_name, graph.destination, guard=guard):
        yield path, run_paths(graph, world, {**others, zeta: path})


def brute_force_best_response(
    graph: Graph,
    config: Configuration,
    fixed: Mapping[Agent, Sequence[str]],
    zeta: Agent,
    guard: int = 100_000,
) -> tuple[int, tuple[tuple[str, ...], ...]]:
    """Enumerate the deviator's whole strategy set and simulate every choice.

    Returns the minimum destination arrival and all paths attaining it; this is
    the independent oracle for the dynamic program.
    """
    fixed_only = {a: tuple(p) for a, p in fixed.items() if a != zeta}
    best = math.inf
    argmin: list[tuple[str, ...]] = []
    for path, trace in _deviations(graph, config, fixed_only, zeta, guard):
        t = trace.exit_times[zeta]
        if t < best:
            best = t
            argmin = [path]
        elif t == best:
            argmin.append(path)
    if not argmin:
        raise Unreachable(f"{zeta} has no path to {graph.destination!r}")
    return int(best), tuple(argmin)


def dominates(
    graph: Graph,
    config: Configuration,
    alpha: Mapping[Agent, Sequence[str]],
    zeta: Agent,
    rival: Agent,
    vertex: str,
    guard: int = 100_000,
) -> bool:
    """Does the deviator dominate the rival at the vertex under the profile?

    True iff the deviator's earliest possible arrival beats the rival's, or ties
    it with an entering edge of priority at least the rival's there.
    """
    rival_path = tuple(alpha[rival])
    rival_vertices = graph.path_vertices(rival_path)
    if vertex not in rival_vertices:
        raise VertexNotOnPath(f"{vertex!r} not on the path of {rival}")
    if vertex == rival_vertices[0]:
        return False  # the rival starts there at the configuration time, unbeatable
    fixed = {a: tuple(p) for a, p in alpha.items() if a != zeta}
    table = earliest_arrival_table(graph, config, fixed, zeta)
    tau_v = table.arrival(vertex)
    if math.isinf(tau_v):
        return False
    # the rival keeps its path; the deviator takes any of its own
    deviations = _deviations(graph, config, fixed, zeta, guard)
    tau_rival = min((trace.arrival(rival, vertex) for _, trace in deviations), default=math.inf)
    if tau_v < tau_rival:
        return True
    if tau_v > tau_rival:
        return False
    entering = next(e for e in rival_path if graph.edge(e).head == vertex)
    return graph.rank(table.estar[vertex]) <= graph.rank(entering)
