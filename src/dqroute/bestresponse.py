"""Earliest-arrival best responses via dynamic programming, with a brute-force
oracle and the vertex-domination predicate."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .dynamics import Configuration, RoutingTrace, run_paths
from .errors import Unreachable, VertexNotOnPath
from .netcore import Agent, Graph


_EMPTY: Mapping = {}


class QueueCounters:
    """The occupancy index the best-response recursion reads: |Q_e^t| and the
    previous-edge ranks of the agents entering e at t.

    It is written only by `commit`, one trajectory at a time: all of a
    simulation's trajectories (`from_trace`) or each chosen path of a solver.
    Initial queue members rank -1, strictly ahead of any entrant.
    """

    def __init__(self):
        self.sizes: dict[str, dict[int, int]] = {}
        self.entrant_ranks: dict[str, dict[int, list[int]]] = {}

    @classmethod
    def from_trace(cls, graph: Graph, trace: RoutingTrace) -> "QueueCounters":
        """The queue lengths and entrants of a simulation, from its trajectories."""
        counters = cls()
        for agent, path in trace.paths.items():
            counters.commit(graph, path, trace.vertex_times[agent], -1)
        return counters

    def size(self, edge: str, t: int) -> int:
        return self.sizes.get(edge, {}).get(t, 0)

    def commit(
        self, graph: Graph, path: Sequence[str], times: Mapping[str, int], rank: int
    ) -> None:
        """Add one trajectory: the agent queues on each path edge (u, v) during
        [times[u], times[v]) and enters it with the rank of its previous edge,
        or with the given rank on its first edge. Times rise strictly along the
        path, so every entrant of an edge at t is queued there at t."""
        arcs = graph.plan().arcs
        for e in path:
            tail, head, next_rank = arcs[e]
            enter = times[tail]
            sizes = self.sizes.get(e)
            if sizes is None:
                sizes = self.sizes[e] = {}
                self.entrant_ranks[e] = {}
            for t in range(enter, times[head]):
                sizes[t] = sizes.get(t, 0) + 1
            self.entrant_ranks[e].setdefault(enter, []).append(rank)
            rank = next_rank

    def assert_displaces_none(
        self, graph: Graph, path: Sequence[str], times: Mapping[str, int], rank: int
    ) -> None:
        """Assert that committing the trajectory puts no indexed agent behind it:
        on no path edge does an agent of lower priority enter at the same time,
        or any agent enter while it queues. Iterative domination promises this
        to every trajectory a dominating-profile solver commits."""
        arcs = graph.plan().arcs
        for e in path:
            tail, head, next_rank = arcs[e]
            enter, leave = times[tail], times[head]
            entered = self.entrant_ranks.get(e, _EMPTY)
            for r in entered.get(enter, ()):
                assert r <= rank
            if leave > enter + 1:
                assert entered.keys().isdisjoint(range(enter + 1, leave))
            rank = next_rank


@dataclass
class EarliestArrivalTable:
    """tau[v]: earliest arrival of the deviator at v; estar[v]: the highest-priority
    entering edge achieving it; achieving[v]: all achieving entering edges in
    priority order."""

    zeta: Agent
    start_time: int
    start_vertex: str
    tau: dict[str, int]
    estar: dict[str, str]
    achieving: dict[str, tuple[str, ...]]

    def arrival(self, vertex: str) -> float:
        return self.tau.get(vertex, math.inf)

    def path_to(self, graph: Graph, vertex: str) -> tuple[str, ...]:
        """The edges e*(.) from start_vertex to the vertex, traced back from it."""
        arcs = graph.plan().arcs
        path: list[str] = []
        while vertex != self.start_vertex:
            e = self.estar[vertex]
            path.append(e)
            vertex = arcs[e][0]
        return tuple(reversed(path))


def dp_from_vertex(
    graph: Graph,
    zeta: Agent,
    start_vertex: str,
    start_time: int,
    start_edge: Optional[str],
    start_rank: int,
    counters: QueueCounters,
) -> EarliestArrivalTable:
    """Run the earliest-arrival recursion from a seeded vertex in topological order.

    start_edge/start_rank describe how the deviator shows up at start_vertex for
    same-time priority comparisons on the first hop.
    """
    tau: dict[str, int] = {start_vertex: start_time}
    estar: dict[str, str] = {}
    ref_rank: dict[str, int] = {start_vertex: start_rank}
    achieving: dict[str, tuple[str, ...]] = {}
    if start_edge is not None:
        estar[start_vertex] = start_edge
        achieving[start_vertex] = (start_edge,)
    sizes, entrant_ranks = counters.sizes, counters.entrant_ranks
    plan = graph.plan()
    # vertices before start_vertex in topological order cannot be reached
    for v, arcs in plan.order[plan.position[start_vertex] + 1 :]:
        best = 0
        winners: list[str] = []
        for name, u, rank in arcs:  # priority order: first winner is e*(v)
            tu = tau.get(u)
            if tu is None:
                continue
            val = tu + 1
            # agents ahead: those queued at tu less the entrants ranked no
            # higher; every entrant at tu is queued at tu
            queued = sizes.get(name, _EMPTY).get(tu)
            if queued:
                val += queued
                ref = ref_rank[u]
                if ref >= 0:
                    for r in entrant_ranks[name].get(tu, ()):
                        if r >= ref:
                            val -= 1
            if not winners or val < best:
                best = val
                winners = [name]
                top = rank
            elif val == best:
                winners.append(name)
        if winners:
            tau[v] = best
            estar[v] = winners[0]
            achieving[v] = tuple(winners)
            ref_rank[v] = top
    return EarliestArrivalTable(zeta, start_time, start_vertex, tau, estar, achieving)


def fixed_counters(
    graph: Graph,
    config: Configuration,
    fixed: Mapping[Agent, Sequence[str]],
    zeta: Agent,
) -> QueueCounters:
    """Simulate the fixed agents with the deviator removed and index the queues."""
    others = [a for a in config.agents() if a in fixed and a != zeta]
    if not others:
        return QueueCounters()
    sub = config.restrict(others)
    trace = run_paths(graph, sub, {a: fixed[a] for a in others})
    return QueueCounters.from_trace(graph, trace)


def queued_agent_table(
    graph: Graph,
    zeta: Agent,
    edge_name: str,
    time: int,
    idx: int,
    counters: QueueCounters,
) -> EarliestArrivalTable:
    """Earliest-arrival table of an agent with idx agents ahead of it in the
    queue of edge_name at the given time."""
    edge = graph.edge(edge_name)
    table = dp_from_vertex(graph, zeta, start_vertex=edge.head, start_time=time + idx + 1,
                           start_edge=edge_name, start_rank=graph.rank(edge_name), counters=counters)
    # the agent counts as reaching its current tail at the configuration time
    table.tau[edge.tail] = time
    return table


def earliest_arrival_table(
    graph: Graph,
    config: Configuration,
    fixed: Mapping[Agent, Sequence[str]],
    zeta: Agent,
    counters: Optional[QueueCounters] = None,
) -> EarliestArrivalTable:
    """Earliest times the deviator can reach every vertex given the others' paths.

    The deviator's queue position on its current edge seeds the recursion; the
    interim set is the fixed agents plus the deviator, everyone else vanishes.
    """
    world = config.restrict([a for a in config.agents() if a in fixed or a == zeta])
    edge_name, idx = world.locate(zeta)
    if counters is None:
        counters = fixed_counters(graph, world, fixed, zeta)
    return queued_agent_table(graph, zeta, edge_name, config.time, idx, counters)


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
    if d not in table.tau:
        raise Unreachable(f"{zeta} cannot reach {d!r}")
    edge_name, _ = config.locate(zeta)
    return (edge_name,) + table.path_to(graph, d)


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
    world = config.restrict([a for a in config.agents() if a in fixed or a == zeta])
    edge_name, _ = world.locate(zeta)
    candidates = graph.paths(edge_name, graph.destination, guard=guard)
    fixed_only = {a: tuple(p) for a, p in fixed.items() if a != zeta}
    best = math.inf
    argmin: list[tuple[str, ...]] = []
    for path in candidates:
        trace = run_paths(graph, world, {**fixed_only, zeta: path})
        t = trace.exit_times[zeta]
        if t < best:
            best = t
            argmin = [path]
        elif t == best:
            argmin.append(path)
    if not argmin:
        raise Unreachable(f"{zeta} has no path to {graph.destination!r}")
    return int(best), tuple(argmin)


def rival_earliest_arrival(
    graph: Graph,
    config: Configuration,
    alpha: Mapping[Agent, Sequence[str]],
    zeta: Agent,
    rival: Agent,
    vertex: str,
    guard: int = 100_000,
) -> float:
    """Earliest the rival (keeping its own path) reaches the vertex over all of
    the deviator's path choices, by guarded enumeration."""
    world = config.restrict(alpha)
    edge_name, _ = world.locate(zeta)
    best = math.inf
    others = {a: tuple(p) for a, p in alpha.items() if a != zeta}
    for path in graph.paths(edge_name, graph.destination, guard=guard):
        trace = run_paths(graph, world, {**others, zeta: path})
        best = min(best, trace.arrival(rival, vertex))
    return best


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
    tau_rival = rival_earliest_arrival(graph, config, alpha, zeta, rival, vertex, guard)
    if tau_v < tau_rival:
        return True
    if tau_v > tau_rival:
        return False
    entering = next(e for e in rival_path if graph.edge(e).head == vertex)
    return graph.rank(table.estar[vertex]) <= graph.rank(entering)
