"""Configurations, the deterministic queuing rule, and path-profile simulation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import HorizonExceeded, InvalidAction, PathNotFromCurrentEdge, UnknownAgent
from .netcore import Agent, Graph

EXIT = None  # action taken by a queue head whose edge ends at the destination


@dataclass(frozen=True)
class Configuration:
    """Disjoint ordered agent queues per edge at one time step (head first).

    Queues are stored as a sorted tuple of (edge, agents) pairs with empty
    queues omitted, so equal configurations compare and hash equal.
    """

    time: int
    queues: tuple[tuple[str, tuple[Agent, ...]], ...]

    @classmethod
    def from_mapping(cls, time: int, queues: Mapping[str, Sequence[Agent]]) -> "Configuration":
        items = tuple(sorted((e, tuple(q)) for e, q in queues.items() if q))
        return cls(time=time, queues=items)

    def queue(self, edge: str) -> tuple[Agent, ...]:
        for e, q in self.queues:
            if e == edge:
                return q
        return ()

    def agents(self) -> tuple[Agent, ...]:
        return tuple(a for _, q in self.queues for a in q)

    def locate(self, agent: Agent) -> tuple[str, int]:
        """(edge, queue index) of the agent."""
        for e, q in self.queues:
            if agent in q:
                return e, q.index(agent)
        raise UnknownAgent(str(agent))

    def is_empty(self) -> bool:
        return not self.queues

    def content_key(self) -> tuple:
        """Time-independent identity of the queue contents (for Markov memoization)."""
        return self.queues

    def restrict(self, agents: Iterable[Agent]) -> "Configuration":
        """Keep only the given agents, preserving queue order."""
        keep = set(agents)
        items = ((e, tuple(a for a in q if a in keep)) for e, q in self.queues)
        return Configuration(self.time, tuple((e, q) for e, q in items if q))


def action_set(graph: Graph, config: Configuration, agent: Agent) -> frozenset[str]:
    """Available actions: empty set means the forced exit at the destination."""
    return _allowed(graph, *config.locate(agent))


def _allowed(graph: Graph, edge_name: str, idx: int) -> frozenset[str]:
    """Actions of the agent at index idx of the queue on edge_name."""
    return frozenset([edge_name] if idx > 0 else graph.plan().menus[edge_name])


def _round(ranks: Mapping[str, int], queues: Sequence[tuple[str, tuple[Agent, ...]]]):
    """The one queuing round from the (edge, queue) pairs, compiled once: a
    function from the heads' actions, in queue order, to the successor's
    pairs. Each head leaves its edge for its action (the next edge or EXIT)
    and the agents behind it stay. Entrants of an edge queue behind its
    agents, sorted by the ranks of their previous edges, distinct in-edges of
    its tail, so the heads join in the ranks' order."""
    rest, ranked = {}, []
    for i, (e, q) in enumerate(queues):
        if len(q) > 1:
            rest[e] = q[1:]
        ranked.append((ranks[e], i, q[0]))
    ranked.sort()  # ranks, then distinct indices: agents are never compared

    def successor(heads: Sequence[Optional[str]]) -> tuple[tuple[str, tuple[Agent, ...]], ...]:
        out = rest.copy()
        for _, i, agent in ranked:
            act = heads[i]
            if act is not EXIT:
                out[act] = out[act] + (agent,) if act in out else (agent,)
        return tuple(sorted(out.items()))

    return successor


def profile_of(config: Configuration, heads: Sequence[Optional[str]]) -> dict[Agent, Optional[str]]:
    """The action profile whose queue heads, in queue order, take `heads`:
    every agent behind a head stays on its edge."""
    return {a: e if i else h for (e, q), h in zip(config.queues, heads) for i, a in enumerate(q)}


def step(graph: Graph, config: Configuration, actions: Mapping[Agent, Optional[str]]) -> Configuration:
    """Apply one round of simultaneous actions (`_round`) after checking
    each agent's action against its action set: its own edge behind the
    head, the out-edges of the edge's head for the head."""
    for e, q in config.queues:
        for idx, agent in enumerate(q):
            if agent not in actions:
                raise InvalidAction(agent, "missing from action profile")
            act = actions[agent]
            allowed = _allowed(graph, e, idx)
            if act is EXIT:
                if allowed:
                    raise InvalidAction(agent, "exit is only available at the destination head")
            elif act not in allowed:
                raise InvalidAction(agent, f"{act!r} not in action set {sorted(allowed)}")
    successor = _round(graph.plan().ranks, config.queues)
    return Configuration(config.time + 1, successor(tuple(actions[q[0]] for _, q in config.queues)))


@dataclass
class RoutingTrace:
    """Arrival-time ledger of one simulated routing: its trajectories.

    vertex_times[i][v] is when agent i reaches v, with the tail of its first
    edge reached at the start time; absent agents and vertices read as
    infinity via `arrival`. Agent i enters a path edge (u, v) at
    vertex_times[i][u] and queues on it until vertex_times[i][v], so these
    times fix every queue: `bestresponse.QueueCounters.from_trace` derives the
    queue lengths and entrants.
    """

    start_time: int
    paths: dict[Agent, tuple[str, ...]]
    vertex_times: dict[Agent, dict[str, int]]
    exit_times: dict[Agent, int]
    horizon: int

    def arrival(self, agent: Agent, vertex: str) -> float:
        return self.vertex_times.get(agent, {}).get(vertex, math.inf)

    def rows(self) -> list[tuple[str, str, int]]:
        """Tabular (agent, vertex, time) report rows, sorted by time then agent."""
        out = [(agent.name, v, t) for agent, times in self.vertex_times.items() for v, t in times.items()]
        return sorted(out, key=lambda row: (row[2], row[0], row[1]))


def default_horizon(graph: Graph, config: Configuration) -> int:
    n = sum(len(q) for _, q in config.queues)
    m = len(graph.edges)
    return config.time + n * m + m + 2


def validate_paths(graph: Graph, config: Configuration, paths: Mapping[Agent, Sequence[str]]) -> None:
    start_edge = {a: e for e, q in config.queues for a in q}
    edges = graph.edges
    for agent in start_edge:
        if agent not in paths:
            raise PathNotFromCurrentEdge(agent, "no path given")
    for agent, path in paths.items():
        edge_name = start_edge.get(agent)
        if edge_name is None:
            raise UnknownAgent(str(agent))
        if not path or path[0] != edge_name:
            raise PathNotFromCurrentEdge(agent, f"expected first edge {edge_name!r}, got {path[:1]}")
        for a, b in zip(path, path[1:]):
            if edges[a].head != edges[b].tail:
                raise PathNotFromCurrentEdge(agent, f"edges {a!r},{b!r} are not consecutive")
        if edges[path[-1]].head != graph.destination:
            raise PathNotFromCurrentEdge(agent, "path does not end at the destination")


def run_paths(
    graph: Graph,
    config: Configuration,
    paths: Mapping[Agent, Sequence[str]],
    horizon: Optional[int] = None,
) -> RoutingTrace:
    """Simulate all agents along fixed paths until everyone has exited, one
    `_round` per time step.

    The trace holds each agent's vertex times and exit time; queue lengths
    and entrants follow from them (`bestresponse.QueueCounters.from_trace`).
    Deterministic: identical inputs produce identical traces.
    """
    validate_paths(graph, config, paths)
    return _simulate(graph, config, paths, horizon)


def _simulate(graph: Graph, config: Configuration, paths: Mapping[Agent, Sequence[str]],
              horizon: Optional[int] = None) -> RoutingTrace:
    """`run_paths` without validation, for paths drawn from the configuration's menus."""
    limit = horizon if horizon is not None else default_horizon(graph, config)
    t = config.time
    queues, edges, ranks = config.queues, graph.edges, graph.plan().ranks
    ahead = {a: iter(p[1:]) for a, p in paths.items()}
    actions = {a: next(rest, EXIT) for a, rest in ahead.items()}
    vertex_times = {a: {edges[e].tail: t} for e, q in queues for a in q}
    exit_times: dict[Agent, int] = {}
    while queues:
        if t > limit:
            raise HorizonExceeded(f"simulation passed time {limit}")
        t += 1
        heads = []
        for e, q in queues:
            agent = q[0]
            heads.append(act := actions[agent])
            vertex_times[agent][edges[e].head] = t
            if act is EXIT:
                exit_times[agent] = t
            else:
                actions[agent] = next(ahead[agent], EXIT)
        queues = _round(ranks, queues)(heads)
    return RoutingTrace(
        start_time=config.time,
        paths={a: tuple(p) for a, p in paths.items()},
        vertex_times=vertex_times,
        exit_times=exit_times,
        horizon=t,
    )
