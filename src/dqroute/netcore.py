"""Network data model: validation, unit normalization, inflow chains, series-parallel
decomposition and leftmost minimum cuts."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    CyclicGraph,
    EdgeOffAllPaths,
    EmptySchedule,
    IncompletePriorityOrder,
    MalformedEdge,
    TooManyPaths,
    UnknownAgent,
)

RESERVED_PREFIX = "~"


@dataclass(frozen=True)
class Edge:
    name: str
    tail: str
    head: str
    capacity: int = 1
    transit: int = 1


@dataclass(frozen=True)
class GraphPlan:
    """A graph compiled for its hot loops, on integer ids: vertex ids follow
    the topological order and edge ids the declaration order. `order[v]`
    lists vertex v's in-arcs (edge, tail, rank) in priority order and
    `arcs[e]` is edge e's (tail, head, rank). `vertices` and `edges` name
    the ids, `vertex_id` and `edge_id` number the names, and `ranks` and
    `menus` map an edge name to its rank and its head's sorted out-edges."""

    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    vertex_id: dict[str, int]
    edge_id: dict[str, int]
    order: tuple[tuple[tuple[int, int, int], ...], ...]
    arcs: tuple[tuple[int, int, int], ...]
    ranks: dict[str, int]
    menus: dict[str, tuple[str, ...]]


class Graph:
    """Directed multigraph with a strict incoming-edge priority order at every vertex.

    Edges are addressed by unique names so parallel edges stay distinct.  The
    priority tuple at a vertex lists its incoming edges from highest to lowest.
    """

    def __init__(
        self,
        edges: Sequence[Edge],
        origin: str,
        destination: str,
        priorities: Optional[Mapping[str, Sequence[str]]] = None,
        vertices: Optional[Iterable[str]] = None,
    ):
        self.edges: dict[str, Edge] = {}
        for e in edges:
            if e.name in self.edges:
                raise MalformedEdge(f"duplicate edge name {e.name!r}")
            self.edges[e.name] = e
        vs = dict.fromkeys(vertices or [])
        for e in self.edges.values():
            vs.setdefault(e.tail)
            vs.setdefault(e.head)
        self.vertices: tuple[str, ...] = tuple(vs)
        self.origin = origin
        self.destination = destination

        self._in: dict[str, list[str]] = {v: [] for v in self.vertices}
        self._out: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges.values():
            self._in[e.head].append(e.name)
            self._out[e.tail].append(e.name)

        # Priorities default to declaration order where unspecified.
        self.priorities: dict[str, tuple[str, ...]] = {}
        priorities = priorities or {}
        for v in self.vertices:
            given = priorities.get(v)
            self.priorities[v] = tuple(given) if given is not None else tuple(self._in[v])
        self._rank: dict[str, int] = {}
        for v, order in self.priorities.items():
            for i, name in enumerate(order):
                self._rank[name] = i
        self._topo: Optional[tuple[str, ...]] = None
        self._plan: Optional[GraphPlan] = None

    # -- structure accessors --------------------------------------------------

    def edge(self, name: str) -> Edge:
        return self.edges[name]

    def in_edges(self, v: str) -> tuple[str, ...]:
        return self.priorities[v]

    def out_edges(self, v: str) -> tuple[str, ...]:
        return tuple(self._out[v])

    def rank(self, edge_name: str) -> int:
        """Position of an edge in the priority order at its head (0 = highest)."""
        return self._rank[edge_name]

    def topo_order(self) -> tuple[str, ...]:
        if self._topo is None:
            indeg = {v: len(self._in[v]) for v in self.vertices}
            frontier = [v for v in self.vertices if indeg[v] == 0]
            order: list[str] = []
            while frontier:
                v = frontier.pop()
                order.append(v)
                for name in self._out[v]:
                    h = self.edges[name].head
                    indeg[h] -= 1
                    if indeg[h] == 0:
                        frontier.append(h)
            if len(order) != len(self.vertices):
                raise CyclicGraph("graph contains a directed cycle")
            self._topo = tuple(order)
        return self._topo

    def plan(self) -> GraphPlan:
        """The compiled in-arc plan, built on first use."""
        if self._plan is None:
            vertices = self.topo_order()
            vertex_id = {v: i for i, v in enumerate(vertices)}
            edge_id = {n: i for i, n in enumerate(self.edges)}
            arcs = tuple(
                (vertex_id[e.tail], vertex_id[e.head], self._rank[n]) for n, e in self.edges.items()
            )
            order = tuple(
                tuple((edge_id[n], vertex_id[self.edges[n].tail], self._rank[n])
                      for n in self.priorities[v])
                for v in vertices
            )
            menus = {n: () if e.head == self.destination else tuple(sorted(self._out[e.head]))
                     for n, e in self.edges.items()}  # none for the exit at the destination
            self._plan = GraphPlan(vertices, tuple(self.edges), vertex_id, edge_id, order, arcs,
                                   self._rank, menus)
        return self._plan

    def paths(self, first_edge: str, target: str, guard: Optional[int] = None) -> list[tuple[str, ...]]:
        """Every path that starts with `first_edge` and ends at `target`, as edge tuples."""
        out: list[tuple[str, ...]] = []
        prefix = [first_edge]
        # explicit DFS stack of out-edge cursors, safe for very long paths
        stack = [[self.edges[first_edge].head, 0]]
        while stack:
            at, cursor = stack[-1]
            if at == target and cursor == 0:
                out.append(tuple(prefix))
                if guard is not None and len(out) > guard:
                    raise TooManyPaths(
                        f"more than {guard} paths from {first_edge!r} to {target!r}"
                    )
            options = self._out[at]
            if cursor >= len(options):
                stack.pop()
                prefix.pop()
                continue
            stack[-1][1] += 1
            name = options[cursor]
            prefix.append(name)
            stack.append([self.edges[name].head, 0])
        return out

    def path_vertices(self, path: Sequence[str]) -> tuple[str, ...]:
        vs = [self.edges[path[0]].tail]
        for name in path:
            vs.append(self.edges[name].head)
        return tuple(vs)

    def format_path(self, path: Sequence[str], from_vertex: Optional[str] = None) -> str:
        vs = self.path_vertices(path)
        if from_vertex in vs:
            vs = vs[vs.index(from_vertex):]
        return " ".join(vs)


class Network(Graph):
    """A validated game network: acyclic, every edge on an o-d path, total priorities."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.validate()

    @classmethod
    def build(
        cls,
        origin: str,
        destination: str,
        edges: Sequence[tuple],
        priorities: Optional[Mapping[str, Sequence[str]]] = None,
        vertices: Optional[Iterable[str]] = None,
    ) -> "Network":
        """Edges given as (name, tail, head[, capacity[, transit]]) tuples."""
        built = [Edge(*spec) for spec in edges]
        return cls(built, origin, destination, priorities, vertices)

    def validate(self) -> None:
        if self.origin not in self.priorities or self.destination not in self.priorities:
            raise EdgeOffAllPaths("<origin/destination not in graph>")
        topo = self.topo_order()  # raises CyclicGraph
        if self._in[self.origin]:
            raise IncompletePriorityOrder(self.origin, "origin has incoming edges")
        if self._out[self.destination]:
            raise IncompletePriorityOrder(self.destination, "destination has outgoing edges")
        # reachability, one sweep each way: a tail comes before its heads in `topo`
        edges, from_o, to_d = self.edges, {self.origin}, {self.destination}
        for v in topo:
            if v in from_o:
                for name in self._out[v]:
                    from_o.add(edges[name].head)
        for v in reversed(topo):
            if v in to_d:
                for name in self._in[v]:
                    to_d.add(edges[name].tail)
        for e in self.edges.values():
            if e.capacity < 1 or e.transit < 1:
                raise MalformedEdge(f"edge {e.name!r} needs capacity and transit >= 1")
            if e.tail not in from_o or e.head not in to_d:
                raise EdgeOffAllPaths(e.name)
        for v in self.vertices:
            order = self.priorities[v]
            if len(order) != len(set(order)) or set(order) != set(self._in[v]):
                raise IncompletePriorityOrder(v)
            if v not in (self.origin, self.destination) and (not self._in[v] or not self._out[v]):
                raise EdgeOffAllPaths(f"<vertex {v}>")


@dataclass(frozen=True)
class GraphStats:
    m: int  # number of edges
    longest_path: int  # edges on a longest o-d path
    max_in_degree: int


def validate_and_stats(net: Network) -> GraphStats:
    """Check all Network invariants and report (m, L, Lambda)."""
    net.validate()
    dist = {net.origin: 0}
    for v in net.topo_order():
        if v not in dist:
            continue
        for name in net.out_edges(v):
            h = net.edge(name).head
            cand = dist[v] + 1
            if dist.get(h, -1) < cand:
                dist[h] = cand
    longest = dist.get(net.destination, 0)
    max_in = max((len(net.in_edges(v)) for v in net.vertices), default=0)
    return GraphStats(m=len(net.edges), longest_path=longest, max_in_degree=max_in)


# -- unit normalization -------------------------------------------------------


class UnitNetwork(Network):
    """Network with all capacities and transits equal to 1 plus provenance back to
    the original (edge, lane, segment) triples."""

    def __init__(self, *args, provenance: Optional[Mapping[str, tuple[str, int, int]]] = None, **kwargs):
        super().__init__(*args, **kwargs)
        for e in self.edges.values():
            if e.capacity != 1 or e.transit != 1:
                raise MalformedEdge(f"edge {e.name!r} is not unit in a UnitNetwork")
        self.provenance: dict[str, tuple[str, int, int]] = dict(provenance or {})
        if not self.provenance:
            self.provenance = {name: (name, 0, 0) for name in self.edges}


def normalize_to_unit(net: Network) -> UnitNetwork:
    """Expand every capacity-c transit-t edge into c priority-ordered lanes of t unit edges.

    Lanes of one original edge occupy, as a block ordered by lane index, the
    original edge's slot in the head vertex's priority order.
    """
    edges: list[Edge] = []
    provenance: dict[str, tuple[str, int, int]] = {}
    merge_block: dict[str, list[str]] = {}  # original edge -> its last-segment unit edges
    for e in net.edges.values():
        if e.capacity == 1 and e.transit == 1:
            edges.append(Edge(e.name, e.tail, e.head))
            provenance[e.name] = (e.name, 0, 0)
            merge_block[e.name] = [e.name]
            continue
        block = []
        for lane in range(e.capacity):
            prev = e.tail
            for seg in range(e.transit):
                last = seg == e.transit - 1
                nxt = e.head if last else f"{RESERVED_PREFIX}{e.name}.l{lane}.v{seg + 1}"
                name = f"{RESERVED_PREFIX}{e.name}.l{lane}.s{seg}"
                edges.append(Edge(name, prev, nxt))
                provenance[name] = (e.name, lane, seg)
                prev = nxt
            block.append(name)
        merge_block[e.name] = block
    priorities: dict[str, list[str]] = {}
    for v in net.vertices:
        order: list[str] = []
        for name in net.priorities[v]:
            order.extend(merge_block[name])
        priorities[v] = order
    # interior subdivision vertices have a single incoming edge; default order suffices
    return UnitNetwork(
        edges, net.origin, net.destination, priorities=priorities, provenance=provenance
    )


# -- extended network (inflow chains) ------------------------------------------


class Agent(NamedTuple):
    """Opaque agent identifier with entry wave and slot kept for reporting.

    A named tuple, so dict and set lookups hash and compare it in C."""

    name: str
    entry: Optional[int] = None
    slot: Optional[int] = None

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class InflowSchedule:
    """Finite entry schedule: (time, agents) waves with strictly increasing times >= 1.

    The order of agents inside a wave encodes their original priority."""

    waves: tuple[tuple[int, tuple[Agent, ...]], ...]

    @classmethod
    def build(cls, waves: Sequence[tuple[int, Sequence[str]]]) -> "InflowSchedule":
        new = tuple.__new__  # skips Agent's Python-level __new__
        return cls(tuple([
            (r, tuple([new(Agent, (name, r, slot)) for slot, name in enumerate(names, 1)]))
            for r, names in waves
        ]))

    def __post_init__(self):
        last = 0
        for r, agents in self.waves:
            if r <= last:
                raise EmptySchedule(f"wave times must be strictly increasing and >= 1, got {r}")
            if not agents:
                raise EmptySchedule(f"wave at time {r} is empty")
            last = r

    @property
    def max_wave(self) -> int:
        return max((len(a) for _, a in self.waves), default=0)

    @property
    def last_time(self) -> int:
        return self.waves[-1][0] if self.waves else 0

    def agents(self) -> tuple[Agent, ...]:
        return tuple(a for _, wave in self.waves for a in wave)


class ExtendedNetwork:
    """The unit network plus a super-origin and one inflow chain per slot, long
    enough to hold the whole finite schedule."""

    def __init__(self, base: UnitNetwork, schedule: InflowSchedule):
        if not schedule.waves:
            raise EmptySchedule("schedule has no waves")
        self.schedule = schedule
        self.slots = schedule.max_wave
        self.depth = schedule.last_time
        self.super_origin = f"{RESERVED_PREFIX}obar"

        edges = [Edge(e.name, e.tail, e.head) for e in base.edges.values()]
        priorities = {v: list(base.priorities[v]) for v in base.vertices}
        chain_edges: list[str] = []
        for f in range(1, self.slots + 1):
            prev = self.super_origin
            for dist in range(self.depth, 0, -1):
                nxt = base.origin if dist == 1 else f"{RESERVED_PREFIX}o{f}.{dist - 1}"
                here = f"{RESERVED_PREFIX}o{f}.{dist}"
                name = self.chain_edge(f, dist)
                edges.append(Edge(name, here, nxt))
                chain_edges.append(name)
                if dist == self.depth:
                    top = f"{RESERVED_PREFIX}t{f}"
                    edges.append(Edge(top, prev, here))
                    chain_edges.append(top)
        # chains enter o in slot order, realizing original priorities
        priorities[base.origin] = [self.chain_edge(f, 1) for f in range(1, self.slots + 1)]
        self.graph = Graph(edges, base.origin, base.destination, priorities=priorities)
        self.chain_edges = frozenset(chain_edges)

    @staticmethod
    def chain_edge(slot: int, dist: int) -> str:
        return f"{RESERVED_PREFIX}c{slot}.{dist}"

    def entry_prefix(self, agent: Agent) -> tuple[str, ...]:
        """Chain edges the agent traverses before entering the base network."""
        if agent.entry is None or agent.slot is None:
            raise UnknownAgent(f"agent {agent} carries no schedule metadata")
        return tuple(self.chain_edge(agent.slot, dist) for dist in range(agent.entry, 0, -1))


def build_extended(net: UnitNetwork, schedule: InflowSchedule):
    """Materialize the extended network and its unique initial configuration.

    Agents of the wave at time r start as queue heads of their chain edges at
    distance r from the origin, so they reach it exactly at time r.
    """
    from .dynamics import Configuration  # local import to avoid a cycle

    ext = ExtendedNetwork(net, schedule)
    queues = []
    for r, wave in schedule.waves:
        for f, agent in enumerate(wave, start=1):
            queues.append((ExtendedNetwork.chain_edge(f, r), (agent,)))
    return ext, Configuration(time=0, queues=tuple(sorted(queues)))


# -- minimum cuts --------------------------------------------------------------


def _max_flow_unit(graph: Graph, source: str, sink: str) -> tuple[int, frozenset[str]]:
    """Edmonds-Karp with every edge capacity 1; returns (flow value, residual
    source side)."""
    flow: dict[str, int] = {name: 0 for name in graph.edges}
    value = 0
    while True:
        parent: dict[str, tuple[str, str, bool]] = {}  # vertex -> (prev vertex, edge, forward?)
        seen = {source}
        queue = [source]
        while queue and sink not in seen:
            u = queue.pop(0)
            for name in graph.out_edges(u):
                e = graph.edge(name)
                if flow[name] == 0 and e.head not in seen:
                    seen.add(e.head)
                    parent[e.head] = (u, name, True)
                    queue.append(e.head)
            for name in graph.in_edges(u):
                e = graph.edge(name)
                if flow[name] == 1 and e.tail not in seen:
                    seen.add(e.tail)
                    parent[e.tail] = (u, name, False)
                    queue.append(e.tail)
        if sink not in seen:
            return value, frozenset(seen)
        v = sink
        while v != source:
            u, name, forward = parent[v]
            flow[name] = 1 if forward else 0
            v = u
        value += 1


def leftmost_min_cut(net: Graph):
    """Leftmost minimum o-d edge cut via the residual-reachable (source-minimal)
    construction. Returns (cut edge names, left vertex set, right vertex set)."""
    _, left = _max_flow_unit(net, net.origin, net.destination)
    cut = frozenset(
        name for name, e in net.edges.items() if e.tail in left and e.head not in left
    )
    right = frozenset(v for v in net.vertices if v not in left)
    return cut, left, right


# -- series-parallel decomposition ---------------------------------------------


@dataclass
class SPNode:
    """Node of a series-parallel decomposition tree."""

    kind: str  # "edge" | "series" | "parallel"
    origin: str
    destination: str
    edge: Optional[str] = None
    left: Optional["SPNode"] = None
    right: Optional["SPNode"] = None

    def edge_set(self) -> frozenset[str]:
        if self.kind == "edge":
            return frozenset([self.edge])
        return self.left.edge_set() | self.right.edge_set()

    def nodes(self) -> Iterator["SPNode"]:
        yield self
        if self.kind != "edge":
            yield from self.left.nodes()
            yield from self.right.nodes()


@dataclass
class SPDecomposition:
    root: SPNode

    def nodes(self) -> list[SPNode]:
        return list(self.root.nodes())

    def parallel_nodes(self) -> list[SPNode]:
        return [n for n in self.nodes() if n.kind == "parallel"]


def sp_decompose(net: Network) -> Optional[SPDecomposition]:
    """Decompose a two-terminal series-parallel network, or return None as the
    definite not-series-parallel verdict.

    Reduction order is fixed (parallel merges before series at each pass), which
    pins down the decomposition sequence used everywhere downstream.
    """
    nodes: dict[str, SPNode] = {
        name: SPNode("edge", e.tail, e.head, edge=name) for name, e in net.edges.items()
    }
    work: dict[str, tuple[str, str]] = {name: (e.tail, e.head) for name, e in net.edges.items()}
    counter = itertools.count()

    def fresh() -> str:
        return f"{RESERVED_PREFIX}sp{next(counter)}"

    changed = True
    while changed:
        changed = False
        # parallel reduction: two edges with identical endpoints
        by_ends: dict[tuple[str, str], list[str]] = {}
        for name, ends in sorted(work.items()):
            by_ends.setdefault(ends, []).append(name)
        for ends, names in sorted(by_ends.items()):
            if len(names) >= 2:
                a, b = names[0], names[1]
                merged = fresh()
                nodes[merged] = SPNode("parallel", ends[0], ends[1], left=nodes.pop(a), right=nodes.pop(b))
                del work[a], work[b]
                work[merged] = ends
                changed = True
                break
        if changed:
            continue
        # series reduction: interior vertex with exactly one in and one out edge
        ins: dict[str, list[str]] = {}
        outs: dict[str, list[str]] = {}
        for name, (t, h) in sorted(work.items()):
            outs.setdefault(t, []).append(name)
            ins.setdefault(h, []).append(name)
        for v in sorted(set(ins) & set(outs)):
            if v in (net.origin, net.destination):
                continue
            if len(ins[v]) == 1 and len(outs[v]) == 1:
                a, b = ins[v][0], outs[v][0]
                t, h = work[a][0], work[b][1]
                merged = fresh()
                nodes[merged] = SPNode("series", t, h, left=nodes.pop(a), right=nodes.pop(b))
                del work[a], work[b]
                work[merged] = (t, h)
                changed = True
                break
    if len(work) != 1:
        return None
    (root_name, ends), = work.items()
    if ends != (net.origin, net.destination):
        return None
    return SPDecomposition(root=nodes[root_name])

