"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from dqroute.analysis import BoundReport, OccupancyTrace, RatioVerdict
from dqroute.bestresponse import UNREACHED, EarliestArrivalTable, QueueCounters
from dqroute.dynamics import (
    EXIT,
    Configuration,
    RoutingTrace,
    default_horizon,
    run_paths,
    validate_paths,
)
from dqroute.equilibrium import (
    CheckResult,
    ExitTable,
    PathProfile,
    SolveResult,
    _check_base_invariance,
    build_exit_table,
    iterative_dominating_profile,
    verify_ne,
)
from dqroute.errors import HorizonExceeded, InvalidAction, NotAnNE, TooManyProfiles, Unreachable
from dqroute.fixtures import FIXTURES
from dqroute.netcore import (
    Agent,
    Edge,
    Graph,
    GraphStats,
    InflowSchedule,
    Network,
    SPDecomposition,
    SPNode,
    UnitNetwork,
    build_extended,
    leftmost_min_cut,
    normalize_to_unit,
    sp_decompose,
    validate_and_stats,
)
from dqroute.scenario import load_scenario, parse_scenario
from dqroute.spe import (
    Action,
    DeviationAuditReport,
    DeviationFinding,
    HistoryNode,
    StrategyOracle,
    child_history,
    induced_paths,
    root_history,
)


def random_net(rng: random.Random, max_v: int = 8, max_e: int = 12,
               caps: tuple[int, int] = (1, 1), transits: tuple[int, int] = (1, 1)):
    """Random validated layered DAG; None when the draw fails validation."""
    nv = rng.randint(0, max_v - 2)
    names = ["o"] + [f"v{i}" for i in range(1, nv + 1)] + ["d"]
    edges = []
    for i, v in enumerate(names[:-1]):
        j = rng.randrange(i + 1, len(names))
        edges.append((f"e{len(edges)}", v, names[j],
                      rng.randint(*caps), rng.randint(*transits)))
    while len(edges) < rng.randint(len(names) - 1, max_e):
        i = rng.randrange(len(names) - 1)
        j = rng.randrange(i + 1, len(names))
        edges.append((f"e{len(edges)}", names[i], names[j],
                      rng.randint(*caps), rng.randint(*transits)))
    try:
        net = Network.build("o", "d", edges)
    except Exception:
        return None
    prios = {}
    for v in net.vertices:
        ins = list(net.in_edges(v))
        rng.shuffle(ins)
        prios[v] = ins
    return Network.build("o", "d", edges, priorities=prios)


def random_chain_dag(rng: random.Random, vertices: int = 7, edges: int = 12, fat: float = 0.0):
    """The chain o, v1, ..., d plus random forward edges up to `edges`, so every
    edge lies on an o-d path, with a random priority order at every vertex; a
    `fat` share of the edges gets capacity 2 or transit 2."""
    names = ["o"] + [f"v{i}" for i in range(1, vertices - 1)] + ["d"]
    pairs = [(i, i + 1) for i in range(vertices - 1)]
    while len(pairs) < edges:
        i = rng.randrange(vertices - 1)
        pairs.append((i, rng.randrange(i + 1, vertices)))
    out = []
    for n, (i, j) in enumerate(pairs):
        cap, transit = 1, 1
        if rng.random() < fat:
            cap, transit = (2, 1) if rng.random() < 0.5 else (1, 2)
        out.append((f"e{n}", names[i], names[j], cap, transit))
    prios = {}
    for v in names:
        ins = [e[0] for e in out if e[2] == v]
        rng.shuffle(ins)
        prios[v] = ins
    return Network.build("o", "d", out, priorities=prios)


def random_interim_config(rng: random.Random, net: Network, max_agents: int = 6):
    n = rng.randint(1, max_agents)
    queues: dict[str, list[Agent]] = {}
    agents = []
    for i in range(n):
        e = rng.choice(sorted(net.edges))
        a = Agent(f"a{i}")
        queues.setdefault(e, []).append(a)
        agents.append(a)
    return Configuration.from_mapping(0, queues), agents


def random_schedule(rng: random.Random, waves: int = 2, width: int = 3) -> InflowSchedule:
    out = []
    t = 0
    for _ in range(rng.randint(1, waves)):
        t += rng.randint(1, 2)
        out.append((t, [f"a{t}.{k}" for k in range(rng.randint(1, width))]))
    return InflowSchedule.build(out)


def random_fan(rng: random.Random, fan: int = 2, max_mid: int = 3, max_e: int = 10):
    """Random fan-shaped instance: (extended graph, entry configuration), or None
    when the network draw fails validation.

    `fan` edges leave the origin for their own heads f1..f{fan}; each head has
    two edges into a random layered DAG of up to max_mid middle vertices
    before d. Two waves, each one agent wider than the fan, enter one step
    apart, so agents share a fan edge's queue, part at its head and meet other
    fan edges' agents further on: the case where co-queued agents end up on
    different routes."""
    heads = [f"f{i}" for i in range(1, fan + 1)]
    mids = [f"m{i}" for i in range(1, rng.randint(1, max_mid) + 1)]
    names = mids + ["d"]
    edges = [(f"o_{h}", "o", h) for h in heads]
    for h in heads:
        edges += [(f"e{len(edges) + k}", h, rng.choice(mids)) for k in range(2)]
    for i, v in enumerate(mids):
        edges.append((f"e{len(edges)}", v, names[rng.randrange(i + 1, len(names))]))
    while len(edges) < max_e:
        i = rng.randrange(len(mids))
        edges.append((f"e{len(edges)}", mids[i], names[rng.randrange(i + 1, len(names))]))
    try:
        net = Network.build("o", "d", edges)
    except Exception:
        return None
    prios = {}
    for v in net.vertices:
        ins = list(net.in_edges(v))
        rng.shuffle(ins)
        prios[v] = ins
    net = Network.build("o", "d", edges, priorities=prios)
    waves = [(t, [f"a{t}.{k}" for k in range(1, fan + 2)]) for t in (1, 2)]
    ext, config = build_extended(net, InflowSchedule.build(waves))
    return ext.graph, config


def fanout_config(widths: Sequence[int]):
    """The `fanout` fixture network with waves of the given widths at t=1, 2, ...:
    (graph, entry configuration)."""
    inflow = "".join(
        f"  at {t} " + " ".join(f"a{t}.{k}" for k in range(1, width + 1)) + "\n"
        for t, width in enumerate(widths, start=1)
    )
    loaded = load_scenario(parse_scenario(FIXTURES["fanout"].replace("  at 1 f1 f2 f3\n", inflow)))
    return loaded.graph, loaded.config


def realize_sp_tree(node: SPNode, net_edges: Mapping[str, Edge]) -> Network:
    """Reconstruct the network a decomposition tree describes (for round-trip checks)."""
    edges = [net_edges[name] for name in sorted(node.edge_set())]
    return Network(edges, node.origin, node.destination)


def tiny_schedule_tables(
    rng: random.Random, count: int, guard: int
) -> list[tuple[Graph, Configuration, ExitTable]]:
    """(extended graph, entry configuration, exit table) of `count` random
    two-wave schedules on small networks with at most `guard` joint profiles."""
    out = []
    while len(out) < count:
        net = random_net(rng, max_v=5, max_e=6)
        if net is None:
            continue
        ext, c0 = build_extended(normalize_to_unit(net), random_schedule(rng, waves=2, width=2))
        try:
            out.append((ext.graph, c0, build_exit_table(ext.graph, c0, guard=guard)))
        except TooManyProfiles:
            continue
    return out


def random_fixed_paths(rng: random.Random, net: Network, config: Configuration, skip=()):
    fixed = {}
    for a in config.agents():
        if a in skip:
            continue
        e, _ = config.locate(a)
        fixed[a] = rng.choice(net.paths(e, net.destination, guard=5_000))
    return fixed


def reference_allowed(graph: Graph, edge_name: str, idx: int) -> frozenset[str]:
    """The action set read off the graph, apart from the plan's menus: the own
    edge behind the head, the out-edges of the edge's head for the head, and
    none (the exit) at the destination."""
    if idx > 0:
        return frozenset([edge_name])
    head = graph.edge(edge_name).head
    return frozenset() if head == graph.destination else frozenset(graph.out_edges(head))


def reference_step(
    graph: Graph, config: Configuration, actions: Mapping[Agent, Optional[str]]
) -> Configuration:
    """The queuing rule written out on its own, checks and moves in one loop:
    the oracle for `dynamics.step`.

    Entrants joining an edge are ordered behind the surviving queue by the
    priority order at the edge's tail over their previous edges; the sort is
    stable so injected same-edge entrants keep their relative order.
    """
    queues = {e: list(q) for e, q in config.queues}
    entrants: dict[str, list[tuple[int, Agent]]] = {}
    for e, q in config.queues:
        for idx, agent in enumerate(q):
            if agent not in actions:
                raise InvalidAction(agent, "missing from action profile")
            act = actions[agent]
            allowed = reference_allowed(graph, e, idx)
            if act is EXIT:
                if allowed:
                    raise InvalidAction(agent, "exit is only available at the destination head")
                queues[e].pop(0)
            elif act == e and idx > 0:
                continue  # stays put
            elif act in allowed and idx == 0:
                queues[e].pop(0)
                entrants.setdefault(act, []).append((graph.rank(e), agent))
            else:
                raise InvalidAction(agent, f"{act!r} not in action set {sorted(allowed)}")
    for e, incoming in entrants.items():
        incoming.sort(key=lambda item: item[0])  # stable: same-rank entrants keep order
        queues.setdefault(e, []).extend(agent for _, agent in incoming)
    return Configuration.from_mapping(config.time + 1, queues)


def reference_run_paths(
    graph: Graph,
    config: Configuration,
    paths: Mapping[Agent, Sequence[str]],
    horizon: Optional[int] = None,
) -> RoutingTrace:
    """Path simulation with its own round loop and entrant sort: the oracle
    for `dynamics.run_paths`."""
    validate_paths(graph, config, paths)
    limit = horizon if horizon is not None else default_horizon(graph, config)
    t = config.time

    queues: dict[str, list[Agent]] = {e: list(q) for e, q in config.queues}
    pos: dict[Agent, int] = {}
    vertex_times: dict[Agent, dict[str, int]] = {}
    exit_times: dict[Agent, int] = {}

    for e, q in config.queues:
        for agent in q:
            pos[agent] = 0
            vertex_times[agent] = {graph.edge(e).tail: t}

    while queues:
        if t > limit:
            raise HorizonExceeded(f"simulation passed time {limit}")
        moved: list[tuple[Agent, str, Optional[str]]] = []
        for e in sorted(queues):
            head = queues[e][0]
            path = paths[head]
            idx = pos[head]
            nxt = path[idx + 1] if idx + 1 < len(path) else EXIT
            moved.append((head, e, nxt))
        entrants: dict[str, list[tuple[int, Agent]]] = {}
        for agent, e, nxt in moved:
            queues[e].pop(0)
            if not queues[e]:
                del queues[e]
            v = graph.edge(e).head
            vertex_times[agent][v] = t + 1
            if nxt is EXIT:
                exit_times[agent] = t + 1
            else:
                entrants.setdefault(nxt, []).append((graph.rank(e), agent))
                pos[agent] += 1
        for nxt, incoming in entrants.items():
            incoming.sort(key=lambda item: item[0])
            queues.setdefault(nxt, []).extend(agent for _, agent in incoming)
        t += 1

    return RoutingTrace(
        start_time=config.time,
        paths={a: tuple(p) for a, p in paths.items()},
        vertex_times=vertex_times,
        exit_times=exit_times,
        horizon=t,
    )


def reference_induced_paths(
    graph: Graph,
    history: HistoryNode,
    oracle: StrategyOracle,
    horizon: Optional[int] = None,
) -> tuple[dict[Agent, tuple[str, ...]], RoutingTrace]:
    """Oracle play that asks each agent for its action and `locate`s it to
    read its move, stepping with `reference_step` and closing with
    `reference_run_paths`: the oracle for `spe.induced_paths`."""
    limit = horizon if horizon is not None else default_horizon(graph, history.config)
    node = history
    realized: dict[Agent, list[str]] = {}
    for agent in history.config.agents():
        edge_name, _ = history.config.locate(agent)
        realized[agent] = [edge_name]
    while not node.config.is_empty():
        if node.config.time > limit:
            raise HorizonExceeded(f"induced play passed time {limit}")
        acts = {a: oracle.action(node, a) for a in node.config.agents()}
        for agent, act in acts.items():
            current, idx = node.config.locate(agent)
            if act is not EXIT and idx == 0 and act != current:
                realized[agent].append(act)
        config = reference_step(graph, node.config, acts)
        # a key entry is the queue heads' actions, in queue order
        node = HistoryNode(config, node.key + (tuple(acts[q[0]] for _, q in node.config.queues),), node)
    paths = {a: tuple(p) for a, p in realized.items()}
    trace = reference_run_paths(graph, history.config, paths)
    return paths, trace


def reference_prescribed_actions(config: Configuration, profile: Mapping[Agent, Sequence[str]]
                                 ) -> dict[Agent, Action]:
    """Three-case rule, agent by agent: stay when queued behind someone, exit
    on the final edge, otherwise take the path's next edge; NotAnNE for a path
    that does not start at its agent's edge. The oracle for
    `spe.prescribed_heads`."""
    acts: dict[Agent, Action] = {}
    for edge_name, q in config.queues:
        for idx, agent in enumerate(q):
            path = profile[agent]
            if path[0] != edge_name:
                raise NotAnNE(f"profile path of {agent} does not start at its edge")
            if idx > 0:
                acts[agent] = edge_name
            elif len(path) == 1:
                acts[agent] = EXIT
            else:
                acts[agent] = path[1]
    return acts


class ReferenceSigmaStar(StrategyOracle):
    """Markovian oracle replaying the iterative dominating profile of the
    current configuration; memoized on queue contents.

    It solves every content it is asked about, its own play's successors
    included: the oracle for `spe.SigmaStar`, which seeds those from the
    parent's solve."""

    def __init__(self, graph: Graph):
        super().__init__(graph)
        self._memo: dict[tuple, dict[Agent, Action]] = {}

    def prescription(self, config: Configuration) -> dict[Agent, Action]:
        key = config.content_key()
        if key not in self._memo:
            solve = iterative_dominating_profile(self.graph, config)
            self._memo[key] = reference_prescribed_actions(config, solve.paths)
        return self._memo[key]

    def action(self, history: HistoryNode, agent: Agent) -> Action:
        return self.prescription(history.config)[agent]

    def profile(self, history: HistoryNode) -> dict[Agent, Action]:
        return dict(self.prescription(history.config))

    def state(self, history: HistoryNode) -> tuple:
        return history.config.content_key()


class ReferenceNEBasedOracle(StrategyOracle):
    """The NE-based construction rebuilt from the root at every call, with no
    memo and no shortcut for conforming steps: each step of the history
    simulates the parent's profile, keeps the paths of the batches before the
    first one holding a queue head that left its prescription, and solves the
    rest on them. The oracle for `spe.NEBasedOracle`."""

    def __init__(self, graph: Graph, root_config: Configuration, pi: Mapping[Agent, Sequence[str]]):
        super().__init__(graph)
        if not verify_ne(graph, root_config, pi).passed:
            raise NotAnNE("given profile is not an NE")
        self.pi = {a: tuple(p) for a, p in pi.items()}

    def profile_at(self, history: HistoryNode) -> dict[Agent, tuple[str, ...]]:
        chain = []
        while history.parent is not None:
            chain.append(history)
            history = history.parent
        rho = self.pi
        for node in reversed(chain):
            config = node.parent.config
            exits = reference_run_paths(self.graph, config, rho).exit_times
            batches = [sorted((a for a in exits if exits[a] == t), key=lambda a: a.name)
                       for t in sorted(set(exits.values()))]
            prescribed = reference_prescribed_actions(config, rho)
            moved = {q[0] for (_, q), act in zip(config.queues, node.key[-1]) if act != prescribed[q[0]]}
            matched = next((k for k, b in enumerate(batches) if moved.intersection(b)), len(batches))
            edge = {a: e for e, q in node.config.queues for a in q}
            kept = [a for a in edge if any(a in b for b in batches[:matched])]
            base = {a: rho[a] if rho[a][0] == edge[a] else rho[a][1:] for a in kept}
            if len(base) < len(edge):
                base = iterative_dominating_profile(self.graph, node.config, base=base,
                                                    base_check_samples=0).paths
            rho = base
        return rho

    def action(self, history: HistoryNode, agent: Agent) -> Action:
        return self.profile(history)[agent]

    def profile(self, history: HistoryNode) -> dict[Agent, Action]:
        return reference_prescribed_actions(history.config, self.profile_at(history))

    def state(self, history: HistoryNode) -> tuple:
        rho = self.profile_at(history)
        return history.config.content_key(), tuple(rho[a] for a in history.config.agents())


def reference_exhaustive_histories(
    graph: Graph,
    config: Configuration,
    depth: Optional[int] = None,
    guard: int = 200_000,
) -> list[HistoryNode]:
    """Every history reachable under arbitrary play, to the given depth
    (default: until everyone exits), stepped one history at a time: the
    oracle for `spe.exhaustive_histories`."""
    limit = depth if depth is not None else default_horizon(graph, config) - config.time
    root = root_history(config)
    out = [root]
    frontier = deque([root])
    while frontier:
        node = frontier.popleft()
        if node.config.is_empty() or node.config.time - config.time >= limit:
            continue
        agents = node.config.agents()
        menus = [
            sorted(reference_allowed(graph, e, idx)) or [EXIT]
            for e, q in node.config.queues
            for idx in range(len(q))
        ]
        for combo in itertools.product(*menus):
            child = child_history(graph, node, dict(zip(agents, combo)))
            out.append(child)
            frontier.append(child)
            if len(out) > guard:
                raise HorizonExceeded(f"history tree exceeds {guard} nodes")
    return out


def reference_history_name(node: HistoryNode) -> tuple:
    """A history's profiles by name, read off its configurations: per step,
    each agent of the parent's (agent name, action) pair, sorted by name,
    where the action is the edge the agent is on next ('' once it has left):
    the oracle for `spe.history_name`."""
    names = []
    while node.parent is not None:
        after = {a: e for e, q in node.config.queues for a in q}
        names.append(tuple(sorted((a.name, after.get(a, "")) for a in node.parent.config.agents())))
        node = node.parent
    return tuple(reversed(names))


def reference_one_deviation_audit(
    graph: Graph,
    oracle: StrategyOracle,
    histories: Iterable[HistoryNode],
) -> DeviationAuditReport:
    """Check that no single agent gains by deviating once and conforming after,
    re-playing the oracle from every history: the oracle for
    `spe.one_deviation_audit`."""
    report = DeviationAuditReport()
    exit_memo: dict[tuple, dict[Agent, int]] = {}

    def exits_from(node: HistoryNode) -> dict[Agent, int]:
        if node.key not in exit_memo:
            _, trace = induced_paths(graph, node, oracle)
            exit_memo[node.key] = dict(trace.exit_times)
        return exit_memo[node.key]

    for node in histories:
        if node.config.is_empty():
            continue
        report.audited_histories += 1
        base = exits_from(node)
        prof = oracle.profile(node)
        for e, q in node.config.queues:
            for idx, agent in enumerate(q):
                for alt in sorted(reference_allowed(graph, e, idx) - {prof[agent]}):
                    report.audited_deviations += 1
                    deviated = child_history(graph, node, {**prof, agent: alt})
                    t_dev = exits_from(deviated)[agent]
                    if t_dev < base[agent]:
                        report.violations.append(
                            DeviationFinding(
                                history_key=reference_history_name(node),
                                time=node.time,
                                agent=agent,
                                alternative=alt,
                                conforming_exit=base[agent],
                                deviating_exit=t_dev,
                            )
                        )
    return report


def step_replay(net: Graph, config: Configuration, paths) -> list[Configuration]:
    """Configurations of `reference_step` driven along fixed paths, from
    config until every agent has exited: the slow, rule-by-rule replay of
    `run_paths`."""
    configs = [config]
    pos = {a: 0 for a in config.agents()}
    while not configs[-1].is_empty():
        acts = {}
        for e, q in configs[-1].queues:
            acts.update({a: e for a in q[1:]})
            head, path = q[0], paths[q[0]]
            if pos[head] + 1 < len(path):
                pos[head] += 1
                acts[head] = path[pos[head]]
            else:
                acts[head] = EXIT
        configs.append(reference_step(net, configs[-1], acts))
    return configs


def replay_queue_lengths(configs: list[Configuration]) -> dict[str, dict[int, int]]:
    """{edge: {time: queue length}} over the nonempty queues of a replay."""
    lengths: dict[str, dict[int, int]] = {}
    for c in configs:
        for e, q in c.queues:
            lengths.setdefault(e, {})[c.time] = len(q)
    return lengths


def reference_capacity_sim(net: Network, schedule: InflowSchedule, g_paths) -> dict[Agent, int]:
    """Direct capacity-c/transit-t simulator: each step every edge releases up to
    its capacity from the FIFO queue; entrants are ordered by previous-edge
    priority, then by their order inside the releasing batch."""
    waiting: dict[str, list[Agent]] = {e: [] for e in net.edges}
    transit: list[tuple[int, int, Agent, str]] = []
    pos: dict[Agent, int] = {}
    exits: dict[Agent, int] = {}
    events = {r: list(wave) for r, wave in schedule.waves}
    remaining = {a for _, wave in schedule.waves for a in wave}
    t = 0
    while remaining:
        t += 1
        assert t < 10_000, "reference simulator did not drain"
        joiners = []
        done = [x for x in transit if x[0] == t]
        transit = [x for x in transit if x[0] != t]
        for _, batch_idx, agent, edge in sorted(done, key=lambda x: x[1]):
            head = net.edge(edge).head
            if head == net.destination:
                exits[agent] = t
                remaining.discard(agent)
                continue
            pos[agent] += 1
            joiners.append((g_paths[agent][pos[agent]], net.rank(edge), batch_idx, agent))
        for slot, agent in enumerate(events.pop(t, [])):
            pos[agent] = 0
            joiners.append((g_paths[agent][0], -1, slot, agent))
        joiners.sort(key=lambda x: (x[1], x[2]))
        for edge, _, _, agent in joiners:
            waiting[edge].append(agent)
        for e in sorted(net.edges):
            cap = net.edge(e).capacity
            batch = waiting[e][:cap]
            waiting[e] = waiting[e][cap:]
            for k, agent in enumerate(batch):
                transit.append((t + net.edge(e).transit, k, agent, e))
    return exits


def unit_lanes(unit: UnitNetwork, original_edge: str) -> list[list[str]]:
    """Unit edges of one original edge, grouped by lane, in segment order,
    read off the provenance."""
    grouped: dict[int, list[tuple[int, str]]] = {}
    for name, (orig, lane, seg) in unit.provenance.items():
        if orig == original_edge:
            grouped.setdefault(lane, []).append((seg, name))
    return [[name for _, name in sorted(segs)] for _, segs in sorted(grouped.items())]


class LaneDispatchOracle(StrategyOracle):
    """Follow a fixed original-edge path on the normalized network, picking the
    least-backlogged lane of every fat edge; simultaneous entrants coordinate by
    entering-edge priority so the expansion emulates the multi-server queue."""

    def __init__(self, graph, unit, g_paths, chain_edges):
        super().__init__(graph)
        self.unit = unit
        self.g_paths = g_paths
        self.chain_edges = chain_edges

    def _hop(self, config, agent):
        edge_name, idx = config.locate(agent)
        if idx > 0:
            return None
        head = self.graph.edge(edge_name).head
        if head == self.graph.destination:
            return None
        path = self.g_paths[agent]
        if edge_name in self.chain_edges:
            if head != self.unit.origin:
                return None
            return head, edge_name, path[0]
        orig, lane, seg = self.unit.provenance[edge_name]
        if seg + 1 < len(unit_lanes(self.unit, orig)[lane]):
            return None
        i = path.index(orig)
        if i + 1 == len(path):
            return None
        return head, edge_name, path[i + 1]

    def action(self, history, agent):
        config = history.config
        edge_name, idx = config.locate(agent)
        if idx > 0:
            return edge_name
        head = self.graph.edge(edge_name).head
        if head == self.graph.destination:
            return EXIT
        hop = self._hop(config, agent)
        if hop is None:
            if edge_name in self.chain_edges:
                return self.graph.out_edges(head)[0]
            orig, lane, seg = self.unit.provenance[edge_name]
            lanes = unit_lanes(self.unit, orig)
            if seg + 1 < len(lanes[lane]):
                return lanes[lane][seg + 1]
            return EXIT
        v, prev, g_next = hop
        ahead = 0
        for other in config.agents():
            if other == agent:
                continue
            other_hop = self._hop(config, other)
            if (
                other_hop
                and other_hop[0] == v
                and other_hop[2] == g_next
                and self.graph.rank(other_hop[1]) < self.graph.rank(prev)
            ):
                ahead += 1
        lanes = unit_lanes(self.unit, g_next)
        order = sorted(range(len(lanes)), key=lambda k: (len(config.queue(lanes[k][0])), k))
        return lanes[order[ahead % len(lanes)]][0]


def random_g_path(rng: random.Random, net: Network) -> list[str]:
    path = []
    v = net.origin
    while v != net.destination:
        e = rng.choice(sorted(net.out_edges(v)))
        path.append(e)
        v = net.edge(e).head
    return path


def reference_dominating_profile(
    graph: Graph,
    config: Configuration,
    base: Optional[PathProfile] = None,
    *,
    base_check_samples: int = 4,
) -> SolveResult:
    """The from-scratch iterative dominating profile: every iteration
    re-simulates the assigned agents into the dict-backed index, recomputes
    every unassigned agent's table with the name-keyed DP and walks back from
    the destination over their tie lists. The oracle for the incremental
    solver; its tables are `ReferenceArrivalTable`s, so compare results with
    `solve_views`."""
    assigned: dict[Agent, tuple[str, ...]] = {a: tuple(p) for a, p in (base or {}).items()}
    if assigned and base_check_samples > 0:
        _check_base_invariance(graph, config, assigned, base_check_samples, random.Random(0))
    remaining = [a for a in config.agents() if a not in assigned]
    order: list[Agent] = []
    chosen_tables: list[ReferenceArrivalTable] = []
    r = config.time
    while remaining:
        counters = ReferenceQueueCounters()
        if assigned:
            world = config.restrict(assigned)
            counters = ReferenceQueueCounters.from_trace(graph, run_paths(graph, world, assigned))
        tables: dict[Agent, ReferenceArrivalTable] = {}
        for j in remaining:
            edge_name, idx = config.restrict([*assigned, j]).locate(j)
            tables[j] = reference_queued_agent_table(graph, j, edge_name, r, idx, counters)
        w = graph.destination
        pool = list(remaining)
        path_rev: list[str] = []
        while True:
            taus = {j: tables[j].arrival(w) for j in pool}
            tau = min(taus.values())
            if math.isinf(tau):
                raise Unreachable(f"no remaining agent reaches {w!r}")
            if tau < r + 1:
                break
            pool = [j for j in pool if taus[j] == tau]
            cands = set()
            for j in pool:
                cands.update(tables[j].achieving.get(w, ()))
            uw = min(cands, key=graph.rank)
            # survivors must share the chosen ending edge (tie-break on last edges)
            pool = [j for j in pool if uw in tables[j].achieving.get(w, ())]
            path_rev.append(uw)
            w = graph.edge(uw).tail
        path = tuple(reversed(path_rev))
        in_line = [a for a in config.queue(path[0]) if a in pool]
        assert in_line, "backward walk must stop at a candidate's current edge"
        chosen = in_line[0]
        order.append(chosen)
        chosen_tables.append(tables[chosen])
        assigned[chosen] = path
        remaining.remove(chosen)
    paths = {a: assigned[a] for a in config.agents()}
    return SolveResult(order=tuple(order), paths=paths, tables=tuple(chosen_tables))


def lane_blockers(graph: Graph, config: Configuration, base=()):
    """Each waiting agent's blocker under the solver's lane rule, found from
    the queue lists and `Graph.out_edges` alone: the nearest unassigned agent
    ahead of it in its queue, else the last unassigned agent of the first
    queue holding one on the walk over single out-edges from its edge's head.
    Also returns the number of walks that stop at a branching vertex with an
    unassigned agent on one of its out-edges."""
    queues = {e: [a for a in q if a not in base] for e, q in config.queues}
    blockers: dict[Agent, Agent] = {}
    stopped = 0
    for e, q in queues.items():
        if not q:
            continue
        blockers.update(zip(q[1:], q))
        v = graph.edge(e).head
        while v != graph.destination:
            outs = graph.out_edges(v)
            if len(outs) > 1:
                stopped += any(queues.get(x) for x in outs)
                break
            if queues.get(outs[0]):
                blockers[q[0]] = queues[outs[0]][-1]
                break
            v = graph.edge(outs[0]).head
    return blockers, stopped


def solve_views(result: SolveResult):
    """A solve's order, paths and chosen tables' (tau, estar) views: what a
    production solve and `reference_dominating_profile` share."""
    return result.order, result.paths, [(t.tau, t.estar) for t in result.tables]


def reference_check_batches(graph, world, profile, trace, batches, menus, options):
    """The uncached sampled pass: one `run_paths` per sampled world. The
    oracle for the pass that reads its worlds through the exit table."""
    rng = random.Random(options.seed)
    independence: Optional[CheckResult] = None
    optimality: Optional[CheckResult] = None
    for j, bound in enumerate(batches.times):
        prefix = batches.prefix(j)
        kept = {a: profile[a] for a in prefix}
        rest = [a for a in profile if a not in kept]
        for _ in range(options.samples):
            completion = {a: rng.choice(menus[a]) for a in rest}
            sub = run_paths(graph, world, {**kept, **completion})
            moved = [a for a in prefix if sub.vertex_times[a] != trace.vertex_times[a]]
            if independence is None and moved:
                independence = CheckResult(
                    "independence",
                    "fail",
                    f"batch {j} agent {moved[0]} moved under a sampled completion",
                    witness={
                        "agent": moved[0].name,
                        "batch": j,
                        "expected": trace.vertex_times[moved[0]],
                        "got": sub.vertex_times[moved[0]],
                        "completion": {b.name: list(p) for b, p in completion.items()},
                    },
                )
            earliest = min(sub.exit_times[a] for a in rest)
            if optimality is None and earliest < bound:
                optimality = CheckResult(
                    "optimality",
                    "fail",
                    f"batch {j + 1} bound {bound} beaten by a sampled completion ({earliest})",
                    witness={
                        "batch": j + 1,
                        "bound": bound,
                        "earliest": earliest,
                        "completion": {b.name: list(p) for b, p in completion.items()},
                    },
                )
            if independence and optimality:
                return independence, optimality
    return (
        independence or CheckResult("independence", "pass"),
        optimality or CheckResult("optimality", "pass"),
    )


# -- occupancy index, earliest-arrival DP, entry-order router and bound
# monitors on name-keyed dicts, read through the graph's accessors one arc at
# a time: the oracles for the id-numbered, list-backed versions


class ReferenceQueueCounters:
    """The dict-backed occupancy index: the oracle for `QueueCounters`."""

    def __init__(self):
        self.sizes: dict[str, dict[int, int]] = {}
        self.entrant_ranks: dict[str, dict[int, list[int]]] = {}
        self.departures: set[tuple[str, int]] = set()  # (edge, time an agent leaves it)

    @classmethod
    def from_trace(cls, graph: Graph, trace: RoutingTrace) -> "ReferenceQueueCounters":
        counters = cls()
        for agent, path in trace.paths.items():
            counters.commit(graph, path, trace.vertex_times[agent], -1)
        return counters

    def size(self, edge: str, t: int) -> int:
        return self.sizes.get(edge, {}).get(t, 0)

    def entered_no_higher(self, edge: str, t: int, ref_rank: int) -> int:
        """Entrants of edge at t whose previous-edge rank is no higher than ref_rank."""
        ranks = self.entrant_ranks.get(edge, {}).get(t)
        return len([r for r in ranks if 0 <= ref_rank <= r]) if ranks else 0

    def commit(
        self, graph: Graph, path: Sequence[str], times: Mapping[str, int], rank: int
    ) -> None:
        for e in path:
            edge = graph.edge(e)
            enter = times[edge.tail]
            sizes = self.sizes.setdefault(e, {})
            for t in range(enter, times[edge.head]):
                sizes[t] = sizes.get(t, 0) + 1
            self.entrant_ranks.setdefault(e, {}).setdefault(enter, []).append(rank)
            self.departures.add((e, times[edge.head]))
            rank = graph.rank(e)

    def breaks_unit_capacity(
        self, graph: Graph, path: Sequence[str], times: Mapping[str, int]
    ) -> bool:
        """Does the trajectory leave a path edge when an indexed agent leaves it?"""
        return any((e, times[graph.edge(e).head]) in self.departures for e in path)

    def assert_displaces_none(
        self, graph: Graph, path: Sequence[str], times: Mapping[str, int], rank: int
    ) -> None:
        for e in path:
            edge = graph.edge(e)
            enter = times[edge.tail]
            assert self.entered_no_higher(e, enter, rank + 1) == 0
            while_queued = range(enter + 1, times[edge.head])
            assert self.entrant_ranks.get(e, {}).keys().isdisjoint(while_queued)
            rank = graph.rank(e)


@dataclass
class ReferenceArrivalTable:
    """The name-keyed earliest-arrival table: the oracle for the views of
    `EarliestArrivalTable`."""

    zeta: Agent
    start_time: int
    start_vertex: str
    tau: dict[str, int]
    estar: dict[str, str]
    achieving: dict[str, tuple[str, ...]]

    def arrival(self, vertex: str) -> float:
        return self.tau.get(vertex, math.inf)

    def path_to(self, graph: Graph, vertex: str) -> tuple[str, ...]:
        path: list[str] = []
        while vertex != self.start_vertex:
            e = self.estar[vertex]
            path.append(e)
            vertex = graph.edge(e).tail
        return tuple(reversed(path))


def reference_dp_from_vertex(
    graph: Graph,
    zeta: Agent,
    start_vertex: str,
    start_time: int,
    start_edge: Optional[str],
    start_rank: int,
    counters: ReferenceQueueCounters,
) -> ReferenceArrivalTable:
    """The oracle for `bestresponse.dp_from_vertex`, on names."""
    tau: dict[str, int] = {start_vertex: start_time}
    estar: dict[str, str] = {}
    ref_rank: dict[str, int] = {start_vertex: start_rank}
    achieving: dict[str, tuple[str, ...]] = {}
    if start_edge is not None:
        estar[start_vertex] = start_edge
        achieving[start_vertex] = (start_edge,)
    for v in graph.topo_order():
        if v == start_vertex:
            continue
        best = math.inf
        winners: list[str] = []
        for name in graph.in_edges(v):  # priority order: first winner is e*(v)
            u = graph.edge(name).tail
            tu = tau.get(u)
            if tu is None:
                continue
            ahead = counters.size(name, tu) - counters.entered_no_higher(name, tu, ref_rank[u])
            val = tu + 1 + ahead
            if val < best:
                best = val
                winners = [name]
            elif val == best:
                winners.append(name)
        if winners:
            tau[v] = int(best)
            estar[v] = winners[0]
            achieving[v] = tuple(winners)
            ref_rank[v] = graph.rank(winners[0])
    return ReferenceArrivalTable(
        zeta=zeta,
        start_time=start_time,
        start_vertex=start_vertex,
        tau=tau,
        estar=estar,
        achieving=achieving,
    )


def reference_queued_agent_table(
    graph: Graph, zeta: Agent, edge_name: str, time: int, idx: int,
    counters: ReferenceQueueCounters,
) -> ReferenceArrivalTable:
    """The oracle for `bestresponse.queued_agent_table`."""
    edge = graph.edge(edge_name)
    table = reference_dp_from_vertex(graph, zeta, edge.head, time + idx + 1, edge_name,
                                     graph.rank(edge_name), counters)
    table.tau[edge.tail] = time
    return table


class ReferenceRoute(NamedTuple):
    """The entry-order router's output, with the dict-backed index."""

    paths: dict[Agent, tuple[str, ...]]
    arrivals: dict[Agent, dict[str, int]]
    exit_times: dict[Agent, int]
    timelines: ReferenceQueueCounters


def reference_route_entry_order(net: UnitNetwork, schedule: InflowSchedule) -> ReferenceRoute:
    """The oracle for `analysis.route_entry_order`."""
    timelines = ReferenceQueueCounters()
    paths: dict[Agent, tuple[str, ...]] = {}
    arrivals: dict[Agent, dict[str, int]] = {}
    exits: dict[Agent, int] = {}
    d = net.destination
    for r, wave in schedule.waves:
        for slot, agent in enumerate(wave, start=1):
            table = reference_dp_from_vertex(net, agent, net.origin, r, None, slot - 1, timelines)
            assert d in table.tau, "validated networks always reach the destination"
            path = table.path_to(net, d)
            times = {v: table.tau[v] for v in net.path_vertices(path)}
            timelines.assert_displaces_none(net, path, times, slot - 1)
            timelines.commit(net, path, times, slot - 1)
            paths[agent] = path
            arrivals[agent] = times
            exits[agent] = times[d]
    return ReferenceRoute(paths, arrivals, exits, timelines)


def reference_occupancy_trace(net: UnitNetwork, result: ReferenceRoute) -> OccupancyTrace:
    """The oracle for `analysis.occupancy_trace`, from the dict-backed index."""
    horizon = max(result.exit_times.values(), default=0)
    per_edge = {e: [0] * (horizon + 1) for e in result.timelines.sizes}
    for e, counts in result.timelines.sizes.items():
        series = per_edge[e]
        for t, n in counts.items():
            if t <= horizon:
                series[t] = n
    total = reference_column_sums(list(per_edge.values()), horizon)
    return OccupancyTrace(horizon, per_edge, total, *reference_ledger(result.exit_times, horizon))


def reference_column_sums(series: Sequence[Sequence[int]], horizon: int) -> list[int]:
    """The oracle for `analysis._column_sums`: one tuple per time, summed."""
    return list(map(sum, zip(*series))) if series else [0] * (horizon + 1)


def reference_ledger(exit_times: Mapping[Agent, int], horizon: int) -> tuple[list[int], list[int]]:
    """(entrants, exiters) at every time 0..horizon, agent by agent."""
    entrants = [0] * (horizon + 1)
    exiters = [0] * (horizon + 1)
    for agent, t in exit_times.items():
        entrants[agent.entry] += 1
        exiters[t] += 1
    return entrants, exiters


def reference_conservation_holds(trace: OccupancyTrace) -> bool:
    """The oracle for `OccupancyTrace.conservation_holds`, step by step."""
    for t in range(1, trace.horizon + 1):
        if trace.total[t] != trace.total[t - 1] + trace.entrants[t] - trace.exiters[t]:
            return False
    return True


def reference_stabilization(series: Sequence[int]) -> tuple[int, int]:
    """(last time the running maximum grew, the maximum), time by time; (0, -1)
    for an empty series."""
    when, best = 0, -1
    for t, x in enumerate(series):
        if x > best:
            when, best = t, x
    return when, best


def reference_latency(schedule: InflowSchedule, exit_times: Mapping[Agent, int]) -> tuple[int, int]:
    """(max latency, entry time of the first wave reaching it) from each wave's
    latest exit after its entry time."""
    series = [max(exit_times[a] for a in wave) - r for r, wave in schedule.waves]
    idx, best = reference_stabilization(series)
    return max(best, 0), schedule.waves[idx][0] if schedule.waves else 0


def reference_queue_bound_experiment(net: UnitNetwork, schedule: InflowSchedule):
    """The oracle for `analysis.queue_bound_experiment`, on a schedule within
    the min cut: (report, trace, verdicts) from the dict-backed router, the
    per-wave latency series, the per-agent ledger, per-step conservation and
    the per-time monitors."""
    decomp, stats = sp_decompose(net), validate_and_stats(net)
    cut, left, _ = leftmost_min_cut(net)
    route = reference_route_entry_order(net, schedule)
    trace = reference_occupancy_trace(net, route)
    inflow_end = schedule.last_time
    required = max(inflow_end // 2, 200)
    occ_stab, max_occ = reference_stabilization(trace.total)
    stabilization = max([occ_stab] + [reference_stabilization(s)[0] for s in trace.per_edge.values()])
    max_latency, lat_entry = reference_latency(schedule, route.exit_times)
    bounded = not route.exit_times or (
        stabilization + required <= inflow_end and lat_entry + required <= inflow_end)
    verdicts = reference_degree_ratio_monitor(trace, decomp, stats)
    ratio_ok = all(v.ok for v in verdicts)
    left_edges = frozenset(e for e, edge in net.edges.items() if edge.tail in left)
    checks = [
        ("occupancy_conservation", reference_conservation_holds(trace), ""),
        reference_check_simultaneous_arrivals(
            reference_arrival_counts(route.arrivals), stats.max_in_degree, net.origin),
        ("parallel_ratio_bound", ratio_ok, "" if ratio_ok else "see verdicts"),
        reference_check_full_cut_drain(net, trace, cut, left_edges),
    ]
    report = BoundReport(trace.horizon, inflow_end, max_occ, stabilization, required, bounded,
                         max_latency, lat_entry, checks)
    return report, trace, verdicts


def reference_arrival_counts(arrivals: Mapping[Agent, Mapping[str, int]]) -> Counter:
    """Agents reaching each vertex at each time, (vertex, time) -> count."""
    return Counter(cell for times in arrivals.values() for cell in times.items())


def reference_check_simultaneous_arrivals(
    counts: Counter, max_in_degree: int, origin: str
) -> tuple[str, bool, str]:
    """The oracle for `analysis._check_simultaneous_arrivals`: the earliest
    violation, ties by vertex name."""
    over = sorted((t, v, n) for (v, t), n in counts.items() if n > max_in_degree and v != origin)
    detail = f"first violation {(over[0][1], over[0][0], over[0][2])}" if over else ""
    return ("simultaneous_arrivals_within_max_in_degree", not over, detail)


def by_ids(graph: Graph, path: Sequence[str], times: Mapping[str, int]):
    """A named trajectory on the graph plan's ids, as `QueueCounters` takes it
    (its times are index times when the index starts at time 0)."""
    plan = graph.plan()
    return [plan.edge_id[e] for e in path], {plan.vertex_id[v]: t for v, t in times.items()}


def entrant_ranks(counters: QueueCounters) -> dict[str, dict[int, list[int]]]:
    """The name-keyed view of an index's entrant-rank cells, in absolute
    times, as `ReferenceQueueCounters.entrant_ranks` holds them."""
    names, start = counters.plan.edges, counters.start_time
    return {
        names[e]: {start + t: list(ranks) for t, ranks in enumerate(counters.entered[e]) if ranks}
        for e in counters.committed
    }


def trajectory_table(graph: Graph, path: Sequence[str], times: Mapping[str, int]):
    """(table, vertex id) of a named trajectory: an `EarliestArrivalTable` at
    the given index times whose e*(.) from the path's last head back to its
    first tail is the path, the arguments `QueueCounters.commit_table` takes."""
    plan = graph.plan()
    at, estar = [UNREACHED] * len(plan.vertices), [-1] * len(plan.vertices)
    for v, t in times.items():
        at[plan.vertex_id[v]] = t
    for e in path:
        estar[plan.vertex_id[graph.edge(e).head]] = plan.edge_id[e]
    start = plan.vertex_id[graph.edge(path[0]).tail]
    return EarliestArrivalTable(start, plan, 0, at, estar), plan.vertex_id[graph.edge(path[-1]).head]


def reference_degree_ratio_monitor(
    trace: OccupancyTrace, decomp: SPDecomposition, stats: GraphStats
) -> list[RatioVerdict]:
    """The oracle for `analysis.degree_ratio_monitor`."""
    m = stats.m
    bound = lambda other: 2 * m * m * (2 * m + other)
    verdicts = []
    for idx, node in enumerate(decomp.parallel_nodes()):
        left = node.left.edge_set()
        right = node.right.edge_set()
        ok = True
        worst_t = None
        worst = None
        for t in range(trace.horizon + 1):
            n1 = trace.occupancy(left, t)
            n2 = trace.occupancy(right, t)
            if n1 > bound(n2) or n2 > bound(n1):
                ok = False
                worst_t, worst = t, (n1, n2)
                break
        verdicts.append(
            RatioVerdict(node=f"parallel#{idx}", ok=ok, worst_time=worst_t, worst_pair=worst)
        )
    return verdicts


def reference_check_full_cut_drain(
    net: UnitNetwork, trace: OccupancyTrace, cut: frozenset[str], left_edges: frozenset[str]
) -> tuple[str, bool, str]:
    """The oracle for `analysis._check_full_cut_drain`."""

    def qlen(e: str, t: int) -> int:
        series = trace.per_edge.get(e)
        return series[t] if series and t < len(series) else 0

    for t in range(trace.horizon):
        if not all(qlen(e, t) > 0 for e in cut):
            continue
        n_now = trace.occupancy(left_edges, t)
        n_next = trace.occupancy(left_edges, t + 1)
        inflow = trace.entrants[t + 1] if t + 1 < len(trace.entrants) else 0
        if n_next != n_now - len(cut) + inflow:
            return (
                "full_cut_drain",
                False,
                f"t={t}: left occupancy {n_now}->{n_next} with inflow {inflow}, cut {len(cut)}",
            )
    return ("full_cut_drain", True, "")


def random_sp_net(rng: random.Random, edges: int) -> Network:
    """Random two-terminal series-parallel network with the given number of
    edges, random capacities and transits in {1, 2} and random priorities."""
    out: list[tuple] = []
    inner: list[str] = []

    def build(o: str, d: str, k: int) -> None:
        if k == 1:
            out.append((f"e{len(out)}", o, d, rng.randint(1, 2), rng.randint(1, 2)))
        elif rng.random() < 0.5:
            j = rng.randint(1, k - 1)
            inner.append(f"v{len(inner) + 1}")
            mid = inner[-1]
            build(o, mid, j)
            build(mid, d, k - j)
        else:
            j = rng.randint(1, k - 1)
            build(o, d, j)
            build(o, d, k - j)

    build("o", "d", edges)
    net = Network.build("o", "d", out)
    prios = {}
    for v in net.vertices:
        ins = list(net.in_edges(v))
        rng.shuffle(ins)
        prios[v] = ins
    return Network.build("o", "d", out, priorities=prios)
