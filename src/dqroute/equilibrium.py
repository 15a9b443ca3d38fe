"""Iterative dominating profiles (with or without a base), NE verification,
batch decomposition, exhaustive NE enumeration and the NE property suite."""

from __future__ import annotations

import itertools
import math
import random
from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Optional, Sequence

from .bestresponse import (
    UNREACHED,
    EarliestArrivalTable,
    QueueCounters,
    best_response_path,
    earliest_arrival_table,
    fixed_counters,
    queued_agent_table,
)
from .dynamics import Configuration, RoutingTrace, _simulate, run_paths
from .errors import BaseInvarianceViolated, DQRouteError, NotAnNE, TooManyProfiles, Unreachable
from .netcore import Agent, Graph

PathProfile = Mapping[Agent, tuple[str, ...]]


@dataclass(frozen=True)
class SolveResult:
    """The solve order, every agent's path, and the earliest-arrival table each
    ordered agent was chosen on: tables[i] belongs to order[i], computed
    against the paths of order[:i] (and of the base, if any)."""

    order: tuple[Agent, ...]
    paths: dict[Agent, tuple[str, ...]]
    tables: tuple[EarliestArrivalTable, ...]


def _check_base_invariance(
    graph: Graph,
    config: Configuration,
    base: PathProfile,
    samples: int,
    rng: random.Random,
) -> None:
    """Sampled re-simulation: base agents' vertex times must not depend on the rest."""
    base_agents = list(base)
    reference = run_paths(graph, config.restrict(base_agents), base)
    others = [a for a in config.agents() if a not in base]
    if not others:
        return
    cache: dict[Agent, list[tuple[str, ...]]] = {}
    for _ in range(samples):
        chosen = [a for a in others if rng.random() < 0.7] or [rng.choice(others)]
        profile = dict(base)
        for a in chosen:
            if a not in cache:
                cache[a] = graph.paths(config.locate(a)[0], graph.destination, guard=10_000)
            profile[a] = rng.choice(cache[a])
        trace = run_paths(graph, config.restrict(profile), profile)
        for a in base_agents:
            if trace.vertex_times[a] != reference.vertex_times[a]:
                raise BaseInvarianceViolated(
                    f"base agent {a} is not invariant against sampled completions"
                )


def iterative_dominating_profile(
    graph: Graph,
    config: Configuration,
    base: Optional[PathProfile] = None,
    *,
    base_check_samples: int = 4,
) -> SolveResult:
    """Assign dominating paths one agent at a time (the base variant seeds the
    assigned set with fixed paths whose arrival times are already invariant).

    Only lane fronts get tables. The lane of an unassigned agent j on edge e
    is the agents ahead of it in e's queue, then the queues of the edges
    reached from e's head over single out-edges, up to the destination or a
    vertex with several out-edges: inflow chains and the inner vertices of
    normalised transit edges. j waits while an unassigned agent is on its
    lane, and is released when its blocker, the nearest such agent, is
    chosen. The pick is the same as over every unassigned agent: under unit
    capacity at most one agent leaves an edge per step, so the DP's hop cost
    t + 1 + queued[t] - #(entrants ranked >= ref) does not fall in (t, ref).
    A blocker thus reaches every vertex no later than j, at equal times over
    an edge of no lower priority, and its key is <= j's; across edges
    strictly, since its key ends at its start tail's 0 where j's carries a
    time >= 1. Keys tie only within one queue, where the blocker scans first,
    so the first least key is always a lane front's.

    Each lane front's earliest-arrival table is kept with its backward
    key: the times at its path's vertices (its start edge, then e*(.) to the
    destination) and the ranks of the edges between, read from the
    destination back to the start edge's tail, so earlier arrivals, then
    higher-priority last edges, then shorter walks sort first. Each iteration
    is one pass over the lane fronts, each queue front to back, that fills
    the missing tables and keeps the first least key. The result keeps, for
    each agent in solve order, the table it was chosen on.

    The assigned routing lives in one QueueCounters index (seeded by one
    simulation of the base, if any). The chosen agent's trajectory is
    committed once, at the times of its own table: it holds each path edge
    (u, v) during [tau(u), tau(v)) and enters it with the rank of its previous
    edge, -1 on its starting edge. Iterative domination says this displaces no
    assigned agent, and `QueueCounters.commit_table` checks it. A lane front
    keeps its table until a commit on an edge (u, v) covers the time its table
    reaches u: the only cells its recursion reads that a commit changes (the
    agents behind the chosen one in its start queue were all waiting).
    """
    assigned: dict[Agent, tuple[str, ...]] = {a: tuple(p) for a, p in (base or {}).items()}
    if assigned and base_check_samples > 0:
        _check_base_invariance(graph, config, assigned, base_check_samples, random.Random(0))
    order: list[Agent] = []
    chosen_tables: list[EarliestArrivalTable] = []
    r = config.time  # index time 0 of the index and the tables
    plan = graph.plan()
    arcs, menus, queues = plan.arcs, plan.menus, dict(config.queues)
    # scan place, start edge, its id and queue index, which counts the agents
    # ahead of a lane front: every one of them is assigned
    spot: dict[Agent, tuple[int, str, int, int]] = {}
    followers: dict[Agent, list[Agent]] = {}  # released when their blocker is chosen
    remaining: list[Agent] = []  # the lane fronts, in scan order
    for e, q in config.queues:
        blocker = None
        for i, a in enumerate(q):
            if a in assigned:
                continue
            spot[a] = len(spot), e, plan.edge_id[e], i
            x = e
            while blocker is None and len(menus[x]) == 1:  # the lane past e's head
                x = menus[x][0]
                blocker = next((b for b in reversed(queues.get(x, ())) if b not in assigned), None)
            if blocker is None:
                remaining.append(a)
            else:
                followers.setdefault(blocker, []).append(a)
            blocker = a
    counters = fixed_counters(graph, config, assigned) if assigned and spot else QueueCounters(graph, r)
    d = plan.vertex_id[graph.destination]
    tables: dict[Agent, tuple[tuple[int, ...], list[int], EarliestArrivalTable]] = {}  # key, time_at
    while remaining:
        pick = -1
        for i, j in enumerate(remaining):
            entry = tables.get(j)
            if entry is None:
                _, edge_name, e, ahead = spot[j]
                table = queued_agent_table(edge_name, r, ahead, counters)
                at, estar = table.time_at, table.estar_at
                key, v, x = [at[d]], d, e if at[d] == UNREACHED else -1
                while x != e:  # e*(.) back to the start edge, unless d is unreached
                    x = estar[v]
                    v = arcs[x][0]
                    key.append(arcs[x][2])
                    key.append(at[v])
                entry = tables[j] = tuple(key), at, table
            if pick < 0 or entry[0] < least[0]:
                least, pick = entry, i
        if least[0][0] == UNREACHED:
            raise Unreachable(f"no remaining agent reaches {graph.destination!r}")
        chosen, (_, times, table) = remaining.pop(pick), least
        del tables[chosen]
        path_ids = counters.commit_table(table, d, -1)  # from the start edge on
        order.append(chosen)
        chosen_tables.append(table)
        assigned[chosen] = tuple(plan.edges[e] for e in path_ids)
        for a in followers.pop(chosen, ()):
            insort(remaining, a, key=spot.__getitem__)
        # tables reach vertices after r, so cells at r are never read
        touched = [(u, max(times[u], 1), times[v]) for u, v, _ in (arcs[e] for e in path_ids)]
        stale = []
        for j, (_, at, _) in tables.items():
            for u, lo, hi in touched:
                if lo <= at[u] < hi:
                    stale.append(j)
                    break
        for j in stale:
            del tables[j]
    paths = {a: assigned[a] for a in config.agents()}
    return SolveResult(order=tuple(order), paths=paths, tables=tuple(chosen_tables))


# -- NE verification -----------------------------------------------------------


@dataclass(frozen=True)
class NEWitness:
    agent: Agent
    current_arrival: int
    best_arrival: int
    improving_path: tuple[str, ...]

    def __str__(self) -> str:
        return (f"{self.agent.name} exits {self.current_arrival}, can reach "
                f"{self.best_arrival} via {' '.join(self.improving_path)}")


@dataclass(frozen=True)
class NEReport:
    passed: bool
    witnesses: tuple[NEWitness, ...]
    trace: RoutingTrace


def verify_ne(graph: Graph, config: Configuration, profile: PathProfile) -> NEReport:
    """Compare every agent's realized arrival with its earliest-arrival deviation."""
    world = config.restrict(profile)
    trace = run_paths(graph, world, profile)
    witnesses = []
    for agent in world.agents():
        fixed = {a: p for a, p in profile.items() if a != agent}
        table = earliest_arrival_table(graph, config, fixed, agent)
        best = table.arrival(graph.destination)
        current = trace.exit_times[agent]
        if best < current:
            path = best_response_path(graph, config, fixed, agent, table=table)
            witnesses.append(NEWitness(agent, current, int(best), path))
    return NEReport(passed=not witnesses, witnesses=tuple(witnesses), trace=trace)


# -- batches -------------------------------------------------------------------


@dataclass(frozen=True)
class BatchDecomposition:
    """Agents grouped by their distinct destination arrival times."""

    times: tuple[int, ...]
    batches: tuple[tuple[Agent, ...], ...]

    def prefix(self, k: int) -> tuple[Agent, ...]:
        return tuple(a for batch in self.batches[:k] for a in batch)


def batch_decompose(trace: RoutingTrace) -> BatchDecomposition:
    by_time: dict[int, list[Agent]] = {}
    for agent, t in trace.exit_times.items():
        by_time.setdefault(t, []).append(agent)
    times = tuple(sorted(by_time))
    batches = tuple(tuple(sorted(by_time[t], key=lambda a: a.name)) for t in times)
    return BatchDecomposition(times=times, batches=batches)


# -- exhaustive enumeration ----------------------------------------------------


def strategy_sets(
    graph: Graph, config: Configuration, guard: int = 1_000_000
) -> dict[Agent, list[tuple[str, ...]]]:
    sets = {}
    total = 1
    for edge_name, q in config.queues:
        opts = graph.paths(edge_name, graph.destination, guard=guard)
        for agent in q:
            sets[agent] = opts
            total *= len(opts)
            if total > guard:
                raise TooManyProfiles(f"joint profile count exceeds {guard}")
    return sets


@dataclass(frozen=True)
class ExitTable:
    """Exit times of every joint profile of `config`, shared by enumeration and the
    property suite, and a lazy cache of full traces keyed on paths in `agents` order."""

    agents: tuple[Agent, ...]
    sets: dict[Agent, list[tuple[str, ...]]]
    exits: dict[tuple[int, ...], tuple[int, ...]]
    config: Configuration
    traces: dict[tuple, RoutingTrace] = field(default_factory=dict, compare=False, repr=False)

    def combo_of(self, profile: PathProfile) -> tuple[int, ...]:
        return tuple(self.sets[a].index(tuple(profile[a])) for a in self.agents)

    def is_ne(self, combo: tuple[int, ...]) -> bool:
        """No agent exits strictly earlier by switching alone to another path."""
        exits, values = self.exits, self.exits[combo]
        for i, agent in enumerate(self.agents):
            for alt in range(len(self.sets[agent])):
                if alt != combo[i] and exits[combo[:i] + (alt,) + combo[i + 1:]][i] < values[i]:
                    return False
        return True

    def ne_trace(self, graph: Graph, profile: PathProfile) -> Optional[RoutingTrace]:
        """The profile's trace if it is one of the table's NEs, else None."""
        paths = {a: tuple(p) for a, p in profile.items()}
        if paths.keys() != set(self.agents) or any(paths[a] not in self.sets[a] for a in paths):
            return None
        return self.trace(graph, paths) if self.is_ne(self.combo_of(paths)) else None

    def trace(self, graph: Graph, profile: PathProfile) -> RoutingTrace:
        key = tuple(profile[a] for a in self.agents)
        if key not in self.traces:
            self.traces[key] = _simulate(graph, self.config, profile)
        return self.traces[key]


def build_exit_table(graph: Graph, config: Configuration, guard: int = 1_000_000) -> ExitTable:
    sets = strategy_sets(graph, config, guard)
    agents = tuple(sets)
    exits: dict[tuple[int, ...], tuple[int, ...]] = {}
    for combo in itertools.product(*(range(len(sets[a])) for a in agents)):
        profile = {a: sets[a][combo[i]] for i, a in enumerate(agents)}
        trace = _simulate(graph, config, profile)
        exits[combo] = tuple(trace.exit_times[a] for a in agents)
    return ExitTable(agents=agents, sets=sets, exits=exits, config=config)


def enumerate_all_ne(
    graph: Graph,
    config: Configuration,
    guard: int = 1_000_000,
    table: Optional[ExitTable] = None,
) -> list[dict[Agent, tuple[str, ...]]]:
    """Simulate every joint profile and keep those surviving all unilateral checks."""
    table = table or build_exit_table(graph, config, guard)
    return [{a: table.sets[a][i] for a, i in zip(table.agents, combo)}
            for combo in table.exits if table.is_ne(combo)]


# -- property suite ------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    detail: str = ""
    witness: Optional[dict] = None


@dataclass
class PropertyReport:
    results: list[CheckResult]
    seed: int = 0
    samples: int = 0

    @property
    def passed(self) -> bool:
        return all(res.status != "fail" for res in self.results)

    def result(self, name: str) -> CheckResult:
        for res in self.results:
            if res.name == name:
                return res
        raise KeyError(name)

    def to_text(self) -> str:
        lines = [f"property report (seed={self.seed} samples={self.samples})"]
        for res in self.results:
            line = f"  [{res.status.upper():4s}] {res.name}"
            if res.detail:
                line += f" - {res.detail}"
            lines.append(line)
            if res.witness:
                lines.append(f"         witness: {res.witness}")
        return "\n".join(lines)


@dataclass
class CheckOptions:
    samples: int = 50
    seed: int = 0
    coalition_size: int = 3
    path_budget: int = 20


# joint profiles up to this count get the exhaustive strong-NE check
_EXHAUSTIVE_GUARD = 20_000


def _arrival_rank(graph: Graph, config: Configuration, profile: PathProfile, agent: Agent):
    """vertex -> (time, kind, rank) sort keys used by the weak-preemption scans.

    kind 0 marks the degenerate start-tail arrival (queue position as rank);
    kind 1 marks arrival via an edge (its priority rank at the vertex)."""
    keys = {}
    path = profile[agent]
    edge_name, idx = config.locate(agent)
    start_tail = graph.edge(edge_name).tail
    keys[start_tail] = (config.time, 0, edge_name, idx)
    for e in path:
        keys[graph.edge(e).head] = (None, 1, e, graph.rank(e))
    return keys


def _weakly_preempts(key_i, key_j, t_i, t_j) -> bool:
    if t_i < t_j:
        return True
    if t_i != t_j:
        return False
    _, kind_i, edge_i, rank_i = key_i
    _, kind_j, edge_j, rank_j = key_j
    if kind_i == 0 and kind_j == 0:
        # simultaneous start tails: comparable only within the same queue
        return edge_i == edge_j and rank_i < rank_j
    if kind_i != kind_j:
        return kind_i == 0  # a starter sits in the queue before any same-time entrant
    return rank_i < rank_j


def check_properties(
    graph: Graph,
    config: Configuration,
    profile: PathProfile,
    options: Optional[CheckOptions] = None,
    exit_table: Optional[ExitTable] = None,
) -> PropertyReport:
    """Run the NE property suite on a verified equilibrium profile.

    The checks share one restricted world and one path menu per agent: every
    path from its current edge, read from the exit table when one is given and
    otherwise enumerated once per call; without a table, one is built first
    when the world has at most `_EXHAUSTIVE_GUARD` joint profiles. The table's
    NE test stands in for `verify_ne`, which then runs only to name a non-NE's
    witness, and an NE's batches are first checked on every completion."""
    options = options or CheckOptions()
    world = config.restrict(profile)
    if exit_table is not None and exit_table.config != world:
        raise DQRouteError("the exit table was built on another configuration than the profile's")
    menus = exit_table.sets if exit_table is not None else {}
    if exit_table is None:
        for e, q in world.queues:
            menus.update(dict.fromkeys(q, graph.paths(e, graph.destination, guard=100_000)))
        if math.prod(len(m) for m in menus.values()) <= _EXHAUSTIVE_GUARD:
            exit_table = build_exit_table(graph, world, _EXHAUSTIVE_GUARD)
    trace = exit_table.ne_trace(graph, profile) if exit_table is not None else None
    if trace is None:
        ne = verify_ne(graph, config, profile)
        if not ne.passed:
            raise NotAnNE(f"profile fails verify_ne: {ne.witnesses[0]}")
        trace = ne.trace
    batches = batch_decompose(trace)
    order = _derive_original_order(config.agents())
    independence, optimality = _check_batches(
        graph, world, profile, trace, batches, menus, options, exit_table
    )
    results = [
        _check_fifo(graph, config, profile, trace),
        independence,
        optimality,
        _check_strong_ne(graph, world, profile, trace, options, menus, exit_table),
        _check_consecutive_exiting(batches, order),
        _check_temporal_overtaking(graph, profile, trace, order),
    ]
    return PropertyReport(results=results, seed=options.seed, samples=options.samples)


def _derive_original_order(agents: Sequence[Agent]) -> Optional[tuple[Agent, ...]]:
    if all(a.entry is not None and a.slot is not None for a in agents):
        return tuple(sorted(agents, key=lambda a: (a.entry, a.slot)))
    return None


def _check_fifo(graph, config, profile, trace) -> CheckResult:
    keys = {a: _arrival_rank(graph, config, profile, a) for a in profile}
    for i, j in itertools.permutations(profile, 2):
        for v in keys[i]:
            if v not in keys[j]:
                continue
            t_i, t_j = trace.arrival(i, v), trace.arrival(j, v)
            if math.isinf(t_i) or math.isinf(t_j):
                continue
            if _weakly_preempts(keys[i][v], keys[j][v], t_i, t_j):
                if trace.exit_times[i] > trace.exit_times[j]:
                    return CheckResult(
                        "fifo",
                        "fail",
                        f"{i} weakly preempts {j} at {v} but exits later",
                        witness={
                            "agents": [i.name, j.name],
                            "vertex": v,
                            "times": [t_i, t_j],
                            "exits": [trace.exit_times[i], trace.exit_times[j]],
                        },
                    )
    return CheckResult("fifo", "pass")


def _check_batches(graph, world, profile, trace, batches, menus, options, exit_table=None):
    """Independence and optimality of the batches, from one set of sampled worlds.

    For j = 0 .. K-1 the agents of the first j batches keep their paths and
    everyone else takes a sampled path from its menu. Each simulation checks
    both that those j batches keep their vertex times (independence of batch
    j, for j >= 1) and that no other agent exits before batch j + 1
    (optimality of batch j + 1). Each check keeps its first failure; with no
    samples both are skipped, and both pass undrawn if `_every_completion_passes`."""
    if not options.samples:
        drawn = "samples=0: no completion was drawn"
        return CheckResult("independence", "skip", drawn), CheckResult("optimality", "skip", drawn)
    if exit_table and _every_completion_passes(graph, profile, trace, batches, options, exit_table):
        return CheckResult("independence", "pass"), CheckResult("optimality", "pass")
    rng = random.Random(options.seed)
    independence: Optional[CheckResult] = None
    optimality: Optional[CheckResult] = None
    simulate = partial(exit_table.trace, graph) if exit_table else partial(_simulate, graph, world)
    for j, bound in enumerate(batches.times):
        prefix = batches.prefix(j)
        kept = {a: tuple(profile[a]) for a in prefix}
        rest = [a for a in profile if a not in kept]
        for _ in range(options.samples):
            completion = {a: rng.choice(menus[a]) for a in rest}
            sub = simulate({**kept, **completion})
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


def _every_completion_passes(graph, profile, trace, batches, options, table) -> bool:
    """Both batch checks on every completion of every batch prefix, read off
    `table`'s exits and cached traces: every draw from its menus is one, so True
    means the draws pass too. False if one fails, or unless `trace` is the
    table's own and no prefix has more completions than `options.samples`."""
    agents, sets = table.agents, table.sets
    if table.traces.get(tuple(tuple(profile[a]) for a in agents)) is not trace:
        return False
    combo = table.combo_of(profile)
    prefixes = [set(batches.prefix(j)) for j in range(len(batches.times))]
    spans = [[(c,) if a in kept else range(len(sets[a])) for a, c in zip(agents, combo)]
             for kept in prefixes]
    if any(math.prod(map(len, span)) > options.samples for span in spans):
        return False
    for kept, span, bound in zip(prefixes, spans, batches.times):
        rest = [i for i, a in enumerate(agents) if a not in kept]
        for world in itertools.product(*span):
            if min(table.exits[world][i] for i in rest) < bound:
                return False
            if kept:
                sub = table.trace(graph, {a: sets[a][c] for a, c in zip(agents, world)})
                if any(sub.vertex_times[a] != trace.vertex_times[a] for a in kept):
                    return False
    return True


def _check_strong_ne(graph, world, profile, trace, options, menus, exit_table) -> CheckResult:
    agents = list(profile)
    if exit_table is not None:
        base_combo = exit_table.combo_of(profile)
        base_exits = exit_table.exits[base_combo]
        pos = {a: i for i, a in enumerate(exit_table.agents)}
        for combo, values in exit_table.exits.items():
            movers = [a for a in exit_table.agents if combo[pos[a]] != base_combo[pos[a]]]
            if not movers:
                continue
            if all(values[pos[a]] < base_exits[pos[a]] for a in movers):
                return CheckResult(
                    "strong_ne",
                    "fail",
                    f"coalition {[a.name for a in movers]} strictly improves",
                    witness={
                        "profile": {
                            a.name: list(exit_table.sets[a][combo[pos[a]]])
                            for a in exit_table.agents
                        }
                    },
                )
        return CheckResult("strong_ne", "pass", "exhaustive")
    current = {a: tuple(profile[a]) for a in agents}
    for size in range(1, min(options.coalition_size, len(agents)) + 1):
        for coalition in itertools.combinations(agents, size):
            truncated = [menus[a][: options.path_budget] for a in coalition]
            for combo in itertools.product(*truncated):
                joint = {**current, **dict(zip(coalition, combo))}
                movers = [a for a in coalition if joint[a] != current[a]]
                if not movers:
                    continue
                sub = _simulate(graph, world, joint)
                if all(sub.exit_times[a] < trace.exit_times[a] for a in movers):
                    return CheckResult(
                        "strong_ne",
                        "fail",
                        f"coalition {[a.name for a in movers]} strictly improves",
                        witness={"profile": {a.name: list(joint[a]) for a in agents}},
                    )
    return CheckResult("strong_ne", "pass", "sampled (truncated coalitions)")


def _check_consecutive_exiting(batches, order) -> CheckResult:
    if order is None:
        return CheckResult("consecutive_exiting", "skip", "no original priority metadata")
    index = {a: i for i, a in enumerate(order)}
    for k, batch in enumerate(batches.batches, start=1):
        idxs = sorted(index[a] for a in batch if a in index)
        if idxs and idxs != list(range(idxs[0], idxs[-1] + 1)):
            return CheckResult(
                "consecutive_exiting",
                "fail",
                f"batch {k} indices {idxs} are not consecutive",
                witness={"batch": k, "indices": idxs},
            )
    return CheckResult("consecutive_exiting", "pass")


def _check_temporal_overtaking(graph, profile, trace, order) -> CheckResult:
    if order is None:
        return CheckResult("temporal_overtaking", "skip", "no original priority metadata")
    index = {a: i for i, a in enumerate(order)}
    agents = [a for a in profile if a in index]
    for i, j in itertools.permutations(agents, 2):
        if index[i] <= index[j]:
            continue  # i must have the lower original priority
        for v in trace.vertex_times[i]:
            if v == graph.origin:
                continue
            t_i, t_j = trace.arrival(i, v), trace.arrival(j, v)
            if math.isinf(t_j) or t_i >= t_j:
                continue
            if trace.exit_times[i] != trace.exit_times[j]:
                return CheckResult(
                    "temporal_overtaking",
                    "fail",
                    f"{i} overtakes {j} at {v} but exits differ",
                    witness={
                        "agents": [i.name, j.name],
                        "vertex": v,
                        "times": [t_i, t_j],
                        "exits": [trace.exit_times[i], trace.exit_times[j]],
                    },
                )
    return CheckResult("temporal_overtaking", "pass")
