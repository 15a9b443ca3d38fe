"""Strategy oracles for extensive-form play: the Markovian replay of the
iterative dominating profile, the NE-preserving construction, induced paths,
and one-deviation auditing."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .dynamics import EXIT, Configuration, RoutingTrace, _allowed, _round, default_horizon, profile_of
from .dynamics import run_paths, step
from .equilibrium import (
    BatchDecomposition,
    batch_decompose,
    iterative_dominating_profile,
    verify_ne,
)
from .errors import HorizonExceeded, NotAnNE
from .netcore import Agent, Graph

Action = Optional[str]


class HistoryNode(NamedTuple):
    """A realized history: the root configuration plus the action profiles
    taken. The key holds one entry per profile, the actions of its queue
    heads in queue order: the agents behind a head can only stay, so these
    fix the profile. `history_name` spells a key out by agent name."""

    config: Configuration
    key: tuple
    parent: Optional["HistoryNode"] = None

    @property
    def time(self) -> int:
        return self.config.time

    @property
    def actions(self) -> Optional[dict[Agent, Action]]:
        """The profile leading here from the parent (None at the root)."""
        return None if self.parent is None else profile_of(self.parent.config, self.key[-1])


def root_history(config: Configuration) -> HistoryNode:
    return HistoryNode(config=config, key=())


def child_history(graph: Graph, node: HistoryNode, actions: Mapping[Agent, Action]) -> HistoryNode:
    config = step(graph, node.config, actions)
    return HistoryNode(config, node.key + (tuple(actions[q[0]] for _, q in node.config.queues),), node)


def history_name(node: HistoryNode) -> tuple:
    """The history's profiles by name, as reports print them: each one's
    (agent name, action) pairs sorted by name, with EXIT as ''."""
    names = []
    while node.parent is not None:
        named = [(a.name, act if act is not None else "") for a, act in node.actions.items()]
        names.append(tuple(sorted(named)))
        node = node.parent
    return tuple(reversed(names))


class StrategyOracle:
    """Deterministic rule (history, agent) -> action over live agents, in four
    methods: `action`, `profile`, `heads` and `state`. Only a queue head has a
    choice, so `heads`, the profile's head actions in queue order, is the
    prescription that play and the audits step on. Each oracle decides itself
    whether a step followed its play.

    `state(history)` must fix the queue content and all that later play depends
    on: equal states get equal profiles, and equal action profiles take them
    to equal states, at any time. The default, the history key, is exact for
    any oracle; one that reads only the configuration returns
    `config.content_key()` and is audited once per content of the tree's DAG."""

    def __init__(self, graph: Graph):
        self.graph = graph

    def action(self, history: HistoryNode, agent: Agent) -> Action:
        raise NotImplementedError

    def profile(self, history: HistoryNode) -> dict[Agent, Action]:
        return {a: self.action(history, a) for a in history.config.agents()}

    def heads(self, history: HistoryNode) -> tuple[Action, ...]:
        """The profile's actions of the queue heads, in queue order: the key
        entry of the history it plays to."""
        prof = self.profile(history)
        return tuple(prof[q[0]] for _, q in history.config.queues)

    def state(self, history: HistoryNode) -> Hashable:
        return history.key


def prescribed_heads(config: Configuration, profile: Mapping[Agent, Sequence[str]]) -> tuple[Action, ...]:
    """Three-case rule, as the queue heads' actions in queue order: an agent
    queued behind a head stays (`profile_of`), a head exits on its path's
    final edge and otherwise takes the path's next edge."""
    heads = []
    for edge_name, q in config.queues:
        for agent in q:
            if profile[agent][0] != edge_name:
                raise NotAnNE(f"profile path of {agent} does not start at its edge")
        path = profile[q[0]]
        heads.append(path[1] if len(path) > 1 else EXIT)
    return tuple(heads)


def _cut(rho: Mapping[Agent, tuple[str, ...]], config: Configuration,
         keep: Optional[set[Agent]] = None) -> dict[Agent, tuple[str, ...]]:
    """On-path consistency: after a step that followed rho, the profile is
    rho with each path cut to the suffix from the agent's edge, in queue
    order (for the agents in `keep` when given)."""
    return {a: rho[a] if rho[a][0] == e else rho[a][1:]
            for e, q in config.queues for a in q if keep is None or a in keep}


class _ProfileOracle(StrategyOracle):
    """An oracle of path profiles with one memo, `_key(history)` -> (profile,
    head actions, state); `profile_of` reads the action profile off the heads.
    A miss whose last key entry is its memoized parent's head actions followed
    that profile and takes its `_cut`; any other goes to `_solve`, which stores it."""

    def __init__(self, graph: Graph):
        super().__init__(graph)
        self._memo: dict[Hashable, tuple] = {}
        self._solves: dict[tuple, tuple] = {}  # positional key -> solved paths, in queue order

    def _key(self, history: HistoryNode) -> Hashable:
        return history.key

    def _state_of(self, config: Configuration, rho: Mapping[Agent, tuple[str, ...]]) -> Hashable:
        return config.content_key()

    def _store(self, key: Hashable, config: Configuration, rho: dict[Agent, tuple[str, ...]]) -> tuple:
        entry = self._memo[key] = rho, prescribed_heads(config, rho), self._state_of(config, rho)
        return entry

    def _solved(self, config: Configuration, base: Mapping[Agent, tuple[str, ...]]) -> dict[Agent, tuple[str, ...]]:
        """The iterative dominating profile on base, memoized on the (edge,
        queue length) shape and, for a non-empty base, its paths by queue
        position. Contents of one key get the same paths by position: the
        solver reads agents only through queue positions and `a in assigned`,
        its tables count time from `config.time`, and `fixed_counters`
        simulates a base, where commit order only orders the entries within
        an `entered` cell, which the DP counts without regard to order."""
        key = tuple((e, len(q)) for e, q in config.queues)
        if base:
            key = key, tuple(map(base.get, config.agents()))
        if (paths := self._solves.get(key)) is None:
            paths = self._solves[key] = tuple(iterative_dominating_profile(
                self.graph, config, base=base, base_check_samples=0).paths.values())
        return dict(zip(config.agents(), paths))

    def _at(self, node: HistoryNode) -> tuple:
        if (entry := self._memo.get(key := self._key(node))) is not None:
            return entry
        up = node.parent and self._memo.get(self._key(node.parent))
        if up and node.key[-1] == up[1]:
            return self._store(key, node.config, _cut(up[0], node.config))
        self._solve(node, up)
        return self._memo[key]

    def action(self, history: HistoryNode, agent: Agent) -> Action:
        return self.profile(history)[agent]

    def profile(self, history: HistoryNode) -> dict[Agent, Action]:
        return profile_of(history.config, self._at(history)[1])

    def heads(self, history: HistoryNode) -> tuple[Action, ...]:
        return self._at(history)[1]

    def state(self, history: HistoryNode) -> Hashable:
        return self._at(history)[2]


class SigmaStar(_ProfileOracle):
    """Markovian oracle replaying the iterative dominating profile of the
    current configuration; memoized on queue contents, its state. A content no
    conforming step reached takes its queue shape's base-free `_solved` paths."""

    def _key(self, history: HistoryNode) -> Hashable:
        return history.config.content_key()

    def _solve(self, history: HistoryNode, up: Optional[tuple]) -> None:
        self.prescription(history.config)

    def prescription(self, config: Configuration) -> dict[Agent, Action]:
        hit = self._memo.get(key := config.content_key())
        if hit is None:
            hit = self._store(key, config, self._solved(config, {}))
        return profile_of(config, hit[1])

    state = _key


def sigma_star(graph: Graph) -> SigmaStar:
    return SigmaStar(graph)


class NEBasedOracle(_ProfileOracle):
    """History-dependent oracle that preserves a given NE on the played path.

    Per visited history it keeps the paths of the batch prefix whose realized
    actions matched the prescription (Construction I) and rebuilds the rest as
    an iterative dominating partial profile on that base (Construction II).
    Its memo is keyed on the history; its state is the queue content and the
    profile in force. A step that followed the profile keeps every batch and
    runs no simulation. The root's batches come from `verify_ne`'s trace."""

    def __init__(self, graph: Graph, root_config: Configuration, pi: Mapping[Agent, Sequence[str]]):
        super().__init__(graph)
        missing = [a for a in root_config.agents() if a not in pi]
        if missing:
            raise NotAnNE(f"given profile has no path for agent {missing[0]}")
        report = verify_ne(graph, root_config, pi)
        if not report.passed:
            raise NotAnNE(f"given profile is not an NE: {report.witnesses[0]}")
        root = self._store((), root_config, {a: tuple(p) for a, p in pi.items()})
        # state -> batches of its NE's simulation
        self._batches: dict[Hashable, BatchDecomposition] = {root[2]: batch_decompose(report.trace)}

    def _solve(self, history: HistoryNode, up: Optional[tuple]) -> None:
        self.profile_at(history, up)

    def _state_of(self, config: Configuration, rho: Mapping[Agent, tuple[str, ...]]) -> Hashable:
        return config.content_key(), tuple(rho[a] for a in config.agents())

    def matched_prefix_size(self, node: HistoryNode, up: Optional[tuple] = None) -> int:
        """Batches of the parent NE whose realized actions matched it (the
        maximal k; the whole population when nothing deviated), from one
        simulation of the parent NE, shared by the children of every parent in
        its state (its queue content and the profile in force); `up`: the
        parent's entry. A memoized profile holds exactly its configuration's
        agents, so the parent's configuration is simulated as it is."""
        rho, prescribed, state = up or self._at(node.parent)
        if state not in self._batches:
            trace = run_paths(self.graph, node.parent.config, rho)
            self._batches[state] = batch_decompose(trace)
        batches = self._batches[state]
        moved = {q[0] for (_, q), a, b in zip(node.parent.config.queues, node.key[-1], prescribed) if a != b}
        for k, batch in enumerate(batches.batches):
            if not moved.isdisjoint(batch):
                return k
        return len(batches.batches)

    def profile_at(self, node: HistoryNode, up: Optional[tuple] = None) -> dict[Agent, tuple[str, ...]]:
        """The memo's profile, else Constructions I and II on `up`, the parent's entry."""
        if node.key in self._memo:
            return self._memo[node.key][0]
        rho, _, state = up = up or self._at(node.parent)
        matched = self.matched_prefix_size(node, up)
        base = _cut(rho, node.config, set(self._batches[state].prefix(matched)))
        if len(base) < sum(len(q) for _, q in node.config.queues):
            # skipped when every path is kept: the fanout (3, 2) full-tree
            # audit rebuilds 2,068 times and solves 184 positional keys
            base = self._solved(node.config, base)
        return self._store(node.key, node.config, base)[0]


def ne_based_spe(graph: Graph, config: Configuration, pi: Mapping[Agent, Sequence[str]]) -> NEBasedOracle:
    return NEBasedOracle(graph, config, pi)


# -- induced play ----------------------------------------------------------------


def _advance(graph: Graph, children: Mapping, node: HistoryNode, heads: tuple[Action, ...]) -> HistoryNode:
    """The history where node's heads take `heads`: a tree child, else a checked `step`."""
    try:
        return HistoryNode(children[node.config][heads], node.key + (heads,), node)
    except KeyError:
        return child_history(graph, node, profile_of(node.config, heads))


def _play(graph: Graph, node: HistoryNode, oracle: StrategyOracle, limit: int) -> list[HistoryNode]:
    """The chain of histories from node under the oracle until every agent
    has exited; HorizonExceeded once play passes time limit."""
    out = [node]
    while not node.config.is_empty():
        if node.config.time > limit:
            raise HorizonExceeded(f"induced play passed time {limit}")
        node = _advance(graph, {}, node, oracle.heads(node))
        out.append(node)
    return out


def induced_paths(graph: Graph, history: HistoryNode, oracle: StrategyOracle, horizon: Optional[int] = None
                  ) -> tuple[dict[Agent, tuple[str, ...]], RoutingTrace]:
    """Forward-simulate the oracle from a history until every agent has exited."""
    limit = horizon if horizon is not None else default_horizon(graph, history.config)
    realized = {a: [e] for e, q in history.config.queues for a in q}
    for node in _play(graph, history, oracle, limit)[1:]:
        for (_, q), act in zip(node.parent.config.queues, node.key[-1]):
            if act is not EXIT:
                realized[q[0]].append(act)
    paths = {a: tuple(p) for a, p in realized.items()}
    trace = run_paths(graph, history.config, paths)
    return paths, trace


# -- one-deviation audit ----------------------------------------------------------


@dataclass(frozen=True)
class DeviationFinding:
    history_key: tuple
    time: int
    agent: Agent
    alternative: str
    conforming_exit: int
    deviating_exit: int


@dataclass
class DeviationAuditReport:
    audited_histories: int = 0
    audited_deviations: int = 0
    violations: list[DeviationFinding] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = [f"one-deviation audit: {self.audited_histories} histories, "
                 f"{self.audited_deviations} deviations, {'PASS' if self.passed else 'FAIL'}"]
        lines += [f"  at t={v.time} agent {v.agent} gains by {v.alternative!r}: {v.deviating_exit} < "
                  f"{v.conforming_exit} (history {v.history_key})" for v in self.violations]
        return "\n".join(lines)


def one_deviation_audit(graph: Graph, oracle: StrategyOracle, histories: Iterable[HistoryNode]
                        ) -> DeviationAuditReport:
    """Check that no single agent gains by deviating once and conforming after.

    Each distinct oracle state is audited once, weighted by the histories
    behind it (`_grouped`: a `HistoryTree` is walked from its root, any other
    iterable counts the histories it lists). Only the queue heads deviate:
    the agents behind them can only stay. Play steps only past the tree.
    Exit times of conforming play are memoised relative to the start, on the
    state; only failing states are mapped back to their histories, in order,
    and named there (`history_name`)."""
    if isinstance(histories, HistoryTree):
        expanded, roots = histories.children, [root_history(histories.root)]
    else:
        expanded, roots = {}, list(histories)
        histories = roots
    menus, m = graph.plan().menus, len(graph.edges)
    memo: dict[Hashable, dict[Agent, int]] = {}

    def exits(start: HistoryNode) -> dict[Agent, int]:
        # play one oracle step at a time up to a memoised or empty
        # configuration, then fill the memo backwards along the play
        node, chain = start, []
        while not node.config.is_empty() and (state := oracle.state(node)) not in memo:
            chain.append((state, node.config))
            node = _advance(graph, expanded, node, oracle.heads(node))
        later = memo[state] if not node.config.is_empty() else {}
        for state, config in reversed(chain):
            later = memo[state] = {a: later.get(a, 0) + 1 for a in config.agents()}
        # `later` has an entry per agent of start.config: its default horizon
        limit = start.time + len(later) * m + m + 2
        if start.time + max(later.values(), default=0) - 1 > limit:
            raise HorizonExceeded(f"induced play passed time {limit}")
        return later

    report = DeviationAuditReport()
    failed: dict[Hashable, list[tuple[Agent, str, int, int]]] = {}
    for node, n in _grouped(roots, expanded, oracle.state):
        if node.config.is_empty():
            continue
        report.audited_histories += n
        base = exits(node)
        heads = oracle.heads(node)
        for i, (e, (agent, *_)) in enumerate(node.config.queues):
            for alt in menus[e]:
                if alt != heads[i]:
                    report.audited_deviations += n
                    t_dev = 1 + exits(_advance(graph, expanded, node, heads[:i] + (alt,) + heads[i + 1:]))[agent]
                    if t_dev < base[agent]:
                        failed.setdefault(oracle.state(node), []).append((agent, alt, base[agent], t_dev))
    for node in histories if failed else ():
        for agent, alt, conforming, deviating in failed.get(oracle.state(node), ()):
            finding = (node.time, agent, alt, node.time + conforming, node.time + deviating)
            report.violations.append(DeviationFinding(history_name(node), *finding))
    return report


def _grouped(nodes: Iterable[HistoryNode], children: Mapping, state: Callable) -> list[list]:
    """[representative history, weight] per distinct state of the given histories
    and of their successors in `children`, walked a time step at a time: each
    successor is met once per distinct (time, state) and weighs its parent's weight."""
    layer: dict[tuple, list] = {}
    for node in nodes:
        layer.setdefault((node.time, state(node)), [node, 0])[1] += 1
    groups: dict[Hashable, list] = {}
    while layer:
        succ: dict[tuple, list] = {}
        for (_, key), (node, n) in layer.items():
            groups.setdefault(key, [node, 0])[1] += n
            for heads, child in children.get(node.config, {}).items():
                kid = HistoryNode(child, node.key + (heads,), node)
                succ.setdefault((child.time, state(kid)), [kid, 0])[1] += n
        layer = succ
    return list(groups.values())


# -- history samplers --------------------------------------------------------------


@dataclass
class HistoryTree:
    """Every history of arbitrary play, held as its configuration DAG.

    `multiplicity` maps each distinct configuration (time included), in
    breadth-first order, to the number of tree histories that reach it;
    `children` maps each expanded one to its profiles' head actions (the
    `HistoryNode` key entries), each to its successor, in `itertools.product`
    order of the heads' menus. `len` is the number of histories. Iterating
    yields the `HistoryNode`s breadth first, built once from the stored
    children."""

    root: Configuration
    multiplicity: dict[Configuration, int]
    children: dict[Configuration, dict[tuple[Action, ...], Configuration]]
    _nodes: Optional[list[HistoryNode]] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return sum(self.multiplicity.values())

    def __iter__(self) -> Iterator[HistoryNode]:
        if self._nodes is None:
            groups = _grouped([root_history(self.root)], self.children, lambda node: node.key)
            self._nodes = [node for node, _ in groups]
        return iter(self._nodes)


def exhaustive_histories(graph: Graph, config: Configuration, depth: Optional[int] = None,
                         guard: int = 200_000) -> HistoryTree:
    """Every history reachable under arbitrary play, to the given depth
    (default: until everyone exits); HorizonExceeded past guard histories."""
    limit = depth if depth is not None else default_horizon(graph, config) - config.time
    multiplicity = {config: 1}
    children: dict = {}
    size = 1
    # configurations are layered by time, so each one's multiplicity is
    # final once every configuration discovered before it is expanded
    order = [config]
    plan = graph.plan()
    for c in order:
        if c.is_empty() or c.time - config.time >= limit:
            continue
        menus = [plan.menus[e] or (EXIT,) for e, _ in c.queues]
        n = multiplicity[c]
        size += n * math.prod(map(len, menus))
        if size > guard:
            raise HorizonExceeded(f"history tree exceeds {guard} nodes")
        successor, t = _round(plan.ranks, c.queues), c.time + 1
        kids = children[c] = {h: Configuration(t, successor(h)) for h in itertools.product(*menus)}
        for kid in kids.values():
            seen = multiplicity.get(kid)
            if seen is None:
                order.append(kid)
            multiplicity[kid] = (seen or 0) + n
    return HistoryTree(config, multiplicity, children)


def play_histories(
    graph: Graph, config: Configuration, oracle: StrategyOracle
) -> list[HistoryNode]:
    """The on-path chain of histories under the oracle."""
    return _play(graph, root_history(config), oracle, default_horizon(graph, config))


def sampled_histories(
    graph: Graph,
    config: Configuration,
    rng: random.Random,
    playouts: int,
    depth: Optional[int] = None,
    oracle: Optional[StrategyOracle] = None,
) -> list[HistoryNode]:
    """Random playouts to the given depth, always including oracle play when given."""
    chain = play_histories(graph, config, oracle) if oracle is not None else []
    seen: dict[tuple, HistoryNode] = {node.key: node for node in chain}
    limit = depth if depth is not None else default_horizon(graph, config) - config.time
    for _ in range(playouts):
        node = root_history(config)
        seen.setdefault(node.key, node)
        while not node.config.is_empty() and node.config.time - config.time < limit:
            acts = {}
            for e, q in node.config.queues:
                for idx, agent in enumerate(q):
                    options = sorted(_allowed(graph, e, idx))
                    acts[agent] = rng.choice(options) if options else EXIT
            node = child_history(graph, node, acts)
            seen.setdefault(node.key, node)
    return list(seen.values())
