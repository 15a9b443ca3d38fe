"""Strategy oracles for extensive-form play: the Markovian replay of the
iterative dominating profile, the NE-preserving construction, induced paths,
and one-deviation auditing."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .dynamics import EXIT, Configuration, RoutingTrace, _allowed, default_horizon, run_paths, step
from .equilibrium import (
    BatchDecomposition,
    batch_decompose,
    iterative_dominating_profile,
    verify_ne,
)
from .errors import HorizonExceeded, NotAnNE
from .netcore import Agent, Graph

Action = Optional[str]


def _canonical(actions: Mapping[Agent, Action]) -> tuple:
    return tuple(sorted((a.name, act if act is not None else "") for a, act in actions.items()))


@dataclass(frozen=True)
class HistoryNode:
    """A realized history: the root configuration plus the action profiles taken."""

    config: Configuration
    key: tuple
    parent: Optional["HistoryNode"] = None
    actions: Optional[dict[Agent, Action]] = None  # profile leading here from parent

    @property
    def time(self) -> int:
        return self.config.time


def root_history(config: Configuration) -> HistoryNode:
    return HistoryNode(config=config, key=())


def child_history(graph: Graph, node: HistoryNode, actions: Mapping[Agent, Action]) -> HistoryNode:
    actions = dict(actions)
    return HistoryNode(step(graph, node.config, actions), node.key + (_canonical(actions),), node, actions)


class StrategyOracle:
    """Deterministic rule (history, agent) -> action; total over live agents.

    `markovian = True` promises that the oracle's profile is a function of
    `config.content_key()` alone; `one_deviation_audit` then audits each
    distinct queue content once."""

    markovian = False

    def __init__(self, graph: Graph):
        self.graph = graph

    def action(self, history: HistoryNode, agent: Agent) -> Action:
        raise NotImplementedError

    def profile(self, history: HistoryNode) -> dict[Agent, Action]:
        return {a: self.action(history, a) for a in history.config.agents()}

    def played(self, config: Configuration, successor: Configuration) -> None:
        """Play went from config to successor on this oracle's own profile
        (sigma-star seeds the successor's prescription from it)."""


def prescribed_actions(
    graph: Graph, config: Configuration, profile: Mapping[Agent, Sequence[str]]
) -> dict[Agent, Action]:
    """Three-case rule: stay when queued behind someone, exit on the final edge,
    otherwise take the path's next edge."""
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


class SigmaStar(StrategyOracle):
    """Markovian oracle replaying the iterative dominating profile of the
    current configuration; memoized on queue contents. `played` seeds, not
    solves, a successor of its own play: by on-path consistency its profile is
    the parent's order with each path cut to the suffix from the agent's edge."""

    markovian = True

    def __init__(self, graph: Graph):
        super().__init__(graph)
        self._memo: dict[tuple, dict[Agent, Action]] = {}
        self._paths: dict[tuple, dict[Agent, tuple[str, ...]]] = {}

    def prescription(self, config: Configuration) -> dict[Agent, Action]:
        key = config.content_key()
        if key not in self._memo:
            solve = iterative_dominating_profile(self.graph, config)
            self._paths[key] = solve.paths
            self._memo[key] = prescribed_actions(self.graph, config, solve.paths)
        return self._memo[key]

    def played(self, config: Configuration, successor: Configuration) -> None:
        key = successor.content_key()
        if key in self._memo:
            return
        edge = {a: e for e, q in successor.queues for a in q}
        paths = self._paths[key] = {
            a: p if p[0] == edge[a] else p[1:]
            for a, p in self._paths[config.content_key()].items() if a in edge
        }
        self._memo[key] = prescribed_actions(self.graph, successor, paths)

    def action(self, history: HistoryNode, agent: Agent) -> Action:
        return self.prescription(history.config)[agent]

    def profile(self, history: HistoryNode) -> dict[Agent, Action]:
        return dict(self.prescription(history.config))


def sigma_star(graph: Graph) -> SigmaStar:
    return SigmaStar(graph)


class NEBasedOracle(StrategyOracle):
    """History-dependent oracle that preserves a given NE on the played path.

    Per visited history it keeps the paths of the batch prefix whose realized
    actions matched the prescription (Construction I) and rebuilds the rest as
    an iterative dominating partial profile on that base (Construction II).
    """

    markovian = False

    def __init__(
        self,
        graph: Graph,
        root_config: Configuration,
        pi: Mapping[Agent, Sequence[str]],
    ):
        super().__init__(graph)
        missing = [a for a in root_config.agents() if a not in pi]
        if missing:
            raise NotAnNE(f"given profile has no path for agent {missing[0]}")
        report = verify_ne(graph, root_config, pi)
        if not report.passed:
            raise NotAnNE(f"given profile is not an NE: {report.witnesses[0]}")
        self._profiles: dict[tuple, dict[Agent, tuple[str, ...]]] = {
            (): {a: tuple(p) for a, p in pi.items()}
        }
        self._parents: dict[tuple, tuple[dict[Agent, Action], BatchDecomposition]] = {}

    def matched_prefix_size(self, node: HistoryNode) -> int:
        """Batches of the parent NE whose realized actions matched it (the
        maximal k; the whole population when nothing deviated)."""
        return self._matched_prefix(node)[2]

    def _matched_prefix(
        self, node: HistoryNode
    ) -> tuple[dict[Agent, tuple[str, ...]], BatchDecomposition, int]:
        """The parent NE, its batches and the matched prefix size, from one
        simulation of the parent NE, shared by all of the parent's children."""
        parent = node.parent
        rho = self.profile_at(parent)
        if parent.key not in self._parents:
            trace = run_paths(self.graph, parent.config.restrict(rho), rho)
            prescribed = prescribed_actions(self.graph, parent.config, rho)
            self._parents[parent.key] = prescribed, batch_decompose(trace)
        prescribed, batches = self._parents[parent.key]
        realized = node.actions or {}
        matched = 0
        for k, batch in enumerate(batches.batches, start=1):
            if all(realized.get(a, EXIT) == prescribed[a] for a in batch):
                matched = k
            else:
                break
        return rho, batches, matched

    def profile_at(self, node: HistoryNode) -> dict[Agent, tuple[str, ...]]:
        if node.key in self._profiles:
            return self._profiles[node.key]
        assert node.parent is not None, "root profile must be seeded"
        rho, batches, matched = self._matched_prefix(node)
        keep = set(batches.prefix(matched))
        live = set(node.config.agents())
        base: dict[Agent, tuple[str, ...]] = {}
        for agent in sorted(keep & live, key=lambda a: a.name):
            old = rho[agent]
            edge_name, _ = node.config.locate(agent)
            base[agent] = old if old[0] == edge_name else old[1:]
            assert base[agent][0] == edge_name
        solve = iterative_dominating_profile(
            self.graph, node.config, base=base, base_check_samples=0
        )
        self._profiles[node.key] = solve.paths
        return solve.paths

    def action(self, history: HistoryNode, agent: Agent) -> Action:
        return self.profile(history)[agent]

    def profile(self, history: HistoryNode) -> dict[Agent, Action]:
        return prescribed_actions(self.graph, history.config, self.profile_at(history))


def ne_based_spe(graph: Graph, config: Configuration, pi: Mapping[Agent, Sequence[str]]) -> NEBasedOracle:
    return NEBasedOracle(graph, config, pi)


# -- induced play ----------------------------------------------------------------


def _play(
    graph: Graph, node: HistoryNode, oracle: StrategyOracle, limit: int
) -> list[HistoryNode]:
    """The chain of histories from node under the oracle until every agent
    has exited; HorizonExceeded once play passes time limit."""
    out = [node]
    while not node.config.is_empty():
        if node.config.time > limit:
            raise HorizonExceeded(f"induced play passed time {limit}")
        child = child_history(graph, node, oracle.profile(node))
        oracle.played(node.config, child.config)
        node = child
        out.append(node)
    return out


def induced_paths(
    graph: Graph,
    history: HistoryNode,
    oracle: StrategyOracle,
    horizon: Optional[int] = None,
) -> tuple[dict[Agent, tuple[str, ...]], RoutingTrace]:
    """Forward-simulate the oracle from a history until every agent has exited."""
    limit = horizon if horizon is not None else default_horizon(graph, history.config)
    realized = {a: [e] for e, q in history.config.queues for a in q}
    # an agent's path is the run of edges it occupies: on an acyclic network
    # it never returns to an edge it has left
    for node in _play(graph, history, oracle, limit):
        for e, q in node.config.queues:
            for agent in q:
                if realized[agent][-1] != e:
                    realized[agent].append(e)
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
        lines = [
            f"one-deviation audit: {self.audited_histories} histories, "
            f"{self.audited_deviations} deviations, "
            f"{'PASS' if self.passed else 'FAIL'}"
        ]
        for v in self.violations:
            lines.append(
                f"  at t={v.time} agent {v.agent} gains by {v.alternative!r}: "
                f"{v.deviating_exit} < {v.conforming_exit} (history {v.history_key})"
            )
        return "\n".join(lines)


def one_deviation_audit(
    graph: Graph,
    oracle: StrategyOracle,
    histories: Iterable[HistoryNode],
) -> DeviationAuditReport:
    """Check that no single agent gains by deviating once and conforming after.

    A Markovian oracle is audited once per distinct queue content, weighted
    by the number of histories that reach it (a `HistoryTree` counts them
    without building them, and gives the successors of every configuration
    it expanded); any other oracle once per history. Exit times of
    conforming play are memoised relative to the start, on the content or on
    the history key; only failing ones are mapped back to their histories,
    in order."""
    if not isinstance(histories, HistoryTree):
        histories = list(histories)
    if oracle.markovian:
        key = lambda node: node.config.content_key()
        expanded = histories.children if isinstance(histories, HistoryTree) else {}

        def advance(node: HistoryNode, acts: Mapping[Agent, Action]) -> HistoryNode:
            kids = expanded.get(node.config)
            succ = step(graph, node.config, acts) if kids is None else kids[_canonical(acts)][0]
            return root_history(succ)
    else:
        key = lambda node: node.key
        advance = lambda node, acts: child_history(graph, node, acts)
    if oracle.markovian and isinstance(histories, HistoryTree):
        counted = [(root_history(c), n) for c, n in histories.multiplicity.items()]
    else:
        counted = [(node, 1) for node in histories]
    weights: dict[tuple, list] = {}
    for node, n in counted:
        weights.setdefault(key(node), [node, 0])[1] += n
    memo: dict[tuple, dict[Agent, int]] = {}

    def exits(start: HistoryNode) -> dict[Agent, int]:
        # play one oracle step at a time up to a memoised or empty
        # configuration, then fill the memo backwards along the play
        node, chain = start, []
        while not node.config.is_empty() and key(node) not in memo:
            chain.append(node)
            node = advance(node, oracle.profile(node))
            oracle.played(chain[-1].config, node.config)
        later = memo[key(node)] if not node.config.is_empty() else {}
        for node in reversed(chain):
            later = memo[key(node)] = {a: later.get(a, 0) + 1 for a in node.config.agents()}
        limit = default_horizon(graph, start.config)
        if start.time + max(later.values(), default=0) - 1 > limit:
            raise HorizonExceeded(f"induced play passed time {limit}")
        return later

    report = DeviationAuditReport()
    failed: dict[tuple, list[tuple[Agent, str, int, int]]] = {}
    for node, n in weights.values():
        if node.config.is_empty():
            continue
        report.audited_histories += n
        base = exits(node)
        prof = oracle.profile(node)
        for e, q in node.config.queues:
            for idx, agent in enumerate(q):
                for alt in sorted(_allowed(graph, e, idx) - {prof[agent]}):
                    report.audited_deviations += n
                    t_dev = 1 + exits(advance(node, {**prof, agent: alt}))[agent]
                    if t_dev < base[agent]:
                        failed.setdefault(key(node), []).append((agent, alt, base[agent], t_dev))
    for node in histories if failed else ():
        for agent, alt, conforming, deviating in failed.get(key(node), ()):
            finding = (node.key, node.time, agent, alt, node.time + conforming, node.time + deviating)
            report.violations.append(DeviationFinding(*finding))
    return report


# -- history samplers --------------------------------------------------------------


@dataclass
class HistoryTree:
    """Every history of arbitrary play, held as its configuration DAG.

    `multiplicity` maps each distinct configuration (time included), in
    breadth-first order, to the number of tree histories that reach it;
    `children` maps each expanded one to its canonical profiles, each to its
    (successor, action profile), in `itertools.product` order of the agents'
    menus. `len` is the number of histories. Iterating yields the
    `HistoryNode`s breadth first, built once from the stored children."""

    graph: Graph
    root: Configuration
    multiplicity: dict[Configuration, int]
    children: dict[Configuration, dict[tuple, tuple[Configuration, dict[Agent, Action]]]]
    _nodes: Optional[list[HistoryNode]] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return sum(self.multiplicity.values())

    def __iter__(self) -> Iterator[HistoryNode]:
        if self._nodes is None:
            self._nodes = [root_history(self.root)]
            for node in self._nodes:  # grows as it is read: breadth first
                for canon, (child, acts) in self.children.get(node.config, {}).items():
                    self._nodes.append(HistoryNode(child, node.key + (canon,), node, acts))
        return iter(self._nodes)


def exhaustive_histories(
    graph: Graph,
    config: Configuration,
    depth: Optional[int] = None,
    guard: int = 200_000,
) -> HistoryTree:
    """Every history reachable under arbitrary play, to the given depth
    (default: until everyone exits); HorizonExceeded past guard histories."""
    limit = depth if depth is not None else default_horizon(graph, config) - config.time
    multiplicity = {config: 1}
    children: dict = {}
    size = 1
    # configurations are layered by time, so each one's multiplicity is
    # final once every configuration discovered before it is expanded
    order = [config]
    for c in order:
        if c.is_empty() or c.time - config.time >= limit:
            continue
        menus = [sorted(_allowed(graph, e, idx)) or [EXIT] for e, q in c.queues for idx in range(len(q))]
        size += multiplicity[c] * math.prod(len(m) for m in menus)
        if size > guard:
            raise HorizonExceeded(f"history tree exceeds {guard} nodes")
        agents = c.agents()
        profiles = [dict(zip(agents, combo)) for combo in itertools.product(*menus)]
        children[c] = {_canonical(acts): (step(graph, c, acts), acts) for acts in profiles}
        for kid, _ in children[c].values():
            seen = multiplicity.get(kid)
            if seen is None:
                order.append(kid)
            multiplicity[kid] = (seen or 0) + multiplicity[c]
    return HistoryTree(graph, config, multiplicity, children)


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
    seen: dict[tuple, HistoryNode] = {}

    def add(node: HistoryNode) -> None:
        seen.setdefault(node.key, node)

    if oracle is not None:
        for node in play_histories(graph, config, oracle):
            add(node)
    limit = depth if depth is not None else default_horizon(graph, config) - config.time
    for _ in range(playouts):
        node = root_history(config)
        add(node)
        while not node.config.is_empty() and node.config.time - config.time < limit:
            acts = {}
            for e, q in node.config.queues:
                for idx, agent in enumerate(q):
                    options = sorted(_allowed(graph, e, idx))
                    acts[agent] = rng.choice(options) if options else EXIT
            node = child_history(graph, node, acts)
            add(node)
    return list(seen.values())
