import itertools
import random
from pathlib import Path

import pytest

import dqroute.spe
from dqroute.dynamics import EXIT, Configuration, action_set, profile_of, run_paths
from dqroute.equilibrium import (
    _arrival_rank,
    _weakly_preempts,
    batch_decompose,
    enumerate_all_ne,
    iterative_dominating_profile,
    verify_ne,
)
from dqroute.errors import HorizonExceeded, InvalidAction, NotAnNE, TooManyProfiles
from dqroute.fixtures import FIG2_EXPECTED, FIXTURES, ViciousOracle, load_fixture
from dqroute.netcore import Agent, Edge, Graph, Network, build_extended, normalize_to_unit
from dqroute.scenario import load_scenario, parse_scenario
from dqroute.spe import (
    HistoryNode,
    SigmaStar,
    StrategyOracle,
    child_history,
    exhaustive_histories,
    history_name,
    induced_paths,
    ne_based_spe,
    one_deviation_audit,
    play_histories,
    prescribed_heads,
    root_history,
    sampled_histories,
    sigma_star,
)

from helpers import (
    ReferenceNEBasedOracle,
    ReferenceSigmaStar,
    fanout_config,
    random_fan,
    random_interim_config,
    random_net,
    random_schedule,
    reference_exhaustive_histories,
    reference_history_name,
    reference_induced_paths,
    reference_one_deviation_audit,
    reference_prescribed_actions,
    tiny_schedule_tables,
)

GOLDEN = Path(__file__).parent / "golden" / "spe-audit"


def count_solves(monkeypatch) -> list:
    """The arguments of every solver call `dqroute.spe` makes from here on."""
    calls = []

    def counting_solver(*args, **kwargs):
        calls.append(args)
        return iterative_dominating_profile(*args, **kwargs)

    monkeypatch.setattr(dqroute.spe, "iterative_dominating_profile", counting_solver)
    return calls


class MyopicOracle(StrategyOracle):
    """Always take the last outgoing edge in declaration order."""

    def action(self, history, agent):
        options = action_set(self.graph, history.config, agent)
        if not options:
            return EXIT
        edge_name, idx = history.config.locate(agent)
        if idx > 0:
            return edge_name
        return self.graph.out_edges(self.graph.edge(edge_name).head)[-1]


class MarkovianMyopic(MyopicOracle):
    """The myopic rule reads only the configuration, so its state may be the
    queue content; it is not an SPE, so its audit has findings to compare."""

    def state(self, history):
        return history.config.content_key()


class GrudgeOracle(StrategyOracle):
    """Sigma-star until some profile of the history left sigma-star's, the
    myopic rule after: a trigger strategy, whose play depends on the history
    and not only on the configuration, so it keeps the default state."""

    def __init__(self, graph):
        super().__init__(graph)
        self.calm = SigmaStar(graph)
        self.grudge = MyopicOracle(graph)

    def action(self, history, agent):
        return self.profile(history)[agent]

    def profile(self, history):
        node = history
        while node.parent is not None and node.actions == self.calm.profile(node.parent):
            node = node.parent
        return (self.calm if node.parent is None else self.grudge).profile(history)


class PathFollower(StrategyOracle):
    """One agent follows a fixed path, everyone else plays the Markovian oracle."""

    def __init__(self, graph, agent, path, fallback):
        super().__init__(graph)
        self.agent = agent
        self.path = tuple(path)
        self.fallback = fallback

    def action(self, history, agent):
        if agent != self.agent:
            return self.fallback.action(history, agent)
        edge_name, idx = history.config.locate(agent)
        if idx > 0:
            return edge_name
        k = self.path.index(edge_name)
        return self.path[k + 1] if k + 1 < len(self.path) else EXIT


class TestSigmaStar:
    def test_three_case_rule(self):
        net = Network.build("o", "d", [("ov", "o", "v"), ("vd", "v", "d")])
        a, b = Agent("a"), Agent("b")
        oracle = sigma_star(net)
        c = Configuration.from_mapping(0, {"ov": [a, b]})
        acts = oracle.prescription(c)
        assert acts[b] == "ov"  # queued second: stay
        assert acts[a] == "vd"  # head mid-route: second edge of its path
        c2 = Configuration.from_mapping(0, {"vd": [a]})
        assert oracle.prescription(c2)[a] is EXIT

    def test_prescribed_heads_refuse_a_path_off_its_agents_edge(self):
        a, b, c = Agent("a"), Agent("b"), Agent("c")
        config = Configuration.from_mapping(0, {"ov": [a, b], "vd": [c]})
        profile = {a: ("ov", "vd"), b: ("ov", "vd"), c: ("vd",)}
        assert prescribed_heads(config, profile) == ("vd", EXIT)
        assert profile_of(config, ("vd", EXIT)) == reference_prescribed_actions(config, profile)
        for agent in (a, b):  # the head and the agent queued behind it
            with pytest.raises(NotAnNE, match=f"profile path of {agent} does not start at its edge"):
                prescribed_heads(config, {**profile, agent: ("vd",)})

    def test_fig2_actions_follow_the_dominating_profile(self):
        loaded = load_fixture("fig2")
        oracle = sigma_star(loaded.graph)
        solve = iterative_dominating_profile(loaded.graph, loaded.config)
        assert tuple(solve.paths[a] for a in solve.order) == FIG2_EXPECTED
        acts = oracle.prescription(loaded.config)
        for agent in loaded.config.agents():
            path = solve.paths[agent]
            edge_name, idx = loaded.config.locate(agent)
            expected = edge_name if idx > 0 else (path[1] if len(path) > 1 else EXIT)
            assert acts[agent] == expected

    def test_markov_memo_ignores_absolute_time(self):
        net = Network.build("o", "d", [("ov", "o", "v"), ("vd", "v", "d")])
        a = Agent("a")
        oracle = sigma_star(net)
        acts0 = oracle.prescription(Configuration.from_mapping(0, {"ov": [a]}))
        acts9 = oracle.prescription(Configuration.from_mapping(9, {"ov": [a]}))
        assert acts0 == acts9

    def test_anonymity(self):
        loaded = load_fixture("fig1")
        oracle = sigma_star(loaded.graph)
        acts = oracle.prescription(loaded.config)
        renamed = {}
        mapping = {}
        for e, q in loaded.config.queues:
            renamed[e] = [Agent("re_" + x.name, x.entry, x.slot) for x in q]
            for x, y in zip(q, renamed[e]):
                mapping[x] = y
        config2 = Configuration.from_mapping(loaded.config.time, renamed)
        acts2 = sigma_star(loaded.graph).prescription(config2)
        for agent, act in acts.items():
            assert acts2[mapping[agent]] == act

    def test_play_realizes_solver_output_and_is_monotone(self):
        rng = random.Random(15)
        done = 0
        while done < 15:
            net = random_net(rng, max_v=6, max_e=9)
            if net is None:
                continue
            config, _ = random_interim_config(rng, net, max_agents=4)
            solve = iterative_dominating_profile(net, config)
            oracle = sigma_star(net)
            paths, trace = induced_paths(net, root_history(config), oracle)
            assert paths == solve.paths
            # monotone consistency along the play
            prev = solve
            node = root_history(config)
            while not node.config.is_empty():
                node = child_history(net, node, oracle.profile(node))
                if node.config.is_empty():
                    break
                cur = iterative_dominating_profile(net, node.config)
                prev_names = [a.name for a in prev.order if a in node.config.agents()]
                cur_names = [a.name for a in cur.order]
                assert cur_names == prev_names
                # each path is the parent's cut to the suffix from the current edge
                for agent in cur.order:
                    edge_name, _ = node.config.locate(agent)
                    old = prev.paths[agent]
                    assert cur.paths[agent] == old[old.index(edge_name):]
                prev = cur
            done += 1

    def test_sequential_independence_and_no_overtaking(self):
        rng = random.Random(27)
        done = 0
        while done < 8:
            net = random_net(rng, max_v=5, max_e=7)
            if net is None:
                continue
            unit = normalize_to_unit(net)
            schedule = random_schedule(rng, waves=2, width=2)
            ext, c0 = build_extended(unit, schedule)
            oracle = sigma_star(ext.graph)
            paths, trace = induced_paths(ext.graph, root_history(c0), oracle)
            order = schedule.agents()  # original priority order
            # no overtaking: a higher-priority agent weakly preempts lower ones
            keys = {a: _arrival_rank(ext.graph, c0, paths, a) for a in order}
            for hi_idx, hi in enumerate(order):
                for lo in order[hi_idx + 1:]:
                    for v in keys[hi]:
                        if v not in keys[lo]:
                            continue
                        t_hi, t_lo = trace.arrival(hi, v), trace.arrival(lo, v)
                        assert not _weakly_preempts(keys[lo][v], keys[hi][v], t_lo, t_hi), (
                            lo, hi, v)
            # sequential independence: prefix untouched by later agents' antics
            for k in range(1, len(order)):
                prefix = set(order[:k])

                class Mixed(StrategyOracle):
                    def __init__(self, graph, seed):
                        super().__init__(graph)
                        self.rng = random.Random(seed)

                    def action(self, history, agent):
                        if agent in prefix:
                            return oracle.action(history, agent)
                        options = sorted(action_set(self.graph, history.config, agent))
                        return self.rng.choice(options) if options else EXIT

                for seed in range(3):
                    _, mixed_trace = induced_paths(
                        ext.graph, root_history(c0), Mixed(ext.graph, seed)
                    )
                    for a in prefix:
                        assert mixed_trace.vertex_times[a] == trace.vertex_times[a]
            done += 1

    def test_earliest_arrival_against_fixed_deviations(self):
        rng = random.Random(33)
        done = 0
        while done < 6:
            net = random_net(rng, max_v=5, max_e=7)
            if net is None:
                continue
            config, agents = random_interim_config(rng, net, max_agents=3)
            oracle = sigma_star(net)
            paths, trace = induced_paths(net, root_history(config), oracle)
            for agent in agents:
                e0, _ = config.locate(agent)
                for alt in net.paths(e0, net.destination, guard=500):
                    follower = PathFollower(net, agent, alt, oracle)
                    _, dev = induced_paths(net, root_history(config), follower)
                    for v in net.path_vertices(paths[agent]):
                        assert trace.arrival(agent, v) <= dev.arrival(agent, v) or \
                            dev.arrival(agent, v) == float("inf")
            done += 1


class TestSeededSigmaStar:
    """Sigma-star seeds each configuration reached by a step that followed its
    profile from the parent's; `ReferenceSigmaStar` solves every content
    afresh."""

    CAP = 3_000

    FANS = 8

    def _cases(self, seed, count):
        """count random instances with at least 20 histories (interim on unit
        DAGs, inflow chains, and interim or inflow-chain on normalized
        capacity/transit-2 networks), FANS fan-shaped ones with their depth-1
        trees (co-queued agents part there, and every history's play is
        audited to the end), then fig1, fig2, fanout and fanout with waves
        (3, 1) and (1, 2, 1), each with its history tree."""
        rng = random.Random(seed)
        done = 0
        while done < count:
            kind = done % 4
            net = random_net(rng, max_v=6, max_e=8, caps=(1, 1 + (kind > 1)),
                             transits=(1, 1 + (kind > 1)))
            if net is None:
                continue
            graph = normalize_to_unit(net) if kind > 1 else net
            if kind % 2:
                ext, config = build_extended(graph, random_schedule(rng, waves=2, width=3))
                graph = ext.graph
            else:
                config = random_interim_config(rng, graph, max_agents=5)[0]
            tree = self._tree(graph, config)
            if tree is not None and len(tree) >= 20:
                yield graph, config, tree
                done += 1
        fans = 0
        while fans < self.FANS:
            case = random_fan(rng)
            if case is not None:
                yield (*case, exhaustive_histories(*case, 1))
                fans += 1
        fixtures = [(loaded.graph, loaded.config)
                    for loaded in map(load_fixture, ("fig1", "fig2", "fanout"))]
        for graph, config in fixtures + [fanout_config((3, 1)), fanout_config((1, 2, 1))]:
            yield graph, config, self._tree(graph, config)

    def _tree(self, graph, config):
        """The full history tree, else the depth-2 one, else None when that
        too has more than CAP histories."""
        for depth in (None, 2):
            try:
                return exhaustive_histories(graph, config, depth, guard=self.CAP)
            except HorizonExceeded:
                pass
        return None

    def test_prescriptions_and_audits_match_the_reference(self):
        audited = 0
        for graph, config, tree in self._cases(71, 16):
            oracle = sigma_star(graph)
            reference = ReferenceSigmaStar(graph)
            assert induced_paths(graph, root_history(config), oracle) == \
                induced_paths(graph, root_history(config), reference)
            for histories in (tree, list(tree)):
                got = one_deviation_audit(graph, oracle, histories)
                assert got == one_deviation_audit(graph, ReferenceSigmaStar(graph), histories)
                assert got.passed, got.to_text()
            # the tree's configurations and those of induced play, seeded or solved
            played = [node.config for node in play_histories(graph, config, oracle)]
            for c in [*tree.multiplicity, *played]:
                if not c.is_empty():
                    expected = reference.prescription(c)
                    assert oracle.prescription(c) == expected
                    node = root_history(c)
                    assert oracle.profile(node) == expected == reference.profile(node)
                    assert oracle.heads(node) == reference.heads(node)
                    assert {a: oracle.action(node, a) for a in c.agents()} == expected
            audited += 1
        assert audited == 16 + self.FANS + 5

    def test_induced_play_solves_once(self, monkeypatch):
        calls = count_solves(monkeypatch)
        for name in ("fig1", "fig2", "fanout"):
            loaded = load_fixture(name)
            del calls[:]
            paths, _ = induced_paths(loaded.graph, root_history(loaded.config),
                                     sigma_star(loaded.graph))
            assert len(calls) == 1
            assert paths == iterative_dominating_profile(loaded.graph, loaded.config).paths

    @pytest.mark.parametrize("name, solves", [("fanout", 28), ("fig2", 8)])
    def test_full_tree_audit_solves_each_unreached_shape_once(self, monkeypatch, name, solves):
        # induced play solves the root and seeds the rest of its chain; the
        # audit then solves only queue shapes that neither a conforming step
        # nor an earlier solve reached
        loaded = load_fixture(name)
        oracle = sigma_star(loaded.graph)
        calls = count_solves(monkeypatch)
        induced_paths(loaded.graph, root_history(loaded.config), oracle)
        assert len(calls) == 1
        tree = exhaustive_histories(loaded.graph, loaded.config)
        report = one_deviation_audit(loaded.graph, oracle, tree)
        assert report.passed, report.to_text()
        assert len(calls) == solves
        shapes = {tuple((e, len(q)) for e, q in args[1].queues) for args in calls}
        assert len(shapes) == solves
        assert report == one_deviation_audit(loaded.graph, ReferenceSigmaStar(loaded.graph), tree)

    @staticmethod
    def _relabelled(config, rng):
        """The configuration with its agents' names, and their (entry, slot)
        fields, permuted over its queue positions and its time shifted: the
        same queue shape, another content. Also the map old -> new agent."""
        agents = config.agents()
        names, fields = [a.name for a in agents], [(a.entry, a.slot) for a in agents]
        rng.shuffle(names)
        rng.shuffle(fields)
        new = {a: Agent(name, *f) for a, name, f in zip(agents, names, fields)}
        queues = tuple((e, tuple(new[a] for a in q)) for e, q in config.queues)
        return Configuration(config.time + rng.randint(1, 9), queues), new

    @staticmethod
    def _reversed_edge_names(graph):
        """The graph with its edges declared in the same order and priorities
        but renamed so that their sorted order is reversed, and the map old
        -> new edge name."""
        ordered = sorted(graph.edges)
        new = {e: f"x{len(ordered) - i:03d}" for i, e in enumerate(ordered)}
        edges = [Edge(new[e.name], e.tail, e.head, e.capacity, e.transit) for e in graph.edges.values()]
        priorities = {v: [new[e] for e in order] for v, order in graph.priorities.items()}
        return Graph(edges, graph.origin, graph.destination, priorities, graph.vertices), new

    def test_relabelled_contents_share_positional_paths(self, monkeypatch):
        # the base-free solve reads agents only by queue position and time
        # from the configuration's, so a sigma-star oracle solves one of two
        # contents of one shape and serves the other the same paths by
        # position; renaming the edges reorders the queues but not the solve
        rng = random.Random(26)
        corpus = []
        while len(corpus) < 40:
            net = random_net(rng, max_v=8, max_e=12)
            if net is not None:
                corpus.append((net, random_interim_config(rng, net, max_agents=9)[0]))
        for widths in ((3, 1), (2, 2, 1)):
            graph, config = fanout_config(widths)
            corpus += [(graph, c) for c in exhaustive_histories(graph, config).multiplicity if not c.is_empty()]
        renamings = {}
        calls = count_solves(monkeypatch)
        moved = reordered = 0
        for graph, config in corpus:
            relabelled, new = self._relabelled(config, rng)
            one, two = (iterative_dominating_profile(graph, c) for c in (config, relabelled))
            assert [new[a] for a in one.order] == list(two.order)
            assert [one.paths[a] for a in config.agents()] == [two.paths[new[a]] for a in config.agents()]
            if graph not in renamings:
                renamings[graph] = self._reversed_edge_names(graph)
            renamed, edge = renamings[graph]
            moved_edges = Configuration.from_mapping(config.time, {edge[e]: q for e, q in config.queues})
            three = iterative_dominating_profile(renamed, moved_edges)
            assert three.order == one.order
            assert three.paths == {a: tuple(map(edge.__getitem__, p)) for a, p in one.paths.items()}
            reordered += [edge[e] for e, _ in config.queues] != [e for e, _ in moved_edges.queues]
            oracle, reference = sigma_star(graph), ReferenceSigmaStar(graph)
            del calls[:]
            for c in (config, relabelled):
                assert oracle.prescription(c) == reference.prescription(c)
                assert oracle.heads(root_history(c)) == reference.heads(root_history(c))
            assert len(calls) == 1
            moved += any(new[a].name != a.name for a in config.agents())
        assert (len(corpus), moved, reordered) == (1082, 912, 974)

    def test_full_tree_audit_of_fanout_with_waves_3_and_2(self):
        graph, config = fanout_config((3, 2))
        tree = exhaustive_histories(graph, config)
        assert (len(tree), len(tree.multiplicity)) == (9_398, 1_298)
        report = one_deviation_audit(graph, sigma_star(graph), tree)
        assert report.passed, report.to_text()
        assert report == one_deviation_audit(graph, ReferenceSigmaStar(graph), tree)


class TestNEBasedOracle:
    def test_rejects_non_ne(self):
        loaded = load_fixture("fig1_vicious")
        with pytest.raises(NotAnNE):
            ne_based_spe(loaded.graph, loaded.config, loaded.paths)

    def test_on_path_play_preserves_every_ne(self):
        loaded = load_fixture("fig1")
        for pi in enumerate_all_ne(loaded.graph, loaded.config):
            oracle = ne_based_spe(loaded.graph, loaded.config, pi)
            paths, _ = induced_paths(loaded.graph, root_history(loaded.config), oracle)
            assert paths == {a: tuple(p) for a, p in pi.items()}

    def test_no_deviation_keeps_all_batches(self):
        loaded = load_fixture("fig1")
        pi = iterative_dominating_profile(loaded.graph, loaded.config).paths
        oracle = ne_based_spe(loaded.graph, loaded.config, pi)
        root = root_history(loaded.config)
        acts = {a: oracle.action(root, a) for a in loaded.config.agents()}
        child = child_history(loaded.graph, root, acts)
        trace = run_paths(loaded.graph, loaded.config.restrict(pi), pi)
        batches = batch_decompose(trace)
        assert oracle.matched_prefix_size(child) == len(batches.batches)
        rho2 = oracle.profile_at(child)
        for agent, path in pi.items():
            moved = acts[agent] not in (None, path[0])
            assert rho2[agent] == (path[1:] if moved else path)

    @staticmethod
    def _count_simulations(monkeypatch) -> list:
        calls = []

        def counting_run_paths(*args, **kwargs):
            calls.append(args)
            return run_paths(*args, **kwargs)

        monkeypatch.setattr(dqroute.spe, "run_paths", counting_run_paths)
        return calls

    @staticmethod
    def _fig1_one_step_in():
        """fig1's dominating-profile oracle, the history one conforming step
        in (p1 on `ov` may take `vw1`, its NE edge, or `vw2`) and the
        oracle's profile there."""
        loaded = load_fixture("fig1")
        pi = iterative_dominating_profile(loaded.graph, loaded.config).paths
        oracle = ne_based_spe(loaded.graph, loaded.config, pi)
        root = root_history(loaded.config)
        parent = child_history(loaded.graph, root, oracle.profile(root))
        return loaded.graph, oracle, parent, oracle.profile(parent)

    def test_profile_miss_simulates_the_parent_ne_once(self, monkeypatch):
        graph, oracle, parent, acts = self._fig1_one_step_in()
        p1 = next(a for a in acts if a.name == "p1")
        child = child_history(graph, parent, {**acts, p1: "vw2"})
        calls = self._count_simulations(monkeypatch)
        oracle.profile_at(child)
        assert len(calls) == 1

    def test_conforming_child_runs_no_simulation(self, monkeypatch):
        graph, oracle, parent, acts = self._fig1_one_step_in()
        child = child_history(graph, parent, acts)
        calls = self._count_simulations(monkeypatch)
        # the oracle's lookup finds the step conforming and cuts the parent's
        # profile; `profile_at` then reads the memo
        oracle.heads(child)
        rho2 = oracle.profile_at(child)
        assert not calls
        assert rho2 == {a: p[1:] for a, p in oracle.profile_at(parent).items()}
        assert list(rho2) == list(child.config.agents())

    def test_root_batches_come_from_the_ne_check(self, monkeypatch):
        # the constructor's `verify_ne` trace is the root NE's simulation
        loaded = load_fixture("fig1")
        pi = iterative_dominating_profile(loaded.graph, loaded.config).paths
        oracle = ne_based_spe(loaded.graph, loaded.config, pi)
        root = root_history(loaded.config)
        acts = oracle.profile(root)
        p1 = next(a for a in acts if a.name == "p1")
        child = child_history(loaded.graph, root, {**acts, p1: "ou1"})
        calls = self._count_simulations(monkeypatch)
        assert oracle.matched_prefix_size(child) == 0
        assert verify_ne(loaded.graph, child.config, oracle.profile_at(child)).passed
        assert not calls

    def test_induced_play_simulates_only_the_final_trace(self, monkeypatch):
        loaded = load_fixture("fig1")
        oracles = [ne_based_spe(loaded.graph, loaded.config, pi)
                   for pi in enumerate_all_ne(loaded.graph, loaded.config)]
        calls = self._count_simulations(monkeypatch)
        for k, oracle in enumerate(oracles, start=1):
            induced_paths(loaded.graph, root_history(loaded.config), oracle)
            assert len(calls) == k

    def test_sibling_misses_share_one_parent_simulation(self, monkeypatch):
        graph, oracle, parent, acts = self._fig1_one_step_in()
        p1 = next(a for a in acts if a.name == "p1")
        siblings = [child_history(graph, parent, acts), child_history(graph, parent, {**acts, p1: "vw2"})]
        calls = self._count_simulations(monkeypatch)
        assert [oracle.matched_prefix_size(child) for child in siblings] == [1, 0]
        for child in siblings:
            assert verify_ne(graph, child.config, oracle.profile_at(child)).passed
        assert len(calls) == 1

    def test_first_batch_deviation_rebuilds_from_scratch(self):
        loaded = load_fixture("fig1")
        agents = loaded.config.agents()
        pi = iterative_dominating_profile(loaded.graph, loaded.config).paths
        oracle = ne_based_spe(loaded.graph, loaded.config, pi)
        root = root_history(loaded.config)
        acts = {a: oracle.action(root, a) for a in agents}
        # everyone exits in one batch here, so deviate the first-batch member p1
        p1 = next(a for a in agents if a.name == "p1")
        alts = sorted(action_set(loaded.graph, loaded.config, p1) - {acts[p1]})
        child = child_history(loaded.graph, root, {**acts, p1: alts[0]})
        assert oracle.matched_prefix_size(child) == 0
        rho2 = oracle.profile_at(child)
        assert verify_ne(loaded.graph, child.config, rho2).passed

    def test_deviation_in_a_later_batch_keeps_the_earlier_batches(self):
        # a0 leaves its NE edge at the root behind two batches that exit
        # before it: a1's and a2's paths are kept and a3's is rebuilt
        edges = [("e0", "o", "v1"), ("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "d"),
                 ("e4", "v1", "v2"), ("e5", "v3", "d"), ("e6", "v2", "v3")]
        graph = Network.build("o", "d", [(*e, 1, 1) for e in edges],
                              priorities={"v2": ["e1", "e4"], "v3": ["e6", "e2"], "d": ["e3", "e5"]})
        a0, a1, a2, a3 = (Agent(f"a{i}") for i in range(4))
        config = Configuration.from_mapping(0, {"e0": [a0], "e1": [a1, a3], "e6": [a2]})
        pi = {a0: ("e0", "e4", "e2", "e3"), a1: ("e1", "e2", "e5"), a3: ("e1", "e6", "e5"), a2: ("e6", "e3")}
        oracle = ne_based_spe(graph, config, pi)
        root = root_history(config)
        child = child_history(graph, root, {**oracle.profile(root), a0: "e1"})
        assert oracle.matched_prefix_size(child) == 2
        rho2 = oracle.profile_at(child)
        assert (rho2[a1], rho2[a2], rho2[a3]) == (("e2", "e5"), ("e3",), ("e1", "e6", "e3"))
        assert list(rho2.items()) == list(ReferenceNEBasedOracle(graph, config, pi).profile_at(child).items())
        assert verify_ne(graph, child.config, rho2).passed

    def test_matches_the_from_scratch_reference(self):
        # every NE of fan, interim and tiny-schedule draws: the memo and the
        # conforming shortcut give the reference's profiles, in its agent
        # order, its states, audits and induced play on every history
        rng = random.Random(91)
        cases = []
        while len(cases) < 9:
            kind = len(cases) % 3
            if kind == 0:
                drawn = random_fan(rng, fan=1, max_mid=2, max_e=5)
            elif kind == 1:
                net = random_net(rng, max_v=6, max_e=9)
                drawn = net and (net, random_interim_config(rng, net, max_agents=4)[0])
            else:
                drawn = tiny_schedule_tables(rng, 1, guard=64)[0][:2]
            if drawn is None or len(drawn[1].agents()) < 2:
                continue
            try:
                tree = exhaustive_histories(*drawn, 4 if kind == 0 else None, guard=3_000)
                nes = enumerate_all_ne(*drawn, guard=200)
            except (HorizonExceeded, TooManyProfiles):
                continue
            cases.append((*drawn, tree, nes))
        checked = 0
        for graph, config, tree, nes in cases:
            root = root_history(config)
            for pi in nes:
                oracle = ne_based_spe(graph, config, pi)
                reference = ReferenceNEBasedOracle(graph, config, pi)
                for node in tree:
                    assert list(oracle.profile_at(node).items()) == list(reference.profile_at(node).items())
                    expected = reference.profile(node)
                    assert oracle.profile(node) == expected
                    assert {a: oracle.action(node, a) for a in node.config.agents()} == expected
                    assert oracle.heads(node) == reference.heads(node)
                    assert oracle.state(node) == reference.state(node)
                assert one_deviation_audit(graph, oracle, tree) == one_deviation_audit(graph, reference, tree)
                assert induced_paths(graph, root, oracle) == induced_paths(graph, root, reference)
                checked += 1
        assert checked >= 40

    def test_full_tree_audits_on_every_fig1_ne(self):
        loaded = load_fixture("fig1")
        hists = exhaustive_histories(loaded.graph, loaded.config)
        for pi in enumerate_all_ne(loaded.graph, loaded.config):
            oracle = ne_based_spe(loaded.graph, loaded.config, pi)
            report = one_deviation_audit(loaded.graph, oracle, hists)
            assert report.passed, report.to_text()

    def test_full_tree_audit_of_fanout_counts_its_solves_and_simulations(self, monkeypatch):
        graph, config = fanout_config((3, 2))
        oracle = ne_based_spe(graph, config, enumerate_all_ne(graph, config)[0])
        tree = exhaustive_histories(graph, config)
        solves = count_solves(monkeypatch)
        simulations = self._count_simulations(monkeypatch)
        report = one_deviation_audit(graph, oracle, tree)
        assert report.passed, report.to_text()
        assert (len(solves), len(simulations)) == (184, 895)

    def test_solves_shared_by_position_match_fresh_solves_on_every_batch_prefix(self):
        # one oracle per network serves every batch prefix of every NE as a
        # base, and twice more with the agents relabelled: a key that keeps
        # only the shape, or only which positions the base holds, hands a
        # base the paths solved on another
        rng = random.Random(27)
        counts = {}
        for widths in ((3, 2), (2, 3)):
            graph, config = fanout_config(widths)
            nes = enumerate_all_ne(graph, config)
            oracle = ne_based_spe(graph, config, nes[0])
            cases = 0
            for pi in nes:
                batches = batch_decompose(run_paths(graph, config, pi))
                for k in range(len(batches.batches) + 1):
                    base = {a: tuple(pi[a]) for a in batches.prefix(k)}
                    relabelled = [TestSeededSigmaStar._relabelled(config, rng) for _ in range(2)]
                    for c, b in [(config, base), *((c, {new[a]: p for a, p in base.items()})
                                                   for c, new in relabelled)]:
                        fresh = iterative_dominating_profile(graph, c, base=b, base_check_samples=0).paths
                        assert list(oracle._solved(c, b).items()) == list(fresh.items())
                        cases += 1
            counts[widths] = cases, len(oracle._solves)
        assert counts == {(3, 2): (1_296, 157), (2, 3): (1_296, 157)}


class TestAudits:
    def test_vicious_oracle_is_an_spe_with_costs_3_and_4(self):
        loaded = load_fixture("fig1")
        p1, p2 = sorted(loaded.config.agents(), key=lambda a: a.slot)
        oracle = ViciousOracle(loaded.graph, blocker=p1, victim=p2)
        _, trace = induced_paths(loaded.graph, root_history(loaded.config), oracle)
        assert trace.exit_times[p1] - trace.arrival(p1, "o") == 3
        assert trace.exit_times[p2] - trace.arrival(p2, "o") == 4
        hists = exhaustive_histories(loaded.graph, loaded.config)
        report = one_deviation_audit(loaded.graph, oracle, hists)
        assert report.passed, report.to_text()

    def test_off_menu_prescription_is_refused_by_tree_and_list_audits(self):
        # w2's only out-edge is w2x, but the blocker's script still names w2d
        # off the played path: each audit refuses the move as `step` does
        text = (GOLDEN.parent / "errors" / "offmenu_vicious.scn").read_text()
        loaded = load_scenario(parse_scenario(text))
        p1, p2 = sorted(loaded.config.agents(), key=lambda a: a.slot)
        tree = exhaustive_histories(loaded.graph, loaded.config)
        for histories in (tree, list(tree)):
            oracle = ViciousOracle(loaded.graph, blocker=p1, victim=p2)
            with pytest.raises(InvalidAction, match=r"'w2d' not in action set \['w2x'\]"):
                one_deviation_audit(loaded.graph, oracle, histories)

    def test_myopic_oracle_fails_with_witness(self):
        loaded = load_fixture("fig1")
        oracle = MyopicOracle(loaded.graph)
        hists = exhaustive_histories(loaded.graph, loaded.config)
        report = one_deviation_audit(loaded.graph, oracle, hists)
        assert not report.passed
        violation = report.violations[0]
        assert violation.deviating_exit < violation.conforming_exit

    def test_sigma_star_exhaustive_on_random_instances(self):
        rng = random.Random(37)
        done = 0
        while done < 6:
            net = random_net(rng, max_v=5, max_e=6)
            if net is None:
                continue
            config, _ = random_interim_config(rng, net, max_agents=3)
            oracle = sigma_star(net)
            try:
                hists = exhaustive_histories(net, config, guard=30_000)
            except Exception:
                continue
            report = one_deviation_audit(net, oracle, hists)
            assert report.passed, report.to_text()
            done += 1

    def test_play_histories_chain(self):
        loaded = load_fixture("fig1")
        oracle = sigma_star(loaded.graph)
        chain = play_histories(loaded.graph, loaded.config, oracle)
        assert chain[0].config == loaded.config
        assert chain[-1].config.is_empty()
        for a, b in zip(chain, chain[1:]):
            assert b.parent is a


class TestInducedPathsReference:
    """`induced_paths` reads paths off the shared play loop; the reference
    asks each agent for its action and steps with its own round function."""

    def _assert_play_matches(self, graph, history, oracle):
        assert induced_paths(graph, history, oracle) == reference_induced_paths(
            graph, history, oracle)

    def _random_cases(self, seed, count):
        rng = random.Random(seed)
        done = 0
        while done < count:
            net = random_net(rng, max_v=6, max_e=9, caps=(1, 2), transits=(1, 2))
            if net is None:
                continue
            unit = normalize_to_unit(net)
            if done % 2:
                ext, config = build_extended(unit, random_schedule(rng, waves=2, width=3))
                yield ext.graph, config
            else:
                yield unit, random_interim_config(rng, unit, max_agents=5)[0]
            done += 1

    def test_sigma_star(self):
        for graph, config in self._random_cases(51, 16):
            self._assert_play_matches(graph, root_history(config), sigma_star(graph))

    def test_myopic(self):
        for graph, config in self._random_cases(52, 16):
            self._assert_play_matches(graph, root_history(config), MyopicOracle(graph))
        loaded = load_fixture("fig1")
        for node in exhaustive_histories(loaded.graph, loaded.config):
            self._assert_play_matches(loaded.graph, node, MyopicOracle(loaded.graph))

    def test_ne_based(self):
        for graph, config in self._random_cases(53, 8):
            pi = iterative_dominating_profile(graph, config).paths
            self._assert_play_matches(graph, root_history(config), ne_based_spe(graph, config, pi))
        loaded = load_fixture("fig1")
        hists = exhaustive_histories(loaded.graph, loaded.config)
        for pi in enumerate_all_ne(loaded.graph, loaded.config):
            oracle = ne_based_spe(loaded.graph, loaded.config, pi)
            for node in hists:
                self._assert_play_matches(loaded.graph, node, oracle)

    def test_vicious(self):
        loaded = load_fixture("fig1")
        p1, p2 = sorted(loaded.config.agents(), key=lambda a: a.slot)
        oracle = ViciousOracle(loaded.graph, blocker=p1, victim=p2)
        for node in exhaustive_histories(loaded.graph, loaded.config):
            self._assert_play_matches(loaded.graph, node, oracle)


class TestHistoryTreeReference:
    """The configuration-DAG history tree and the per-content audit against
    the tree stepped one history at a time and the audit re-played from every
    history."""

    CAP = 3_000  # reference audits re-play every history; keep trees small

    def _random_cases(self, seed):
        rng = random.Random(seed)
        while True:
            net = random_net(rng, max_v=6, max_e=8)
            if net is None:
                continue
            if rng.random() < 0.5:
                ext, config = build_extended(net, random_schedule(rng, waves=2, width=2))
                yield ext.graph, config, None
            else:
                yield net, random_interim_config(rng, net, max_agents=5)[0], rng.choice((None, 2, 3))

    def _trees(self, seed, count):
        """(graph, config, depth, reference histories): count random instances
        of 20 to CAP histories, then every fixture at full depth and depth 2."""
        fixtures = [(load_fixture(name), depth) for name in FIXTURES for depth in (None, 2)]
        cases = itertools.chain(
            itertools.islice(self._random_cases(seed), 10 * count),
            ((loaded.graph, loaded.config, depth) for loaded, depth in fixtures),
        )
        random_left = count
        for graph, config, depth in cases:
            fixture = any(config is loaded.config for loaded, _ in fixtures)
            if not fixture and not random_left:
                continue
            try:
                expected = reference_exhaustive_histories(graph, config, depth, guard=self.CAP)
            except HorizonExceeded:
                with pytest.raises(HorizonExceeded, match=f"exceeds {self.CAP} nodes"):
                    exhaustive_histories(graph, config, depth, guard=self.CAP)
                continue
            if not fixture:
                if len(expected) < 20:
                    continue
                random_left -= 1
            yield graph, config, depth, expected
        assert not random_left

    def test_histories_and_guard_match_the_reference(self):
        checked = 0
        for graph, config, depth, expected in self._trees(61, 12):
            tree = exhaustive_histories(graph, config, depth)
            assert len(tree) == len(expected)
            got = list(tree)
            assert [n.key for n in got] == [n.key for n in expected]
            assert [history_name(n) for n in got] == [reference_history_name(n) for n in expected]
            assert [n.config for n in got] == [n.config for n in expected]
            assert [n.actions for n in got] == [n.actions for n in expected]
            assert all(n.parent is None or n.parent.key == n.key[:-1] for n in got)
            assert len({n.config for n in got}) == len(tree.multiplicity)
            with pytest.raises(HorizonExceeded):
                exhaustive_histories(graph, config, depth, guard=len(expected) - 1)
            assert len(exhaustive_histories(graph, config, depth, guard=len(expected))) == len(expected)
            checked += 1
        assert checked == 12 + 2 * len(FIXTURES)

    def test_children_match_the_reference_in_order(self):
        # each configuration's successors, in the reference's product order,
        # on fan instances (co-queued agents part) and random nets
        rng = random.Random(62)
        cases = []
        while len(cases) < 4:
            drawn = random_fan(rng, fan=2, max_mid=2, max_e=7)
            if drawn is not None:
                cases.append((*drawn, 3))
        cases += itertools.islice(self._random_cases(63), 6)
        expanded = 0
        for graph, config, depth in cases:
            try:
                expected = reference_exhaustive_histories(graph, config, depth, guard=self.CAP)
            except HorizonExceeded:
                continue
            tree = exhaustive_histories(graph, config, depth, guard=self.CAP)
            kids: dict[tuple, list[HistoryNode]] = {}
            for node in expected[1:]:
                kids.setdefault(node.parent.key, []).append(node)
            for node in expected:
                if node.key not in kids:
                    assert node.config not in tree.children
                    continue
                got = list(tree.children[node.config].items())
                assert got == [(n.key[-1], n.config) for n in kids[node.key]]
                expanded += 1
        assert expanded > 1000

    def test_iterating_builds_the_histories_once_without_stepping(self, monkeypatch):
        loaded = load_fixture("fanout")
        tree = exhaustive_histories(loaded.graph, loaded.config)

        def no_step(*args, **kwargs):
            raise AssertionError("the history tree stepped again")

        monkeypatch.setattr(dqroute.spe, "step", no_step)
        first, second = list(tree), list(tree)
        assert len(first) == len(tree) and all(a is b for a, b in zip(first, second))

    def test_audits_match_the_reference(self):
        failing = 0
        for graph, config, depth, expected in self._trees(62, 8):
            tree = exhaustive_histories(graph, config, depth)
            for make in (sigma_star, MarkovianMyopic, MyopicOracle):
                got = one_deviation_audit(graph, make(graph), tree)
                assert got == reference_one_deviation_audit(graph, make(graph), expected)
                failing += make is MarkovianMyopic and not got.passed
        assert failing >= 3

    def test_audits_of_history_lists_match_the_reference(self):
        # a plain list counts each listed history, repeats included
        for graph, config, depth, expected in self._trees(63, 4):
            rng = random.Random(len(expected))
            listed = expected + rng.sample(expected, min(5, len(expected)))
            sampled = sampled_histories(graph, config, rng, playouts=4, depth=depth)
            for histories in (listed, sampled):
                for make in (sigma_star, MarkovianMyopic):
                    got = one_deviation_audit(graph, make(graph), iter(histories))
                    assert got == reference_one_deviation_audit(graph, make(graph), histories)

    def test_history_dependent_audits_match_the_reference(self):
        loaded = load_fixture("fig1")
        tree = exhaustive_histories(loaded.graph, loaded.config)
        expected = reference_exhaustive_histories(loaded.graph, loaded.config)
        p1, p2 = sorted(loaded.config.agents(), key=lambda a: a.slot)
        oracles = [lambda: ViciousOracle(loaded.graph, blocker=p1, victim=p2)]
        for pi in enumerate_all_ne(loaded.graph, loaded.config):
            oracles.append(lambda pi=pi: ne_based_spe(loaded.graph, loaded.config, pi))
        sampled = sampled_histories(loaded.graph, loaded.config, random.Random(3), playouts=6,
                                    oracle=oracles[0]())
        for make in oracles:
            assert one_deviation_audit(loaded.graph, make(), tree) == \
                reference_one_deviation_audit(loaded.graph, make(), expected)
            assert one_deviation_audit(loaded.graph, make(), sampled) == \
                reference_one_deviation_audit(loaded.graph, make(), sampled)


class TestStateKeyedAudit:
    """One audit for every oracle: each distinct oracle state once, weighted by
    its histories, against the reference that re-plays every history."""

    def test_ne_based_full_tree_audit_of_fanout_with_waves_3_and_2(self, monkeypatch):
        graph, config = fanout_config((3, 2))
        tree = exhaustive_histories(graph, config)
        pi = iterative_dominating_profile(graph, config).paths
        calls = count_solves(monkeypatch)
        report = one_deviation_audit(graph, ne_based_spe(graph, config, pi), tree)
        solves = len(calls)
        assert (len(tree), report.audited_histories, report.audited_deviations) == (9_398, 6_273, 2_294)
        assert report.passed, report.to_text()
        reference = ne_based_spe(graph, config, pi)
        assert report == reference_one_deviation_audit(graph, reference, list(tree))
        # at most one solve per distinct (time, state), and fewer than one per history
        assert solves <= len({(node.time, reference.state(node)) for node in tree}) < len(tree)

    def test_failing_audit_maps_its_violations_to_histories(self):
        loaded = load_fixture("fig1")
        tree = exhaustive_histories(loaded.graph, loaded.config)
        expected = reference_exhaustive_histories(loaded.graph, loaded.config)
        for make in (MyopicOracle, MarkovianMyopic):
            for histories in (tree, expected):
                got = one_deviation_audit(loaded.graph, make(loaded.graph), histories)
                assert got == reference_one_deviation_audit(loaded.graph, make(loaded.graph), expected)
                assert not got.passed

    def test_history_dependent_oracle_on_the_default_state(self):
        loaded = load_fixture("fig1")
        cases = [(loaded.graph, loaded.config, exhaustive_histories(loaded.graph, loaded.config))]
        rng = random.Random(81)
        while len(cases) < 5:
            case = random_fan(rng)
            if case is not None:
                cases.append((*case, exhaustive_histories(*case, 1)))
        failing = 0
        for graph, config, tree in cases:
            got = one_deviation_audit(graph, GrudgeOracle(graph), tree)
            assert got == reference_one_deviation_audit(graph, GrudgeOracle(graph), list(tree))
            failing += not got.passed
        assert failing

    @pytest.mark.parametrize("name", ["fig1", "fig3", "fanout"])
    def test_failing_audit_text_matches_golden(self, name):
        # the rendered history names: fig1's findings are at the root,
        # fig3's one profile down and fanout's up to two
        loaded = load_fixture(name)
        tree = exhaustive_histories(loaded.graph, loaded.config)
        report = one_deviation_audit(loaded.graph, MyopicOracle(loaded.graph), tree)
        assert report.to_text() + "\n" == (GOLDEN / "myopic" / f"{name}.txt").read_text()

    def test_tree_list_and_samples_give_the_same_findings(self):
        # the tree walked by state, its histories listed one by one and
        # sampled play find and name each history's findings alike
        rng = random.Random(84)
        cases, failing = [], 0
        while len(cases) < 8:
            if len(cases) % 2:
                drawn = random_fan(rng, fan=2, max_mid=2, max_e=7)
            else:
                net = random_net(rng, max_v=6, max_e=8)
                drawn = net and (net, random_interim_config(rng, net, max_agents=4)[0])
            if drawn is None or drawn[1].is_empty():
                continue
            depth = rng.choice((1, 2, None))
            try:
                tree = exhaustive_histories(*drawn, depth, guard=2_000)
            except HorizonExceeded:
                continue
            cases.append((*drawn, depth, tree))
        for graph, config, depth, tree in cases:
            pi = iterative_dominating_profile(graph, config).paths
            sampled = sampled_histories(graph, config, random.Random(len(tree)), playouts=5, depth=depth)
            names = {history_name(node) for node in sampled}
            for make in (GrudgeOracle, sigma_star, lambda g: ne_based_spe(g, config, pi)):
                whole = one_deviation_audit(graph, make(graph), tree)
                assert one_deviation_audit(graph, make(graph), list(tree)) == whole
                seen = self._by_history(one_deviation_audit(graph, make(graph), sampled))
                assert seen == {k: v for k, v in self._by_history(whole).items() if k in names}
                failing += bool(seen)
        assert failing >= 3

    @staticmethod
    def _by_history(report):
        out = {}
        for finding in report.violations:
            out.setdefault(finding.history_key, []).append(finding)
        return out

    def test_fan_corpus(self):
        rng = random.Random(82)
        done = 0
        while done < 4:
            case = random_fan(rng)
            if case is None:
                continue
            graph, config = case
            tree = exhaustive_histories(graph, config, 1)
            pi = iterative_dominating_profile(graph, config).paths
            for make in (sigma_star, MarkovianMyopic, lambda g: ne_based_spe(g, config, pi)):
                for histories in (tree, list(tree)):
                    got = one_deviation_audit(graph, make(graph), histories)
                    assert got == reference_one_deviation_audit(graph, make(graph), histories)
            done += 1

    def test_tiny_schedule_corpus_of_every_ne(self):
        # the ne-suite pipeline: every NE of a tiny schedule, audited on its full tree
        audited = 0
        for graph, c0, table in tiny_schedule_tables(random.Random(83), 10, guard=64):
            tree = exhaustive_histories(graph, c0, guard=20_000)
            expected = list(tree)
            for pi in enumerate_all_ne(graph, c0, table=table):
                got = one_deviation_audit(graph, ne_based_spe(graph, c0, pi), tree)
                assert got.passed, got.to_text()
                assert got == reference_one_deviation_audit(graph, ne_based_spe(graph, c0, pi), expected)
                self._assert_state_contract(ne_based_spe(graph, c0, pi), tree)
                audited += 1
        assert audited >= 10

    def test_fixture_oracles_keep_the_state_contract(self):
        loaded = load_fixture("fig1")
        tree = exhaustive_histories(loaded.graph, loaded.config)
        p1, p2 = sorted(loaded.config.agents(), key=lambda a: a.slot)
        self._assert_state_contract(ViciousOracle(loaded.graph, blocker=p1, victim=p2), tree)
        self._assert_state_contract(sigma_star(loaded.graph), tree)
        for pi in enumerate_all_ne(loaded.graph, loaded.config):
            self._assert_state_contract(ne_based_spe(loaded.graph, loaded.config, pi), tree)

    @staticmethod
    def _assert_state_contract(oracle, tree):
        """Histories of equal state have equal contents and profiles, and every
        action profile takes them to successors of equal state. Exit times
        alone cannot show a state that is too coarse: on these corpora every
        NE continuation of a content exits alike."""
        seen = {}
        for node in tree:
            kids = {heads: oracle.state(HistoryNode(kid, node.key + (heads,), node))
                    for heads, kid in tree.children.get(node.config, {}).items()}
            got = (node.config.content_key(), oracle.profile(node), kids)
            assert seen.setdefault(oracle.state(node), got) == got
