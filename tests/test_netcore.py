import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqroute.dynamics import run_paths
from dqroute.errors import (
    CyclicGraph,
    DQRouteError,
    EdgeOffAllPaths,
    EmptySchedule,
    IncompletePriorityOrder,
    MalformedEdge,
    UnknownAgent,
)
from dqroute.netcore import (
    Agent,
    Edge,
    ExtendedNetwork,
    InflowSchedule,
    Network,
    UnitNetwork,
    build_extended,
    leftmost_min_cut,
    normalize_to_unit,
    sp_decompose,
    validate_and_stats,
)
from dqroute.spe import induced_paths, root_history

from helpers import (
    LaneDispatchOracle,
    random_g_path,
    random_net,
    realize_sp_tree,
    reference_capacity_sim,
)


def diamond():
    return Network.build(
        "o", "d",
        [("e1", "o", "u"), ("e2", "u", "d"), ("e3", "o", "w"), ("e4", "w", "d")],
    )


class TestAgent:
    def test_hash_is_c_level_and_equality_every_field(self):
        plain, scheduled = Agent("a"), Agent("a", 1, 1)
        # the tuple hash, in C: no Python-level __hash__ runs per lookup
        assert Agent.__hash__ is tuple.__hash__
        assert hash(scheduled) == hash(("a", 1, 1))
        assert plain != scheduled
        assert plain == Agent("a") and scheduled == Agent("a", 1, 1)
        assert len({plain, scheduled, Agent("a")}) == 2

    def test_schedule_agents_equal_those_the_constructor_builds(self):
        # `InflowSchedule.build` makes its agents without the named tuple's __new__
        waves = [(1, ["x", "y"]), (3, ["z"]), (4, ["u", "v", "w"])]
        built = InflowSchedule.build(waves).agents()
        expected = [Agent(n, r, slot) for r, names in waves for slot, n in enumerate(names, 1)]
        assert list(built) == expected
        assert [hash(a) for a in built] == [hash(a) for a in expected]
        assert all(type(a) is Agent for a in built)
        assert [(a.name, a.entry, a.slot, str(a)) for a in built] == \
            [(a.name, a.entry, a.slot, str(a)) for a in expected]


class TestInflowSchedule:
    @pytest.mark.parametrize("waves, message", [
        ([(0, ["a"])], "wave times must be strictly increasing and >= 1, got 0"),
        ([(2, ["a"]), (2, ["b"])], "wave times must be strictly increasing and >= 1, got 2"),
        ([(3, ["a"]), (1, ["b"])], "wave times must be strictly increasing and >= 1, got 1"),
        ([(1, ["a"]), (2, [])], "wave at time 2 is empty"),
        # the first bad wave is named, and a wave's time before its agents
        ([(1, []), (0, ["a"])], "wave at time 1 is empty"),
        ([(2, ["a"]), (2, [])], "wave times must be strictly increasing and >= 1, got 2"),
    ])
    def test_the_first_bad_wave_is_named(self, waves, message):
        with pytest.raises(EmptySchedule) as info:
            InflowSchedule.build(waves)
        assert str(info.value) == message

    def test_build_matches_a_per_wave_construction(self):
        rng = random.Random(9)
        for _ in range(60):
            times = sorted(rng.sample(range(1, 80), rng.randint(0, 15)))
            waves = [(r, [f"a{r}.{k}" for k in range(rng.randint(1, 3))]) for r in times]
            built = InflowSchedule.build(waves)
            expected = tuple(
                (r, tuple(Agent(name, r, slot) for slot, name in enumerate(names, 1)))
                for r, names in waves
            )
            assert built == InflowSchedule(expected) and built.waves == expected
            assert [(a.name, a.entry, a.slot) for a in built.agents()] == \
                [(a.name, a.entry, a.slot) for _, wave in expected for a in wave]
            assert all(type(a) is Agent for a in built.agents())


class TestValidateAndStats:
    def test_single_edge(self):
        stats = validate_and_stats(Network.build("o", "d", [("e", "o", "d")]))
        assert (stats.m, stats.longest_path, stats.max_in_degree) == (1, 1, 1)

    def test_two_parallel_edges(self):
        net = Network.build("o", "d", [("e1", "o", "d"), ("e2", "o", "d")])
        stats = validate_and_stats(net)
        assert (stats.m, stats.longest_path, stats.max_in_degree) == (2, 1, 2)

    def test_triangle(self):
        net = Network.build("o", "d", [("a", "o", "v"), ("b", "v", "d"), ("c", "o", "d")])
        stats = validate_and_stats(net)
        assert (stats.m, stats.longest_path, stats.max_in_degree) == (3, 2, 2)

    def test_stats_invariant_on_random_nets(self):
        rng = random.Random(3)
        seen = 0
        while seen < 25:
            net = random_net(rng)
            if net is None:
                continue
            stats = validate_and_stats(net)
            assert max(stats.longest_path, stats.max_in_degree) <= stats.m
            seen += 1

    def test_cyclic_rejected(self):
        with pytest.raises(CyclicGraph):
            Network.build("o", "d", [("a", "o", "v"), ("b", "v", "w"), ("c", "w", "v"), ("e", "v", "d")])

    def test_edge_off_all_paths_rejected(self):
        with pytest.raises(EdgeOffAllPaths):
            Network.build("o", "d", [("a", "o", "d"), ("b", "o", "v")])

    def test_incomplete_priority_rejected(self):
        with pytest.raises(IncompletePriorityOrder):
            Network.build(
                "o", "d",
                [("a", "o", "d"), ("b", "o", "d")],
                priorities={"d": ["a"]},
            )

    @pytest.mark.parametrize(
        "edges",
        [
            [("e", "o", "d", 0, 1)],
            [("e", "o", "d", 1, 0)],
            [("e", "o", "d"), ("e", "o", "d")],
        ],
    )
    def test_malformed_edge_is_a_package_error(self, edges):
        with pytest.raises(MalformedEdge) as exc:
            Network.build("o", "d", edges)
        assert isinstance(exc.value, DQRouteError)

    def test_non_unit_edge_in_unit_network_rejected(self):
        with pytest.raises(MalformedEdge):
            UnitNetwork.build("o", "d", [("e", "o", "d", 2, 1)])


class TestNormalize:
    def test_identity_on_unit_edges(self):
        net = Network.build("o", "d", [("e", "o", "d")])
        unit = normalize_to_unit(net)
        assert set(unit.edges) == {"e"}
        assert unit.provenance == {"e": ("e", 0, 0)}

    def test_fat_edge_expansion_counts(self):
        net = Network.build("o", "d", [("e", "o", "d", 2, 3)])
        unit = normalize_to_unit(net)
        assert len(unit.edges) == 6
        assert len(unit.vertices) == 2 + 4  # o, d plus 2 interior per lane
        slot = {(lane, seg): name for name, (orig, lane, seg) in unit.provenance.items() if orig == "e"}
        assert sorted(slot) == [(lane, seg) for lane in range(2) for seg in range(3)]
        for lane in range(2):
            # each lane's segments chain from o to d in segment order
            chain = [unit.edge(slot[lane, seg]) for seg in range(3)]
            assert chain[0].tail == "o" and chain[-1].head == "d"
            assert all(a.head == b.tail for a, b in zip(chain, chain[1:]))

    def test_lane_block_keeps_priority_slot(self):
        net = Network.build(
            "o", "d",
            [("hi", "o", "d", 2, 1), ("lo", "o", "d")],
            priorities={"d": ["hi", "lo"]},
        )
        unit = normalize_to_unit(net)
        order = unit.priorities["d"]
        # transit 1: each lane of "hi" is one unit edge into d
        lanes = sorted((lane, name) for name, (orig, lane, _) in unit.provenance.items() if orig == "hi")
        assert len(lanes) == 2
        assert list(order) == [name for _, name in lanes] + ["lo"]

    def test_two_lane_queue_latencies(self):
        net = Network.build("o", "d", [("e", "o", "d", 2, 1)])
        unit = normalize_to_unit(net)
        schedule = InflowSchedule.build([(1, ["x", "y", "z"])])
        ext, c0 = build_extended(unit, schedule)
        oracle = LaneDispatchOracle(ext.graph, unit, {a: ["e"] for a in schedule.agents()}, ext.chain_edges)
        _, trace = induced_paths(ext.graph, root_history(c0), oracle)
        assert sorted(trace.exit_times[a] - 1 for a in schedule.agents()) == [1, 1, 2]

    def test_matches_reference_simulator(self):
        rng = random.Random(31)
        done = 0
        while done < 10:
            net = random_net(rng, max_v=6, max_e=6, caps=(1, 3), transits=(1, 3))
            if net is None:
                continue
            unit = normalize_to_unit(net)
            waves, t = [], 0
            for _ in range(rng.randint(1, 3)):
                t += rng.randint(1, 2)
                waves.append((t, [f"a{t}.{k}" for k in range(rng.randint(1, 3))]))
            schedule = InflowSchedule.build(waves)
            g_paths = {a: random_g_path(rng, net) for a in schedule.agents()}
            ref = reference_capacity_sim(net, schedule, g_paths)
            ext, c0 = build_extended(unit, schedule)
            oracle = LaneDispatchOracle(ext.graph, unit, g_paths, ext.chain_edges)
            _, trace = induced_paths(ext.graph, root_history(c0), oracle, horizon=10_000)
            for agent in schedule.agents():
                assert ref[agent] == trace.exit_times[agent]
            done += 1


class TestBuildExtended:
    def test_single_wave_head_placement(self):
        unit = normalize_to_unit(Network.build("o", "d", [("e", "o", "d")]))
        schedule = InflowSchedule.build([(1, ["a"])])
        ext, c0 = build_extended(unit, schedule)
        edge = ExtendedNetwork.chain_edge(1, 1)
        (queued,) = c0.queue(edge)
        assert queued.name == "a" and queued.entry == 1 and queued.slot == 1

    def test_two_wave_placement(self):
        unit = normalize_to_unit(Network.build("o", "d", [("e", "o", "d")]))
        schedule = InflowSchedule.build([(1, ["a", "b"]), (2, ["c"])])
        ext, c0 = build_extended(unit, schedule)
        assert [a.name for a in c0.queue(ExtendedNetwork.chain_edge(1, 1))] == ["a"]
        assert [a.name for a in c0.queue(ExtendedNetwork.chain_edge(2, 1))] == ["b"]
        assert [a.name for a in c0.queue(ExtendedNetwork.chain_edge(1, 2))] == ["c"]

    def test_agents_reach_origin_at_entry_time(self):
        rng = random.Random(9)
        done = 0
        while done < 10:
            net = random_net(rng, max_v=6, max_e=8)
            if net is None:
                continue
            unit = normalize_to_unit(net)
            waves, t = [], 0
            for _ in range(rng.randint(1, 3)):
                t += rng.randint(1, 3)
                waves.append((t, [f"a{t}.{k}" for k in range(rng.randint(1, 3))]))
            schedule = InflowSchedule.build(waves)
            ext, c0 = build_extended(unit, schedule)
            paths = {}
            for agent in schedule.agents():
                paths[agent] = ext.entry_prefix(agent) + tuple(random_g_path(rng, unit))
            trace = run_paths(ext.graph, c0, paths)
            for agent in schedule.agents():
                assert trace.arrival(agent, unit.origin) == agent.entry
            done += 1

    def test_entry_prefix_needs_a_scheduled_agent(self):
        unit = normalize_to_unit(Network.build("o", "d", [("e", "o", "d")]))
        ext, _ = build_extended(unit, InflowSchedule.build([(1, ["a"])]))
        with pytest.raises(UnknownAgent):
            ext.entry_prefix(Agent("stray"))

    def test_empty_schedule_rejected(self):
        unit = normalize_to_unit(Network.build("o", "d", [("e", "o", "d")]))
        with pytest.raises(EmptySchedule):
            build_extended(unit, InflowSchedule(waves=()))
        with pytest.raises(EmptySchedule):
            InflowSchedule.build([(1, [])])


class TestSeriesParallel:
    def test_single_edge_leaf(self):
        net = Network.build("o", "d", [("e", "o", "d")])
        dec = sp_decompose(net)
        assert dec.root.kind == "edge" and dec.root.edge_set() == frozenset({"e"})
        assert leftmost_min_cut(net) == (frozenset({"e"}), frozenset({"o"}), frozenset({"d"}))

    def test_diamond_decomposition(self):
        net = diamond()
        dec = sp_decompose(net)
        assert dec.root.kind == "parallel"
        assert {child.kind for child in (dec.root.left, dec.root.right)} == {"series"}
        assert dec.root.edge_set() == frozenset(net.edges)
        assert leftmost_min_cut(net)[0] == frozenset({"e1", "e3"})
        assert len(dec.nodes()) == 2 * 4 - 1

    def test_wheatstone_is_not_sp(self):
        net = Network.build(
            "o", "d",
            [("e1", "o", "u"), ("e2", "o", "w"), ("e3", "u", "w"),
             ("e4", "u", "d"), ("e5", "w", "d")],
        )
        assert sp_decompose(net) is None

    @staticmethod
    def _tree_strategy():
        return st.recursive(
            st.just("leaf"),
            lambda kids: st.tuples(st.sampled_from(["series", "parallel"]), kids, kids),
            max_leaves=8,
        )

    @given(_tree_strategy.__func__())
    @settings(max_examples=60, deadline=None)
    def test_random_sp_tree_round_trip(self, tree):
        counter = itertools.count()
        edges: list[Edge] = []

        def realize(node, o, d):
            if node == "leaf":
                edges.append(Edge(f"e{next(counter)}", o, d))
                return
            kind, left, right = node
            if kind == "series":
                mid = f"m{next(counter)}"
                realize(left, o, mid)
                realize(right, mid, d)
            else:
                realize(left, o, d)
                realize(right, o, d)

        realize(tree, "o", "d")
        net = Network(edges, "o", "d")
        dec = sp_decompose(net)
        assert dec is not None
        assert len(dec.nodes()) == 2 * len(net.edges) - 1
        rebuilt = realize_sp_tree(dec.root, net.edges)
        assert set(rebuilt.edges) == set(net.edges)
        for name in net.edges:
            assert (rebuilt.edge(name).tail, rebuilt.edge(name).head) == (
                net.edge(name).tail,
                net.edge(name).head,
            )


def _disconnects(net, removed):
    seen = {net.origin}
    stack = [net.origin]
    while stack:
        u = stack.pop()
        for name in net.out_edges(u):
            if name in removed:
                continue
            h = net.edge(name).head
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return net.destination not in seen


def _on_left(net, cut, other):
    cut, other = sorted(cut), sorted(other)
    cache = {}

    def reach(a):
        if a not in cache:
            seen = {a}
            stack = [a]
            while stack:
                u = stack.pop()
                for name in net.out_edges(u):
                    h = net.edge(name).head
                    if h not in seen:
                        seen.add(h)
                        stack.append(h)
            cache[a] = seen
        return cache[a]

    def pair_ok(e, f):
        if e == f:
            return True
        ee, ff = net.edge(e), net.edge(f)
        return (
            ee.tail in reach(net.origin)
            and ff.tail in reach(ee.head)
            and net.destination in reach(ff.head)
        )

    return any(
        all(pair_ok(e, f) for e, f in zip(cut, perm))
        for perm in itertools.permutations(other)
    )


class TestLeftmostMinCut:
    def test_single_edge(self):
        net = Network.build("o", "d", [("od", "o", "d")])
        cut, left, right = leftmost_min_cut(net)
        assert cut == frozenset({"od"}) and left == {"o"} and right == {"d"}

    def test_unique_bottleneck(self):
        net = Network.build(
            "o", "d", [("ou", "o", "u"), ("a", "u", "d"), ("b", "u", "d")]
        )
        cut, left, right = leftmost_min_cut(net)
        assert cut == frozenset({"ou"})

    def test_two_chains_prefers_first_edges(self):
        net = Network.build(
            "o", "d",
            [("a1", "o", "x"), ("a2", "x", "d"), ("b1", "o", "y"), ("b2", "y", "d")],
        )
        cut, left, right = leftmost_min_cut(net)
        assert cut == frozenset({"a1", "b1"})
        assert left == {"o"}

    def test_against_exhaustive_min_cuts(self):
        rng = random.Random(19)
        done = 0
        while done < 40:
            net = random_net(rng, max_v=7, max_e=9)
            if net is None:
                continue
            cut, left, right = leftmost_min_cut(net)
            assert _disconnects(net, cut)
            k = len(cut)
            names = sorted(net.edges)
            assert not any(
                _disconnects(net, set(c))
                for r in range(1, k)
                for c in itertools.combinations(names, r)
            )
            min_cuts = [
                set(c) for c in itertools.combinations(names, k) if _disconnects(net, set(c))
            ]
            assert set(cut) in min_cuts
            for other in min_cuts:
                assert _on_left(net, cut, other)
            assert net.origin in left and net.destination in right
            done += 1
