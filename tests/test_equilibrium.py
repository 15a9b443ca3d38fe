import dataclasses
import itertools
import math
import random

import pytest

import dqroute.bestresponse
import dqroute.equilibrium
import helpers
from dqroute.bestresponse import QueueCounters, dominates, queued_agent_table
from dqroute.dynamics import Configuration, run_paths
from dqroute.equilibrium import (
    CheckOptions,
    CheckResult,
    _check_batches,
    _every_completion_passes,
    batch_decompose,
    build_exit_table,
    check_properties,
    enumerate_all_ne,
    iterative_dominating_profile,
    verify_ne,
)
from dqroute.errors import BaseInvarianceViolated, DQRouteError, NotAnNE, TooManyProfiles
from dqroute.fixtures import FIG2_EXPECTED, load_fixture
from dqroute.netcore import (
    Agent,
    InflowSchedule,
    Network,
    build_extended,
    normalize_to_unit,
    validate_and_stats,
)
from dqroute.spe import exhaustive_histories

from helpers import (
    fanout_config,
    lane_blockers,
    random_chain_dag,
    random_interim_config,
    random_net,
    random_schedule,
    reference_check_batches,
    reference_dominating_profile,
    solve_views,
    tiny_schedule_tables,
)


class TestIterativeDominatingProfile:
    def test_single_agent_shortest_path_breaks_ties_by_priority(self):
        # two equal-length routes from v; the higher-priority final edge wins
        net = Network.build(
            "o", "d",
            [("ov", "o", "v"), ("vx", "v", "x"), ("vy", "v", "y"),
             ("xd", "x", "d"), ("yd", "y", "d")],
            priorities={"d": ["yd", "xd"]},
        )
        a = Agent("a")
        c = Configuration.from_mapping(0, {"ov": [a]})
        result = iterative_dominating_profile(net, c)
        assert result.paths[a] == ("ov", "vy", "yd")

    def test_fig2_reproduces_the_nine_path_profile(self):
        loaded = load_fixture("fig2")
        result = iterative_dominating_profile(loaded.graph, loaded.config)
        assert tuple(result.paths[a] for a in result.order) == FIG2_EXPECTED

    def test_fig1_output_is_one_of_the_six_nes(self):
        loaded = load_fixture("fig1")
        result = iterative_dominating_profile(loaded.graph, loaded.config)
        report = verify_ne(loaded.graph, loaded.config, result.paths)
        assert report.passed
        trace = report.trace
        for agent in loaded.config.agents():
            assert trace.exit_times[agent] - trace.arrival(agent, "o") == 3

    def test_random_outputs_are_nash_equilibria(self):
        rng = random.Random(11)
        done = 0
        while done < 40:
            net = random_net(rng)
            if net is None:
                continue
            config, _ = random_interim_config(rng, net, max_agents=5)
            result = iterative_dominating_profile(net, config)
            assert verify_ne(net, config, result.paths).passed
            done += 1

    def test_stage_equality_and_domination_inequality(self):
        rng = random.Random(17)
        done = 0
        while done < 25:
            net = random_net(rng, max_v=7, max_e=10)
            if net is None:
                continue
            config, agents = random_interim_config(rng, net, max_agents=4)
            result = iterative_dominating_profile(net, config)
            cache = {}
            for i, agent in enumerate(result.order):
                before, tau = result.order[:i], result.tables[i].tau
                later = [a for a in agents if a not in before and a != agent]
                pre = {a: result.paths[a] for a in before}
                own = net.path_vertices(result.paths[agent])
                for _ in range(10):
                    sample = {}
                    for a in later:
                        e, _ = config.locate(a)
                        opts = cache.setdefault((a.name, e), net.paths(e, "d", guard=2_000))
                        sample[a] = rng.choice(opts)
                    world = {**pre, agent: result.paths[agent], **sample}
                    trace = run_paths(net, config.restrict(world), world)
                    for v in own[1:]:
                        assert trace.arrival(agent, v) == tau.get(v, math.inf)
                    for j in later:
                        e_j, _ = config.locate(j)
                        tail_j = net.edge(e_j).tail
                        for v in own:
                            if v == tail_j:
                                continue  # conventional start-tail time
                            bound = tau.get(v, math.inf)
                            if math.isinf(bound):
                                continue
                            arr = trace.arrival(j, v)
                            assert math.isinf(arr) or arr >= bound
            done += 1


class TestBaseVariant:
    def test_base_paths_are_kept_and_order_excludes_them(self):
        loaded = load_fixture("fig2")
        agents = {a.name: a for a in loaded.config.agents()}
        base = {
            agents["g1"]: ("v2_y2", "y2_d"),
            agents["h1"]: ("v1_y1", "y1_d"),
        }
        result = iterative_dominating_profile(loaded.graph, loaded.config, base=base)
        assert agents["g1"] not in result.order
        assert result.paths[agents["g1"]] == ("v2_y2", "y2_d")
        assert len(result.order) == 7

    def test_base_variant_continues_the_full_solve(self):
        # seeding with a solver prefix (invariant by construction) must
        # reproduce the remaining order and paths exactly
        rng = random.Random(61)
        done = 0
        while done < 12:
            net = random_net(rng, max_v=6, max_e=9)
            if net is None:
                continue
            config, agents = random_interim_config(rng, net, max_agents=5)
            if len(agents) < 2:
                continue
            full = iterative_dominating_profile(net, config)
            k = rng.randint(1, len(full.order) - 1)
            base = {a: full.paths[a] for a in full.order[:k]}
            seeded = iterative_dominating_profile(net, config, base=base, base_check_samples=5)
            assert seeded.order == full.order[k:]
            assert seeded.paths == full.paths
            done += 1

    def test_base_invariance_violation_detected(self):
        # a rival arrives at the merge simultaneously via the higher-priority
        # edge, so the base agent's times depend on the completion
        net = Network.build(
            "o", "d",
            [("ov", "o", "v"), ("xv", "x", "v"), ("ox", "o", "x"), ("vd", "v", "d")],
            priorities={"v": ["xv", "ov"]},
        )
        slow, fast = Agent("slow"), Agent("fast")
        c = Configuration.from_mapping(0, {"ov": [slow], "xv": [fast]})
        base = {slow: ("ov", "vd")}
        with pytest.raises(BaseInvarianceViolated):
            iterative_dominating_profile(net, c, base=base, base_check_samples=30)

    def test_base_check_enumerates_each_menu_once(self, monkeypatch):
        # the rival is drawn in each of the 30 samples; its menu is built on
        # its first draw only
        from dqroute.equilibrium import _check_base_invariance

        net = Network.build(
            "o", "d", [("s", "o", "x"), ("t", "o", "x"), ("p", "x", "d"), ("q", "x", "d")]
        )
        a, b = Agent("a"), Agent("b")
        c = Configuration.from_mapping(0, {"s": [a], "t": [b]})
        enumerated, paths = [], Network.paths

        def counting_paths(graph, first_edge, *args, **kwargs):
            enumerated.append(first_edge)
            return paths(graph, first_edge, *args, **kwargs)

        monkeypatch.setattr(Network, "paths", counting_paths)
        _check_base_invariance(net, c, {a: ("s", "p")}, 30, random.Random(0))
        assert enumerated == ["t"]


class TestIncrementalSolverMatchesReference:
    """The incremental solver against the from-scratch one: same order, same
    paths, and every chosen agent's table."""

    @staticmethod
    def corpus(rng, count):
        # interim configurations of random unit DAGs, then schedule-built ones
        # on extended networks with capacity-2 and transit-2 edges
        done = 0
        while done < count:
            net = random_net(rng, max_v=8, max_e=12)
            if net is None:
                continue
            config, _ = random_interim_config(rng, net, max_agents=9)
            yield net, config
            net = random_net(rng, max_v=6, max_e=9, caps=(1, 2), transits=(1, 2))
            if net is None:
                continue
            ext, c0 = build_extended(normalize_to_unit(net), random_schedule(rng, waves=4, width=3))
            yield ext.graph, c0
            done += 1

    @staticmethod
    def fan_corpus():
        """Every nonempty configuration of the full history trees of the fanout
        fixture and of fanout with waves (3, 1), (3, 2) and (2, 2, 1): there,
        co-queued agents part onto different routes, which random nets rarely
        give."""
        loaded = load_fixture("fanout")
        fans = [(loaded.graph, loaded.config)]
        fans += [fanout_config(widths) for widths in ((3, 1), (3, 2), (2, 2, 1))]
        for graph, config in fans:
            for c in exhaustive_histories(graph, config).multiplicity:
                if not c.is_empty():
                    yield graph, c

    def test_full_solve_equals_reference(self):
        for graph, config in itertools.chain(self.corpus(random.Random(5), 60), self.fan_corpus()):
            assert solve_views(iterative_dominating_profile(graph, config)) == \
                solve_views(reference_dominating_profile(graph, config))

    def test_base_variant_equals_reference(self):
        rng = random.Random(23)
        for graph, config in itertools.chain(self.corpus(rng, 30), self.fan_corpus()):
            full = reference_dominating_profile(graph, config)
            if len(full.order) < 2:
                continue
            k = rng.randint(1, len(full.order) - 1)
            base = {a: full.paths[a] for a in full.order[:k]}
            seeded = iterative_dominating_profile(graph, config, base=base, base_check_samples=0)
            assert solve_views(seeded) == solve_views(reference_dominating_profile(
                graph, config, base=base, base_check_samples=0
            ))

    def test_solve_workload_sizes_equal_reference(self):
        # 50 agents queued on random edges and 48 entering in waves of up to 3,
        # on 7-vertex 12-edge chain DAGs, as the solve benchmark draws them
        rng = random.Random(15)
        for _ in range(2):
            net = random_chain_dag(rng)
            queues: dict[str, list[Agent]] = {}
            for i in range(50):
                queues.setdefault(rng.choice(sorted(net.edges)), []).append(Agent(f"a{i}"))
            config = Configuration.from_mapping(0, queues)
            unit = normalize_to_unit(random_chain_dag(rng, fat=0.2))
            waves, t = [], 0
            for w in (3, 1, 2) * 8:
                t += rng.randint(1, 2)
                waves.append((t, [f"a{t}.{k}" for k in range(w)]))
            ext, entry = build_extended(unit, InflowSchedule.build(waves))
            for graph, c in ((net, config), (ext.graph, entry)):
                result = iterative_dominating_profile(graph, c)
                assert len(result.order) in (48, 50)
                assert solve_views(result) == solve_views(reference_dominating_profile(graph, c))

    def test_fig2_equals_reference(self):
        loaded = load_fixture("fig2")
        result = iterative_dominating_profile(loaded.graph, loaded.config)
        expected = reference_dominating_profile(loaded.graph, loaded.config)
        assert solve_views(result) == solve_views(expected)
        assert tuple(result.paths[a] for a in result.order) == FIG2_EXPECTED


class TestLaneFronts:
    """The solver builds tables only for lane fronts; its solves equal the
    from-scratch oracle's, which picks every blocker before its followers."""

    @staticmethod
    def lane_corpus(rng):
        # schedules of waves 1-2 steps apart on extended networks normalised
        # from capacity-2 and transit-2 edges: chain and transit-vertex lanes
        done = 0
        while done < 25:
            net = random_net(rng, max_v=6, max_e=9, caps=(1, 2), transits=(1, 2))
            if net is None:
                continue
            ext, c0 = build_extended(normalize_to_unit(net), random_schedule(rng, waves=6, width=3))
            yield ext.graph, c0
            done += 1
        # interim configurations with queues of 4-7 agents on such networks
        done = 0
        while done < 20:
            net = random_net(rng, max_v=6, max_e=9, caps=(1, 2), transits=(1, 2))
            if net is None:
                continue
            unit = normalize_to_unit(net)
            queues = {e: [Agent(f"{e}.{i}") for i in range(rng.randint(4, 7))]
                      for e in rng.sample(sorted(unit.edges), min(len(unit.edges), 3))}
            yield unit, Configuration.from_mapping(0, queues)
            done += 1
        # m joins oa-am, bm and om, and has the one out-edge mn, so one agent
        # on mn blocks the fronts of three queues; a, b and n branch or join
        edges = [("oa", "o", "a"), ("ob", "o", "b"), ("om", "o", "m"), ("am", "a", "m"),
                 ("bm", "b", "m"), ("bd", "b", "d"), ("mn", "m", "n"), ("nd", "n", "d"),
                 ("np", "n", "p"), ("pd", "p", "d")]
        for _ in range(20):
            prios = {"m": rng.sample(["am", "bm", "om"], 3), "d": rng.sample(["bd", "nd", "pd"], 3)}
            net = Network.build("o", "d", edges, priorities=prios)
            queues = {e: [Agent(f"{e}{i}") for i in range(rng.randint(0, 3))] for e, _, _ in edges}
            yield net, Configuration.from_mapping(0, queues)

    def test_lane_front_solves_equal_reference(self):
        rng = random.Random(25)
        waits = joins = stops = bases = 0
        for graph, config in self.lane_corpus(rng):
            full = reference_dominating_profile(graph, config)
            starts = {a: e for e, q in config.queues for a in q}
            cases = [{}]
            if len(full.order) >= 2:
                k = rng.randint(1, len(full.order) - 1)
                cases.append({a: full.paths[a] for a in full.order[:k]})
            for base in cases:
                expected = reference_dominating_profile(
                    graph, config, base=base, base_check_samples=0) if base else full
                solved = iterative_dominating_profile(graph, config, base=base,
                                                      base_check_samples=0)
                assert solve_views(solved) == solve_views(expected)
                blockers, stopped = lane_blockers(graph, config, base)
                place = {a: i for i, a in enumerate(expected.order)}
                assert all(place[b] < place[a] for a, b in blockers.items())
                followed: dict[Agent, set[str]] = {}
                for a, b in blockers.items():
                    waits += starts[a] != starts[b]
                    followed.setdefault(b, set()).add(starts[a])
                joins += sum(len(edges) > 1 for edges in followed.values())
                stops += stopped
                bases += bool(base)
        # agents wait across edges, blockers release followers on several
        # edges, walks stop at branching vertices with agents beyond, and
        # the base variant runs
        assert min(waits, joins, stops, bases) > 0, (waits, joins, stops, bases)


class TestLeastKeySelection:
    """The solver picks the least backward key: (time, rank of e*) pairs from
    the destination back to the start edge's head, a prefix sorting first."""

    def test_equal_keys_in_one_queue_choose_the_front_most(self):
        # a and b wait on od with no assigned agent ahead: equal tables and keys
        net = Network.build("o", "d", [("od", "o", "d")])
        a, b = Agent("a"), Agent("b")
        c = Configuration.from_mapping(0, {"od": [a, b]})
        result = iterative_dominating_profile(net, c)
        assert result.order == (a, b)
        assert result.paths == {a: ("od",), b: ("od",)}
        assert solve_views(result) == solve_views(reference_dominating_profile(net, c))

    def test_equal_keys_behind_a_worse_queue_choose_the_front_most(self):
        # k's queue is listed first but reaches d later; b and a tie on ud, and
        # b, the front one, goes first although a sorts first by name
        net = Network.build("o", "d", [("ou", "o", "u"), ("ud", "u", "d")])
        a, b, k = Agent("a"), Agent("b"), Agent("k")
        c = Configuration.from_mapping(0, {"ou": [k], "ud": [b, a]})
        counters = QueueCounters(net, 0)
        ties = [queued_agent_table("ud", 0, 0, counters) for _ in (b, a)]
        assert ties[0] == ties[1] and ties[0].tau["d"] == 1
        result = iterative_dominating_profile(net, c)
        assert result.order == (b, a, k)
        assert result.tables[0] == ties[0]
        assert solve_views(result) == solve_views(reference_dominating_profile(net, c))

    @staticmethod
    def dp_calls(monkeypatch, graph, config):
        calls = []
        original = dqroute.bestresponse.dp_from_vertex

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(dqroute.bestresponse, "dp_from_vertex", counting)
        result = iterative_dominating_profile(graph, config)
        assert len(result.order) == len(config.agents())
        return len(calls)

    def test_dp_calls_per_solve_are_pinned(self, monkeypatch):
        # a fixed 30-agent interim instance on 12 queues: one table per lane
        # front, then one per table a commit invalidates or a release needs,
        # against 257 when every unassigned agent keeps a table and 465 from
        # scratch
        rng = random.Random(3)
        net = random_chain_dag(rng)
        queues: dict[str, list[Agent]] = {}
        for i in range(30):
            queues.setdefault(rng.choice(sorted(net.edges)), []).append(Agent(f"a{i}"))
        assert self.dp_calls(monkeypatch, net, Configuration.from_mapping(0, queues)) == 99

    def test_dp_calls_on_an_extended_schedule_are_pinned(self, monkeypatch):
        # 24 agents in 12 waves on a normalised net with capacity-2 and
        # transit-2 edges: a later wave's agent waits behind the earlier one on
        # its slot's chain, against 63 when every unassigned agent keeps a table
        rng = random.Random(4)
        unit = normalize_to_unit(random_chain_dag(rng, fat=0.2))
        waves, t = [], 0
        for w in (3, 1, 2) * 4:
            t += rng.randint(1, 2)
            waves.append((t, [f"a{t}.{k}" for k in range(w)]))
        ext, entry = build_extended(unit, InflowSchedule.build(waves))
        assert self.dp_calls(monkeypatch, ext.graph, entry) == 52

    def test_a_walk_that_is_a_prefix_of_another_wins(self):
        # once x is assigned, j (behind x on ud) and k (on ou) both reach d at 2
        # via ud; j's walk ends at u, where k's goes on to o, so j goes first
        net = Network.build("o", "d", [("ou", "o", "u"), ("ud", "u", "d")])
        x, j, k = Agent("x"), Agent("j"), Agent("k")
        c = Configuration.from_mapping(0, {"ou": [k], "ud": [x, j]})
        result = iterative_dominating_profile(net, c)
        assert result.order == (x, j, k)
        assert [table.tau["d"] for table in result.tables] == [1, 2, 3]
        assert solve_views(result) == solve_views(reference_dominating_profile(net, c))
        seeded = iterative_dominating_profile(net, c, base={x: ("ud",)})
        assert seeded.order == (j, k)
        expected = reference_dominating_profile(net, c, base={x: ("ud",)})
        assert solve_views(seeded) == solve_views(expected)

    def test_equal_times_are_broken_by_the_rank_of_e_star(self):
        # p and q reach m at 2 and d at 3 alike; bm outranks am at m, so q goes
        # first although p's queue is listed first
        net = Network.build(
            "o", "d",
            [("oa", "o", "a"), ("ob", "o", "b"), ("am", "a", "m"), ("bm", "b", "m"),
             ("md", "m", "d")],
            priorities={"m": ["bm", "am"]},
        )
        p, q = Agent("p"), Agent("q")
        c = Configuration.from_mapping(0, {"oa": [p], "ob": [q]})
        result = iterative_dominating_profile(net, c)
        assert result.order == (q, p)
        assert [table.tau["m"] for table in result.tables] == [2, 2]
        assert run_paths(net, c, result.paths).exit_times == {q: 3, p: 4}
        assert solve_views(result) == solve_views(reference_dominating_profile(net, c))


class TestVerifyNE:
    def test_fig1_vicious_profile_fails_with_witness(self):
        loaded = load_fixture("fig1_vicious")
        report = verify_ne(loaded.graph, loaded.config, loaded.paths)
        assert not report.passed
        (witness,) = report.witnesses
        assert witness.agent.name == "p2"
        assert witness.current_arrival == 5 and witness.best_arrival == 4

    def test_single_agent_best_path_passes(self):
        net = Network.build("o", "d", [("od", "o", "d"), ("ov", "o", "v"), ("vd", "v", "d")])
        a = Agent("a")
        c = Configuration.from_mapping(0, {"od": [a]})
        assert verify_ne(net, c, {a: ("od",)}).passed


class TestBatches:
    def test_distinct_arrivals_are_singleton_batches(self):
        net = Network.build("o", "d", [("od", "o", "d")])
        a, b = Agent("a"), Agent("b")
        c = Configuration.from_mapping(0, {"od": [a, b]})
        trace = run_paths(net, c, {a: ("od",), b: ("od",)})
        batches = batch_decompose(trace)
        assert batches.times == (1, 2)
        assert batches.batches == ((a,), (b,))
        assert batches.prefix(1) == (a,)

    def test_fig3_focal_batch(self):
        loaded = load_fixture("fig3")
        trace = run_paths(loaded.graph, loaded.config, loaded.paths)
        batches = batch_decompose(trace)
        stats = validate_and_stats(loaded.network)
        top = batches.batches[-1]
        assert {a.name for a in top} == {"i", "j", "k"}
        assert batches.times[-1] == 5
        for batch in batches.batches:
            assert len(batch) <= stats.max_in_degree


class TestEnumerateAllNE:
    def test_fig1_has_exactly_six_nes_all_cost_three(self):
        loaded = load_fixture("fig1")
        nes = enumerate_all_ne(loaded.graph, loaded.config)
        assert len(nes) == 6
        for pi in nes:
            trace = run_paths(loaded.graph, loaded.config, pi)
            for agent in pi:
                assert trace.exit_times[agent] - trace.arrival(agent, "o") == 3
            assert verify_ne(loaded.graph, loaded.config, pi).passed

    def test_single_agent_nes_are_min_latency_paths(self):
        net = Network.build(
            "o", "d", [("od", "o", "d"), ("ov", "o", "v"), ("vd", "v", "d")]
        )
        a = Agent("a")
        c = Configuration.from_mapping(0, {"od": [a]})
        nes = enumerate_all_ne(net, c)
        assert [pi[a] for pi in nes] == [("od",)]

    def test_guard(self):
        edges = [("s0", "o", "x0")]
        for i in range(6):
            edges.append((f"a{i}", f"x{i}", f"x{i+1}"))
            edges.append((f"b{i}", f"x{i}", f"x{i+1}"))
        edges.append(("t", "x6", "d"))
        net = Network.build("o", "d", edges)
        agents = [Agent(f"a{i}") for i in range(3)]
        c = Configuration.from_mapping(0, {"s0": agents})
        with pytest.raises(TooManyProfiles):
            enumerate_all_ne(net, c, guard=100)


def detour_instance():
    """(network, configuration, profile): b's detour lets a exit first at 3
    and b at 4; b's direct path reaches w with a and wins there on priority,
    so a moves and b beats its batch time. Each prefix has two completions."""
    net = Network.build(
        "o", "d",
        [("ou", "o", "u"), ("ov", "o", "v"), ("uw", "u", "w"), ("vw", "v", "w"),
         ("vx", "v", "x"), ("xw", "x", "w"), ("wd", "w", "d")],
        priorities={"w": ["vw", "xw", "uw"]},
    )
    a, b = Agent("a"), Agent("b")
    c = Configuration.from_mapping(0, {"ou": [a], "ov": [b]})
    return net, c, {a: ("ou", "uw", "wd"), b: ("ov", "vx", "xw", "wd")}


def most_completions(table, batches) -> int:
    """The largest number of completions of one batch prefix."""
    return max(
        math.prod(len(table.sets[a]) for a in table.agents if a not in batches.prefix(j))
        for j in range(len(batches.times))
    )


class TestProperties:
    def test_fig1_ne_passes_every_check(self):
        loaded = load_fixture("fig1")
        result = iterative_dominating_profile(loaded.graph, loaded.config)
        report = check_properties(
            loaded.graph, loaded.config, result.paths, CheckOptions(samples=50, seed=3)
        )
        assert report.passed
        assert report.result("strong_ne").detail == "exhaustive"
        assert report.result("consecutive_exiting").status == "pass"

    def test_no_samples_skips_independence_and_optimality(self):
        loaded = load_fixture("fig1")
        result = iterative_dominating_profile(loaded.graph, loaded.config)
        for table in (None, build_exit_table(loaded.graph, loaded.config)):
            report = check_properties(loaded.graph, loaded.config, result.paths,
                                      CheckOptions(samples=0), exit_table=table)
            assert report.passed
            for name in ("independence", "optimality"):
                assert report.result(name).status == "skip"
                assert report.result(name).detail == "samples=0: no completion was drawn"
            assert report.result("strong_ne").status == "pass"

    def test_strong_ne_truncates_when_paths_exceed_the_exhaustive_guard(self):
        # one agent before a chain of 15 diamonds has 2**15 paths: too many
        # for the exhaustive check, so coalitions are truncated, not refused
        edges = [("s", "o", "x0")]
        for i in range(15):
            head = "d" if i == 14 else f"x{i + 1}"
            edges += [(f"u{i}", f"x{i}", f"m{i}"), (f"uu{i}", f"m{i}", head),
                      (f"w{i}", f"x{i}", f"n{i}"), (f"ww{i}", f"n{i}", head)]
        net = Network.build("o", "d", edges)
        a = Agent("a")
        c = Configuration.from_mapping(0, {"s": [a]})
        result = iterative_dominating_profile(net, c)
        report = check_properties(net, c, result.paths, CheckOptions(samples=5))
        assert report.passed
        assert report.result("strong_ne").detail == "sampled (truncated coalitions)"

    def test_sampled_pass_simulates_each_world_once(self, monkeypatch):
        # three agents queued on one edge leave it one per step: three batches;
        # either of the two parallel last edges is as fast, so all 8 profiles are NEs
        net = Network.build("o", "d", [("s", "o", "x"), ("p", "x", "d"), ("q", "x", "d")])
        c = Configuration.from_mapping(0, {"s": [Agent(n) for n in "abc"]})
        table = build_exit_table(net, c)
        nes = enumerate_all_ne(net, c, table=table)
        assert len(nes) == len(table.exits) == 8
        worlds = []

        def counting_run_paths(graph, config, profile):
            worlds.append(frozenset((a, tuple(p)) for a, p in profile.items()))
            return run_paths(graph, config, profile)

        # the table's worlds are simulated without validating their menu paths
        monkeypatch.setattr(dqroute.equilibrium, "run_paths", counting_run_paths)
        monkeypatch.setattr(dqroute.equilibrium, "_simulate", counting_run_paths)
        monkeypatch.setattr(helpers, "run_paths", counting_run_paths)
        options = CheckOptions(samples=7)
        simulated = set()
        for pi in (nes[0], nes[-1]):
            trace = run_paths(net, c, pi)
            batches = batch_decompose(trace)
            assert len(batches.batches) == 3
            del worlds[:]
            reference_check_batches(net, c, pi, trace, batches, table.sets, options)
            assert len(worlds) == 3 * 7  # the uncached pass: one run per sample
            drawn = set(worlds)
            del worlds[:]
            assert check_properties(net, c, pi, options, exit_table=table).passed
            # the table's NE test stands in for verify_ne: the NE's own world and
            # each drawn world are simulated once, through the table, unless an
            # earlier NE's check did it
            own = frozenset((a, tuple(p)) for a, p in pi.items())
            assert len(worlds) == len(set(worlds))
            assert set(worlds) == (drawn | {own}) - simulated
            simulated |= drawn | {own}
        assert len(worlds) < len(drawn)  # the second NE re-reads the first one's worlds

    def test_exit_table_of_another_configuration_is_refused(self):
        net = Network.build("o", "d", [("s", "o", "x"), ("p", "x", "d"), ("q", "x", "d")])
        c = Configuration.from_mapping(0, {"s": [Agent(n) for n in "abc"]})
        table = build_exit_table(net, c)
        pi = enumerate_all_ne(net, c, table=table)[0]
        # the same queues one step later: the table's traces would be a step early
        later = Configuration(1, c.queues)
        assert verify_ne(net, later, pi).passed
        with pytest.raises(DQRouteError, match="another configuration"):
            check_properties(net, later, pi, exit_table=table)
        # a profile without one of the table's agents restricts to another world
        partial = {a: p for a, p in pi.items() if a.name != "b"}
        assert verify_ne(net, c, partial).passed
        with pytest.raises(DQRouteError, match="another configuration"):
            check_properties(net, c, partial, exit_table=table)
        assert check_properties(net, c, partial).passed  # its own table is built

    def test_menus_come_from_the_exit_table(self, monkeypatch):
        net = Network.build(
            "o", "d",
            [("s", "o", "x"), ("t", "o", "x"), ("p", "x", "d"), ("q", "x", "y"),
             ("r", "y", "d"), ("u", "y", "d")],
        )
        c = Configuration.from_mapping(0, {"s": [Agent("a"), Agent("b")], "t": [Agent("c")]})
        enumerated, paths = [], Network.paths

        def counting_paths(graph, first_edge, *args, **kwargs):
            enumerated.append(first_edge)
            return paths(graph, first_edge, *args, **kwargs)

        monkeypatch.setattr(Network, "paths", counting_paths)
        table = build_exit_table(net, c)
        assert enumerated == ["s", "t"]  # once per edge, not per agent
        assert table.sets[Agent("a")] is table.sets[Agent("b")]
        for pi in enumerate_all_ne(net, c, table=table):
            del enumerated[:]
            options = CheckOptions(samples=9, seed=4)
            with_table = check_properties(net, c, pi, options, exit_table=table)
            assert enumerated == []
            assert with_table == check_properties(net, c, pi, options)

    def test_sampled_pass_failures_reproduce_from_their_witnesses(self):
        net, c, profile = detour_instance()
        assert not verify_ne(net, c, profile).passed
        trace = run_paths(net, c, profile)
        batches = batch_decompose(trace)
        assert batches.times == (3, 4)
        menus = {x: net.paths(e, "d") for e, q in c.queues for x in q}
        independence, optimality = _check_batches(
            net, c, profile, trace, batches, menus, CheckOptions(samples=10, seed=0)
        )
        assert independence.status == optimality.status == "fail"
        assert independence.detail == "batch 1 agent a moved under a sampled completion"
        assert optimality.detail == "batch 2 bound 4 beaten by a sampled completion (3)"
        by_name = {x.name: x for x in profile}

        def resimulate(witness, kept_batches):
            kept = {x: profile[x] for x in batches.prefix(kept_batches)}
            completion = {by_name[n]: tuple(p) for n, p in witness["completion"].items()}
            assert not set(kept) & set(completion)
            return run_paths(net, c, {**kept, **completion}), completion

        w = independence.witness
        sub, _ = resimulate(w, w["batch"])
        moved = by_name[w["agent"]]
        assert sub.vertex_times[moved] == w["got"] != w["expected"] == trace.vertex_times[moved]
        w = optimality.witness
        sub, completion = resimulate(w, w["batch"] - 1)
        assert min(sub.exit_times[x] for x in completion) == w["earliest"]
        assert w["earliest"] < w["bound"] == batches.times[w["batch"] - 1]

    def test_cached_pass_matches_the_reference(self):
        # any joint profile, NE or not: failures and witnesses included
        rng = random.Random(41)
        failed = 0
        for graph, c0, table in tiny_schedule_tables(rng, 8, guard=400):
            for combo in rng.sample(sorted(table.exits), min(5, len(table.exits))):
                profile = {a: table.sets[a][i] for a, i in zip(table.agents, combo)}
                trace = run_paths(graph, c0, profile)
                options = CheckOptions(samples=rng.randint(1, 20), seed=rng.randrange(100))
                args = (graph, c0, profile, trace, batch_decompose(trace), table.sets, options)
                cached = _check_batches(*args, table)
                assert cached == reference_check_batches(*args)
                failed += any(res.status == "fail" for res in cached)
        assert failed  # the corpus exercises failing checks and their witnesses
        # the hand-built failing profile of the witness test below
        net, c, profile = detour_instance()
        trace = run_paths(net, c, profile)
        table = build_exit_table(net, c)
        args = (net, c, profile, trace, batch_decompose(trace), table.sets,
                CheckOptions(samples=10, seed=0))
        cached = _check_batches(*args, table)
        assert [res.status for res in cached] == ["fail", "fail"]
        assert cached == reference_check_batches(*args)

    def test_every_completion_pass_matches_the_reference(self, monkeypatch):
        # every NE and some other profiles, each on the table's own trace, with
        # fewer draws than the largest prefix's completions and with at least
        # as many: whole results, witnesses included, equal the sampled pass
        passes, decided = dqroute.equilibrium._every_completion_passes, []

        def spy(*args):
            decided.append(passes(*args))
            return decided[-1]

        monkeypatch.setattr(dqroute.equilibrium, "_every_completion_passes", spy)
        rng = random.Random(23)
        failed = 0
        for graph, c0, table in tiny_schedule_tables(rng, 10, guard=64):
            nes = [combo for combo in sorted(table.exits) if table.is_ne(combo)]
            others = [combo for combo in sorted(table.exits) if combo not in nes]
            for combo in nes + rng.sample(others, min(3, len(others))):
                profile = {a: table.sets[a][i] for a, i in zip(table.agents, combo)}
                trace = table.trace(graph, profile)
                batches = batch_decompose(trace)
                most = most_completions(table, batches)
                for samples in (rng.randint(1, max(1, most - 1)), rng.randint(most, most + 3)):
                    options = CheckOptions(samples=samples, seed=rng.randrange(100))
                    args = (graph, c0, profile, trace, batches, table.sets, options)
                    cached = _check_batches(*args, table)
                    assert cached == reference_check_batches(*args)
                    failed += any(res.status == "fail" for res in cached)
        assert decided.count(True) >= 20  # decided over every completion
        assert decided.count(False) >= 20  # decided by the draws
        assert failed >= 10

    def test_a_failure_the_draws_miss_is_still_reported_as_a_pass(self):
        # three draws over each prefix's two completions, and seed 0 never
        # draws b's direct path: the pass finds the failure, so the draws
        # decide, and they report the pass the sampled check always reported
        net, c, profile = detour_instance()
        table = build_exit_table(net, c)
        trace = table.trace(net, profile)
        batches = batch_decompose(trace)
        options = CheckOptions(samples=3, seed=0)
        assert most_completions(table, batches) == 2
        assert not _every_completion_passes(net, profile, trace, batches, options, table)
        args = (net, c, profile, trace, batches, table.sets, options)
        passed = (CheckResult("independence", "pass"), CheckResult("optimality", "pass"))
        assert _check_batches(*args, table) == reference_check_batches(*args) == passed
        # more draws find it
        args = (*args[:-1], CheckOptions(samples=10, seed=0))
        assert [res.status for res in _check_batches(*args, table)] == ["fail", "fail"]

    def test_every_completion_pass_draws_nothing(self, monkeypatch):
        # three agents queued on one edge leave it one per step: three
        # batches, and prefixes of 8, 4 and 2 completions, none more than the
        # 8 samples. No completion is drawn; the empty prefix reads only the
        # table's exits, so every simulated world keeps a's path, and each is
        # simulated once: the NE's own by `ne_trace`, the other three by the pass
        net = Network.build("o", "d", [("s", "o", "x"), ("p", "x", "d"), ("q", "x", "d")])
        a = Agent("a")
        c = Configuration.from_mapping(0, {"s": [a, Agent("b"), Agent("c")]})
        nes = enumerate_all_ne(net, c)
        tables = [build_exit_table(net, c) for _ in nes]
        worlds = []

        def counting_simulate(graph, config, profile):
            worlds.append(frozenset((x, tuple(p)) for x, p in profile.items()))
            return run_paths(graph, config, profile)

        def no_draw(self, seq):
            raise AssertionError("a completion was drawn")

        monkeypatch.setattr(dqroute.equilibrium, "_simulate", counting_simulate)
        monkeypatch.setattr(random.Random, "choice", no_draw)
        for pi, table in zip(nes, tables):
            del worlds[:]
            report = check_properties(net, c, pi, CheckOptions(samples=8), exit_table=table)
            assert report.passed
            assert [report.result(n).status for n in ("independence", "optimality")] == ["pass"] * 2
            assert len(worlds) == len(set(worlds)) == 4
            assert all((a, pi[a]) in world for world in worlds)

    def test_every_completion_pass_compares_the_prefix_vertex_times(self):
        # a trace whose batch-0 agent reaches x a step late: every other world
        # of prefix 1 moves it against that trace, so the pass may not decide
        # and the draws name the moved agent
        net = Network.build("o", "d", [("s", "o", "x"), ("p", "x", "d"), ("q", "x", "d")])
        c = Configuration.from_mapping(0, {"s": [Agent(n) for n in "abc"]})
        table = build_exit_table(net, c)
        pi = enumerate_all_ne(net, c, table=table)[0]
        trace = table.ne_trace(net, pi)
        first = batch_decompose(trace).batches[0][0]
        late = {**trace.vertex_times[first], "x": trace.vertex_times[first]["x"] + 1}
        trace = dataclasses.replace(trace, vertex_times={**trace.vertex_times, first: late})
        table.traces[tuple(pi[a] for a in table.agents)] = trace
        batches = batch_decompose(trace)
        options = CheckOptions(samples=8)
        assert most_completions(table, batches) == 8
        assert not _every_completion_passes(net, pi, trace, batches, options, table)
        args = (net, c, pi, trace, batches, table.sets, options)
        independence, optimality = _check_batches(*args, table)
        assert independence.status == "fail" and independence.witness["agent"] == first.name
        assert optimality.status == "pass"

    def test_reports_match_the_uncached_reference(self, monkeypatch):
        # whole reports, with the table given, without one (the CLI path) and
        # through the uncached reference pass
        rng = random.Random(29)
        runs = []
        for graph, c0, table in tiny_schedule_tables(rng, 8, guard=400):
            options = CheckOptions(samples=rng.randint(5, 30), seed=rng.randrange(100))
            for pi in enumerate_all_ne(graph, c0, table=table):
                report = check_properties(graph, c0, pi, options, exit_table=table)
                assert check_properties(graph, c0, pi, options) == report
                runs.append((graph, c0, pi, options, table, report))
        monkeypatch.setattr(
            dqroute.equilibrium, "_check_batches",
            lambda *args: reference_check_batches(*args[:7]),
        )
        for graph, c0, pi, options, table, report in runs:
            assert check_properties(graph, c0, pi, options, exit_table=table) == report

    def test_non_ne_is_rejected(self):
        loaded = load_fixture("fig1_vicious")
        with pytest.raises(NotAnNE) as plain:
            check_properties(loaded.graph, loaded.config, loaded.paths)
        # with a table, verify_ne still names the failure, in the same words
        table = build_exit_table(loaded.graph, loaded.config.restrict(loaded.paths))
        with pytest.raises(NotAnNE) as tabled:
            check_properties(loaded.graph, loaded.config, loaded.paths, exit_table=table)
        assert str(tabled.value) == str(plain.value)

    def test_interim_configs_skip_original_priority_checks(self):
        loaded = load_fixture("fig3")
        report = check_properties(
            loaded.graph, loaded.config, loaded.paths, CheckOptions(samples=10, seed=0)
        )
        assert report.result("consecutive_exiting").status == "skip"
        assert report.result("temporal_overtaking").status == "skip"
        assert report.passed

    def test_every_ne_on_random_tiny_instances(self):
        rng = random.Random(23)
        done = 0
        while done < 8:
            net = random_net(rng, max_v=5, max_e=6)
            if net is None:
                continue
            from dqroute.netcore import build_extended, normalize_to_unit

            unit = normalize_to_unit(net)
            schedule = random_schedule(rng, waves=2, width=2)
            ext, c0 = build_extended(unit, schedule)
            try:
                table = build_exit_table(ext.graph, c0, guard=400)
            except TooManyProfiles:
                continue
            nes = enumerate_all_ne(ext.graph, c0, table=table)
            assert nes
            for pi in nes:
                report = check_properties(
                    ext.graph, c0, pi, CheckOptions(samples=15, seed=1), exit_table=table
                )
                assert report.passed, report.to_text()
            done += 1

    def test_preemption_closure(self):
        # when nobody outside a batch prefix can weakly preempt it alone, no
        # sampled joint completion lets anyone do so either
        from dqroute.equilibrium import _arrival_rank, _weakly_preempts

        rng = random.Random(53)
        done = 0
        while done < 8:
            net = random_net(rng, max_v=5, max_e=7)
            if net is None:
                continue
            config, agents = random_interim_config(rng, net, max_agents=4)
            result = iterative_dominating_profile(net, config)
            trace = run_paths(net, config, result.paths)
            batches = batch_decompose(trace)
            for k in range(1, len(batches.batches)):
                prefix = batches.prefix(k)
                rest = [a for a in agents if a not in prefix]
                if not rest:
                    continue
                kept = {a: result.paths[a] for a in prefix}

                def preempted(world_paths, world_config):
                    tr = run_paths(net, world_config, world_paths)
                    keys = {a: _arrival_rank(net, world_config, world_paths, a)
                            for a in world_paths}
                    for j in world_paths:
                        if j in prefix:
                            continue
                        for i in prefix:
                            for v in keys[j]:
                                if v not in keys[i]:
                                    continue
                                if _weakly_preempts(
                                    keys[j][v], keys[i][v],
                                    tr.arrival(j, v), tr.arrival(i, v),
                                ):
                                    return True
                    return False

                # pairwise precondition: each outsider alone never preempts
                pairwise_clear = True
                for j in rest:
                    e, _ = config.locate(j)
                    world_config = config.restrict(list(prefix) + [j])
                    for path in net.paths(e, "d", guard=2_000):
                        if preempted({**kept, j: path}, world_config):
                            pairwise_clear = False
                            break
                    if not pairwise_clear:
                        break
                if not pairwise_clear:
                    continue
                for _ in range(15):
                    completion = {}
                    for a in rest:
                        e, _ = config.locate(a)
                        completion[a] = rng.choice(net.paths(e, "d", guard=2_000))
                    assert not preempted({**kept, **completion},
                                         config.restrict(agents))
            done += 1

    def test_no_later_batch_dominates_earlier(self):
        rng = random.Random(41)
        done = 0
        while done < 6:
            net = random_net(rng, max_v=5, max_e=6)
            if net is None:
                continue
            config, agents = random_interim_config(rng, net, max_agents=3)
            try:
                table = build_exit_table(net, config, guard=200)
            except TooManyProfiles:
                continue
            nes = enumerate_all_ne(net, config, table=table)
            for pi in nes[:3]:
                trace = run_paths(net, config.restrict(pi), pi)
                batches = batch_decompose(trace)
                for k in range(1, len(batches.batches)):
                    earlier = batches.prefix(k)
                    later = [a for a in pi if a not in earlier]
                    for j in later:
                        for i in earlier:
                            for v in net.path_vertices(pi[i]):
                                e_j, _ = config.locate(j)
                                if v == net.edge(e_j).tail:
                                    continue
                                assert not dominates(net, config, pi, j, i, v)
            done += 1
