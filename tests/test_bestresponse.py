import math
import random

import pytest

from dqroute.bestresponse import (
    UNREACHED,
    QueueCounters,
    best_response_path,
    brute_force_best_response,
    dominates,
    dp_from_vertex,
    earliest_arrival_table,
    fixed_counters,
    queued_agent_table,
)
from dqroute.dynamics import Configuration, run_paths
from dqroute.errors import DQRouteError, TooManyPaths, VertexNotOnPath
from dqroute.equilibrium import iterative_dominating_profile
from dqroute.fixtures import FIXTURES, load_fixture
from dqroute.netcore import Agent, Network, build_extended, normalize_to_unit

from helpers import (
    ReferenceQueueCounters,
    by_ids,
    entrant_ranks,
    random_fixed_paths,
    random_interim_config,
    random_net,
    random_schedule,
    reference_dp_from_vertex,
    reference_queued_agent_table,
    replay_queue_lengths,
    step_replay,
    trajectory_table,
)

A, B = Agent("A"), Agent("B")


class TestEarliestArrivalTable:
    def test_uncongested_distances(self):
        net = Network.build(
            "o", "d", [("ov", "o", "v"), ("vw", "v", "w"), ("wd", "w", "d")]
        )
        c = Configuration.from_mapping(2, {"ov": [A]})
        table = earliest_arrival_table(net, c, {}, A)
        assert table.arrival("v") == 3
        assert table.arrival("w") == 4
        assert table.arrival("d") == 5

    def test_queue_position(self):
        net = Network.build("o", "d", [("od", "o", "d")])
        c = Configuration.from_mapping(0, {"od": [B, A]})
        table = earliest_arrival_table(net, c, {B: ("od",)}, A)
        assert table.arrival("d") == 2

    def test_agents_without_a_fixed_path_vanish(self):
        # the table is that of the world of the fixed agents and the deviator
        net = Network.build("o", "d", [("od", "o", "d")])
        c = Configuration.from_mapping(0, {"od": [Agent("C"), B, A]})
        assert earliest_arrival_table(net, c, {B: ("od",)}, A).arrival("d") == 2
        rng = random.Random(17)
        done = 0
        while done < 20:
            net = random_net(rng, max_v=6, max_e=9)
            if net is None:
                continue
            config, agents = random_interim_config(rng, net, max_agents=5)
            zeta = rng.choice(agents)
            profile = random_fixed_paths(rng, net, config, skip=(zeta,))
            fixed = {a: p for a, p in profile.items() if rng.random() < 0.5}
            world = config.restrict([*fixed, zeta])
            assert earliest_arrival_table(net, config, fixed, zeta) == \
                earliest_arrival_table(net, world, fixed, zeta)
            done += 1

    def test_fig1_player2_against_fixed_player1(self):
        loaded = load_fixture("fig1")
        p1, p2 = loaded.config.agents()
        ext = loaded.extended
        fixed = {p1: ext.entry_prefix(p1) + ("ov", "vw1", "w1d")}
        table = earliest_arrival_table(loaded.graph, loaded.config, fixed, p2)
        assert table.arrival("d") == 4  # cost 3 after reaching o at time 1
        path = best_response_path(loaded.graph, loaded.config, fixed, p2, table=table)
        g_part = tuple(e for e in path if e not in ext.chain_edges)
        assert g_part == ("ou2", "u2w2", "w2d")
        # the best response realizes the table on every vertex of the path
        world = loaded.config.restrict([p1, p2])
        trace = run_paths(loaded.graph, world, {**fixed, p2: path})
        for v in loaded.graph.path_vertices(path)[1:]:
            assert trace.arrival(p2, v) == table.arrival(v)

    def test_the_deviators_own_fixed_path_is_left_out(self):
        rng = random.Random(9)
        done = 0
        while done < 20:
            net = random_net(rng, max_v=6, max_e=9)
            if net is None:
                continue
            config, agents = random_interim_config(rng, net, max_agents=4)
            zeta = rng.choice(agents)
            profile = random_fixed_paths(rng, net, config)
            fixed = {a: p for a, p in profile.items() if a != zeta}
            assert earliest_arrival_table(net, config, profile, zeta) == \
                earliest_arrival_table(net, config, fixed, zeta)
            # fixed_counters itself indexes every agent it is given
            own = fixed_counters(net, config, {zeta: profile[zeta]})
            assert own.sizes == QueueCounters.from_trace(
                net, run_paths(net, config.restrict([zeta]), {zeta: profile[zeta]})
            ).sizes != {}
            done += 1


class TestQueueCounters:
    def test_commits_rebuild_the_simulated_index(self):
        # from_trace commits each trajectory; the index must hold the queue
        # lengths and the entrants of the rule-by-rule step replay
        rng = random.Random(4)
        done = 0
        while done < 20:
            net = random_net(rng, max_v=7, max_e=10)
            if net is None:
                continue
            config, _ = random_interim_config(rng, net, max_agents=6)
            paths = random_fixed_paths(rng, net, config)
            counters = QueueCounters.from_trace(net, run_paths(net, config, paths))
            configs = step_replay(net, config, paths)
            ranks: dict[str, dict[int, list[int]]] = {}
            for e, q in config.queues:
                ranks.setdefault(e, {})[config.time] = [-1] * len(q)
            for c, nxt in zip(configs, configs[1:]):
                where = {a: e for e, q in c.queues for a in q}
                for e, q in nxt.queues:
                    # entrants join behind the survivors, in queue order
                    new = [net.rank(where[a]) for a in q if where.get(a) != e]
                    if new:
                        ranks.setdefault(e, {})[nxt.time] = new
            assert counters.sizes == replay_queue_lengths(configs)
            assert {e: {t: sorted(r) for t, r in per_t.items()}
                    for e, per_t in entrant_ranks(counters).items()} == ranks
            done += 1

    def test_from_trace_copies_the_queue_sizes(self):
        net = Network.build("o", "d", [("od", "o", "d")])
        c = Configuration.from_mapping(0, {"od": [A]})
        trace = run_paths(net, c, {A: ("od",)})
        counters = QueueCounters.from_trace(net, trace)
        assert counters.sizes == {"od": {0: 1}}
        assert entrant_ranks(counters) == {"od": {0: [-1]}}
        counters.commit(*by_ids(net, ("od",), {"o": 0, "d": 3}), -1)
        # a commit grows this index only, not the trace or a second index
        assert trace == run_paths(net, c, {A: ("od",)})
        assert QueueCounters.from_trace(net, trace).sizes == {"od": {0: 1}}
        sizes = counters.sizes["od"]
        assert sizes[0] == 2 and sizes[2] == 1

    def test_displacing_trajectories_are_refused(self):
        net = Network.build(
            "o", "d",
            [("ov", "o", "v"), ("ou", "o", "u"), ("vw", "v", "w"), ("uw", "u", "w"),
             ("wd", "w", "d")],
            priorities={"w": ["vw", "uw"]},
        )
        counters = QueueCounters(net)
        counters.commit(*by_ids(net, ("ou", "uw", "wd"), {"o": 0, "u": 1, "w": 2, "d": 3}), -1)
        before = (counters.sizes, entrant_ranks(counters), counters.frontier)
        # entering wd at 2 over vw outranks the committed entrant over uw
        with pytest.raises(AssertionError):
            counters.commit_table(
                *trajectory_table(net, ("ov", "vw", "wd"), {"o": 0, "v": 1, "w": 2, "d": 4}), -1
            )
        # queuing on wd from 1 to 4 puts the entrant at 2 behind it
        with pytest.raises(AssertionError):
            counters.commit_table(*trajectory_table(net, ("wd",), {"w": 1, "d": 4}), -1)
        assert (counters.sizes, entrant_ranks(counters), counters.frontier) == before
        assert counters.commit_table(*trajectory_table(net, ("wd",), {"w": 3, "d": 4}), 0) == \
            [net.plan().edge_id["wd"]]
        assert entrant_ranks(counters)["wd"] == {2: [net.rank("uw")], 3: [0]}

    def test_two_departures_in_one_step_are_refused(self):
        net = Network.build("o", "d", [("ov", "o", "v"), ("vd", "v", "d"), ("od", "o", "d")])
        counters = QueueCounters(net)
        counters.commit(*by_ids(net, ("ov", "vd"), {"o": 0, "v": 2, "d": 3}), -1)
        before = (counters.sizes, entrant_ranks(counters), counters.frontier)
        # a second agent on ov leaving it at 2 too, entering at 0 or at 1
        for enter in (0, 1):
            with pytest.raises(DQRouteError):
                counters.commit(*by_ids(net, ("ov", "vd"), {"o": enter, "v": 2, "d": 4}), -1)
        # leaving vd at 3 with the indexed agent, after ov at another time
        with pytest.raises(DQRouteError):
            counters.commit(*by_ids(net, ("ov", "vd"), {"o": 0, "v": 1, "d": 3}), -1)
        assert (counters.sizes, entrant_ranks(counters), counters.frontier) == before
        # one step apart on each edge, or on another edge at the same time
        counters.commit(*by_ids(net, ("ov", "vd"), {"o": 0, "v": 3, "d": 4}), -1)
        counters.commit(*by_ids(net, ("od",), {"o": 1, "d": 3}), -1)
        assert counters.sizes == {"ov": {0: 2, 1: 2, 2: 1}, "vd": {2: 1, 3: 1}, "od": {1: 1, 2: 1}}


def random_trajectory(rng: random.Random, net: Network):
    """A path from a random edge to the destination, strictly increasing
    vertex times from a small start time, and an entry rank from -1 up."""
    path = rng.choice(net.paths(rng.choice(sorted(net.edges)), net.destination, guard=5_000))
    times = {}
    t = rng.randint(0, 4)
    for v in net.path_vertices(path):
        times[v] = t
        t += rng.randint(1, 3)
    return path, times, rng.randint(-1, 2)


def random_nets_with_counters(rng: random.Random, count: int, refusals: list | None = None):
    """(net, counters, reference counters): random nets whose two indexes are
    grown by the same random commits, one by `commit`, one by the oracle.
    `commit` must refuse exactly the trajectories that leave an edge when an
    indexed agent leaves it; the oracle skips those. Each commit's verdict
    is appended to `refusals`."""
    out = []
    while len(out) < count:
        net = random_net(rng, max_v=7, max_e=11)
        if net is None:
            continue
        counters, reference = QueueCounters(net), ReferenceQueueCounters()
        for _ in range(rng.randint(0, 10)):
            path, times, rank = random_trajectory(rng, net)
            expected = reference.breaks_unit_capacity(net, path, times)
            before = (counters.sizes, entrant_ranks(counters), counters.frontier)
            try:
                counters.commit(*by_ids(net, path, times), rank)
            except DQRouteError:
                assert expected, (path, times)
                assert (counters.sizes, entrant_ranks(counters), counters.frontier) == before
                refused = True
            else:
                assert not expected, (path, times)
                reference.commit(net, path, times, rank)
                refused = False
            if refusals is not None:
                refusals.append(refused)
        out.append((net, counters, reference))
    return out


def estar_chain(net: Network, table, vertex: str) -> tuple[str, ...]:
    """The edges e*(.) back from the vertex while the table's name view has one."""
    path: list[str] = []
    while vertex in table.estar:
        path.insert(0, table.estar[vertex])
        vertex = net.edge(path[0]).tail
    return tuple(path)


class TestCompiledPlan:
    """The plan-reading DP and occupancy index against the parent's
    accessor-reading versions."""

    def test_commits_build_the_reference_index(self):
        refusals: list[bool] = []
        for net, counters, reference in random_nets_with_counters(random.Random(11), 40, refusals):
            assert counters.sizes == reference.sizes
            assert entrant_ranks(counters) == reference.entrant_ranks
        # the random trajectories break unit capacity often: both verdicts occur
        assert set(refusals) == {True, False}

    def test_displacement_check_matches_the_reference(self):
        # the traced commit against the oracle's displacement assertion, then
        # its unit-capacity test, then its commit, on random trajectories
        # through hand-built tables and on the e* paths of DP tables, from a
        # vertex or queued on an edge
        rng = random.Random(12)
        outcomes = set()
        for net, counters, reference in random_nets_with_counters(rng, 40):
            plan = net.plan()
            for _ in range(12):
                kind = rng.randrange(3)
                if kind == 0:
                    path, times, rank = random_trajectory(rng, net)
                    table, v = trajectory_table(net, path, times)
                else:
                    if kind == 1:
                        start, rank = rng.choice(net.vertices), rng.randint(-1, 2)
                        t = rng.randint(0, 6)
                        table = dp_from_vertex(plan.vertex_id[start], t, None, rank, counters)
                    else:
                        start, rank = rng.choice(sorted(net.edges)), -1
                        t, idx = rng.randint(0, 4), rng.randint(0, 2)
                        table = queued_agent_table(start, t, idx, counters)
                    ends = sorted(table.estar)
                    if not ends:
                        continue
                    v = plan.vertex_id[rng.choice(ends)]
                    path = estar_chain(net, table, plan.vertices[v])
                    times = {w: table.tau[w] for w in net.path_vertices(path)}
                try:
                    reference.assert_displaces_none(net, path, times, rank)
                except AssertionError:
                    expected = AssertionError
                else:
                    expected = DQRouteError if reference.breaks_unit_capacity(net, path, times) \
                        else None
                before = (counters.sizes, entrant_ranks(counters), counters.frontier)
                try:
                    ids = counters.commit_table(table, v, rank)
                except (AssertionError, DQRouteError) as exc:
                    assert type(exc) is expected, (path, times, rank)
                    assert (counters.sizes, entrant_ranks(counters), counters.frontier) == before
                else:
                    assert expected is None, (path, times, rank)
                    assert ids == by_ids(net, path, times)[0]
                    reference.commit(net, path, times, rank)
                    assert counters.sizes == reference.sizes
                    assert entrant_ranks(counters) == reference.entrant_ranks
                outcomes.add(expected)
        assert outcomes == {AssertionError, DQRouteError, None}

    def test_translates_equal_their_commits_one_by_one(self):
        # a committed wave of up to three trajectories, then its translates in
        # bulk against the oracle committing them translate after translate,
        # with more and with fewer copies than an edge's span of cells
        rng = random.Random(14)
        spans = set()
        for net, counters, reference in random_nets_with_counters(rng, 40):
            wave = [random_trajectory(rng, net) for _ in range(rng.randint(1, 3))]
            for path, times, rank in wave:
                counters.pad(max(times.values()) + 1)  # as `commit` pads, unchecked
                counters._add(*by_ids(net, path, times), rank)
                reference.commit(net, path, times, rank)
            copies = rng.randint(1, 8)
            counters.add_translates([(*by_ids(net, p, ts), rank) for p, ts, rank in wave], copies)
            for k in range(1, copies + 1):
                for path, times, rank in wave:
                    reference.commit(net, path, {v: t + k for v, t in times.items()}, rank)
            assert counters.sizes == reference.sizes
            assert entrant_ranks(counters) == reference.entrant_ranks
            last = max(max(times.values()) for _, times, _ in wave)
            assert counters.frontier == max(counters.frontier, last + copies)
            spans.add(copies < last - min(min(ts.values()) for _, ts, _ in wave))
        assert spans == {True, False}

    def test_tables_match_the_reference_dp(self):
        rng = random.Random(13)
        for net, counters, reference in random_nets_with_counters(rng, 30):
            plan = net.plan()
            for v in net.vertices:
                starts = [(None, r) for r in range(-1, 3)]
                starts += [(e, net.rank(e)) for e in net.in_edges(v)]
                for start_edge, start_rank in starts:
                    t = rng.randint(0, 6)
                    table = dp_from_vertex(
                        plan.vertex_id[v], t,
                        None if start_edge is None else plan.edge_id[start_edge], start_rank,
                        counters,
                    )
                    expected = reference_dp_from_vertex(
                        net, A, v, t, start_edge, start_rank, reference
                    )
                    assert (table.tau, table.estar) == (expected.tau, expected.estar)
                    # the padding bound: no time past max(frontier, start) + |V| - 1
                    reached = [s for s in table.time_at if s != UNREACHED]
                    assert max(reached) < max(counters.frontier, t) + len(plan.vertices)
                    for w in table.tau:
                        path, at = [], w
                        while at != v:
                            path.insert(0, table.estar[at])
                            at = net.edge(table.estar[at]).tail
                        assert table.path_to(w) == tuple(path)


def assert_solver_index_matches_reference(graph, config):
    """Replay a solve's commits on the list-backed index and on the dict
    oracle: before each commit every unassigned agent's table, and after it
    both indexes, must read alike through the name-keyed views."""
    result = iterative_dominating_profile(graph, config)
    counters, reference = QueueCounters(graph, config.time), ReferenceQueueCounters()
    r = config.time
    for i, (agent, chosen) in enumerate(zip(result.order, result.tables)):
        assigned, path, tau = result.order[:i], result.paths[agent], chosen.tau
        for e, q in config.queues:
            ahead = 0
            for a in q:
                if a in assigned:
                    ahead += 1
                    continue
                table = queued_agent_table(e, r, ahead, counters)
                expected = reference_queued_agent_table(graph, a, e, r, ahead, reference)
                assert (table.tau, table.estar) == (expected.tau, expected.estar)
                if a == agent:
                    assert tau == expected.tau
        d = graph.plan().vertex_id[graph.destination]
        assert counters.commit_table(chosen, d, -1) == by_ids(graph, path, {})[0]
        reference.assert_displaces_none(graph, path, tau, -1)
        reference.commit(graph, path, tau, -1)
        assert counters.sizes == reference.sizes
        assert entrant_ranks(counters) == reference.entrant_ranks
    return result


class TestIndexThroughTheSolver:
    """The list-backed index and DP against the dict oracles on the states a
    solve goes through."""

    def test_interim_configurations(self):
        rng = random.Random(41)
        done = 0
        while done < 25:
            net = random_net(rng, max_v=7, max_e=10)
            if net is None:
                continue
            config, _ = random_interim_config(rng, net, max_agents=7)
            assert_solver_index_matches_reference(net, config)
            # the index counts from the configuration's time, whatever it is
            for time in (-3, 10**9):
                moved = Configuration(time, config.queues)
                shifted = assert_solver_index_matches_reference(net, moved)
                assert shifted.paths == iterative_dominating_profile(net, config).paths
            done += 1

    def test_schedule_configurations(self):
        rng = random.Random(42)
        done = 0
        while done < 15:
            net = random_net(rng, max_v=6, max_e=9)
            if net is None:
                continue
            ext, c0 = build_extended(normalize_to_unit(net), random_schedule(rng, waves=3, width=3))
            assert_solver_index_matches_reference(ext.graph, c0)
            done += 1

    def test_every_fixture(self):
        for name in FIXTURES:
            loaded = load_fixture(name)
            assert_solver_index_matches_reference(loaded.graph, loaded.config)

    def test_simulated_indexes(self):
        rng = random.Random(43)
        done = 0
        while done < 25:
            net = random_net(rng, max_v=7, max_e=10)
            if net is None:
                continue
            config, _ = random_interim_config(rng, net, max_agents=6)
            trace = run_paths(net, config, random_fixed_paths(rng, net, config))
            counters = QueueCounters.from_trace(net, trace)
            reference = ReferenceQueueCounters.from_trace(net, trace)
            assert counters.sizes == reference.sizes
            assert entrant_ranks(counters) == reference.entrant_ranks
            for e, q in config.queues:
                for idx, a in enumerate(q):
                    table = queued_agent_table(e, config.time, idx + 1, counters)
                    expected = reference_queued_agent_table(
                        net, a, e, config.time, idx + 1, reference
                    )
                    assert (table.tau, table.estar) == (expected.tau, expected.estar)
            done += 1


class TestPadding:
    def test_times_before_the_start_are_refused(self):
        net = Network.build("o", "d", [("od", "o", "d")])
        o = net.plan().vertex_id["o"]
        for start in (0, 5, -3):
            counters = QueueCounters(net, start)
            # commits take index times, counted from the start
            with pytest.raises(DQRouteError):
                counters.commit(*by_ids(net, ("od",), {"o": -1, "d": 1}), -1)
            with pytest.raises(DQRouteError):
                dp_from_vertex(o, start - 1, None, 0, counters)
            assert counters.committed == [] and counters.frontier == 0
            counters.commit(*by_ids(net, ("od",), {"o": 0, "d": 2}), -1)
            assert counters.sizes == {"od": {start: 1, start + 1: 1}}
            assert dp_from_vertex(o, start, None, 0, counters).tau == {
                "o": start, "d": start + 2
            }

    def test_tables_stay_inside_the_padding_behind_a_queue_up_to_the_frontier(self):
        # on a path of n vertices, q agents queue on the first edge from 0 and
        # leave it at 1..q, the frontier; a DP from the origin at t0 waits
        # behind them when t0 < q and then takes one step per hop, reaching
        # the destination at max(frontier, t0) + n - 1: the last padded cell
        n, q = 10, 3
        vs = ["o"] + [f"v{i}" for i in range(1, n - 1)] + ["d"]
        net = Network.build("o", "d", [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)])
        plan = net.plan()
        o, d = plan.vertex_id["o"], plan.vertex_id["d"]
        for t0 in range(q + 3):
            counters = QueueCounters(net)
            for i in range(1, q + 1):
                counters.commit(*by_ids(net, ("e0",), {"o": 0, "v1": i}), -1)
            assert counters.frontier == q and counters.committed == [plan.edge_id["e0"]]
            # the edges nothing commits to share one list, as long as the others
            assert len({id(cells) for cells in counters.lengths}) == 2
            table = dp_from_vertex(o, t0, None, 0, counters)
            assert table.time_at[d] == max(q, t0) + n - 1
            assert all(len(cells) == counters.length
                       for cells in counters.lengths + counters.entered)
            assert max(table.tau.values()) < counters.length
            reference = ReferenceQueueCounters()
            for i in range(1, q + 1):
                reference.commit(net, ("e0",), {"o": 0, "v1": i}, -1)
            assert table.tau == reference_dp_from_vertex(net, A, "o", t0, None, 0, reference).tau


class TestBruteForce:
    def test_single_path(self):
        net = Network.build("o", "d", [("ov", "o", "v"), ("vd", "v", "d")])
        c = Configuration.from_mapping(0, {"ov": [A]})
        best, witnesses = brute_force_best_response(net, c, {}, A)
        assert best == 2 and witnesses == (("ov", "vd"),)

    def test_symmetric_paths_all_returned(self):
        net = Network.build(
            "o", "d",
            [("ov", "o", "v"), ("a", "v", "d"), ("b", "v", "d")],
        )
        c = Configuration.from_mapping(0, {"ov": [A]})
        best, witnesses = brute_force_best_response(net, c, {}, A)
        assert best == 2 and len(witnesses) == 2

    def test_guard(self):
        edges = [("s0", "o", "x0")]
        for i in range(8):  # 2^8 paths
            edges.append((f"a{i}", f"x{i}", f"x{i+1}"))
            edges.append((f"b{i}", f"x{i}", f"x{i+1}"))
        edges.append(("t", "x8", "d"))
        net = Network.build("o", "d", edges)
        c = Configuration.from_mapping(0, {"s0": [A]})
        with pytest.raises(TooManyPaths):
            brute_force_best_response(net, c, {}, A, guard=10)


class TestOracleEquivalence:
    def test_dp_matches_brute_force(self):
        rng = random.Random(7)
        done = 0
        while done < 40:
            net = random_net(rng)
            if net is None:
                continue
            config, agents = random_interim_config(rng, net)
            zeta = rng.choice(agents)
            fixed = random_fixed_paths(rng, net, config, skip=(zeta,))
            table = earliest_arrival_table(net, config, fixed, zeta)
            best, witnesses = brute_force_best_response(net, config, fixed, zeta)
            assert table.arrival(net.destination) == best
            assert best_response_path(net, config, fixed, zeta, table=table) in witnesses
            done += 1

    def test_per_vertex_recursion_against_enumeration(self):
        rng = random.Random(13)
        done = 0
        while done < 25:
            net = random_net(rng, max_v=6, max_e=9)
            if net is None:
                continue
            config, agents = random_interim_config(rng, net, max_agents=4)
            zeta = rng.choice(agents)
            fixed = random_fixed_paths(rng, net, config, skip=(zeta,))
            table = earliest_arrival_table(net, config, fixed, zeta)
            e0, _ = config.locate(zeta)
            world = config.restrict(list(fixed) + [zeta])
            best_at: dict[str, float] = {}
            for path in net.paths(e0, net.destination, guard=5_000):
                trace = run_paths(net, world, {**fixed, zeta: path})
                for v, t in trace.vertex_times[zeta].items():
                    if t < best_at.get(v, math.inf):
                        best_at[v] = t
            start_tail = net.edge(e0).tail
            for v, t in best_at.items():
                if v == start_tail:
                    continue
                assert table.arrival(v) == t, (v, table.arrival(v), t)
            done += 1


class TestDominates:
    def test_strictly_closer_on_uncongested_route(self):
        net = Network.build(
            "o", "d",
            [("oa", "o", "a"), ("ab", "a", "b"), ("bd", "b", "d")],
        )
        z, j = Agent("z"), Agent("j")
        c = Configuration.from_mapping(0, {"ab": [z], "oa": [j]})
        alpha = {z: ("ab", "bd"), j: ("oa", "ab", "bd")}
        assert dominates(net, c, alpha, z, j, "b")

    def test_unreachable_vertex_is_not_dominated(self):
        net = Network.build(
            "o", "d",
            [("ov", "o", "v"), ("ou", "o", "u"), ("vd", "v", "d"), ("ud", "u", "d")],
        )
        z, j = Agent("z"), Agent("j")
        c = Configuration.from_mapping(0, {"vd": [z], "ou": [j]})
        alpha = {z: ("vd",), j: ("ou", "ud")}
        assert not dominates(net, c, alpha, z, j, "u")

    def test_vertex_not_on_rival_path(self):
        net = Network.build("o", "d", [("ov", "o", "v"), ("vd", "v", "d"), ("od", "o", "d")])
        z, j = Agent("z"), Agent("j")
        c = Configuration.from_mapping(0, {"od": [z, j]})
        with pytest.raises(VertexNotOnPath):
            dominates(net, c, {z: ("od",), j: ("od",)}, z, j, "v")

    def test_fig2_edge_priority_domination_contrast(self):
        loaded = load_fixture("fig2")
        agents = {a.name: a for a in loaded.config.agents()}
        k, j, i = agents["k"], agents["j"], agents["i"]
        base = {
            agents["g1"]: ("v2_y2", "y2_d"),
            agents["g2"]: ("v2_y2", "y2_d"),
            agents["g3"]: ("v2_y2", "y2_d"),
            agents["h1"]: ("v1_y1", "y1_d"),
            agents["h2"]: ("v1_y1", "y1_d"),
            agents["h3"]: ("v1_y1", "y1_d"),
            i: ("oi_u", "u_u2", "u2_v2", "v2_y2", "y2_d"),
            k: ("ok_v", "v_v1", "v1_y1", "y1_d"),
        }
        # j on the x1 route: both j and k hit y1 at time 4, but k's entry edge
        # v1_y1 outranks x1_y1, so k dominates j there
        alpha = {**base, j: ("oj_w", "w_w1", "w1_x1", "x1_y1", "y1_d")}
        assert dominates(loaded.graph, loaded.config, alpha, k, j, "y1")
        # on the x2 route the tie goes the other way: x2_y2 outranks v2_y2
        alpha2 = {**base, j: ("oj_w", "w_w2", "w2_x2", "x2_y2", "y2_d")}
        assert not dominates(loaded.graph, loaded.config, alpha2, k, j, "y2")

    def test_domination_persists_to_the_destination(self):
        rng = random.Random(21)
        done = 0
        while done < 15:
            net = random_net(rng, max_v=6, max_e=8)
            if net is None:
                continue
            config, agents = random_interim_config(rng, net, max_agents=4)
            if len(agents) < 2:
                continue
            alpha = random_fixed_paths(rng, net, config)
            zeta, j = rng.sample(agents, 2)
            vertices = net.path_vertices(alpha[j])
            doms = [v for v in vertices if dominates(net, config, alpha, zeta, j, v)]
            if not doms:
                continue
            first = vertices.index(doms[0])
            for v in vertices[first:]:
                assert dominates(net, config, alpha, zeta, j, v), (v, doms)
            done += 1

    def test_influence_implies_domination(self):
        rng = random.Random(29)
        done = 0
        while done < 15:
            net = random_net(rng, max_v=5, max_e=7)
            if net is None:
                continue
            config, agents = random_interim_config(rng, net, max_agents=3)
            if len(agents) < 2:
                continue
            alpha = random_fixed_paths(rng, net, config)
            zeta, j = rng.sample(agents, 2)
            e0, _ = config.locate(zeta)
            world = config.restrict(agents)
            base = run_paths(net, world, alpha)
            others = {a: p for a, p in alpha.items() if a != zeta}
            influenced = set()
            for path in net.paths(e0, net.destination, guard=2_000):
                trace = run_paths(net, world, {**others, zeta: path})
                for v in net.path_vertices(alpha[j]):
                    if trace.arrival(j, v) != base.arrival(j, v):
                        influenced.add(v)
            for v in influenced:
                assert dominates(net, config, alpha, zeta, j, v), v
            done += 1
