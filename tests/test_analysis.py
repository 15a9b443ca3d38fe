import random

import pytest

import dqroute.analysis
from dqroute.analysis import (
    OccupancyTrace,
    RouterResult,
    _column_sums,
    _check_full_cut_drain,
    _check_simultaneous_arrivals,
    degree_ratio_monitor,
    occupancy_trace,
    queue_bound_experiment,
    route_entry_order,
    spe_bound_experiment,
)
from dqroute.bestresponse import QueueCounters
from dqroute.cli import _extended_schedule
from dqroute.dynamics import run_paths
from dqroute.equilibrium import iterative_dominating_profile
from dqroute.fixtures import FIXTURES, load_fixture
from dqroute.errors import DegreeConditionViolated, InflowExceedsCut, NotSeriesParallel
from dqroute.netcore import (
    Agent,
    GraphStats,
    InflowSchedule,
    Network,
    build_extended,
    leftmost_min_cut,
    normalize_to_unit,
    sp_decompose,
    validate_and_stats,
)
from dqroute.spe import induced_paths, root_history, sigma_star

from helpers import (
    by_ids,
    entrant_ranks,
    random_net,
    random_schedule,
    random_sp_net,
    reference_arrival_counts,
    reference_check_full_cut_drain,
    reference_check_simultaneous_arrivals,
    reference_degree_ratio_monitor,
    reference_column_sums,
    reference_conservation_holds,
    reference_occupancy_trace,
    reference_queue_bound_experiment,
    reference_route_entry_order,
    replay_queue_lengths,
    step_replay,
)


def unit(net):
    return normalize_to_unit(net)


def constant_schedule(width: int, horizon: int) -> InflowSchedule:
    return InflowSchedule.build(
        [(t, [f"x{t}.{i}" for i in range(width)]) for t in range(1, horizon + 1)]
    )


def path_net(length: int):
    vs = ["o"] + [f"v{i}" for i in range(1, length)] + ["d"]
    return Network.build(
        "o", "d", [(f"e{i}", vs[i], vs[i + 1]) for i in range(len(vs) - 1)]
    )


def diamond_net():
    return Network.build(
        "o", "d",
        [("e1", "o", "u"), ("e2", "u", "d"), ("e3", "o", "w"), ("e4", "w", "d")],
    )


class TestRouterEquivalence:
    def test_matches_full_solver_and_markov_oracle(self):
        rng = random.Random(42)
        done = 0
        while done < 12:
            net = random_net(rng, max_v=6, max_e=8)
            if net is None:
                continue
            u = unit(net)
            schedule = random_schedule(rng, waves=3, width=3)
            fast = route_entry_order(u, schedule)
            ext, c0 = build_extended(u, schedule)
            solve = iterative_dominating_profile(ext.graph, c0)
            assert [a.name for a in solve.order] == [a.name for a in schedule.agents()]
            for agent in solve.order:
                g_part = tuple(e for e in solve.paths[agent] if e not in ext.chain_edges)
                assert g_part == fast.paths[agent]
            trace = run_paths(ext.graph, c0, solve.paths)
            for agent in solve.order:
                assert trace.exit_times[agent] == fast.exit_times[agent]
            oracle = sigma_star(ext.graph)
            ipaths, _ = induced_paths(ext.graph, root_history(c0), oracle)
            assert ipaths == solve.paths
            done += 1

    def test_occupancy_matches_trace_queue_lengths(self):
        rng = random.Random(8)
        done = 0
        while done < 8:
            net = random_net(rng, max_v=6, max_e=8)
            if net is None:
                continue
            u = unit(net)
            schedule = random_schedule(rng, waves=3, width=2)
            fast = route_entry_order(u, schedule)
            occ = occupancy_trace(fast)
            ext, c0 = build_extended(u, schedule)
            solve = iterative_dominating_profile(ext.graph, c0)
            lengths = replay_queue_lengths(step_replay(ext.graph, c0, solve.paths))
            for e in u.edges:
                for t in range(occ.horizon + 1):
                    assert occ.per_edge.get(e, [0] * (occ.horizon + 1))[t] == \
                        lengths.get(e, {}).get(t, 0)
            assert occ.conservation_holds()
            done += 1


def assert_route_matches_reference(u, schedule):
    """The id-numbered router and its index against the dict-backed oracle."""
    result = route_entry_order(u, schedule)
    expected = reference_route_entry_order(u, schedule)
    assert list(result.paths.items()) == list(expected.paths.items())
    assert result.exit_times == expected.exit_times
    assert result.timelines.sizes == expected.timelines.sizes
    assert entrant_ranks(result.timelines) == expected.timelines.entrant_ranks
    assert occupancy_trace(result) == reference_occupancy_trace(u, expected)
    assert_arrival_check_matches_the_counter(u, result, expected)


def arrival_check(net, result, bound):
    """`_check_simultaneous_arrivals` as `_experiment_report` calls it, on the
    exit ledger of the run's occupancy trace."""
    exiters = occupancy_trace(result).exiters
    return _check_simultaneous_arrivals(net, result.timelines, exiters, bound)


def assert_arrival_check_matches_the_counter(u, result, expected):
    """The index-read simultaneous-arrival check against the Counter of the
    oracle's arrivals, at the maximum in-degree and at and below the busiest
    vertex's count, so failing verdicts are compared too. Returns the verdicts."""
    counter = reference_arrival_counts(expected.arrivals)
    busiest = max(n for (v, _), n in counter.items() if v != u.origin)
    verdicts = set()
    for bound in {validate_and_stats(u).max_in_degree, busiest, busiest - 1}:
        check = arrival_check(u, result, bound)
        assert check == reference_check_simultaneous_arrivals(counter, bound, u.origin)
        verdicts.add(check[1])
    return verdicts


class TestRouterReference:
    def test_random_sp_nets_at_long_horizons(self):
        rng = random.Random(31)
        for _ in range(3):
            u = unit(random_sp_net(rng, rng.randint(4, 10)))
            cut, _, _ = leftmost_min_cut(u)
            width = rng.randint(1, len(cut))
            assert_route_matches_reference(u, constant_schedule(width, rng.randint(1500, 1600)))

    def test_random_nets_and_schedules(self):
        rng = random.Random(32)
        done = 0
        while done < 30:
            net = random_net(rng, max_v=7, max_e=10)
            if net is None:
                continue
            assert_route_matches_reference(unit(net), random_schedule(rng, waves=4, width=3))
            done += 1

    def test_every_fixture_schedule(self):
        routed = 0
        for name in FIXTURES:
            loaded = load_fixture(name)
            if loaded.schedule is not None:
                # as `dqroute queue-bound` extends it to the fixture's horizon
                assert_route_matches_reference(loaded.unit, _extended_schedule(loaded, None))
                routed += 1
        assert routed == 4


    def test_one_dp_per_routed_agent(self, monkeypatch):
        # widths that alternate never repeat, so no wave is routed by translation
        calls = record_dp_starts(monkeypatch)
        schedule = InflowSchedule.build(
            [(t, [f"x{t}.{i}" for i in range(1 + t % 2)]) for t in range(1, 301)]
        )
        result = route_entry_order(unit(diamond_net()), schedule)
        assert len(calls) == len(schedule.agents()) == len(result.paths) == 450
        # agents on the same edges share one tuple of names
        assert len({id(p) for p in result.paths.values()}) == len(set(result.paths.values()))

    def test_a_settled_run_is_translated_with_no_dp(self, monkeypatch):
        calls = record_dp_starts(monkeypatch)
        runs = record_translates(monkeypatch)
        schedule = constant_schedule(2, 300)
        result = route_entry_order(unit(diamond_net()), schedule)
        # one run, from the first translated wave to the last wave; a DP for
        # each agent before it and none after
        (reference, copies), = runs
        first = 301 - copies
        assert first == reference + 1
        assert calls == [(t, rank) for t in range(1, first) for rank in (0, 1)]
        assert len(calls) <= 10 < 600 == len(result.paths)
        assert len({id(p) for p in result.paths.values()}) == len(set(result.paths.values()))
        assert_route_matches_reference(unit(diamond_net()), schedule)

    def test_random_sp_schedules_that_settle_break_and_settle_again(self, monkeypatch):
        runs = record_translates(monkeypatch)
        rng = random.Random(33)
        resumed = 0
        for _ in range(30):
            u = unit(random_sp_net(rng, rng.randint(3, 8)))
            cut, _, _ = leftmost_min_cut(u)
            widths: list[int] = []
            for _ in range(rng.randint(2, 4)):
                widths += [rng.randint(1, len(cut))] * rng.randint(12, 40)  # a run that settles
                # then a gap, or one to three narrower or wider waves
                widths += [rng.choice([0, rng.randint(1, len(cut) + 1)])] * rng.randint(1, 3)
            schedule = InflowSchedule.build(
                [(t, [f"x{t}.{i}" for i in range(w)]) for t, w in enumerate(widths, 1) if w]
            )
            before = len(runs)
            assert_route_matches_reference(u, schedule)
            resumed += len(runs) - before > 1
        # the router stopped and resumed translating on most nets
        assert resumed >= 20


def record_dp_starts(monkeypatch) -> list[tuple[int, int]]:
    """The (start time, start rank) of every DP the router runs, as it runs them."""
    calls = []
    original = dqroute.analysis.dp_from_vertex

    def recording(start_vertex, start_time, start_edge, start_rank, counters):
        calls.append((start_time, start_rank))
        return original(start_vertex, start_time, start_edge, start_rank, counters)

    monkeypatch.setattr(dqroute.analysis, "dp_from_vertex", recording)
    return calls


def record_translates(monkeypatch) -> list[tuple[int, int]]:
    """(entry time of the reference wave, copies) of every bulk translation the
    router adds: the run is the waves at reference + 1 .. reference + copies."""
    runs = []
    original = QueueCounters.add_translates

    def recording(self, trajectories, copies):
        path, times, _ = trajectories[0]
        runs.append((times[self.plan.arcs[path[0]][0]], copies))
        return original(self, trajectories, copies)

    monkeypatch.setattr(QueueCounters, "add_translates", recording)
    return runs


class TestQueueBound:
    def test_single_path_at_capacity(self):
        net = path_net(3)
        report, trace, verdicts = queue_bound_experiment(
            unit(net), constant_schedule(1, 1000)
        )
        stats = validate_and_stats(net)
        assert report.max_occupancy == stats.longest_path
        assert report.max_latency == stats.longest_path
        assert report.bounded and report.passed

    def test_diamond_at_full_cut_inflow(self):
        report, trace, verdicts = queue_bound_experiment(
            unit(diamond_net()), constant_schedule(2, 1000)
        )
        assert report.bounded and report.passed
        assert all(v.ok for v in verdicts)

    def test_empty_inflow_is_trivially_bounded(self):
        report, trace, verdicts = queue_bound_experiment(
            unit(diamond_net()), InflowSchedule(waves=())
        )
        assert report.bounded and report.max_occupancy == 0

    def test_non_sp_network_rejected(self):
        wheatstone = Network.build(
            "o", "d",
            [("e1", "o", "u"), ("e2", "o", "w"), ("e3", "u", "w"),
             ("e4", "u", "d"), ("e5", "w", "d")],
        )
        with pytest.raises(NotSeriesParallel):
            queue_bound_experiment(unit(wheatstone), constant_schedule(1, 10))

    def test_inflow_exceeding_cut_rejected(self):
        with pytest.raises(InflowExceedsCut):
            queue_bound_experiment(unit(path_net(2)), constant_schedule(2, 10))

    def test_ratio_monitor_bounds(self):
        net = diamond_net()
        u = unit(net)
        decomp = sp_decompose(u)
        stats = validate_and_stats(u)
        # one-sided inflow within cut capacity: single agent per step
        result = route_entry_order(u, constant_schedule(1, 300))
        occ = occupancy_trace(result)
        verdicts = degree_ratio_monitor(occ, decomp, stats)
        assert all(v.ok for v in verdicts)
        # substitution check: when one side is empty the other obeys n <= 4m^3
        m = stats.m
        for node in decomp.parallel_nodes():
            left, right = node.left.edge_set(), node.right.edge_set()
            for t in range(occ.horizon + 1):
                n1, n2 = occ.occupancy(left, t), occ.occupancy(right, t)
                if n2 == 0:
                    assert n1 <= 4 * m ** 3


def run_end_kind(schedule: InflowSchedule, reference: int, copies: int) -> str:
    """How a translated run ends: at the schedule's end, at a wave of another
    width right after it, or at a gap."""
    later = [r for r, _ in schedule.waves if r > reference + copies]
    return "end" if not later else "width" if later[0] == reference + copies + 1 else "gap"


class TestExperimentReference:
    """The whole experiment against the per-wave, per-agent and per-step oracle."""

    def test_random_sp_schedules_match_the_reference(self, monkeypatch):
        runs = record_translates(monkeypatch)
        rng = random.Random(34)
        ends, bounded = set(), set()
        for _ in range(16):
            u = unit(random_sp_net(rng, rng.randint(3, 8)))
            cut, _, _ = leftmost_min_cut(u)
            widths: list[int] = []
            for _ in range(rng.randint(1, 3)):
                widths += [rng.randint(1, len(cut))] * rng.randint(12, 30)  # a run that settles
                # then a gap, or one to three waves of a random width within the cut
                widths += [rng.choice([0, rng.randint(1, len(cut))])] * rng.randint(1, 3)
            # a run to the end, at times long enough for the queues to count as bounded
            widths += [rng.randint(1, len(cut))] * rng.choice([rng.randint(12, 30), 450])
            schedule = InflowSchedule.build(
                [(t, [f"x{t}.{i}" for i in range(w)]) for t, w in enumerate(widths, 1) if w]
            )
            before = len(runs)
            report, trace, ratio = queue_bound_experiment(u, schedule)
            expected = reference_queue_bound_experiment(u, schedule)
            assert (report, trace, ratio) == expected
            assert report.to_text() == expected[0].to_text()
            ends.update(run_end_kind(schedule, *run) for run in runs[before:])
            bounded.add(report.bounded)
            # a jolted copy breaks conservation; the column sums of any edges agree
            jolted = OccupancyTrace(trace.horizon, trace.per_edge, list(trace.total),
                                    trace.entrants, trace.exiters)
            jolted.total[rng.randint(1, trace.horizon)] += rng.randint(1, 5)
            assert not jolted.conservation_holds() and not reference_conservation_holds(jolted)
            assert trace.conservation_holds() and reference_conservation_holds(trace)
            edges = rng.sample(sorted(u.edges), rng.randint(0, len(u.edges)))
            assert trace.series(edges) == reference_column_sums(
                [trace.per_edge[e] for e in edges if e in trace.per_edge], trace.horizon)
        assert ends == {"gap", "width", "end"} and bounded == {True, False}
        assert len(runs) >= 30

    def test_column_sums_stop_at_the_shortest_series(self):
        rng = random.Random(35)
        for _ in range(50):
            series = [[rng.randint(0, 9) for _ in range(rng.randint(0, 6))]
                      for _ in range(rng.randint(0, 4))]
            assert _column_sums(series, 3) == reference_column_sums(series, 3)
            if series:  # one series is summed into a copy, not returned itself
                assert _column_sums(series[:1], 3) is not series[0]


def left_side_edges(net, left):
    return frozenset(e for e, edge in net.edges.items() if edge.tail in left)


def within_extrema(trace, node, stats) -> bool:
    """Whether each side's maximum is within the ratio bound of the other
    side's minimum, which passes every step."""
    m = stats.m
    left, right = trace.series(node.left.edge_set()), trace.series(node.right.edge_set())
    bound = lambda n: 2 * m * m * (2 * m + n)
    return max(left) <= bound(min(right)) and max(right) <= bound(min(left))


class TestBoundMonitors:
    """The series-reading monitors against the parent's per-time versions."""

    def test_random_sp_schedules_match_the_reference(self):
        rng = random.Random(21)
        verdicts_seen, drains_seen, decided = set(), set(), set()
        for _ in range(25):
            u = unit(random_sp_net(rng, rng.randint(2, 7)))
            decomp = sp_decompose(u)
            stats = validate_and_stats(u)
            cut, left, _ = leftmost_min_cut(u)
            schedule = constant_schedule(rng.randint(1, len(cut)), rng.randint(5, 40))
            occ = occupancy_trace(route_entry_order(u, schedule))
            # a jolted copy and a tight bound make the monitors fail too
            jolted = OccupancyTrace(
                occ.horizon, {e: list(s) for e, s in occ.per_edge.items()}, occ.total,
                occ.entrants, occ.exiters,
            )
            for series in jolted.per_edge.values():
                series[rng.randrange(len(series))] += rng.randint(1, 30)
            tight = GraphStats(m=1, longest_path=stats.longest_path,
                               max_in_degree=stats.max_in_degree)
            for trace in (occ, jolted):
                for st in (stats, tight):
                    got = degree_ratio_monitor(trace, decomp, st)
                    assert got == reference_degree_ratio_monitor(trace, decomp, st)
                    verdicts_seen.update(v.ok for v in got)
                    decided.update((within_extrema(trace, node, st), v.ok)
                                   for node, v in zip(decomp.parallel_nodes(), got))
                drain = _check_full_cut_drain(trace, cut, left_side_edges(u, left))
                assert drain == reference_check_full_cut_drain(
                    u, trace, cut, left_side_edges(u, left)
                )
                drains_seen.add(drain[1])
        assert verdicts_seen == {True, False} and drains_seen == {True, False}
        # nodes passed on their extrema alone, and nodes the steps decided both ways
        assert decided == {(True, True), (False, True), (False, False)}

    def test_hand_built_ratio_failure(self):
        u = unit(diamond_net())
        decomp = sp_decompose(u)
        stats = validate_and_stats(u)  # m = 4: n_i <= 32 (8 + n_j)
        # the left side overflows at the last time step
        per_edge = {"e1": [0, 1, 300], "e2": [0, 0, 1], "e3": [0, 5, 0]}
        trace = OccupancyTrace(2, per_edge, [0, 6, 301], [0] * 3, [0] * 3)
        verdicts = degree_ratio_monitor(trace, decomp, stats)
        assert [(v.ok, v.worst_time, v.worst_pair) for v in verdicts] == [(False, 2, (301, 0))]
        assert verdicts == reference_degree_ratio_monitor(trace, decomp, stats)

    def test_extrema_over_the_bound_with_no_failing_step_pass(self):
        u = unit(diamond_net())
        decomp = sp_decompose(u)
        stats = validate_and_stats(u)  # m = 4: n_i <= 32 (8 + n_j)
        # the left side's 300 exceeds 32 (8 + 0), the right side's least, but at
        # t=1 the right side holds 2 and 300 <= 32 (8 + 2): every step passes
        trace = OccupancyTrace(1, {"e1": [0, 300], "e3": [0, 2]}, [0, 302], [0] * 2, [0] * 2)
        (node,) = decomp.parallel_nodes()
        left, right = trace.series(node.left.edge_set()), trace.series(node.right.edge_set())
        assert sorted([left, right]) == [[0, 2], [0, 300]]
        verdicts = degree_ratio_monitor(trace, decomp, stats)
        assert [(v.ok, v.worst_time, v.worst_pair) for v in verdicts] == [(True, None, None)]
        assert verdicts == reference_degree_ratio_monitor(trace, decomp, stats)

    def test_hand_built_drain_failure(self):
        u = unit(path_net(2))
        cut, left, _ = leftmost_min_cut(u)
        assert cut == {"e0"}
        # e0 is full at 0 and nobody enters, yet the left side keeps its agent
        trace = OccupancyTrace(2, {"e0": [1, 1, 0], "e1": [0, 0, 1]}, [1, 1, 1],
                               [0, 0, 0], [0, 0, 0])
        drain = _check_full_cut_drain(trace, cut, left_side_edges(u, left))
        assert drain == ("full_cut_drain", False,
                         "t=0: left occupancy 1->1 with inflow 0, cut 1")
        assert drain == reference_check_full_cut_drain(u, trace, cut, left_side_edges(u, left))


class TestSpeBound:
    def test_path_network_latency_is_length(self):
        report, _ = spe_bound_experiment(unit(path_net(4)), constant_schedule(1, 600))
        assert report.max_latency == 4
        assert report.bounded and report.passed

    def test_branching_merge_with_degree_condition(self):
        net = Network.build(
            "o", "d",
            [("oa1", "o", "a"), ("oa2", "o", "a"),
             ("ad1", "a", "d"), ("ad2", "a", "d"),
             ("ob", "o", "b"), ("bd", "b", "d")],
            priorities={"a": ["oa1", "oa2"], "d": ["ad1", "ad2", "bd"]},
        )
        report, _ = spe_bound_experiment(unit(net), constant_schedule(3, 600))
        assert report.bounded and report.passed

    def test_degree_condition_violation(self):
        net = Network.build(
            "o", "d",
            [("oa", "o", "a"), ("ob", "o", "b"), ("av", "a", "v"), ("bv", "b", "v"),
             ("vd", "v", "d")],
            priorities={"v": ["av", "bv"]},
        )
        with pytest.raises(DegreeConditionViolated):
            spe_bound_experiment(unit(net), constant_schedule(1, 10))

    def test_inflow_above_min_cut_rejected(self):
        with pytest.raises(InflowExceedsCut):
            spe_bound_experiment(unit(path_net(2)), constant_schedule(3, 10))


class TestObservationBound:
    def test_simultaneous_arrivals_never_exceed_max_in_degree(self):
        rng = random.Random(77)
        done = 0
        while done < 10:
            net = random_net(rng, max_v=6, max_e=9)
            if net is None:
                continue
            u = unit(net)
            stats = validate_and_stats(u)
            schedule = random_schedule(rng, waves=3, width=min(3, stats.max_in_degree + 1))
            result = route_entry_order(u, schedule)
            arrivals = reference_route_entry_order(u, schedule).arrivals
            for (v, t), n in reference_arrival_counts(arrivals).items():
                if v == u.origin:
                    continue
                assert n <= stats.max_in_degree
            check = arrival_check(u, result, stats.max_in_degree)
            assert check == ("simultaneous_arrivals_within_max_in_degree", True, "")
            done += 1

    def test_counts_match_the_counter_oracle_and_violations_are_reported(self):
        rng = random.Random(78)
        seen = set()
        for _ in range(20):
            u = unit(random_sp_net(rng, rng.randint(2, 7)))
            cut, _, _ = leftmost_min_cut(u)
            schedule = constant_schedule(rng.randint(1, len(cut)), 30)
            result = route_entry_order(u, schedule)
            seen |= assert_arrival_check_matches_the_counter(
                u, result, reference_route_entry_order(u, schedule)
            )
        assert seen == {True, False}

    def test_large_cells_at_distinct_times_are_summed_time_by_time(self):
        # u's three out-edges get one entrant each, at 2, 3 and 4: their
        # largest cells sum to 3, over the bounds 2 and 0, so u's cells are
        # summed time by time, and no time has more than one arrival
        net = Network.build("o", "d", [(f"{h}{i}", *ends) for h, ends in
                                       (("a", ("o", "u")), ("c", ("u", "d"))) for i in (1, 2, 3)])
        timelines = QueueCounters(net)
        arrivals = {}
        for i in (1, 2, 3):
            times = {"o": 0, "u": 1 + i, "d": 5 + i}
            timelines.commit(*by_ids(net, (f"a{i}", f"c{i}"), times), -1)
            arrivals[Agent(f"x{i}", times["o"])] = times
        result = RouterResult({a: (f"a{i}", f"c{i}") for i, a in enumerate(arrivals, 1)},
                              {a: t["d"] for a, t in arrivals.items()}, timelines)
        counter = reference_arrival_counts(arrivals)
        assert arrival_check(net, result, 2) == \
            ("simultaneous_arrivals_within_max_in_degree", True, "") == \
            reference_check_simultaneous_arrivals(counter, 2, "o")
        assert arrival_check(net, result, 0) == \
            ("simultaneous_arrivals_within_max_in_degree", False, "first violation ('u', 2, 1)") == \
            reference_check_simultaneous_arrivals(counter, 0, "o")

    def test_hand_built_simultaneous_arrival_failure(self):
        # three parallel edges on each hop: w sees three arrivals at 2, u at
        # 4 and the destination at 3; the earliest is reported
        hops = {"a": ("o", "w"), "f": ("w", "d"), "b": ("o", "u"), "c": ("u", "d"),
                "g": ("o", "d")}
        net = Network.build("o", "d", [(f"{h}{i}", *ends) for h, ends in hops.items()
                                       for i in (1, 2, 3)])
        trajectories = {}
        for i in (1, 2, 3):
            trajectories[f"x{i}"] = ((f"a{i}", f"f{i}"), {"o": 1, "w": 2, "d": 3 + i})
            trajectories[f"y{i}"] = ((f"b{i}", f"c{i}"), {"o": 0, "u": 4, "d": 6 + i})
            trajectories[f"z{i}"] = ((f"g{i}",), {"o": 0, "d": 3})

        def routed(names):
            timelines = QueueCounters(net)
            for name in names:
                timelines.commit(*by_ids(net, *trajectories[name]), -1)
            agents = {n: Agent(n, trajectories[n][1]["o"]) for n in names}
            paths = {agents[n]: trajectories[n][0] for n in names}
            exits = {agents[n]: trajectories[n][1]["d"] for n in names}
            counter = reference_arrival_counts({n: trajectories[n][1] for n in names})
            return RouterResult(paths, exits, timelines), counter

        result, counter = routed(trajectories)
        check = arrival_check(net, result, 2)
        assert check == ("simultaneous_arrivals_within_max_in_degree", False,
                         "first violation ('w', 2, 3)")
        assert check == reference_check_simultaneous_arrivals(counter, 2, "o")
        assert arrival_check(net, result, 3)[1]
        # without the x agents the destination's three exits at 3 come first
        result, counter = routed([n for n in trajectories if n[0] != "x"])
        check = arrival_check(net, result, 2)
        assert check == ("simultaneous_arrivals_within_max_in_degree", False,
                         "first violation ('d', 3, 3)")
        assert check == reference_check_simultaneous_arrivals(counter, 2, "o")
