import random

import pytest

from dqroute.analysis import (
    degree_ratio_monitor,
    occupancy_trace,
    queue_bound_experiment,
    route_entry_order,
    spe_bound_experiment,
)
from dqroute.dynamics import run_paths
from dqroute.equilibrium import iterative_dominating_profile
from dqroute.errors import DegreeConditionViolated, InflowExceedsCut, NotSeriesParallel
from dqroute.netcore import (
    InflowSchedule,
    Network,
    build_extended,
    normalize_to_unit,
    sp_decompose,
    validate_and_stats,
)
from dqroute.spe import induced_paths, root_history, sigma_star

from helpers import random_net, random_schedule, replay_queue_lengths, step_replay


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
            occ = occupancy_trace(u, fast)
            ext, c0 = build_extended(u, schedule)
            solve = iterative_dominating_profile(ext.graph, c0)
            lengths = replay_queue_lengths(step_replay(ext.graph, c0, solve.paths))
            for e in u.edges:
                for t in range(occ.horizon + 1):
                    assert occ.per_edge.get(e, [0] * (occ.horizon + 1))[t] == \
                        lengths.get(e, {}).get(t, 0)
            assert occ.conservation_holds()
            done += 1


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
        occ = occupancy_trace(u, result)
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
            occ = occupancy_trace(u, result)
            for (v, t), n in occ.arrival_counts.items():
                if v == u.origin:
                    continue
                assert n <= stats.max_in_degree
            done += 1
