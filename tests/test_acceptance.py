"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import random
import time

import pytest

from dqroute.analysis import queue_bound_experiment, spe_bound_experiment
from dqroute.bestresponse import best_response_path, brute_force_best_response, earliest_arrival_table
from dqroute.dynamics import run_paths
from dqroute.equilibrium import (
    CheckOptions,
    build_exit_table,
    check_properties,
    enumerate_all_ne,
    iterative_dominating_profile,
    verify_ne,
)
from dqroute.errors import TooManyProfiles
from dqroute.fixtures import FIG2_EXPECTED, ViciousOracle, load_fixture
from dqroute.netcore import (
    InflowSchedule,
    Network,
    build_extended,
    leftmost_min_cut,
    normalize_to_unit,
)
from dqroute.spe import (
    exhaustive_histories,
    induced_paths,
    ne_based_spe,
    one_deviation_audit,
    root_history,
)

from helpers import random_fixed_paths, random_interim_config, random_net, random_schedule


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def instance_corpus():
    """The shared >= 100 random instances for criteria 5 and 6."""
    rng = random.Random(2024)
    out = []
    while len(out) < 100:
        net = random_net(rng, max_v=8, max_e=12)
        if net is None:
            continue
        config, agents = random_interim_config(rng, net, max_agents=6)
        out.append((net, config, agents))
    return out


def test_criterion_01_fig1_ne_enumeration():
    t0 = time.time()
    loaded = load_fixture("fig1")
    nes = enumerate_all_ne(loaded.graph, loaded.config)
    assert len(nes) == 6
    for pi in nes:
        trace = run_paths(loaded.graph, loaded.config, pi)
        for agent in pi:
            assert trace.exit_times[agent] - trace.arrival(agent, "o") == 3
    vicious = load_fixture("fig1_vicious")
    trace = run_paths(vicious.graph, vicious.config, vicious.paths)
    costs = {a.name: trace.exit_times[a] - trace.arrival(a, "o") for a in vicious.paths}
    assert costs == {"p1": 3, "p2": 4}
    ne = verify_ne(vicious.graph, vicious.config, vicious.paths)
    assert not ne.passed and ne.witnesses[0].agent.name == "p2"
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"6 NEs all cost 3; vicious profile costs (3,4) and fails verify_ne [{elapsed:.2f}s]")


def test_criterion_02_fig1_vicious_spe_audit():
    t0 = time.time()
    loaded = load_fixture("fig1")
    p1, p2 = sorted(loaded.config.agents(), key=lambda a: a.slot)
    oracle = ViciousOracle(loaded.graph, blocker=p1, victim=p2)
    _, trace = induced_paths(loaded.graph, root_history(loaded.config), oracle)
    assert trace.exit_times[p1] - trace.arrival(p1, "o") == 3
    assert trace.exit_times[p2] - trace.arrival(p2, "o") == 4
    exit_depth = max(trace.exit_times.values()) - loaded.config.time
    histories = exhaustive_histories(loaded.graph, loaded.config, depth=exit_depth + 2)
    audit = one_deviation_audit(loaded.graph, oracle, histories)
    assert audit.passed, audit.to_text()
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(2, f"vicious oracle: exhaustive audit over {audit.audited_histories} histories, "
              f"costs (3,4) [{elapsed:.2f}s]")


def test_criterion_03_fig2_nine_path_profile():
    t0 = time.time()
    loaded = load_fixture("fig2")
    result = iterative_dominating_profile(loaded.graph, loaded.config)
    assert tuple(result.paths[a] for a in result.order) == FIG2_EXPECTED
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(3, f"solver reproduces the 9-path dominating profile verbatim [{elapsed:.2f}s]")


def test_criterion_04_fig3_removal_effect():
    t0 = time.time()
    loaded = load_fixture("fig3")
    trace = run_paths(loaded.graph, loaded.config, loaded.paths)
    named = {a.name: t for a, t in trace.exit_times.items()}
    assert named["i"] == named["j"] == named["k"] == 5
    keep = [a for a in loaded.config.agents() if a.name != "k"]
    shrunk = loaded.config.restrict(keep)
    paths = {a: p for a, p in loaded.paths.items() if a.name != "k"}
    reduced = run_paths(loaded.graph, shrunk, paths)
    named2 = {a.name: t for a, t in reduced.exit_times.items()}
    assert named2["j"] == 6 and named2["i"] == 5
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(4, f"i,j,k all exit at 5; removing k sends j to 6, leaves i at 5 [{elapsed:.2f}s]")


def test_criterion_05_oracle_equivalence(instance_corpus):
    t0 = time.time()
    rng = random.Random(5)
    for net, config, agents in instance_corpus:
        zeta = rng.choice(agents)
        fixed = random_fixed_paths(rng, net, config, skip=(zeta,))
        table = earliest_arrival_table(net, config, fixed, zeta)
        best, witnesses = brute_force_best_response(net, config, fixed, zeta)
        assert table.arrival(net.destination) == best
        assert best_response_path(net, config, fixed, zeta, table=table) in witnesses
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(5, f"DP arrival == brute-force minimum on {len(instance_corpus)} instances "
              f"[{elapsed:.2f}s]")


def test_criterion_06_solver_soundness(instance_corpus):
    t0 = time.time()
    rng = random.Random(6)
    for net, config, agents in instance_corpus:
        result = iterative_dominating_profile(net, config)
        assert verify_ne(net, config, result.paths).passed
        cache = {}
        for i, agent in enumerate(result.order):
            before, tau = result.order[:i], result.tables[i].tau
            later = [a for a in agents if a not in before and a != agent]
            pre = {a: result.paths[a] for a in before}
            own = net.path_vertices(result.paths[agent])
            for _ in range(20):
                sample = {}
                for a in later:
                    e, _ = config.locate(a)
                    opts = cache.setdefault((a.name, e), net.paths(e, "d", guard=5_000))
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
                            continue  # conventional start-tail time, not a routed arrival
                        bound = tau.get(v, math.inf)
                        if math.isinf(bound):
                            continue
                        arr = trace.arrival(j, v)
                        assert math.isinf(arr) or arr >= bound
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(6, f"solver output is an NE and iteratively dominating on "
              f"{len(instance_corpus)} instances x 20 samples [{elapsed:.2f}s]")


def _tiny_schedule_instances(count, seed, max_profiles):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        net = random_net(rng, max_v=5, max_e=6)
        if net is None:
            continue
        unit = normalize_to_unit(net)
        schedule = random_schedule(rng, waves=2, width=2)
        ext, c0 = build_extended(unit, schedule)
        try:
            table = build_exit_table(ext.graph, c0, guard=max_profiles)
        except TooManyProfiles:
            continue
        out.append((ext, c0, table, schedule))
    return out


def test_criterion_07_universal_ne_properties():
    t0 = time.time()
    instances = _tiny_schedule_instances(30, seed=7, max_profiles=700)
    total = 0
    for ext, c0, table, schedule in instances:
        nes = enumerate_all_ne(ext.graph, c0, table=table)
        assert nes, "the dominating-profile solver always finds an NE"
        for pi in nes:
            rep = check_properties(
                ext.graph, c0, pi,
                CheckOptions(samples=50, seed=70),
                exit_table=table,
            )
            assert rep.passed, rep.to_text()
            assert rep.result("strong_ne").detail == "exhaustive"
            assert rep.result("consecutive_exiting").status == "pass"
            assert rep.result("temporal_overtaking").status == "pass"
        total += len(nes)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(7, f"{total} NEs over {len(instances)} instances pass FIFO, consecutive exiting, "
              f"temporal overtaking, sampled independence and exhaustive strong-NE "
              f"[{elapsed:.1f}s]")


def test_criterion_08_ne_to_spe():
    t0 = time.time()
    instances = _tiny_schedule_instances(8, seed=8, max_profiles=120)
    fig1 = load_fixture("fig1")
    cases = [(fig1.graph, fig1.config)] + [(ext.graph, c0) for ext, c0, _, _ in instances]
    audited = 0
    for graph, c0 in cases:
        try:
            histories = exhaustive_histories(graph, c0, guard=60_000)
        except Exception:
            continue
        for pi in enumerate_all_ne(graph, c0, guard=200):
            oracle = ne_based_spe(graph, c0, pi)
            paths, _ = induced_paths(graph, root_history(c0), oracle)
            assert paths == {a: tuple(p) for a, p in pi.items()}
            audit = one_deviation_audit(graph, oracle, histories)
            assert audit.passed, audit.to_text()
            audited += 1
    assert audited >= 10
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(8, f"{audited} exhaustively-found NEs induced exactly and pass full-tree "
              f"one-deviation audits [{elapsed:.1f}s]")


def _sp_networks():
    nets = []
    nets.append(Network.build("o", "d", [("e", "o", "d")]))
    vs = ["o", "v1", "v2", "d"]
    nets.append(Network.build("o", "d", [(f"p{i}", vs[i], vs[i + 1]) for i in range(3)]))
    nets.append(Network.build(
        "o", "d",
        [("e1", "o", "u"), ("e2", "u", "d"), ("e3", "o", "w"), ("e4", "w", "d")],
    ))
    nets.append(Network.build(
        "o", "d", [("a", "o", "d"), ("b", "o", "d"), ("c", "o", "d")],
        priorities={"d": ["a", "b", "c"]},
    ))
    nets.append(Network.build(  # two diamonds in series
        "o", "d",
        [("a1", "o", "u"), ("a2", "u", "m"), ("b1", "o", "w"), ("b2", "w", "m"),
         ("c1", "m", "x"), ("c2", "x", "d"), ("d1", "m", "y"), ("d2", "y", "d")],
        priorities={"m": ["a2", "b2"], "d": ["c2", "d2"]},
    ))
    nets.append(Network.build(  # parallel(series(e,e), edge)
        "o", "d",
        [("s1", "o", "v"), ("s2", "v", "d"), ("fast", "o", "d")],
        priorities={"d": ["fast", "s2"]},
    ))
    return nets


def test_criterion_09_queue_boundedness():
    t0 = time.time()
    horizon = 1000
    done = 0
    for net in _sp_networks():
        unit = normalize_to_unit(net)
        cut, _, _ = leftmost_min_cut(unit)
        width = len(cut)
        schedule = InflowSchedule.build(
            [(t, [f"x{t}.{i}" for i in range(width)]) for t in range(1, horizon + 1)]
        )
        rep, trace, verdicts = queue_bound_experiment(unit, schedule)
        assert rep.bounded, rep.to_text()
        assert rep.inflow_end - rep.stabilization_time >= 500
        assert all(v.ok for v in verdicts)
        assert rep.passed, rep.to_text()
        done += 1
    elapsed = time.time() - t0
    assert done >= 5 and elapsed < 300.0
    report(9, f"{done} series-parallel networks at full-cut inflow, T={horizon}: "
              f"maxima stabilize with >=500 headroom, ratio bound holds [{elapsed:.1f}s]")


def test_criterion_10_spe_latency_boundedness():
    t0 = time.time()
    horizon = 1000
    nets = [
        Network.build("o", "d", [("e1", "o", "v1"), ("e2", "v1", "v2"), ("e3", "v2", "d")]),
        Network.build(
            "o", "d",
            [("oa1", "o", "a"), ("oa2", "o", "a"), ("ad1", "a", "d"), ("ad2", "a", "d"),
             ("ob", "o", "b"), ("bd", "b", "d")],
            priorities={"a": ["oa1", "oa2"], "d": ["ad1", "ad2", "bd"]},
        ),
        Network.build(
            "o", "d",
            [("l1", "o", "x"), ("l2", "o", "x"), ("r1", "x", "d"), ("r2", "x", "d")],
            priorities={"x": ["l1", "l2"], "d": ["r1", "r2"]},
        ),
    ]
    done = 0
    for net in nets:
        unit = normalize_to_unit(net)
        from dqroute.netcore import leftmost_min_cut

        cut, _, _ = leftmost_min_cut(unit)
        schedule = InflowSchedule.build(
            [(t, [f"x{t}.{i}" for i in range(len(cut))]) for t in range(1, horizon + 1)]
        )
        rep, _ = spe_bound_experiment(unit, schedule)
        assert rep.bounded, rep.to_text()
        assert rep.max_latency <= 4 * len(unit.edges)
        assert rep.inflow_end - rep.latency_stabilization_entry >= 500
        done += 1
    elapsed = time.time() - t0
    assert done >= 3 and elapsed < 300.0
    report(10, f"{done} out>=in networks at min-cut inflow, T={horizon}: latencies "
               f"stabilize below a constant [{elapsed:.1f}s]")
