import math
import random

import pytest

from dqroute.bestresponse import QueueCounters
from dqroute.dynamics import (
    EXIT,
    Configuration,
    action_set,
    default_horizon,
    run_paths,
    step,
)
from dqroute.errors import (
    HorizonExceeded,
    InvalidAction,
    PathNotFromCurrentEdge,
    UnknownAgent,
)
from dqroute.fixtures import load_fixture
from dqroute.netcore import Agent, Network, build_extended, normalize_to_unit

from helpers import (
    random_fan,
    random_fixed_paths,
    random_interim_config,
    random_net,
    random_schedule,
    reference_run_paths,
    reference_step,
    step_replay,
)

A, B, X, Y = Agent("A"), Agent("B"), Agent("X"), Agent("Y")


def merge_net():
    # two edges merging into vw, then to d
    return Network.build(
        "o", "d",
        [("ov", "o", "v"), ("ou", "o", "u"), ("vw", "v", "w"), ("uw", "u", "w"),
         ("wd", "w", "d")],
        priorities={"w": ["vw", "uw"]},
    )


class TestActionSet:
    def test_exit_at_destination_head(self):
        net = Network.build("o", "d", [("e", "o", "d")])
        c = Configuration.from_mapping(0, {"e": [A]})
        assert action_set(net, c, A) == frozenset()

    def test_second_in_queue_must_stay(self):
        net = Network.build("o", "d", [("e", "o", "d")])
        c = Configuration.from_mapping(0, {"e": [A, B]})
        assert action_set(net, c, B) == frozenset({"e"})

    def test_head_chooses_outgoing(self):
        net = merge_net()
        c = Configuration.from_mapping(0, {"ov": [A]})
        assert action_set(net, c, A) == frozenset({"vw"})
        c2 = Configuration.from_mapping(0, {"vw": [A]})
        assert action_set(net, c2, A) == frozenset({"wd"})

    def test_unknown_agent(self):
        net = Network.build("o", "d", [("e", "o", "d")])
        c = Configuration.from_mapping(0, {"e": [A]})
        with pytest.raises(UnknownAgent):
            action_set(net, c, B)


class TestStep:
    def test_head_moves_to_empty_edge(self):
        net = merge_net()
        c = Configuration.from_mapping(0, {"ov": [A, B]})
        c2 = step(net, c, {A: "vw", B: "ov"})
        assert c2.queue("ov") == (B,) and c2.queue("vw") == (A,)
        assert c2.time == 1

    def test_priority_merge_order(self):
        net = merge_net()
        c = Configuration.from_mapping(0, {"vw": [X], "uw": [Y]})
        c2 = step(net, c, {X: "wd", Y: "wd"})
        assert c2.queue("wd") == (X, Y)  # vw beats uw at w
        net2 = Network.build(
            "o", "d",
            [("ov", "o", "v"), ("ou", "o", "u"), ("vw", "v", "w"), ("uw", "u", "w"),
             ("wd", "w", "d")],
            priorities={"w": ["uw", "vw"]},
        )
        c3 = step(net2, c, {X: "wd", Y: "wd"})
        assert c3.queue("wd") == (Y, X)

    def test_all_stay_is_identity_on_queues(self):
        net = Network.build("o", "d", [("e", "o", "d"), ("f", "o", "d")])
        c = Configuration.from_mapping(0, {"e": [A, B]})
        c2 = step(net, c, {A: EXIT, B: "e"})
        assert c2.queue("e") == (B,)
        c3 = step(net, c2, {B: EXIT})
        assert c3.is_empty()

    def test_invalid_action_rejected(self):
        net = merge_net()
        c = Configuration.from_mapping(0, {"ov": [A, B]})
        with pytest.raises(InvalidAction):
            step(net, c, {A: "uw", B: "ov"})  # vw is the only option from v
        with pytest.raises(InvalidAction):
            step(net, c, {A: "vw", B: "vw"})  # B is not the head
        with pytest.raises(InvalidAction):
            step(net, c, {A: "vw"})  # B missing

    def test_invalid_action_messages_name_the_action_set(self):
        # step checks each agent against its own queue index, as action_set does
        net = merge_net()
        c = Configuration.from_mapping(0, {"ov": [A, B]})
        with pytest.raises(InvalidAction, match=r"'vw' not in action set \['ov'\]"):
            step(net, c, {A: "vw", B: "vw"})
        with pytest.raises(InvalidAction, match=r"'uw' not in action set \['vw'\]"):
            step(net, c, {A: "uw", B: "ov"})
        single = Network.build("o", "d", [("e", "o", "d")])
        c = Configuration.from_mapping(0, {"e": [A, B]})
        with pytest.raises(InvalidAction, match="exit is only available at the destination head"):
            step(single, c, {A: EXIT, B: EXIT})


class TestRunPaths:
    def test_single_agent_single_edge(self):
        net = Network.build("o", "d", [("e", "o", "d")])
        c = Configuration.from_mapping(3, {"e": [A]})
        trace = run_paths(net, c, {A: ("e",)})
        assert trace.exit_times[A] == 4
        # it enters e at its tail o at the start time and leaves at its head
        assert trace.vertex_times == {A: {"o": 3, "d": 4}}
        assert trace.arrival(A, "o") == 3

    def test_two_agents_unit_capacity(self):
        net = Network.build("o", "d", [("e", "o", "d")])
        c = Configuration.from_mapping(0, {"e": [A, B]})
        trace = run_paths(net, c, {A: ("e",), B: ("e",)})
        assert trace.exit_times[A] == 1 and trace.exit_times[B] == 2

    def test_infinity_sentinel_for_unvisited(self):
        net = merge_net()
        c = Configuration.from_mapping(0, {"ov": [A]})
        trace = run_paths(net, c, {A: ("ov", "vw", "wd")})
        assert trace.arrival(A, "u") == math.inf
        assert trace.arrival(B, "o") == math.inf
        assert set(trace.vertex_times[A]) == {"o", "v", "w", "d"}

    def test_path_validation(self):
        net = merge_net()
        c = Configuration.from_mapping(0, {"ov": [A]})
        with pytest.raises(PathNotFromCurrentEdge):
            run_paths(net, c, {A: ("ou", "uw", "wd")})
        with pytest.raises(PathNotFromCurrentEdge):
            run_paths(net, c, {A: ("ov", "uw", "wd")})
        with pytest.raises(PathNotFromCurrentEdge):
            run_paths(net, c, {A: ("ov", "vw")})
        # a missing path is reported before a stray agent
        with pytest.raises(PathNotFromCurrentEdge, match="no path given") as missing:
            run_paths(net, c, {B: ("ov", "vw", "wd")})
        assert missing.value.agent == A
        with pytest.raises(UnknownAgent, match="B"):
            run_paths(net, c, {A: ("ov", "vw", "wd"), B: ("ov", "vw", "wd")})

    def test_horizon_guard(self):
        net = Network.build("o", "d", [("e", "o", "d")])
        c = Configuration.from_mapping(0, {"e": [A, B]})
        with pytest.raises(HorizonExceeded):
            run_paths(net, c, {A: ("e",), B: ("e",)}, horizon=0)

    def test_fig3_focal_agents_arrive_together(self):
        loaded = load_fixture("fig3")
        trace = run_paths(loaded.graph, loaded.config, loaded.paths)
        named = {a.name: t for a, t in trace.exit_times.items()}
        assert named["i"] == named["j"] == named["k"] == 5

    def test_fig3_without_k(self):
        loaded = load_fixture("fig3")
        keep = [a for a in loaded.config.agents() if a.name != "k"]
        config = loaded.config.restrict(keep)
        paths = {a: p for a, p in loaded.paths.items() if a.name != "k"}
        trace = run_paths(loaded.graph, config, paths)
        named = {a.name: t for a, t in trace.exit_times.items()}
        assert named["i"] == 5 and named["j"] == 6
        i = next(a for a in paths if a.name == "i")
        assert trace.arrival(i, "u2") == 1
        assert trace.arrival(i, "v3") == 2
        assert trace.arrival(i, "v4") == 3


class TestInvariants:
    def _random_case(self, rng):
        while True:
            net = random_net(rng, max_v=7, max_e=10)
            if net is None:
                continue
            config, _ = random_interim_config(rng, net, max_agents=5)
            paths = random_fixed_paths(rng, net, config)
            return net, config, paths

    def test_determinism(self):
        rng = random.Random(1)
        for _ in range(20):
            net, config, paths = self._random_case(rng)
            t1 = run_paths(net, config, paths)
            t2 = run_paths(net, config, paths)
            assert t1 == t2  # every field: paths, vertex and exit times, horizon

    def test_run_paths_matches_iterated_step(self):
        rng = random.Random(2)
        for _ in range(20):
            net, config, paths = self._random_case(rng)
            trace = run_paths(net, config, paths)
            configs = step_replay(net, config, paths)
            # an agent reaches the head of its edge when it leaves the edge
            times = {a: {net.edge(e).tail: config.time} for e, q in config.queues for a in q}
            for c, nxt in zip(configs, configs[1:]):
                for e, q in c.queues:
                    for agent in q:
                        if agent not in nxt.queue(e):
                            times[agent][net.edge(e).head] = nxt.time
                        if agent not in nxt.agents():
                            assert trace.exit_times[agent] == nxt.time
            assert trace.vertex_times == times
            assert configs[-1].time <= trace.horizon

    def test_conservation(self):
        rng = random.Random(3)
        for _ in range(20):
            net, config, paths = self._random_case(rng)
            trace = run_paths(net, config, paths)
            sizes = QueueCounters.from_trace(net, trace).sizes
            n = len(config.agents())
            for t in range(config.time, trace.horizon):
                in_system = sum(sizes.get(e, {}).get(t, 0) for e in net.edges)
                exited = sum(1 for x in trace.exit_times.values() if x <= t)
                assert in_system + exited == n

    def test_local_fifo_per_edge(self):
        # exit order equals entry order with simultaneous entries broken by
        # the tail vertex's priority over previous edges
        rng = random.Random(4)
        for _ in range(20):
            net, config, paths = self._random_case(rng)
            trace = run_paths(net, config, paths)
            for edge in net.edges:
                tail, head = net.edge(edge).tail, net.edge(edge).head
                # entry time and rank of each user: initial members rank -1, in
                # queue order; later entrants the rank of their previous edge
                initial = config.queue(edge)
                entries = []
                for a, path in trace.paths.items():
                    if a in initial:
                        entries.append((config.time, -1, initial.index(a), a))
                    elif edge in path:
                        prev = path[path.index(edge) - 1]
                        entries.append((trace.arrival(a, tail), net.rank(prev), 0, a))
                entries.sort(key=lambda entry: entry[:3])
                entry_order = [trace.arrival(a, head) for *_, a in entries]
                assert entry_order == sorted(entry_order)
                assert len(set(entry_order)) == len(entry_order)

    def test_progress_and_termination(self):
        rng = random.Random(5)
        for _ in range(20):
            net, config, paths = self._random_case(rng)
            trace = run_paths(net, config, paths)
            n = len(config.agents())
            m = len(net.edges)
            bound = config.time + n * m + m + 2
            assert all(t <= bound for t in trace.exit_times.values())
            assert trace.horizon <= default_horizon(net, config)
            # total remaining distance strictly decreases while anyone is queued
            def remaining(t):
                total = 0
                for agent, path in trace.paths.items():
                    if trace.exit_times[agent] <= t:
                        continue
                    entered = sum(
                        1 for e in path if trace.arrival(agent, net.edge(e).tail) <= t
                    )
                    total += len(path) - entered + 1
                return total

            for t in range(config.time, trace.horizon):
                assert remaining(t + 1) < remaining(t)


def outcome(fn, *args):
    """The value of fn(*args), or the type, message and agent of its error."""
    try:
        return fn(*args)
    except (HorizonExceeded, InvalidAction, PathNotFromCurrentEdge, UnknownAgent) as err:
        return type(err), str(err), getattr(err, "agent", None)


class TestReferenceEquivalence:
    """`run_paths` and `step` share one round function; each is checked
    against an oracle with its own round loop and entrant sort."""

    def _assert_runs_match(self, net, config, paths):
        trace = run_paths(net, config, paths)
        expected = reference_run_paths(net, config, paths)
        assert trace == expected
        # the insertion orders too: agents exit, and reach vertices, alike
        assert list(trace.exit_times.items()) == list(expected.exit_times.items())
        assert [(a, list(row.items())) for a, row in trace.vertex_times.items()] == [
            (a, list(row.items())) for a, row in expected.vertex_times.items()]
        # the horizon guard trips at the same round
        cut = trace.horizon - 2
        if cut >= config.time:
            assert outcome(run_paths, net, config, paths, cut) == outcome(
                reference_run_paths, net, config, paths, cut)

    def test_run_paths_on_the_interim_corpus(self):
        rng = random.Random(41)
        for _ in range(60):
            net = random_net(rng, max_v=7, max_e=11)
            if net is None:
                continue
            config, _ = random_interim_config(rng, net, max_agents=8)
            self._assert_runs_match(net, config, random_fixed_paths(rng, net, config))

    def test_run_paths_on_normalized_networks(self):
        # capacity-2 and transit-2 edges expand into lanes and segments
        rng = random.Random(42)
        done = 0
        while done < 40:
            net = random_net(rng, max_v=6, max_e=9, caps=(1, 2), transits=(1, 2))
            if net is None:
                continue
            unit = normalize_to_unit(net)
            config, _ = random_interim_config(rng, unit, max_agents=8)
            self._assert_runs_match(unit, config, random_fixed_paths(rng, unit, config))
            done += 1

    def test_run_paths_on_inflow_chains(self):
        rng = random.Random(43)
        done = 0
        while done < 40:
            net = random_net(rng, max_v=6, max_e=9, caps=(1, 2), transits=(1, 2))
            if net is None:
                continue
            ext, c0 = build_extended(normalize_to_unit(net), random_schedule(rng, waves=3, width=3))
            self._assert_runs_match(ext.graph, c0, random_fixed_paths(rng, ext.graph, c0))
            done += 1

    def test_step_on_random_profiles(self):
        rng = random.Random(44)
        for _ in range(60):
            net = random_net(rng, max_v=7, max_e=11)
            if net is None:
                continue
            config, _ = random_interim_config(rng, net, max_agents=8)
            while not config.is_empty():
                acts = {}
                for a in config.agents():
                    options = sorted(action_set(net, config, a))
                    acts[a] = rng.choice(options) if options else EXIT
                nxt = step(net, config, acts)
                assert nxt == reference_step(net, config, acts)
                config = nxt

    def test_run_paths_and_step_on_fan_instances(self):
        # co-queued agents part at the fan heads and merge with other fans'
        # agents further on, so most rounds sort several entrants
        rng = random.Random(46)
        done = 0
        while done < 30:
            drawn = random_fan(rng, fan=rng.randint(2, 3))
            if drawn is None:
                continue
            graph, config = drawn
            self._assert_runs_match(graph, config, random_fixed_paths(rng, graph, config))
            while not config.is_empty():
                acts = {}
                for a in config.agents():
                    options = sorted(action_set(graph, config, a))
                    acts[a] = rng.choice(options) if options else EXIT
                nxt = step(graph, config, acts)
                assert nxt == reference_step(graph, config, acts)
                config = nxt
            done += 1

    def test_step_rejects_invalid_profiles_like_the_reference(self):
        rng = random.Random(45)
        rejected = 0
        for _ in range(150):
            net = random_net(rng, max_v=7, max_e=11)
            if net is None:
                continue
            config, agents = random_interim_config(rng, net, max_agents=6)
            acts = {}
            for a in agents:
                options = sorted(action_set(net, config, a))
                acts[a] = rng.choice(options) if options else EXIT
            # some agents drop out, others pick any edge of the network or EXIT
            for a in rng.sample(agents, rng.randint(1, len(agents))):
                if rng.random() < 0.2:
                    del acts[a]
                else:
                    acts[a] = rng.choice(sorted(net.edges) + [EXIT])
            got = outcome(step, net, config, acts)
            assert got == outcome(reference_step, net, config, acts)
            rejected += isinstance(got, tuple)
        assert rejected > 50
