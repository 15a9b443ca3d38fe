import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqroute.cli import main
from dqroute.errors import (
    DQRouteError,
    IncompletePriorityOrder,
    ParseError,
    UnresolvedReference,
)
from dqroute.fixtures import FIXTURES
from dqroute.scenario import (
    load_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
)

MINIMAL = """\
network
  vertices o d
  origin o
  destination d
  edge od o d
"""


class TestParse:
    def test_minimal_scenario(self):
        sc = parse_scenario(MINIMAL)
        assert sc.origin == "o" and sc.destination == "d"
        assert sc.edges == [("od", "o", "d", 1, 1)]

    def test_comments_and_blank_lines(self):
        sc = parse_scenario("# header\n\n" + MINIMAL + "  # done\n")
        assert sc.edges == [("od", "o", "d", 1, 1)]

    def test_unknown_section(self):
        with pytest.raises(ParseError) as err:
            parse_scenario(MINIMAL + "nonsense\n")
        assert err.value.line == 6

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("network\n  frobnicate x\n")
        assert err.value.line == 2

    def test_unknown_parameter(self):
        with pytest.raises(ParseError):
            parse_scenario(MINIMAL + "params\n  warp 9\n")

    def test_edge_attributes(self):
        sc = parse_scenario(
            "network\n  vertices o d\n  origin o\n  destination d\n"
            "  edge od o d capacity=2 transit=3\n"
        )
        assert sc.edges == [("od", "o", "d", 2, 3)]

    @pytest.mark.parametrize("attribute", ["capacity=0", "transit=-1"])
    def test_edge_attribute_below_one_located(self, attribute):
        text = MINIMAL + f"  edge od2 o d {attribute}\n"
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.line == 6

    def test_undeclared_vertex_located(self):
        text = "network\n  vertices o d\n  origin o\n  destination d\n  edge e o x\n"
        with pytest.raises(UnresolvedReference) as err:
            parse_scenario(text)
        assert err.value.line == 5

    def test_unknown_edge_in_priority(self):
        text = MINIMAL + "  priority d od nope\n"
        with pytest.raises(UnresolvedReference):
            parse_scenario(text)

    def test_path_for_unknown_agent(self):
        text = MINIMAL + "paths\n  agent ghost od\n"
        with pytest.raises(UnresolvedReference) as err:
            parse_scenario(text)
        assert err.value.line == 7

    def test_duplicate_agent_rejected(self):
        text = MINIMAL + "inflow\n  at 1 a\n  at 2 a\n"
        with pytest.raises(UnresolvedReference):
            parse_scenario(text)

    def test_duplicate_agent_reports_its_line(self):
        with pytest.raises(UnresolvedReference) as err:
            parse_scenario(MINIMAL + "inflow\n  at 1 a\n  at 2 a\n")
        assert err.value.line == 8
        with pytest.raises(UnresolvedReference) as err:
            parse_scenario(MINIMAL + "inflow\n  at 1 a\nconfig\n  queue od b a\n")
        assert err.value.line == 9
        with pytest.raises(UnresolvedReference) as err:
            parse_scenario(MINIMAL + "inflow\n  at 1 a a\n  at 1 b\n")
        assert err.value.line == 7

    def test_duplicate_queue_rejected_with_its_line(self):
        # a second queue on one edge used to replace the first one's agents
        with pytest.raises(ParseError) as err:
            parse_scenario(MINIMAL + "config\n  queue od a\n  queue od b\n")
        assert err.value.line == 8
        assert err.value.message == "duplicate queue on edge 'od'"

    def test_duplicate_priority_rejected_with_its_line(self):
        # a second priority line for one vertex used to replace the first
        text = MINIMAL + "  edge od2 o d\n  priority d od od2\n  priority d od2 od\n"
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.line == 8
        assert err.value.message == "duplicate priority on vertex 'd'"

    def test_duplicate_path_rejected_with_its_line(self):
        # a second path line for one agent used to replace the first
        text = MINIMAL + "config\n  queue od a\npaths\n  agent a od\n  agent a od\n"
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.line == 10
        assert err.value.message == "duplicate path for agent 'a'"

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (MINIMAL + "  origin d\n", 6, "duplicate origin"),
            (MINIMAL + "  destination o\n", 6, "duplicate destination"),
            (MINIMAL + "config\n  time 3\n  time 5\n", 8, "duplicate config time"),
            (MINIMAL + "params\n  horizon 7\n  horizon 9\n", 8, "duplicate parameter 'horizon'"),
        ],
        ids=["origin", "destination", "time", "horizon"],
    )
    def test_duplicate_single_line_rejected_with_its_line(self, text, line, message):
        # a second origin, destination, time or parameter line used to replace the first
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.line == line
        assert err.value.message == message

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (MINIMAL + "inflow\n  at 1 a\n  at 1 b\n", 8, "duplicate inflow time 1"),
            (MINIMAL + "inflow\n  at 0 a\n", 7, "inflow time must be at least 1, got 0"),
            (MINIMAL + "inflow\n  at 2 a\n  at 1 b\n", 8, "inflow time 1 is before the previous wave's 2"),
            (MINIMAL + "inflow\n  at 2 a\n  at -1 b\n", 8, "inflow time -1 is before the previous wave's 2"),
            (MINIMAL + "  edge do d o\n", 6, "edge 'do' enters the origin 'o'"),
            (MINIMAL.replace("vertices o d", "vertices o d x") + "  edge dx d x\n", 6,
             "edge 'dx' leaves the destination 'd'"),
        ],
        ids=["repeated-wave", "wave-at-zero", "waves-out-of-order", "negative-wave", "into-origin",
             "out-of-destination"],
    )
    def test_inflow_times_and_end_edges_refused_with_their_line(self, text, line, message):
        # these used to load and fail unlocated in `InflowSchedule` or `Network.validate`,
        # and waves out of order hashed as their sorted, loadable form
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.line == line
        assert err.value.message == message


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_round_trip_is_idempotent(self, name):
        sc = parse_scenario(FIXTURES[name])
        once = serialize_scenario(sc)
        twice = serialize_scenario(parse_scenario(once))
        assert once == twice
        assert scenario_hash(sc) == scenario_hash(parse_scenario(once))


class TestLoad:
    def test_missing_priority_for_multi_in_vertex_located(self):
        text = (
            "network\n  vertices o d\n  origin o\n  destination d\n"
            "  edge a o d\n  edge b o d\n"
        )
        with pytest.raises(IncompletePriorityOrder) as err:
            load_scenario(parse_scenario(text))
        assert err.value.vertex == "d"

    def test_priority_omitting_an_incoming_edge_located(self):
        text = (
            "network\n  vertices o d\n  origin o\n  destination d\n"
            "  edge a o d\n  edge b o d\n  priority d a\n"
        )
        with pytest.raises(IncompletePriorityOrder) as err:
            load_scenario(parse_scenario(text))
        assert "line 7" in str(err.value)

    def test_explicit_paths_need_unit_network(self):
        text = (
            "network\n  vertices o d\n  origin o\n  destination d\n"
            "  edge od o d capacity=2\n"
            "inflow\n  at 1 a\n"
            "paths\n  agent a od\n"
        )
        with pytest.raises(DQRouteError):
            load_scenario(parse_scenario(text))

    def test_inflow_agents_get_chain_prefixes(self):
        loaded = load_scenario(parse_scenario(FIXTURES["fig1_vicious"]))
        p1 = loaded.agents["p1"]
        assert loaded.paths[p1][0] in loaded.extended.chain_edges
        assert loaded.paths[p1][1:] == ("ov", "vw1", "w1d")

    def test_config_time_conflicts_with_inflow(self):
        text = (
            "network\n  vertices o d\n  origin o\n  destination d\n  edge od o d\n"
            "inflow\n  at 1 a\n"
            "config\n  time 5\n  queue od b\n"
        )
        with pytest.raises(DQRouteError):
            load_scenario(parse_scenario(text))

    def test_config_and_inflow_merge(self):
        text = (
            "network\n  vertices o v d\n  origin o\n  destination d\n"
            "  edge ov o v\n  edge vd v d\n"
            "inflow\n  at 1 a\n"
            "config\n  queue vd b\n"
        )
        loaded = load_scenario(parse_scenario(text))
        names = {x.name for x in loaded.config.agents()}
        assert names == {"a", "b"}
        assert loaded.config.queue("vd")[0].name == "b"

    def test_fixtures_all_load(self):
        for name in FIXTURES:
            loaded = load_scenario(parse_scenario(FIXTURES[name]))
            assert loaded.config.agents() or loaded.schedule is not None


_ROUTES = [
    (("od", "o", "d"),),
    (("ov", "o", "v"), ("vd", "v", "d")),
    (("ov", "o", "v"), ("vd2", "v", "d")),
]
_DROPPED_PARAMS = ["seed", "samples", "guard", "depth", "coalition", "budget"]
# at most one fault per text, so that about half of the texts load
_FAULTS = [None, None, None, "capacity=0", "transit=-1", "dropped param", "undeclared vertex",
           "no priority", "wave at zero"]


@st.composite
def _scenario_texts(draw):
    routes = draw(st.lists(st.sampled_from(_ROUTES), min_size=1, max_size=3, unique=True))
    edges = list(dict.fromkeys(edge for route in routes for edge in route))
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "undeclared vertex":
        edges.append(("ox", "o", "x"))
    vertices = dict.fromkeys(v for _, tail, head in edges for v in (tail, head) if v != "x")
    lines = ["network", "  vertices " + " ".join(vertices), "  origin o", "  destination d"]
    bad = draw(st.sampled_from([name for name, *_ in edges]))
    for name, tail, head in edges:
        attribute = draw(st.sampled_from(["", " capacity=2", " transit=2"]))
        if name == bad and fault in ("capacity=0", "transit=-1"):
            attribute = " " + fault
        lines.append(f"  edge {name} {tail} {head}{attribute}")
    into_d = [name for name, _, head in edges if head == "d"]
    if len(into_d) > 1 and fault != "no priority":
        lines.append("  priority d " + " ".join(draw(st.permutations(into_d))))
    names = " ".join(f"a{i}" for i in range(draw(st.integers(1, 3))))
    time = 0 if fault == "wave at zero" else draw(st.integers(1, 3))
    lines += ["inflow", f"  at {time} {names}"]
    if draw(st.booleans()):
        lines += ["config", f"  queue {edges[0][0]} q"]
    params = ["horizon"] if draw(st.booleans()) else []
    if fault == "dropped param":
        params.append(draw(st.sampled_from(_DROPPED_PARAMS)))
    if params:
        lines.append("params")
        lines += [f"  {key} {draw(st.integers(0, 20))}" for key in params]
    return "\n".join(lines) + "\n"


class TestGeneratedScenarios:
    @given(_scenario_texts())
    @settings(max_examples=100, deadline=None)
    def test_load_or_refuse_and_solve_never_raises(self, text):
        try:
            sc = parse_scenario(text)
            once = serialize_scenario(sc)
            assert serialize_scenario(parse_scenario(once)) == once
            load_scenario(sc)
        except DQRouteError:
            pass
        with tempfile.TemporaryDirectory() as tmp:
            scenario = Path(tmp) / "generated.scn"
            scenario.write_text(text)
            assert main(["solve", str(scenario)]) in (0, 1, 2)
