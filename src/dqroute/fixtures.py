"""Built-in example scenarios (reconstructed demo networks) and the scripted
blocking oracle used in the extensive-form demos."""

from __future__ import annotations

from .dynamics import EXIT
from .netcore import Agent, Graph
from .scenario import LoadedScenario, Scenario, load_scenario, parse_scenario
from .spe import HistoryNode, SigmaStar, StrategyOracle

FIG1 = """\
network
  vertices o v u1 u2 w1 w2 d
  origin o
  destination d
  edge ov o v
  edge ou1 o u1
  edge ou2 o u2
  edge vw1 v w1
  edge vw2 v w2
  edge u1w1 u1 w1
  edge u2w2 u2 w2
  edge w1d w1 d
  edge w2d w2 d
  priority w1 vw1 u1w1
  priority w2 vw2 u2w2
  priority d w1d w2d
inflow
  at 1 p1 p2
"""

# the induced (non-NE) play of the blocking strategy, as fixed paths
FIG1_VICIOUS = FIG1 + """\
paths
  agent p1 ov vw1 w1d
  agent p2 ou1 u1w1 w1d
"""

FIG2 = """\
network
  vertices o oi oj ok u v w u1 u2 v1 v2 w1 w2 x1 x2 y1 y2 d
  origin o
  destination d
  edge o_oi o oi
  edge o_oj o oj
  edge o_ok o ok
  edge oi_u oi u
  edge oj_w oj w
  edge ok_v ok v
  edge u_u1 u u1
  edge u_u2 u u2
  edge v_v1 v v1
  edge v_v2 v v2
  edge w_w1 w w1
  edge w_w2 w w2
  edge u1_v1 u1 v1
  edge u2_v2 u2 v2
  edge w1_x1 w1 x1
  edge w2_x2 w2 x2
  edge v1_y1 v1 y1
  edge v2_y2 v2 y2
  edge x1_y1 x1 y1
  edge x2_y2 x2 y2
  edge y1_d y1 d
  edge y2_d y2 d
  priority v1 v_v1 u1_v1
  priority v2 v_v2 u2_v2
  priority y1 v1_y1 x1_y1
  priority y2 x2_y2 v2_y2
  priority d y2_d y1_d
config
  queue oi_u i
  queue oj_w j
  queue ok_v k
  queue v1_y1 h1 h2 h3
  queue v2_y2 g1 g2 g3
"""

# the nine dominating paths FIG2's solver run must output, in order
FIG2_EXPECTED = (
    ("v2_y2", "y2_d"),
    ("v1_y1", "y1_d"),
    ("v2_y2", "y2_d"),
    ("v1_y1", "y1_d"),
    ("v2_y2", "y2_d"),
    ("v1_y1", "y1_d"),
    ("oj_w", "w_w2", "w2_x2", "x2_y2", "y2_d"),
    ("ok_v", "v_v1", "v1_y1", "y1_d"),
    ("oi_u", "u_u2", "u2_v2", "v2_y2", "y2_d"),
)

FIG3 = """\
network
  vertices o u1 u2 u3 u4 u5 v1 v2 v3 v4 v5 d
  origin o
  destination d
  edge o_u1 o u1
  edge o_v1 o v1
  edge u1_u2 u1 u2
  edge u2_u3 u2 u3
  edge u3_u4 u3 u4
  edge u4_u5 u4 u5
  edge u5_d u5 d
  edge u2_v3 u2 v3
  edge v1_v2 v1 v2
  edge v2_v3 v2 v3
  edge v3_v4 v3 v4
  edge v4_v5 v4 v5
  edge v5_d v5 d
  edge v4_d v4 d
  priority v3 u2_v3 v2_v3
  priority d u5_d v4_d v5_d
config
  queue u1_u2 k i
  queue v1_v2 j
  queue v4_d b1 b2 b3 b4
  queue u5_d c1 c2 c3
paths
  agent k u1_u2 u2_u3 u3_u4 u4_u5 u5_d
  agent i u1_u2 u2_v3 v3_v4 v4_d
  agent j v1_v2 v2_v3 v3_v4 v4_v5 v5_d
  agent b1 v4_d
  agent b2 v4_d
  agent b3 v4_d
  agent b4 v4_d
  agent c1 u5_d
  agent c2 u5_d
  agent c3 u5_d
"""

SP_DIAMOND = """\
network
  vertices o a b d
  origin o
  destination d
  edge oa o a
  edge ob o b
  edge ad a d
  edge bd b d
  priority d ad bd
inflow
  at 1 s1 s2
params
  horizon 1000
"""

FANOUT = """\
network
  vertices o a b d
  origin o
  destination d
  edge oa1 o a
  edge oa2 o a
  edge ad1 a d
  edge ad2 a d
  edge ob o b
  edge bd b d
  priority a oa1 oa2
  priority d ad1 ad2 bd
inflow
  at 1 f1 f2 f3
params
  horizon 1000
"""

FIXTURES: dict[str, str] = {
    "fig1": FIG1,
    "fig1_vicious": FIG1_VICIOUS,
    "fig2": FIG2,
    "fig3": FIG3,
    "sp_diamond": SP_DIAMOND,
    "fanout": FANOUT,
}


def fixture_scenario(name: str) -> Scenario:
    return parse_scenario(FIXTURES[name])


def load_fixture(name: str) -> LoadedScenario:
    return load_scenario(fixture_scenario(name))


class ViciousOracle(StrategyOracle):
    """Scripted blocking play on the fig1 network: the first agent shadows the
    second one's route choice; both fall back to the Markovian prescription off
    their scripts, which read only queue membership: the state is the content."""

    def __init__(self, graph: Graph, blocker: Agent, victim: Agent):
        super().__init__(graph)
        self.blocker = blocker
        self.victim = victim
        self._fallback = SigmaStar(graph)

    def state(self, history: HistoryNode) -> tuple:
        return history.config.content_key()

    def action(self, history: HistoryNode, agent: Agent):
        config = history.config
        edge_name, idx = config.locate(agent)
        if idx > 0:
            return edge_name
        head = self.graph.edge(edge_name).head
        if agent == self.victim:
            script = {"o": "ou1", "u1": "u1w1", "w1": "w1d", "d": EXIT}
            if head in script:
                return script[head]
            return self._fallback.action(history, agent)
        if agent == self.blocker:
            script = {"w1": "w1d", "w2": "w2d", "d": EXIT}
            if head == "o":
                return "ov"
            if head == "v":
                return "vw1" if self.victim in config.queue("ou1") else "vw2"
            if head in script:
                return script[head]
            return self._fallback.action(history, agent)
        return self._fallback.action(history, agent)
