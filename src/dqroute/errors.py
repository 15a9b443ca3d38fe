"""Exception types shared across the package."""

from __future__ import annotations


class DQRouteError(Exception):
    """Base class for all package errors."""


# -- network validation ------------------------------------------------------

class CyclicGraph(DQRouteError):
    pass


class MalformedEdge(DQRouteError):
    """A duplicate edge name, or a capacity or transit the network cannot take."""


class EdgeOffAllPaths(DQRouteError):
    def __init__(self, edge: str):
        super().__init__(f"edge {edge!r} lies on no origin-destination path")
        self.edge = edge


class IncompletePriorityOrder(DQRouteError):
    def __init__(self, vertex: str, detail: str = ""):
        msg = f"priority order at vertex {vertex!r} is not a strict total order over its incoming edges"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.vertex = vertex


class EmptySchedule(DQRouteError):
    pass


class NotSeriesParallel(DQRouteError):
    pass


# -- simulation --------------------------------------------------------------

class UnknownAgent(DQRouteError):
    pass


class InvalidAction(DQRouteError):
    def __init__(self, agent, detail: str = ""):
        super().__init__(f"invalid action for agent {agent}: {detail}")
        self.agent = agent


class PathNotFromCurrentEdge(DQRouteError):
    def __init__(self, agent, detail: str = ""):
        super().__init__(f"path of agent {agent} does not start at its current edge: {detail}")
        self.agent = agent


class HorizonExceeded(DQRouteError):
    pass


# -- solvers and checks ------------------------------------------------------

class TooManyPaths(DQRouteError):
    pass


class TooManyProfiles(DQRouteError):
    pass


class VertexNotOnPath(DQRouteError):
    pass


class Unreachable(DQRouteError):
    pass


class BaseInvarianceViolated(DQRouteError):
    pass


class NotAnNE(DQRouteError):
    pass


class InflowExceedsCut(DQRouteError):
    pass


class DegreeConditionViolated(DQRouteError):
    pass


# -- scenario parsing --------------------------------------------------------

class ParseError(DQRouteError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class UnresolvedReference(DQRouteError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
