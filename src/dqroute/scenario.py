"""Scenario files: a line-oriented nested key-value format, its canonical
serializer, and resolution into simulation-ready objects."""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Optional

from .dynamics import Configuration
from .errors import (
    DQRouteError,
    IncompletePriorityOrder,
    ParseError,
    UnresolvedReference,
)
from .netcore import (
    Agent,
    ExtendedNetwork,
    InflowSchedule,
    Network,
    UnitNetwork,
    build_extended,
    normalize_to_unit,
)

_IDENT = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")
_SECTIONS = ("network", "inflow", "config", "paths", "params")
_PARAM_KEYS = ("horizon",)


@dataclass
class Scenario:
    vertices: list[str] = field(default_factory=list)
    origin: str = ""
    destination: str = ""
    edges: list[tuple[str, str, str, int, int]] = field(default_factory=list)
    priorities: dict[str, list[str]] = field(default_factory=dict)
    inflow: list[tuple[int, list[str]]] = field(default_factory=list)
    config_time: int = 0
    config_queues: list[tuple[str, list[str]]] = field(default_factory=list)
    paths: dict[str, list[str]] = field(default_factory=dict)
    params: dict[str, int] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)  # locations for late errors


def _ident(token: str, line: int, what: str) -> str:
    if not _IDENT.match(token):
        raise ParseError(line, f"invalid {what} name {token!r}")
    return token


def _int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line, f"{what} must be an integer, got {token!r}") from None


def _declare_agents(declared: set[str], names: list[str], line: int) -> None:
    for n in names:
        if n in declared:
            raise UnresolvedReference(line, f"agent {n!r} appears twice")
        declared.add(n)


def _once(lines: dict[str, int], key: str, line: int, what: str) -> None:
    """Refuse a second line of a directive that may appear once, keeping its line."""
    if key in lines:
        raise ParseError(line, f"duplicate {what}")
    lines[key] = line


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ParseError/UnresolvedReference with line numbers."""
    sc = Scenario()
    section = None
    seen: dict[str, int] = {}  # the lines of directives that no later error names
    declared_agents: set[str] = set()
    last = 1  # the previous inflow wave's time, 1 before the first

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indented = line[0] in " \t"
        tokens = line.split()
        if not indented:
            if len(tokens) != 1 or tokens[0] not in _SECTIONS:
                raise ParseError(lineno, f"unknown section {line.strip()!r}")
            section = tokens[0]
            _once(seen, section, lineno, f"section {section!r}")
            continue
        if section is None:
            raise ParseError(lineno, "directive before any section header")
        key, args = tokens[0], tokens[1:]

        if section == "network":
            if key == "vertices":
                if not args:
                    raise ParseError(lineno, "vertices needs at least one name")
                sc.vertices.extend(_ident(a, lineno, "vertex") for a in args)
            elif key == "origin":
                if len(args) != 1:
                    raise ParseError(lineno, "origin takes one vertex")
                _once(seen, "network:origin", lineno, "origin")
                sc.origin = _ident(args[0], lineno, "vertex")
            elif key == "destination":
                if len(args) != 1:
                    raise ParseError(lineno, "destination takes one vertex")
                _once(seen, "network:destination", lineno, "destination")
                sc.destination = _ident(args[0], lineno, "vertex")
            elif key == "edge":
                if len(args) < 3:
                    raise ParseError(lineno, "edge needs: name tail head [capacity=c] [transit=t]")
                name = _ident(args[0], lineno, "edge")
                tail = _ident(args[1], lineno, "vertex")
                head = _ident(args[2], lineno, "vertex")
                cap, transit = 1, 1
                for extra in args[3:]:
                    if extra.startswith("capacity="):
                        cap = _int(extra[9:], lineno, "capacity")
                    elif extra.startswith("transit="):
                        transit = _int(extra[8:], lineno, "transit")
                    else:
                        raise ParseError(lineno, f"unknown edge attribute {extra!r}")
                if cap < 1 or transit < 1:
                    raise ParseError(lineno, "capacity and transit must be at least 1")
                _once(sc.lines, f"edge:{name}", lineno, f"edge {name!r}")
                sc.edges.append((name, tail, head, cap, transit))
            elif key == "priority":
                if len(args) < 2:
                    raise ParseError(lineno, "priority needs: vertex edge [edge ...]")
                v = _ident(args[0], lineno, "vertex")
                _once(sc.lines, f"priority:{v}", lineno, f"priority on vertex {v!r}")
                sc.priorities[v] = [_ident(a, lineno, "edge") for a in args[1:]]
            else:
                raise ParseError(lineno, f"unknown network directive {key!r}")
        elif section == "inflow":
            if key != "at":
                raise ParseError(lineno, f"unknown inflow directive {key!r}")
            if len(args) < 2:
                raise ParseError(lineno, "at needs: time agent [agent ...]")
            r = _int(args[0], lineno, "inflow time")
            names = [_ident(a, lineno, "agent") for a in args[1:]]
            _declare_agents(declared_agents, names, lineno)
            _once(seen, f"inflow:{r}", lineno, f"inflow time {r}")
            if r < last:
                raise ParseError(lineno, f"inflow time {r} is before the previous wave's {last}"
                                 if sc.inflow else f"inflow time must be at least 1, got {r}")
            sc.inflow.append((r, names))
            last = r
        elif section == "config":
            if key == "time":
                if len(args) != 1:
                    raise ParseError(lineno, "time takes one integer")
                _once(seen, "config:time", lineno, "config time")
                sc.config_time = _int(args[0], lineno, "time")
            elif key == "queue":
                if len(args) < 2:
                    raise ParseError(lineno, "queue needs: edge agent [agent ...]")
                e = _ident(args[0], lineno, "edge")
                _once(sc.lines, f"queue:{e}", lineno, f"queue on edge {e!r}")
                names = [_ident(a, lineno, "agent") for a in args[1:]]
                _declare_agents(declared_agents, names, lineno)
                sc.config_queues.append((e, names))
            else:
                raise ParseError(lineno, f"unknown config directive {key!r}")
        elif section == "paths":
            if key != "agent":
                raise ParseError(lineno, f"unknown paths directive {key!r}")
            if len(args) < 2:
                raise ParseError(lineno, "agent needs: name edge [edge ...]")
            name = _ident(args[0], lineno, "agent")
            _once(sc.lines, f"path:{name}", lineno, f"path for agent {name!r}")
            sc.paths[name] = [_ident(a, lineno, "edge") for a in args[1:]]
        elif section == "params":
            if key not in _PARAM_KEYS:
                raise ParseError(lineno, f"unknown parameter {key!r}")
            if len(args) != 1:
                raise ParseError(lineno, f"{key} takes one integer")
            _once(seen, f"params:{key}", lineno, f"parameter {key!r}")
            sc.params[key] = _int(args[0], lineno, key)

    _resolve(sc, declared_agents)
    return sc


def _resolve(sc: Scenario, agents: set[str]) -> None:
    edges = {name: (tail, head) for name, tail, head, _, _ in sc.edges}
    if not sc.origin or not sc.destination:
        raise UnresolvedReference(0, "network needs origin and destination")
    known_vertices = set(sc.vertices)
    for name, (tail, head) in edges.items():
        for v in (tail, head):
            if v not in known_vertices:
                raise UnresolvedReference(
                    sc.lines[f"edge:{name}"], f"edge {name!r} uses undeclared vertex {v!r}"
                )
        if head == sc.origin or tail == sc.destination:
            end = f"enters the origin {head!r}" if head == sc.origin else f"leaves the destination {tail!r}"
            raise ParseError(sc.lines[f"edge:{name}"], f"edge {name!r} {end}")
    for v, order in sc.priorities.items():
        if v not in known_vertices:
            raise UnresolvedReference(sc.lines[f"priority:{v}"], f"unknown vertex {v!r}")
        for e in order:
            if e not in edges:
                raise UnresolvedReference(
                    sc.lines[f"priority:{v}"], f"priority at {v!r} names unknown edge {e!r}"
                )
    for e, names in sc.config_queues:
        if e not in edges:
            raise UnresolvedReference(sc.lines[f"queue:{e}"], f"queue on unknown edge {e!r}")
    for name, path in sc.paths.items():
        if name not in agents:
            raise UnresolvedReference(
                sc.lines[f"path:{name}"], f"path for unknown agent {name!r}"
            )
        for e in path:
            if e not in edges:
                raise UnresolvedReference(
                    sc.lines[f"path:{name}"], f"path of {name!r} uses unknown edge {e!r}"
                )


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form; parse(serialize(parse(s))) is a fixpoint."""
    out = ["network"]
    names = " ".join(dict.fromkeys(sc.vertices))
    out.append(f"  vertices {names}")
    out.append(f"  origin {sc.origin}")
    out.append(f"  destination {sc.destination}")
    for name, tail, head, cap, transit in sc.edges:
        line = f"  edge {name} {tail} {head}"
        if cap != 1:
            line += f" capacity={cap}"
        if transit != 1:
            line += f" transit={transit}"
        out.append(line)
    for v in sorted(sc.priorities):
        out.append(f"  priority {v} " + " ".join(sc.priorities[v]))
    if sc.inflow:
        out.append("inflow")
        for r, agents in sorted(sc.inflow):
            out.append(f"  at {r} " + " ".join(agents))
    if sc.config_queues:
        out.append("config")
        if sc.config_time:
            out.append(f"  time {sc.config_time}")
        for e, agents in sc.config_queues:
            out.append(f"  queue {e} " + " ".join(agents))
    if sc.paths:
        out.append("paths")
        for name in sc.paths:
            out.append(f"  agent {name} " + " ".join(sc.paths[name]))
    if sc.params:
        out.append("params")
        for key in sorted(sc.params):
            out.append(f"  {key} {sc.params[key]}")
    return "\n".join(out) + "\n"


def scenario_hash(sc: Scenario) -> str:
    return hashlib.sha256(serialize_scenario(sc).encode()).hexdigest()[:12]


@dataclass
class LoadedScenario:
    scenario: Scenario
    network: Network
    unit: UnitNetwork
    graph: object  # the graph simulations run on (extended when there is inflow)
    config: Configuration
    extended: Optional[ExtendedNetwork]
    schedule: Optional[InflowSchedule]
    paths: Optional[dict[Agent, tuple[str, ...]]]
    agents: dict[str, Agent]

    @property
    def params(self) -> dict[str, int]:
        return self.scenario.params


def load_scenario(sc: Scenario) -> LoadedScenario:
    """Build the validated network, configuration and resolved paths."""
    try:
        net = Network.build(
            sc.origin,
            sc.destination,
            [(n, t, h, c, tr) for n, t, h, c, tr in sc.edges],
            priorities=sc.priorities or None,
            vertices=sc.vertices,
        )
    except IncompletePriorityOrder as exc:
        line = sc.lines[f"priority:{exc.vertex}"]
        raise IncompletePriorityOrder(exc.vertex, f"(scenario line {line})") from exc
    for v in net.vertices:
        if len(net.in_edges(v)) > 1 and v not in sc.priorities:
            raise IncompletePriorityOrder(v, "multi-in vertex needs an explicit priority line")
    unit = normalize_to_unit(net)

    needs_unit = bool(sc.config_queues or sc.paths)
    if needs_unit and set(unit.edges) != {name for name, *_ in sc.edges}:
        raise DQRouteError(
            "explicit queues/paths need a unit-capacity unit-transit network"
        )

    agents: dict[str, Agent] = {}
    schedule = None
    extended = None
    if sc.inflow:
        schedule = InflowSchedule.build(sc.inflow)
        for a in schedule.agents():
            agents[a.name] = a
    for _, names in sc.config_queues:
        for n in names:
            agents[n] = Agent(n)

    if schedule is not None:
        if sc.config_time:
            raise DQRouteError("an inflow schedule fixes the start time at 0")
        extended, config = build_extended(unit, schedule)
        graph = extended.graph
        if sc.config_queues:
            queues = dict(config.queues)
            for e, names in sc.config_queues:
                queues[e] = tuple(agents[n] for n in names)
            config = Configuration.from_mapping(sc.config_time, queues)
    else:
        graph = unit
        queues = {e: tuple(agents[n] for n in names) for e, names in sc.config_queues}
        config = Configuration.from_mapping(sc.config_time, queues)

    paths: Optional[dict[Agent, tuple[str, ...]]] = None
    if sc.paths:
        paths = {}
        for name, edge_list in sc.paths.items():
            agent = agents[name]
            path = tuple(edge_list)
            if extended is not None and agent.entry is not None:
                first_tail = graph.edge(path[0]).tail
                if first_tail == unit.origin:
                    path = extended.entry_prefix(agent) + path
            paths[agent] = path
    return LoadedScenario(
        scenario=sc,
        network=net,
        unit=unit,
        graph=graph,
        config=config,
        extended=extended,
        schedule=schedule,
        paths=paths,
        agents=agents,
    )
