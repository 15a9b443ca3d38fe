"""Command-line interface: scenario ingestion, command dispatch, reports."""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .analysis import queue_bound_experiment, spe_bound_experiment
from .bestresponse import (
    QueueCounters,
    best_response_path,
    brute_force_best_response,
    earliest_arrival_table,
)
from .dynamics import run_paths
from .equilibrium import (
    CheckOptions,
    check_properties,
    enumerate_all_ne,
    iterative_dominating_profile,
    verify_ne,
)
from .errors import DQRouteError, HorizonExceeded
from .fixtures import FIXTURES, ViciousOracle, fixture_scenario
from .netcore import InflowSchedule
from .scenario import (
    LoadedScenario,
    load_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
)
from .spe import (
    exhaustive_histories,
    induced_paths,
    ne_based_spe,
    one_deviation_audit,
    root_history,
    sampled_histories,
    sigma_star,
)

class Reporter:
    def __init__(self, out: Optional[Path]):
        self.out = out
        self.lines: list[str] = []
        if out:
            out.mkdir(parents=True, exist_ok=True)

    def line(self, text: str = "") -> None:
        print(text)
        self.lines.append(text)

    def tsv(self, name: str, header: list[str], rows) -> None:
        if not self.out:
            return
        with (self.out / name).open("w") as fh:
            fh.write("\t".join(header) + "\n")
            for row in rows:
                fh.write("\t".join(str(x) for x in row) + "\n")

    def save_json(self, name: str, payload) -> None:
        if self.out:
            (self.out / name).write_text(json.dumps(payload, indent=2, sort_keys=True))

    def finish(self) -> None:
        if self.out:
            (self.out / "report.txt").write_text("\n".join(self.lines) + "\n")


def _read_text(ref: str, what: str) -> str:
    try:
        return Path(ref).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DQRouteError(f"cannot read {what} {ref!r}: {exc}") from exc


def _read_scenario(ref: str):
    if ref in FIXTURES:
        return fixture_scenario(ref), ref
    return parse_scenario(_read_text(ref, "scenario")), Path(ref).stem


def _read_witness(ref: str, loaded: LoadedScenario):
    """(check name, profile) of a witness file written by `properties`."""
    try:
        payload = json.loads(_read_text(ref, "witness"))
    except json.JSONDecodeError as exc:
        raise DQRouteError(f"witness {ref!r} is not valid JSON: {exc}") from exc
    profile = payload.get("profile") if isinstance(payload, dict) else None
    if not isinstance(profile, dict):
        raise DQRouteError(f"witness {ref!r} has no profile object")
    agents = {a.name: a for a in loaded.config.agents()}
    for name, path in profile.items():
        if name not in agents:
            raise DQRouteError(f"witness {ref!r} names unknown agent {name!r}")
        if not isinstance(path, list) or not all(
            isinstance(e, str) and e in loaded.graph.edges for e in path
        ):
            raise DQRouteError(f"witness {ref!r} gives {name!r} a path of unknown edges")
    return payload.get("check", "?"), {agents[n]: tuple(p) for n, p in profile.items()}


def _cost(loaded: LoadedScenario, trace, agent) -> int:
    origin_arrival = trace.arrival(agent, loaded.unit.origin)
    base = origin_arrival if origin_arrival != float("inf") else trace.start_time
    return trace.exit_times[agent] - int(base)


def _drop_agents(loaded: LoadedScenario, names: list[str]):
    gone = {n for n in names}
    keep = [a for a in loaded.config.agents() if a.name not in gone]
    config = loaded.config.restrict(keep)
    paths = None
    if loaded.paths:
        paths = {a: p for a, p in loaded.paths.items() if a.name not in gone}
    return config, paths


def _render(loaded: LoadedScenario, path) -> str:
    return loaded.graph.format_path(path, from_vertex=loaded.unit.origin)


def cmd_simulate(args, rep: Reporter, loaded: LoadedScenario) -> int:
    if not loaded.paths:
        raise DQRouteError("simulate needs a paths section")
    config, paths = _drop_agents(loaded, args.without_agent or [])
    trace = run_paths(loaded.graph, config, paths, horizon=args.horizon)
    rep.line("agent\texit\tcost\tpath")
    for agent in sorted(paths, key=lambda a: a.name):
        rep.line(
            f"{agent.name}\t{trace.exit_times[agent]}\t"
            f"{_cost(loaded, trace, agent)}\t{_render(loaded, paths[agent])}"
        )
    rep.tsv("trace.tsv", ["agent", "vertex", "time"], trace.rows())
    sizes = QueueCounters.from_trace(loaded.graph, trace).sizes
    qrows = [(e, t, n) for e, series in sorted(sizes.items()) for t, n in sorted(series.items())]
    rep.tsv("queues.tsv", ["edge", "time", "length"], qrows)
    return 0


def cmd_solve(args, rep: Reporter, loaded: LoadedScenario) -> int:
    result = iterative_dominating_profile(loaded.graph, loaded.config)
    trace = run_paths(loaded.graph, loaded.config, result.paths)
    rep.line("order\tagent\texit\tpath")
    for k, agent in enumerate(result.order, start=1):
        rep.line(
            f"{k}\t{agent.name}\t{trace.exit_times[agent]}\t{_render(loaded, result.paths[agent])}"
        )
    rep.save_json("profile.json", {a.name: list(p) for a, p in result.paths.items()})
    return 0


def cmd_best_response(args, rep: Reporter, loaded: LoadedScenario) -> int:
    if not loaded.paths:
        raise DQRouteError("best-response needs a paths section for the fixed agents")
    target = next((a for a in loaded.config.agents() if a.name == args.agent), None)
    if target is None:
        raise DQRouteError(f"unknown agent {args.agent!r}")
    fixed = {a: p for a, p in loaded.paths.items() if a != target}
    table = earliest_arrival_table(loaded.graph, loaded.config, fixed, target)
    path = best_response_path(loaded.graph, loaded.config, fixed, target, table=table)
    rep.line(f"agent {target.name} earliest arrival {table.arrival(loaded.graph.destination)}")
    rep.line(f"best response: {_render(loaded, path)}")
    rep.tsv(
        "arrivals.tsv",
        ["vertex", "tau", "enter_via"],
        [(v, t, table.estar.get(v, "")) for v, t in sorted(table.tau.items())],
    )
    if args.brute:
        best, witnesses = brute_force_best_response(
            loaded.graph, loaded.config, fixed, target, guard=args.guard
        )
        ok = best == table.arrival(loaded.graph.destination)
        rep.line(f"brute-force minimum {best} over {len(witnesses)} witnesses: "
                 f"{'match' if ok else 'MISMATCH'}")
        return 0 if ok else 1
    return 0


def cmd_verify_ne(args, rep: Reporter, loaded: LoadedScenario) -> int:
    if not loaded.paths:
        raise DQRouteError("verify-ne needs a paths section")
    report = verify_ne(loaded.graph, loaded.config, loaded.paths)
    if report.passed:
        rep.line("NE: PASS")
        return 0
    rep.line("NE: FAIL")
    for w in report.witnesses:
        rep.line(
            f"  {w.agent.name} exits {w.current_arrival}, can reach {w.best_arrival} "
            f"via {_render(loaded, w.improving_path)}"
        )
    return 1


def cmd_enumerate_ne(args, rep: Reporter, loaded: LoadedScenario) -> int:
    nes = enumerate_all_ne(loaded.graph, loaded.config, guard=args.guard)
    rep.line(f"{len(nes)} Nash equilibria")
    for idx, profile in enumerate(nes, start=1):
        trace = run_paths(loaded.graph, loaded.config, profile)
        costs = ", ".join(
            f"{a.name}:{_cost(loaded, trace, a)}" for a in sorted(profile, key=lambda x: x.name)
        )
        rep.line(f"NE {idx}: costs {costs}")
        for a in sorted(profile, key=lambda x: x.name):
            rep.line(f"    {a.name}: {_render(loaded, profile[a])}")
    return 0


def cmd_properties(args, rep: Reporter, loaded: LoadedScenario) -> int:
    if args.replay:
        check, profile = _read_witness(args.replay, loaded)
        trace = run_paths(loaded.graph, loaded.config.restrict(profile), profile)
        rep.line(f"replayed witness for check {check}")
        for agent in sorted(profile, key=lambda a: a.name):
            rep.line(f"  {agent.name} exits {trace.exit_times[agent]}")
        return 0
    if not loaded.paths:
        raise DQRouteError("properties needs a paths section (the NE to check)")
    options = CheckOptions(
        samples=args.samples,
        seed=args.seed,
        coalition_size=args.coalition,
        path_budget=args.budget,
    )
    report = check_properties(loaded.graph, loaded.config, loaded.paths, options)
    rep.line(report.to_text())
    for res in report.results:
        if res.status == "fail" and res.witness and "profile" in res.witness:
            rep.save_json("witness.json", {"check": res.name, **res.witness})
    return 0 if report.passed else 1


def cmd_spe_audit(args, rep: Reporter, loaded: LoadedScenario) -> int:
    graph, config = loaded.graph, loaded.config
    if args.oracle == "sigma-star":
        oracle = sigma_star(graph)
    elif args.oracle == "ne-based":
        if not loaded.paths:
            raise DQRouteError("ne-based audit needs a paths section (the NE)")
        oracle = ne_based_spe(graph, config, loaded.paths)
    elif args.oracle == "vicious":
        agents = sorted(config.agents(), key=lambda a: (a.entry or 0, a.slot or 0))
        if len(agents) != 2:
            raise DQRouteError("the vicious oracle is a two-agent fixture")
        oracle = ViciousOracle(graph, blocker=agents[0], victim=agents[1])
    else:  # pragma: no cover - argparse rejects other values
        raise DQRouteError(f"unknown oracle {args.oracle!r}")
    _, trace = induced_paths(graph, root_history(config), oracle)
    exit_depth = max(trace.exit_times.values()) - config.time + 2
    depth = args.depth if args.depth is not None else exit_depth
    try:
        histories = exhaustive_histories(graph, config, depth=depth, guard=args.guard)
        mode = "exhaustive"
    except HorizonExceeded:
        histories = sampled_histories(
            graph, config, random.Random(args.seed), playouts=args.samples,
            depth=depth, oracle=oracle,
        )
        mode = "sampled"
    report = one_deviation_audit(graph, oracle, histories)
    rep.line(f"audit mode: {mode} (depth {depth})")
    rep.line(report.to_text())
    rep.line("induced exits: " + ", ".join(
        f"{a.name}:{t}" for a, t in sorted(trace.exit_times.items(), key=lambda kv: kv[0].name)
    ))
    return 0 if report.passed else 1


def _extended_schedule(loaded: LoadedScenario, horizon: Optional[int]) -> InflowSchedule:
    if loaded.schedule is None:
        raise DQRouteError("this command needs an inflow section")
    schedule = loaded.schedule
    if horizon is None:
        horizon = loaded.params.get("horizon")
    if horizon is None or horizon <= schedule.last_time:
        return schedule
    waves = list(loaded.scenario.inflow)
    size = len(waves[-1][1])
    extra = [
        (t, [f"x{t}.{i}" for i in range(1, size + 1)])
        for t in range(schedule.last_time + 1, horizon + 1)
    ]
    return InflowSchedule.build(waves + extra)


def cmd_queue_bound(args, rep: Reporter, loaded: LoadedScenario) -> int:
    schedule = _extended_schedule(loaded, args.horizon)
    report, trace, verdicts = queue_bound_experiment(loaded.unit, schedule)
    rep.line(report.to_text())
    for v in verdicts:
        rep.line(f"  ratio {v.node}: {'PASS' if v.ok else f'FAIL at t={v.worst_time} {v.worst_pair}'}")
    rep.tsv("occupancy.tsv", ["time", "total"], enumerate(trace.total))
    rep.tsv("queues.tsv", ["edge", "time", "length"], (
        (e, t, n) for e, series in sorted(trace.per_edge.items()) for t, n in enumerate(series) if n
    ))
    return 0 if report.passed else 1


def cmd_spe_bound(args, rep: Reporter, loaded: LoadedScenario) -> int:
    schedule = _extended_schedule(loaded, args.horizon)
    report, trace = spe_bound_experiment(loaded.unit, schedule)
    rep.line(report.to_text())
    rep.tsv("occupancy.tsv", ["time", "total"], enumerate(trace.total))
    return 0 if report.passed else 1


def cmd_fixtures(args, rep: Reporter) -> int:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    for name, text in FIXTURES.items():
        sc = parse_scenario(text)
        (out / f"{name}.scn").write_text(serialize_scenario(sc))
        rep.line(f"{name}\thash={scenario_hash(sc)}")
    return 0


# every command's handler, in `--help` order; all but `fixtures` read a scenario
COMMANDS = {
    "simulate": cmd_simulate,
    "solve": cmd_solve,
    "best-response": cmd_best_response,
    "verify-ne": cmd_verify_ne,
    "enumerate-ne": cmd_enumerate_ne,
    "properties": cmd_properties,
    "spe-audit": cmd_spe_audit,
    "queue-bound": cmd_queue_bound,
    "spe-bound": cmd_spe_bound,
    "fixtures": cmd_fixtures,
}


def _count(text: str) -> int:
    """argparse type of a count, depth or horizon option: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqroute",
        description="dynamic-routing game engine with deterministic queuing",
    )
    parser.add_argument("--version", action="version", version=f"dqroute {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name != "fixtures":
            p.add_argument("scenario", help="fixture name or scenario file path")
        p.add_argument("--out", help="directory for report.txt and *.tsv files")
        if name in ("properties", "spe-audit"):
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--samples", type=_count, default=50)
        if name in ("best-response", "enumerate-ne", "spe-audit"):
            p.add_argument("--guard", type=_count, default=100_000)
        if name in ("simulate", "queue-bound", "spe-bound"):
            p.add_argument("--horizon", type=_count, default=None)
        if name == "simulate":
            p.add_argument("--without-agent", action="append", metavar="NAME")
        if name == "best-response":
            p.add_argument("--agent", required=True)
            p.add_argument("--brute", action="store_true")
        if name == "properties":
            p.add_argument("--coalition", type=_count, default=3)
            p.add_argument("--budget", type=_count, default=20)
            p.add_argument("--replay", metavar="WITNESS_JSON")
        if name == "spe-audit":
            p.add_argument(
                "--oracle",
                choices=["sigma-star", "ne-based", "vicious"],
                default="sigma-star",
            )
            p.add_argument("--depth", type=_count, default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rep = Reporter(Path(args.out) if args.out else None)
    try:
        if args.command == "fixtures":
            code = cmd_fixtures(args, rep)
        else:
            sc, name = _read_scenario(args.scenario)
            rep.line(f"dqroute {__version__} scenario={name} hash={scenario_hash(sc)} "
                     f"seed={getattr(args, 'seed', 0)}")
            code = COMMANDS[args.command](args, rep, load_scenario(sc))
    except DQRouteError as exc:
        rep.line(f"error: {exc}")
        rep.finish()
        return 2
    rep.finish()
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
