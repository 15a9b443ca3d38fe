"""Seeded scenario generators and the four benchmark workloads.

Every input reaches the program as scenario text.  `setup` turns the texts of
one job list into runnable objects through `parse_scenario` and
`load_scenario`, the path the CLI takes.  Each workload's `run` calls the
library functions that its CLI handler in `dqroute.cli` calls, `summary`
reduces the output to the values a golden digest covers, and `check` applies
independent correctness checks outside the timed region.

Job lists are built in rounds.  Every round holds one job from each size
stratum, and a stratum fixes the sizes that drive a job's cost (agents, o-d
paths, edges, cut width), so only wiring, priorities and the horizon vary by
seed.  Any prefix of whole rounds has the same size mix: that keeps the
throughput and percentiles of a time-limited run steady across seeds.  Where
random strata alone leave the median or the 90th percentile in a gap between
strata, fixed fixture jobs in every round fill it.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

# Library calls go through the module attributes, so the tracer's wrappers
# see the benchmark's own calls into each layer.
from dqroute import analysis, cli, dynamics, equilibrium, scenario, spe
from dqroute.fixtures import FANOUT, FIG1, FIG2, FIG2_EXPECTED, SP_DIAMOND
from dqroute.netcore import InflowSchedule
from dqroute.scenario import LoadedScenario

@dataclass
class Job:
    id: int
    kind: str
    text: str
    loaded: Optional[LoadedScenario] = None


# -- scenario text generators ---------------------------------------------------


def _network_lines(edges: list[tuple[str, str, str, str]], vertices: list[str],
                   rng: random.Random) -> list[str]:
    """Network section for (name, tail, head, attributes) edges with a random
    strict priority order at every vertex that has several incoming edges."""
    lines = ["network", "  vertices " + " ".join(vertices), "  origin o", "  destination d"]
    ins: dict[str, list[str]] = {}
    for name, tail, head, attrs in edges:
        lines.append(f"  edge {name} {tail} {head}{attrs}")
        ins.setdefault(head, []).append(name)
    for v, names in ins.items():
        if len(names) > 1:
            rng.shuffle(names)
            lines.append(f"  priority {v} " + " ".join(names))
    return lines


def random_dag(rng: random.Random, vertices: int, edges: int, fat: float = 0.0):
    """Random o-d DAG: the chain o, v1, v2, ..., d plus random forward edges up
    to `edges`, so every edge lies on an o-d path.  A `fat` share of edges gets
    capacity 2 or transit 2.  Returns the edge list, the vertex names and the
    number of o-d paths of the unit-normalized network."""
    names = ["o"] + [f"v{i}" for i in range(1, vertices - 1)] + ["d"]
    k = len(names)
    pairs = [(i, i + 1) for i in range(k - 1)]
    while len(pairs) < edges:
        i = rng.randrange(k - 1)
        pairs.append((i, rng.randrange(i + 1, k)))
    out = []
    lanes = []
    for n, (i, j) in enumerate(pairs):
        attrs, lane_count = "", 1
        if rng.random() < fat:
            if rng.random() < 0.5:
                attrs, lane_count = " capacity=2", 2
            else:
                attrs = " transit=2"
        out.append((f"e{n}", names[i], names[j], attrs))
        lanes.append((i, j, lane_count))
    paths_to = [1] + [0] * (k - 1)  # o-d path count, computed independently of the program
    for i, j, lane_count in sorted(lanes):
        paths_to[j] += paths_to[i] * lane_count
    return out, names, paths_to[-1]


def _inflow_lines(waves: list[tuple[int, int]]) -> list[str]:
    lines = ["inflow"]
    for t, width in waves:
        lines.append(f"  at {t} " + " ".join(f"a{t}.{k}" for k in range(1, width + 1)))
    return lines


def _random_waves(rng: random.Random, agents: int, width: int) -> list[tuple[int, int]]:
    waves, t = [], 0
    while agents:
        t += rng.randint(1, 2)
        w = min(agents, rng.randint(1, width))
        waves.append((t, w))
        agents -= w
    return waves


def schedule_text(rng: random.Random, vertices: int, edges: int, agents: int,
                  width: int, fat: float) -> str:
    """An inflow scenario: random DAG plus a schedule of `agents` agents."""
    es, names, _ = random_dag(rng, vertices, edges, fat)
    lines = _network_lines(es, names, rng) + _inflow_lines(_random_waves(rng, agents, width))
    return "\n".join(lines) + "\n"


def interim_text(rng: random.Random, vertices: int, edges: int, agents: int) -> str:
    """A mid-play configuration: agents queued on random edges of a unit DAG."""
    es, names, _ = random_dag(rng, vertices, edges)
    queues: dict[str, list[str]] = {}
    for i in range(agents):
        queues.setdefault(rng.choice(es)[0], []).append(f"a{i}")
    lines = _network_lines(es, names, rng) + ["config"]
    lines += [f"  queue {e} " + " ".join(q) for e, q in queues.items()]
    return "\n".join(lines) + "\n"


def small_schedule_text(rng: random.Random, vertices: int, paths: int,
                        widths: tuple[int, ...], gap: int) -> str:
    """Waves of the given widths `gap` steps apart on a unit DAG with `vertices`
    vertices and exactly `paths` o-d paths, so the joint profile count is
    paths ** sum(widths)."""
    for _ in range(100_000):
        es, names, count = random_dag(rng, vertices, vertices - 1 + rng.randint(1, 3))
        if count == paths:
            schedule = [(1 + k * gap, width) for k, width in enumerate(widths)]
            lines = _network_lines(es, names, rng) + _inflow_lines(schedule)
            return "\n".join(lines) + "\n"
    raise ValueError(f"no DAG on {vertices} vertices with {paths} o-d paths")


FANOUT_NETWORK = """\
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
"""


def fanout_text(widths: tuple[int, ...]) -> str:
    """The `fanout` fixture network with waves of the given widths at t=1,2,..."""
    return FANOUT_NETWORK + "\n".join(_inflow_lines(list(enumerate(widths, start=1)))) + "\n"


def sp_text(rng: random.Random, edges: int, width: int, horizon: int, fat: float = 0.1) -> str:
    """Random series-parallel network with `edges` original edges and min-cut
    `width`, one wave of that width at t=1 and the horizon the CLI extends the
    schedule to.  The cut comes from the composition tree, independently of
    the program."""
    for _ in range(100_000):
        out: list[tuple[str, str, str, str]] = []
        inner: list[str] = []

        def build(o: str, d: str, k: int) -> int:
            if k == 1:
                attrs, cap = "", 1
                if rng.random() < fat:
                    if rng.random() < 0.5:
                        attrs = " transit=2"
                    else:
                        attrs, cap = " capacity=2", 2
                out.append((f"e{len(out)}", o, d, attrs))
                return cap
            j = rng.randint(1, k - 1)
            if rng.random() < 0.6:
                inner.append(f"v{len(inner) + 1}")
                mid = inner[-1]
                return min(build(o, mid, j), build(mid, d, k - j))
            return build(o, d, j) + build(o, d, k - j)

        if build("o", "d", edges) == width:
            lines = _network_lines(out, ["o"] + inner + ["d"], rng)
            lines += ["inflow", "  at 1 " + " ".join(f"x1.{i}" for i in range(1, width + 1))]
            lines += ["params", f"  horizon {horizon}"]
            return "\n".join(lines) + "\n"
    raise ValueError(f"no series-parallel net with {edges} edges and cut {width}")


# -- workloads ---------------------------------------------------------------------


def _digest_paths(paths) -> dict[str, list[str]]:
    return {a.name: list(p) for a, p in sorted(paths.items(), key=lambda kv: kv[0].name)}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    """One named workload.  Subclasses fill in the job list and the job."""

    name = ""
    rounds = 1  # rounds in the list; a timed run at the seed commit stays inside it
    trace_rounds = 1  # rounds the traced run covers

    def round_specs(self, rng: random.Random, index: int) -> list[tuple[str, str]]:
        """(kind, scenario text) for the jobs of one round."""
        raise NotImplementedError

    # Set where a job's cost hinges on what a random instance is like, beyond
    # the sizes its stratum fixes.  Such a workload runs one fixed pool of
    # instances for every seed: round 0, which holds the sentinel jobs, comes
    # first, and the seed only picks the round that follows it.  Instances
    # drawn afresh per seed moved such a workload's figures between seeds.
    fixed_pool = False

    def specs(self, seed: int, rounds: Optional[int] = None) -> list[tuple[str, str]]:
        count = rounds if rounds is not None else self.rounds
        if not self.fixed_pool:
            rng = random.Random(f"{self.name}:{seed}")
            return [spec for index in range(count) for spec in self.round_specs(rng, index)]
        rng = random.Random(f"{self.name}:pool")
        pool = [self.round_specs(rng, index) for index in range(self.rounds)]
        start = 1 + random.Random(f"{self.name}:{seed}").randrange(self.rounds - 1)
        order = pool[:1] + pool[start:] + pool[1:start]
        return [spec for specs in order[:count] for spec in specs]

    def prepare(self, job: Job) -> None:
        job.loaded = scenario.load_scenario(scenario.parse_scenario(job.text))

    def run(self, job: Job) -> Any:
        raise NotImplementedError

    def summary(self, job: Job, output: Any) -> Any:
        """JSON-able reduction of the output that the golden digest covers."""
        raise NotImplementedError

    def check(self, job: Job, output: Any) -> list[str]:
        """Independent checks; each returned string is one problem."""
        raise NotImplementedError

    def cli_parity(self, job: Job, output: Any, workdir: Path) -> list[str]:
        """Run the matching CLI command on the job's scenario file and compare."""
        raise NotImplementedError

    def cli_job(self, jobs: list[Job]) -> Job:
        return jobs[0]


def setup(workload: Workload, seed: int, rounds: Optional[int] = None) -> list[Job]:
    """Generate the seed's scenario texts and load every one of them."""
    jobs = [Job(i, kind, text) for i, (kind, text) in enumerate(workload.specs(seed, rounds))]
    for job in jobs:
        workload.prepare(job)
    return jobs


class Solve(Workload):
    """`dqroute solve`: the iterative dominating-profile solver, then the full
    trace of its profile."""

    name = "solve"
    rounds = 40
    trace_rounds = 16
    # (kind, agents) strata in rising cost; the largest sit where the solver's
    # n^3 cost shows.  Seven strata put p50 inside the fourth and p90 inside
    # the last, away from the gaps between strata.
    STRATA = (("interim", 20), ("schedule", 16), ("interim", 30), ("schedule", 24),
              ("interim", 50), ("schedule", 32), ("schedule", 48))

    def round_specs(self, rng, index):
        out = [("fig2", FIG2)] if index == 0 else []
        for kind, agents in self.STRATA:
            if kind == "schedule":
                out.append((kind, schedule_text(rng, 7, 12, agents, 3, 0.2)))
            else:
                out.append((kind, interim_text(rng, 7, 12, agents)))
        return out

    def run(self, job):
        loaded = job.loaded
        result = equilibrium.iterative_dominating_profile(loaded.graph, loaded.config)
        trace = dynamics.run_paths(loaded.graph, loaded.config, result.paths)
        return result, trace.exit_times

    def summary(self, job, output):
        result, exits = output
        return [[a.name, list(result.paths[a]), exits[a]] for a in result.order]

    def check(self, job, output):
        result, exits = output
        loaded = job.loaded
        problems = []
        if sorted(a.name for a in result.order) != sorted(a.name for a in loaded.config.agents()):
            problems.append("solver order does not cover every agent")
        report = equilibrium.verify_ne(loaded.graph, loaded.config, result.paths)
        if not report.passed:
            problems.append(f"verify_ne fails: {report.witnesses[0]}")
        elif {a: report.trace.exit_times[a] for a in exits} != dict(exits):
            problems.append("exit times differ from a fresh simulation of the profile")
        if job.kind == "fig2" and tuple(result.paths[a] for a in result.order) != FIG2_EXPECTED:
            problems.append("fig2 profile differs from FIG2_EXPECTED")
        return problems

    def cli_job(self, jobs):
        return next(j for j in jobs if j.kind == "schedule")

    def cli_parity(self, job, output, workdir):
        result, exits = output
        path = workdir / "solve.scn"
        path.write_text(job.text)
        code, text = _run_cli(["solve", str(path), "--out", str(workdir / "solve")])
        if code != 0:
            return [f"dqroute solve exited {code}"]
        rows = [line.split("\t")[:3] for line in text.splitlines()[2:]]
        expected = [[str(k), a.name, str(exits[a])] for k, a in enumerate(result.order, start=1)]
        profile = json.loads((workdir / "solve" / "profile.json").read_text())
        problems = []
        if rows != expected:
            problems.append("dqroute solve order or exits differ from the library job")
        if profile != _digest_paths(result.paths):
            problems.append("dqroute solve profile.json differs from the library job")
        return problems


class SpeAudit(Workload):
    """`dqroute spe-audit --oracle sigma-star`: induced play, the full history
    tree to the play's exit depth, and the one-deviation audit."""

    name = "spe-audit"
    rounds = 36
    trace_rounds = 14
    GUARD = 100_000  # the CLI default
    # fanout wave widths; each round takes the next pattern of each list, so the
    # median and the 90th percentile fall on or near these deterministic jobs
    SMALL_FANOUT = ((2, 1), (1, 2), (3,))
    MEDIUM_FANOUT = ((2, 2), (3, 1), (1, 3), (2, 1, 1), (1, 2, 1), (1, 1, 2))
    # histories outnumber distinct configurations about sevenfold here
    LARGE_FANOUT = (3, 2)
    # (vertices, o-d paths, wave widths) of the random-DAG strata, waves one step
    # apart: three cheaper than the small fanouts, two between small and medium
    DAGS = ((5, 4, (2, 1)), (5, 5, (2, 1)), (5, 3, (1, 2, 1)), (5, 4, (3, 1)), (5, 5, (2, 2)))
    # the history tree of a random DAG stratum spans 15x in cost with the
    # wiring: 0.10-0.14 spread of job_p90_s between seeds
    fixed_pool = True

    def round_specs(self, rng, index):
        out = [("fanout", fanout_text(self.LARGE_FANOUT))] if index == 0 else []
        out.append(("fanout", fanout_text(self.SMALL_FANOUT[index % len(self.SMALL_FANOUT)])))
        for vertices, paths, widths in self.DAGS:
            out.append(("dag", small_schedule_text(rng, vertices, paths, widths, 1)))
        out.append(("fanout", fanout_text(self.MEDIUM_FANOUT[index % len(self.MEDIUM_FANOUT)])))
        return out

    def run(self, job):
        graph, config = job.loaded.graph, job.loaded.config
        oracle = spe.sigma_star(graph)
        _, trace = spe.induced_paths(graph, spe.root_history(config), oracle)
        depth = max(trace.exit_times.values()) - config.time + 2
        histories = spe.exhaustive_histories(graph, config, depth=depth, guard=self.GUARD)
        report = spe.one_deviation_audit(graph, oracle, histories)
        return report, trace.exit_times, depth

    def summary(self, job, output):
        report, exits, depth = output
        return {
            "depth": depth,
            "histories": report.audited_histories,
            "deviations": report.audited_deviations,
            "passed": report.passed,
            "exits": {a.name: t for a, t in sorted(exits.items(), key=lambda kv: kv[0].name)},
        }

    def check(self, job, output):
        report, exits, _ = output
        loaded = job.loaded
        problems = [] if report.passed else [report.to_text()]
        solve = equilibrium.iterative_dominating_profile(loaded.graph, loaded.config)
        solved = dynamics.run_paths(loaded.graph, loaded.config, solve.paths).exit_times
        if dict(solved) != dict(exits):
            problems.append("sigma-star induced exits differ from the solver profile's exits")
        return problems

    def cli_parity(self, job, output, workdir):
        report, exits, depth = output
        path = workdir / "spe-audit.scn"
        path.write_text(job.text)
        code, text = _run_cli(["spe-audit", str(path), "--oracle", "sigma-star"])
        induced = "induced exits: " + ", ".join(
            f"{a.name}:{t}" for a, t in sorted(exits.items(), key=lambda kv: kv[0].name)
        )
        expected = [f"audit mode: exhaustive (depth {depth})", *report.to_text().splitlines(), induced]
        if code != 0 or text.splitlines()[1:] != expected:
            return [f"dqroute spe-audit (exit {code}) differs from the library job"]
        return []


class NeSuite(Workload):
    """The criterion-7/8 pipeline: exit table, every NE, the property suite with
    exhaustive strong-NE, and a full-tree audit of each NE-based oracle."""

    name = "ne-suite"
    rounds = 30
    trace_rounds = 12
    # (vertices, o-d paths, wave widths, gap between waves): tiny instances of
    # 4 to 16 joint profiles; seven two-agent strata against three three-agent
    # ones keep the median inside the dense band of cheap jobs
    DAGS = ((3, 2, (1, 1), 1), (3, 2, (1, 1), 1), (3, 2, (1, 1), 2), (4, 2, (1, 1), 1),
            (4, 2, (1, 1), 2), (3, 3, (1, 1), 1), (4, 4, (1, 1), 1),
            (3, 2, (1, 1, 1), 1), (4, 2, (2, 1), 1), (4, 2, (1, 2), 1))
    SAMPLES = 50  # as in acceptance criterion 7
    GUARD = 200_000
    # whether the agents ever meet (one NE, or every profile an NE) sets a
    # job's cost, and no size parameter predicts it: 10-15% between seeds
    fixed_pool = True

    def round_specs(self, rng, index):
        out = [("fig1", FIG1)] if index == 0 else []
        for vertices, paths, widths, gap in self.DAGS:
            out.append(("dag", small_schedule_text(rng, vertices, paths, widths, gap)))
        return out

    def run(self, job):
        graph, config = job.loaded.graph, job.loaded.config
        table = equilibrium.build_exit_table(graph, config)
        nes = equilibrium.enumerate_all_ne(graph, config, table=table)
        reports = [
            equilibrium.check_properties(
                graph, config, pi, equilibrium.CheckOptions(samples=self.SAMPLES, seed=70),
                exit_table=table,
            )
            for pi in nes
        ]
        histories = spe.exhaustive_histories(graph, config, guard=self.GUARD)
        audits = []
        for pi in nes:
            oracle = spe.ne_based_spe(graph, config, pi)
            induced, _ = spe.induced_paths(graph, spe.root_history(config), oracle)
            audits.append((induced, spe.one_deviation_audit(graph, oracle, histories)))
        return table, nes, reports, audits

    def costs(self, table, pi) -> dict[str, int]:
        exits = table.exits[table.combo_of(pi)]
        return {a.name: t - a.entry for a, t in sorted(zip(table.agents, exits), key=lambda kv: kv[0].name)}

    def summary(self, job, output):
        table, nes, reports, audits = output
        return [
            {
                "paths": _digest_paths(pi),
                "costs": self.costs(table, pi),
                "properties": [[r.name, r.status, r.detail] for r in rep.results],
                "audit": [audit.audited_histories, audit.audited_deviations, audit.passed],
            }
            for pi, rep, (_, audit) in zip(nes, reports, audits)
        ]

    def check(self, job, output):
        table, nes, reports, audits = output
        problems = [] if nes else ["no NE found"]
        for pi, rep, (induced, audit) in zip(nes, reports, audits):
            if not rep.passed or rep.result("strong_ne").detail != "exhaustive":
                problems.append(rep.to_text())
            if induced != {a: tuple(p) for a, p in pi.items()}:
                problems.append("NE-based oracle does not induce its NE")
            if not audit.passed:
                problems.append(audit.to_text())
        if job.kind == "fig1":
            costs = [c for pi in nes for c in self.costs(table, pi).values()]
            if len(nes) != 6 or set(costs) != {3}:
                problems.append(f"fig1 gives {len(nes)} NEs with costs {sorted(set(costs))}")
        return problems

    def cli_job(self, jobs):
        return next(j for j in jobs if j.kind == "dag")

    def cli_parity(self, job, output, workdir):
        table, nes, _, _ = output
        path = workdir / "ne-suite.scn"
        path.write_text(job.text)
        code, text = _run_cli(["enumerate-ne", str(path)])
        lines = text.splitlines()
        expected = [f"{len(nes)} Nash equilibria"] + [
            f"NE {k}: costs " + ", ".join(f"{n}:{c}" for n, c in self.costs(table, pi).items())
            for k, pi in enumerate(nes, start=1)
        ]
        got = [lines[1]] + [line for line in lines if line.startswith("NE ")]
        if code != 0 or got != expected:
            return [f"dqroute enumerate-ne (exit {code}) differs from the library job"]
        return []


class QueueBound(Workload):
    """`dqroute queue-bound --horizon H` on random series-parallel networks at
    full-cut inflow."""

    name = "queue-bound"
    rounds = 30
    trace_rounds = 12
    # (original edges, min-cut width) strata in rising cost
    NETS = ((4, 1), (8, 1), (10, 1), (14, 1), (20, 1), (16, 2), (12, 3))
    HORIZON = (1400, 1600)
    # the fixture nets cost about the median job; as fixed jobs in every round
    # they keep the median from falling into a gap between random strata
    FIXTURES = (SP_DIAMOND, FANOUT)

    def round_specs(self, rng, index):
        out = [
            ("sp", sp_text(rng, edges, width, rng.randint(*self.HORIZON)))
            for edges, width in self.NETS
        ]
        out += [("fixture", text.replace("horizon 1000", "horizon 1500")) for text in self.FIXTURES]
        return out

    def run(self, job):
        loaded = job.loaded
        # as the CLI handler does: repeat the last wave's width up to the horizon
        waves = list(loaded.scenario.inflow)
        size = len(waves[-1][1])
        extra = [
            (t, [f"x{t}.{i}" for i in range(1, size + 1)])
            for t in range(loaded.schedule.last_time + 1, loaded.params["horizon"] + 1)
        ]
        return analysis.queue_bound_experiment(loaded.unit, InflowSchedule.build(waves + extra))

    def summary(self, job, output):
        report, _, verdicts = output
        return {
            "max_occupancy": report.max_occupancy,
            "max_latency": report.max_latency,
            "stabilization_time": report.stabilization_time,
            "passed": report.passed,
            "ratio": [v.ok for v in verdicts],
        }

    def check(self, job, output):
        report, trace, _ = output
        problems = [] if report.passed else [report.to_text()]
        if report.max_occupancy != max(trace.total) or report.horizon != trace.horizon:
            problems.append("report maxima disagree with the occupancy trace")
        return problems

    def cli_parity(self, job, output, workdir):
        report, _, verdicts = output
        path = workdir / "queue-bound.scn"
        path.write_text(job.text)
        horizon = str(job.loaded.params["horizon"])
        code, text = _run_cli(["queue-bound", str(path), "--horizon", horizon])
        expected = report.to_text().splitlines()
        expected += [
            f"  ratio {v.node}: {'PASS' if v.ok else f'FAIL at t={v.worst_time} {v.worst_pair}'}"
            for v in verdicts
        ]
        if code != 0 or text.splitlines()[1:] != expected:
            return [f"dqroute queue-bound (exit {code}) differs from the library job"]
        return []


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Solve(), SpeAudit(), NeSuite(), QueueBound())}
