"""Smoke tests of the benchmark itself.

    python3 perfbench/smoke.py

For each workload: run one round of the default seed's job list and require
no failure, against the golden digests too; then corrupt one output (a
swapped path or an altered exit time) and require that the failure counter
trips, with and without the golden digests; then check that the tracer leaves
the program as it found it.  Last, check that the traced run's metric names and
units are those of BENCHMARK.json's per_layer list, and that perfbench/design.json
predicts only listed metrics.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

from run import (GOLDEN_FILE, GOLDEN_SEED, HERE, ROOT, Checker, import_program, layer_metrics,
                 layer_unit, run_job)


def swap_two_paths(paths: dict) -> None:
    a, b = list(paths)[:2]
    paths[a], paths[b] = paths[b], paths[a]


def corrupt(name: str, job, output):
    """Damage one answer in place, the way a wrong optimization would."""
    if name == "solve":
        swap_two_paths(output[0].paths)
    elif name == "spe-audit":
        exits = output[1]
        agent = next(iter(exits))
        exits[agent] += 1
    elif name == "ne-suite":
        swap_two_paths(output[1][0])
    elif name == "queue-bound":
        output[0].max_occupancy += 1


def check_names(tracer_class) -> list[str]:
    """The per-layer names are defined once, by the tracer and run.py; the
    benchmark's description and design record must repeat them exactly."""
    problems = []
    produced = layer_metrics(tracer_class(), 0.0, 1.0, 1.0)
    listed = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    if set(listed) != set(produced):
        problems.append(f"per_layer names differ from the traced run's: "
                        f"{sorted(set(listed) ^ set(produced))}")
    problems += [f"unit of {n} is {u}, the run prints {layer_unit(n)}"
                 for n, u in listed.items() if n in produced and u != layer_unit(n)]
    design = json.loads((HERE / "design.json").read_text())
    predicted = {n for row in design["predictions"] for n in row["layer_metrics"]}
    if predicted - set(listed):
        problems.append(f"design.json predicts unlisted metrics: {sorted(predicted - set(listed))}")
    print(f"metric names: {len(listed)} per-layer metrics listed, {len(predicted)} predicted")
    return problems


def main() -> int:
    import_program()
    from tracer import Tracer
    from workloads import WORKLOADS, setup

    golden = json.loads(GOLDEN_FILE.read_text())
    problems = []
    for name, workload in WORKLOADS.items():
        jobs = setup(workload, GOLDEN_SEED, rounds=1)
        checker = Checker(workload, GOLDEN_SEED, golden[name])
        outputs = {}
        for job in jobs:
            output, error = run_job(workload, job)
            checker.record(job, output, error)
            outputs[job.id] = output
        if checker.failed:
            problems.append(f"{name}: {checker.failed} of {checker.attempted} clean jobs failed")

        # a corrupted output must fail the independent checks and the golden digest
        target = next(j for j in jobs if len(j.loaded.config.agents()) >= 2)
        for seed in (GOLDEN_SEED, GOLDEN_SEED + 1):
            output, _ = run_job(workload, target)
            corrupt(name, target, output)
            fresh = Checker(workload, seed, golden[name])
            fresh.record(target, output, None)
            if fresh.failed != 1:
                problems.append(f"{name}: corrupted output passed the checks (seed {seed})")

        # traced outputs equal untraced ones, and removal restores the program
        originals = {m: dict(vars(sys.modules[m])) for m in sys.modules if m.startswith("dqroute")}
        with Tracer() as tracer:
            traced, _ = run_job(workload, target)
        if checker.problems(target, traced):
            problems.append(f"{name}: traced output differs")
        if not tracer.metrics()["trace.spans"]:
            problems.append(f"{name}: the tracer recorded no span")
        for module, attrs in originals.items():
            if any(vars(sys.modules[module]).get(k) is not v for k, v in attrs.items()):
                problems.append(f"{name}: tracer left {module} patched")
        print(f"{name}: {checker.attempted} jobs clean, corruption caught, tracer restored", flush=True)

    problems += check_names(Tracer)
    for line in problems:
        print("FAIL", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
