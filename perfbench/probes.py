"""Baseline probe points, timed once each with the benchmark's own timer.

    python3 perfbench/probes.py

Writes `perfbench/baseline.json`: ungated figures that later changes can
compare against, next to the ad-hoc figures measured before the benchmark
existed.  Run from the root of a dqroute checkout.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

from run import HERE, REFERENCE_S, import_program, time_reference


def timed(fn) -> tuple[float, float]:
    """Wall seconds of one call, and the same in reference seconds, scaled by
    the median of reference() timings around the call as run.py scales jobs."""
    refs = [time_reference() for _ in range(5)]
    start = time.perf_counter()
    fn()
    seconds = time.perf_counter() - start
    refs += [time_reference() for _ in range(5)]
    return seconds, seconds * REFERENCE_S / statistics.median(refs)


def diamond_chain(count: int) -> str:
    """Series chain of `count` diamonds: a series-parallel net of 4*count edges."""
    lines = ["network", "  vertices " + " ".join(f"m{i}" for i in range(count + 1))
             + " " + " ".join(f"u{i} w{i}" for i in range(count)), "  origin m0",
             f"  destination m{count}"]
    for i in range(count):
        lines += [f"  edge a{i} m{i} u{i}", f"  edge b{i} u{i} m{i + 1}",
                  f"  edge c{i} m{i} w{i}", f"  edge d{i} w{i} m{i + 1}",
                  f"  priority m{i + 1} b{i} d{i}"]
    return "\n".join(lines) + "\n"


def main() -> int:
    import_program()
    from dqroute.equilibrium import iterative_dominating_profile
    from dqroute.fixtures import SP_DIAMOND
    from dqroute.netcore import sp_decompose
    from dqroute.scenario import load_scenario, parse_scenario
    from dqroute.spe import induced_paths, root_history, sigma_star
    from workloads import Job, QueueBound, SpeAudit, fanout_text

    def load(text):
        return load_scenario(parse_scenario(text))

    probes = []

    def probe(name, roadmap_s, fn):
        seconds, reference_s = timed(fn)
        probes.append({"name": name, "seconds": round(seconds, 4),
                       "reference_seconds": round(reference_s, 4), "roadmap_s": roadmap_s})
        print(f"{name}: {seconds:.3f} s, {reference_s:.3f} reference s (roadmap {roadmap_s} s)",
              flush=True)

    for n, roadmap in ((30, 0.058), (60, 0.45), (120, 3.5)):
        fan = load(fanout_text((3,) * (n // 3)))
        probe(f"fanout schedule solve n={n}", roadmap,
              lambda: iterative_dominating_profile(fan.graph, fan.config))
    fan45 = load(fanout_text((3,) * 15))
    probe("sigma-star induced play n=45", 1.3,
          lambda: induced_paths(fan45.graph, root_history(fan45.config), sigma_star(fan45.graph)))
    audit = SpeAudit()
    job = Job(0, "fanout", fanout_text((3, 3)))
    audit.prepare(job)
    probe("fanout 3+3 full-tree sigma-star audit", 6.4, lambda: audit.run(job))
    bound = QueueBound()
    job = Job(0, "sp", SP_DIAMOND.replace("horizon 1000", "horizon 16000"))
    bound.prepare(job)
    probe("queue-bound sp_diamond H=16000", 0.86, lambda: bound.run(job))
    chain = load(diamond_chain(120))
    probe(f"sp_decompose m={len(chain.unit.edges)} (chain of 120 diamonds)", 0.36,
          lambda: sp_decompose(chain.unit))

    payload = {
        "note": ("ungated; one timing each with time.perf_counter, single process, single thread; "
                 "reference_seconds scales it to the host speed as the benchmark's timings are"),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "probes": probes,
    }
    (HERE / "baseline.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
