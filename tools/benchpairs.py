"""Alternating perfbench runs of two checkouts, summarised into one JSON file.

    python3 tools/benchpairs.py --parent ../parent --change . --pairs 10 \
        --workloads queue-bound solve --seed 13 --seconds 20 --out bench.json

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T`
once in each checkout, the parent first in odd pairs and the change first in
even ones, and keeps the last line of its standard output, the run's JSON
summary.  The output file holds, per workload and side, every run's
end-to-end metrics with their medians and quartiles, and per metric the number
of pairs in which the change read better.  Neither checkout's benchmark is
edited; a run that is not `correct` stops the script.  Both checkouts' `src`
and `perfbench` are byte-compiled first, so that no timed run compiles a
stale module and `peak_rss_mb` reads the program, not the compiler.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# end-to-end metrics, as perfbench reports them, and whether higher is better
METRICS = {"setup_s": False, "jobs_per_s": True, "job_p50_s": False, "job_p90_s": False,
           "peak_rss_mb": False}


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    summary = json.loads(out.strip().splitlines()[-1])
    if not summary["correct"]:
        sys.exit(f"{checkout}: {workload} run is not correct: {summary}")
    return {"failed": summary["failed"], "attempted": summary["attempted"],
            **{m: summary["metrics"][m]["value"] for m in METRICS}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--workloads", nargs="+",
                        default=["solve", "spe-audit", "ne-suite", "queue-bound"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    report = {
        "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "workloads": {},
    }
    for checkout in (args.parent, args.change):
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=checkout, check=True)
    for workload in args.workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side].append(run(getattr(args, side), workload, args.seed, args.seconds))
            print(workload, k + 1, {s: runs[s][-1]["jobs_per_s"] for s in order}, flush=True)
        wins = {}
        for m, higher in METRICS.items():
            pairs = zip(runs["parent"], runs["change"])
            wins[m] = sum((c[m] > p[m]) if higher else (c[m] < p[m]) for p, c in pairs)
        report["workloads"][workload] = {
            **{side: {"runs": rs, **{m: spread([r[m] for r in rs]) for m in METRICS}}
               for side, rs in runs.items()},
            "change_better_pairs": wins,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
