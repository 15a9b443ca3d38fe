"""dqroute benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 50 --trace 0

Run from the root of a dqroute checkout; the program is imported from its
`src/` directory.  The run re-executes itself once in a fresh interpreter with
PYTHONHASHSEED=0, so run-to-run spread comes from the program and not from the
hash layout.

With --trace 0 it sets the workload's job list up several times (the median is
`setup_s`), then runs the jobs back to back in a closed loop, one at a time, in
a single thread, cycling over the list until --seconds of job time have
passed.  Times are reported in reference seconds: each is scaled by the local
speed of the host, measured by timing a fixed loop (`reference`) before every
job, so that drift in host speed does not read as a change in the program.  With --trace 1 it runs a fixed prefix of the job list, each job once
untraced and once under the span tracer, and reports the per-layer metrics and
the tracing overhead.  Every job's output is checked outside the timed region,
and one job per run is replayed through `dqroute.cli.main` as a parity check.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
MIN_SAMPLES = 110  # at least 10 job times above the 90th percentile
MAX_LOOP_FACTOR = 2.5  # a loop that has not got MIN_SAMPLES by then gives up
REFERENCE_S = 0.003  # times are scaled to a host on which reference() takes this long
REFERENCE_WINDOW = 9  # reference timings whose median gives a job's local host speed
GOLDEN_FILE = HERE / "golden.json"
GOLDEN_SEED = 0
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import dqroute from this checkout's src/, or exit 2 when it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dqroute
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dqroute from {src}: {exc}")
    if Path(dqroute.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: dqroute imported from {dqroute.__file__}, not from {src}")
    sys.path.insert(0, str(HERE))


def digest(summary) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()[:16]


class Checker:
    """Judges each job execution outside the timed region.

    The first execution of a job gets the workload's independent checks and,
    on the golden seed, the recorded digest; later executions must repeat the
    first one's digest."""

    def __init__(self, workload, seed: int, golden: dict[str, str]):
        self.workload = workload
        self.golden = golden if seed == GOLDEN_SEED else None
        self.seen: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, job, output, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            try:
                problems = self.problems(job, output)
            except Exception as exc:  # a check that cannot read the output fails the job
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems:
            self.failed += 1
            print(f"job {job.id} ({job.kind}) failed: {problems[0]}", file=sys.stderr)

    def problems(self, job, output) -> list[str]:
        d = digest(self.workload.summary(job, output))
        if job.id in self.seen:
            return [] if self.seen[job.id] == d else ["output differs from the job's first run"]
        self.seen[job.id] = d
        problems = self.workload.check(job, output)
        if self.golden is not None and self.golden.get(str(job.id)) not in (None, d):
            problems.append(f"digest {d} differs from golden {self.golden[str(job.id)]}")
        return problems


def run_job(workload, job):
    """(output, error) of one job; an exception counts as a failed job."""
    try:
        return workload.run(job), None
    except Exception as exc:  # the loop must go on and count the failure
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"


def reference() -> int:
    """Fixed pure-Python work of the program's kind (tuple keys, dict updates, a
    sort) that no change to the program touches.  Timed next to the jobs, it
    tracks the speed of the host."""
    table: dict = {}
    acc = []
    for i in range(3000):
        key = (i % 61, str(i % 7))
        table[key] = table.get(key, 0) + 1
        acc.append((table[key], key))
    acc.sort()
    return len(acc)


def time_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scale(times: list[float], refs: list[float]) -> list[float]:
    """Each time in reference seconds: times[i] * REFERENCE_S over the median of
    the REFERENCE_WINDOW reference timings around refs[i].

    The speed of a shared host drifts by tens of percent within a minute, alike
    for the program and for reference(); the ratio of the two does not, so a
    slower figure means a slower program and not a busier host."""
    out = []
    for i, t in enumerate(times):
        lo = max(0, min(i - REFERENCE_WINDOW // 2, len(refs) - REFERENCE_WINDOW))
        out.append(t * REFERENCE_S / statistics.median(refs[lo:lo + REFERENCE_WINDOW]))
    return out


def closed_loop(workload, jobs, seconds: float, checker: Checker):
    """Run jobs back to back, cycling over the list, until `seconds` of job time
    pass and MIN_SAMPLES jobs have run, with one reference() timing before each
    job.  Returns the job times, the reference times and the job time spent."""
    clock = time.perf_counter
    samples: list[float] = []
    refs: list[float] = []
    busy = 0.0
    k = 0
    while busy < seconds or (len(samples) < MIN_SAMPLES and busy < MAX_LOOP_FACTOR * seconds):
        job = jobs[k % len(jobs)]
        k += 1
        refs.append(time_reference())
        start = clock()
        output, error = run_job(workload, job)
        elapsed = clock() - start
        busy += elapsed
        samples.append(elapsed)
        checker.record(job, output, error)
    return samples, refs, busy


def round_throughput(samples: list[float], per_round: int) -> float:
    """Median over consecutive round-sized chunks of jobs per second of job time.

    Every round holds the same strata, so chunks are alike in work, and the
    median keeps a chunk of unusually costly instances out of the figure."""
    rates = [
        per_round / sum(samples[i:i + per_round])
        for i in range(0, len(samples) - per_round + 1, per_round)
    ]
    return statistics.median(rates)


def layer_metrics(tracer, setup_s: float, untraced: float, traced: float) -> dict[str, float]:
    """The traced run's metrics: the tracer's per-layer figures and the overhead.
    BENCHMARK.json lists the same names; perfbench/smoke.py checks that."""
    layer = tracer.metrics()
    layer["trace.setup_s"] = setup_s
    layer["trace.untraced_pass_s"] = untraced
    layer["trace.traced_pass_s"] = traced
    layer["trace.overhead_ratio"] = traced / untraced - 1
    return layer


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the suffix of its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def cli_parity(workload, jobs, checker: Checker) -> None:
    """Replay one job through the CLI, untimed, from a scenario file."""
    job = workload.cli_job(jobs)
    output, error = run_job(workload, job)
    checker.record(job, output, error)
    if error:
        return
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        try:
            problems = workload.cli_parity(job, output, Path(tmp))
        except Exception as exc:  # a crash in the CLI is a parity failure
            problems = [f"{type(exc).__name__}: {exc}"]
    checker.attempted += 1
    if problems:
        checker.failed += 1
        print(f"cli parity ({job.kind} job {job.id}) failed: {problems[0]}", file=sys.stderr)


def measure(args) -> int:
    import_program()
    from workloads import WORKLOADS, setup
    from tracer import Tracer

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    checker = Checker(workload, args.seed, json.loads(GOLDEN_FILE.read_text())[workload.name])
    problems: list[str] = []  # faults of the run itself, apart from failed jobs

    if args.trace == 0:
        setup_times, setup_refs = [], []
        for _ in range(SETUP_REPEATS):
            setup_refs += [time_reference() for _ in range(3)]
            start = time.perf_counter()
            jobs = setup(workload, args.seed)
            setup_times.append(time.perf_counter() - start)
        raw, refs, busy = closed_loop(workload, jobs, args.seconds, checker)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cli_parity(workload, jobs, checker)
        samples = scale(raw, refs)
        p90 = statistics.quantiles(samples, n=10)[-1]
        above_p90 = sum(s > p90 for s in samples)
        if above_p90 < 10:
            problems.append(f"only {above_p90} job times above p90 in {len(samples)} samples")
        setup_s = statistics.median(setup_times) * REFERENCE_S / statistics.median(setup_refs)
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (round_throughput(samples, round(len(jobs) / workload.rounds)), "1/s"),
            "job_p50_s": (statistics.median(samples), "s"),
            "job_p90_s": (p90, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        print(f"workload={workload.name} seed={args.seed} jobs_in_list={len(jobs)} "
              f"samples={len(samples)} above_p90={above_p90} busy_s={busy:.3f} "
              f"raw_job_p50_s={statistics.median(raw):.4g} "
              f"reference_s={statistics.median(refs):.4g} (nominal {REFERENCE_S})")
    else:
        jobs = setup(workload, args.seed, workload.trace_rounds)
        tracer = Tracer()
        with tracer:
            start = time.perf_counter()
            setup(workload, args.seed, workload.trace_rounds)
            setup_s = time.perf_counter() - start
        untraced = traced = 0.0
        results = []
        for k, job in enumerate(jobs):
            # each job runs untraced and traced, alternating which goes first,
            # so drift in machine speed hits both sides alike
            for tracing in (k % 2 == 1, k % 2 == 0):
                if tracing:
                    tracer.install()
                    tracer.job = job.id
                start = time.perf_counter()
                output, error = run_job(workload, job)
                elapsed = time.perf_counter() - start
                if tracing:
                    tracer.remove()
                    traced += elapsed
                else:
                    untraced += elapsed
                results.append((job, output, error))
        # checked once the wrappers are gone; traced outputs must repeat untraced ones
        for job, output, error in results:
            checker.record(job, output, error)
        cli_parity(workload, jobs, checker)
        layer = layer_metrics(tracer, setup_s, untraced, traced)
        metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
        print(f"workload={workload.name} seed={args.seed} jobs_in_list={len(jobs)} "
              f"untraced_pass_s={untraced:.3f} traced_pass_s={traced:.3f} "
              f"tracing_overhead={layer['trace.overhead_ratio']:.1%}")

    failed_ratio = checker.failed / checker.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {failed_ratio:.6g} ratio ({checker.failed}/{checker.attempted})")
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main() -> int:
    args = parse_args(sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        return subprocess.run([sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                              env=env).returncode
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
