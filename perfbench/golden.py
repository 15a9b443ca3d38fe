"""Record the golden per-job digests of the default seed.

    python3 perfbench/golden.py [workload ...]

Runs every job of the default seed's list once for each named workload (all
of them by default) and writes their digests to `perfbench/golden.json`.  Re-record only when a change is meant to alter the
program's answers, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN_FILE, GOLDEN_SEED, digest, import_program


def main() -> int:
    import_program()
    from workloads import WORKLOADS, setup

    names = sys.argv[1:] or list(WORKLOADS)
    golden = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}
    for name in names:
        workload = WORKLOADS[name]
        jobs = setup(workload, GOLDEN_SEED)
        golden[name] = {str(job.id): digest(workload.summary(job, workload.run(job))) for job in jobs}
        print(f"{name}: {len(jobs)} jobs", flush=True)
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
