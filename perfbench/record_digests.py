"""Record the stdout digests of the first jobs of every workload at the default seed.

    python3 perfbench/record_digests.py

Run it from a checkout whose outputs are known good, and again whenever the
job streams in workloads.py change. It records the first run.DIGEST_JOBS
jobs of each workload. run.py then counts as failed every job at the
default seed whose stdout differs from its recorded digest. Every recorded
job must also pass the output checks.
"""

from __future__ import annotations

import json
import sys

import run


def main():
    sys.path.insert(0, str(run.SRC))
    import workloads
    from toruscount import cli

    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        stream = workload.stream(run.DEFAULT_SEED)
        recorded = []
        for _ in range(run.DIGEST_JOBS):
            job = next(stream)
            _, code, stdout, stderr = run.run_job(cli, job.argv(run.write_job(job, name)))
            problems = run.check_job(workloads, job, code, stdout, stderr, None)
            if problems:
                sys.exit(f"{name} job {job.index} ({job.template}): {'; '.join(problems)}")
            recorded.append(run.digest(stdout))
        digests[name] = recorded
        print(f"{name}: {len(recorded)} digests", flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
