"""Regenerate ``digests.json``: the output digest of every job of every
workload at the default seed.

    python3 perfbench/pin_digests.py

Each job runs once and must pass its check first.  Outputs of logdiv are
canonical (they must not depend on the algorithm that produced them), so
a change of a pinned digest is a change of behaviour: re-pin only when
that change is intended, and say so.
"""

from __future__ import annotations

import json
import random
import sys

import run


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads
    pins = {}
    for name, build in workloads.WORKLOADS.items():
        outcome = run.one_pass(build(random.Random(run.DEFAULT_SEED)))
        bad = run.failed_jobs(outcome, None)
        if bad:
            for job_id, reason in sorted(bad.items()):
                print(f"FAILED {name}/{job_id}: {reason}", file=sys.stderr)
            return 1
        pins[name] = {j.id: next(iter(outcome.digests[j.id]))
                      for j in outcome.jobs}
        print(f"{name}: {len(pins[name])} jobs pinned")
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
