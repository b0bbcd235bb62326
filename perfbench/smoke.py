"""Smoke test of the benchmark: every workload at a tiny size, untraced
and traced.  Checks that the run exits 0, that every metric named in
``BENCHMARK.json`` is emitted with its unit, and that no job failed.

    python3 perfbench/smoke.py

Run from the root of a source checkout.  It is a script rather than a
pytest module so that the repository's test suite does not run the
benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                                     "--seconds", "0.5", "--trace",
                                     str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = None
                problems.append("no JSON result line")
            if result is not None:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    problems.append(f"metrics differ: missing {missing}, "
                                    f"unexpected {extra}")
                if not result["correct"] or result["failed"]:
                    problems.append(f"fail_frac {result['failed']}/"
                                    f"{result['attempted']}")
            status = "FAIL" if problems else "PASS"
            print(f"{status} {workload} trace={trace} {'; '.join(problems)}")
            if problems:
                failures += 1
                sys.stderr.write(proc.stderr[-2000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
