"""logdiv benchmark runner.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One process runs one workload as a closed loop: a single
client sends the next job only when the previous one has returned, with
no think time.  The job list is generated from ``--seed``.  The loop
cycles through the list until ``--seconds`` have passed, completing at
least one full pass, and every job's output is hashed on every run.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (measured untraced); with ``--trace 1``
the same timed loop runs untraced and is followed by one traced pass over
the job list, which gives the per-layer metrics of ``layertrace.py``.
Times are in adjusted seconds (see ``Outcome.scale``).  See ``README.md``
in this directory for the metrics and workloads.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
SETUP_REPEATS = 5
PINS = HERE / "digests.json"
# Nominal time of reference_kernel(); see Outcome.scale().
REF_S = 0.0025
CALIBRATE_EVERY_S = 0.2

END_TO_END = [
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_kernel():
    """Fixed pure-Python work (a sparse product of integer polynomials held
    as dicts, then a content gcd) that uses no library code."""
    a = {(i, j): (i * 7919 + j * 104729) % 1009 - 504
         for i in range(10) for j in range(10)}
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    g = 0
    for v in out.values():
        g = math.gcd(g, v)
    return g


class Outcome:
    """Per-job timings and digests of one loop over a job list, with the
    times of reference_kernel() taken between jobs."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.times = {j.id: [] for j in jobs}
        self.digests = {j.id: set() for j in jobs}
        self.outputs = {}
        self.errors = {}
        self.attempted = 0
        self.kernel = []
        self._kernel_at = -math.inf

    def execute(self, job):
        t0 = time.perf_counter()
        if t0 - self._kernel_at >= CALIBRATE_EVERY_S:
            reference_kernel()
            self._kernel_at = time.perf_counter()
            self.kernel.append(self._kernel_at - t0)
        t0 = time.perf_counter()
        try:
            out = job.run()
        except Exception:
            out = None
            self.errors.setdefault(job.id, traceback.format_exc())
        self.times[job.id].append(time.perf_counter() - t0)
        self.attempted += 1
        if out is not None:
            self.digests[job.id].add(digest(out))
            self.outputs.setdefault(job.id, out)

    def scale(self):
        """Factor from measured seconds to adjusted seconds.

        The machine is shared and its speed drifts by tens of percent
        between runs.  Between jobs the loop times reference_kernel(), a
        fixed piece of pure-Python work.  It runs from cache and reacts to
        the machine's state about twice as strongly, on a log scale, as the
        certify and vpieces workloads, which also wait on memory; so times
        are multiplied by sqrt(REF_S / median kernel time), which over ten
        runs per workload cut the spread of wall_s from 0.17-0.34 to
        0.07-0.16 of its median (README.md).  A change to logdiv moves the
        job times but not the kernel.
        """
        return math.sqrt(REF_S / statistics.median(self.kernel))

    def medians(self):
        """Per-job median times, in adjusted seconds."""
        scale = self.scale()
        return [statistics.median(self.times[j.id]) * scale
                for j in self.jobs if self.times[j.id]]


def closed_loop(jobs, seconds):
    """Cycle through ``jobs`` until ``seconds`` have passed, finishing at
    least one full pass."""
    outcome = Outcome(jobs)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(jobs) or time.perf_counter() < deadline:
        outcome.execute(jobs[i % len(jobs)])
        i += 1
    return outcome


def one_pass(jobs):
    outcome = Outcome(jobs)
    for job in jobs:
        outcome.execute(job)
    return outcome


def failed_jobs(outcome, pins, traced=None):
    """Ids of jobs that raised, changed their digest, failed their check,
    differ from a pinned digest, or differ between traced and untraced
    runs.  Checks run here, outside every timed region."""
    bad = {}
    for job in outcome.jobs:
        reason = outcome.errors.get(job.id)
        digests = outcome.digests[job.id]
        if reason is None and len(digests) != 1:
            reason = f"output digest changed between runs: {sorted(digests)}"
        if reason is None and pins is not None and \
                pins.get(job.id) != next(iter(digests)):
            reason = f"digest {next(iter(digests))} != pinned {pins.get(job.id)}"
        if reason is None and traced is not None and \
                traced.digests[job.id] != digests:
            reason = "digest differs with tracing on"
        if reason is None:
            try:
                ok = job.check(outcome.outputs[job.id])
            except Exception:
                ok = False
                reason = "check raised:\n" + traceback.format_exc()
            if not ok and reason is None:
                reason = "check failed"
        if reason is not None:
            bad[job.id] = reason
    return bad


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def build_jobs(workloads, name, seed, smoke):
    jobs = workloads.WORKLOADS[name](random.Random(seed))
    if smoke:
        keep = workloads.SMOKE[name]
        jobs = [j for j in jobs if j.id in keep] if keep else jobs[:20]
    return jobs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("certify", "vpieces", "queries"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run a few cheap jobs of the workload (smoke test)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "logdiv" / "__init__.py").is_file():
        print(f"error: no logdiv sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import layertrace
    import workloads
    import_s = time.perf_counter() - PROCESS_START

    # Set-up: input generation plus one warm-up job, repeated; the median
    # is reported with the one-off import time.
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = build_jobs(workloads, args.workload, args.seed, args.smoke)
        jobs[0].run()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    outcome = closed_loop(jobs, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    medians = outcome.medians()
    wall_s = sum(medians)

    traced = tracer = None
    attempted = outcome.attempted
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced = one_pass(jobs)
        finally:
            tracer.uninstall()
        attempted += traced.attempted

    pins = None
    if args.seed == DEFAULT_SEED and PINS.is_file():
        pins = json.loads(PINS.read_text()).get(args.workload, {})
    bad = failed_jobs(outcome, pins, traced)
    failed = sum(len(outcome.times[j]) for j in bad)
    if traced is not None:
        failed += sum(len(traced.times[j]) for j in bad)
    for job_id, reason in sorted(bad.items()):
        print(f"FAILED {job_id}: {reason}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"{outcome.attempted} runs in the timed loop "
          f"({min(len(t) for t in outcome.times.values())}-"
          f"{max(len(t) for t in outcome.times.values())} per job)")
    print(f"fail_frac {failed / attempted:.6f} ({failed}/{attempted})")
    print(f"setup: imports {import_s:.4f} s, input generation and warm-up "
          f"{' '.join(f'{t:.4f}' for t in setups)} s (measured)")
    print(f"reference kernel median {statistics.median(outcome.kernel):.6f} s "
          f"over {len(outcome.kernel)} runs; times are measured seconds "
          f"x {outcome.scale():.4f}")
    print(f"outputs sha256 {digest(''.join(sorted(d for s in outcome.digests.values() for d in s)))}")

    if args.trace:
        values = tracer.metrics(traced.scale(), sum(traced.medians()), wall_s)
        units = {name: unit for name, unit, _ in layertrace.metric_specs()}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        # job_p90_s is printed but not gated: see README.md, "Run-to-run
        # noise".
        print(f"job_p90_s {percentile(sorted(medians), 90)} s "
              f"(over {len(medians)} jobs; not a gated metric)")
        values = {
            "wall_s": wall_s,
            "job_p50_s": statistics.median(medians),
            "setup_s": setup_s * outcome.scale(),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    for k, m in metrics.items():
        print(f"{k} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
