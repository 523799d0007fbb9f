"""tomolab job-stream benchmark.

    python3 perfbench/run.py --workload forward|reconstruct|studies \
        --seed N --seconds S --trace 0|1

Runs one seeded workload in this process, one job at a time (a closed loop
with one client), checks every output outside the timed region, and prints
a report whose last line is one JSON object.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs the same jobs untraced and then
traced, and reports per-layer metrics plus the tracing overhead.  Must be
started from the root of a tomolab source tree; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# The limit studies keep their own pool of at most two threads; BLAS runs on
# one, so a busy second core slows a job by its own share and no more.
THREADS = str(min(2, os.cpu_count() or 1))
THREAD_ENV = {"TOMOLAB_THREADS": THREADS, "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Seconds one round of each workload takes at this commit on a 2-core x86-64
# sandbox.  The round count of a run is derived from --seconds with these
# constants, so a (seed, seconds) pair always gives the same job list.
NOMINAL_ROUND_S = {"forward": 1.1, "reconstruct": 6.4, "studies": 1.1}
TRACE_SLOWDOWN = 1.3    # traced pass relative to the untraced one, for sizing trace runs
SETUP_SAMPLES = 7
MAX_MEASURE_S = 140.0   # stop starting rounds beyond this, to end within 180 s
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# kinds whose first job is run a second time to check byte-identical output
REPEAT_KINDS = {
    "forward": ("tomogram/coherent", "tomogram/box", "tomogram/custom"),
    "reconstruct": ("reconstruct/wigner/coherent", "reconstruct/density/coherent"),
    "studies": ("limit/planck-delta", "limit/ehrenfest-box", "compare/oscillator"),
}
# Reference speed.  The host this was built on drifts in speed by 20-30 %
# over minutes (identical inputs, identical code).  A fixed probe (numpy
# arithmetic, a fresh 32 MB array, float formatting; none of tomolab's code)
# is timed after every stretch of about PROBE_EVERY_S of jobs; each
# stretch's job times are scaled by PROBE_REF_S over the mean of the probe
# times around it, which cancels that drift.  PROBE_REF_S is the probe's
# median time on the 2-core sandbox.
PROBE_REF_S = 0.022
PROBE_REPEATS = 3
PROBE_EVERY_S = 1.0
SETUP_CODE = ("import time; t = time.perf_counter(); import tomolab.cli; "
              "print(repr(time.perf_counter() - t))")


def probe_once() -> float:
    import numpy as np

    start = time.perf_counter()
    x = np.linspace(-12.0, 12.0, 20001)
    p0 = np.exp(-0.5 * x * x)
    p1 = math.sqrt(2.0) * x * p0
    for k in range(1, 150):
        p0, p1 = p1, x * math.sqrt(2.0 / (k + 1)) * p1 - math.sqrt(k / (k + 1)) * p0
    "\n".join(f"{a:.17g},{b:.17g}" for a, b in zip(x[:3000], p1[:3000]))
    np.exp(1j * np.outer(np.linspace(0.0, 1.0, 300), np.linspace(0.0, 50.0, 300))).sum()
    big = np.full(4_000_000, 1.0)
    big *= 1.0001
    big.sum()
    return time.perf_counter() - start


def probe() -> float:
    """Median probe time now, in seconds."""
    return statistics.median(probe_once() for _ in range(PROBE_REPEATS))


def src_sloc() -> int:
    """Non-blank, non-comment lines of the Python sources under src/."""
    n = 0
    for path in sorted(SRC.rglob("*.py")):
        for line in path.read_text().splitlines():
            s = line.strip()
            n += bool(s) and not s.startswith("#")
    return n


def measure_setup(samples: int) -> float:
    """Median over fresh interpreters of the time to import the package,
    at reference speed."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    times = []
    before = probe()
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times) * PROBE_REF_S / (0.5 * (before + probe()))


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten jobs beyond it."""
    fit = [p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0]
    return fit[-1] if fit else TAIL_LADDER[0]


def dir_bytes(path: str) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def dir_digest(path: str) -> str:
    h = hashlib.sha256()
    for f in sorted(Path(path).rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(path)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


class Stream:
    """Runs jobs one at a time; times each and checks it afterwards."""

    def __init__(self, work: Path, tracer=None):
        self.work = work
        self.tracer = tracer
        self.times: list[float] = []  # job times at reference speed
        self.raw_times: list[float] = []
        self.failures: list[str] = []
        self.failed_ids: set[int] = set()
        self.digests: dict[int, str] = {}

    def run_one(self, job_id: int, job, keep_digest: bool = False) -> tuple[float, str | None]:
        out = str(self.work / f"j{job_id}")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        if self.tracer is not None:
            self.tracer.begin_job(job_id)
        error, result = None, None
        start = time.perf_counter()
        try:
            result = job.run(out)
        except Exception as exc:  # a raising job is a failed job; keep running the stream
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.end_job(job.kind, error is not None)
        if error is None:
            try:
                error = job.check(out, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if self.tracer is not None:
            self.tracer.add_count("kernel", "bytes_written", dir_bytes(out))
        if keep_digest and error is None:
            self.digests[job_id] = dir_digest(out)
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, error

    def warm_up(self, jobs: list) -> None:
        """Run jobs once, untimed and unchecked, so lazy imports and the
        allocator's first growth are paid before timing starts."""
        for job in jobs:
            out = str(self.work / "warm-up")
            os.makedirs(out, exist_ok=True)
            try:
                job.run(out)
            except Exception:
                pass  # the timed run reports it
            shutil.rmtree(out, ignore_errors=True)

    def run(self, rounds: list[list], repeat_ids: set[int], deadline: float) -> int:
        """Run whole rounds until done or past the deadline; returns rounds run.
        Job times are scaled to reference speed stretch by stretch, with the
        probe times taken just before and just after each stretch."""
        job_id = 0
        before, stretch = probe(), []

        def close_stretch():
            nonlocal before, stretch
            after = probe()
            scale = PROBE_REF_S / (0.5 * (before + after))
            self.raw_times.extend(stretch)
            self.times.extend(t * scale for t in stretch)
            before, stretch = after, []

        for r, jobs in enumerate(rounds):
            if r and time.perf_counter() > deadline:
                break
            for job in jobs:
                elapsed, error = self.run_one(job_id, job, keep_digest=job_id in repeat_ids)
                stretch.append(elapsed)
                if error:
                    self.fail(job_id, job, error)
                job_id += 1
                if sum(stretch) >= PROBE_EVERY_S:
                    close_stretch()
        else:
            r = len(rounds)
        if stretch:
            close_stretch()
        return r

    def recheck_determinism(self, rounds: list[list]) -> None:
        """Run each kept job again into the same directory and compare bytes."""
        flat = [job for jobs in rounds for job in jobs]
        for job_id, digest in sorted(self.digests.items()):
            job = flat[job_id]
            out = str(self.work / f"j{job_id}")
            os.makedirs(out, exist_ok=True)
            try:
                job.run(out)
                same = dir_digest(out) == digest
            except Exception:
                same = False
            shutil.rmtree(out, ignore_errors=True)
            if not same:
                self.fail(job_id, job, "repeated run not byte-identical")

    def fail(self, job_id: int, job, error: str) -> None:
        self.failed_ids.add(job_id)
        self.failures.append(f"job {job_id} {job.kind}: {error} [{job.label}]")


def repeat_ids(workload: str, rounds: list[list]) -> set[int]:
    wanted = set(REPEAT_KINDS[workload])
    ids, job_id = set(), 0
    for jobs in rounds:
        for job in jobs:
            if job.kind in wanted:
                ids.add(job_id)
                wanted.discard(job.kind)
            job_id += 1
    return ids


def warm_up_jobs(rounds: list[list]) -> list:
    """One job of each kind of the first round, skipping kinds that occur
    only once per run."""
    counts: dict[str, int] = {}
    for jobs in rounds:
        for job in jobs:
            counts[job.kind] = counts.get(job.kind, 0) + 1
    first = {}
    for job in rounds[0]:
        if counts[job.kind] > 1:
            first.setdefault(job.kind, job)
    return list(first.values())


def build_rounds(workload: str, seed: int, n_rounds: int, inputs: Path):
    import numpy as np
    import workloads

    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(workloads.WORKLOADS).index(workload)])
    return workloads.WORKLOADS[workload](rng, n_rounds, str(inputs))


def report_failures(failures: list[str]) -> None:
    for line in failures[:20]:
        print(f"FAILED {line}")
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failures")


def end_to_end(args, work: Path) -> dict:
    setup_s = measure_setup(SETUP_SAMPLES)
    import numpy as np
    import tomolab.cli  # noqa: F401  (the package import setup_s measures, paid once here)

    n_rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    rounds = build_rounds(args.workload, args.seed, n_rounds, work / "inputs")
    stream = Stream(work)
    stream.warm_up(warm_up_jobs(rounds))
    done = stream.run(rounds, repeat_ids(args.workload, rounds), time.perf_counter() + MAX_MEASURE_S)
    stream.recheck_determinism(rounds[:done])

    times = stream.times
    n = len(times)
    pct = tail_percentile(n)
    tail = float(np.percentile(times, pct))
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (n / sum(times), "1/s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "job_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failed = len(stream.failed_ids)
    print(f"workload {args.workload}, seed {args.seed}: {n} jobs in {done} rounds, "
          f"{sum(stream.raw_times):.2f} s busy ({sum(times):.2f} s at reference speed), "
          f"one client, closed loop, {THREADS} threads at most")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:12.4f} {unit}")
    print(f"  job_tail_ms is p{pct:g} of {n} jobs ({n - math.ceil(n * pct / 100)} jobs beyond it)")
    print(f"  failed_frac  {failed / n:12.4f}  ({failed} of {n} jobs)")
    print(f"  src_sloc     {src_sloc():12d}  (information, not gated)")
    report_failures(stream.failures)
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced(args, work: Path) -> dict:
    import tomolab.cli  # noqa: F401
    import tracer as tr

    n_rounds = max(1, round(args.seconds / ((1.0 + TRACE_SLOWDOWN) * NOMINAL_ROUND_S[args.workload])))
    rounds = build_rounds(args.workload, args.seed, n_rounds, work / "inputs")
    deadline = time.perf_counter() + MAX_MEASURE_S / 2
    plain = Stream(work)
    plain.warm_up(warm_up_jobs(rounds))
    done = plain.run(rounds, set(), deadline)
    rounds = rounds[:done]
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced_stream = Stream(work, tracer)
        traced_stream.run(rounds, set(), math.inf)
    finally:
        tracer.uninstall()
    WORK.mkdir(exist_ok=True)
    tracer.write(str(WORK / f"trace-{args.workload}-seed{args.seed}.json"))

    summary = tracer.layer_summary()
    # the overhead compares the passes at reference speed; the shares compare
    # raw span times with the raw traced job time
    wall_plain, wall_traced = sum(plain.times), sum(traced_stream.times)
    overhead = wall_traced - wall_plain
    raw_traced = sum(traced_stream.raw_times)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain.times)} jobs in {done} rounds; "
          f"at reference speed untraced {wall_plain:.3f} s, traced {wall_traced:.3f} s, "
          f"tracing overhead {overhead:+.3f} s ({100 * overhead / wall_plain:+.1f} %); "
          f"traced job time {raw_traced:.3f} s raw")
    print(f"{'layer':<24}{'calls':>10}{'self_s':>12}{'share':>9}{'failed':>8}")
    for layer, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        name = "(outside any layer)" if layer == tr.JOB_LAYER else layer
        print(f"{name:<24}{row['calls']:>10d}{row['self_s']:>12.4f}"
              f"{100 * row['self_s'] / raw_traced:>8.1f}%{row['failed']:>8d}")
    print("self times and shares are raw (not scaled); shares are of the traced job time, "
          "and worker-thread spans can push their sum past 100 %")

    metrics = tr.layer_metrics(summary)
    metrics["trace.overhead_s"] = overhead
    metrics["src.sloc"] = src_sloc()
    width = max(map(len, metrics))
    for name, value in metrics.items():
        print(f"  {name:<{width}} {value:.6g}")
    failures = plain.failures + traced_stream.failures
    report_failures(failures)
    units = {"calls": "count", "self_s": "s", "failed": "count", "tensor_mb": "MB",
             "fill_ratio": "ratio", "bytes_written": "bytes", "overhead_s": "s"}
    attempted = len(plain.times) + len(traced_stream.times)
    failed = len(plain.failed_ids) + len(traced_stream.failed_ids)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units.get(k.rsplit(".", 1)[1], "count")}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tomolab" / "cli.py").is_file():
        print(f"no tomolab sources under {SRC}; run from a tomolab checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    work = WORK / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = (traced if args.trace else end_to_end)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
