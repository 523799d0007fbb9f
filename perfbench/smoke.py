"""Smoke test of the benchmark harness at minimal length.

    python3 perfbench/smoke.py

Checks, for every workload in BENCHMARK.json, that a one-second run prints
a last line with exactly the keys correct/attempted/failed/metrics, that
--trace 0 prints every end-to-end metric and --trace 1 every per-layer
metric with the declared units, that a different seed changes the inputs but
not the metric set, and that the harness refuses to run without sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(seed: int, workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit code {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict], what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{what}: failures {result['failed']}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{what}: metric set/units differ: {sorted(set(got) ^ set(units))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} is not a number"


def job_labels(workload: str, seed: int) -> list[str]:
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import run

    work = run.WORK / f"smoke-inputs-{os.getpid()}"
    try:
        rounds = run.build_rounds(workload, seed, 1, work)
        return [job.label.replace(str(work), "") for jobs in rounds for job in jobs]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in names:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            check_result(last_json(bench(1, workload, trace)), declared, f"{workload} trace {trace}")
        a, b = job_labels(workload, 1), job_labels(workload, 2)
        assert a != b, f"{workload}: seeds 1 and 2 give the same inputs"
        print(f"ok {workload}")
    check_result(last_json(bench(2, names[0], 0)), SPEC["end_to_end"], f"{names[0]} seed 2")

    bare = ROOT / ".perfbench" / f"smoke-bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench(1, names[0], 0, cwd=bare)
        assert done.returncode != 0 and '"metrics"' not in done.stdout, "ran without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
