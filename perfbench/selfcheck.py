"""Self-checks for the benchmark.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Checks that metric names are well formed and match ``BENCHMARK.json``,
that every workload emits each metric it claims with its unit, that a
tampered result trips the digest check, that changing the seed changes every
spec key, that ``served`` sees no cache hits or dedup waits, and that the
benchmark refuses to run without the sources.  Takes about two minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import physics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def check_registry() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    names = list(declared["end_to_end"]) + list(declared["per_layer"])
    expect(all(NAME.fullmatch(n) for n in names), "every metric name matches [A-Za-z0-9_.-]+")
    expect(len(names) == len(set(names)), "metric names are unique")
    expect(declared["end_to_end"] == run.END_TO_END_UNITS,
           "BENCHMARK.json end_to_end matches run.py")
    expect(declared["per_layer"] == run.per_layer_units(),
           "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json names the four workloads")
    return declared


def run_workload(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def check_emission(declared: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(workload, trace)
            if "error" in result:
                expect(False, f"{workload} --trace {trace} runs: {result['error']}")
                continue
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == declared[kind],
                   f"{workload} --trace {trace} emits every {kind} metric with its unit")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} --trace {trace} is correct with no failures")
            if workload == "served" and trace == 1:
                metrics = result["metrics"]
                expect(metrics["service.cache_hits"]["value"] == 0
                       and metrics["service.dedup_waits"]["value"] == 0,
                       "served ends with no cache hits and no dedup waits")


def check_tamper() -> None:
    from repro.config import tiny
    from repro.experiments.harness import multiprogram_spec
    from repro.machine import run_experiment

    checker = run.Checker("served", 0, ROOT / ".perfbench" / "state")
    result = run_experiment(multiprogram_spec(tiny(), "MATVEC", "R"))
    outcome = workloads.PassOutcome()
    outcome.labels, outcome.texts = ["MATVEC-R"], [physics.physics_text(result)]
    expect(checker.check_digests(outcome) == 0,
           "an in-process run matches the pinned served digest")
    result.vm.daemon_runs += 1
    outcome.texts = [physics.physics_text(result)]
    expect(checker.check_digests(outcome) == 1, "a tampered result trips the digest check")
    pins = checker.pins
    expect(pins["replay"] == pins["mix"], "the pinned replay digest equals the mix digest")


def check_seed_changes_keys() -> None:
    from repro.experiments.runner import spec_key

    tmp = ROOT / ".perfbench" / "tmp" / "selfcheck"
    for name, cls in workloads.WORKLOADS.items():
        keys = [{spec_key(s) for s in cls(ROOT, tmp, seed, 2).specs()} for seed in (0, 1)]
        expect(keys[0].isdisjoint(keys[1]) and len(keys[0]) == len(keys[1]),
               f"{name}: changing the seed changes every spec key")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench" / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mix", "--seconds", "1"],
        cwd=str(bare), capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without the sources the benchmark exits non-zero and prints no result")


def main() -> int:
    declared = check_registry()
    check_tamper()
    check_seed_changes_keys()
    check_refuses_without_sources()
    check_emission(declared)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
