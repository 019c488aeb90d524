#!/usr/bin/env python
"""CI check: a SIGKILLed sweep resumes to a byte-identical merged digest.

Three phases:

1. **Clean run** — a pooled synthetic sweep (successes *and* failures)
   runs uninterrupted; its merged digest is the reference.
2. **Kill/resume** — the same sweep starts in a subprocess, is SIGKILLed
   once real progress is journaled, and is then resumed in-process.  The
   resumed digest (and outcome counts) must equal the clean run's, and
   the journal must show the kill actually landed mid-flight.

   In both phases ``run_sweep`` hashes slots as their outcomes land, and
   ``collect_report`` over the finished checkpoint must recompute the
   digest it returned: streamed and recomputed agree across a SIGKILL.
3. **Scale** — a 10k-spec synthetic sweep completes inline with bounded
   peak memory, exercising the streaming digest and O(1)-per-spec
   journal path.

Exits non-zero with a diagnostic on any mismatch.  Run from the repo
root with ``PYTHONPATH=src``.
"""

import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.sweep import (
    SweepOptions,
    collect_report,
    run_sweep,
    sweep_status,
    synthetic_specs,
)
from repro.ioutil import read_journal

SPEC_COUNT = 40
FAIL_EVERY = 11
SLEEP_S = 0.12

_CHILD_SCRIPT = """
import sys
from repro.experiments.sweep import SweepOptions, run_sweep, synthetic_specs

run_sweep(
    synthetic_specs({count}, fail_every={fail_every}, sleep_s={sleep_s}),
    sys.argv[1],
    options=SweepOptions(jobs=2),
)
"""


def fail(message: str) -> None:
    print(f"sweep-resume-check: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_recomputed(specs, state: Path, streamed: str) -> None:
    """``collect_report`` over the checkpoint must match the streamed digest."""
    recomputed = collect_report(specs, state).digest
    if recomputed != streamed:
        fail(
            f"collect_report over {state.name} recomputed {recomputed}, but "
            f"run_sweep streamed {streamed}"
        )


def clean_run(root: Path) -> tuple:
    specs = synthetic_specs(SPEC_COUNT, fail_every=FAIL_EVERY, sleep_s=SLEEP_S)
    report = run_sweep(
        specs,
        root / "clean",
        options=SweepOptions(jobs=2, fsync_journal=False),
    )
    check_recomputed(specs, root / "clean", report.digest)
    print(f"clean run: {report.counts()} digest={report.digest[:16]}…")
    return report.digest, report.counts()


def kill_resume_run(root: Path) -> tuple:
    state = root / "interrupted"
    script = _CHILD_SCRIPT.format(
        count=SPEC_COUNT, fail_every=FAIL_EVERY, sleep_s=SLEEP_S
    )
    child = subprocess.Popen([sys.executable, "-c", script, str(state)])
    journal = state / "journal.jsonl"
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if journal.exists() and len(read_journal(journal)) >= 5:
            break
        if child.poll() is not None:
            fail("the child sweep finished before it could be killed")
        time.sleep(0.02)
    else:
        fail("the child sweep never journaled enough progress to kill")
    child.send_signal(signal.SIGKILL)
    child.wait(timeout=15)
    done_at_kill = len(read_journal(journal))
    if not 0 < done_at_kill < SPEC_COUNT:
        fail(
            f"SIGKILL did not land mid-flight ({done_at_kill} of "
            f"{SPEC_COUNT} journaled)"
        )
    print(f"killed the orchestrator with {done_at_kill}/{SPEC_COUNT} journaled")

    specs = synthetic_specs(SPEC_COUNT, fail_every=FAIL_EVERY, sleep_s=SLEEP_S)
    report = run_sweep(
        specs,
        state,
        options=SweepOptions(jobs=2, fsync_journal=False),
        resume=True,
    )
    status = sweep_status(state)
    if status["pending"] != 0:
        fail(f"resume left {status['pending']} specs pending")
    check_recomputed(specs, state, report.digest)
    print(f"resumed run: {report.counts()} digest={report.digest[:16]}…")
    return report.digest, report.counts()


def scale_run(root: Path) -> None:
    started = time.monotonic()
    report = run_sweep(
        synthetic_specs(10_000, fail_every=997),
        root / "scale",
        options=SweepOptions(fsync_journal=False),
    )
    elapsed = time.monotonic() - started
    counts = report.counts()
    if counts["total"] != 10_000 or counts["failure"] != 10_000 // 997:
        fail(f"10k-spec sweep miscounted: {counts}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"10k-spec sweep: {elapsed:.1f}s, peak RSS {peak_mb:.0f} MB")
    # The streaming report must not hold 10k results; leave generous
    # headroom over the interpreter's baseline for CI runner variance.
    if peak_mb > 512:
        fail(f"10k-spec sweep peaked at {peak_mb:.0f} MB (budget 512 MB)")


def main() -> int:
    os.environ.setdefault("PYTHONPATH", "src")
    with tempfile.TemporaryDirectory(prefix="sweep-resume-check-") as tmp:
        root = Path(tmp)
        clean_digest, clean_counts = clean_run(root)
        resumed_digest, resumed_counts = kill_resume_run(root)
        if resumed_digest != clean_digest:
            fail(
                "kill/resume digest diverged from the uninterrupted run: "
                f"{resumed_digest} != {clean_digest}"
            )
        if resumed_counts != clean_counts:
            fail(
                f"kill/resume outcome counts diverged: {resumed_counts} != "
                f"{clean_counts}"
            )
        scale_run(root)
    print(
        "sweep-resume-check: OK (kill/resume digest equivalence holds; "
        "collect_report recomputes the streamed digests)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
