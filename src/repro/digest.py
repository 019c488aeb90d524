"""Canonical result text and the per-spec digest lines every surface hashes.

A merged digest is the SHA-256 over one line per spec, in input order:
``ok key=<key>\\n<serialize_result>\\n`` for an experiment result,
``ok key=<key> synthetic=<repr>\\n`` for a synthetic sweep cell, and
``failure key=<key> kind=<kind> message=<message>\\n`` for a failure.  The
ok line embeds the canonical serialized result, which makes the digest a
statement about result *bytes*, not just completion.  A sweep (inline or
on the warm pool), a service job and the in-process ``run_direct`` path
all build their digests from these functions, so they agree byte for
byte whenever they ran the same specs.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentFailure
from repro.machine import ExperimentResult

__all__ = [
    "digest_failure_line",
    "digest_ok_line",
    "outcome_line",
    "physics_text",
    "serialize_result",
]


def serialize_result(result: ExperimentResult) -> str:
    """A canonical, byte-stable string of everything the figures read.

    Two runs of the same spec must produce identical strings; the
    determinism regression test compares these directly.  It is
    :func:`physics_text` plus an ``engine_steps=`` line after
    ``elapsed_s=`` (the service's ``/serialized`` body carries it).
    """
    return _format_result(result, with_steps=True)


def physics_text(result: ExperimentResult) -> str:
    """:func:`serialize_result` without its ``engine_steps=`` line.

    The physics a run's figures read — simulated time, per-process buckets,
    VM / swap / run-time stats and sweeps — independent of how many engine
    dispatches produced it.  The golden tests pin its digest separately
    from the dispatch count, so an event-count change is judged at equal
    physics.
    """
    return _format_result(result, with_steps=False)


def _format_result(result: ExperimentResult, with_steps: bool) -> str:
    # Dataclass reprs are stable and cover every field, so they are used
    # for the nested stat objects.
    parts = [f"scale={result.scale}", f"elapsed_s={result.elapsed_s!r}"]
    if with_steps:
        parts.append(f"engine_steps={result.engine_steps}")
    parts += [f"vm={result.vm!r}", f"swap={sorted(result.swap.items())!r}"]
    for process in result.processes:
        parts.append(
            "process "
            f"name={process.name} workload={process.workload} "
            f"version={process.version} completed={process.completed} "
            f"interactive={process.interactive} "
            f"sleep_time_s={process.sleep_time_s!r} "
            f"buckets={process.buckets!r} stats={process.stats!r} "
            f"worker_buckets={process.worker_buckets!r} "
            f"runtime={process.runtime!r} sweeps={process.sweeps!r}"
        )
    return "\n".join(parts)


def digest_ok_line(key: str, serialized: str) -> str:
    return f"ok key={key}\n{serialized}\n"


def digest_failure_line(key: str, kind: str, message: str) -> str:
    return f"failure key={key} kind={kind} message={message}\n"


def outcome_line(key: str, outcome: object) -> str:
    """The digest line of one spec's outcome: a result or a failure."""
    if isinstance(outcome, ExperimentFailure):
        return digest_failure_line(key, outcome.kind, outcome.message)
    if isinstance(outcome, ExperimentResult):
        return digest_ok_line(key, serialize_result(outcome))
    return f"ok key={key} synthetic={outcome!r}\n"
