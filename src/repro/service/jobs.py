"""The journaled job manager behind the experiment server.

A *job* is one compiled scenario: an ordered list of
:class:`~repro.machine.ExperimentSpec` values plus bookkeeping.  The
manager runs jobs on a small worker pool with three durability/identity
contracts, all inherited from earlier layers rather than reinvented:

1. **Journal before dispatch, cache before done** (the
   :mod:`repro.experiments.sweep` ordering).  A job is appended to
   ``jobs.jsonl`` before any spec runs, each spec's outcome is appended
   only after the result is safely in the cache, and the terminal record
   comes last.  Killing the server at any instant therefore loses at most
   wall-clock time: a restarted manager adopts every non-terminal job and
   skips the specs whose outcome lines already landed.

2. **Content-addressed dedupe.**  Spec identity is
   :func:`~repro.experiments.runner.spec_key` — code version plus spec
   content.  A per-key lock registry makes concurrent submissions of the
   same spec serialize onto one execution; everyone else loads the cached
   result and is counted as a ``cache_hit`` in the job's metadata, which
   is how the dedupe is observable from the outside.

3. **Byte-stable digests.**  A job's digest is the sha256 over the
   :mod:`repro.digest` lines a sweep hashes, in submission order, so a
   service job, a ``repro sweep`` over the same grid, and the in-process
   :func:`run_direct` path all agree byte for byte when they ran the same
   specs.

State layout under the manager's ``state_dir``::

    jobs.jsonl                 append-only job journal (shared, fsynced)
    cache/                     content-addressed result cache (runner layout)
    jobs/<id>/scenario.json    the merged scenario document as compiled
    jobs/<id>/events.jsonl     per-job lifecycle events (obs-bus JSONL)
    jobs/<id>/traces/<index>/  recorded op streams for trace scenarios
"""

from __future__ import annotations

import hashlib
import itertools
import json
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.digest import digest_failure_line, digest_ok_line, outcome_line, serialize_result
from repro.experiments.runner import (
    ExperimentFailure,
    execute_guarded,
    load_cached,
    spec_key,
    store_cached,
)
from repro.ioutil import append_journal_line, atomic_write_json, read_journal
from repro.machine import ExperimentResult, ExperimentSpec
from repro.obs import Bus
from repro.obs.sinks import JsonlSink, WallClock
from repro.scenarios import CompiledScenario, ScenarioRegistry, builtin_registry, compile_scenario

__all__ = [
    "JobChaos",
    "JobError",
    "JobManager",
    "JobRecord",
    "run_direct",
]


class JobError(RuntimeError):
    """A job operation that cannot proceed (unknown id, not finished, ...)."""


def run_direct(
    compiled: CompiledScenario,
    cache_dir: Optional[Path] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Tuple[List[Union[ExperimentResult, ExperimentFailure]], str]:
    """Run a compiled scenario in-process; return (outcomes, digest).

    The direct twin of a service job: same specs, same cache protocol when
    ``cache_dir`` is given, same digest formula.  CI's service smoke test
    byte-compares this digest against the server's to prove the HTTP path
    adds no behavior.
    """
    digest = hashlib.sha256()
    outcomes: List[Union[ExperimentResult, ExperimentFailure]] = []
    for spec in compiled.specs:
        key = spec_key(spec)
        outcome: Optional[Union[ExperimentResult, ExperimentFailure]] = None
        if cache_dir is not None:
            outcome = load_cached(cache_dir, key)
        if outcome is None:
            outcome = execute_guarded(spec, timeout_s=timeout_s, retries=retries)
            if cache_dir is not None:
                store_cached(cache_dir, key, outcome)
        outcomes.append(outcome)
        digest.update(outcome_line(key, outcome).encode("utf-8"))
    return outcomes, digest.hexdigest()


# -- chaos seam --------------------------------------------------------------


@dataclass(frozen=True)
class JobChaos:
    """Declarative, test-only fault injection for the job manager.

    Mirrors the pool's ``PoolChaos``: tests describe the crash instead of
    racing a real ``SIGKILL``.  ``die_after_specs`` stops
    the manager cold after that many spec journal lines have been written
    this session — no terminal record, no event flush — which is exactly
    the on-disk state a killed server leaves behind.
    """

    die_after_specs: Optional[int] = None


class _ChaosDeath(Exception):
    """Internal: the configured chaos point fired."""


# -- per-key locks -----------------------------------------------------------


class _KeyLocks:
    """One lock per spec key, created on demand.

    ``hold(key)`` returns a context manager; ``contended`` tells the
    caller whether another worker already held the key, which is what
    distinguishes a dedup wait from a plain cache hit in job metadata.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._locks: Dict[str, threading.Lock] = {}

    def hold(self, key: str) -> "_HeldKey":
        with self._mu:
            lock = self._locks.setdefault(key, threading.Lock())
        contended = not lock.acquire(blocking=False)
        if contended:
            lock.acquire()
        return _HeldKey(lock, contended)


class _HeldKey:
    def __init__(self, lock: threading.Lock, contended: bool) -> None:
        self._lock = lock
        self.contended = contended

    def __enter__(self) -> "_HeldKey":
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


# -- job records -------------------------------------------------------------


@dataclass
class JobRecord:
    """Everything the API reports about one job."""

    id: str
    name: str
    scenario_digest: str
    total_specs: int
    status: str = "queued"  # queued | running | done | failed
    record_trace: bool = False
    adopted: bool = False
    executed: int = 0
    cache_hits: int = 0
    dedup_waits: int = 0
    failed_specs: int = 0
    done_specs: int = 0
    digest: str = ""
    error: str = ""
    submitted_at: float = 0.0
    finished_at: float = 0.0
    # per-index outcome metadata: {index, key, status, cached, digest|kind+message}
    outcomes: Dict[int, Dict[str, object]] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed")

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe copy for the API and the CLI tables."""
        data = {k: v for k, v in self.__dict__.items() if k != "outcomes"}
        data["outcomes"] = [self.outcomes[i] for i in sorted(self.outcomes)]
        return data


# -- the manager -------------------------------------------------------------


class JobManager:
    """Compile, journal, dedupe, execute, and resume experiment jobs."""

    def __init__(
        self,
        state_dir: Path,
        registry: Optional[ScenarioRegistry] = None,
        workers: int = 2,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        fsync: bool = True,
        chaos: Optional[JobChaos] = None,
        pool_workers: Optional[int] = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.registry = registry if registry is not None else builtin_registry()
        self.cache_dir = self.state_dir / "cache"
        self.jobs_dir = self.state_dir / "jobs"
        self.journal_path = self.state_dir / "jobs.jsonl"
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._workers = max(1, int(workers))
        self._pool_workers = (
            max(1, int(pool_workers)) if pool_workers is not None else self._workers
        )
        self._timeout_s = timeout_s
        self._retries = int(retries)
        self._fsync = bool(fsync)
        self._chaos = chaos or JobChaos()
        self._chaos_specs = 0  # spec journal lines written this session
        self._dead = False  # a chaos death: refuse further work
        self._mu = threading.RLock()
        self._terminal = threading.Condition(self._mu)
        self._jobs: Dict[str, JobRecord] = {}
        self._specs: Dict[str, Tuple[ExperimentSpec, ...]] = {}
        self._ids = itertools.count(1)
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._locks = _KeyLocks()
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._recover()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        with self._mu:
            if self._threads:
                return
            for index in range(self._workers):
                thread = threading.Thread(
                    target=self._worker, name=f"repro-job-worker-{index}", daemon=True
                )
                thread.start()
                self._threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop workers after their current spec; running jobs stay adoptable."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def __enter__(self) -> "JobManager":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        document: Optional[Dict[str, object]] = None,
        template: Optional[str] = None,
        name: Optional[str] = None,
    ) -> Dict[str, object]:
        """Compile and enqueue one scenario; returns the job snapshot.

        Raises :class:`repro.scenarios.ScenarioError` on a bad document —
        validation is synchronous so the submitter gets the path-precise
        error, not a failed job.
        """
        if self._dead:
            raise JobError("manager is stopped (chaos death)")
        if document is None:
            if template is None:
                raise JobError("submit needs a scenario document or a template name")
            document = self.registry.get(template)
            name = name or template
        compiled = compile_scenario(document, registry=self.registry, name=name)
        keys = tuple(spec_key(spec) for spec in compiled.specs)
        with self._mu:
            job_id = f"j-{next(self._ids):06d}"
            record = JobRecord(
                id=job_id,
                name=compiled.name,
                scenario_digest=compiled.digest,
                total_specs=len(compiled.specs),
                record_trace=compiled.record_trace,
                submitted_at=time.time(),
            )
            job_dir = self.jobs_dir / job_id
            job_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_json(job_dir / "scenario.json", compiled.document)
            # Journal before dispatch: once this line is down, a restarted
            # manager re-runs the job even if we die before the first spec.
            self._journal(
                {
                    "event": "job",
                    "id": job_id,
                    "status": "submitted",
                    "name": record.name,
                    "scenario_digest": record.scenario_digest,
                    "total_specs": record.total_specs,
                    "record_trace": record.record_trace,
                }
            )
            self._jobs[job_id] = record
            self._specs[job_id] = compiled.specs
            self._emit(job_id, "job.submitted", {"name": record.name, "specs": len(keys)})
            self._queue.put(job_id)
            return record.snapshot()

    # -- queries -------------------------------------------------------------

    def job(self, job_id: str) -> JobRecord:
        with self._mu:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise JobError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Dict[str, object]]:
        with self._mu:
            return [self._jobs[jid].snapshot() for jid in sorted(self._jobs)]

    def stats(self) -> Dict[str, int]:
        with self._mu:
            counts = {"queued": 0, "running": 0, "done": 0, "failed": 0}
            for record in self._jobs.values():
                counts[record.status] = counts.get(record.status, 0) + 1
            counts["total"] = len(self._jobs)
            return counts

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until the job reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._terminal:
            while True:
                record = self.job(job_id)
                if record.terminal:
                    return record
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise JobError(f"timed out waiting for job {job_id}")
                self._terminal.wait(timeout=remaining if remaining is not None else 0.5)

    def events_path(self, job_id: str) -> Path:
        self.job(job_id)  # raises on unknown id
        return self.jobs_dir / job_id / "events.jsonl"

    def trace_paths(self, job_id: str) -> List[Path]:
        record = self.job(job_id)
        if not record.record_trace:
            raise JobError(f"job {job_id} did not record traces")
        root = self.jobs_dir / job_id / "traces"
        return sorted(path for path in root.glob("**/*.trace") if path.is_file())

    def result_payload(self, job_id: str) -> Dict[str, object]:
        """The finished job's summary: digest plus per-spec outcome rows."""
        record = self.job(job_id)
        if not record.terminal:
            raise JobError(f"job {job_id} is still {record.status}")
        return record.snapshot()

    def serialized_text(self, job_id: str) -> str:
        """The canonical serialized results, concatenated in spec order.

        Byte-identical across any two jobs (or a direct run) that produced
        the same results — the strongest equality the service exposes.
        """
        record = self.job(job_id)
        if not record.terminal:
            raise JobError(f"job {job_id} is still {record.status}")
        specs = self._specs_for(job_id)
        parts: List[str] = []
        for index, spec in enumerate(specs):
            outcome = record.outcomes.get(index, {})
            key = str(outcome.get("key", spec_key(spec)))
            if outcome.get("status") == "ok":
                result = load_cached(self.cache_dir, key)
                if result is None:
                    raise JobError(f"cached result for spec {index} (key {key}) was pruned")
                parts.append(f"# spec {index} key={key}\n{serialize_result(result)}\n")
            else:
                kind = outcome.get("kind", "unknown")
                message = outcome.get("message", "")
                parts.append(f"# spec {index} key={key} FAILED kind={kind} message={message}\n")
        return "".join(parts)

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild job state from the journal; re-enqueue unfinished jobs."""
        submitted: Dict[str, Dict[str, object]] = {}
        spec_lines: Dict[str, Dict[int, Dict[str, object]]] = {}
        terminal: Dict[str, Dict[str, object]] = {}
        order: List[str] = []
        for entry in read_journal(self.journal_path):
            job_id = str(entry.get("id", ""))
            if not job_id:
                continue
            if entry.get("event") == "job":
                status = entry.get("status")
                if status == "submitted":
                    if job_id not in submitted:
                        order.append(job_id)
                    submitted[job_id] = entry
                elif status in ("done", "failed"):
                    terminal[job_id] = entry
            elif entry.get("event") == "spec":
                # Last record wins: a re-executed spec (cache pruned between
                # sessions) appends a fresh line that supersedes the old one.
                index = int(entry.get("index", -1))
                if index >= 0:
                    spec_lines.setdefault(job_id, {})[index] = entry
        highest = 0
        for job_id in order:
            try:
                highest = max(highest, int(job_id.split("-", 1)[1]))
            except (IndexError, ValueError):
                pass
            meta = submitted[job_id]
            record = JobRecord(
                id=job_id,
                name=str(meta.get("name", "")),
                scenario_digest=str(meta.get("scenario_digest", "")),
                total_specs=int(meta.get("total_specs", 0)),
                record_trace=bool(meta.get("record_trace", False)),
            )
            end = terminal.get(job_id)
            if end is not None:
                record.status = str(end.get("status", "done"))
                record.digest = str(end.get("digest", ""))
                record.executed = int(end.get("executed", 0))
                record.cache_hits = int(end.get("cache_hits", 0))
                record.dedup_waits = int(end.get("dedup_waits", 0))
                record.failed_specs = int(end.get("failed_specs", 0))
                record.error = str(end.get("error", ""))
                for index, line in spec_lines.get(job_id, {}).items():
                    record.outcomes[index] = self._outcome_from_line(line)
                record.done_specs = len(record.outcomes)
            else:
                # Non-terminal: adopt.  Prior spec lines become adopted
                # outcomes; the run loop skips them if their key still
                # matches (a code-version bump naturally invalidates).
                record.adopted = True
                record.status = "queued"
                for index, line in spec_lines.get(job_id, {}).items():
                    record.outcomes[index] = self._outcome_from_line(line, adopted=True)
            self._jobs[job_id] = record
        self._ids = itertools.count(highest + 1)
        for job_id in order:
            record = self._jobs[job_id]
            if record.terminal:
                continue
            if not self._load_specs(job_id):
                continue
            self._journal({"event": "job", "id": job_id, "status": "adopted"})
            self._emit(job_id, "job.adopted", {"prior_specs": len(record.outcomes)})
            self._queue.put(job_id)

    @staticmethod
    def _outcome_from_line(line: Dict[str, object], adopted: bool = False) -> Dict[str, object]:
        outcome = {
            "index": int(line.get("index", -1)),
            "key": str(line.get("key", "")),
            "status": str(line.get("status", "")),
            "cached": bool(line.get("cached", False)),
        }
        if adopted:
            outcome["adopted"] = True
        if outcome["status"] == "ok":
            outcome["digest"] = str(line.get("digest", ""))
        else:
            outcome["kind"] = str(line.get("kind", ""))
            outcome["message"] = str(line.get("message", ""))
        if "elapsed_s" in line:
            outcome["elapsed_s"] = line["elapsed_s"]
        return outcome

    def _load_specs(self, job_id: str) -> bool:
        """Recompile a recovered job's scenario document; False if lost."""
        if job_id in self._specs:
            return True
        path = self.jobs_dir / job_id / "scenario.json"
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
            compiled = compile_scenario(
                document, registry=self.registry, name=self._jobs[job_id].name
            )
        except Exception as exc:
            self._finish(job_id, "failed", error=f"scenario document unrecoverable: {exc}")
            return False
        self._specs[job_id] = compiled.specs
        return True

    def _specs_for(self, job_id: str) -> Tuple[ExperimentSpec, ...]:
        with self._mu:
            if job_id in self._specs:
                return self._specs[job_id]
        if not self._load_specs(job_id):
            raise JobError(f"scenario document for job {job_id} is unrecoverable")
        return self._specs[job_id]

    # -- execution -----------------------------------------------------------

    def _worker(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            try:
                self._run_job(job_id)
            except _ChaosDeath:
                self._dead = True
                self._stop.set()
            except Exception as exc:  # defensive: a worker must never die silently
                self._finish(job_id, "failed", error=f"internal error: {exc}")

    def _run_job(self, job_id: str) -> None:
        record = self.job(job_id)
        specs = self._specs.get(job_id)
        if specs is None:
            return  # _load_specs already failed the job during recovery
        with self._mu:
            record.status = "running"
        self._emit(job_id, "job.start", {"specs": len(specs), "adopted": record.adopted})
        digest = hashlib.sha256()
        try:
            for index, spec in enumerate(specs):
                if self._stop.is_set():
                    with self._mu:
                        record.status = "queued"  # abandoned: adoptable on restart
                    return
                key = spec_key(spec)
                serialized = self._run_spec(job_id, record, index, spec, key)
                digest.update(serialized.encode("utf-8"))
        except _ChaosDeath:
            raise
        except JobError as exc:
            self._finish(job_id, "failed", error=str(exc))
            return
        self._finish(job_id, "done", digest=digest.hexdigest())

    def _run_spec(self, job_id, record: JobRecord, index: int, spec, key: str) -> str:
        """Run (or adopt, or load) one spec; returns its digest line."""
        prior = record.outcomes.get(index)
        if prior is not None and prior.get("adopted") and prior.get("key") == key:
            if prior.get("status") == "ok":
                result = load_cached(self.cache_dir, key)
                if result is not None:
                    self._emit(job_id, "job.spec_adopted", {"index": index, "key": key})
                    with self._mu:
                        record.cache_hits += 1
                    return digest_ok_line(key, serialize_result(result))
                # Journaled ok but the cache was pruned: fall through and
                # re-execute; the fresh spec line supersedes (last wins).
            else:
                self._emit(job_id, "job.spec_adopted", {"index": index, "key": key})
                return digest_failure_line(
                    key, str(prior.get("kind", "")), str(prior.get("message", ""))
                )
        self._emit(job_id, "job.spec_start", {"index": index, "key": key})
        started = time.monotonic()
        with self._locks.hold(key) as held:
            cached = load_cached(self.cache_dir, key)
            if cached is not None:
                outcome: Union[ExperimentResult, ExperimentFailure] = cached
                was_cached = True
            else:
                outcome = self._execute(job_id, index, spec, key)
                store_cached(self.cache_dir, key, outcome)  # cache before journal
                was_cached = False
        elapsed = time.monotonic() - started
        line: Dict[str, object] = {
            "event": "spec",
            "id": job_id,
            "index": index,
            "key": key,
            "cached": was_cached,
            "elapsed_s": round(elapsed, 6),
        }
        if isinstance(outcome, ExperimentFailure):
            line.update({"status": "failure", "kind": outcome.kind, "message": outcome.message})
            digest_line = digest_failure_line(key, outcome.kind, outcome.message)
        else:
            serialized = serialize_result(outcome)
            line.update(
                {
                    "status": "ok",
                    "digest": hashlib.sha256(serialized.encode("utf-8")).hexdigest(),
                }
            )
            digest_line = digest_ok_line(key, serialized)
        self._journal(line)
        self._chaos_specs += 1
        with self._mu:
            record.outcomes[index] = self._outcome_from_line(line)
            record.done_specs = len(record.outcomes)
            if was_cached:
                record.cache_hits += 1
                if held.contended:
                    record.dedup_waits += 1
            else:
                record.executed += 1
            if line["status"] == "failure":
                record.failed_specs += 1
        self._emit(
            job_id,
            "job.spec_done",
            {"index": index, "key": key, "status": line["status"], "cached": was_cached},
        )
        if (
            self._chaos.die_after_specs is not None
            and self._chaos_specs >= self._chaos.die_after_specs
        ):
            raise _ChaosDeath()
        return digest_line

    def _execute(self, job_id, index, spec, key) -> Union[ExperimentResult, ExperimentFailure]:
        record = self._jobs[job_id]
        if not record.record_trace:
            # Route through the shared warm pool: job threads each lease a
            # worker, so interpreter startup is paid once per server, not
            # per job — and because pool workers run specs on their *main*
            # thread, the SIGALRM per-spec deadline works here, which it
            # never could on a JobManager thread.
            from repro.experiments import pool as pool_mod

            return pool_mod.get_pool(self._pool_workers).run_one(
                spec, timeout_s=self._timeout_s, retries=self._retries
            )
        # Trace scenarios run through the recorder so the op streams land
        # next to the job; the returned result is the normal live result.
        from repro.trace.record import record_experiment

        out_dir = self.jobs_dir / job_id / "traces" / str(index)
        try:
            result, _paths = record_experiment(spec, out_dir)
            result.from_cache = False
            return result
        except Exception as exc:
            return ExperimentFailure(spec, "error", str(exc))

    # -- bookkeeping ---------------------------------------------------------

    def _finish(self, job_id: str, status: str, digest: str = "", error: str = "") -> None:
        with self._mu:
            record = self._jobs.get(job_id)
            if record is None or record.terminal:
                return
            record.status = status
            record.digest = digest
            record.error = error
            record.finished_at = time.time()
            self._journal(
                {
                    "event": "job",
                    "id": job_id,
                    "status": status,
                    "digest": digest,
                    "executed": record.executed,
                    "cache_hits": record.cache_hits,
                    "dedup_waits": record.dedup_waits,
                    "failed_specs": record.failed_specs,
                    "error": error,
                }
            )
            self._terminal.notify_all()
        payload: Dict[str, object] = {"status": status}
        if digest:
            payload["digest"] = digest
        if error:
            payload["error"] = error
        self._emit(job_id, "job.finished", payload)

    def _journal(self, entry: Dict[str, object]) -> None:
        append_journal_line(self.journal_path, entry, fsync=self._fsync)

    def _emit(self, job_id: str, kind: str, payload: Dict[str, object]) -> None:
        """Append one lifecycle event to the job's events.jsonl."""
        path = self.jobs_dir / job_id / "events.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = dict(payload)
        entry["job"] = job_id
        try:
            Bus(WallClock(), [JsonlSink(path)]).emit(kind, entry)
        except OSError:
            pass  # events are best-effort observability, never correctness
