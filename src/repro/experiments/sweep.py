"""Resilient sweep orchestration: sharded, checkpointed, crash-tolerant grids.

The paper's results are sweeps — every figure is a grid of memory sizes ×
benchmarks × policies — and the fault layer multiplies that grid by fault
seeds.  :func:`~repro.experiments.runner.run_specs` executes such a grid in
one fragile pass: kill the process and every non-cached cell is lost, and a
single pathological spec can stall the whole run.  This module layers a
durable orchestrator on top of the runner's guarded-execution primitive:

- **Checkpoint journal** — every per-spec outcome (success, structured
  failure, quarantine) is appended to ``<state_dir>/journal.jsonl`` via the
  single-write append contract of :mod:`repro.ioutil`; successes land in a
  content-addressed cache under ``<state_dir>/cache/<shard>/``.  A sweep
  SIGKILLed mid-flight resumes from the journal and produces merged
  results byte-identical to an uninterrupted run (simulations are
  deterministic; the digest covers every slot in input order).

- **Sharded execution** — worker processes ("shards") are fed over private
  pipes by the orchestrator, which dispatches to whichever shard is idle:
  a pull model that load-balances exactly like a work-stealing queue while
  keeping every queue endpoint single-reader/single-writer, so killing one
  worker can never deadlock another's queue.  Each shard writes results
  into its own cache namespace, so two shards never contend on a rename.

- **Containment beyond the runner's** — the per-spec ``SIGALRM`` deadline
  catches tight Python loops; the orchestrator adds a heartbeat watchdog
  for what SIGALRM cannot interrupt (a worker wedged in C code or an
  uninterruptible syscall): a busy shard whose beats stop for
  ``hang_timeout_s`` is killed, its spec requeued once, then quarantined
  as a poison spec.  Worker deaths (segfault, OOM kill) get the same
  requeue-once-then-quarantine treatment.  Retryable failures back off
  exponentially with *deterministic* jitter (derived from the spec key, so
  schedules replay).  Per-shard wall-clock SLOs stop a shard from claiming
  new work once its budget is spent; a ``max_failures`` budget lets a
  sweep degrade gracefully into failure slots and aborts — resumably —
  only when the budget is exhausted.

``repro sweep run|resume|status`` is the CLI surface;
:mod:`repro.experiments.ensemble` builds Monte Carlo fault ensembles on
top of :func:`run_sweep`.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SimScale, paper, small, tiny
from repro.faults import EMPTY_PLAN, FaultPlan
from repro.ioutil import append_journal_line, atomic_open, atomic_write_json, read_journal
from repro.machine import ExperimentResult, ExperimentSpec, SpecError
from repro.obs import Bus, JsonlSink, Sink, WallClock
from repro.experiments import wire
from repro.experiments.runner import execute_guarded, spec_key

__all__ = [
    "EMPTY_CHAOS",
    "SweepAborted",
    "SweepChaos",
    "SweepError",
    "SweepOptions",
    "SweepOutcome",
    "SweepReport",
    "SyntheticResult",
    "SyntheticSpec",
    "backoff_delay",
    "collect_report",
    "expand_grid",
    "run_sweep",
    "specs_from_meta",
    "sweep_spec_key",
    "sweep_status",
    "synthetic_specs",
]

JOURNAL_NAME = "journal.jsonl"
META_NAME = "meta.json"
EVENTS_NAME = "events.jsonl"
CACHE_DIRNAME = "cache"

#: How many times a crashed/hung spec goes back to the queue before it is
#: quarantined as poison.  The paper's simulations are deterministic, so
#: one requeue distinguishes environmental flakes (OOM kill, stray signal)
#: from specs that reliably take their worker down.
REQUEUE_LIMIT = 1

_SCALES = {"tiny": tiny, "small": small, "paper": paper}


class SweepError(RuntimeError):
    """A sweep that cannot be run, resumed, or collected."""


class SweepAborted(SweepError):
    """The ``max_failures`` budget was exhausted; the sweep is resumable."""

    def __init__(self, failures: int, budget: int) -> None:
        self.failures = failures
        self.budget = budget
        super().__init__(
            f"sweep aborted: {failures} failures exceeded the budget of "
            f"{budget}; raise --max-failures and resume"
        )


# -- synthetic specs --------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """A no-op spec for exercising the orchestrator itself at scale.

    Executes in microseconds (optionally sleeping ``sleep_s`` to model a
    slow cell, or failing deterministically with ``fail=True``), so a
    10k-spec sweep stresses the journal, the shards, and the watchdog —
    not the simulator.
    """

    index: int
    payload: str = "noop"
    sleep_s: float = 0.0
    fail: bool = False


@dataclass
class SyntheticResult:
    """What a :class:`SyntheticSpec` produces; cached like a real result."""

    key: str
    index: int
    value: int
    from_cache: bool = False


# Synthetic cells ride the pool's zero-pickle wire frames like any other
# spec; registering here keeps the wire registry free of a sweep import.
wire.register(SyntheticSpec)
wire.register(SyntheticResult)


def synthetic_specs(
    count: int, fail_every: int = 0, sleep_s: float = 0.0
) -> List[SyntheticSpec]:
    """``count`` distinct no-op specs; every ``fail_every``-th one fails."""
    if count < 1:
        raise SweepError(f"synthetic spec count must be >= 1, got {count}")
    return [
        SyntheticSpec(
            index=i,
            sleep_s=sleep_s,
            fail=bool(fail_every) and (i + 1) % fail_every == 0,
        )
        for i in range(count)
    ]


AnySpec = Union[ExperimentSpec, SyntheticSpec]


def sweep_spec_key(spec: AnySpec) -> str:
    """Content key for any sweep cell (experiment or synthetic)."""
    if isinstance(spec, SyntheticSpec):
        digest = hashlib.sha256()
        digest.update(b"synthetic/")
        digest.update(repr(spec).encode())
        return digest.hexdigest()
    return spec_key(spec)


def _run_synthetic(spec: SyntheticSpec) -> SyntheticResult:
    if spec.sleep_s > 0:
        time.sleep(spec.sleep_s)
    if spec.fail:
        raise RuntimeError(f"synthetic failure (spec {spec.index})")
    key = sweep_spec_key(spec)
    return SyntheticResult(key=key, index=spec.index, value=int(key[:8], 16))


# -- chaos (orchestrator-level fault injection, test-only) ------------------


@dataclass(frozen=True)
class SweepChaos:
    """Fault injection for the orchestrator itself, in the spirit of
    :mod:`repro.faults`: declarative, deterministic, zero machinery when
    empty.

    ``crash_keys`` makes a worker die (``os._exit``) when it picks up one
    of those specs; ``hang_keys`` makes it wedge with its heartbeat thread
    silenced — exactly the beyond-SIGALRM hang the watchdog exists for.
    Injection applies only while the task's attempt number is
    ``<= max_attempt``, so ``max_attempt=1`` models an environmental flake
    (the requeue succeeds) and the default models a poison spec (the
    requeue fails too, forcing quarantine).  Chaos is honored only inside
    shard workers — never inline — so it cannot take the orchestrator down.
    """

    crash_keys: Tuple[str, ...] = ()
    hang_keys: Tuple[str, ...] = ()
    max_attempt: int = 10**9
    hang_s: float = 3600.0

    @property
    def enabled(self) -> bool:
        return bool(self.crash_keys or self.hang_keys)


EMPTY_CHAOS = SweepChaos()


# -- options and outcomes ---------------------------------------------------


@dataclass(frozen=True)
class SweepOptions:
    """Everything that shapes a sweep's execution (not its results).

    None of these fields participates in the merged digest: a sweep run
    with 1 shard and one run with 8 merge byte-identically.
    """

    jobs: int = 1
    batch_size: int = 1
    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_base_s: float = 0.25
    heartbeat_s: float = 1.0
    hang_timeout_s: Optional[float] = None
    shard_slo_s: Optional[float] = None
    max_failures: Optional[int] = None
    progress_every: int = 50
    fsync_journal: bool = True
    chaos: SweepChaos = EMPTY_CHAOS

    def validate(self) -> None:
        if self.jobs < 1:
            raise SweepError(f"jobs must be >= 1, got {self.jobs}")
        if self.batch_size < 1:
            raise SweepError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.retries < 0:
            raise SweepError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SweepError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.backoff_base_s < 0:
            raise SweepError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.heartbeat_s <= 0:
            raise SweepError(f"heartbeat_s must be positive, got {self.heartbeat_s}")
        if self.hang_timeout_s is not None and self.hang_timeout_s <= 0:
            raise SweepError(
                f"hang_timeout_s must be positive, got {self.hang_timeout_s}"
            )
        if self.shard_slo_s is not None and self.shard_slo_s <= 0:
            raise SweepError(f"shard_slo_s must be positive, got {self.shard_slo_s}")
        if self.max_failures is not None and self.max_failures < 0:
            raise SweepError(f"max_failures must be >= 0, got {self.max_failures}")


def backoff_delay(key: str, attempt: int, base_s: float) -> float:
    """Exponential backoff with deterministic jitter for one retry.

    ``base_s * 2**(attempt-1) * (1 + j)`` where ``j ∈ [0, 1)`` is derived
    from ``(key, attempt)`` via SHA-256 — the same spec retries on the
    same schedule in every run, so retry storms de-synchronize *and*
    replays stay reproducible (no wall-clock entropy).
    """
    digest = hashlib.sha256(f"{key}/backoff/{attempt}".encode()).digest()
    jitter = int.from_bytes(digest[:4], "big") / 2**32
    return base_s * (2 ** max(0, attempt - 1)) * (1.0 + jitter)


@dataclass
class SweepOutcome:
    """One journal-backed terminal outcome, aligned to its spec's slot."""

    index: int
    key: str
    status: str  # "ok" | "failure" | "quarantined"
    kind: Optional[str] = None  # for failures: error | timeout | crash | hang
    message: Optional[str] = None
    attempts: int = 1
    shard: Optional[str] = None  # cache namespace holding the result (ok only)
    elapsed_s: Optional[float] = None

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    def digest_line(self) -> str:
        """The canonical per-slot string the merged digest hashes.

        Excludes attempts/shard/elapsed on purpose: how a result was
        obtained (which shard, how many retries, how long it took) must
        not perturb the merged identity — only *what* was obtained.
        """
        if self.status == "ok":
            raise SweepError("digest_line for a success needs the cached result")
        return f"failure key={self.key} kind={self.kind} message={self.message}"


@dataclass
class SweepReport:
    """What :func:`run_sweep` returns: every slot plus the merged digest."""

    outcomes: List[SweepOutcome]
    digest: str
    state_dir: Optional[Path] = None
    aborted: bool = False

    @property
    def ok(self) -> List[SweepOutcome]:
        return [o for o in self.outcomes if o.status == "ok"]

    @property
    def failures(self) -> List[SweepOutcome]:
        return [o for o in self.outcomes if o.failed]

    def counts(self) -> Dict[str, int]:
        out = {"total": len(self.outcomes), "ok": 0, "failure": 0, "quarantined": 0}
        for outcome in self.outcomes:
            out[outcome.status] += 1
        return out


# -- state directory --------------------------------------------------------


@dataclass
class _State:
    """Resolved paths plus the sweep's identity (from ``meta.json``)."""

    root: Path
    journal: Path
    events: Path
    cache: Path
    meta: Dict[str, object] = field(default_factory=dict)


def _keys_digest(keys: Sequence[str]) -> str:
    digest = hashlib.sha256()
    for key in keys:
        digest.update(key.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _open_state(
    state_dir: os.PathLike,
    keys: Sequence[str],
    resume: bool,
    describe: Optional[Dict[str, object]] = None,
) -> _State:
    root = Path(state_dir)
    state = _State(
        root=root,
        journal=root / JOURNAL_NAME,
        events=root / EVENTS_NAME,
        cache=root / CACHE_DIRNAME,
    )
    meta_path = root / META_NAME
    signature = _keys_digest(keys)
    if meta_path.exists():
        import json

        with meta_path.open("r", encoding="utf-8") as handle:
            meta = json.load(handle)
        if meta.get("keys_digest") != signature or meta.get("count") != len(keys):
            raise SweepError(
                f"{root} holds a different sweep ({meta.get('count')} specs, "
                f"keys digest {str(meta.get('keys_digest'))[:12]}…); refusing "
                "to mix checkpoints"
            )
        if not resume:
            raise SweepError(
                f"{root} already holds this sweep's checkpoint; use "
                "`repro sweep resume` (or resume=True) to continue it"
            )
        state.meta = meta
        return state
    if resume:
        raise SweepError(f"no sweep checkpoint at {root} (missing {META_NAME})")
    meta = {
        "version": 1,
        "count": len(keys),
        "keys_digest": signature,
    }
    if describe:
        meta.update(describe)
    root.mkdir(parents=True, exist_ok=True)
    atomic_write_json(meta_path, meta)
    state.meta = meta
    return state


def _namespace_dir(state: _State, namespace: str) -> Path:
    return state.cache / namespace


def _store_result(state: _State, namespace: str, key: str, result: object) -> None:
    # Mirrors the runner's cache contract: successes only, atomic rename.
    if not isinstance(result, (ExperimentResult, SyntheticResult)):
        return
    path = _namespace_dir(state, namespace) / f"{key}.pkl"
    with atomic_open(path, "wb") as handle:
        pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)


def _load_result(state: _State, namespace: str, key: str) -> Optional[object]:
    path = _namespace_dir(state, namespace) / f"{key}.pkl"
    try:
        with path.open("rb") as handle:
            result = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return None
    if not isinstance(result, (ExperimentResult, SyntheticResult)):
        return None
    if isinstance(result, ExperimentResult):
        result.from_cache = True
    return result


def _find_cached(state: _State, key: str) -> Optional[Tuple[str, object]]:
    """Search every shard namespace for ``key`` (newest layout first)."""
    if not state.cache.is_dir():
        return None
    try:
        namespaces = sorted(p.name for p in state.cache.iterdir() if p.is_dir())
    except FileNotFoundError:
        return None
    for namespace in namespaces:
        result = _load_result(state, namespace, key)
        if result is not None:
            return namespace, result
    return None


# -- journal ----------------------------------------------------------------


def _journal_outcome(state: _State, outcome: SweepOutcome, fsync: bool) -> None:
    record: Dict[str, object] = {
        "event": "spec",
        "index": outcome.index,
        "key": outcome.key,
        "status": outcome.status,
        "attempts": outcome.attempts,
    }
    if outcome.kind is not None:
        record["kind"] = outcome.kind
    if outcome.message is not None:
        record["message"] = outcome.message
    if outcome.shard is not None:
        record["shard"] = outcome.shard
    if outcome.elapsed_s is not None:
        record["elapsed_s"] = round(outcome.elapsed_s, 6)
    append_journal_line(state.journal, record, fsync=fsync)


def _load_journal_outcomes(state: _State) -> Dict[int, SweepOutcome]:
    """Terminal outcomes by spec index (first terminal record wins)."""
    outcomes: Dict[int, SweepOutcome] = {}
    try:
        records = read_journal(state.journal)
    except ValueError as exc:
        raise SweepError(str(exc)) from exc
    for record in records:
        if record.get("event") != "spec":
            continue
        index = record.get("index")
        if not isinstance(index, int) or index in outcomes:
            continue
        outcomes[index] = SweepOutcome(
            index=index,
            key=str(record.get("key")),
            status=str(record.get("status")),
            kind=record.get("kind"),  # type: ignore[arg-type]
            message=record.get("message"),  # type: ignore[arg-type]
            attempts=int(record.get("attempts", 1)),
            shard=record.get("shard"),  # type: ignore[arg-type]
            elapsed_s=record.get("elapsed_s"),  # type: ignore[arg-type]
        )
    return outcomes


# -- execution primitives ---------------------------------------------------


def _execute_any(spec: AnySpec, timeout_s: Optional[float]) -> Tuple[str, object]:
    """Run one cell once.  Returns ``(status, result-or-summary)``.

    ``("ok", result)`` on success; ``("failure", {"kind", "message"})``
    otherwise.  Never raises — same contract as the runner's guarded
    execution, which this wraps for real experiments.
    """
    if isinstance(spec, SyntheticSpec):
        try:
            return "ok", _run_synthetic(spec)
        except Exception as exc:  # deterministic synthetic failure
            return "failure", {"kind": "error", "message": str(exc)}
    outcome = execute_guarded(spec, timeout_s, retries=0)
    if isinstance(outcome, ExperimentResult):
        return "ok", outcome
    return "failure", {"kind": outcome.kind, "message": outcome.message}


# -- shard workers ----------------------------------------------------------
#
# Shards are warm-pool workers (:func:`repro.experiments.pool.worker_entry`)
# dispatched in *sweep mode*: each batch frame carries this sweep's cache
# dir and the shard's namespace, so results land in the shard's private
# cache namespace *before* the result frame is sent — an orchestrator
# killed between the two finds the result on resume, exactly as before.
# The worker executes through this module's ``_execute_any``, which keeps
# sharded summaries (and therefore journal lines and digests) byte-equal
# to the inline path.  Specs and result summaries travel as canonical-JSON
# wire frames (:mod:`repro.experiments.wire`), not pickles, and up to
# ``SweepOptions.batch_size`` cells ride one pipe round-trip.


def _mp_context():
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class _Shard:
    """Orchestrator-side bookkeeping for one worker process."""

    __slots__ = (
        "name",
        "process",
        "conn",
        "busy",
        "current",  # in-flight [(index, attempt, key), ...], dispatch order
        "last_beat",
        "started_at",
        "stopped",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.process = None
        self.conn = None
        self.busy = False
        self.current: List[Tuple[int, int, str]] = []
        self.last_beat = 0.0
        self.started_at = 0.0
        self.stopped = False


# -- the orchestrator -------------------------------------------------------


class _Orchestrator:
    """One run/resume pass: owns the journal, the shards, and the queue."""

    def __init__(
        self,
        specs: Sequence[AnySpec],
        keys: Sequence[str],
        state: _State,
        options: SweepOptions,
        bus: Optional[Bus],
    ) -> None:
        self.specs = specs
        self.keys = keys
        self.state = state
        self.options = options
        self.bus = bus
        self.outcomes: Dict[int, SweepOutcome] = {}
        self.attempts_used: Dict[int, int] = {}
        self.crash_counts: Dict[int, int] = {}
        self.queue: deque = deque()  # (index, attempt) ready now
        self.delayed: List[Tuple[float, int, int]] = []  # (eligible_at, index, attempt)
        self.in_flight = 0
        self.failure_count = 0
        self.aborting = False
        self.done_since_progress = 0

    # -- events ------------------------------------------------------------
    def emit(self, kind: str, payload: Optional[Dict[str, object]] = None) -> None:
        if self.bus is not None:
            self.bus.emit(kind, payload)

    # -- terminal outcomes -------------------------------------------------
    def record(self, outcome: SweepOutcome) -> None:
        self.outcomes[outcome.index] = outcome
        _journal_outcome(self.state, outcome, self.options.fsync_journal)
        if outcome.failed:
            self.failure_count += 1
            budget = self.options.max_failures
            if budget is not None and self.failure_count > budget and not self.aborting:
                self.aborting = True
                self.emit(
                    "sweep.abort",
                    {"failures": self.failure_count, "budget": budget},
                )
                append_journal_line(
                    self.state.journal,
                    {
                        "event": "abort",
                        "failures": self.failure_count,
                        "budget": budget,
                    },
                    fsync=self.options.fsync_journal,
                )
        self.done_since_progress += 1
        if self.done_since_progress >= self.options.progress_every:
            self.done_since_progress = 0
            self.emit(
                "sweep.progress",
                {"done": len(self.outcomes), "total": len(self.specs)},
            )

    def handle_completion(
        self, shard: str, index: int, attempt: int, summary: Dict[str, object]
    ) -> None:
        key = self.keys[index]
        self.attempts_used[index] = attempt
        if summary["status"] == "ok":
            self.record(
                SweepOutcome(
                    index=index,
                    key=key,
                    status="ok",
                    attempts=attempt,
                    shard=shard,
                    elapsed_s=summary.get("elapsed_s"),  # type: ignore[arg-type]
                )
            )
            return
        kind = str(summary.get("kind", "error"))
        message = str(summary.get("message", ""))
        if attempt <= self.options.retries:
            delay = backoff_delay(key, attempt, self.options.backoff_base_s)
            self.emit(
                "sweep.requeue",
                {
                    "key": key,
                    "shard": shard,
                    "reason": kind,
                    "attempt": attempt,
                    "delay_s": round(delay, 6),
                },
            )
            self.push_delayed(index, attempt + 1, delay)
            return
        self.record(
            SweepOutcome(
                index=index,
                key=key,
                status="failure",
                kind=kind,
                message=message,
                attempts=attempt,
            )
        )

    def handle_worker_loss(self, shard_name: str, index: int, attempt: int, reason: str) -> None:
        """A shard died (``crash``) or was shot by the watchdog (``hang``)."""
        key = self.keys[index]
        self.attempts_used[index] = attempt
        self.crash_counts[index] = self.crash_counts.get(index, 0) + 1
        if self.crash_counts[index] <= REQUEUE_LIMIT:
            delay = backoff_delay(key, attempt, self.options.backoff_base_s)
            self.emit(
                "sweep.requeue",
                {
                    "key": key,
                    "shard": shard_name,
                    "reason": reason,
                    "attempt": attempt,
                    "delay_s": round(delay, 6),
                },
            )
            self.push_delayed(index, attempt + 1, delay)
            return
        self.emit(
            "sweep.quarantine", {"key": key, "shard": shard_name, "reason": reason}
        )
        detail = (
            "worker process died while running this spec"
            if reason == "crash"
            else "worker heartbeat lost (hung beyond the SIGALRM deadline)"
        )
        self.record(
            SweepOutcome(
                index=index,
                key=key,
                status="quarantined",
                kind=reason,
                message=f"{detail}; requeued {REQUEUE_LIMIT}x, then quarantined",
                attempts=attempt,
            )
        )

    # -- queue -------------------------------------------------------------
    def push_delayed(self, index: int, attempt: int, delay_s: float) -> None:
        import heapq

        if delay_s <= 0:
            self.queue.append((index, attempt))
        else:
            heapq.heappush(self.delayed, (time.monotonic() + delay_s, index, attempt))

    def promote_due(self) -> None:
        import heapq

        now = time.monotonic()
        while self.delayed and self.delayed[0][0] <= now:
            _, index, attempt = heapq.heappop(self.delayed)
            self.queue.append((index, attempt))

    def next_wakeup(self) -> float:
        if self.delayed:
            return max(0.01, min(0.25, self.delayed[0][0] - time.monotonic()))
        return 0.25

    @property
    def outstanding(self) -> int:
        return len(self.queue) + len(self.delayed) + self.in_flight

    # -- inline path -------------------------------------------------------
    def run_inline(self) -> None:
        """Serial execution in this process (``jobs=1``, or the drain path
        after every shard stopped on its SLO).  Chaos is never injected
        inline — it exists to kill *workers*."""
        while (self.queue or self.delayed) and not self.aborting:
            self.promote_due()
            if not self.queue:
                time.sleep(self.next_wakeup())
                continue
            index, attempt = self.queue.popleft()
            key = self.keys[index]
            status, result = _execute_any(self.specs[index], self.options.timeout_s)
            if status == "ok":
                _store_result(self.state, "main", key, result)
                self.handle_completion("main", index, attempt, {"status": "ok"})
            else:
                summary: Dict[str, object] = {"status": "failure"}
                summary.update(result)  # type: ignore[arg-type]
                self.handle_completion("main", index, attempt, summary)

    # -- sharded path ------------------------------------------------------
    def run_sharded(self) -> None:
        from multiprocessing.connection import wait as conn_wait

        from repro.experiments import pool as pool_mod

        ctx = _mp_context()
        count = min(self.options.jobs, max(1, len(self.queue)))
        shards: List[_Shard] = []
        telemetry = {
            "workers_spawned": 0,
            "dispatches": 0,
            "specs_dispatched": 0,
            "max_batch": 0,
        }

        def spawn(shard: _Shard) -> None:
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=pool_mod.worker_entry,
                args=(
                    child_conn,
                    shard.name,
                    self.options.heartbeat_s,
                    self.options.chaos,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            telemetry["workers_spawned"] += 1
            shard.process = process
            shard.conn = parent_conn
            shard.busy = False
            shard.current = []
            shard.stopped = False
            now = time.monotonic()
            shard.last_beat = now
            shard.started_at = now

        for i in range(count):
            shard = _Shard(f"shard-{i:02d}")
            spawn(shard)
            shards.append(shard)

        def slo_spent(shard: _Shard) -> bool:
            slo = self.options.shard_slo_s
            return slo is not None and (time.monotonic() - shard.started_at) > slo

        def stop_shard(shard: _Shard) -> None:
            if shard.stopped:
                return
            shard.stopped = True
            try:
                pool_mod.send_frame(shard.conn, {"frame": "stop"})
            except (BrokenPipeError, OSError):
                pass

        def kill_shard(shard: _Shard) -> None:
            if shard.process is not None and shard.process.is_alive():
                shard.process.kill()
                shard.process.join(timeout=5)
            try:
                shard.conn.close()
            except OSError:
                pass

        def lose_shard(shard: _Shard, reason: str) -> None:
            """Common path for crash (EOF/death) and hang (watchdog kill).

            With batching, only the *first* unfinished item is the suspect
            (results stream back in dispatch order, so the head of
            ``current`` is what the worker was executing) and goes through
            the requeue-once-then-quarantine accounting; the rest of the
            batch never started and requeues unblamed at the same attempt.
            """
            kill_shard(shard)
            if shard.current:
                index, attempt, _key = shard.current[0]
                self.in_flight -= len(shard.current)
                for rest_index, rest_attempt, _k in reversed(shard.current[1:]):
                    self.queue.appendleft((rest_index, rest_attempt))
                self.handle_worker_loss(shard.name, index, attempt, reason)
            shard.busy = False
            shard.current = []
            # Respawn into the same namespace unless the sweep is winding
            # down or the shard already spent its SLO.
            if not self.aborting and self.outstanding > 0 and not slo_spent(shard):
                spawn(shard)
            else:
                shard.stopped = True

        try:
            while self.outstanding > 0 and not self.aborting:
                self.promote_due()
                # Dispatch to idle shards.
                for shard in shards:
                    if not self.queue:
                        break
                    if shard.stopped or shard.busy:
                        continue
                    if slo_spent(shard):
                        self.emit(
                            "sweep.shard_slo",
                            {
                                "shard": shard.name,
                                "elapsed_s": round(
                                    time.monotonic() - shard.started_at, 3
                                ),
                                "slo_s": self.options.shard_slo_s,
                            },
                        )
                        stop_shard(shard)
                        continue
                    batch: List[Tuple[int, int, str]] = []
                    while self.queue and len(batch) < self.options.batch_size:
                        index, attempt = self.queue.popleft()
                        batch.append((index, attempt, self.keys[index]))
                    items = [
                        {
                            "index": index,
                            "attempt": attempt,
                            "key": key,
                            "spec": self.specs[index],
                            "timeout_s": self.options.timeout_s,
                        }
                        for index, attempt, key in batch
                    ]
                    try:
                        pool_mod.send_frame(
                            shard.conn,
                            {
                                "frame": "batch",
                                "cache_dir": str(self.state.cache),
                                "namespace": shard.name,
                                "items": items,
                            },
                        )
                    except (BrokenPipeError, OSError):
                        for index, attempt, _key in reversed(batch):
                            self.queue.appendleft((index, attempt))
                        lose_shard(shard, "crash")
                        continue
                    shard.busy = True
                    shard.current = batch
                    shard.last_beat = time.monotonic()
                    self.in_flight += len(batch)
                    telemetry["dispatches"] += 1
                    telemetry["specs_dispatched"] += len(batch)
                    telemetry["max_batch"] = max(telemetry["max_batch"], len(batch))

                live = [s for s in shards if not s.stopped and s.conn is not None]
                if not live:
                    # Every shard stopped (SLO) or died unrecoverably:
                    # drain the remainder inline so the sweep completes.
                    self.run_inline()
                    break

                ready = conn_wait([s.conn for s in live], timeout=self.next_wakeup())
                for conn in ready:
                    shard = next(s for s in live if s.conn is conn)
                    try:
                        while conn.poll():
                            message = pool_mod.recv_frame(conn)
                            kind = message.get("frame")
                            if kind == "heartbeat":
                                shard.last_beat = time.monotonic()
                                self.emit("sweep.heartbeat", {"shard": shard.name})
                            elif kind == "result":
                                index = message["index"]
                                attempt = message["attempt"]
                                shard.current = [
                                    entry
                                    for entry in shard.current
                                    if entry[0] != index
                                ]
                                shard.busy = bool(shard.current)
                                shard.last_beat = time.monotonic()
                                self.in_flight -= 1
                                summary: Dict[str, object] = {
                                    "status": message["status"],
                                    "elapsed_s": message.get("elapsed_s"),
                                }
                                if message["status"] != "ok":
                                    summary["kind"] = message.get("kind", "error")
                                    summary["message"] = message.get("message", "")
                                self.handle_completion(
                                    message.get("worker", shard.name),
                                    index,
                                    attempt,
                                    summary,
                                )
                                if not shard.busy and slo_spent(shard):
                                    self.emit(
                                        "sweep.shard_slo",
                                        {
                                            "shard": shard.name,
                                            "elapsed_s": round(
                                                time.monotonic() - shard.started_at, 3
                                            ),
                                            "slo_s": self.options.shard_slo_s,
                                        },
                                    )
                                    stop_shard(shard)
                    except (EOFError, OSError, pool_mod.wire.WireError):
                        lose_shard(shard, "crash")

                # Watchdog: a busy shard whose heartbeats stopped is hung.
                hang_after = self.options.hang_timeout_s
                if hang_after is not None:
                    now = time.monotonic()
                    for shard in shards:
                        if (
                            not shard.stopped
                            and shard.busy
                            and now - shard.last_beat > hang_after
                        ):
                            lose_shard(shard, "hang")
        finally:
            for shard in shards:
                stop_shard(shard)
            deadline = time.monotonic() + 5.0
            for shard in shards:
                if shard.process is not None:
                    shard.process.join(timeout=max(0.1, deadline - time.monotonic()))
                    if shard.process.is_alive():
                        shard.process.kill()
                        shard.process.join(timeout=5)
                try:
                    shard.conn.close()
                except (OSError, AttributeError):
                    pass
            # Pool telemetry for `sweep status --json`: how well dispatch
            # batching amortized the pipe, and how warm the shards ran.
            dispatches = telemetry["dispatches"]
            try:
                append_journal_line(
                    self.state.journal,
                    {
                        "event": "pool",
                        "workers": count,
                        "workers_spawned": telemetry["workers_spawned"],
                        "batch_size": self.options.batch_size,
                        "dispatches": dispatches,
                        "specs_dispatched": telemetry["specs_dispatched"],
                        "specs_per_dispatch": round(
                            telemetry["specs_dispatched"] / dispatches, 3
                        )
                        if dispatches
                        else 0.0,
                        "max_batch": telemetry["max_batch"],
                    },
                    fsync=False,
                )
            except OSError:
                pass


# -- digest / report --------------------------------------------------------


def _result_digest_line(key: str, result: object) -> str:
    if isinstance(result, ExperimentResult):
        from repro.bench import serialize_result

        return f"ok key={key}\n{serialize_result(result)}"
    return f"ok key={key} synthetic={result!r}"


def _build_report(
    state: _State,
    keys: Sequence[str],
    outcomes: Dict[int, SweepOutcome],
    aborted: bool,
) -> SweepReport:
    """Merged, input-ordered report with a streaming digest.

    Results are loaded one at a time and dropped after hashing, so a
    10k-spec sweep's report holds outcome rows, never 10k results.
    """
    digest = hashlib.sha256()
    ordered: List[SweepOutcome] = []
    for index in range(len(keys)):
        outcome = outcomes.get(index)
        if outcome is None:
            continue  # incomplete (aborted) sweep: digest covers what ran
        ordered.append(outcome)
        if outcome.status == "ok":
            namespace = outcome.shard or "main"
            result = _load_result(state, namespace, outcome.key)
            if result is None:
                found = _find_cached(state, outcome.key)
                if found is None:
                    raise SweepError(
                        f"journal says spec {index} ({outcome.key[:12]}…) "
                        "succeeded but its cached result is missing; the "
                        "cache was pruned out from under the journal"
                    )
                _namespace, result = found
            digest.update(_result_digest_line(outcome.key, result).encode())
        else:
            digest.update(outcome.digest_line().encode())
        digest.update(b"\n")
    return SweepReport(
        outcomes=ordered,
        digest=digest.hexdigest(),
        state_dir=state.root,
        aborted=aborted,
    )


# -- public API -------------------------------------------------------------


def run_sweep(
    specs: Sequence[AnySpec],
    state_dir: os.PathLike,
    options: SweepOptions = SweepOptions(),
    resume: bool = False,
    sinks: Sequence[Sink] = (),
    describe: Optional[Dict[str, object]] = None,
) -> SweepReport:
    """Run (or resume) a checkpointed sweep over ``specs``.

    Every terminal outcome is journaled before the next dispatch, so the
    orchestrator can be SIGKILLed at any instant and
    ``run_sweep(..., resume=True)`` continues from the checkpoint — merged
    results (and :attr:`SweepReport.digest`) are byte-identical to an
    uninterrupted run.  ``sinks`` receive ``sweep.*`` events on a
    wall-clock bus, in addition to the always-on
    ``<state_dir>/events.jsonl`` log.
    """
    options.validate()
    specs = list(specs)
    if not specs:
        raise SweepError("a sweep needs at least one spec")
    keys = [sweep_spec_key(spec) for spec in specs]
    state = _open_state(state_dir, keys, resume=resume, describe=describe)

    all_sinks: List[Sink] = [JsonlSink(state.events)]
    all_sinks.extend(sinks)
    bus = Bus(WallClock(), all_sinks)

    orch = _Orchestrator(specs, keys, state, options, bus)
    orch.outcomes = _load_journal_outcomes(state)
    orch.failure_count = sum(1 for o in orch.outcomes.values() if o.failed)

    pending: List[int] = []
    for index, key in enumerate(keys):
        if index in orch.outcomes:
            continue
        # A worker may have cached the result right before the previous
        # orchestrator died without journaling it: adopt, don't re-run.
        found = _find_cached(state, key)
        if found is not None:
            namespace, _result = found
            orch.record(
                SweepOutcome(
                    index=index,
                    key=key,
                    status="ok",
                    attempts=0,
                    shard=namespace,
                )
            )
            continue
        pending.append(index)

    orch.emit(
        "sweep.start",
        {"total": len(specs), "pending": len(pending)},
    )
    for index in pending:
        orch.queue.append((index, 1))

    if orch.queue and not orch.aborting:
        if options.jobs <= 1:
            orch.run_inline()
        else:
            orch.run_sharded()

    report = _build_report(state, keys, orch.outcomes, aborted=orch.aborting)
    counts = report.counts()
    orch.emit(
        "sweep.done",
        {
            "total": len(specs),
            "ok": counts["ok"],
            "failed": counts["failure"],
            "quarantined": counts["quarantined"],
        },
    )
    if orch.aborting:
        raise SweepAborted(orch.failure_count, options.max_failures or 0)
    return report


def collect_report(
    specs: Sequence[AnySpec], state_dir: os.PathLike
) -> SweepReport:
    """Build the merged report for an existing checkpoint without running."""
    specs = list(specs)
    keys = [sweep_spec_key(spec) for spec in specs]
    state = _open_state(state_dir, keys, resume=True)
    outcomes = _load_journal_outcomes(state)
    return _build_report(state, keys, outcomes, aborted=False)


def sweep_status(state_dir: os.PathLike) -> Dict[str, object]:
    """Journal/meta summary for ``repro sweep status`` (no results loaded)."""
    root = Path(state_dir)
    meta_path = root / META_NAME
    if not meta_path.exists():
        raise SweepError(f"no sweep checkpoint at {root} (missing {META_NAME})")
    import json

    with meta_path.open("r", encoding="utf-8") as handle:
        meta = json.load(handle)
    state = _State(
        root=root,
        journal=root / JOURNAL_NAME,
        events=root / EVENTS_NAME,
        cache=root / CACHE_DIRNAME,
    )
    outcomes = _load_journal_outcomes(state)
    counts = {"ok": 0, "failure": 0, "quarantined": 0}
    by_shard: Dict[str, int] = {}
    attempts = 0
    for outcome in outcomes.values():
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
        attempts += outcome.attempts
        if outcome.shard:
            by_shard[outcome.shard] = by_shard.get(outcome.shard, 0) + 1
    total = int(meta.get("count", 0))
    aborted = False
    pool: Optional[Dict[str, object]] = None
    for record in read_journal(state.journal):
        event = record.get("event")
        if event == "abort":
            aborted = True
        elif event == "pool":
            # Last record wins: one per run/resume pass; a resumed sweep's
            # status reflects its most recent sharded pass.
            pool = {k: v for k, v in record.items() if k != "event"}
    return {
        "state_dir": str(root),
        "total": total,
        "done": len(outcomes),
        "pending": total - len(outcomes),
        "ok": counts["ok"],
        "failure": counts["failure"],
        "quarantined": counts["quarantined"],
        "attempts": attempts,
        "by_shard": dict(sorted(by_shard.items())),
        "aborted": aborted,
        "pool": pool,
        "meta": meta,
    }


def specs_from_meta(state_dir: os.PathLike) -> List[AnySpec]:
    """Rebuild a checkpoint's spec list from its ``meta.json``.

    ``repro sweep resume|status`` works from the state directory alone:
    ``run`` records the grid (or synthetic shape) in the meta file, and
    this re-expands it — the keys digest then proves the rebuilt list
    matches the journal.
    """
    root = Path(state_dir)
    meta_path = root / META_NAME
    if not meta_path.exists():
        raise SweepError(f"no sweep checkpoint at {root} (missing {META_NAME})")
    import json

    with meta_path.open("r", encoding="utf-8") as handle:
        meta = json.load(handle)
    if "grid" in meta:
        return list(expand_grid(dict(meta["grid"])))
    if "synthetic" in meta:
        shape = dict(meta["synthetic"])
        return list(
            synthetic_specs(
                int(shape.get("count", 0)),
                fail_every=int(shape.get("fail_every", 0)),
                sleep_s=float(shape.get("sleep_s", 0.0)),
            )
        )
    raise SweepError(
        f"{meta_path} does not describe its specs (created via the Python "
        "API?); resume through run_sweep(..., resume=True) with the "
        "original spec list"
    )


# -- grid expansion (the CLI's sweep-file format) ---------------------------


def expand_grid(data: Dict[str, object], default_scale: str = "tiny") -> List[ExperimentSpec]:
    """Expand a declarative grid file into the cross product of its axes.

    Shape::

        {"scale": "tiny",
         "overrides": {"max_engine_steps": 2000000},
         "faults": {"disk": {"io_error_prob": 0.02}},
         "axes": {
             "benchmark": ["MATVEC", "BUK"],
             "version": ["O", "R"],
             "sleep": [null, 0.1],
             "policy": ["paging-directed", "global-clock"],
             "fault_seed": [1, 2, 3]}}

    Axis order is fixed (benchmark, version, sleep, policy, fault_seed) so
    the same grid file always expands to the same spec list — and hence
    the same sweep identity and merged digest.
    """
    data = dict(data)
    scale_name = str(data.pop("scale", default_scale))
    if scale_name not in _SCALES:
        raise SpecError(
            f"unknown scale {scale_name!r}; choose from {sorted(_SCALES)}"
        )
    scale: SimScale = _SCALES[scale_name]()
    overrides = data.pop("overrides", {})
    if overrides:
        scale = scale.with_overrides(**overrides)
    base_faults = (
        FaultPlan.from_dict(data.pop("faults")) if "faults" in data else EMPTY_PLAN
    )
    axes = dict(data.pop("axes", {}))
    if data:
        raise SpecError(f"unknown sweep grid keys: {sorted(data)}")
    benchmarks = list(axes.pop("benchmark", ()))
    if not benchmarks:
        raise SpecError("sweep grid needs a non-empty 'benchmark' axis")
    versions = list(axes.pop("version", ["R"]))
    sleeps = list(axes.pop("sleep", [None]))
    policies = list(axes.pop("policy", [None]))
    fault_seeds = list(axes.pop("fault_seed", [None]))
    if axes:
        raise SpecError(f"unknown sweep grid axes: {sorted(axes)}")
    specs: List[ExperimentSpec] = []
    for bench_name, version, sleep, policy, seed in itertools.product(
        benchmarks, versions, sleeps, policies, fault_seeds
    ):
        spec = ExperimentSpec.multiprogram(
            scale, str(bench_name).upper(), str(version).upper(), sleep_time_s=sleep
        )
        if seed is not None:
            spec = spec.with_faults(base_faults.with_seed(int(seed)))
        elif base_faults is not EMPTY_PLAN:
            spec = spec.with_faults(base_faults)
        if policy is not None:
            spec = spec.with_policy(str(policy))
        spec.validate()
        specs.append(spec)
    return specs
