"""Resilient sweeps: a checkpoint journal and a merged report over the warm pool.

The paper's results are sweeps — every figure is a grid of memory sizes ×
benchmarks × policies — and the fault layer multiplies that grid by fault
seeds.  :func:`~repro.experiments.runner.run_specs` executes such a grid in
one fragile pass: kill the process and every non-cached cell is lost.
This module makes the grid durable; it owns no executor of its own:

- **Checkpoint journal** — every per-spec outcome (success, structured
  failure, quarantine) is appended to ``<state_dir>/journal.jsonl`` via the
  single-write append contract of :mod:`repro.ioutil`; successes land in a
  content-addressed cache under ``<state_dir>/cache/<namespace>/``.  A sweep
  SIGKILLed mid-flight resumes from the journal and produces merged
  results byte-identical to an uninterrupted run (simulations are
  deterministic; the digest covers every slot in input order).

- **One executor** — ``jobs=1`` runs each cell inline through the runner's
  guarded executor, the serial reference, or one at a time on a pool the
  caller passes in (the service runs every job so, on its shared warm
  pool).  ``jobs > 1`` runs on a private
  :class:`~repro.experiments.pool.WarmPool` sized ``min(jobs, pending)``:
  each worker stores its successes in its own cache namespace before
  replying, the pool's heartbeat watchdog (``hang_timeout_s``) catches
  what ``SIGALRM`` cannot, and a dispatcher-side callback journals each
  outcome as it arrives.  A spec whose worker crashed or hung on both of
  its attempts is journaled as ``quarantined`` so resume never retries it.
  A ``max_failures`` budget lets a sweep degrade gracefully into failure
  slots and aborts — resumably — only when the budget is exhausted.

- **Merged digest as outcomes land** — the SHA-256 over every slot's
  :mod:`repro.digest` line in input order.  A slot is hashed as soon as
  it and every earlier slot are journaled, its result loaded back from
  the cache one at a time.  When outcomes land roughly in input order,
  little is left to hash once the last one lands; an early slot that
  lands last leaves every later slot to hash after it.
  :func:`collect_report` recomputes the same digest from the checkpoint
  alone.

``repro sweep run|resume|status`` is the CLI surface;
:mod:`repro.experiments.ensemble` builds Monte Carlo fault ensembles on
top of :func:`run_sweep`, and every service job is one checkpoint.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro import digest as digest_mod
from repro.ioutil import append_journal_line, atomic_write_json, read_journal
from repro.machine import ExperimentSpec
from repro.obs import Bus, JsonlSink, Sink, WallClock
from repro.experiments.runner import (
    ExperimentFailure,
    RecordingSpec,
    SyntheticResult,
    SyntheticSpec,
    execute_guarded,
    load_cached,
    spec_key,
    store_cached,
)

if TYPE_CHECKING:
    from repro.experiments.pool import PoolChaos, WarmPool

__all__ = [
    "SweepAborted",
    "SweepError",
    "SweepMismatch",
    "SweepOptions",
    "SweepOutcome",
    "SweepReport",
    "SyntheticResult",
    "SyntheticSpec",
    "collect_report",
    "journal_outcomes",
    "run_sweep",
    "specs_from_meta",
    "specs_from_scenario",
    "sweep_status",
    "synthetic_specs",
]

JOURNAL_NAME = "journal.jsonl"
META_NAME = "meta.json"
EVENTS_NAME = "events.jsonl"
CACHE_DIRNAME = "cache"


class SweepError(RuntimeError):
    """A sweep that cannot be run, resumed, or collected."""


class SweepMismatch(SweepError):
    """The state directory holds the checkpoint of a different spec list."""


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


AnySpec = Union[ExperimentSpec, SyntheticSpec, RecordingSpec]


# -- options and outcomes ---------------------------------------------------


@dataclass(frozen=True)
class SweepOptions:
    """Everything that shapes a sweep's execution (not its results).

    None of these fields participates in the merged digest: a sweep run
    with 1 worker and one run with 8 merge byte-identically.
    ``hang_timeout_s`` turns on the pool's heartbeat watchdog (workers
    beat at a fixed fraction of it); ``chaos`` injects worker crashes and
    hangs for tests and is honored only by pool workers, never inline.
    """

    jobs: int = 1
    batch_size: int = 1
    timeout_s: Optional[float] = None
    retries: int = 0
    hang_timeout_s: Optional[float] = None
    max_failures: Optional[int] = None
    progress_every: int = 50
    fsync_journal: bool = True
    chaos: Optional["PoolChaos"] = None

    def validate(self) -> None:
        if self.jobs < 1:
            raise SweepError(f"jobs must be >= 1, got {self.jobs}")
        if self.batch_size < 1:
            raise SweepError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.retries < 0:
            raise SweepError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SweepError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.hang_timeout_s is not None and self.hang_timeout_s <= 0:
            raise SweepError(
                f"hang_timeout_s must be positive, got {self.hang_timeout_s}"
            )
        if self.max_failures is not None and self.max_failures < 0:
            raise SweepError(f"max_failures must be >= 0, got {self.max_failures}")
        if self.progress_every < 1:
            raise SweepError(
                f"progress_every must be >= 1, got {self.progress_every}"
            )


@dataclass
class SweepOutcome:
    """One journal-backed terminal outcome, aligned to its spec's slot.

    ``attempts``, ``shard`` and ``elapsed_s`` say how a result was
    obtained and stay out of the merged digest: only *what* was obtained
    counts.
    """

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

    def load_result(self, outcome: SweepOutcome) -> Optional[object]:
        """The cached result of an ``ok`` outcome, or ``None`` if pruned.

        Looks in the namespace the journal names first, then in every
        other namespace (a result stored twice, or adopted on resume).
        """
        cache = Path(self.state_dir) / CACHE_DIRNAME
        result = load_cached(cache / (outcome.shard or "main"), outcome.key)
        if result is None:
            found = _find_cached(cache, outcome.key)
            result = found[1] if found is not None else None
        return result


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
            raise SweepMismatch(
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


def _find_cached(cache: Path, key: str) -> Optional[Tuple[str, object]]:
    """Search every namespace under ``cache`` for ``key``."""
    if not cache.is_dir():
        return None
    try:
        namespaces = sorted(p.name for p in cache.iterdir() if p.is_dir())
    except FileNotFoundError:
        return None
    for namespace in namespaces:
        result = load_cached(cache / namespace, key)
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


def journal_outcomes(state_dir: os.PathLike) -> Dict[int, SweepOutcome]:
    """A checkpoint's terminal outcomes by spec index (first record wins).

    Reads the journal alone: no result is loaded.
    """
    outcomes: Dict[int, SweepOutcome] = {}
    try:
        records = read_journal(Path(state_dir) / JOURNAL_NAME)
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


class _Journal:
    """One run/resume pass: journals each outcome as it lands."""

    def __init__(
        self,
        keys: Sequence[str],
        state: _State,
        options: SweepOptions,
        bus: Bus,
    ) -> None:
        self.keys = keys
        self.state = state
        self.options = options
        self.bus = bus
        self.outcomes: Dict[int, SweepOutcome] = {}
        self.failure_count = 0
        self.aborting = False
        self.done_since_progress = 0
        self.merge = _Merge(state, keys)

    def record(self, outcome: SweepOutcome) -> None:
        """Journal one outcome, then hash every slot it completes.

        The hash comes last, after the journal line and the progress
        event, so nothing that waits on either is charged for it.
        """
        self.outcomes[outcome.index] = outcome
        _journal_outcome(self.state, outcome, self.options.fsync_journal)
        if outcome.failed:
            self.failure_count += 1
            budget = self.options.max_failures
            if budget is not None and self.failure_count > budget and not self.aborting:
                self.aborting = True
                self.bus.emit(
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
            self.bus.emit(
                "sweep.progress",
                {"done": len(self.outcomes), "total": len(self.keys)},
            )
        self.merge.advance(self.outcomes)

    def land(
        self,
        index: int,
        outcome: object,
        attempt: int,
        worker: str,
        elapsed_s: Optional[float] = None,
        requeued: bool = False,
    ) -> bool:
        """Journal one spec's outcome; True once the failure budget is spent.

        The pool's ``crash``/``hang`` failures mean the worker was lost
        while running this spec: the first loss requeues it (an event, not
        a journal record), the second quarantines it.
        """
        key = self.keys[index]
        if not isinstance(outcome, ExperimentFailure):
            self.record(
                SweepOutcome(
                    index=index,
                    key=key,
                    status="ok",
                    attempts=attempt,
                    shard=worker,
                    elapsed_s=elapsed_s,
                )
            )
        elif outcome.kind not in ("crash", "hang"):
            self.record(
                SweepOutcome(
                    index=index,
                    key=key,
                    status="failure",
                    kind=outcome.kind,
                    message=outcome.message,
                    attempts=outcome.attempts,
                )
            )
        elif requeued:
            self.bus.emit(
                "sweep.requeue",
                {"key": key, "shard": worker, "reason": outcome.kind, "attempt": attempt},
            )
        else:
            self.bus.emit(
                "sweep.quarantine", {"key": key, "shard": worker, "reason": outcome.kind}
            )
            self.record(
                SweepOutcome(
                    index=index,
                    key=key,
                    status="quarantined",
                    kind=outcome.kind,
                    message=(
                        f"{outcome.message}; requeued {outcome.attempts - 1}x, "
                        "then quarantined"
                    ),
                    attempts=outcome.attempts,
                )
            )
        return self.aborting

    def run_inline(
        self,
        specs: Sequence[AnySpec],
        pending: Sequence[int],
        pool: Optional["WarmPool"] = None,
    ) -> None:
        """``jobs=1``: one cell at a time, cached before journaled.

        Each cell runs in this process, or on ``pool`` when one is given.
        """
        options = self.options
        cache = self.state.cache / "main"
        for index in pending:
            started = time.monotonic()
            if pool is None:
                outcome = execute_guarded(specs[index], options.timeout_s, options.retries)
            else:
                outcome = pool.run_one(
                    specs[index], timeout_s=options.timeout_s, retries=options.retries
                )
            elapsed = time.monotonic() - started
            store_cached(cache, self.keys[index], outcome)  # refuses failures
            if self.land(index, outcome, 1, "main", elapsed):
                return

    def run_pooled(self, specs: Sequence[AnySpec], pending: Sequence[int]) -> None:
        """``jobs > 1``: a private warm pool, one worker per pending spec
        up to ``jobs``, storing into ``cache/<worker>/``."""
        from repro.experiments.pool import WarmPool  # jobs=1 never pays the import

        options = self.options
        workers = min(options.jobs, len(pending))
        pool = WarmPool(
            workers,
            chaos=options.chaos,
            hang_timeout_s=options.hang_timeout_s,
            store_dir=self.state.cache,
        )

        def land(position: int, *args, **kwargs) -> bool:
            return self.land(pending[position], *args, **kwargs)

        try:
            pool.run(
                [specs[index] for index in pending],
                timeout_s=options.timeout_s,
                retries=options.retries,
                batch_size=options.batch_size,
                on_outcome=land,
            )
        finally:
            pool.shutdown()
            # Pool telemetry for `sweep status --json`: how well dispatch
            # batching amortized the pipe, and how warm the workers ran.
            telemetry = pool.telemetry()
            try:
                append_journal_line(
                    self.state.journal,
                    {
                        "event": "pool",
                        "workers": workers,
                        "workers_spawned": telemetry["workers_spawned"],
                        "batch_size": options.batch_size,
                        "dispatches": telemetry["dispatches"],
                        "specs_dispatched": telemetry["specs_dispatched"],
                        "specs_per_dispatch": round(telemetry["specs_per_dispatch"], 3),
                        "max_batch": telemetry["max_batch"],
                    },
                    fsync=False,
                )
            except OSError:
                pass


# -- digest / report --------------------------------------------------------


class _Merge:
    """The merged, input-ordered report, hashed while the sweep runs.

    Slot ``i``'s digest line is hashed once it and every earlier slot
    have landed (:meth:`advance`); :meth:`finish` hashes the rest,
    stepping over slots an aborted sweep never ran.  A ``run_sweep``
    pass advances as outcomes land, so little is left when the last one
    does unless an early slot landed late; :func:`collect_report`
    finishes a fresh cursor over the whole journal.  Either way each
    result is loaded from the cache and dropped after hashing, so a
    10k-spec report holds outcome rows, never 10k results.
    """

    def __init__(self, state: _State, keys: Sequence[str]) -> None:
        self.keys = keys
        self.report = SweepReport(outcomes=[], digest="", state_dir=state.root)
        self.cursor = 0
        self._digest = hashlib.sha256()

    def advance(self, outcomes: Dict[int, SweepOutcome], skip_gaps: bool = False) -> None:
        while self.cursor < len(self.keys):
            outcome = outcomes.get(self.cursor)
            if outcome is not None:
                self._digest.update(self._line(outcome).encode())
                self.report.outcomes.append(outcome)
            elif not skip_gaps:
                return  # wait for this slot to land
            self.cursor += 1

    def finish(self, outcomes: Dict[int, SweepOutcome], aborted: bool) -> SweepReport:
        self.advance(outcomes, skip_gaps=True)
        self.report.digest = self._digest.hexdigest()
        self.report.aborted = aborted
        return self.report

    def _line(self, outcome: SweepOutcome) -> str:
        if outcome.status != "ok":
            return digest_mod.digest_failure_line(
                outcome.key, str(outcome.kind), str(outcome.message)
            )
        result = self.report.load_result(outcome)
        if result is None:
            raise SweepError(
                f"journal says spec {outcome.index} ({outcome.key[:12]}…) "
                "succeeded but its cached result is missing; the "
                "cache was pruned out from under the journal"
            )
        return digest_mod.outcome_line(outcome.key, result)


# -- public API -------------------------------------------------------------


def run_sweep(
    specs: Sequence[AnySpec],
    state_dir: os.PathLike,
    options: SweepOptions = SweepOptions(),
    resume: bool = False,
    sinks: Sequence[Sink] = (),
    describe: Optional[Dict[str, object]] = None,
    pool: Optional["WarmPool"] = None,
) -> SweepReport:
    """Run (or resume) a checkpointed sweep over ``specs``.

    Every terminal outcome is journaled as it lands, after its result is
    cached, so the sweep can be SIGKILLed at any instant and
    ``run_sweep(..., resume=True)`` continues from the checkpoint — merged
    results (and :attr:`SweepReport.digest`) are byte-identical to an
    uninterrupted run.  ``sinks`` receive ``sweep.*`` events on a
    wall-clock bus, in addition to the always-on
    ``<state_dir>/events.jsonl`` log.  With ``jobs=1``, ``pool`` runs the
    cells one at a time on an existing warm pool instead of in-process.
    """
    options.validate()
    specs = list(specs)
    if not specs:
        raise SweepError("a sweep needs at least one spec")
    keys = [spec_key(spec) for spec in specs]
    state = _open_state(state_dir, keys, resume=resume, describe=describe)

    all_sinks: List[Sink] = [JsonlSink(state.events)]
    all_sinks.extend(sinks)
    journal = _Journal(keys, state, options, Bus(WallClock(), all_sinks))
    journal.outcomes = journal_outcomes(state.root)
    journal.failure_count = sum(1 for o in journal.outcomes.values() if o.failed)

    pending: List[int] = []
    for index, key in enumerate(keys):
        if index in journal.outcomes:
            continue
        # A worker may have cached the result right before the previous
        # dispatcher died without journaling it: adopt, don't re-run.
        found = _find_cached(state.cache, key)
        if found is not None:
            namespace, _result = found
            journal.record(
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
    journal.merge.advance(journal.outcomes)  # what earlier passes journaled

    journal.bus.emit(
        "sweep.start",
        {"total": len(specs), "pending": len(pending)},
    )
    if pending and not journal.aborting:
        if options.jobs <= 1:
            journal.run_inline(specs, pending, pool)
        else:
            journal.run_pooled(specs, pending)

    report = journal.merge.finish(journal.outcomes, aborted=journal.aborting)
    counts = report.counts()
    journal.bus.emit(
        "sweep.done",
        {
            "total": len(specs),
            "ok": counts["ok"],
            "failed": counts["failure"],
            "quarantined": counts["quarantined"],
        },
    )
    if journal.aborting:
        raise SweepAborted(journal.failure_count, options.max_failures or 0)
    return report


def collect_report(
    specs: Sequence[AnySpec], state_dir: os.PathLike
) -> SweepReport:
    """Build the merged report for an existing checkpoint without running."""
    specs = list(specs)
    keys = [spec_key(spec) for spec in specs]
    state = _open_state(state_dir, keys, resume=True)
    return _Merge(state, keys).finish(journal_outcomes(state.root), aborted=False)


def sweep_status(state_dir: os.PathLike) -> Dict[str, object]:
    """Journal/meta summary for ``repro sweep status`` (no results loaded)."""
    root = Path(state_dir)
    meta_path = root / META_NAME
    if not meta_path.exists():
        raise SweepError(f"no sweep checkpoint at {root} (missing {META_NAME})")
    import json

    with meta_path.open("r", encoding="utf-8") as handle:
        meta = json.load(handle)
    outcomes = journal_outcomes(root)
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
    for record in read_journal(root / JOURNAL_NAME):
        event = record.get("event")
        if event == "abort":
            aborted = True
        elif event == "pool":
            # Last record wins: one per run/resume pass; a resumed sweep's
            # status reflects its most recent pooled pass.
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


def specs_from_scenario(document: Dict[str, object], state_dir: os.PathLike) -> List[AnySpec]:
    """The specs a checkpoint at ``state_dir`` runs for a merged scenario.

    A ``record_trace`` scenario records spec ``i``'s op streams under
    ``<state_dir>/traces/<i>``.  That directory is part of the spec's key,
    so it is made absolute first: any spelling of the state directory
    rebuilds the same keys.
    """
    from repro.scenarios import compile_scenario

    compiled = compile_scenario(document)
    if not compiled.record_trace:
        return list(compiled.specs)
    traces = Path(state_dir).resolve() / "traces"
    return [
        RecordingSpec(spec, str(traces / str(index)))
        for index, spec in enumerate(compiled.specs)
    ]


def specs_from_meta(state_dir: os.PathLike) -> List[AnySpec]:
    """Rebuild a checkpoint's spec list from its ``meta.json``.

    ``repro sweep resume|status`` works from the state directory alone:
    ``sweep run`` and every service job record the merged scenario (or
    the synthetic shape) in the meta file, and this compiles it again —
    the keys digest then proves the rebuilt list matches the journal.
    """
    root = Path(state_dir)
    meta_path = root / META_NAME
    if not meta_path.exists():
        raise SweepError(f"no sweep checkpoint at {root} (missing {META_NAME})")
    import json

    with meta_path.open("r", encoding="utf-8") as handle:
        meta = json.load(handle)
    if "scenario" in meta:
        return specs_from_scenario(meta["scenario"], root)
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
