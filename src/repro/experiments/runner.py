"""The parallel experiment runner: fan out specs, cache results, contain failures.

Every figure in the paper is a grid of independent experiments (benchmark ×
version × sleep time), each a pure function of its
:class:`~repro.machine.ExperimentSpec`.  This module exploits both facts:

- **Parallelism** — :func:`run_specs` fans a list of specs out over the
  shared warm-worker pool (:mod:`repro.experiments.pool`, ``jobs > 1``)
  while preserving input order.  With ``jobs=1`` everything runs inline
  in this process — the byte-identical reference path, which also keeps
  single-experiment debugging (and test monkeypatching) trivial.

- **Caching** — specs are content-hashed (:func:`spec_key`) together with a
  hash of the ``repro`` package's own source (:func:`code_version`), and
  results are pickled under that key in ``cache_dir``.  A re-run of any
  figure — or a different figure sharing experiments, like Figure 7 and
  Figure 8 — performs zero simulation steps for the shared grid.  Editing
  any source file invalidates the whole cache, so stale physics can never
  leak into a figure.

- **Containment** — one bad spec must not cost the rest of the grid.  A
  spec that raises, exceeds ``timeout_s`` of wall clock, or kills its
  worker process outright becomes a structured :class:`ExperimentFailure`
  in its grid slot; every other spec still runs, completes, and is cached.
  ``retries`` re-runs a failing spec before giving up (simulations are
  deterministic, so this mainly absorbs environmental flakes: OOM kills,
  signal-interrupted workers).  With ``on_error="raise"`` (the default) an
  :class:`ExperimentGridError` summarising the failures is raised *after*
  the grid finishes; ``on_error="return"`` hands back the mixed list.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.ioutil import atomic_open
from repro.machine import ExperimentResult, ExperimentSpec, run_experiment
from repro.obs import Sink

__all__ = [
    "CacheEntry",
    "ExperimentFailure",
    "ExperimentGridError",
    "RecordingSpec",
    "SyntheticResult",
    "SyntheticSpec",
    "cache_entries",
    "call_with_deadline",
    "code_version",
    "execute_guarded",
    "load_cached",
    "prune_cache",
    "run_specs",
    "spec_key",
    "store_cached",
]

_code_version: Optional[str] = None


def code_version() -> str:
    """Hash of every source file in the ``repro`` package.

    Part of every cache key: a cached result is only valid for the exact
    code that produced it.
    """
    global _code_version
    if _code_version is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _code_version = digest.hexdigest()
    return _code_version


def spec_key(spec: Union[ExperimentSpec, SyntheticSpec, RecordingSpec]) -> str:
    """Content hash identifying one experiment under the current code.

    ``ExperimentSpec`` is a tree of frozen dataclasses of primitives
    (including its :class:`~repro.faults.FaultPlan`), so the ``repr`` of its
    canonical form is a complete, deterministic serialisation in which a
    scale-derived default and its explicit value agree.  A
    :class:`SyntheticSpec` runs no simulation, so its key leaves the code
    version out; a :class:`RecordingSpec`'s key covers its output directory.
    """
    digest = hashlib.sha256()
    if isinstance(spec, SyntheticSpec):
        digest.update(b"synthetic/")
    else:
        digest.update(code_version().encode())
        spec = spec.canonical()
    digest.update(repr(spec).encode())
    return digest.hexdigest()


# -- synthetic cells --------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """A no-op spec for exercising sweeps and the pool themselves at scale.

    Executes in microseconds (optionally sleeping ``sleep_s`` to model a
    slow cell, or failing deterministically with ``fail=True``), so a
    10k-spec sweep stresses the journal, the workers, and the watchdog —
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


def _run_synthetic(spec: SyntheticSpec) -> SyntheticResult:
    if spec.sleep_s > 0:
        time.sleep(spec.sleep_s)
    if spec.fail:
        raise RuntimeError(f"synthetic failure (spec {spec.index})")
    key = spec_key(spec)
    return SyntheticResult(key=key, index=spec.index, value=int(key[:8], 16))


# -- recording cells --------------------------------------------------------


@dataclass(frozen=True)
class RecordingSpec:
    """An experiment run through the trace recorder into ``out_dir``.

    A ``record_trace`` service job wraps each of its specs in one, so the
    traces are written wherever the spec executes, a pool worker included.
    The output directory is part of the key: a recording never adopts a
    plain run's cached result, which has no traces behind it.
    """

    spec: ExperimentSpec
    out_dir: str

    def canonical(self) -> "RecordingSpec":
        return RecordingSpec(self.spec.canonical(), self.out_dir)


def _run_recording(spec: RecordingSpec) -> ExperimentResult:
    from repro.trace.record import record_experiment

    result, _paths = record_experiment(spec.spec, spec.out_dir)
    return result


# -- failures ---------------------------------------------------------------


@dataclass
class ExperimentFailure:
    """One spec that could not produce a result.

    Occupies the failed spec's slot in :func:`run_specs`'s output so grid
    positions stay aligned.  ``kind`` is ``"error"`` (the simulation
    raised), ``"timeout"`` (exceeded the wall-clock budget), or ``"crash"``
    (the worker process died).  Failures are never written to the cache.
    """

    spec: ExperimentSpec
    kind: str
    message: str
    attempts: int = 1
    from_cache: bool = False  # mirrors ExperimentResult for uniform handling

    @property
    def failed(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"[{self.kind}] after {self.attempts} attempt(s): {self.message}"


class ExperimentGridError(RuntimeError):
    """Raised after a grid completes when some specs failed.

    Raised only once every other spec has run and been cached, so a single
    bad configuration never costs the rest of the figure.  ``results``
    holds the full mixed output list; ``failures`` just the failed slots.
    """

    def __init__(
        self,
        results: List[Union[ExperimentResult, ExperimentFailure]],
        failures: List[ExperimentFailure],
    ) -> None:
        self.results = results
        self.failures = failures
        lines = [f"{len(failures)} of {len(results)} experiments failed:"]
        lines += [f"  - {failure}" for failure in failures]
        super().__init__("\n".join(lines))


class _SpecTimeout(Exception):
    """Internal: the SIGALRM deadline fired inside a worker."""


# -- cache ------------------------------------------------------------------


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.pkl"


def load_cached(
    cache_dir: Path, key: str
) -> Optional[Union[ExperimentResult, SyntheticResult]]:
    """Load one cached result, or ``None`` (missing, corrupt, or stale)."""
    path = _cache_path(Path(cache_dir), key)
    try:
        with path.open("rb") as handle:
            result = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return None  # missing, corrupt, or stale entry: just re-run
    if not isinstance(result, (ExperimentResult, SyntheticResult)):
        return None
    result.from_cache = True
    return result


def store_cached(cache_dir: Path, key: str, result: object) -> None:
    """Persist one success under ``key``; failures are silently refused."""
    if not isinstance(result, (ExperimentResult, SyntheticResult)):
        # Failures (or a slot that never produced anything) must not be
        # persisted: a cached failure would satisfy every future lookup.
        return
    path = _cache_path(Path(cache_dir), key)
    # Write-then-rename so a parallel worker never reads a torn entry.
    with atomic_open(path, "wb") as handle:
        pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)


@dataclass
class CacheEntry:
    """One file in a result cache, classified for ``repro cache``.

    ``status`` is ``"ok"`` (loads, and its key matches the current code),
    ``"stale"`` (a result from an older code version), ``"corrupt"``
    (unreadable), or ``"orphan"`` (a ``*.tmp.*`` left by a crashed worker).
    Everything except ``"ok"`` is prunable.
    """

    path: Path
    size_bytes: int
    status: str

    @property
    def prunable(self) -> bool:
        return self.status != "ok"


def cache_entries(cache_dir: os.PathLike) -> List[CacheEntry]:
    """Classify every file in a result cache directory.

    Tolerant of concurrent writers and pruners: an entry that vanishes
    between listing and inspection (ENOENT at ``stat`` or ``open``) is
    simply skipped, and a torn/partial entry classifies as ``"corrupt"``
    rather than raising — another process may be pruning or rewriting the
    same directory at any time.
    """
    cache = Path(cache_dir)
    entries: List[CacheEntry] = []
    if not cache.is_dir():
        return entries
    try:
        listing = sorted(cache.iterdir())
    except FileNotFoundError:
        return entries  # the directory itself vanished under us
    for path in listing:
        try:
            if not path.is_file():
                continue
            size = path.stat().st_size
        except FileNotFoundError:
            continue  # deleted between listing and stat
        if ".tmp." in path.name:
            entries.append(CacheEntry(path, size, "orphan"))
            continue
        if path.suffix != ".pkl":
            continue
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            continue  # deleted between stat and open
        except Exception:
            entries.append(CacheEntry(path, size, "corrupt"))
            continue
        if not isinstance(result, ExperimentResult):
            entries.append(CacheEntry(path, size, "corrupt"))
            continue
        # Re-deriving the key from the embedded spec uses the *current*
        # code hash; an entry written by older code lands on a different
        # name than its own, marking it stale.
        status = "ok" if path.stem == spec_key(result.spec) else "stale"
        entries.append(CacheEntry(path, size, status))
    return entries


def prune_cache(cache_dir: os.PathLike) -> List[CacheEntry]:
    """Delete stale/corrupt/orphaned cache files; returns what was removed."""
    removed: List[CacheEntry] = []
    for entry in cache_entries(cache_dir):
        if entry.prunable:
            entry.path.unlink(missing_ok=True)
            removed.append(entry)
    return removed


# -- guarded execution ------------------------------------------------------


def call_with_deadline(fn, timeout_s: Optional[float]):
    """Call ``fn()``, bounded by ``timeout_s`` of wall clock.

    The deadline uses ``SIGALRM``/``setitimer``, which interrupts even a
    simulation stuck in a tight Python loop.  It is only armed where it
    can work — the main thread of a Unix process (which a pool worker's
    entry point always is); elsewhere the call runs unbounded.

    On timeout, raises :class:`_SpecTimeout` — but only while ``fn`` is
    actually running.  Whatever happens, ``SIGALRM`` is left exactly as it
    was found: handler restored, timer disarmed.  That invariant is what
    lets a persistent pool worker run specs back to back without one
    spec's deadline machinery leaking into the next.
    """
    if (
        timeout_s is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return fn()

    def _alarm(signum, frame):
        raise _SpecTimeout()

    # Ordering matters for every exit path.  The timer is armed *inside*
    # the outer try so the handler is restored even if arming raises, and
    # the timer is disarmed in its own finally *before* the handler swap
    # so a pending alarm can never fire into the caller's handler.  One
    # hazard remains: an alarm delivered in the disarm window (after
    # ``fn`` returns, before ``setitimer(0)`` takes effect) runs the
    # handler at the next bytecode boundary — which may be *inside* the
    # outer finally, aborting the ``signal.signal`` restore and leaking
    # our handler into the caller.  In a short-lived pool worker that was
    # survivable; in a persistent warm worker the leaked handler would
    # turn some later spec's alarm into a spurious timeout.  The retry
    # loop absorbs any such late alarm (the timer is already disarmed, so
    # at most one is pending) and guarantees the restore completes; the
    # completed call's result is then returned as a success, which is the
    # deterministic choice — the work did finish.
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        while True:
            try:
                signal.signal(signal.SIGALRM, previous)
                break
            except _SpecTimeout:
                continue


def execute_guarded(
    spec: Union[ExperimentSpec, SyntheticSpec, RecordingSpec],
    timeout_s: Optional[float] = None,
    retries: int = 0,
    sinks: Sequence[Sink] = (),
) -> Union[ExperimentResult, SyntheticResult, ExperimentFailure]:
    """Run one spec; never raises — failures come back as values.

    Returning (not raising) is what keeps a pool worker alive and the rest
    of the grid unharmed when one configuration is broken.  ``retries``
    re-runs a failing spec at once: the simulations are deterministic, so
    a retry only absorbs environmental flakes and waiting before it would
    only delay the same error.  This is the one retry mechanism: inline
    sweeps, pool workers, :func:`run_specs` and the service all use it.
    ``sinks`` observe an :class:`ExperimentSpec`'s run (``repro run
    --trace``).
    """
    if isinstance(spec, SyntheticSpec):
        run = _run_synthetic
    elif isinstance(spec, RecordingSpec):
        run = _run_recording
    elif sinks:
        run = partial(run_experiment, sinks=sinks)
    else:
        run = run_experiment
    attempts = 0
    while True:
        attempts += 1
        try:
            result = call_with_deadline(lambda: run(spec), timeout_s)
            result.from_cache = False
            return result
        except _SpecTimeout:
            failure = ExperimentFailure(
                spec,
                "timeout",
                f"exceeded the wall-clock budget of {timeout_s}s",
                attempts=attempts,
            )
        except Exception as exc:
            detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            failure = ExperimentFailure(spec, "error", detail, attempts=attempts)
        if attempts > retries:
            return failure


def run_specs(
    specs: Sequence[ExperimentSpec],
    jobs: int = 1,
    cache_dir: Optional[os.PathLike] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    on_error: str = "raise",
) -> List[Union[ExperimentResult, ExperimentFailure]]:
    """Run experiments, in input order, with parallelism, cache, containment.

    ``jobs`` caps the worker-process count (clamped to the number of
    experiments actually missing from the cache); ``jobs=1`` runs inline.
    Cached results carry ``from_cache=True``, fresh ones ``False``.

    ``timeout_s`` bounds each spec's wall clock; ``retries`` re-runs a
    failing spec that many extra times.  A spec that still fails becomes an
    :class:`ExperimentFailure` in its slot (never cached).  With
    ``on_error="raise"`` (default) an :class:`ExperimentGridError` is
    raised after the whole grid has run and every success is cached;
    ``on_error="return"`` returns the mixed list instead.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    if on_error not in ("raise", "return"):
        raise ValueError(f"on_error must be 'raise' or 'return', got {on_error!r}")
    specs = list(specs)
    cache = Path(cache_dir) if cache_dir is not None else None
    results: List[Optional[Union[ExperimentResult, ExperimentFailure]]] = [
        None
    ] * len(specs)
    missing: List[int] = []
    keys: List[Optional[str]] = [None] * len(specs)
    for index, spec in enumerate(specs):
        if cache is not None:
            keys[index] = spec_key(spec)
            cached = load_cached(cache, keys[index])
            if cached is not None:
                results[index] = cached
                continue
        missing.append(index)

    if missing:
        jobs = min(jobs, len(missing))
        if jobs == 1:
            for index in missing:
                results[index] = execute_guarded(specs[index], timeout_s, retries)
        else:
            # Parallel grids run on the shared warm pool; the serial loop
            # above is the byte-identical reference path.
            from repro.experiments import pool as pool_mod

            outcomes = pool_mod.get_pool(jobs).run(
                [specs[index] for index in missing],
                timeout_s=timeout_s,
                retries=retries,
            )
            for index, outcome in zip(missing, outcomes):
                results[index] = outcome
        if cache is not None:
            for index in missing:
                store_cached(cache, keys[index], results[index])

    failures = [r for r in results if isinstance(r, ExperimentFailure)]
    if failures and on_error == "raise":
        raise ExperimentGridError(results, failures)  # type: ignore[arg-type]
    return results  # type: ignore[return-value]
