"""Tracing from outside the program: spans around public calls, and a
SIGPROF stack sampler that splits host time across ``repro``'s layers.

Nothing here edits ``repro``.  Spans come from wrapping public functions
for the duration of a traced run (every module binding of the function is
swapped, then restored); layer self time comes from sampling the main
thread's Python stack on each CPU-time tick.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

#: The layers host time is split into, named after ``repro``'s packages.
LAYERS = (
    "sim",
    "workloads",
    "core.compiler",
    "core.runtime",
    "kernel",
    "vm",
    "disk",
    "policies",
    "trace",
    "machine",
    "experiments",
    "service",
    "scenarios",
)

#: Module prefixes that are layers, most specific first.  ``repro.core.hints``
#: holds the hint records the run-time layer consumes.
_PREFIXES = (
    ("repro.core.compiler", "core.compiler"),
    ("repro.core.runtime", "core.runtime"),
    ("repro.core.hints", "core.runtime"),
) + tuple((f"repro.{layer}", layer) for layer in LAYERS if "." not in layer)

#: Where a sample lands when no ``repro`` layer is on the stack: in the
#: benchmark's own modules, or elsewhere (stdlib only, e.g. idle threads).
BENCH = "bench"
OTHER = "other"
_BENCH_MODULES = {"__main__", "run", "physics", "tracing", "workloads", "selfcheck"}


def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer a module belongs to, or None for a pass-through module.

    Stdlib, builtins and the shared ``repro`` utilities (``obs``, ``ioutil``,
    ``config``, ``faults``, ``bench``, ``cli``) pass through, so their time
    goes to the nearest calling layer.
    """
    if not module:
        return None
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return BENCH if module in _BENCH_MODULES else None


class Tracer:
    """In-memory spans (name, start, end, parent) plus the swapped bindings."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.phase = "setup"
        self.wire_bytes = 0
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Tuple[int, float]:
        stack = self._stack()
        span_id = len(self.spans)
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "parent": stack[-1] if stack else None,
                "phase": self.phase,
                "start": None,
                "end": None,
            }
        )
        stack.append(span_id)
        return span_id, time.perf_counter()

    def end(self, token: Tuple[int, float]) -> None:
        span_id, started = token
        finished = time.perf_counter()
        span = self.spans[span_id]
        span["start"] = started - self._origin
        span["end"] = finished - self._origin
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()

    def totals(self, phases: Tuple[str, ...]) -> Dict[str, float]:
        """Inclusive seconds per span name, over spans begun in ``phases``."""
        out: Dict[str, float] = {}
        for span in self.spans:
            if span["end"] is None or span["phase"] not in phases:
                continue
            name = str(span["name"])
            out[name] = out.get(name, 0.0) + span["end"] - span["start"]
        return out

    # -- wrapping public functions ------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        modules: Tuple[str, ...] = ("repro",),
        count_bytes: Optional[str] = None,
    ) -> None:
        """Time every call to ``owner.attr`` as a span named ``name``.

        ``owner`` is a class (the method is swapped on the class) or a
        module, in which case every binding of the same function object in
        the loaded modules under ``modules`` is swapped too, so call sites
        that imported the name directly are covered.  ``count_bytes`` adds
        the length of the ``"result"`` or first ``"arg"`` to ``wire_bytes``.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        tracer = self

        def wrapper(*args, **kwargs):
            token = tracer.begin(name)
            try:
                out = func(*args, **kwargs)
            finally:
                tracer.end(token)
            if count_bytes == "result":
                tracer.wire_bytes += len(out)
            elif count_bytes == "arg":
                tracer.wire_bytes += len(args[0])
            return out

        wrapper.__wrapped__ = func
        if isinstance(raw, classmethod):
            replacement = classmethod(wrapper)
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(wrapper)
        else:
            replacement = wrapper
        targets = [owner]
        if not isinstance(owner, type):
            targets = [
                module
                for mod_name, module in list(sys.modules.items())
                if module is not None
                and mod_name.startswith(modules)
                and getattr(module, attr, None) is func
            ]
            if owner not in targets:
                targets.append(owner)
        for target in targets:
            self._restore.append((target, attr, raw if target is owner else func))
            setattr(target, attr, replacement)

    def unwrap_all(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)


class StackSampler:
    """Attributes process CPU time to ``repro`` layers by stack sampling.

    Every ``interval_s`` of process CPU time, SIGPROF interrupts the main
    thread; the handler walks its stack from the innermost frame outwards to
    the first frame of a layer and charges that layer with the CPU time used
    since the previous sample.  Builtins and stdlib frames therefore charge
    the ``repro`` layer that called them.  Samples are kept per phase.
    """

    def __init__(self, tracer: Tracer, interval_s: float = 0.001) -> None:
        self.tracer = tracer
        self.interval_s = interval_s
        self.by_phase: Dict[str, Dict[str, float]] = {}
        self.samples = 0
        self._code_layer: Dict[object, Optional[str]] = {}
        self._last_cpu = 0.0
        self._previous = None

    def _handler(self, _signum, frame) -> None:
        now = time.process_time()
        weight = now - self._last_cpu
        self._last_cpu = now
        cache = self._code_layer
        layer = OTHER
        while frame is not None:
            code = frame.f_code
            found = cache.get(code, 0)
            if found == 0:
                found = cache[code] = layer_of(frame.f_globals.get("__name__"))
            if found is not None:
                layer = found
                break
            frame = frame.f_back
        bucket = self.by_phase.setdefault(self.tracer.phase, {})
        bucket[layer] = bucket.get(layer, 0.0) + weight
        self.samples += 1

    def start(self) -> None:
        self._last_cpu = time.process_time()
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def layer_totals(self, phases: Optional[Tuple[str, ...]] = None) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for phase, bucket in self.by_phase.items():
            if phases is not None and phase not in phases:
                continue
            for layer, seconds in bucket.items():
                out[layer] = out.get(layer, 0.0) + seconds
        return out
