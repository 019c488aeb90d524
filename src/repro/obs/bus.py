"""The bus proper: timestamping fan-out from emit sites to sinks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = ["Bus", "Sink", "TraceEvent"]


@dataclass(frozen=True)
class TraceEvent:
    """One structured event as delivered to sinks."""

    time: float
    kind: str
    payload: Dict[str, object] = field(default_factory=dict)


class Sink:
    """Base class for event sinks (duck typing suffices; this documents the
    protocol and provides a no-op default).

    A sink may expose a ``kinds`` attribute (a set of event-kind strings, or
    ``None`` for "everything").  Emit sites use :meth:`Bus.wants` to skip
    building payloads for kinds no attached sink subscribes to; a sink
    without the attribute subscribes to everything, and one with an empty
    set to nothing (the machine leaves it off the bus).
    """

    def on_event(
        self, time: float, kind: str, payload: Optional[Dict[str, object]]
    ) -> None:  # pragma: no cover - interface default
        """Receive one event.  ``payload`` may be ``None`` for events with
        no fields; sinks must not mutate it (payloads may be interned and
        reused across emissions)."""


class Bus:
    """Fans events out to sinks, stamping them with the engine clock.

    A ``Bus`` only exists while at least one sink is attached; components
    hold ``obs = None`` otherwise, which is the zero-overhead-when-disabled
    contract.
    """

    __slots__ = ("engine", "sinks", "_wants_all", "_wanted")

    def __init__(self, engine, sinks: Iterable[Sink]) -> None:
        self.engine = engine
        self.sinks: List[Sink] = list(sinks)
        if not self.sinks:
            raise ValueError("a Bus requires at least one sink")
        # Precompute the subscription union so hot emit sites can skip the
        # payload-dict build entirely when nobody is listening for a kind.
        self._wants_all = False
        wanted: set = set()
        for sink in self.sinks:
            kinds = getattr(sink, "kinds", None)
            if kinds is None:
                self._wants_all = True
                break
            wanted.update(kinds)
        self._wanted = wanted

    def wants(self, kind: str) -> bool:
        """True if at least one sink subscribes to ``kind``.

        Subscriptions are read once at construction; a sink that mutates its
        ``kinds`` afterwards must attach a fresh Bus.
        """
        return self._wants_all or kind in self._wanted

    def emit(self, kind: str, payload: Optional[Dict[str, object]] = None) -> None:
        now = self.engine.now
        for sink in self.sinks:
            sink.on_event(now, kind, payload)
