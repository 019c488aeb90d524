"""Discrete-event simulation substrate.

This package is a from-scratch, SimPy-style discrete-event engine.  The paper
ran on real hardware (a 4-processor SGI Origin 200 under a modified IRIX
6.5); this engine is the clock and scheduler on which every simulated
component of that platform — disks, the VM subsystem, the paging and releaser
daemons, and the application processes themselves — executes.

Public surface:

- :class:`~repro.sim.engine.Engine` — the event loop and virtual clock.
- :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Timeout`,
  :class:`~repro.sim.engine.Process` — the primitive awaitables.
- :class:`~repro.sim.engine.AnyOf` / :class:`~repro.sim.engine.AllOf` —
  condition events.
- :class:`~repro.sim.sync.Lock`, :class:`~repro.sim.sync.Resource`,
  :class:`~repro.sim.sync.Store` — synchronisation on the engine
  (``Resource`` grants by callback, the others by event).
- :class:`~repro.sim.stats.TimeBuckets` — the four-way execution-time
  breakdown used by Figure 7 of the paper.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.stats import Counter, Histogram, TimeBuckets
from repro.sim.sync import Lock, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Engine",
    "Event",
    "Histogram",
    "Interrupt",
    "Lock",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "TimeBuckets",
    "Timeout",
]
