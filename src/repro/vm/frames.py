"""Physical frames as parallel arrays, plus the free list with rescue.

The free list is the mechanism behind two of the paper's observations:

1. *"Released pages are placed at the end of the free list, giving pages
   that were released too early a chance to be rescued."* (Section 3.1.2)
2. Figure 9's breakdown of freed pages into daemon-freed vs. release-freed,
   each with a rescued fraction.

A frame pushed onto the list keeps its ``(address space, vpn)`` identity
until it is popped for reallocation; a fault on that page meanwhile can
*rescue* it — reattach it without any I/O.

Data layout
-----------
Frame state lives in :class:`FrameTable` as parallel columns indexed by
frame number: the nine per-frame bits are packed into one int per frame in
``flags``, the backing vpn and freed-by code are ``array`` columns, and the
owner/in-transit references are plain lists.  The clock hand, free list,
releaser, and fault handler all work on integer frame indices; the
:class:`Frame` class is only a *view* — a (table, index) proxy exposing the
old attribute API for tests and debugging, never used on hot paths.

``flags`` is a plain list rather than an ``array``: reading ``array('l')``
boxes a fresh int object on every access, while a list returns the stored
reference — measurably cheaper on the touch/fault/clock paths that read
flags millions of times per run.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.sim.engine import Engine, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.pagetable import AddressSpace

__all__ = [
    "Frame",
    "FrameTable",
    "FreeList",
    "F_PRESENT",
    "F_SW_VALID",
    "F_REFERENCED",
    "F_DIRTY",
    "F_INVALIDATED",
    "F_FROM_PREFETCH",
    "F_RELEASE_PENDING",
    "F_ON_FREE_LIST",
    "F_WIRED",
    "F_IN_TRANSIT",
]

# Per-frame state bits, packed into FrameTable.flags[index].
F_PRESENT = 1 << 0
F_SW_VALID = 1 << 1
F_REFERENCED = 1 << 2
F_DIRTY = 1 << 3
F_INVALIDATED = 1 << 4
F_FROM_PREFETCH = 1 << 5
F_RELEASE_PENDING = 1 << 6
F_ON_FREE_LIST = 1 << 7
F_WIRED = 1 << 8
# Mirror of ``in_transit[index] is not None``, kept in sync wherever the
# event column is written.  Folding the in-flight test into the flags word
# lets the touch fast path decide hit/miss with a single mask compare over
# one column instead of two list reads.
F_IN_TRANSIT = 1 << 9

# reset_identity() clears the page-content bits but preserves the frame's
# lifecycle bits (present / on-free-list / wired).
_IDENTITY_BITS = (
    F_SW_VALID
    | F_REFERENCED
    | F_DIRTY
    | F_INVALIDATED
    | F_FROM_PREFETCH
    | F_RELEASE_PENDING
)

# Who freed a frame — needed for Figure 9's rescued-fraction breakdown.
# Small ints so the column packs into an array('b').
FREED_BY_INIT = 0
FREED_BY_DAEMON = 1
FREED_BY_RELEASE = 2
FREED_BY_EXIT = 3
FREED_BY_NAMES = ("init", "daemon", "release", "exit")


class FrameTable:
    """All physical frames, in clock-hand order, as parallel columns."""

    def __init__(self, total_frames: int) -> None:
        if total_frames < 1:
            raise ValueError("need at least one frame")
        self.nframes = total_frames
        self.flags: List[int] = [0] * total_frames
        self.vpn = array("l", [-1]) * total_frames
        self.freed_by = array("b", [FREED_BY_INIT]) * total_frames
        self.owner: List[Optional["AddressSpace"]] = [None] * total_frames
        self.in_transit: List[Optional[Event]] = [None] * total_frames

    def __len__(self) -> int:
        return self.nframes

    def __getitem__(self, index: int) -> "Frame":
        if index < 0 or index >= self.nframes:
            raise IndexError(index)
        return Frame(self, index)

    def __iter__(self):
        table = self
        return (Frame(table, i) for i in range(self.nframes))

    def is_active(self, index: int) -> bool:
        """Attached to an address space and eligible for the clock hand."""
        return (
            self.flags[index] & (F_PRESENT | F_WIRED) == F_PRESENT
            and self.owner[index] is not None
        )

    def active_count(self) -> int:
        return sum(1 for i in range(self.nframes) if self.is_active(i))

    def reset_identity(self, index: int) -> None:
        """Forget whose page this frame holds (content bits only)."""
        self.owner[index] = None
        self.vpn[index] = -1
        self.flags[index] &= ~_IDENTITY_BITS


def _flag_property(bit: int):
    def fget(self) -> bool:
        return bool(self.table.flags[self.index] & bit)

    def fset(self, value: bool) -> None:
        if value:
            self.table.flags[self.index] |= bit
        else:
            self.table.flags[self.index] &= ~bit

    return property(fget, fset)


class Frame:
    """A (table, index) *view* of one physical frame.

    Exposes the classic attribute API (``present``, ``sw_valid``, …) on top
    of the column layout.  Views are cheap throwaway proxies for tests,
    debugging, and cold paths; hot code indexes the columns directly.

    ``sw_valid`` models the MIPS software-managed valid bit: the paging
    daemon clears it to simulate a reference bit, and the next touch by the
    owner takes a *soft fault* to re-validate.  ``invalidated`` distinguishes
    a daemon invalidation from a never-validated prefetched page (which pays
    only the cheap ``prefetch_validate`` cost on first touch).
    """

    __slots__ = ("table", "index")

    def __init__(self, table: FrameTable, index: int) -> None:
        self.table = table
        self.index = index

    present = _flag_property(F_PRESENT)
    sw_valid = _flag_property(F_SW_VALID)
    referenced = _flag_property(F_REFERENCED)
    dirty = _flag_property(F_DIRTY)
    invalidated = _flag_property(F_INVALIDATED)
    from_prefetch = _flag_property(F_FROM_PREFETCH)
    release_pending = _flag_property(F_RELEASE_PENDING)
    on_free_list = _flag_property(F_ON_FREE_LIST)
    wired = _flag_property(F_WIRED)

    @property
    def owner(self) -> Optional["AddressSpace"]:
        return self.table.owner[self.index]

    @owner.setter
    def owner(self, value: Optional["AddressSpace"]) -> None:
        self.table.owner[self.index] = value

    @property
    def vpn(self) -> int:
        return self.table.vpn[self.index]

    @vpn.setter
    def vpn(self, value: int) -> None:
        self.table.vpn[self.index] = value

    @property
    def freed_by(self) -> int:
        return self.table.freed_by[self.index]

    @freed_by.setter
    def freed_by(self, value: int) -> None:
        self.table.freed_by[self.index] = value

    @property
    def in_transit(self) -> Optional[Event]:
        return self.table.in_transit[self.index]

    @in_transit.setter
    def in_transit(self, value: Optional[Event]) -> None:
        self.table.in_transit[self.index] = value
        if value is not None:
            self.table.flags[self.index] |= F_IN_TRANSIT
        else:
            self.table.flags[self.index] &= ~F_IN_TRANSIT

    @property
    def active(self) -> bool:
        return self.table.is_active(self.index)

    def reset_identity(self) -> None:
        self.table.reset_identity(self.index)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Frame)
            and other.table is self.table
            and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((id(self.table), self.index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        owner = self.owner.name if self.owner is not None else None
        return f"Frame({self.index}, owner={owner}, vpn={self.vpn})"


class FreeList:
    """FIFO free list of frame *indices* with identity retention and rescue.

    Frames are appended at the tail and allocated from the head, so a freed
    page survives on the list for as long as it takes the allocation stream
    to consume everything ahead of it — the "rescue window".  Rescue removal
    from the middle is done lazily: the frame is marked off-list and skipped
    when the head reaches it.
    """

    def __init__(self, engine: Engine, frame_table: FrameTable) -> None:
        self.engine = engine
        self.table = frame_table
        self._queue: Deque[int] = deque(range(frame_table.nframes))
        self._identity: Dict[Tuple[int, int], int] = {}
        self._free_count = frame_table.nframes
        self._waiters: List[Event] = []
        # Statistics for Figure 9 / Table 3.
        self.pushes_by_daemon = 0
        self.pushes_by_release = 0
        self.rescues_from_daemon = 0
        self.rescues_from_release = 0
        self.allocations = 0
        self.identity_destroyed = 0
        flags = frame_table.flags
        for index in range(frame_table.nframes):
            flags[index] |= F_ON_FREE_LIST

    def __len__(self) -> int:
        return self._free_count

    @property
    def free_count(self) -> int:
        return self._free_count

    # -- freeing ----------------------------------------------------------
    def push(self, index: int, freed_by: int) -> None:
        """Append a frame at the tail, retaining its page identity."""
        table = self.table
        flags = table.flags
        fl = flags[index]
        if fl & F_ON_FREE_LIST:
            raise ValueError(f"frame {index} already free")
        flags[index] = (fl | F_ON_FREE_LIST) & ~(F_PRESENT | F_SW_VALID)
        table.freed_by[index] = freed_by
        if freed_by == FREED_BY_DAEMON:
            self.pushes_by_daemon += 1
        elif freed_by == FREED_BY_RELEASE:
            self.pushes_by_release += 1
        owner = table.owner[index]
        vpn = table.vpn[index]
        if owner is not None and vpn >= 0:
            pt = owner.pt  # owner.frame_index(vpn) < 0, inlined
            if vpn >= len(pt) or pt[vpn] < 0:
                self._identity[(owner.asid, vpn)] = index
            else:
                # The vpn was re-faulted into a fresh frame while this one
                # sat in writeback: this copy is stale — stay anonymous.
                table.reset_identity(index)
        self._queue.append(index)
        self._free_count += 1
        if self._waiters:
            self._wake_waiters()

    # -- allocating -------------------------------------------------------
    def pop(self) -> Optional[int]:
        """Allocate the oldest free frame; destroys its old identity."""
        table = self.table
        flags = table.flags
        queue = self._queue
        while queue:
            index = queue.popleft()
            fl = flags[index]
            if not fl & F_ON_FREE_LIST:
                continue  # rescued earlier; lazy removal
            flags[index] = fl & ~F_ON_FREE_LIST
            self._free_count -= 1
            owner = table.owner[index]
            vpn = table.vpn[index]
            if owner is not None and vpn >= 0:
                key = (owner.asid, vpn)
                if self._identity.get(key) == index:
                    del self._identity[key]
                    self.identity_destroyed += 1
            table.reset_identity(index)
            self.allocations += 1
            return index
        return None

    def rescue(self, aspace: "AddressSpace", vpn: int) -> Optional[int]:
        """Pull a still-identified page back off the list, if present."""
        index = self._identity.pop((aspace.asid, vpn), None)
        if index is None:
            return None
        table = self.table
        fl = table.flags[index]
        if not fl & F_ON_FREE_LIST:  # pragma: no cover - defensive
            raise AssertionError("identity map out of sync with free list")
        table.flags[index] = fl & ~F_ON_FREE_LIST
        self._free_count -= 1
        freed_by = table.freed_by[index]
        if freed_by == FREED_BY_DAEMON:
            self.rescues_from_daemon += 1
        elif freed_by == FREED_BY_RELEASE:
            self.rescues_from_release += 1
        return index

    def rescuable(self, aspace: "AddressSpace", vpn: int) -> bool:
        return (aspace.asid, vpn) in self._identity

    def forget_identity(self, aspace: "AddressSpace", vpn: int) -> None:
        """Drop a stale identity: the page is being re-faulted into a new
        frame, so the free-list copy must never be rescued over it.  The
        frame itself stays queued and is later allocated as anonymous."""
        index = self._identity.pop((aspace.asid, vpn), None)
        if index is not None:
            self.table.reset_identity(index)

    # -- blocking ---------------------------------------------------------
    def wait_for_free(self) -> Event:
        """Event that fires the next time a frame is freed.

        If frames are free right now the event fires immediately, so callers
        can loop ``pop -> wait`` without races.
        """
        event = self.engine.event()
        if self._free_count > 0:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def _wake_waiters(self) -> None:
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()
