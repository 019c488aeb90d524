"""The shared information page (Section 3.1.1).

A single 16 KB page, allocated by the OS and mapped read-only into the
application, used primarily as a bitmap indexed by virtual page number: a
set bit means the page is in memory.  The first two words are reserved for
the current number of pages in use and the recommended upper limit on pages
(Equation 1):

    upper_limit = min(maxrss, current_size + tot_freemem - min_freemem)

Updates are *lazy*: the OS refreshes the usage words only when the process
experiences memory-system activity (a fault, a prefetch/release request, or
having memory stolen), never eagerly on every global free-memory change —
exactly the trade-off Section 3.1.1 describes.
"""

from __future__ import annotations

from typing import Set

__all__ = ["SharedPage"]


class SharedPage:
    """Bitmap plus usage words, shared between the OS and one process."""

    def __init__(self, vm, aspace, mapped_range: range) -> None:
        self._vm = vm
        self._aspace = aspace
        self.mapped_range = mapped_range
        self._bits: Set[int] = set()
        self.current_usage = 0
        self.upper_limit = 0
        self.refreshes = 0
        # The frame table never grows or shrinks, so the maxrss term of
        # Equation 1 is a constant; refresh() runs on every fault and hint.
        self._maxrss = vm.tunables.maxrss_pages(len(vm.frame_table))
        self._min_freemem = vm.tunables.min_freemem_pages
        self._freelist = vm.freelist
        # "When the application attaches the PM to a region of its virtual
        # address space, the bits corresponding to those addresses are all
        # cleared" — we start with an empty set, which is the same thing.
        self.refresh()

    # -- bitmap -------------------------------------------------------------
    def set_bit(self, vpn: int) -> None:
        if vpn in self.mapped_range:
            self._bits.add(vpn)

    def clear_bit(self, vpn: int) -> None:
        self._bits.discard(vpn)

    def bit(self, vpn: int) -> bool:
        """Is this page in memory, as far as the application can see?"""
        return vpn in self._bits

    def resident_bits(self) -> int:
        return len(self._bits)

    # -- usage words ----------------------------------------------------------
    def refresh(self) -> None:
        """Recompute the two reserved words (called on memory activity)."""
        self.refreshes += 1
        current = self._aspace._resident
        self.current_usage = current
        # Equation 1, with the min() builtin call unrolled.
        limit = current + self._freelist._free_count - self._min_freemem
        maxrss = self._maxrss
        self.upper_limit = maxrss if maxrss < limit else limit
        obs = self._vm.obs
        if obs is not None and obs.wants("kernel.shared_page"):
            obs.emit(
                "kernel.shared_page",
                {
                    "aspace": self._aspace.name,
                    "usage": self.current_usage,
                    "limit": self.upper_limit,
                },
            )

    def headroom(self) -> int:
        """Pages the process may still compete for before hitting the limit."""
        return self.upper_limit - self.current_usage
