"""Two-level memory hierarchy: split L1 I/D caches over a unified L2.

The hierarchy routes distinct-line access runs through L1 and feeds each
level's misses to the next.  ``ws_lines`` — the footprint (in lines) of the
stream the run was drawn from — arms the analytic streaming fast path in
each level independently (a sweep may thrash a 16K L1 while fitting in a
1M L2).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.config import MachineConfig
from repro.uarch.cache import STREAM_FACTOR, Cache


class MemoryHierarchy:
    """L1I + L1D over a unified L2, with miss propagation."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.il1 = Cache(config.icache)
        self.dl1 = Cache(config.dcache)
        self.ul2 = Cache(config.l2cache)

    def reset(self) -> None:
        """Invalidate all levels and zero their statistics."""
        self.il1.reset()
        self.dl1.reset()
        self.ul2.reset()

    # ------------------------------------------------------------------
    def access_data_run(
        self, lines: Sequence[int], ws_lines: int
    ) -> Tuple[int, int]:
        """Route a distinct-line data run; returns (l1d_misses, l2_misses)."""
        l1_streaming = ws_lines >= STREAM_FACTOR * self.dl1.capacity_lines
        l1_misses, miss_lines = self.dl1.access_run(lines, streaming=l1_streaming)
        if not miss_lines:
            return l1_misses, 0
        l2_streaming = ws_lines >= STREAM_FACTOR * self.ul2.capacity_lines
        l2_misses, _ = self.ul2.access_run(miss_lines, streaming=l2_streaming)
        return l1_misses, l2_misses

    def access_instruction_lines(
        self, lines: Sequence[int]
    ) -> Tuple[int, int]:
        """Fetch instruction lines; returns (l1i_misses, l2_misses)."""
        l1_misses, miss_lines = self.il1.access_run(lines)
        if not miss_lines:
            return l1_misses, 0
        l2_misses, _ = self.ul2.access_run(miss_lines)
        return l1_misses, l2_misses

    # ------------------------------------------------------------------
    def data_line_ids(self, addresses: Sequence[int]) -> List[int]:
        """Translate byte addresses to D-cache line ids."""
        line = self.config.dcache.line_size
        return [int(a) // line for a in addresses]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MemoryHierarchy il1={self.il1!r} dl1={self.dl1!r} "
            f"ul2={self.ul2!r}>"
        )
