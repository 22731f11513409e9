"""Analytic LRU cache-occupancy model for data accesses.

The block-level timing simulator models the data hierarchy with per-region
*residency* accounting rather than per-line state (cf. statistical cache
models such as StatCache/StatStack).

**Visit-level hit rates.** A loop visit sweeps its footprint ``F`` lines
(re-starting from the beginning each visit) for a known total of ``T``
distinct-line touches.  When a visit begins, the model derives one hit rate
for the whole visit from the residency ``R`` its region retained since its
last visit::

    hits(T) = min(T, F) * R/F          # first sweep: only retained lines hit
            + max(0, T - F) * min(1, C/F)   # re-sweeps: self-capacity bound

Every batch of the visit — whether the baseline processes it as one giant
run or a simulation point slices 2.5K instructions out of its middle —
hits at the same rate.  This position-independence is deliberate: real 10M
SimPoint intervals dwarf inner-loop sweeps, so per-interval cache behaviour
is position-stationary in the paper's setting; at our 250:1 instruction
scale a per-line (or within-visit-evolving) model would make a thin slice's
hit rate depend on where in the sweep it falls, which is an artifact, not
microarchitecture.

**LRU across regions.** Residency is capacity-managed across regions with
recency-ordered eviction: the region being swept keeps its footprint (up to
capacity); the stalest regions lose theirs first.  History therefore still
matters — a phase's first-ever visit after a long absence sees whatever its
region retained, warming passes populate state, and capacity differences
(config A vs B) shift every hit rate.

The set-associative model in :mod:`repro.uarch.cache` remains in use for
the instruction cache and the instruction-level OoO reference simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Tuple

from ..config import CacheConfig
from ..errors import SimulationError


def visit_hit_rate(
    resident: float, footprint: float, visit_touches: float, capacity: float
) -> float:
    """Hit rate of a visit of *visit_touches* touches over *footprint* lines
    entered with *resident* lines retained, in a cache of *capacity* lines."""
    if visit_touches <= 0:
        return 0.0
    if footprint <= 0:
        raise SimulationError("bad footprint")
    resident = min(resident, footprint)
    first = min(visit_touches, footprint)
    hits = first * (resident / footprint)
    rest = visit_touches - first
    if rest > 0:
        hits += rest * min(1.0, capacity / footprint)
    return min(1.0, hits / visit_touches)


class OccupancyCache:
    """Per-region residency ledger of one cache level (LRU across regions)."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.capacity = float(config.n_lines)
        self._residency: Dict[int, float] = {}
        self._last_access: Dict[int, int] = {}
        self._clock = 0

    def reset(self) -> None:
        """Drop all residency (cold cache)."""
        self._residency.clear()
        self._last_access.clear()
        self._clock = 0

    # ------------------------------------------------------------------
    def residency(self, region: int) -> float:
        """Resident lines of *region*."""
        return self._residency.get(region, 0.0)

    @property
    def occupancy(self) -> float:
        """Total resident lines across regions."""
        return sum(self._residency.values())

    def install(self, region: int, lines: float) -> None:
        """Set *region*'s residency to *lines* (capped by capacity), marking
        it most recently used and evicting stalest regions on overflow."""
        capacity = self.capacity
        residency = self._residency
        residency[region] = capacity if capacity < lines else lines
        self._clock += 1
        self._last_access[region] = self._clock
        overflow = sum(residency.values()) - capacity
        if overflow > 1e-9:
            for key in sorted(residency, key=self._last_access.get):
                held = residency[key]
                # Taking nothing from an empty region changes nothing.
                if key == region or not held:
                    continue
                take = held if held < overflow else overflow
                residency[key] = held - take
                overflow -= take
                if overflow <= 1e-9:
                    break
            if overflow > 1e-9:
                residency[region] = max(0.0, residency[region] - overflow)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OccupancyCache {self.config.name} {self.occupancy:.0f}/"
            f"{self.capacity:.0f} lines>"
        )


@dataclass
class _VisitState:
    """Hit rates derived at visit entry, applied to all its batches."""

    key: Hashable
    l1_hit: float
    l2_hit: float


class DataHierarchyModel:
    """L1D over unified L2, both as occupancy ledgers with visit hit rates.

    Instruction-fetch misses share the L2: they are routed in as touches of
    a dedicated *code region*.
    """

    #: Region id used for instruction lines in the (unified) L2.
    CODE_REGION = -1

    def __init__(self, l1_config: CacheConfig, l2_config: CacheConfig) -> None:
        self.l1 = OccupancyCache(l1_config)
        self.l2 = OccupancyCache(l2_config)
        self._visits: Dict[int, _VisitState] = {}
        self._code_hit = 0.0
        self._code_seen = 0.0

    def reset(self) -> None:
        """Cold hierarchy."""
        self.l1.reset()
        self.l2.reset()
        self._visits.clear()
        self._code_hit = 0.0
        self._code_seen = 0.0

    # ------------------------------------------------------------------
    def access_data(
        self,
        region: int,
        footprint: float,
        visit_key: Hashable,
        visit_touches: float,
        touches: float,
    ) -> Tuple[float, float]:
        """Data touches of one batch of a visit; returns fractional
        ``(l1_misses, l2_misses)``.

        ``visit_key`` identifies the visit (one loop-body segment of the
        trace); its first batch fixes the visit's hit rates from current
        residency, and installs the visit's footprint as resident.
        """
        state = self._visits.get(region)
        if state is None or state.key != visit_key:
            state = self._begin_visit(region, footprint, visit_key,
                                      visit_touches)
        l1_misses = touches * (1.0 - state.l1_hit)
        l2_misses = l1_misses * (1.0 - state.l2_hit)
        return l1_misses, l2_misses

    def _begin_visit(
        self,
        region: int,
        footprint: float,
        visit_key: Hashable,
        visit_touches: float,
    ) -> _VisitState:
        # Each level's residency is read once: installing into the L1
        # leaves the L2 ledger untouched.  ``a if a < b else b`` is
        # ``min(b, a)`` without the call.
        l1, l2 = self.l1, self.l2
        l1_before = l1._residency.get(region, 0.0)
        l1_hit = visit_hit_rate(l1_before, footprint, visit_touches,
                                l1.capacity)
        l2_touches = visit_touches * (1.0 - l1_hit)
        l2_before = l2._residency.get(region, 0.0)
        l2_hit = visit_hit_rate(l2_before, footprint, l2_touches, l2.capacity)
        # After the visit the region holds what it had plus the newly
        # missed lines (a full sweep leaves the whole footprint resident, a
        # sparse traversal only its touched subset), capacity permitting.
        l1_resident = l1_before + visit_touches * (1.0 - l1_hit)
        l1.install(region, l1_resident if l1_resident < footprint
                   else footprint)
        l2_resident = l2_before + l2_touches * (1.0 - l2_hit)
        l2.install(region, l2_resident if l2_resident < footprint
                   else footprint)
        state = _VisitState(key=visit_key, l1_hit=l1_hit, l2_hit=l2_hit)
        self._visits[region] = state
        return state

    # ------------------------------------------------------------------
    def access_code(self, code_lines: float, touches: float) -> float:
        """Instruction-fetch misses arriving at the L2; returns L2 misses.

        Code is a steadily re-touched region: its hit rate is its resident
        fraction, updated incrementally.
        """
        if touches <= 0:
            return 0.0
        resident = self.l2.residency(self.CODE_REGION)
        hit = min(1.0, resident / max(code_lines, 1.0))
        misses = touches * (1.0 - hit)
        self.l2.install(
            self.CODE_REGION, min(code_lines, resident + misses)
        )
        return misses
