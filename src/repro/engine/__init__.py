"""Dynamic trace generation, functional simulation and profiling."""

from .functional import FunctionalSimulator
from .profiles import (
    CoarseIntervalProfile,
    FixedIntervalProfile,
    FunctionalResult,
    StructureProfile,
    StructureProfiles,
)
from .shm import attach_or_none, attach_trace, share_trace, shm_enabled
from .trace import (
    TRACE_ARRAY_FIELDS,
    Segment,
    SegmentPiece,
    Trace,
    TraceBuilder,
    build_trace,
)

__all__ = [
    "CoarseIntervalProfile",
    "FixedIntervalProfile",
    "FunctionalResult",
    "FunctionalSimulator",
    "Segment",
    "SegmentPiece",
    "StructureProfile",
    "StructureProfiles",
    "TRACE_ARRAY_FIELDS",
    "Trace",
    "TraceBuilder",
    "attach_or_none",
    "attach_trace",
    "build_trace",
    "share_trace",
    "shm_enabled",
]
