"""Reference engine paths: the object trace builder and the loop profilers.

:func:`build_trace` unrolls a workload's schedule into :class:`Segment`
objects the way the engine did before it emitted flat arrays directly;
:func:`run`, :func:`profile_coarse_intervals` and
:func:`profile_structures` are the per-segment / per-piece loops that
:class:`~repro.engine.functional.FunctionalSimulator` replaced with
weighted bincounts.  The profilers take the simulator first, so each is
also a drop-in method: a test can compare it with the production method
on one input, or install it on the class for a whole pipeline run.

The production paths are bit-identical to these: the builder draws the
RNG stream in exactly this order, and every bincount accumulator cell
receives its additions in the order these loops add them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.functional import FunctionalSimulator
from repro.engine.profiles import (
    CoarseIntervalProfile,
    FunctionalResult,
    StructureProfile,
    StructureProfiles,
)
from repro.engine.trace import Segment, Trace, TraceBuilder
from repro.errors import TraceError
from repro.obs import FUNCTIONAL_INSTRUCTIONS, PROFILE_PASSES
from repro.workloads.generator import Workload


def build_trace(workload: Workload) -> Trace:
    """Unroll *workload* into Segment objects, then into a trace."""
    wl = workload
    spec = wl.spec
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    segments: List[Segment] = []

    # --- prologue --------------------------------------------------
    for block in wl.prologue_blocks:
        segments.append(Segment(blocks=(block,), reps=1))
    init_reps = TraceBuilder.INIT_LOOP_REPS * max(1, spec.prologue_iterations)
    segments.append(Segment(blocks=(wl.init_loop_header,), reps=1))
    segments.append(
        Segment(
            blocks=(wl.init_loop_body,), reps=init_reps,
            loop_id=wl.init_loop_id,
        )
    )
    for scan_block, scan_reps in wl.init_scans:
        segments.append(Segment(blocks=(scan_block,), reps=scan_reps))

    # --- main outer loop --------------------------------------------
    for outer_index, regime_index in enumerate(spec.schedule):
        layout = wl.regime_layouts[regime_index]
        scale = spec.scale_of(outer_index)
        segments.append(
            Segment(blocks=(wl.outer_header,), reps=1,
                    outer_index=outer_index)
        )
        max_visits = max(l.spec.visits for l in layout.loops)
        for visit in range(max_visits):
            for inner in layout.loops:
                if visit >= inner.spec.visits:
                    continue
                jitter = inner.spec.jitter
                factor = float(np.exp(rng.normal(0.0, jitter))) if jitter else 1.0
                reps = max(1, int(round(inner.spec.iterations * scale * factor)))
                segments.append(
                    Segment(blocks=(inner.header_block,), reps=1,
                            outer_index=outer_index)
                )
                segments.append(
                    Segment(
                        blocks=inner.body_blocks,
                        reps=reps,
                        outer_index=outer_index,
                        iter_base=0,
                        loop_id=inner.loop_id,
                    )
                )
                if spec.noise and rng.random() < spec.noise:
                    noise_block = wl.noise_blocks[
                        int(rng.integers(len(wl.noise_blocks)))
                    ]
                    segments.append(
                        Segment(
                            blocks=(noise_block,),
                            reps=int(rng.integers(1, 5)),
                            outer_index=outer_index,
                        )
                    )
    return Trace(workload, segments)


def run(sim: FunctionalSimulator) -> FunctionalResult:
    """:meth:`FunctionalSimulator.run` as a per-segment/per-block loop."""
    trace = sim.trace
    counts = np.zeros(sim.program.n_blocks, dtype=np.int64)
    for index in range(trace.n_segments):
        seg = trace.segment_at(index)
        for block in seg.blocks:
            counts[block] += seg.reps
    instructions = counts * sim.program.block_sizes
    sim.metrics.counter(PROFILE_PASSES, kind="functional_run").inc()
    sim.metrics.counter(FUNCTIONAL_INSTRUCTIONS).inc(float(instructions.sum()))
    return FunctionalResult(
        total_instructions=int(instructions.sum()),
        block_counts=counts,
        block_instructions=instructions,
    )


def profile_coarse_intervals(
    sim: FunctionalSimulator,
    n_segments: int = 4,
    bounds: Optional[np.ndarray] = None,
) -> CoarseIntervalProfile:
    """:meth:`FunctionalSimulator.profile_coarse_intervals` as a piece walk."""
    if n_segments <= 0:
        raise TraceError("n_segments must be positive")
    trace = sim.trace
    if bounds is None:
        bounds = trace.outer_bounds()
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise TraceError("bounds must be an (n, 2) array")
    bbv, seg_bbv = _coarse_walk(trace, bounds, n_segments)

    starts = bounds[:, 0].copy()
    instructions = (bounds[:, 1] - bounds[:, 0]).astype(np.int64)
    sim.metrics.counter(PROFILE_PASSES, kind="coarse").inc()
    sim.metrics.counter(FUNCTIONAL_INSTRUCTIONS).inc(float(instructions.sum()))
    return CoarseIntervalProfile(
        starts=starts,
        instructions=instructions,
        bbv=bbv,
        segment_bbvs=seg_bbv,
    )


def _coarse_walk(
    trace: Trace, bounds: np.ndarray, n_segments: int
) -> Tuple[np.ndarray, np.ndarray]:
    n_instances = len(bounds)
    n_blocks = trace.program.n_blocks
    bbv = np.zeros((n_instances, n_blocks), dtype=np.float64)
    seg_bbv = np.zeros((n_instances, n_segments, n_blocks), dtype=np.float64)

    for i in range(n_instances):
        start, end = int(bounds[i, 0]), int(bounds[i, 1])
        if end <= start:
            raise TraceError(f"instance {i}: empty bounds")
        length = end - start
        chunk = length / n_segments
        for piece in trace.clip(start, end):
            flat_lo = int(trace.flat_offsets[piece.seg_index])
            flat_hi = int(trace.flat_offsets[piece.seg_index + 1])
            block_ids = trace.flat_blocks[flat_lo:flat_hi]
            rep_len = int(trace.rep_lengths[piece.seg_index])
            composition = trace.flat_composition[flat_lo:flat_hi]
            p_start = max(piece.start_inst, start)
            p_end = min(piece.start_inst + piece.n_reps * rep_len, end)
            if p_end <= p_start:
                continue
            insts = p_end - p_start
            bbv[i, block_ids] += insts * composition
            # distribute over temporal sub-chunks
            first = int((p_start - start) / chunk)
            last = int((p_end - 1 - start) / chunk)
            first = min(first, n_segments - 1)
            last = min(last, n_segments - 1)
            if first == last:
                seg_bbv[i, first][block_ids] += insts * composition
            else:
                edges = [p_start]
                for s in range(first + 1, last + 1):
                    edges.append(start + int(round(s * chunk)))
                edges.append(p_end)
                for s, (edge_lo, edge_hi) in enumerate(
                    zip(edges[:-1], edges[1:]), start=first
                ):
                    if edge_hi > edge_lo:
                        seg_bbv[i, s][block_ids] += \
                            (edge_hi - edge_lo) * composition
    return bbv, seg_bbv


def profile_structures(sim: FunctionalSimulator) -> StructureProfiles:
    """:meth:`FunctionalSimulator.profile_structures` as a segment loop."""
    trace = sim.trace
    program = sim.program
    total = trace.total_instructions
    insts: Dict[int, int] = {l.loop_id: 0 for l in program.loops}
    instances: Dict[int, int] = {l.loop_id: 0 for l in program.loops}
    for index in range(trace.n_segments):
        loop_id = int(trace.loop_id[index])
        if loop_id >= 0:
            insts[loop_id] += int(trace.segment_instructions[index])
            instances[loop_id] += 1

    outer_id = trace.workload.outer_loop_id
    insts[outer_id] = total - trace.prologue_end
    instances[outer_id] = trace.spec.n_outer_iterations

    sim.metrics.counter(PROFILE_PASSES, kind="structure").inc()
    profiles: StructureProfiles = {}
    for loop in program.loops:
        profiles[loop.loop_id] = StructureProfile(
            loop_id=loop.loop_id,
            depth=loop.depth,
            instructions=insts[loop.loop_id],
            instances=instances[loop.loop_id],
            coverage=insts[loop.loop_id] / total if total else 0.0,
        )
    return profiles


def install(swap) -> None:
    """Swap the trace builder and the loop profilers into production.

    *swap* is a :class:`tests.reference.Swap`; the calls it counts are
    keyed ``build_trace`` and ``FunctionalSimulator.<method>``.
    """
    from repro.engine import trace as production

    swap.function(production.build_trace, build_trace)
    for name, reference in (
        ("run", run),
        ("profile_coarse_intervals", profile_coarse_intervals),
        ("profile_structures", profile_structures),
    ):
        swap.method(FunctionalSimulator, name, reference)
