"""Block-level out-of-order timing simulator (the experiments' sim-outorder).

The engine walks the run-length trace and charges, per block execution:

* the block's steady-state cycles from the static list scheduler
  (issue-width, functional-unit and ROB-derated critical-path bounds);
* data-cache penalties from the analytic LRU occupancy hierarchy
  (:mod:`repro.uarch.occupancy`): per memory instruction, a run of ``n``
  strided accesses collapses to ``n * stride / line`` distinct-line touches
  (the within-line remainder hits by construction), which hit in each level
  with probability given by the region's current residency;
* instruction-cache behaviour from a real set-associative L1I, with misses
  routed into the shared L2 occupancy as code-region traffic;
* branch penalties: exact 2-bit-counter dynamics for loop back-edges, and
  the exact Markov stationary mispredict rate for data-dependent branches.

Load miss penalties are de-rated by a memory-level-parallelism factor
derived from the LSQ depth.  All quantities are deterministic; fractional
expected counts (occupancy hits, statistical mispredicts) accumulate as
floats.

**The walk.**  :meth:`TimingSimulator.simulate_range` walks segment
indices straight over the trace's flat arrays (held as Python lists),
rounding the range outward to whole reps with the same integer arithmetic
as :meth:`~repro.engine.trace.Trace.clip`.  Each touched segment is one
*piece*: a whole-rep sub-range of it.  Everything that depends only on a
segment's *shape* ``(blocks, loop_id)`` -- instructions and cycles per
rep, the block tuple, the data-dependent branch rate sum, the loop
back-edge block -- is built once per distinct shape.  A data *visit* is
keyed by ``(visit_id, block_id)``, where ``visit_id`` is interned per
segment **value** ``(blocks, reps, outer_index, iter_base, loop_id)``:
two value-equal segments continue one visit, whatever their positions in
the trace.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import MachineConfig
from ..engine.trace import Trace
from ..errors import SimulationError, TraceError
from ..obs import (
    DETAILED_CALLS,
    DETAILED_INSTRUCTIONS,
    DETAILED_PIECES,
    MetricsRegistry,
)
from ..uarch.branch import (
    advance_loop_branch,
    exit_loop_branch,
    stationary_mispredict_rate,
)
from ..uarch.cache import Cache
from ..uarch.occupancy import DataHierarchyModel
from ..uarch.scheduler import BlockScheduler, effective_mlp
from .results import SimulationResult

#: Extra overlap factor for L1-miss/L2-hit latency: the OoO window hides
#: most of a short L2 access beyond what memory-level parallelism covers.
L1_MISS_OVERLAP = 3.0


@dataclass
class _BlockMemory:
    """Aggregate memory behaviour of one block's memory instructions.

    A block's memory instructions partition its region into chunks and
    jointly sweep it, so they are modelled as one batch per block execution
    run: ``touches_per_rep`` distinct-line touches per iteration in total
    (the within-line remainder of the accesses hits by construction), of
    which ``load_fraction`` stall the pipeline on a miss.
    """

    region: int
    ws_lines: float
    n_mem: int
    touches_per_rep: float
    load_fraction: float


@dataclass
class _SegmentStatics:
    """Per-shape constants hoisted out of the piece-simulation loop.

    Everything that does not depend on machine state is reduced to batch
    quantities once per segment shape ``(blocks, loop_id)``: instructions
    and steady-state cycles per rep, and the aggregate expected-mispredict
    rate of the shape's data-dependent branches (stationary rates touch no
    predictor state, so their per-rep sum folds into one multiply per
    piece).  Only the state-carrying accesses — instruction fetch, data
    hierarchy, the loop back-edge counter — remain in the per-block loop,
    in the exact order the scalar loop used, so machine-state evolution is
    unchanged.
    """

    rep_insts: int
    rep_cycles: float
    #: Per block, in execution order: (block_id, inst_lines, memory or None).
    blocks: Tuple[Tuple[int, Tuple[int, ...], Optional[_BlockMemory]], ...]
    #: Data-dependent (non-loop) branches per rep and their rate sum.
    plain_branches: int
    plain_rate_sum: float
    #: Block id of the loop back-edge branch, or -1.
    loop_branch_block: int


class MachineState:
    """Mutable microarchitectural state carried across simulated ranges."""

    def __init__(self, config: MachineConfig, code_lines: int) -> None:
        self.il1 = Cache(config.icache)
        self.data = DataHierarchyModel(config.dcache, config.l2cache)
        self.code_lines = float(max(1, code_lines))
        #: 2-bit counter per loop back-edge branch, keyed by block id.
        self.loop_counters: Dict[int, int] = {}

    def reset(self) -> None:
        """Return to the cold-machine state."""
        self.il1.reset()
        self.data.reset()
        self.loop_counters.clear()


class TimingSimulator:
    """Detailed timing simulation of (ranges of) one trace.

    *metrics* hooks the simulator into an observability registry at
    coarse granularity — one bump per :meth:`simulate_range` call, never
    inside the per-piece loop.  A private registry is used when none is
    supplied.
    """

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        program = trace.program
        self.program = program

        scheduler = BlockScheduler(config)
        self.base_cycles = scheduler.schedule_program(program)
        self.mlp = effective_mlp(config)
        # L1 misses that hit the L2 are short enough for the OoO window to
        # overlap most of the latency on top of the MLP overlap; misses to
        # memory are too long to hide and only benefit from MLP.
        self.l1d_penalty = max(
            0, config.l2cache.latency - config.dcache.latency
        ) / L1_MISS_OVERLAP
        self.l2_penalty = config.mem_latency_first
        self.l1i_penalty = config.l2cache.latency
        self.branch_penalty = config.branch.mispredict_penalty

        line = config.dcache.line_size
        iline = config.icache.line_size
        self._block_memory: List[Optional[_BlockMemory]] = []
        self._inst_lines: List[Tuple[int, ...]] = []
        self._data_branch_rate: List[float] = []
        self._ends_in_branch: List[bool] = []
        code_lines = set()
        for block in program.blocks:
            mem_insts = block.memory_instructions
            if mem_insts:
                region = program.region(mem_insts[0].mem_region)
                touches = [
                    min(1.0, inst.mem_stride / line) for inst in mem_insts
                ]
                load_touches = sum(
                    t for t, inst in zip(touches, mem_insts)
                    if inst.opcode.value == "load"
                )
                total = sum(touches)
                self._block_memory.append(
                    _BlockMemory(
                        region=mem_insts[0].mem_region,
                        ws_lines=max(1.0, region.size / line),
                        n_mem=len(mem_insts),
                        touches_per_rep=total,
                        load_fraction=load_touches / total if total else 0.0,
                    )
                )
            else:
                self._block_memory.append(None)
            lines = tuple(int(l) for l in block.instruction_lines(iline))
            code_lines.update(lines)
            self._inst_lines.append(lines)
            self._ends_in_branch.append(block.ends_in_branch)
            self._data_branch_rate.append(
                stationary_mispredict_rate(block.branch_bias)
                if block.ends_in_branch
                else 0.0
            )
        self._code_lines = len(code_lines)

        # Walk tables: the trace's arrays as Python lists, which index
        # several times cheaper than numpy scalars in the per-piece loop.
        self._seg_starts: List[int] = trace.seg_starts.tolist()
        self._rep_lengths: List[int] = trace.rep_lengths.tolist()
        self._reps: List[int] = trace.reps.tolist()
        flat = trace.flat_blocks.tolist()
        offsets = trace.flat_offsets.tolist()
        shapes = list(zip(
            [tuple(flat[lo:hi]) for lo, hi in zip(offsets, offsets[1:])],
            trace.loop_id.tolist(),
        ))
        # One statics object per distinct shape (blocks, loop_id) ...
        by_shape: Dict[Tuple[Tuple[int, ...], int], _SegmentStatics] = {}
        for shape, rep_insts in zip(shapes, self._rep_lengths):
            if shape not in by_shape:
                by_shape[shape] = self._build_statics(*shape, rep_insts)
        self._seg_statics: List[_SegmentStatics] = [
            by_shape[shape] for shape in shapes
        ]
        # ... and one visit id per distinct segment value.  Visit identity
        # is value equality: value-equal segments share an id, exactly as
        # equal Segment objects compare equal.
        values: Dict[tuple, int] = {}
        self._visit_ids: List[int] = [
            values.setdefault(value, len(values))
            for value in zip(shapes, self._reps, trace.outer_index.tolist(),
                             trace.iter_base.tolist())
        ]

    def _build_statics(
        self, blocks: Tuple[int, ...], loop_id: int, rep_insts: int
    ) -> _SegmentStatics:
        last_index = len(blocks) - 1
        plain_branches = 0
        plain_rate_sum = 0.0
        loop_branch_block = -1
        rep_cycles = 0.0
        per_block = []
        for position, block_id in enumerate(blocks):
            rep_cycles += self.base_cycles[block_id]
            per_block.append((
                block_id,
                self._inst_lines[block_id],
                self._block_memory[block_id],
            ))
            if not self._ends_in_branch[block_id]:
                continue
            if loop_id >= 0 and position == last_index:
                loop_branch_block = block_id
            else:
                plain_branches += 1
                plain_rate_sum += self._data_branch_rate[block_id]
        return _SegmentStatics(
            rep_insts=rep_insts,
            rep_cycles=rep_cycles,
            blocks=tuple(per_block),
            plain_branches=plain_branches,
            plain_rate_sum=plain_rate_sum,
            loop_branch_block=loop_branch_block,
        )

    # ------------------------------------------------------------------
    def new_state(self) -> MachineState:
        """A fresh (cold) machine state."""
        return MachineState(self.config, self._code_lines)

    def simulate_full(self) -> SimulationResult:
        """Simulate the whole trace from cold state (the baseline run)."""
        return self.simulate_range(0, self.trace.total_instructions)

    def simulate_range(
        self,
        start: int,
        end: int,
        state: Optional[MachineState] = None,
        result: Optional[SimulationResult] = None,
    ) -> SimulationResult:
        """Simulate instructions [start, end), rounded out to rep boundaries.

        *state* carries cache/predictor contents across calls; *result*
        accumulates counters (pass a throwaway result to warm state without
        keeping the numbers).  An empty range, or one reaching outside
        the trace, raises :class:`TraceError`.
        """
        seg_starts = self._seg_starts
        if start < 0 or end > seg_starts[-1] or start >= end:
            raise TraceError(f"bad clip range [{start}, {end})")
        if state is None:
            state = self.new_state()
        if result is None:
            result = SimulationResult()
        rep_lengths = self._rep_lengths
        seg_reps = self._reps
        seg_statics = self._seg_statics
        visit_ids = self._visit_ids
        n_segments = len(seg_statics)
        data = state.data
        il1 = state.il1
        code_lines = state.code_lines
        loop_counters = state.loop_counters
        branch_penalty = self.branch_penalty
        l1i_penalty = self.l1i_penalty
        l1d_penalty = self.l1d_penalty
        l2_penalty = self.l2_penalty
        mlp = self.mlp

        # Counters accumulate in locals, each in the order the per-piece
        # updates would have applied them to *result*.
        before = instructions = result.instructions
        total_cycles = result.cycles
        l1d_accesses = result.l1d_accesses
        l1d_misses = result.l1d_misses
        l1i_accesses = result.l1i_accesses
        l1i_total_misses = result.l1i_misses
        l2_accesses = result.l2_accesses
        l2_misses = result.l2_misses
        branches = result.branches
        total_mispredicts = result.mispredicts

        index = bisect_right(seg_starts, start) - 1
        first_index = index
        while index < n_segments:
            seg_start = seg_starts[index]
            if seg_start >= end:
                break
            reps = seg_reps[index]
            if start <= seg_start and seg_starts[index + 1] <= end:
                first = 0
                n = reps
            else:
                # Outward rounding to whole reps, as Trace.clip does.
                rep_len = rep_lengths[index]
                lo = max(start, seg_start)
                hi = min(end, seg_starts[index + 1])
                first = int((lo - seg_start) // rep_len)
                last = int((hi - seg_start + rep_len - 1) // rep_len)
                n = min(max(last, first + 1), reps) - first
            statics = seg_statics[index]
            visit_id = visit_ids[index]
            index += 1

            # Batched stateless quantities: instruction count, steady-state
            # cycles, expected mispredicts of data-dependent branches.
            instructions += statics.rep_insts * n
            cycles = statics.rep_cycles * n
            if statics.plain_branches:
                expected = n * statics.plain_rate_sum
                branches += statics.plain_branches * n
                total_mispredicts += expected
                cycles += expected * branch_penalty

            # State-carrying accesses stay in block order: instruction
            # fetch and data touches of one block interleave exactly as the
            # scalar loop interleaved them (they share the L2 occupancy
            # ledger, whose recency ordering is order-sensitive).
            for block_id, ilines, memory in statics.blocks:
                # --- instruction fetch ------------------------------------
                # Each fetch line is touched through the real L1I once per
                # piece; the remaining n-1 rounds re-fetch the same lines
                # back-to-back and hit by construction.
                l1i_misses, miss_lines = il1.access_run(ilines)
                l1i_accesses += len(ilines) * n
                l1i_total_misses += l1i_misses
                if l1i_misses:
                    l2i_misses = data.access_code(code_lines,
                                                  float(len(miss_lines)))
                    l2_accesses += l1i_misses
                    l2_misses += l2i_misses
                    cycles += (
                        l1i_misses * l1i_penalty + l2i_misses * l2_penalty
                    )

                # --- data accesses ----------------------------------------
                if memory is not None:
                    touches_per_rep = memory.touches_per_rep
                    touches = max(1.0, touches_per_rep * n)
                    visit_touches = max(1.0, touches_per_rep * reps)
                    l1m, l2m = data.access_data(
                        memory.region, memory.ws_lines, (visit_id, block_id),
                        visit_touches, touches,
                    )
                    l1d_accesses += memory.n_mem * n
                    l1d_misses += l1m
                    l2_accesses += l1m
                    l2_misses += l2m
                    cycles += (
                        (l1m * l1d_penalty + l2m * l2_penalty)
                        * memory.load_fraction / mlp
                    )

            # --- loop back-edge branch -----------------------------------
            # The 2-bit counter is private per-branch state: running it
            # after the cache accesses cannot change any cache outcome.
            block_id = statics.loop_branch_block
            if block_id >= 0:
                includes_end = first + n == reps
                counter = loop_counters.get(block_id, 1)
                takens = n - 1 if includes_end else n
                counter, mis = advance_loop_branch(counter, takens)
                mispredicts = float(mis)
                if includes_end:
                    counter, exit_mis = exit_loop_branch(counter)
                    mispredicts += exit_mis
                loop_counters[block_id] = counter
                branches += n
                total_mispredicts += mispredicts
                cycles += mispredicts * branch_penalty

            total_cycles += cycles

        result.instructions = instructions
        result.cycles = total_cycles
        result.l1d_accesses = l1d_accesses
        result.l1d_misses = l1d_misses
        result.l1i_accesses = l1i_accesses
        result.l1i_misses = l1i_total_misses
        result.l2_accesses = l2_accesses
        result.l2_misses = l2_misses
        result.branches = branches
        result.mispredicts = total_mispredicts
        # Coarse accounting only: simulate_full/simulate_point delegate
        # here, so every detail-simulated instruction is counted exactly
        # once, outside the hot loop.
        metrics = self.metrics
        metrics.counter(DETAILED_CALLS).inc()
        metrics.counter(DETAILED_PIECES).inc(float(index - first_index))
        metrics.counter(DETAILED_INSTRUCTIONS).inc(
            float(instructions - before)
        )
        return result

    def simulate_point(
        self, start: int, end: int, warmup: int = 0
    ) -> SimulationResult:
        """Simulate one simulation point from cold state with a fixed-window
        warming prefix (see :mod:`repro.sampling.estimate` for the full-
        warming alternative the harness uses)."""
        if end <= start:
            raise SimulationError(f"empty simulation point [{start}, {end})")
        state = self.new_state()
        if warmup > 0 and start > 0:
            warm_start = max(0, start - warmup)
            if warm_start < start:
                self.simulate_range(
                    warm_start, start, state=state, result=SimulationResult()
                )
        return self.simulate_range(start, end, state=state)
