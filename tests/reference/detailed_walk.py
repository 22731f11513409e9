"""Reference detailed walk: the clip-based piece loop of the timing simulator.

:class:`ReferenceWalk` simulates a trace range the way
:class:`~repro.detailed.timing.TimingSimulator` did before it walked the
flat trace arrays directly: :meth:`Trace.clip` yields one
:class:`SegmentPiece` per touched segment, statics are built per segment
index from the lazily materialised :class:`Segment` view, and a data
visit is keyed by ``(Segment, block_id)``, so value-equal segments
continue one visit through ``Segment.__eq__``.

It borrows the simulator's per-block tables and penalties, so the two
walks differ only in how they traverse the trace.  It exposes
``new_state`` and ``simulate_range``, enough for
:func:`repro.sampling.estimate.simulate_point_set` and
:func:`~repro.sampling.estimate.simulate_tagged_ranges` to drive it in
place of the simulator.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.detailed.results import SimulationResult
from repro.detailed.timing import MachineState, TimingSimulator
from repro.engine.trace import SegmentPiece
from repro.uarch.branch import advance_loop_branch, exit_loop_branch


class ReferenceWalk:
    """The clip-based detailed walk over *simulator*'s trace."""

    def __init__(self, simulator: TimingSimulator) -> None:
        self.sim = simulator
        self.trace = simulator.trace
        self._seg_statics: Dict[int, tuple] = {}

    def new_state(self) -> MachineState:
        """A fresh (cold) machine state."""
        return self.sim.new_state()

    def simulate_full(self) -> SimulationResult:
        """Simulate the whole trace from cold state."""
        return self.simulate_range(0, self.trace.total_instructions)

    def simulate_range(
        self,
        start: int,
        end: int,
        state: Optional[MachineState] = None,
        result: Optional[SimulationResult] = None,
    ) -> SimulationResult:
        """Simulate [start, end), rounded out to rep boundaries."""
        if state is None:
            state = self.new_state()
        if result is None:
            result = SimulationResult()
        for piece in self.trace.clip(start, end):
            self._simulate_piece(piece, state, result)
        return result

    # ------------------------------------------------------------------
    def _statics_of(self, seg_index: int) -> tuple:
        statics = self._seg_statics.get(seg_index)
        if statics is None:
            sim = self.sim
            seg = self.trace.segment_at(seg_index)
            last_index = len(seg.blocks) - 1
            plain_branches = 0
            plain_rate_sum = 0.0
            loop_branch_block = -1
            rep_cycles = 0.0
            blocks = []
            for position, block_id in enumerate(seg.blocks):
                rep_cycles += sim.base_cycles[block_id]
                blocks.append((
                    block_id,
                    sim._inst_lines[block_id],
                    sim._block_memory[block_id],
                ))
                if not sim._ends_in_branch[block_id]:
                    continue
                if seg.loop_id >= 0 and position == last_index:
                    loop_branch_block = block_id
                else:
                    plain_branches += 1
                    plain_rate_sum += sim._data_branch_rate[block_id]
            statics = (
                int(self.trace.rep_lengths[seg_index]), rep_cycles,
                tuple(blocks), plain_branches, plain_rate_sum,
                loop_branch_block,
            )
            self._seg_statics[seg_index] = statics
        return statics

    def _simulate_piece(
        self,
        piece: SegmentPiece,
        state: MachineState,
        result: SimulationResult,
    ) -> None:
        sim = self.sim
        seg = piece.segment
        n = piece.n_reps
        (rep_insts, rep_cycles, blocks, plain_branches, plain_rate_sum,
         loop_branch_block) = self._statics_of(piece.seg_index)
        data = state.data
        il1 = state.il1

        result.instructions += rep_insts * n
        cycles = rep_cycles * n
        if plain_branches:
            expected = n * plain_rate_sum
            result.branches += plain_branches * n
            result.mispredicts += expected
            cycles += expected * sim.branch_penalty

        for block_id, ilines, memory in blocks:
            l1i_misses, miss_lines = il1.access_run(ilines)
            result.l1i_accesses += len(ilines) * n
            result.l1i_misses += l1i_misses
            if l1i_misses:
                l2i_misses = data.access_code(state.code_lines,
                                              float(len(miss_lines)))
                result.l2_accesses += l1i_misses
                result.l2_misses += l2i_misses
                cycles += (
                    l1i_misses * sim.l1i_penalty + l2i_misses * sim.l2_penalty
                )

            if memory is not None:
                touches = max(1.0, memory.touches_per_rep * n)
                visit_touches = max(1.0, memory.touches_per_rep * seg.reps)
                l1m, l2m = data.access_data(
                    memory.region, memory.ws_lines, (seg, block_id),
                    visit_touches, touches,
                )
                result.l1d_accesses += memory.n_mem * n
                result.l1d_misses += l1m
                result.l2_accesses += l1m
                result.l2_misses += l2m
                cycles += (
                    (l1m * sim.l1d_penalty + l2m * sim.l2_penalty)
                    * memory.load_fraction / sim.mlp
                )

        if loop_branch_block >= 0:
            block_id = loop_branch_block
            includes_end = piece.rep_offset + n == seg.reps
            counter = state.loop_counters.get(block_id, 1)
            takens = n - 1 if includes_end else n
            counter, mis = advance_loop_branch(counter, takens)
            mispredicts = float(mis)
            if includes_end:
                counter, exit_mis = exit_loop_branch(counter)
                mispredicts += exit_mis
            state.loop_counters[block_id] = counter
            result.branches += n
            result.mispredicts += mispredicts
            cycles += mispredicts * sim.branch_penalty

        result.cycles += cycles
