"""Instruction-level out-of-order reference simulator.

A compact sim-outorder analogue that executes the *expanded* instruction
stream one instruction at a time: fetch bandwidth and I-cache, ROB occupancy,
per-cycle issue-width and functional-unit contention, register dataflow,
D-cache accesses through the real hierarchy, and a real combined branch
predictor with mispredict redirect penalties.

It is deliberately not the engine used for whole-suite experiments — pure
Python instruction-level simulation of multi-hundred-million-instruction
traces is intractable — but it validates the block-level timing model: tests
check that both engines rank workload phases identically and agree on CPI
within a tolerance band on small kernels.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.config import MachineConfig
from repro.detailed.results import SimulationResult
from repro.engine.trace import Trace
from repro.errors import SimulationError
from repro.isa.block import INSTRUCTION_BYTES
from repro.isa.opcodes import FU_CLASS, LATENCY, Opcode
from repro.uarch.branch import CombinedPredictor

from .hierarchy import MemoryHierarchy

#: Safety cap on expanded instructions per simulation.
DEFAULT_MAX_INSTRUCTIONS = 2_000_000


class OoOSimulator:
    """Cycle-level OoO core over the expanded instruction stream."""

    def __init__(self, trace: Trace, config: MachineConfig, seed: int = 0) -> None:
        self.trace = trace
        self.config = config
        self.program = trace.program
        self._seed = seed

    # ------------------------------------------------------------------
    def _expand(
        self, start: int, end: int, cap: int
    ) -> Iterator[Tuple[int, int, int, bool, bool]]:
        """Yield ``(block_id, inst_index, iteration, is_loop_branch,
        loop_exit)`` per dynamic instruction in [start, end)."""
        emitted = 0
        for piece in self.trace.clip(start, end):
            seg = piece.segment
            last_pos = len(seg.blocks) - 1
            for rep in range(piece.n_reps):
                iteration = seg.iter_base + piece.rep_offset + rep
                is_final = piece.rep_offset + rep == seg.reps - 1
                for pos, block_id in enumerate(seg.blocks):
                    block = self.program.blocks[block_id]
                    loop_branch = seg.loop_id >= 0 and pos == last_pos
                    for index in range(block.size):
                        yield (block_id, index, iteration, loop_branch, is_final)
                        emitted += 1
                        if emitted >= cap:
                            return

    # ------------------------------------------------------------------
    def simulate_range(
        self,
        start: int,
        end: int,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> SimulationResult:
        """Simulate [start, end) from cold state, instruction by instruction."""
        if end <= start:
            raise SimulationError("empty OoO simulation range")
        config = self.config
        program = self.program
        hierarchy = MemoryHierarchy(config)
        predictor = CombinedPredictor(config.branch)
        rng = np.random.default_rng(self._seed)
        result = SimulationResult()

        fu_counts = {
            "int_alu": config.functional_units.int_alu,
            "load_store": config.functional_units.load_store,
            "fp_add": config.functional_units.fp_add,
            "int_mult_div": config.functional_units.int_mult_div,
            "fp_mult_div": config.functional_units.fp_mult_div,
        }
        width = config.issue_width
        iline_size = config.icache.line_size
        dline_size = config.dcache.line_size
        l1d_pen = max(0, config.l2cache.latency - config.dcache.latency)
        l2_pen = config.mem_latency_first
        bpen = config.branch.mispredict_penalty

        fetch_cycle = 0
        fetched_this_cycle = 0
        current_iline = -1
        reg_ready: Dict[int, int] = {}
        fu_busy: Dict[Tuple[int, str], int] = defaultdict(int)
        issued_at: Dict[int, int] = defaultdict(int)
        committed_at: Dict[int, int] = defaultdict(int)
        rob: deque = deque()
        last_commit = 0
        horizon = 0

        for block_id, index, iteration, loop_branch, loop_exit in self._expand(
            start, end, max_instructions
        ):
            block = program.blocks[block_id]
            inst = block.instructions[index]
            pc = block.address + index * INSTRUCTION_BYTES

            # --- ROB back-pressure ------------------------------------
            while len(rob) >= config.rob_entries:
                fetch_cycle = max(fetch_cycle, rob.popleft())
                fetched_this_cycle = 0

            # --- fetch --------------------------------------------------
            iline = pc // iline_size
            if iline != current_iline:
                current_iline = iline
                l1i_miss, miss_lines = hierarchy.il1.access_run([iline])
                result.l1i_accesses += 1
                if l1i_miss:
                    result.l1i_misses += 1
                    result.l2_accesses += 1
                    l2_miss, _ = hierarchy.ul2.access_run(miss_lines)
                    result.l2_misses += l2_miss
                    fetch_cycle += config.l2cache.latency + (
                        l2_pen if l2_miss else 0
                    )
                    fetched_this_cycle = 0
            if fetched_this_cycle >= width:
                fetch_cycle += 1
                fetched_this_cycle = 0
            fetched_this_cycle += 1

            # --- dispatch / issue ----------------------------------------
            ready = fetch_cycle + 1
            for src in inst.srcs:
                ready = max(ready, reg_ready.get(src, 0))
            fu = FU_CLASS[inst.opcode].value
            start_cycle = ready
            while (
                fu_busy[(start_cycle, fu)] >= fu_counts[fu]
                or issued_at[start_cycle] >= width
            ):
                start_cycle += 1
            fu_busy[(start_cycle, fu)] += 1
            issued_at[start_cycle] += 1

            # --- execute ---------------------------------------------------
            latency = LATENCY[inst.opcode]
            if inst.opcode in (Opcode.LOAD, Opcode.STORE):
                region = program.region(inst.mem_region)
                address = region.base + (
                    iteration * inst.mem_stride + inst.mem_offset
                ) % region.size
                dline = address // dline_size
                result.l1d_accesses += 1
                miss, miss_lines = hierarchy.dl1.access_run([dline])
                latency = config.dcache.latency
                if miss:
                    result.l1d_misses += 1
                    result.l2_accesses += 1
                    l2_miss, _ = hierarchy.ul2.access_run(miss_lines)
                    latency += l1d_pen
                    if l2_miss:
                        result.l2_misses += 1
                        latency += l2_pen
                if inst.opcode is Opcode.STORE:
                    latency = 1  # retired through the store buffer
            done = start_cycle + latency
            if inst.dest is not None:
                reg_ready[inst.dest] = done

            # --- branches ---------------------------------------------------
            if inst.is_control and inst.opcode is Opcode.BRANCH:
                if loop_branch:
                    taken = not loop_exit
                else:
                    taken = bool(rng.random() < block.branch_bias)
                predicted = predictor.predict(pc)
                predictor.update(pc, taken)
                result.branches += 1
                if predicted != taken:
                    result.mispredicts += 1
                    fetch_cycle = max(fetch_cycle, done + bpen)
                    fetched_this_cycle = 0
                    current_iline = -1

            # --- commit ------------------------------------------------------
            commit = max(done, last_commit)
            while committed_at[commit] >= width:
                commit += 1
            committed_at[commit] += 1
            last_commit = commit
            rob.append(commit)
            result.instructions += 1
            horizon = max(horizon, commit)

            # --- prune cycle maps occasionally ---------------------------
            if result.instructions % 16384 == 0:
                floor = rob[0] if rob else fetch_cycle
                for mapping in (fu_busy, issued_at, committed_at):
                    stale = [c for c in mapping if (
                        c[0] if isinstance(c, tuple) else c) < floor - 2]
                    for key in stale:
                        del mapping[key]

        if result.instructions == 0:
            raise SimulationError("OoO simulation produced no instructions")
        result.cycles = float(horizon)
        return result

    # ------------------------------------------------------------------
    def simulate_prefix(
        self, instructions: int, max_instructions: Optional[int] = None
    ) -> SimulationResult:
        """Simulate the first *instructions* of the trace."""
        cap = max_instructions or instructions
        end = min(instructions, self.trace.total_instructions)
        return self.simulate_range(0, end, max_instructions=cap)
