"""Differential tests: the array-native detailed walk against the
clip-based reference walk (``tests/reference/detailed_walk.py``).

Every :class:`SimulationResult` counter must be ``==`` to the reference,
floats included: the walk changes how the trace is traversed, never the
order in which a float accumulates.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import CONFIG_A, CONFIG_B
from repro.detailed import SimulationResult, TimingSimulator
from repro.engine.trace import Segment, Trace, build_trace
from repro.errors import TraceError
from repro.obs import (
    DETAILED_CALLS,
    DETAILED_INSTRUCTIONS,
    DETAILED_PIECES,
    MetricsRegistry,
)
from repro.sampling.estimate import simulate_point_set, simulate_tagged_ranges
from repro.workloads import benchmark_names, load_workload

from .conftest import TEST_SCALE
from .reference.detailed_walk import ReferenceWalk

FAMILY_MEMBERS = ("fam:irregular[0]", "fam:cache-hostile[1]")


def assert_same(got: SimulationResult, want: SimulationResult) -> None:
    """Field-for-field exact equality of two results."""
    for field in dataclasses.fields(SimulationResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a == b, f"{field.name}: {a!r} != {b!r}"


def _trace(name: str) -> Trace:
    return build_trace(load_workload(name, scale=TEST_SCALE))


def _mid_rep_cuts(trace: Trace, count: int, seed: int) -> list:
    """Sorted cut points that fall strictly inside a rep of a multi-rep
    segment, so abutting ranges both round outward over the same rep."""
    multi = np.flatnonzero((trace.reps > 2) & (trace.rep_lengths > 1))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(multi, size=min(count, len(multi)), replace=False)
    cuts = set()
    for index in chosen.tolist():
        rep_len = int(trace.rep_lengths[index])
        rep = int(rng.integers(0, int(trace.reps[index])))
        cuts.add(int(trace.seg_starts[index]) + rep * rep_len + rep_len // 2)
    return sorted(cuts)


@pytest.mark.parametrize("name",
                         benchmark_names() + list(FAMILY_MEMBERS))
def test_simulate_full_matches_reference(name):
    trace = _trace(name)
    for config in (CONFIG_A, CONFIG_B):
        simulator = TimingSimulator(trace, config)
        assert_same(simulator.simulate_full(),
                    ReferenceWalk(simulator).simulate_full())


@pytest.mark.parametrize("name", ["gzip", "lucas", FAMILY_MEMBERS[0]])
@pytest.mark.parametrize("config", [CONFIG_A, CONFIG_B],
                         ids=["config_a", "config_b"])
def test_abutting_mid_rep_ranges_carry_state(name, config):
    """Ranges cut mid-rep double-simulate the straddled rep; carrying one
    state across them must match the reference range by range."""
    trace = _trace(name)
    cuts = _mid_rep_cuts(trace, 40, seed=3)
    assert cuts, "trace has no multi-rep segment to cut inside"
    bounds = [0] + cuts + [trace.total_instructions]
    simulator = TimingSimulator(trace, config)
    reference = ReferenceWalk(simulator)
    state, ref_state = simulator.new_state(), reference.new_state()
    for a, b in zip(bounds[:-1], bounds[1:]):
        got = simulator.simulate_range(a, b, state=state)
        want = reference.simulate_range(a, b, state=ref_state)
        assert_same(got, want)
    assert state.loop_counters == ref_state.loop_counters
    # Accumulating into one carried result keeps the same float order.
    carried, ref_carried = SimulationResult(), SimulationResult()
    state, ref_state = simulator.new_state(), reference.new_state()
    for a, b in zip(bounds[:-1], bounds[1:]):
        simulator.simulate_range(a, b, state=state, result=carried)
        reference.simulate_range(a, b, state=ref_state, result=ref_carried)
    assert_same(carried, ref_carried)
    assert carried.instructions > trace.total_instructions


@pytest.mark.parametrize("name", ["gzip", "art", FAMILY_MEMBERS[1]])
def test_point_set_and_tagged_ranges_match_reference(name):
    trace = _trace(name)
    simulator = TimingSimulator(trace, CONFIG_A)
    reference = ReferenceWalk(simulator)
    cuts = _mid_rep_cuts(trace, 12, seed=11)
    pairs = list(zip(cuts[:-1:2], cuts[1::2]))
    span = (cuts[0], cuts[-1])  # overlaps every pair
    ranges = pairs + [span]
    got = simulate_point_set(simulator, ranges)
    want = simulate_point_set(reference, ranges)
    assert got.keys() == want.keys()
    for key in want:
        assert_same(got[key], want[key])

    tagged = {"odd": pairs[1::2], "even": pairs[::2], "span": [span]}
    got = simulate_tagged_ranges(simulator, tagged)
    want = simulate_tagged_ranges(reference, tagged)
    assert got.keys() == want.keys()
    for tag in want:
        assert_same(got[tag], want[tag])


def _memory_block(workload) -> int:
    for block_id, block in enumerate(workload.program.blocks):
        if block.memory_instructions:
            return block_id
    raise AssertionError("program has no memory block")


def test_value_equal_segments_continue_one_visit(small_workload):
    """Two consecutive value-equal segments are one data visit (their hit
    rates are fixed at the first one's entry); keying the visit by
    segment index would start a second visit on warmed residency."""
    block = _memory_block(small_workload)
    same = Segment(blocks=(block,), reps=6, outer_index=0)

    def run(segments):
        trace = Trace(small_workload, list(segments))
        simulator = TimingSimulator(trace, CONFIG_A)
        got = simulator.simulate_full()
        assert_same(got, ReferenceWalk(simulator).simulate_full())
        return got

    equal = run([same, same])
    # Differing in any one value field makes two visits.
    for field in ("outer_index", "iter_base"):
        other = dataclasses.replace(same, **{field: 1})
        assert run([same, other]).l1d_misses != equal.l1d_misses, field


def test_pieces_counter_counts_clip_pieces(small_trace):
    registry = MetricsRegistry()
    simulator = TimingSimulator(small_trace, CONFIG_A, metrics=registry)
    total = small_trace.total_instructions
    cuts = _mid_rep_cuts(small_trace, 9, seed=5)
    ranges = [(0, total), (cuts[0], cuts[0] + 1)]
    ranges += zip(cuts[:-1], cuts[1:])
    instructions = 0
    for a, b in ranges:
        instructions += simulator.simulate_range(a, b).instructions
    assert registry.value(DETAILED_CALLS) == len(ranges)
    assert registry.value(DETAILED_PIECES) == sum(
        len(list(small_trace.clip(a, b))) for a, b in ranges
    )
    assert registry.value(DETAILED_INSTRUCTIONS) == instructions


@pytest.mark.parametrize("bounds", [(-1, 10), (5, 5), (10, 4), (0, None)])
def test_bad_range_raises_trace_error(small_trace, bounds):
    start, end = bounds
    if end is None:
        end = small_trace.total_instructions + 1
    simulator = TimingSimulator(small_trace, CONFIG_A)
    with pytest.raises(TraceError, match=r"bad clip range \["):
        simulator.simulate_range(start, end)
