"""Differential tests for the engine's array-native paths.

The array-native trace builder and the bincount functional profilers
claim *bit*-identity with the reference builder and loops in
``tests/reference/engine.py`` — same flat arrays, same RNG draw order,
same float accumulation order.  Every comparison here is therefore
exact (``==`` / ``array_equal``), never approximate.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CONFIG_A
from repro.engine import (
    TRACE_ARRAY_FIELDS,
    FunctionalSimulator,
    Trace,
    TraceBuilder,
    build_trace,
)
from repro.errors import TraceError
from repro.harness import ExperimentRunner, ResultCache

from .conftest import TEST_SCALE
from .reference import Swap
from .reference import engine as reference

#: Derived arrays that must match in addition to the canonical fields.
DERIVED_FIELDS = (
    "flat_offsets",
    "rep_lengths",
    "segment_instructions",
    "seg_starts",
    "outer_starts",
)


#: Coarse profilers by the name the error-path parametrisations use.
COARSE_PROFILERS = {
    "scalar": reference.profile_coarse_intervals,
    "vectorized": FunctionalSimulator.profile_coarse_intervals,
}


def _assert_traces_identical(a: Trace, b: Trace) -> None:
    for field in TRACE_ARRAY_FIELDS + DERIVED_FIELDS:
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, field
        assert np.array_equal(left, right), field
    assert a.total_instructions == b.total_instructions
    assert a.prologue_end == b.prologue_end


class TestTraceBuilderDifferential:
    def test_builders_bit_identical(self, small_workload):
        scalar = reference.build_trace(small_workload)
        vector = TraceBuilder(small_workload).build()
        _assert_traces_identical(scalar, vector)

    def test_segment_views_equal(self, small_workload):
        scalar = reference.build_trace(small_workload)
        vector = TraceBuilder(small_workload).build()
        assert scalar.segments == vector.segments

    @pytest.mark.parametrize("name", ["gzip", "vpr", "lucas"])
    def test_builders_bit_identical_across_workloads(self, name):
        # Jitter, noise and per-iteration scaling all vary by spec; the
        # RNG draw order is part of the trace's definition, so every
        # spec shape must agree with the reference builder.
        from repro.workloads import load_workload

        workload = load_workload(name, scale=0.05)
        _assert_traces_identical(
            reference.build_trace(workload),
            TraceBuilder(workload).build(),
        )


class TestTraceArrayConstruction:
    def test_arrays_roundtrip(self, small_trace):
        clone = Trace(small_trace.workload, arrays=small_trace.arrays())
        _assert_traces_identical(small_trace, clone)
        assert clone.segments == small_trace.segments

    def test_segments_and_arrays_mutually_exclusive(self, small_trace):
        with pytest.raises(TraceError, match="not both"):
            Trace(
                small_trace.workload,
                list(small_trace.segments),
                arrays=small_trace.arrays(),
            )

    def test_array_length_mismatch_rejected(self, small_trace):
        arrays = small_trace.arrays()
        arrays["reps"] = arrays["reps"][:-1]
        with pytest.raises(TraceError):
            Trace(small_trace.workload, arrays=arrays)

    def test_bad_reps_rejected(self, small_trace):
        arrays = {k: v.copy() for k, v in small_trace.arrays().items()}
        arrays["reps"][0] = 0
        with pytest.raises(TraceError, match="reps"):
            Trace(small_trace.workload, arrays=arrays)

    def test_lazy_views_memoised(self, small_workload):
        trace = TraceBuilder(small_workload).build()
        seg = trace.segment_at(3)
        assert trace.segment_at(3) is seg
        assert trace.segments[3] is seg


class TestFunctionalDifferential:
    def test_run_bit_identical(self, small_functional):
        scalar = reference.run(small_functional)
        vector = small_functional.run()
        assert scalar.total_instructions == vector.total_instructions
        assert np.array_equal(scalar.block_counts, vector.block_counts)
        assert np.array_equal(
            scalar.block_instructions, vector.block_instructions
        )

    def test_coarse_profile_bit_identical(self, small_functional):
        scalar = reference.profile_coarse_intervals(small_functional)
        vector = small_functional.profile_coarse_intervals()
        assert np.array_equal(scalar.starts, vector.starts)
        assert np.array_equal(scalar.instructions, vector.instructions)
        assert (scalar.bbv == vector.bbv).all()
        assert (scalar.segment_bbvs == vector.segment_bbvs).all()

    def test_coarse_profile_custom_bounds(self, small_functional,
                                          small_trace):
        bounds = small_trace.outer_bounds()[2:7]
        scalar = reference.profile_coarse_intervals(
            small_functional, n_segments=7, bounds=bounds
        )
        vector = small_functional.profile_coarse_intervals(
            n_segments=7, bounds=bounds
        )
        assert (scalar.bbv == vector.bbv).all()
        assert (scalar.segment_bbvs == vector.segment_bbvs).all()

    def test_coarse_profile_order_sensitive_cells(self, small_workload):
        # Every segment repeats the same three blocks (rep length 50, so
        # each block's composition share is non-dyadic) and every bound
        # cuts a segment mid-rep.  Each (instance, block) and (instance,
        # sub-chunk, block) cell then sums a non-integer partial piece,
        # integer whole pieces and a second non-integer partial piece,
        # a sum whose last bit depends on the addition order.  The suite
        # traces' one- and two-block segments rarely give a cell more
        # than one non-integer term.
        sizes = small_workload.program.block_sizes
        blocks = [int(np.flatnonzero(sizes == size)[0]) for size in (6, 14, 30)]
        rng = np.random.default_rng(0)
        n_segments = 200
        trace = Trace(small_workload, arrays={
            "flat_blocks": np.concatenate(
                [rng.permutation(blocks) for _ in range(n_segments)]
            ),
            "blocks_per_segment": np.full(n_segments, 3),
            "reps": rng.integers(1, 10, size=n_segments),
            "outer_index": np.full(n_segments, -1),
            "iter_base": np.zeros(n_segments, dtype=np.int64),
            "loop_id": np.full(n_segments, -1),
        })
        edges = np.linspace(7, trace.total_instructions - 7, 41)
        edges = edges.astype(np.int64)
        edges[edges % 50 == 0] += 1
        bounds = np.stack([edges[:-1], edges[1:]], axis=1)
        sim = FunctionalSimulator(trace)
        scalar = reference.profile_coarse_intervals(
            sim, n_segments=3, bounds=bounds
        )
        vector = sim.profile_coarse_intervals(n_segments=3, bounds=bounds)
        assert (scalar.bbv == vector.bbv).all()
        assert (scalar.segment_bbvs == vector.segment_bbvs).all()

    def test_structure_profile_identical(self, small_functional):
        assert reference.profile_structures(small_functional) == \
            small_functional.profile_structures()

    @pytest.mark.parametrize("which", ["scalar", "vectorized"])
    def test_empty_bounds_error_matches(self, small_functional, which):
        profile = COARSE_PROFILERS[which]
        bounds = np.array([[100, 100]], dtype=np.int64)
        with pytest.raises(TraceError, match="instance 0: empty bounds"):
            profile(small_functional, bounds=bounds)

    @pytest.mark.parametrize("which", ["scalar", "vectorized"])
    def test_bad_clip_error_matches(self, small_functional, small_trace,
                                    which):
        profile = COARSE_PROFILERS[which]
        total = small_trace.total_instructions
        bounds = np.array([[0, 50], [10, total + 1]], dtype=np.int64)
        with pytest.raises(TraceError, match="bad clip range"):
            profile(small_functional, bounds=bounds)

    def test_first_offending_instance_reported(self, small_functional,
                                               small_trace):
        # Two bad instances: both profilers must report the *first* one.
        total = small_trace.total_instructions
        bounds = np.array([[0, 50], [7, 7], [10, total + 1]],
                          dtype=np.int64)
        for profile in COARSE_PROFILERS.values():
            with pytest.raises(TraceError, match="instance 1"):
                profile(small_functional, bounds=bounds)


class TestCoarseProfileProperties:
    """Randomized bit-identity: arbitrary sub-ranges and chunk counts."""

    @settings(max_examples=25, deadline=None)
    @given(
        lo_frac=st.floats(0.0, 0.9),
        span_frac=st.floats(0.01, 1.0),
        n_segments=st.integers(1, 9),
        n_instances=st.integers(1, 6),
    )
    def test_random_bounds_bit_identical(
        self, shared_functional, lo_frac, span_frac, n_segments, n_instances
    ):
        trace = shared_functional.trace
        total = trace.total_instructions
        start = int(lo_frac * (total - n_instances))
        end = min(total, start + max(n_instances,
                                     int(span_frac * (total - start))))
        edges = np.linspace(start, end, n_instances + 1).astype(np.int64)
        edges = np.unique(edges)
        if len(edges) < 2:
            return
        bounds = np.stack([edges[:-1], edges[1:]], axis=1)
        scalar = reference.profile_coarse_intervals(
            shared_functional, n_segments=n_segments, bounds=bounds
        )
        vector = shared_functional.profile_coarse_intervals(
            n_segments=n_segments, bounds=bounds
        )
        assert (scalar.bbv == vector.bbv).all()
        assert (scalar.segment_bbvs == vector.segment_bbvs).all()

    @settings(max_examples=10, deadline=None)
    @given(scale=st.floats(0.02, 0.06), seed_bump=st.integers(0, 3))
    def test_random_specs_build_identically(self, scale, seed_bump):
        from dataclasses import replace

        from repro.workloads import generate_workload, get_spec, scaled_spec

        spec = scaled_spec(get_spec("vpr"), scale)
        spec = replace(spec, seed=spec.seed + seed_bump)
        workload = generate_workload(spec)
        _assert_traces_identical(
            reference.build_trace(workload),
            TraceBuilder(workload).build(),
        )


@pytest.fixture(scope="module")
def shared_functional():
    """A module-scoped functional simulator for the property tests."""
    from repro.workloads import generate_workload, get_spec, scaled_spec

    spec = scaled_spec(get_spec("gzip"), TEST_SCALE)
    return FunctionalSimulator(build_trace(generate_workload(spec)))


class TestEndToEndIdentity:
    """The whole pipeline — plans, CPI deviations, cache digests — must
    not change when the engine's trace builder and profilers are swapped
    for the reference builder and loops."""

    def _run(self, tmp_path, which):
        runner = ExperimentRunner(
            cache=ResultCache(directory=tmp_path / which),
            workload_scale=TEST_SCALE,
            methods=("simpoint", "coasts"),
            diagnostics=False,
        )
        run = runner.run_benchmark("gzip", CONFIG_A)
        return json.dumps(run.to_dict(), sort_keys=True)

    def test_pipeline_identical_across_backends(self, tmp_path, monkeypatch):
        vectorized = self._run(tmp_path, "vectorized")
        swap = Swap(monkeypatch)
        reference.install(swap)
        scalar = self._run(tmp_path, "scalar")
        # The references really ran: the runner built its trace and
        # COASTS took its coarse and structure profiles through the
        # oracle (no pipeline stage calls FunctionalSimulator.run).
        for name in ("build_trace",
                     "FunctionalSimulator.profile_coarse_intervals",
                     "FunctionalSimulator.profile_structures"):
            assert swap.calls[name] > 0, name
        assert scalar == vectorized
