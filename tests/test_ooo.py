"""Tests for the instruction-level OoO reference simulator."""

import pytest

from repro.config import CONFIG_A, CONFIG_B
from repro.detailed import TimingSimulator
from repro.errors import SimulationError

from .reference.ooo import OoOSimulator


@pytest.fixture(scope="module")
def ooo(small_trace):
    return OoOSimulator(small_trace, CONFIG_A, seed=1)


class TestOoOSimulator:
    def test_simulates_requested_range(self, ooo):
        result = ooo.simulate_range(0, 5000)
        assert result.instructions >= 5000
        assert result.cycles > 0

    def test_cap_limits_instructions(self, ooo, small_trace):
        result = ooo.simulate_range(0, small_trace.total_instructions,
                                    max_instructions=3000)
        assert result.instructions == 3000

    def test_cpi_reasonable(self, ooo):
        result = ooo.simulate_prefix(8000)
        cpi = result.cpi
        assert 1.0 / CONFIG_A.issue_width <= cpi < 50

    def test_counts_branches_and_memory(self, ooo):
        result = ooo.simulate_prefix(8000)
        assert result.branches > 0
        assert result.l1d_accesses > 0
        assert 0 <= result.mispredict_rate <= 1

    def test_empty_range_rejected(self, ooo):
        with pytest.raises(SimulationError):
            ooo.simulate_range(5, 5)

    def test_agrees_with_block_level_model(self, ooo, small_trace):
        """The two engines must agree on CPI within a model-error band on
        the same prefix (DESIGN.md: the OoO core is a cross-check)."""
        n = 20_000
        ooo_result = ooo.simulate_range(0, n)
        timing = TimingSimulator(small_trace, CONFIG_A)
        block_result = timing.simulate_range(0, n)
        ratio = ooo_result.cpi / block_result.cpi
        assert 0.3 < ratio < 3.0

    def test_config_sensitivity_direction_matches(self, small_trace):
        """Both engines must rank configs identically on the same prefix."""
        n = 15_000
        ooo_a = OoOSimulator(small_trace, CONFIG_A, seed=1).simulate_range(0, n)
        ooo_b = OoOSimulator(small_trace, CONFIG_B, seed=1).simulate_range(0, n)
        blk_a = TimingSimulator(small_trace, CONFIG_A).simulate_range(0, n)
        blk_b = TimingSimulator(small_trace, CONFIG_B).simulate_range(0, n)
        assert (ooo_a.cycles < ooo_b.cycles) == (blk_a.cycles < blk_b.cycles)
