"""Branch predictors.

Two layers live here:

* **Stateful predictors** (:class:`BimodalPredictor`,
  :class:`GSharePredictor`, :class:`CombinedPredictor`) used per-branch by
  the instruction-level OoO cross-check kept with the tests
  (``tests/reference/ooo.py``).
* **Analytic helpers** used by the block-level timing simulator: exact
  2-bit-counter dynamics for loop back-edges (``advance_loop_branch``) and
  the exact Markov-chain stationary mispredict rate for data-dependent
  branches with a fixed taken probability (``stationary_mispredict_rate``).

The analytic layer ignores BHT aliasing; with 8K entries (Table I) and a few
hundred static branches per benchmark, aliasing is negligible.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..config import BranchPredictorConfig
from ..errors import SimulationError

#: 2-bit saturating counter bounds; >= TAKEN_THRESHOLD predicts taken.
COUNTER_MAX = 3
TAKEN_THRESHOLD = 2


# ----------------------------------------------------------------------
# analytic helpers (block-level timing simulator)
# ----------------------------------------------------------------------
def advance_loop_branch(state: int, takens: int) -> Tuple[int, int]:
    """Run *takens* consecutive taken outcomes through a 2-bit counter.

    Returns ``(new_state, mispredicts)``; exact, O(1).
    """
    if not 0 <= state <= COUNTER_MAX:
        raise SimulationError(f"bad counter state {state}")
    if takens < 0:
        raise SimulationError("takens must be non-negative")
    if takens == 0:
        return state, 0
    mispredicts = min(takens, max(0, TAKEN_THRESHOLD - state))
    return min(COUNTER_MAX, state + takens), mispredicts


def exit_loop_branch(state: int) -> Tuple[int, int]:
    """Run the final not-taken (loop exit) outcome through the counter."""
    if not 0 <= state <= COUNTER_MAX:
        raise SimulationError(f"bad counter state {state}")
    mispredict = 1 if state >= TAKEN_THRESHOLD else 0
    return max(0, state - 1), mispredict


def stationary_mispredict_rate(taken_probability: float) -> float:
    """Exact stationary mispredict rate of a 2-bit counter under Bernoulli
    outcomes with the given taken probability.

    The counter is a birth-death Markov chain with ratio
    ``r = p / (1 - p)``; its stationary distribution is ``pi_i ~ r**i``.
    Mispredicts happen when the counter disagrees with the outcome.
    """
    p = taken_probability
    if not 0.0 <= p <= 1.0:
        raise SimulationError("taken probability must be in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    r = p / (1.0 - p)
    weights = [1.0, r, r * r, r * r * r]
    z = sum(weights)
    pi = [w / z for w in weights]
    predict_not_taken = pi[0] + pi[1]
    predict_taken = pi[2] + pi[3]
    return predict_not_taken * p + predict_taken * (1.0 - p)


# ----------------------------------------------------------------------
# stateful predictors (instruction-level OoO simulator)
# ----------------------------------------------------------------------
class BimodalPredictor:
    """PC-indexed table of 2-bit saturating counters."""

    def __init__(self, entries: int) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise SimulationError("entries must be a positive power of two")
        self.entries = entries
        self.table: Dict[int, int] = {}

    def _index(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        """Predict taken?"""
        return self.table.get(self._index(pc), 1) >= TAKEN_THRESHOLD

    def update(self, pc: int, taken: bool) -> None:
        """Train on the resolved outcome."""
        index = self._index(pc)
        counter = self.table.get(index, 1)
        counter = min(COUNTER_MAX, counter + 1) if taken else max(0, counter - 1)
        self.table[index] = counter


class GSharePredictor:
    """Global-history predictor: PC xor history indexes the counter table."""

    def __init__(self, entries: int, history_bits: int) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise SimulationError("entries must be a positive power of two")
        if not 0 <= history_bits <= 16:
            raise SimulationError("history_bits out of range")
        self.entries = entries
        self.history_bits = history_bits
        self.history = 0
        self.table: Dict[int, int] = {}

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        """Predict taken?"""
        return self.table.get(self._index(pc), 1) >= TAKEN_THRESHOLD

    def update(self, pc: int, taken: bool) -> None:
        """Train and shift the global history."""
        index = self._index(pc)
        counter = self.table.get(index, 1)
        counter = min(COUNTER_MAX, counter + 1) if taken else max(0, counter - 1)
        self.table[index] = counter
        mask = (1 << self.history_bits) - 1 if self.history_bits else 0
        self.history = ((self.history << 1) | int(taken)) & mask


class CombinedPredictor:
    """SimpleScalar-style combined predictor: bimodal + gshare + meta."""

    def __init__(self, config: BranchPredictorConfig) -> None:
        self.config = config
        self.bimodal = BimodalPredictor(config.bht_entries)
        self.gshare = GSharePredictor(config.bht_entries, config.history_bits)
        self.meta: Dict[int, int] = {}
        self.predictions = 0
        self.mispredicts = 0

    def _meta_index(self, pc: int) -> int:
        return (pc >> 2) & (self.config.bht_entries - 1)

    def predict(self, pc: int) -> bool:
        """Predict taken, choosing between components via the meta table."""
        use_gshare = self.meta.get(self._meta_index(pc), 1) >= TAKEN_THRESHOLD
        return self.gshare.predict(pc) if use_gshare else self.bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        """Train all components and record accuracy statistics."""
        bim = self.bimodal.predict(pc)
        gsh = self.gshare.predict(pc)
        prediction = self.predict(pc)
        self.predictions += 1
        if prediction != taken:
            self.mispredicts += 1
        index = self._meta_index(pc)
        meta = self.meta.get(index, 1)
        if bim != gsh:
            if gsh == taken:
                meta = min(COUNTER_MAX, meta + 1)
            else:
                meta = max(0, meta - 1)
            self.meta[index] = meta
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)

    @property
    def mispredict_rate(self) -> float:
        """Observed mispredict rate."""
        return self.mispredicts / self.predictions if self.predictions else 0.0


def make_predictor(config: BranchPredictorConfig):
    """Build the stateful predictor described by *config*."""
    if config.kind == "bimodal":
        return BimodalPredictor(config.bht_entries)
    if config.kind == "gshare":
        return GSharePredictor(config.bht_entries, config.history_bits)
    if config.kind == "combined":
        return CombinedPredictor(config)
    raise SimulationError(f"no stateful model for predictor {config.kind!r}")
