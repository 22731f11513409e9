"""The ``BENCH_phase_analysis.json`` artefact and baseline comparison.

A :class:`BenchReport` is schema-versioned and stamped with the host
fingerprint from :mod:`repro.obs.manifest`, so a recorded number always
names the code, interpreter, numpy and platform that produced it.

Comparison semantics:

* **coverage** (always on): every case the baseline names must have
  been run, so a case cannot silently drop out of the suite;
* **wall-clock** (opt-in, ``--wall``): a case's best time must not
  exceed the baseline's by more than ``threshold``.  Only meaningful
  when current and baseline ran on comparable hosts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import HarnessError
from ..obs.manifest import host_fingerprint
from .runner import CaseResult

#: Bump when the report layout changes incompatibly.
BENCH_SCHEMA_VERSION = 2

#: Default artefact file name (the repo's perf trajectory record).
DEFAULT_REPORT_NAME = "BENCH_phase_analysis.json"


@dataclass(frozen=True)
class BenchReport:
    """One bench invocation's results plus provenance."""

    schema_version: int
    host: Dict[str, str]
    scale: float
    cases: List[dict]

    # ------------------------------------------------------------------
    @staticmethod
    def build(results: Sequence[CaseResult], scale: float) -> "BenchReport":
        """Assemble a report from runner output (stamps the host)."""
        return BenchReport(
            schema_version=BENCH_SCHEMA_VERSION,
            host=host_fingerprint(),
            scale=scale,
            cases=[result.to_dict() for result in results],
        )

    # ------------------------------------------------------------------
    def case(self, name: str) -> Optional[dict]:
        """The named case's payload, or None."""
        for case in self.cases:
            if case["name"] == name:
                return case
        return None

    def best_seconds(self, name: str) -> Optional[float]:
        """The named case's best time, or None."""
        case = self.case(name)
        return case.get("best_seconds") if case else None

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "host": dict(self.host),
            "scale": self.scale,
            "cases": list(self.cases),
        }

    def write(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def load_report(path) -> BenchReport:
    """Read a report; malformed files and other schema versions are
    rejected with :class:`HarnessError`."""
    path = Path(path)
    if not path.exists():
        raise HarnessError(f"bench baseline not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise HarnessError(f"unreadable bench report {path}: {error}")
    if not isinstance(payload, dict):
        raise HarnessError(f"bench report {path} is not a JSON object")
    version = payload.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise HarnessError(
            f"bench report {path} has schema version {version!r}; this "
            f"build reads version {BENCH_SCHEMA_VERSION}"
        )
    cases = payload.get("cases", [])
    if not isinstance(cases, list):
        raise HarnessError(f"bench report {path}: 'cases' is not a list")
    for index, case in enumerate(cases):
        if not isinstance(case, dict) or not isinstance(case.get("name"), str):
            raise HarnessError(
                f"bench report {path}: case {index} is not an object "
                f"with a string 'name'"
            )
    host = payload.get("host", {})
    scale = payload.get("scale", 0.0)
    if not isinstance(host, dict) or not isinstance(scale, (int, float)):
        raise HarnessError(
            f"bench report {path}: 'host' must be an object and 'scale' "
            f"a number"
        )
    return BenchReport(
        schema_version=version,
        host=dict(host),
        scale=float(scale),
        cases=cases,
    )


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    threshold: float = 0.5,
    wall: bool = False,
) -> List[str]:
    """Regressions of *current* against *baseline* (empty list = clean).

    *threshold* is the tolerated fractional slack on the opt-in
    wall-clock check.
    """
    if threshold <= 0:
        raise HarnessError(f"threshold must be > 0, got {threshold}")
    regressions: List[str] = []
    for base_case in baseline.cases:
        name = base_case["name"]
        if current.case(name) is None:
            regressions.append(f"{name}: present in baseline but not run")
            continue
        if wall:
            seconds = current.best_seconds(name)
            base_seconds = baseline.best_seconds(name)
            if seconds is not None and base_seconds is not None:
                if seconds > base_seconds * (1.0 + threshold):
                    regressions.append(
                        f"{name}: best {seconds:.6f}s exceeds baseline "
                        f"{base_seconds:.6f}s by more than {threshold:.0%}"
                    )
    return regressions
