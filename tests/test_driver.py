"""Tests for the one suite driver and its three transports.

The driver (:func:`repro.harness.recovery.run_tasks`) owns every piece
of per-task state — attempts, backoff, retry/failure accounting, obs
merging, journal hooks — and the transports (in-process, process pool,
JSONL subprocess fleet) only launch attempts.  So one faulted suite must
settle identically on all three: same completed payloads, same
failures, same counters, same journal.  Also pins the in-process
transport's ordering and the coarse samplers' functional-work counters.
"""

import json

import pytest

from repro.config import CONFIG_A
from repro.harness import (
    DispatchPool,
    ExperimentRunner,
    FaultPolicy,
    LocalPool,
    ResultCache,
)
from repro.harness.faults import FAULTS_ENV
from repro.obs import (
    FUNCTIONAL_INSTRUCTIONS,
    PROFILE_PASSES,
    RETRY_BACKOFF_SECONDS,
    RUN_FAILURES,
    RUN_RETRIES,
    RUNS_COMPLETED,
)

from .conftest import TEST_SCALE

#: gzip fails its first attempt only; lucas fails every attempt.
FAULTS = "raise:lucas:*:*;raise:gzip:*:0"
NAMES = ("gzip", "lucas", "art")
SCALE = 0.05

#: Transport under test -> the pool that selects it (None: run_suite's
#: default, which runs one job in-process).
POOLS = {
    "in-process": lambda: None,
    "process-pool": lambda: LocalPool(jobs=2),
    "subprocess-fleet": lambda: DispatchPool(workers=2),
}


def _faulted_suite(kind, root, sampling):
    """Run the faulted suite on one transport; return what it settled."""
    runner = ExperimentRunner(
        sampling=sampling,
        cache=ResultCache(directory=root / "cache"),
        workload_scale=SCALE,
        policy=FaultPolicy(max_retries=1, backoff_base=0.0),
    )
    journal = root / "suite.journal.jsonl"
    outcome = runner.run_suite(
        CONFIG_A, names=list(NAMES), pool=POOLS[kind](), journal=journal
    )
    metrics = runner.obs.metrics
    entries = [json.loads(line) for line in journal.read_text().splitlines()]
    return {
        "runs": [json.dumps(r.to_dict(), sort_keys=True) for r in outcome],
        "failures": [
            (f.benchmark, f.attempts, f.error_type, f.stage)
            for f in outcome.failures
        ],
        "counters": (
            metrics.value(RUN_RETRIES),
            metrics.value(RUN_FAILURES),
            metrics.value(RUNS_COMPLETED),
            metrics.histogram(RETRY_BACKOFF_SECONDS).count,
        ),
        "journal": entries,
    }


def _comparable(entries):
    """Journal entries, order-free and without tracebacks: worker
    transports settle in completion order, and a traceback names the
    frames of whichever process raised."""
    out = []
    for entry in entries:
        entry = json.loads(json.dumps(entry))
        if entry.get("type") == "failure":
            entry["failure"].pop("traceback")
        out.append(json.dumps(entry, sort_keys=True))
    return sorted(out)


@pytest.fixture(scope="module")
def in_process(tmp_path_factory, test_sampling):
    """The in-process transport's settlement of the faulted suite."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(FAULTS_ENV, FAULTS)
        return _faulted_suite(
            "in-process", tmp_path_factory.mktemp("reference"),
            test_sampling,
        )


@pytest.mark.parametrize("kind", sorted(POOLS))
def test_transports_settle_identically(kind, tmp_path, test_sampling,
                                       monkeypatch, in_process):
    monkeypatch.setenv(FAULTS_ENV, FAULTS)
    settled = _faulted_suite(kind, tmp_path, test_sampling)
    assert settled["runs"] == in_process["runs"]
    assert [json.loads(r)["benchmark"] for r in settled["runs"]] == \
        ["gzip", "art"]
    assert settled["failures"] == in_process["failures"] == [
        ("lucas", 2, "InjectedFault", "trace_build")
    ]
    # retries 2 / failures 1 / completed 2, two backoff observations
    assert settled["counters"] == in_process["counters"] == (2, 1, 2, 2)
    assert _comparable(settled["journal"]) == \
        _comparable(in_process["journal"])


def test_in_process_retries_before_the_next_task(in_process):
    # A retried task re-runs (after its backoff) before the next task
    # starts, so the journal is in suite order.
    order = [
        (e["type"], e.get("benchmark") or e.get("failure", {}).get(
            "benchmark"))
        for e in in_process["journal"]
    ]
    assert order == [
        ("header", None), ("run", "gzip"), ("failure", "lucas"),
        ("run", "art"),
    ]


def test_in_process_span_order(tmp_path, test_sampling, monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, "raise:gzip:*:0")
    runner = ExperimentRunner(
        sampling=test_sampling,
        cache=ResultCache(directory=tmp_path),
        workload_scale=TEST_SCALE,
        policy=FaultPolicy(max_retries=1, backoff_base=0.0),
    )
    runner.run_suite(CONFIG_A, names=["gzip", "lucas"], journal=False)
    (suite,) = runner.obs.tracer.roots
    runs = [
        (s.attributes["benchmark"], s.attributes["attempt"])
        for s in suite.children if s.name == "run"
    ]
    assert runs == [("gzip", 0), ("gzip", 1), ("lucas", 0)]


def test_coasts_only_run_counts_coarse_profiling(tmp_path, test_sampling):
    # COASTS profiles the trace itself (structure pass, then one coarse
    # pass on one simulator); both passes and their functional
    # instructions land on the runner's registry.
    runner = ExperimentRunner(
        sampling=test_sampling,
        cache=ResultCache(directory=tmp_path),
        workload_scale=TEST_SCALE,
        methods=("coasts",),
    )
    runner.run_benchmark("gzip", CONFIG_A)
    metrics = runner.obs.metrics
    assert metrics.value(PROFILE_PASSES, kind="structure") == 1
    assert metrics.value(PROFILE_PASSES, kind="coarse") == 1
    assert metrics.value(PROFILE_PASSES, kind="fixed") == 0
    assert metrics.value(FUNCTIONAL_INSTRUCTIONS) > 0
