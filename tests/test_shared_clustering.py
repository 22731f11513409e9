"""Plan once, select many: one fine clustering per benchmark.

SimPoint, EarlySP and stratified sampling differ only in their selection
rule, so the harness clusters the fine profile once per benchmark
(:meth:`~repro.samplers.PlanContext.fine_clustering`) and each method
selects from it.  These tests pin that the sharing changes no result,
that it really happens (a deterministic sweep counter), and that the
shared sweep is visible in the trace under ``plan_construction``.
"""

import pytest

from repro.config import CONFIG_A
from repro.harness import ExperimentRunner, ResultCache
from repro.obs import CLUSTER_SWEEPS
from repro.samplers import registered_methods
from repro.sampling.early import EarlySimPoint
from repro.sampling.simpoint import SimPoint
from repro.sampling.stratified import StratifiedSampler

from .conftest import TEST_SCALE

STANDALONE = {
    "simpoint": SimPoint,
    "early_sp": EarlySimPoint,
    "stratified": StratifiedSampler,
}


def _runner(sampling, cache_dir):
    return ExperimentRunner(
        sampling=sampling,
        cache=ResultCache(directory=cache_dir),
        workload_scale=TEST_SCALE,
    )


@pytest.fixture(scope="module")
def shared_runner(tmp_path_factory, test_sampling):
    runner = _runner(test_sampling, tmp_path_factory.mktemp("shared"))
    runner.plans("gzip", methods=registered_methods())
    return runner


@pytest.mark.parametrize("method", sorted(STANDALONE))
def test_shared_plans_equal_standalone(method, shared_runner, test_sampling):
    plan = shared_runner.plans("gzip")[method]
    diag = shared_runner._plan_diags["gzip"][method]
    profile = shared_runner._contexts["gzip"].fine_profile()

    sampler = STANDALONE[method](test_sampling)
    standalone = sampler.sample(profile, benchmark="gzip")
    assert plan == standalone
    assert diag.to_dict() == sampler.last_diagnostics.to_dict()


def test_run_benchmark_counts_one_fine_sweep(tmp_path, test_sampling):
    runner = _runner(test_sampling, tmp_path / "cache")
    runner.run_benchmark("gzip", CONFIG_A)
    metrics = runner.obs.metrics
    assert metrics.value(CLUSTER_SWEEPS, level="fine") == 1
    assert metrics.value(CLUSTER_SWEEPS, level="coarse") == 1


def test_suite_trace_nests_sweep_under_plan_construction(
        tmp_path, test_sampling):
    runner = _runner(test_sampling, tmp_path / "cache")
    runner.run_suite(CONFIG_A, names=["gzip"], journal=False)
    spans = list(runner.obs.tracer.spans())
    by_id = {span.span_id: span for span in spans}

    sweeps = [s for s in spans if s.name == "fine_clustering"]
    assert [s.attributes["benchmark"] for s in sweeps] == ["gzip"]
    assert sweeps[0].attributes["n_clusters"] >= 1
    assert sweeps[0].attributes["n_intervals"] >= 1

    sampling = [s for s in spans if s.name == "sampling"]
    assert sorted(s.attributes["method"] for s in sampling) == \
        sorted(registered_methods())
    for span in sampling + sweeps:
        assert by_id[span.parent_id].name == "plan_construction"
