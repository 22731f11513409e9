"""Tests of the benchmark itself: its declaration, workloads and checks.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from perfbench import layers, measure, run, spec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

#: Each workload shrunk to smoke-test size (same layers, tiny inputs).
TINY = {
    "fine-plan": dataclasses.replace(
        spec.WORKLOADS["fine-plan"], benchmarks=("gzip",), scale=0.03),
    "coarse-suite": dataclasses.replace(
        spec.WORKLOADS["coarse-suite"], benchmarks=("gzip", "mcf"),
        scale=0.03),
    "warm-suite": dataclasses.replace(
        spec.WORKLOADS["warm-suite"], benchmarks=("gzip", "mcf"),
        scale=0.03),
}


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_lists(declared):
    return declared["end_to_end"], declared["per_layer"]


# ----------------------------------------------------------------------
# the declaration
# ----------------------------------------------------------------------
def test_declaration_names_units_and_limits(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    end_to_end, per_layer = _metric_lists(declared)
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    assert 2 <= len(declared["workloads"]) <= 8
    assert isinstance(declared["run_seconds"], int)
    assert 1 <= declared["run_seconds"] <= 60
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    for metric in end_to_end + per_layer:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)


def test_declaration_matches_code(declared):
    end_to_end, per_layer = _metric_lists(declared)
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        w.name: w.why for w in spec.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in end_to_end} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in per_layer} == spec.PER_LAYER
    assert declared["paths"] == ["perfbench"]
    assert declared["command"] == ["python3", "perfbench/run.py"]


def test_expected_outputs_cover_every_workload():
    table = json.loads(measure.EXPECTED_PATH.read_text())
    for workload in spec.WORKLOADS.values():
        expected = measure.load_expected(workload, measure.EXPECTED_PATH)
        assert all(expected.values()), workload.name
        for outputs in expected.values():
            methods = workload.methods or (
                "simpoint", "early_sp", "coasts", "multilevel",
                "stratified", "ranked_set",
            )
            assert set(outputs["methods"]) == set(methods)
    assert len(table) == len({
        measure.expected_key(b, w.scale)
        for w in spec.WORKLOADS.values() for b in w.benchmarks
    })


# ----------------------------------------------------------------------
# smoke runs of every workload, untraced and traced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_smoke(name, trace, tmp_path):
    work_root = tmp_path / "work"
    record = measure.measure(TINY[name], seed=7, seconds=0, trace=trace,
                             work_root=work_root, src_dir=ROOT / "src")
    assert record["failed"] == 0 and not record["mismatches"]
    # first pass + at least one timed (and one traced) pass
    assert record["attempted"] >= 3 * len(TINY[name].benchmarks)
    metrics = record["metrics"]
    assert set(metrics) == set(spec.PER_LAYER if trace else spec.END_TO_END)
    assert all(math.isfinite(value) for value in metrics.values())
    assert list(work_root.iterdir()) == []
    if not trace:
        assert all(metrics[m] > 0 for m in spec.END_TO_END)
    elif name == "fine-plan":
        assert metrics["samplers.simpoint_s"] > 0
        assert metrics["analysis.cluster_with_bic_calls"] > 0
        assert metrics["stage.plan_construction_s"] > 0
    elif name == "coarse-suite":
        assert metrics["detailed.simulate_full_s"] > 0
        assert metrics["detailed.calls"] > 0
        assert metrics["harness.cache_hit_ratio"] == 0
    else:
        assert metrics["harness.cache_hit_ratio"] == 1
        assert metrics["detailed.calls"] == 0


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    workload = TINY["fine-plan"]
    return measure.run_pass(
        workload, spec.DEFAULT_SEED, tmp_path_factory.mktemp("pass")
    ).outputs


def _write_table(path, workload, outputs):
    path.write_text(json.dumps({
        measure.expected_key(b, workload.scale): o
        for b, o in outputs.items()
    }))


def test_perturbed_expected_value_is_a_failure(tiny_outputs, tmp_path):
    workload = TINY["fine-plan"]
    path = tmp_path / "expected.json"
    _write_table(path, workload, tiny_outputs)
    good = measure.Checker(workload, spec.DEFAULT_SEED, path)
    good.check(tiny_outputs, "pass0")
    assert (good.attempted, good.failed) == (1, 0)

    perturbed = json.loads(json.dumps(tiny_outputs))
    perturbed["gzip"]["methods"]["simpoint"]["estimate"]["cpi"] *= 1 + 1e-6
    _write_table(path, workload, perturbed)
    bad = measure.Checker(workload, spec.DEFAULT_SEED, path)
    bad.check(tiny_outputs, "pass0")
    assert (bad.attempted, bad.failed) == (1, 1)
    assert bad.mismatches == ["pass0:gzip"]


def test_pass_disagreeing_with_first_pass_is_a_failure(tiny_outputs):
    checker = measure.Checker(TINY["fine-plan"], seed=7)
    checker.check(tiny_outputs, "first")
    drifted = json.loads(json.dumps(tiny_outputs))
    drifted["gzip"]["methods"]["coasts"]["stats"]["n_points"] += 1
    checker.check(drifted, "pass0")
    checker.check({}, "pass1")  # a failed run is absent from the outputs
    assert (checker.attempted, checker.failed) == (3, 2)


def test_command_exits_nonzero_on_a_mismatch(
    tiny_outputs, tmp_path, monkeypatch, capsys
):
    workload = TINY["fine-plan"]
    perturbed = json.loads(json.dumps(tiny_outputs))
    perturbed["gzip"]["baseline"]["l1_hit_rate"] += 1e-3
    path = tmp_path / "expected.json"
    _write_table(path, workload, perturbed)
    monkeypatch.setattr(measure, "EXPECTED_PATH", path)
    monkeypatch.setattr(spec, "WORKLOADS", TINY)
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "fine-plan", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 4
    assert set(result["metrics"]) == set(spec.END_TO_END)


def test_command_refuses_a_tree_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "fine-plan"]) == 2


# ----------------------------------------------------------------------
# the seed and the tracer
# ----------------------------------------------------------------------
def test_seed_reaches_sampling_config(tmp_path, monkeypatch, capsys):
    seen = []
    make_runner = measure.make_runner

    def spy(*args, **kwargs):
        runner = make_runner(*args, **kwargs)
        seen.append(runner.sampling.random_seed)
        return runner

    monkeypatch.setattr(measure, "make_runner", spy)
    monkeypatch.setattr(spec, "WORKLOADS", TINY)
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "fine-plan", "--seed", "1234",
                     "--seconds", "0"])
    assert code == 0
    assert len(seen) >= 4 and set(seen) == {1234}


def test_layer_tracer_restores_every_entry_point():
    from repro.analysis import bic
    from repro.detailed.timing import TimingSimulator
    from repro.harness import runner as runner_module
    from repro.sampling import simpoint

    def snapshot():
        return (
            bic.cluster_with_bic, simpoint.cluster_with_bic,
            runner_module.get_sampler, runner_module.simulate_point_set,
            TimingSimulator.__dict__["simulate_full"],
            runner_module.ExperimentRunner.__dict__["run_benchmark"],
        )

    before = snapshot()
    with layers.LayerTracer():
        during = snapshot()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, snapshot()))
