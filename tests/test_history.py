"""Tests for the cross-run history store and ``repro obs diff``."""

import json

import pytest

from repro.bench.report import BenchReport
from repro.cli import EXIT_PARTIAL, main
from repro.errors import HarnessError, ObservabilityError
from repro.obs.history import (
    COMPARABLE_KEYS,
    HistoryRecord,
    RunHistory,
    diff_records,
    format_diff,
    format_history,
    record_from_bench,
)
from repro.obs.manifest import RunManifest


def make_record(cpi_dev=0.01, config_digest="cfg0", scale=0.04,
                seconds=None, kind="suite", created="2026-01-01T00:00:00"):
    return HistoryRecord(
        kind=kind,
        created=created,
        config_name="a",
        config_digest=config_digest,
        sampling_digest="smp0",
        workload_scale=scale,
        methods=["simpoint", "coasts"],
        benchmarks=["gcc"],
        accuracy={
            "gcc": {
                "simpoint": {
                    "cpi_dev": cpi_dev,
                    "l1_dev": 0.001,
                    "l2_dev": 0.002,
                    "baseline_cpi": 1.5,
                    "estimate_cpi": 1.5 * (1 + cpi_dev),
                },
            },
        },
        counters={"repro_simulated_instructions_total": 1000.0},
        seconds=dict(seconds or {}),
    ).seal()


class TestHistoryRecord:
    def test_seal_is_content_derived_and_idempotent(self):
        a, b = make_record(), make_record()
        assert a.run_id and a.run_id == b.run_id
        assert len(a.run_id) == 12
        sealed_again = a.seal()
        assert sealed_again.run_id == a.run_id
        assert make_record(cpi_dev=0.02).run_id != a.run_id

    def test_dict_round_trip(self):
        record = make_record(seconds={"kmeans": 0.012})
        rebuilt = HistoryRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert rebuilt.to_dict() == record.to_dict()

    def test_from_dict_ignores_unknown_keys(self):
        payload = make_record().to_dict()
        payload["added_in_v9"] = {"x": 1}
        rebuilt = HistoryRecord.from_dict(payload)
        assert rebuilt.run_id == payload["run_id"]

    def test_comparable_key_covers_declared_keys(self):
        assert set(make_record().comparable_key()) == set(COMPARABLE_KEYS)


class TestRunHistoryStore:
    def test_append_and_load(self, tmp_path):
        store = RunHistory(tmp_path / "hist")
        first = store.append(make_record(cpi_dev=0.01))
        second = store.append(make_record(cpi_dev=0.02))
        loaded = store.load()
        assert [r.run_id for r in loaded] == [first.run_id, second.run_id]

    def test_load_missing_store_is_empty(self, tmp_path):
        assert RunHistory(tmp_path / "nowhere").load() == []

    def test_resolve_forms(self, tmp_path):
        store = RunHistory(tmp_path)
        records = [store.append(make_record(cpi_dev=0.01 * i))
                   for i in range(1, 4)]
        assert store.resolve("last").run_id == records[-1].run_id
        assert store.resolve("prev").run_id == records[-2].run_id
        assert store.resolve("~0").run_id == records[-1].run_id
        assert store.resolve("~2").run_id == records[0].run_id
        prefix = records[0].run_id[:6]
        assert store.resolve(prefix).run_id == records[0].run_id

    def test_resolve_errors(self, tmp_path):
        store = RunHistory(tmp_path)
        with pytest.raises(HarnessError, match="history is empty"):
            store.resolve("last")
        store.append(make_record())
        with pytest.raises(HarnessError, match="'prev' needs two"):
            store.resolve("prev")
        with pytest.raises(HarnessError, match="out of range"):
            store.resolve("~5")
        with pytest.raises(HarnessError, match="bad history reference"):
            store.resolve("~x")
        with pytest.raises(HarnessError, match="unknown history reference"):
            store.resolve("zzzzzz")

    def test_resolve_ambiguous_prefix(self, tmp_path):
        store = RunHistory(tmp_path)
        store.append(make_record())
        store.append(make_record())  # identical content -> identical id
        with pytest.raises(HarnessError, match="ambiguous"):
            store.resolve(store.load()[0].run_id[:4])

    def test_corrupt_line_is_data_error(self, tmp_path):
        store = RunHistory(tmp_path)
        store.append(make_record())
        with open(store.path, "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(ObservabilityError, match=r"history\.jsonl:2"):
            store.load()

    def test_non_object_line_is_data_error(self, tmp_path):
        store = RunHistory(tmp_path)
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text("[1, 2]\n")
        with pytest.raises(ObservabilityError, match="expected an object"):
            store.load()


class TestDiff:
    def test_identical_records_pass(self):
        diff = diff_records(make_record(), make_record())
        assert diff.verdict == "PASS"
        assert diff.regressed == []
        assert diff.notes == []
        assert any(e.verdict == "PASS" for e in diff.entries)

    def test_grown_deviation_regresses_and_names_the_metric(self):
        diff = diff_records(make_record(cpi_dev=0.01),
                            make_record(cpi_dev=0.05))
        assert diff.verdict == "REGRESSED"
        names = [e.name for e in diff.regressed]
        assert "gcc/simpoint/cpi_dev" in names
        rendered = format_diff(diff)
        assert "REGRESSED" in rendered
        assert "gcc/simpoint/cpi_dev" in rendered

    def test_shrunk_deviation_improves(self):
        diff = diff_records(make_record(cpi_dev=0.05),
                            make_record(cpi_dev=0.01))
        assert diff.verdict == "PASS"
        assert any(e.verdict == "IMPROVED" for e in diff.entries)

    def test_threshold_tolerates_small_drift(self):
        diff = diff_records(make_record(cpi_dev=0.0100),
                            make_record(cpi_dev=0.0104),
                            threshold=1e-3)
        assert diff.verdict == "PASS"

    def test_provenance_mismatch_is_a_note_not_a_failure(self):
        diff = diff_records(make_record(config_digest="cfg0"),
                            make_record(config_digest="cfg1"))
        assert diff.verdict == "PASS"
        assert any("config_digest" in note for note in diff.notes)
        assert "note:" in format_diff(diff)

    def test_missing_benchmark_is_a_note(self):
        b = make_record()
        b.accuracy["mcf"] = {"simpoint": {"cpi_dev": 0.0}}
        b.run_id = ""
        diff = diff_records(make_record(), b.seal())
        assert any("mcf" in note and "first" in note for note in diff.notes)

    def test_old_bench_record_with_speedups_diffs_clean(self, capsys):
        # A line written before bench records dropped their speedup
        # ratios must still load and diff against a new record.
        old = make_record(kind="bench", seconds={"kmeans": 0.5}).to_dict()
        old["speedups"] = {"kmeans": 40.0}
        old["run_id"] = "0ld0ld0ld0ld"
        store = RunHistory()
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text(json.dumps(old) + "\n")
        store.append(make_record(kind="bench", seconds={"kmeans": 0.6},
                                 created="2026-02-01T00:00:00"))
        loaded = store.load()[0]
        assert loaded.run_id == "0ld0ld0ld0ld"
        assert not hasattr(loaded, "speedups")
        code = main(["obs", "diff", "prev", "last", "--all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: PASS" in out
        assert "REGRESSED" not in out and "speedup" not in out

    def test_counters_are_informational(self):
        a = make_record()
        b = make_record()
        b.counters["repro_simulated_instructions_total"] = 9999.0
        b.run_id = ""
        diff = diff_records(a, b.seal())
        assert diff.verdict == "PASS"
        entry = next(e for e in diff.entries
                     if e.name.startswith("counter:"))
        assert entry.verdict == "INFO"

    def test_bench_seconds_kept_for_every_case_and_never_gated(self):
        def report(seconds):
            return BenchReport(
                schema_version=2, host={"created": "t"}, scale=0.04,
                cases=[
                    {"name": "kmeans", "best_seconds": 0.5},
                    {"name": "detailed_timing", "best_seconds": seconds},
                ],
            )

        a = record_from_bench(report(0.30))
        assert a.seconds == {"kmeans": 0.5, "detailed_timing": 0.30}
        assert a.benchmarks == ["detailed_timing", "kmeans"]
        assert HistoryRecord.from_dict(a.to_dict()).seconds == a.seconds
        # Three times slower is host noise as far as the gate knows.
        diff = diff_records(a, record_from_bench(report(0.90)))
        assert diff.verdict == "PASS"
        entry = next(e for e in diff.entries
                     if e.name == "seconds:detailed_timing")
        assert entry.verdict == "INFO"
        assert entry.delta == pytest.approx(0.60)

    def test_old_records_load_without_seconds(self):
        payload = make_record().to_dict()
        del payload["seconds"]
        assert HistoryRecord.from_dict(payload).seconds == {}

    def test_format_diff_verbose_shows_pass_rows(self):
        diff = diff_records(make_record(), make_record())
        quiet = format_diff(diff)
        loud = format_diff(diff, verbose=True)
        assert "gcc/simpoint/cpi_dev" not in quiet
        assert "gcc/simpoint/cpi_dev" in loud
        assert quiet.splitlines()[-1].startswith("verdict: PASS")


class TestBuilders:
    @staticmethod
    def _manifest(**overrides):
        payload = dict(
            created="2026-01-01T00:00:00",
            repro_version="0.5",
            python_version="3.11.0",
            numpy_version="2.0.0",
            platform="linux-test",
            config_name="a",
            config_digest="cfg0",
            sampling_digest="smp0",
            workload_scale=0.04,
            methods=["simpoint", "coasts"],
            benchmarks=["gzip"],
        )
        payload.update(overrides)
        return RunManifest(**payload)

    def test_record_from_manifest_carries_provenance(self):
        from repro.obs.history import record_from_manifest

        record = record_from_manifest(self._manifest(), kind="run")
        assert record.run_id
        assert record.kind == "run"
        assert record.config_name == "a"
        assert record.workload_scale == 0.04
        assert record.benchmarks == ["gzip"]
        assert record.host.get("python_version") == "3.11.0"

    def test_record_from_manifest_keeps_only_counters(self):
        from repro.obs.history import record_from_manifest
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("repro_runs_total").inc(3)
        registry.gauge("repro_diag_total_error", benchmark="g",
                       method="m", metric="cpi").set(0.5)
        registry.histogram("repro_seconds", buckets=(1.0,)).observe(0.5)
        record = record_from_manifest(self._manifest(), registry=registry)
        assert record.counters == {"repro_runs_total": 3.0}


class TestFormatHistory:
    def test_empty(self):
        assert format_history([]) == "history is empty"

    def test_listing_and_limit(self):
        records = [make_record(cpi_dev=0.01 * i, created=f"2026-01-0{i}")
                   for i in range(1, 4)]
        text = format_history(records)
        for record in records:
            assert record.run_id in text
        limited = format_history(records, limit=2)
        assert records[0].run_id not in limited
        assert "1 older record(s) not shown" in limited


class TestCli:
    def _run_twice(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        for _ in range(2):
            assert main(["--scale", "0.04", "run", "gzip"]) == 0

    def test_identical_seeded_runs_diff_clean(self, capsys, tmp_path,
                                              monkeypatch):
        """The CI no-regression smoke: same config twice -> PASS, exit 0."""
        self._run_twice(tmp_path, monkeypatch)
        code = main(["obs", "diff", "prev", "last"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: PASS" in out

    def test_injected_regression_fails_and_names_metric(
            self, capsys, tmp_path, monkeypatch):
        self._run_twice(tmp_path, monkeypatch)
        store = RunHistory()
        worse = store.load()[-1]
        for values in worse.accuracy["gzip"].values():
            values["cpi_dev"] += 0.5
        worse.run_id = ""
        store.append(worse)
        code = main(["obs", "diff", "~2", "last"])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL
        assert "REGRESSED" in captured.out
        assert "gzip/" in captured.out and "cpi_dev" in captured.out
        assert "regressed" in captured.err

    def test_history_lists_runs(self, capsys, tmp_path, monkeypatch):
        self._run_twice(tmp_path, monkeypatch)
        code = main(["obs", "history"])
        out = capsys.readouterr().out
        assert code == 0
        assert "run_id" in out
        assert "gzip" in out

    def test_history_empty_store_is_fine(self, capsys):
        code = main(["obs", "history"])
        assert code == 0
        assert "history is empty" in capsys.readouterr().out

    def test_diff_empty_store_is_usage_error(self, capsys):
        code = main(["obs", "diff", "prev", "last"])
        err = capsys.readouterr().err
        assert code == 2
        assert "history is empty" in err

    def test_corrupt_history_is_data_error(self, capsys, tmp_path,
                                           monkeypatch):
        store = RunHistory()
        store.append(make_record())
        with open(store.path, "a") as handle:
            handle.write("{broken\n")
        code = main(["obs", "history"])
        err = capsys.readouterr().err
        assert code == 1
        assert "corrupt history record" in err

    def test_no_history_flag_suppresses_append(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["--scale", "0.04", "run", "gzip",
                     "--no-history"]) == 0
        capsys.readouterr()
        assert RunHistory().load() == []

    def test_history_dir_flag_overrides_env(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        elsewhere = tmp_path / "elsewhere"
        assert main(["--scale", "0.04", "run", "gzip",
                     "--history-dir", str(elsewhere)]) == 0
        capsys.readouterr()
        assert RunHistory().load() == []  # default store untouched
        records = RunHistory(elsewhere).load()
        assert len(records) == 1
        assert records[0].benchmarks == ["gzip"]
