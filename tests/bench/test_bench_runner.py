"""The perf-regression runners produce pinned, self-checking reports."""

from __future__ import annotations

import pytest

from repro.bench import (
    BENCH_MINING_FILENAME,
    BENCH_PIPELINE_FILENAME,
    BenchReport,
    SCALES,
    run_interning_bench,
    run_mining_bench,
    run_obs_overhead_bench,
    run_pipeline_bench,
    write_reports,
)


def test_scales_are_pinned():
    """Every scale has an explicit seed, so runs are reproducible."""
    assert {"smoke", "small", "bench", "paper"} <= set(SCALES)
    for config in SCALES.values():
        assert isinstance(config.seed, int)


def test_unknown_scale_rejected():
    with pytest.raises(ValueError, match="unknown bench scale"):
        run_mining_bench("galactic")


@pytest.fixture(scope="module")
def smoke_mining_report():
    return run_mining_bench("smoke", git_rev="testrev")


def test_mining_report_shape(smoke_mining_report):
    report = smoke_mining_report
    assert report.benchmark == "mining"
    assert report.scale == "smoke"
    assert report.seed == SCALES["smoke"].seed
    assert report.git_rev == "testrev"
    assert report.n_cpus >= 1
    reference = report.row("modified_prefixspan_reference")
    interned = report.row("modified_prefixspan_interned")
    assert reference.speedup_vs_serial == 1.0
    assert interned.wall_clock_s > 0
    # The interned core must win even at smoke scale; the ≥20× acceptance
    # figure is measured at the "bench" scale, where indexes amortize more.
    assert interned.speedup_vs_serial > 1.0


def test_mining_report_carries_interning_rows(smoke_mining_report):
    """BENCH_mining.json records the representation's memory side too."""
    obj = smoke_mining_report.row("db_build_object")
    interned = smoke_mining_report.row("db_build_interned")
    assert obj.speedup_vs_serial == 1.0
    for row in (obj, interned):
        assert row.peak_tracemalloc_kb is not None and row.peak_tracemalloc_kb > 0
        assert row.bytes_per_sequence is not None and row.bytes_per_sequence > 0
    # The acceptance bar (≤ 1/4 of the object representation) is structural
    # — byte sizes, not wall clock — so it holds at any scale.
    assert interned.bytes_per_sequence <= obj.bytes_per_sequence / 4


def test_mining_report_carries_classic_baselines(smoke_mining_report):
    """Classic PrefixSpan and GSP are timed on the same database; the runner
    asserted they mine the same pattern set before reporting either."""
    classic = smoke_mining_report.row("prefixspan_classic")
    gsp = smoke_mining_report.row("gsp")
    assert classic.speedup_vs_serial == 1.0
    assert classic.wall_clock_s > 0 and gsp.wall_clock_s > 0
    assert gsp.speedup_vs_serial == pytest.approx(classic.wall_clock_s / gsp.wall_clock_s)


def test_interning_report_shape():
    report = run_interning_bench("smoke", git_rev="testrev")
    assert report.benchmark == "interning"
    assert report.scale == "smoke"
    names = [row.name for row in report.rows]
    assert names == ["db_build_object", "db_build_interned"]
    interned = report.row("db_build_interned")
    obj = report.row("db_build_object")
    assert interned.bytes_per_sequence < obj.bytes_per_sequence


def test_pipeline_report_shape():
    report = run_pipeline_bench("smoke", workers=(2,), git_rev="testrev")
    assert report.benchmark == "pipeline"
    assert report.row("detect_all_patterns_serial").speedup_vs_serial == 1.0
    fanned = report.row("detect_all_patterns_process_2w")
    # Parity with serial is asserted inside the runner; here only the
    # measurement's presence matters (speedup is host-CPU-bound).
    assert fanned.wall_clock_s > 0


def test_obs_overhead_report_shape():
    report = run_obs_overhead_bench("smoke", repeats=1, git_rev="testrev")
    assert report.benchmark == "obs_overhead"
    assert report.dirty is False
    disabled = report.row("detect_all_obs_disabled")
    enabled = report.row("detect_all_obs_enabled")
    assert disabled.speedup_vs_serial == 1.0
    assert enabled.wall_clock_s > 0
    # The instrumented leg's trace rides along in the report.
    assert report.trace
    assert report.trace[0]["name"] == "patterns.detect_all"


class TestDirtyTreeGuard:
    def _run(self, monkeypatch, tmp_path, dirty, argv=()):
        import repro.bench.__main__ as bench_main
        import repro.bench.runner as bench_runner

        monkeypatch.setattr(bench_main, "_git_state",
                            lambda: ("abc1234", dirty))
        monkeypatch.setattr(bench_runner, "_git_state",
                            lambda: ("abc1234", dirty))
        return bench_main.main(
            ["--scale", "smoke", "--workers", "2", "--out", str(tmp_path),
             *argv]
        )

    def test_refuses_to_overwrite_on_dirty_tree(self, monkeypatch, tmp_path,
                                                capsys):
        (tmp_path / BENCH_MINING_FILENAME).write_text("{}")
        assert self._run(monkeypatch, tmp_path, dirty=True) == 2
        out = capsys.readouterr().out
        assert "refusing to overwrite" in out
        assert BENCH_MINING_FILENAME in out
        assert "--force" in out
        # The refusal happened before any benchmark ran or file changed.
        assert (tmp_path / BENCH_MINING_FILENAME).read_text() == "{}"
        assert not (tmp_path / BENCH_PIPELINE_FILENAME).exists()

    def test_dirty_tree_without_existing_reports_proceeds(self, monkeypatch,
                                                          tmp_path):
        assert self._run(monkeypatch, tmp_path, dirty=True) == 0
        assert (tmp_path / BENCH_MINING_FILENAME).exists()
        assert (tmp_path / BENCH_PIPELINE_FILENAME).exists()

    def test_force_overwrites_and_stamps_dirty(self, monkeypatch, tmp_path):
        (tmp_path / BENCH_MINING_FILENAME).write_text("{}")
        assert self._run(monkeypatch, tmp_path, dirty=True,
                         argv=("--force",)) == 0
        report = BenchReport.load(tmp_path / BENCH_MINING_FILENAME)
        assert report.dirty is True
        assert report.git_rev.endswith("-dirty")


def test_write_reports_emits_both_files(tmp_path):
    mining_path, pipeline_path = write_reports(
        tmp_path, scale="smoke", workers=(2,)
    )
    assert mining_path == tmp_path / BENCH_MINING_FILENAME
    assert pipeline_path == tmp_path / BENCH_PIPELINE_FILENAME
    assert BenchReport.load(mining_path).benchmark == "mining"
    assert BenchReport.load(pipeline_path).benchmark == "pipeline"
