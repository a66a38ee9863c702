"""Tests for the crowdweb CLI (driving main() directly)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ds.csv"
    assert main(["generate", str(path), "--scale", "small"]) == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerate:
    def test_writes_file(self, dataset_file):
        assert dataset_file.exists()
        assert dataset_file.stat().st_size > 10_000

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", str(a), "--seed", "1"])
        main(["generate", str(b), "--seed", "2"])
        assert a.read_text() != b.read_text()


class TestStats:
    def test_prints_table(self, dataset_file, capsys):
        assert main(["stats", str(dataset_file)]) == 0
        out = capsys.readouterr().out
        assert "check-ins" in out
        assert "densest 3 months" in out


class TestMine:
    def test_mines_known_user(self, dataset_file, capsys):
        # u0009 is the busiest user of the small seed-7 world.
        assert main(["mine", str(dataset_file), "u0009",
                     "--min-support", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "User u0009" in out

    def test_unknown_user_fails(self, dataset_file, capsys):
        assert main(["mine", str(dataset_file), "nobody"]) == 2
        assert "not in dataset" in capsys.readouterr().err

    def test_level_option(self, dataset_file, capsys):
        assert main(["mine", str(dataset_file), "u0009", "--level", "leaf"]) == 0


class TestCrowd:
    def test_prints_snapshot(self, dataset_file, capsys):
        assert main(["crowd", str(dataset_file), "--hour", "9.5",
                     "--min-days", "25", "--months", "2"]) == 0
        out = capsys.readouterr().out
        assert "window 09:00-10:00" in out


class TestFigures:
    #: One MEASURED.md section heading per family.
    SECTIONS = (
        "Table-D", "Fig. 2", "Figs. 3–4", "Figs. 5 and 7", "Fig. 6", "Fig. 8",
        "Next-place prediction — venue level", "Next-place prediction — leaf level",
        "Next-place prediction — root level", "DBSCAN+RNN", "Ground-truth",
        "Out-of-sample crowd forecast", "Behavioural communities",
        "Event spike detection", "Ablation — abstraction", "Ablation — bin width",
        "Ablation — cell size", "Ablation — day kind", "Ablation — time tolerance",
        "Paper claims",
    )

    def test_regenerates_artifacts(self, reproduction, reproduction_results):
        names = {p.name for p in reproduction.iterdir()}
        assert {"fig5_sequences_vs_support.svg", "fig6_sequence_count_distribution.svg",
                "fig7_length_vs_support.svg", "fig8_length_distribution.svg",
                "fig3_crowd_0900.svg", "fig4_crowd_1300.svg",
                "results.json", "MEASURED.md", "report.html"} <= names
        assert len(reproduction_results["sweep_rows"]) == 5

    def test_measured_markdown_has_every_section(self, reproduction):
        headings = [line[3:] for line in
                    (reproduction / "MEASURED.md").read_text().splitlines()
                    if line.startswith("## ")]
        for section in self.SECTIONS:
            assert any(h.startswith(section) for h in headings), section


class TestAnalyze:
    def test_prints_metrics_table(self, dataset_file, capsys):
        assert main(["analyze", str(dataset_file), "--min-checkins", "30"]) == 0
        out = capsys.readouterr().out
        assert "Pi_max" in out
        assert "users analyzed" in out

    def test_no_qualifying_users(self, dataset_file, capsys):
        assert main(["analyze", str(dataset_file), "--min-checkins", "99999"]) == 1


class TestCommunities:
    def test_prints_communities(self, dataset_file, capsys):
        assert main(["communities", str(dataset_file), "--min-days", "25",
                     "--months", "2"]) == 0
        out = capsys.readouterr().out
        assert "communities over" in out


class TestPredict:
    def test_prints_comparison(self, dataset_file, capsys):
        assert main(["predict", str(dataset_file), "--min-days", "25",
                     "--months", "2"]) == 0
        out = capsys.readouterr().out
        assert "markov-1" in out
        assert "pattern-based" in out


class TestAudit:
    def test_clean_dataset_ok(self, dataset_file, capsys):
        assert main(["audit", str(dataset_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_dirty_dataset_fails(self, tmp_path, capsys):
        from datetime import datetime, timezone
        from repro.data import CheckIn, CheckInDataset, save_dataset

        bad = CheckInDataset([CheckIn(
            user_id="u", venue_id="v", category_id="", category_name="Cafe",
            lat=0.0, lon=0.0, tz_offset_min=0,
            timestamp=datetime(2099, 1, 1, tzinfo=timezone.utc),
        )])
        path = tmp_path / "bad.csv"
        save_dataset(bad, path)
        assert main(["audit", str(path)]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestMonitor:
    def test_replays_last_day(self, dataset_file, capsys):
        assert main(["monitor", str(dataset_file), "u0009",
                     "--min-support", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "replaying" in out
        assert "conformance" in out

    def test_unknown_user(self, dataset_file, capsys):
        assert main(["monitor", str(dataset_file), "nobody"]) == 2

    def test_no_patterns_exits_one(self, dataset_file, capsys):
        # An extremely high support threshold yields no patterns.
        assert main(["monitor", str(dataset_file), "u0009",
                     "--min-support", "0.999"]) == 1


class TestExportSpmf:
    def test_exports_db_and_patterns(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "u.spmf"
        assert main(["export-spmf", str(dataset_file), "u0009", str(out),
                     "--min-support", "0.4"]) == 0
        assert out.exists()
        assert (tmp_path / "u.spmf.dict").exists()
        assert (tmp_path / "u.spmf.patterns").exists()
        first = out.read_text().splitlines()[0]
        assert first.endswith("-2")

    def test_unknown_user(self, dataset_file, tmp_path):
        assert main(["export-spmf", str(dataset_file), "ghost",
                     str(tmp_path / "x.spmf")]) == 2
