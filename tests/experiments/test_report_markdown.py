"""Tests for the measured-results markdown renderer."""

import json

import pytest

from repro.experiments.report_markdown import main, render_measured_markdown


@pytest.fixture
def results():
    """A ``results.json`` with a few families, in run_all's key layout."""
    return {
        "dataset_stats": [["check-ins", "227,799"], ["users", "1,083"]],
        "sweep_rows": [
            {"min_support": 0.25, "mean_sequences_per_user": 67.9, "mean_avg_length": 1.81},
            {"min_support": 0.5, "mean_sequences_per_user": 5.9, "mean_avg_length": 1.08},
            {"min_support": 0.75, "mean_sequences_per_user": 0.2, "mean_avg_length": 1.0},
        ],
        "crowd_views": [["09:00-10:00", 29, 25]],
        "crowd_shift": [1.0],
        "ground_truth": [
            {"min_support": 0.25, "mean_recall": 1.0, "mean_precision": 1.0},
        ],
        "ablations": {
            "abstraction": [
                {"knob": "abstraction", "setting": "root",
                 "mean_sequences_per_user": 13.4, "mean_avg_length": 1.2},
            ],
            "cell_size": [
                {"knob": "cell_size_m", "setting": "250m", "users_placed": 29.0,
                 "occupied_cells": 8.0},
            ],
        },
        "claims": {"fig5_sequences_fall_steeply": True, "injected_event_detected": False},
    }


class TestRenderer:
    def test_all_sections_present(self, results):
        text = render_measured_markdown(results)
        assert "## Table-D" in text
        assert "## Figs. 5 and 7" in text
        assert "## Figs. 3–4" in text
        assert "## Ground-truth pattern recovery" in text
        assert "## Ablation — abstraction" in text
        assert "## Ablation — cell size" in text
        assert "## Paper claims" in text
        assert "| 227,799 |" in text
        assert "| injected_event_detected | the injected festival is detected as a spike | NO |" in text

    def test_missing_sections_skipped(self):
        text = render_measured_markdown({})
        assert text.startswith("# Measured results")
        assert "## Figs. 5 and 7" not in text

    def test_table_shapes(self, results):
        text = render_measured_markdown(results)
        sweep_lines = [l for l in text.splitlines() if l.startswith("| 0.")]
        assert len(sweep_lines) == 3 + 1  # three sweep rows, one ground-truth row
        assert sweep_lines[0].count("|") == 4  # 3 cells -> 4 pipe characters
        # A crowd-only ablation row has crowd columns and no mining ones.
        cell_header = next(l for l in text.splitlines() if "users_placed" in l)
        assert "mean_sequences_per_user" not in cell_header

    def test_main_writes_file(self, results, tmp_path, capsys):
        src = tmp_path / "results.json"
        src.write_text(json.dumps(results))
        out = tmp_path / "out.md"
        assert main(["--results", str(src), "--out", str(out)]) == 0
        assert out.read_text().startswith("# Measured results")

    def test_main_prints_to_stdout(self, results, tmp_path, capsys, monkeypatch):
        (tmp_path / "results.json").write_text(json.dumps(results))
        monkeypatch.chdir(tmp_path)  # the default input is ./results.json
        assert main([]) == 0
        assert "# Measured results" in capsys.readouterr().out
