"""Tests for the terminal plotting helpers and the sweep CLI."""

import pytest

from repro.tools.ascii_plot import line_chart, scatter


class TestScatter:
    def test_renders_all_points(self):
        out = scatter([1, 2, 3], [1.0, 2.0, 3.0])
        canvas = [l for l in out.splitlines() if l.startswith("|")]
        assert sum(l.count("o") for l in canvas) == 3
        assert "x: 1 .. 3" in out
        assert "top=3" in out

    def test_custom_marks(self):
        out = scatter([1, 2], [1.0, 2.0], marks=["*", "."])
        assert "*" in out and "." in out

    def test_flat_series(self):
        out = scatter([1, 2, 3], [5.0, 5.0, 5.0])
        canvas = [l for l in out.splitlines() if l.startswith("|")]
        assert sum(l.count("o") for l in canvas) == 3  # one row, 3 points

    def test_validation(self):
        with pytest.raises(ValueError):
            scatter([], [])
        with pytest.raises(ValueError):
            scatter([1, 2], [1.0])
        with pytest.raises(ValueError):
            scatter([1, 2], [1.0, 2.0], marks=["*"])


class TestLineChart:
    def test_multiple_series_get_distinct_glyphs(self):
        out = line_chart(
            [1, 2, 3],
            {"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]},
        )
        assert "*" in out and "#" in out
        assert "*=a" in out and "#=b" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            line_chart([1], {})
        with pytest.raises(ValueError):
            line_chart([1, 2], {"a": [1.0]})


class TestSweepCLI:
    def test_weak_sweep_prints_chart(self, capsys):
        from repro.tools import sweep

        rc = sweep.main(["weak", "perlmutter"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "weak scaling on perlmutter" in out
        assert "Pflop/s" in out
        assert "+-" in out  # the chart axis

    def test_strong_sweep(self, capsys):
        from repro.tools import sweep

        rc = sweep.main(
            ["strong", "GPT-20B", "frontier", "128,256", "--batch", "512"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "days to 2T tokens" in out
        assert "devices: 128 .. 256" in out
