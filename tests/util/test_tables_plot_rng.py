"""Tables, ASCII plots and deterministic RNG derivation."""

import numpy as np
import pytest

from repro.util.asciiplot import ascii_bar_plot, ascii_line_plot, sparkline
from repro.util.rng import derive_rng, derive_seed
from repro.util.tables import TextTable, format_si


class TestTables:
    def test_render_alignment(self):
        t = TextTable(["app", "MB/s"], title="Table 1")
        t.add_row(["venus", 44.1])
        t.add_row(["gcm", 0.14])
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "Table 1"
        assert "venus" in out and "44.1" in out
        # all body lines same width
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_row_length_checked(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_format_si(self):
        assert format_si(0) == "0"
        assert format_si(1234567) == "1,234,567"
        assert format_si(44.1) == "44.1"
        assert format_si(0.016) == "0.016"
        assert format_si(1234.5) == "1,234"


class TestAsciiPlot:
    def test_sparkline_preserves_peak(self):
        values = [0.0] * 100
        values[50] = 10.0
        line = sparkline(values, width=20)
        assert len(line) == 20
        assert "@" in line  # peak level survives downsampling

    def test_sparkline_empty_and_flat(self):
        assert sparkline([]) == ""
        assert set(sparkline([0, 0, 0])) == {" "}

    def test_line_plot_structure(self):
        out = ascii_line_plot([0, 1, 2, 3], [0, 5, 1, 3], width=20, height=5, title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert "peak=5" in lines[1]
        assert any("*" in line for line in lines)

    def test_line_plot_validates(self):
        with pytest.raises(ValueError):
            ascii_line_plot([0, 1], [1], width=10, height=3)
        assert ascii_line_plot([], []) == "(empty plot)"

    def test_bar_plot(self):
        out = ascii_bar_plot(["a", "bb"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[0].endswith("1")
        assert lines[1].count("#") == 10

    def test_bar_plot_validates(self):
        with pytest.raises(ValueError):
            ascii_bar_plot(["a"], [1.0, 2.0])
        assert ascii_bar_plot([], []) == "(empty plot)"


class TestRng:
    def test_derive_seed_stable_and_distinct(self):
        s1 = derive_seed(1, "venus/0")
        s2 = derive_seed(1, "venus/1")
        s3 = derive_seed(2, "venus/0")
        assert s1 == derive_seed(1, "venus/0")
        assert len({s1, s2, s3}) == 3

    def test_derive_rng_streams_differ(self):
        a = derive_rng(7, "x").random(4)
        b = derive_rng(7, "y").random(4)
        assert not np.array_equal(a, b)
