"""SVG chart writer and the figure-rendering pipeline."""

import xml.etree.ElementTree as ET

import pytest

from repro.core.figures import save_figures
from repro.core.study import Study
from repro.util.svgplot import SVGChart, line_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg_text):
    return ET.fromstring(svg_text)


class TestSVGWriter:
    def test_line_chart_valid_svg(self):
        chart = line_chart(
            [0, 1, 2, 3], [0, 5, 2, 8], title="t", x_label="x", y_label="y"
        )
        root = parse(chart.render())
        assert root.tag == f"{SVG_NS}svg"
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == 1
        texts = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert "t" in texts and "x" in texts and "y" in texts

    def test_escaping(self):
        chart = line_chart([0, 1], [1, 2], title="a < b & c")
        root = parse(chart.render())  # must not raise
        texts = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert "a < b & c" in texts

    def test_multi_series_legend(self):
        chart = SVGChart(title="multi")
        chart.set_ranges([0, 10], [0, 100])
        chart.add_axes()
        chart.add_line([0, 10], [0, 100], series=0, label="one")
        chart.add_line([0, 10], [100, 0], series=1, label="two")
        root = parse(chart.render())
        assert len(root.findall(f"{SVG_NS}polyline")) == 2
        texts = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert "one" in texts and "two" in texts

    def test_validation(self):
        chart = SVGChart()
        with pytest.raises(ValueError):
            chart.set_ranges([], [])
        chart.set_ranges([0, 1], [0, 1])
        with pytest.raises(ValueError):
            chart.add_line([0, 1], [0])

    def test_save(self, tmp_path):
        path = tmp_path / "c.svg"
        line_chart([0, 1], [0, 1]).save(path)
        assert path.read_text().startswith("<svg")


class TestSaveFigures:
    def test_all_figures_written(self, tmp_path):
        study = Study(scale=0.1)
        written = save_figures(study, tmp_path)
        stems = {p.name for p in written}
        for fig in ("fig3", "fig4", "fig6", "fig7", "fig8"):
            assert f"{fig}.svg" in stems
            assert f"{fig}.csv" in stems
        # every SVG parses; every CSV has a header and rows
        for path in written:
            if path.suffix == ".svg":
                parse(path.read_text())
            else:
                lines = path.read_text().splitlines()
                assert len(lines) > 2
                assert "," in lines[0]

    def test_fig8_has_two_series(self, tmp_path):
        study = Study(scale=0.1)
        save_figures(study, tmp_path)
        root = parse((tmp_path / "fig8.svg").read_text())
        assert len(root.findall(f"{SVG_NS}polyline")) == 2
        csv = (tmp_path / "fig8.csv").read_text().splitlines()
        assert csv[0] == "block_kb,cache_mb,idle_seconds,utilization"
        assert len(csv) == 1 + 2 * 7  # two block sizes x seven cache sizes
