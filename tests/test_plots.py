import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from evflow.events import CameraModel
from evflow.flow import FlowField
from evflow.plots import (blur_budget_table, dump_flow_csv, flow_quiver_svg,
                          write_blur_budget)

CAM = CameraModel(width=640, height=480, height_z=0.6, fov_alpha=math.radians(60))


class TestBlurBudget:
    def test_highway_row(self):
        rows = blur_budget_table([40.0], [0.01], CAM)
        assert rows[0]["t_exp_us_at_0.01"] == pytest.approx(173.2, abs=0.5)

    def test_budget_linearity(self):
        rows = blur_budget_table([10.0, 25.0], [0.01, 0.02], CAM)
        for row in rows:
            assert row["t_exp_us_at_0.02"] == pytest.approx(
                2 * row["t_exp_us_at_0.01"], rel=1e-12)

    def test_monotone_decreasing_in_speed(self):
        speeds = [5.0, 10.0, 20.0, 30.0, 40.0]
        rows = blur_budget_table(speeds, [0.01], CAM)
        values = [r["t_exp_us_at_0.01"] for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_files_written_and_deterministic(self, tmp_path):
        csv1, svg1 = write_blur_budget([5.0, 20.0, 40.0], [0.01, 0.02], CAM,
                                       tmp_path / "a")
        csv2, svg2 = write_blur_budget([5.0, 20.0, 40.0], [0.01, 0.02], CAM,
                                       tmp_path / "b")
        assert csv1.read_bytes() == csv2.read_bytes()
        assert svg1.read_bytes() == svg2.read_bytes()
        ET.parse(svg1)
        header = csv1.read_text().splitlines()[0]
        assert header == "v_mps,t_exp_us_at_0.01,t_exp_us_at_0.02"


class TestFlowDebugDump:
    def field(self):
        rng = np.random.default_rng(0)
        h = w = 12
        return FlowField(u=rng.standard_normal((h, w)), v=rng.standard_normal((h, w)),
                         valid=rng.random((h, w)) > 0.2)

    def test_csv_layout(self, tmp_path):
        field = self.field()
        path = tmp_path / "flow.csv"
        dump_flow_csv(field, stride=4, path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,u,v,valid"
        assert len(lines) == 1 + 9  # 3x3 stride grid
        x, y, u, v, valid = lines[1].split(",")
        assert (int(x), int(y)) == (0, 0)
        assert float(u) == field.u[0, 0]
        assert valid in ("true", "false")

    def test_quiver_svg_parses(self):
        svg = flow_quiver_svg(self.field(), stride=3)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "line" in svg
