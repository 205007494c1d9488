import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import evflow
from evflow.events import CameraModel
from evflow.flow import FlowField
from evflow.plots import (blur_budget_table, dump_flow_csv, flow_quiver_svg,
                          write_blur_budget)
from evflow.svgplot import _nice_ticks

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

    def test_speed_zero_keeps_inf_in_csv_and_out_of_svg(self, tmp_path):
        # at speed 0 no exposure blurs, so the ceiling is inf by design
        csv_path, svg_path = write_blur_budget([0.0, 5.0], [0.01, 0.02], CAM, tmp_path)
        assert csv_path.read_text().splitlines()[1] == "0.0,inf,inf"
        svg = svg_path.read_text()
        ET.fromstring(svg)
        assert "nan" not in svg and "inf" not in svg
        assert svg.count("<polyline") == 2


EMIT_PLOTS = """
import sys
from evflow.plots import emit_plots
from evflow.rigid import EstimateQuality
from evflow.vehicle import VelocityEstimate
quality = EstimateQuality(n_inliers=10, inlier_fraction=1.0, mean_residual=0.0)
rows = [VelocityEstimate(t_mid=t, v_lon=float(v), v_lat=0.0, omega=0.0, omega_source="flow",
                         quality=quality, valid=True) for t, v in zip((0.0, 0.033), sys.argv[2:])]
emit_plots(rows, rows, sys.argv[1])
"""


@pytest.mark.parametrize("v_lon", [
    ("1.0", "1.0000000000000004"),  # a span of two ulps: a tick step below the ulp
    ("0.0", "5e-324"),  # a span that underflows when divided into ticks
])
def test_plot_of_a_span_of_a_few_ulps_finishes(tmp_path, v_lon):
    # a new interpreter, so a tick loop that never ends fails on the timeout; such a
    # loop grows its tick list by about 50 MB/s, so the timeout is kept short
    src = str(Path(evflow.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", EMIT_PLOTS,
                    str(tmp_path), *v_lon], env=env, check=True, timeout=10)
    svg = (tmp_path / "velocity_v_lon.svg").read_text()
    ET.fromstring(svg)
    assert "nan" not in svg


@pytest.mark.parametrize("lo, hi", [(0.0, 1e-13), (5.0, 5.0 + 1e-12)])
def test_ticks_of_a_tiny_span_show_its_scale(lo, hi):
    ticks = _nice_ticks(lo, hi)
    assert len(ticks) >= 4
    assert ticks == sorted(set(ticks))
    assert lo <= ticks[0] and ticks[-1] <= hi


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
