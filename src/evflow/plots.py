"""File emitters for inspection artifacts: velocity overlays, residual
histograms, flow dumps, and the exposure-budget table."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .event_io import write_csv
from .evaluate import CHANNELS, _pair_series, _valid_series
from .events import CameraModel, max_exposure_for_blur
from .flow import FlowField
from .svgplot import histogram, line_chart
from .vehicle import VelocityEstimate

CHANNEL_FILES = {
    "v_lon": ("velocity_v_lon.svg", "residual_v_lon.svg", "m/s"),
    "v_lat": ("velocity_v_lat.svg", "residual_v_lat.svg", "m/s"),
    "omega": ("velocity_omega.svg", "residual_omega.svg", "rad/s"),
}

EST_COLOR = "#2c7fb8"
TRUTH_COLOR = "#c0392b"


def emit_plots(estimates: list[VelocityEstimate], truth: list[VelocityEstimate],
               out_dir: str | Path) -> list[Path]:
    """One estimate-vs-truth time series and one residual histogram per
    channel; six SVG files with fixed names, byte-deterministic.  Rows of
    either stream marked invalid are left out; each is drawn in time order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    est_t, est_values = _valid_series(estimates)
    truth_t, truth_values = _valid_series(truth)
    valid = est_t.size > 0
    written = []
    for c, chan in enumerate(CHANNELS):
        series_name, resid_name, unit = CHANNEL_FILES[chan]
        est_v, truth_v = est_values[:, c], truth_values[:, c]
        note = "" if valid else "no valid estimates"
        series = [("truth", TRUTH_COLOR, truth_t, truth_v)]
        if valid:
            series.append(("estimate", EST_COLOR, est_t, est_v))
        svg = line_chart(f"{chan} over time", "t [s]", f"{chan} [{unit}]",
                         series, annotation=note)
        path = out / series_name
        path.write_text(svg)
        written.append(path)

        if valid and truth_t.size:
            nearest, _ = _pair_series(est_t, truth_t, np.inf)
            residuals = est_v - truth_v[nearest]
        else:
            residuals = np.array([])
        svg = histogram(f"{chan} residual", f"error [{unit}]", residuals,
                        annotation=note)
        path = out / resid_name
        path.write_text(svg)
        written.append(path)
    return written


def dump_flow_csv(field: FlowField, path: str | Path) -> None:
    """Debug dump: one row per stride-grid pixel, ``x,y,u,v,valid``."""
    y, x = np.indices(field.u.shape) * field.stride
    valid = np.where(field.valid, "true", "false")
    write_csv(path, ("x", "y", "u", "v", "valid"),
              [zip(*(a.ravel().tolist() for a in (x, y, field.u, field.v, valid)))])


def _budget_columns(budgets: list[float]) -> list[str]:
    """The exposure column's name for each blur budget."""
    names = [f"t_exp_us_at_{b:g}" for b in budgets]
    for i, name in enumerate(names):  # a column named twice holds only its last budget
        if name in names[:i]:
            raise ValueError(f"budgets {budgets[names.index(name)]!r} and {budgets[i]!r} "
                             f"share the column {name}")
    return names


def blur_budget_table(speeds: list[float], budgets: list[float],
                      cam: CameraModel) -> list[dict]:
    names = _budget_columns(budgets)
    return [{"v_mps": v, **{name: max_exposure_for_blur(b, v, cam) * 1e6
                            for name, b in zip(names, budgets)}} for v in speeds]


def write_blur_budget(speeds: list[float], budgets: list[float], cam: CameraModel,
                      out_dir: str | Path) -> tuple[Path, Path]:
    """Exposure ceilings against speed for each blur budget, CSV + SVG."""
    names = _budget_columns(budgets)
    rows = blur_budget_table(speeds, budgets, cam)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "blur_budget.csv"
    write_csv(csv_path, ["v_mps", *names], [map(dict.values, rows)])

    palette = ["#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e"]
    xs = np.array(speeds, dtype=np.float64)
    series = []
    for i, (b, name) in enumerate(zip(budgets, names)):
        ys = np.array([row[name] for row in rows])
        series.append((f"{b * 100:g}% blur", palette[i % len(palette)], xs, ys))
    svg_path = out / "blur_budget.svg"
    svg_path.write_text(line_chart("maximum exposure vs speed", "v [m/s]",
                                   "t_exp [us]", series))
    return csv_path, svg_path
