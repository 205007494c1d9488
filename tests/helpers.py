"""Scenario and field builders that only the tests use."""

from __future__ import annotations

import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evflow.events import AccumulationConfig, CameraModel
from evflow.flow import FlowField, compute_flow, flow_pyramid
from evflow.synth import Trajectory, _render


def constant_trajectory(duration: float, v_lon: float = 0.0, v_lat: float = 0.0,
                        omega: float = 0.0) -> Trajectory:
    return Trajectory(np.array([0.0, duration]), np.array([v_lon] * 2),
                      np.array([v_lat] * 2), np.array([omega] * 2))


def logged(path: Path, fn):
    """``fn`` that also appends the calling process's id to the file ``path``
    on each call, so that a forked child's calls are counted too."""
    def wrapper(*args, **kwargs):
        with open(path, "a") as f:
            f.write(f"{os.getpid()}\n")
        return fn(*args, **kwargs)
    return wrapper


def assert_no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def render_plane(texture, pose: tuple[float, float, float], cam: CameraModel) -> np.ndarray:
    """Log-intensity image for a plane pose (x, y, yaw), meters and radians.

    The plane-to-image similarity scales by f_px / height_z, rotates by
    yaw about the principal point, and translates by (x, y) * f_px /
    height_z pixels.  Deterministic in (texture, pose).
    """
    x, y, yaw = pose
    if not all(math.isfinite(p) for p in (x, y, yaw)):
        raise ValueError("pose must be finite")
    scale = cam.f_px / cam.height_z
    return _render(texture, yaw, np.array([x * scale, y * scale]), cam)


def image_flow(prev: np.ndarray, next_: np.ndarray, levels: int = 3) -> FlowField:
    """The dense ``compute_flow`` from image ``prev`` to image ``next_``, each
    expanded into a pyramid of up to ``levels`` levels."""
    return compute_flow(flow_pyramid(prev, levels), flow_pyramid(next_, levels), 1)


def on_grid(field: FlowField, stride: int) -> FlowField:
    """The dense ``field``'s points on the ``stride`` grid."""
    grid = (slice(None, None, stride),) * 2
    return FlowField(u=field.u[grid], v=field.v[grid], valid=field.valid[grid], stride=stride)


def inject_outliers(field: FlowField, fraction: float, magnitude: float,
                    rng_seed) -> FlowField:
    """Replace a seeded random subset of valid flow vectors with uniformly
    oriented vectors of the given magnitude."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    idx = np.flatnonzero(field.valid)
    n_out = int(round(fraction * idx.size))
    u = field.u.copy()
    v = field.v.copy()
    if n_out:
        rng = np.random.default_rng(rng_seed)
        chosen = rng.choice(idx, size=n_out, replace=False)
        angles = rng.uniform(0.0, 2 * np.pi, n_out)
        u.ravel()[chosen] = magnitude * np.cos(angles)
        v.ravel()[chosen] = magnitude * np.sin(angles)
    return replace(field, u=u, v=v, valid=field.valid.copy())


def add_at_reference(events: np.ndarray, c: AccumulationConfig, t_start_us: int,
                     t_end_us: int | None) -> list[tuple]:
    """Window-by-window ``np.add.at`` counts of each polarity, not clipped:
    (t_start, t_end, pos, neg, total) per window."""
    t = [int(v) for v in events["t_us"]]
    span_end = max(max(t, default=t_start_us) + 1, t_end_us or 0)
    out = []
    start = t_start_us
    while True:
        end = start + c.window_us
        sel = np.array([start <= v < end for v in t], dtype=bool)
        grids = []
        for on in (events["p"] > 0, events["p"] < 0):
            grid = np.zeros((c.sensor_height, c.sensor_width), dtype=np.int64)
            np.add.at(grid, (events["y"][sel & on], events["x"][sel & on]), 1)
            grids.append(grid)
        out.append((start, end, *grids, int(sel.sum())))
        if end >= span_end:
            return out
        start = end
