"""The benchmark's workloads: simulator scenarios, run configs and accuracy truth.

Each workload is a scenario the program's own simulator turns into an
event stream, plus the run config `evflow estimate` reads.  The benchmark
seed only picks the simulator's noise-event draw (``sim.seed``): texture,
trajectory and camera stay those of the acceptance criterion each workload
is built from, so the criterion's accuracy bound still applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear velocity knots, as the scenario file states them."""

    t_s: tuple[float, ...]
    v_lon: tuple[float, ...]
    v_lat: tuple[float, ...]
    omega: tuple[float, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    camera: str                # camera.* lines shared by scenario and run config
    texture: str               # texture.* lines
    window_us: int
    windows: int               # stream length in accumulation windows
    trajectory: Trajectory
    ca_x: float
    events_file: str           # the extension picks the format: .evt or .csv
    estimate: str              # run-config lines beyond camera and window
    measured: str              # the command timed per rep: "estimate" or "simulate"
    accuracy: str              # "v_lon": criterion 4's E%; "omega": criterion 3
    err_limit_pct: float       # the criterion's acceptance bound

    @property
    def duration_s(self) -> float:
        return self.windows * self.window_us / 1e6

    @property
    def size(self) -> tuple[int, int]:
        keys = dict(line.split(" = ") for line in self.camera.splitlines())
        return int(keys["camera.width"]), int(keys["camera.height"])

    def scenario_text(self, seed: int) -> str:
        tr = self.trajectory
        lines = [
            self.camera, self.texture,
            # sets the simulator step to an eighth of the window, as the criteria do
            f"accumulation.window_us = {self.window_us}",
            f"sim.duration_s = {self.duration_s!r}",
            "sim.noise_rate = 0.1",
            f"sim.seed = {seed}",
            "trajectory.t_s = " + ",".join(map(repr, tr.t_s)),
            "trajectory.v_lon = " + ",".join(map(repr, tr.v_lon)),
            "trajectory.v_lat = " + ",".join(map(repr, tr.v_lat)),
            "trajectory.omega = " + ",".join(map(repr, tr.omega)),
            f"extrinsics.ca_x = {self.ca_x!r}",
        ]
        return "\n".join(lines) + "\n"

    def run_config_text(self) -> str:
        lines = [self.camera, f"accumulation.window_us = {self.window_us}",
                 self.estimate, f"extrinsics.ca_x = {self.ca_x!r}", "seed = 7"]
        return "\n".join(lines) + "\n"

    def truth(self, t_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Axle-frame (v_lon, omega) at ``t_s`` straight from the trajectory.

        With ``ca_y = 0`` the axle transfer leaves v_lon unchanged, so the
        camera trajectory is the axle truth.
        """
        tr = self.trajectory
        return np.interp(t_s, tr.t_s, tr.v_lon), np.interp(t_s, tr.t_s, tr.omega)

    def error_pct(self, t_s: np.ndarray, v_lon: np.ndarray, omega: np.ndarray) -> float:
        """The criterion's accuracy figure over the valid estimate rows."""
        v_true, w_true = self.truth(t_s)
        if self.accuracy == "v_lon":
            rmse = float(np.sqrt(np.mean((v_lon - v_true) ** 2)))
            return rmse / float(np.mean(np.abs(v_true))) * 100.0
        w_ref = float(w_true[0])
        return abs(float(np.mean(omega)) - w_ref) / w_ref * 100.0


_DRIVE_CAMERA = "\n".join([
    "camera.width = 346", "camera.height = 260",
    "camera.height_z = 1.2", "camera.fov_deg = 90.0"])
_DRIVE_TEXTURE = "texture.kind = noise\ntexture.seed = 31"
# criterion 4: 0.5-2.5 m/s with turning segments
_DRIVE_TRAJECTORY = Trajectory(
    t_s=(0.0, 1.155, 2.31, 3.465, 4.62),
    v_lon=(0.5, 2.5, 1.0, 2.2, 0.9),
    v_lat=(0.0, 0.2, -0.1, 0.15, 0.0),
    omega=(0.0, 0.5, -0.4, 0.3, 0.0))
_DRIVE_ESTIMATE = "flow.pyramid_levels = 4\nflow.stride = 8\nransac.enabled = false"

WORKLOADS = {w.name: w for w in (
    Workload(
        name="drive_dense",
        why="dense 346x260 driving stream (~460k events per window) read from "
            "EVT1: binary load and accumulation carry weight next to flow",
        camera=_DRIVE_CAMERA, texture=_DRIVE_TEXTURE,
        window_us=33_000, windows=16, trajectory=_DRIVE_TRAJECTORY, ca_x=0.25,
        events_file="events.evt", estimate=_DRIVE_ESTIMATE,
        measured="estimate", accuracy="v_lon", err_limit_pct=3.0),
    Workload(
        name="disk_sparse",
        why="sparse 160x120 spinning disk (~14k events per window) read from "
            "CSV: many small pairs where CSV parsing, RANSAC and flow dominate",
        camera="\n".join(["camera.width = 160", "camera.height = 120",
                          "camera.height_z = 0.5", "camera.f_px = 100.0"]),
        texture="\n".join(["texture.kind = dots", "texture.density = 0.01",
                           "texture.radius_px = 2.5", "texture.seed = 21"]),
        window_us=1_000, windows=24,
        trajectory=Trajectory(t_s=(0.0, 0.024), v_lon=(0.0, 0.0),
                              v_lat=(0.0, 0.0), omega=(37.70, 37.70)),
        ca_x=0.0, events_file="events.csv",
        estimate="flow.pyramid_levels = 3\nflow.stride = 4\nransac.enabled = true",
        measured="estimate", accuracy="omega", err_limit_pct=1.0),
    Workload(
        name="sim_drive",
        why="evflow simulate alone on the driving scenario: texture evaluation "
            "and event generation; the estimator runs once, untimed, as a check",
        camera=_DRIVE_CAMERA, texture=_DRIVE_TEXTURE,
        window_us=33_000, windows=16, trajectory=_DRIVE_TRAJECTORY, ca_x=0.25,
        events_file="events.evt", estimate=_DRIVE_ESTIMATE,
        measured="simulate", accuracy="v_lon", err_limit_pct=3.0),
)}
