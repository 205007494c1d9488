"""Flat ``section.key = value`` configuration files.

One assignment per line, ``#`` starts a comment, keys carry their section
as a dotted prefix.  The same format backs run configurations (estimation)
and scenario configurations (simulation); both round-trip losslessly
through their ``to_text`` serializers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .events import AccumulationConfig, CameraModel
from .flow import FlowParams
from .rigid import AxisMapping, RansacParams
from .synth import CheckerTexture, DotTexture, NoiseTexture, SimConfig, Trajectory
from .vehicle import Extrinsics


def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


class _KV:
    """Typed accessors over a parsed key/value map, tracking consumed keys."""

    def __init__(self, data: dict[str, str], source: str):
        self.data = data
        self.source = source
        self.used: set[str] = set()

    def _raw(self, key: str, default):
        if key in self.data:
            self.used.add(key)
            return self.data[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        return default

    def get_str(self, key: str, default=None) -> str:
        return self._raw(key, default)

    def get_int(self, key: str, default=None) -> int:
        v = self._raw(key, default)
        if isinstance(v, str):
            try:
                return int(v)
            except ValueError as exc:
                raise ConfigError(f"{self.source}: key {key!r}: {exc}") from exc
        return v

    def get_float(self, key: str, default=None) -> float:
        v = self._raw(key, default)
        if isinstance(v, str):
            try:
                return float(v)
            except ValueError as exc:
                raise ConfigError(f"{self.source}: key {key!r}: {exc}") from exc
        return v

    def get_bool(self, key: str, default=None) -> bool:
        v = self._raw(key, default)
        if isinstance(v, str):
            if v.lower() not in ("true", "false"):
                raise ConfigError(f"{self.source}: key {key!r} must be true or false")
            return v.lower() == "true"
        return v

    def get_floats(self, key: str, default=None) -> list[float]:
        v = self._raw(key, default)
        if isinstance(v, str):
            try:
                return [float(p) for p in v.split(",")]
            except ValueError as exc:
                raise ConfigError(f"{self.source}: key {key!r}: {exc}") from exc
        return v

    def reject_unknown(self):
        unknown = set(self.data) - self.used
        if unknown:
            raise ConfigError(f"{self.source}: unknown keys {sorted(unknown)}")


_REQUIRED = object()


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _camera_from(kv: _KV) -> CameraModel:
    width = kv.get_int("camera.width", _REQUIRED)
    height = kv.get_int("camera.height", _REQUIRED)
    height_z = kv.get_float("camera.height_z", _REQUIRED)
    f_px = kv.get_float("camera.f_px", None)
    fov_deg = kv.get_float("camera.fov_deg", None)
    cx = kv.get_float("camera.cx", None)
    cy = kv.get_float("camera.cy", None)
    try:
        return CameraModel(width=width, height=height, height_z=height_z, f_px=f_px,
                           fov_alpha=math.radians(fov_deg) if fov_deg is not None else None,
                           cx=cx, cy=cy)
    except ValueError as exc:
        raise ConfigError(f"{kv.source}: camera: {exc}") from exc


def _camera_lines(cam: CameraModel) -> list[str]:
    return [
        f"camera.width = {cam.width}",
        f"camera.height = {cam.height}",
        f"camera.height_z = {_fmt_value(cam.height_z)}",
        f"camera.f_px = {_fmt_value(cam.f_px)}",
        f"camera.cx = {_fmt_value(cam.cx)}",
        f"camera.cy = {_fmt_value(cam.cy)}",
    ]


def _extrinsics_from(kv: _KV) -> Extrinsics:
    try:
        return Extrinsics(ca_x=kv.get_float("extrinsics.ca_x", 0.0),
                          ca_y=kv.get_float("extrinsics.ca_y", 0.0))
    except ValueError as exc:
        raise ConfigError(f"{kv.source}: extrinsics: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Everything the estimation pipeline needs for one run."""

    camera: CameraModel
    accumulation: AccumulationConfig
    flow: FlowParams
    ransac: RansacParams
    extrinsics: Extrinsics
    mapping: AxisMapping = AxisMapping()
    events_path: str = ""
    imu_path: str = ""
    out_dir: str = "out"
    stride: int = 8
    merge: str = "sum"
    omega_source: str = "flow"
    seed: int = 0

    def __post_init__(self):
        if self.omega_source not in ("flow", "imu"):
            raise ConfigError(f"omega.source must be flow or imu, got {self.omega_source!r}")
        if self.merge not in ("sum", "pos", "neg"):
            raise ConfigError(f"intensity.merge must be sum, pos or neg, got {self.merge!r}")
        if self.stride < 1:
            raise ConfigError("flow.stride must be >= 1")
        if self.omega_source == "imu" and not self.imu_path:
            raise ConfigError("omega.source = imu requires io.imu")

    @property
    def window_s(self) -> float:
        return self.accumulation.window_us * 1e-6

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "RunConfig":
        kv = _KV(parse_kv_text(text), source)
        cam = _camera_from(kv)
        try:
            acc = AccumulationConfig(
                window_us=kv.get_int("accumulation.window_us", _REQUIRED),
                sensor_width=cam.width, sensor_height=cam.height,
                count_cap=kv.get_int("accumulation.count_cap", 15))
            flow = FlowParams(
                pyramid_levels=kv.get_int("flow.pyramid_levels", 3),
                pyramid_scale=kv.get_float("flow.pyramid_scale", 0.5),
                window_size=kv.get_int("flow.window_size", 15),
                iterations=kv.get_int("flow.iterations", 3),
                poly_n=kv.get_int("flow.poly_n", 5),
                poly_sigma=kv.get_float("flow.poly_sigma", 1.1))
            ransac = RansacParams(
                iterations=kv.get_int("ransac.iterations", 16),
                inlier_threshold=kv.get_float("ransac.inlier_threshold_px", 0.5),
                min_inlier_fraction=kv.get_float("ransac.min_inlier_fraction", 0.3),
                enabled=kv.get_bool("ransac.enabled", True))
            mapping = AxisMapping(
                image_x=kv.get_str("mapping.image_x", "+x"),
                image_y=kv.get_str("mapping.image_y", "+y"),
                omega_sign=kv.get_int("mapping.omega_sign", 1))
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from exc
        cfg = cls(
            camera=cam, accumulation=acc, flow=flow, ransac=ransac,
            extrinsics=_extrinsics_from(kv), mapping=mapping,
            events_path=kv.get_str("io.events", ""),
            imu_path=kv.get_str("io.imu", ""),
            out_dir=kv.get_str("io.out_dir", "out"),
            stride=kv.get_int("flow.stride", 8),
            merge=kv.get_str("intensity.merge", "sum"),
            omega_source=kv.get_str("omega.source", "flow"),
            seed=kv.get_int("seed", 0))
        kv.reject_unknown()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        return cls.from_text(p.read_text(), source=str(p))

    def to_text(self) -> str:
        lines = []
        if self.events_path:
            lines.append(f"io.events = {self.events_path}")
        if self.imu_path:
            lines.append(f"io.imu = {self.imu_path}")
        lines.append(f"io.out_dir = {self.out_dir}")
        lines += _camera_lines(self.camera)
        lines += [
            f"accumulation.window_us = {self.accumulation.window_us}",
            f"accumulation.count_cap = {self.accumulation.count_cap}",
            f"flow.pyramid_levels = {self.flow.pyramid_levels}",
            f"flow.pyramid_scale = {_fmt_value(self.flow.pyramid_scale)}",
            f"flow.window_size = {self.flow.window_size}",
            f"flow.iterations = {self.flow.iterations}",
            f"flow.poly_n = {self.flow.poly_n}",
            f"flow.poly_sigma = {_fmt_value(self.flow.poly_sigma)}",
            f"flow.stride = {self.stride}",
            f"intensity.merge = {self.merge}",
            f"ransac.enabled = {_fmt_value(self.ransac.enabled)}",
            f"ransac.iterations = {self.ransac.iterations}",
            f"ransac.inlier_threshold_px = {_fmt_value(self.ransac.inlier_threshold)}",
            f"ransac.min_inlier_fraction = {_fmt_value(self.ransac.min_inlier_fraction)}",
            f"extrinsics.ca_x = {_fmt_value(self.extrinsics.ca_x)}",
            f"extrinsics.ca_y = {_fmt_value(self.extrinsics.ca_y)}",
            f"mapping.image_x = {self.mapping.image_x}",
            f"mapping.image_y = {self.mapping.image_y}",
            f"mapping.omega_sign = {self.mapping.omega_sign}",
            f"omega.source = {self.omega_source}",
        ]
        lines.append(f"seed = {self.seed}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Scenario:
    """A simulator run: texture, camera, trajectory and event-model knobs."""

    sim: SimConfig
    trajectory: Trajectory

    @classmethod
    def from_text(cls, text: str, source: str = "<scenario>") -> "Scenario":
        kv = _KV(parse_kv_text(text), source)
        cam = _camera_from(kv)
        kind = kv.get_str("texture.kind", _REQUIRED)
        try:
            if kind == "noise":
                texture = NoiseTexture(seed=kv.get_int("texture.seed", 0),
                                       cutoff=kv.get_float("texture.cutoff", 0.15),
                                       amplitude=kv.get_float("texture.amplitude", 0.6))
            elif kind == "checker":
                texture = CheckerTexture(period_px=kv.get_float("texture.period_px", 16.0),
                                         amplitude=kv.get_float("texture.amplitude", 1.0))
            elif kind == "dots":
                texture = DotTexture(density=kv.get_float("texture.density", 0.01),
                                     radius_px=kv.get_float("texture.radius_px", 2.5),
                                     amplitude=kv.get_float("texture.amplitude", 1.5),
                                     seed=kv.get_int("texture.seed", 0))
            else:
                raise ConfigError(f"{source}: texture.kind must be noise, checker or dots")
            duration = kv.get_float("sim.duration_s", _REQUIRED)
            t = kv.get_floats("trajectory.t_s", _REQUIRED)
            traj = Trajectory(np.array(t),
                              np.array(kv.get_floats("trajectory.v_lon", [0.0] * len(t))),
                              np.array(kv.get_floats("trajectory.v_lat", [0.0] * len(t))),
                              np.array(kv.get_floats("trajectory.omega", [0.0] * len(t))))
            sim = SimConfig(texture=texture, cam=cam, ext=_extrinsics_from(kv),
                            contrast=kv.get_float("sim.contrast", 0.2),
                            noise_rate=kv.get_float("sim.noise_rate", 0.1),
                            duration=duration,
                            time_step=kv.get_float("sim.time_step_s",
                                                   _default_step(kv, duration)),
                            seed=kv.get_int("sim.seed", 0))
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from exc
        kv.reject_unknown()
        return cls(sim=sim, trajectory=traj)

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"scenario file not found: {p}")
        return cls.from_text(p.read_text(), source=str(p))


def _default_step(kv: _KV, duration: float) -> float:
    # an eighth of the accumulation window when declared, else 1 ms
    window_us = kv.get_int("accumulation.window_us", 0)
    return window_us * 1e-6 / 8 if window_us else min(1e-3, duration / 8)
