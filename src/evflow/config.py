"""Flat ``section.key = value`` configuration files.

One assignment per line, ``#`` starts a comment, keys carry their section
as a dotted prefix.  Run configurations (estimation) and scenarios
(simulation) are only read, never written.  Each key is declared once, in
a table mapping it to the dataclass field it sets and its value's parser;
an absent key keeps the field's default.  Floats must be finite and seeds
non-negative.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .events import AccumulationConfig, CameraModel
from .rigid import AxisMapping
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


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("must be true or false")
    return text.lower() == "true"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _floats(text: str) -> list[float]:
    return [_finite(part) for part in text.split(",")]


def parse_seed(text: str) -> int:
    """A random seed: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")
    return value


# config key -> (dataclass field, parser of its value)
CAMERA = {
    "camera.width": ("width", int),
    "camera.height": ("height", int),
    "camera.height_z": ("height_z", _finite),
    "camera.f_px": ("f_px", _finite),
    "camera.cx": ("cx", _finite),
    "camera.cy": ("cy", _finite),
    "camera.fov_deg": ("fov_alpha", lambda text: math.radians(_finite(text))),
}
_WINDOW_US = "accumulation.window_us"  # a scenario reads it for its default time step
ACCUMULATION = {  # a scenario's window is held to AccumulationConfig's bounds too
    _WINDOW_US: ("window_us", lambda text: AccumulationConfig(int(text), 1, 1).window_us),
    "accumulation.count_cap": ("count_cap", int)}
EXTRINSICS = {"extrinsics.ca_x": ("ca_x", _finite), "extrinsics.ca_y": ("ca_y", _finite)}
MAPPING = {
    "mapping.image_x": ("image_x", str),
    "mapping.image_y": ("image_y", str),
    "mapping.omega_sign": ("omega_sign", int),
}
RUN = {
    "io.events": ("events_path", str),
    "io.imu": ("imu_path", str),
    "io.out_dir": ("out_dir", str),
    "flow.pyramid_levels": ("pyramid_levels", int),
    "flow.stride": ("stride", int),
    "ransac.enabled": ("ransac", _bool),
    "omega.source": ("omega_source", str),
    "seed": ("seed", parse_seed),
}
# a texture kind accepts the rows whose field it has
TEXTURE = {
    "texture.seed": ("seed", parse_seed),
    "texture.cutoff": ("cutoff", _finite),
    "texture.amplitude": ("amplitude", _finite),
    "texture.period_px": ("period_px", _finite),
    "texture.density": ("density", _finite),
    "texture.radius_px": ("radius_px", _finite),
}
TEXTURE_KINDS = {"noise": NoiseTexture, "checker": CheckerTexture, "dots": DotTexture}
SIM = {
    "sim.contrast": ("contrast", _finite),
    "sim.noise_rate": ("noise_rate", _finite),
    "sim.seed": ("seed", parse_seed),
}


_REQUIRED = object()


@dataclass
class _KV:
    """Parsed key/value map of one file; ``take`` removes the keys it reads."""

    data: dict[str, str]
    source: str

    def take(self, key: str, parse, default=_REQUIRED):
        if key not in self.data:
            if default is _REQUIRED:
                raise ConfigError(f"{self.source}: missing required key {key!r}")
            return default
        try:
            return parse(self.data.pop(key))
        except ValueError as exc:
            raise ConfigError(f"{self.source}: key {key!r}: {exc}") from exc

    def build(self, cls, table: dict, **given):
        """``cls(**given)`` plus the table's fields; a field without a default needs its key."""
        required = {f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING}
        values = {name: self.take(key, parse) for key, (name, parse) in table.items()
                  if key in self.data or name in required}
        return cls(**given, **values)


class _KeyFile:
    """``from_text`` and ``from_file`` over a class's ``_from_kv``."""

    @classmethod
    def from_text(cls, text: str, source: str = "<config>"):
        kv = _KV(parse_kv_text(text), source)
        try:
            parsed = cls._from_kv(kv)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{source}: {exc}") from exc
        if kv.data:
            raise ConfigError(f"{source}: unknown keys {sorted(kv.data)}")
        return parsed

    @classmethod
    def from_file(cls, path: str | Path):
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        return cls.from_text(text, source=str(path))


@dataclass(frozen=True)
class RunConfig(_KeyFile):
    """Everything the estimation pipeline needs for one run.

    ``pyramid_levels`` caps the flow pyramid's depth and ``stride`` spaces
    the correspondence grid; ``ransac`` chooses the consensus fit
    (``rigid.ransac_estimate``) over one plain fit on every correspondence.
    The flow and RANSAC constants are fixed in ``flow`` and ``rigid``.
    """

    camera: CameraModel
    accumulation: AccumulationConfig
    extrinsics: Extrinsics
    mapping: AxisMapping = AxisMapping()
    events_path: str = ""
    imu_path: str = ""
    out_dir: str = "out"
    pyramid_levels: int = 3
    stride: int = 8
    ransac: bool = True
    omega_source: str = "flow"
    seed: int = 0

    def __post_init__(self):
        if self.omega_source not in ("flow", "imu"):
            raise ValueError(f"omega.source must be flow or imu, got {self.omega_source!r}")
        if self.pyramid_levels < 1:
            raise ValueError("flow.pyramid_levels must be >= 1")
        if self.stride < 1:
            raise ValueError("flow.stride must be >= 1")
        if min(self.camera.width, self.camera.height) < 2:
            raise ValueError("flow needs a camera at least 2 px on a side")
        if self.omega_source == "imu" and not self.imu_path:
            raise ValueError("omega.source = imu requires io.imu")
        # a valid flow is finite float32 and the centred points lie below 2**16
        # px, so a fitted shift is below 2**129 px; its velocity must be finite
        bound_m = 2.0**129 * self.camera.meters_per_px
        if not (math.isfinite(bound_m) and math.isfinite(bound_m / self.window_s)):
            raise ValueError("camera.height_z / camera.f_px (or camera.fov_deg) over "
                             "accumulation.window_us overflows the velocity of a 2**129 px "
                             "shift")

    @property
    def window_s(self) -> float:
        return self.accumulation.window_us * 1e-6

    @classmethod
    def _from_kv(cls, kv: _KV) -> "RunConfig":
        cam = kv.build(CameraModel, CAMERA)
        return kv.build(
            cls, RUN, camera=cam,
            accumulation=kv.build(AccumulationConfig, ACCUMULATION,
                                  sensor_width=cam.width, sensor_height=cam.height),
            extrinsics=kv.build(Extrinsics, EXTRINSICS), mapping=kv.build(AxisMapping, MAPPING))


@dataclass(frozen=True)
class Scenario(_KeyFile):
    """A simulator run: texture, camera, trajectory and event-model knobs."""

    sim: SimConfig
    trajectory: Trajectory

    @classmethod
    def _from_kv(cls, kv: _KV) -> "Scenario":
        kind = kv.take("texture.kind", str)
        if kind not in TEXTURE_KINDS:
            raise ConfigError(f"{kv.source}: texture.kind must be noise, checker or dots")
        names = {f.name for f in fields(TEXTURE_KINDS[kind])}
        texture = kv.build(TEXTURE_KINDS[kind],
                           {key: row for key, row in TEXTURE.items() if row[0] in names})
        duration = kv.take("sim.duration_s", _finite)
        # an eighth of the accumulation window when declared, else 1 ms
        window_us = kv.take(_WINDOW_US, ACCUMULATION[_WINDOW_US][1], 0)
        default_step = window_us * 1e-6 / 8 if window_us else min(1e-3, duration / 8)
        t = kv.take("trajectory.t_s", _floats)
        trajectory = Trajectory(t, *(kv.take(key, _floats, [0.0] * len(t)) for key in (
            "trajectory.v_lon", "trajectory.v_lat", "trajectory.omega")))
        if trajectory.t_s[0] > 0 or trajectory.t_s[-1] < duration:
            raise ValueError(f"trajectory [{trajectory.t_s[0]}, {trajectory.t_s[-1]}] "
                             f"does not cover [0, {duration}]")
        sim = kv.build(SimConfig, SIM, texture=texture, cam=kv.build(CameraModel, CAMERA),
                       ext=kv.build(Extrinsics, EXTRINSICS), duration=duration,
                       time_step=kv.take("sim.time_step_s", _finite, default_step))
        return cls(sim=sim, trajectory=trajectory)
