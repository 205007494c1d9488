"""CSV formats for IMU input and velocity output streams.

IMU: header ``t_us,yaw_rate_rad_s``.
Velocity (estimates and ground truth share the schema): header
``t_s,v_lon,v_lat,omega,omega_source,n_inliers,inlier_fraction,valid``.
Invalid rows carry zeros in the numeric fields; readers must honor the
``valid`` flag.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InputFormatError
from .rigid import EstimateQuality
from .vehicle import ImuSeries, VelocityEstimate

IMU_HEADER = "t_us,yaw_rate_rad_s"
VELOCITY_HEADER = "t_s,v_lon,v_lat,omega,omega_source,n_inliers,inlier_fraction,valid"


def _open_input(path: str | Path, kind: str):
    try:
        return open(path, "r")
    except OSError as exc:
        raise InputFormatError(f"cannot read {kind} CSV {path}: {exc.strerror}") from exc


def write_imu_csv(path: str | Path, imu: ImuSeries) -> None:
    with open(path, "w", newline="") as f:
        f.write(IMU_HEADER + "\n")
        for t, w in zip(imu.t_us, imu.yaw_rate):
            f.write(f"{int(t)},{float(w)!r}\n")


def load_imu_csv(path: str | Path) -> ImuSeries:
    with _open_input(path, "IMU") as f:
        header = f.readline().strip()
        if header != IMU_HEADER:
            raise InputFormatError(f"bad IMU CSV header {header!r}; expected {IMU_HEADER!r}")
        ts, ws = [], []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise InputFormatError(f"IMU CSV line {lineno}: expected 2 fields")
            try:
                ts.append(int(parts[0]))
                ws.append(float(parts[1]))
            except ValueError as exc:
                raise InputFormatError(f"IMU CSV line {lineno}: {exc}") from exc
    return ImuSeries(np.array(ts, dtype=np.int64), np.array(ws))


def _fmt(x: float) -> str:
    # repr round-trips doubles exactly and keeps reruns byte-identical
    return repr(float(x))


def write_velocity_csv(path: str | Path, estimates: list[VelocityEstimate]) -> None:
    with open(path, "w", newline="") as f:
        f.write(VELOCITY_HEADER + "\n")
        for e in estimates:
            if e.valid:
                fields = [_fmt(e.t_mid), _fmt(e.v_lon), _fmt(e.v_lat), _fmt(e.omega),
                          e.omega_source, str(e.quality.n_inliers),
                          _fmt(e.quality.inlier_fraction), "true"]
            else:
                fields = [_fmt(e.t_mid), "0.0", "0.0", "0.0", e.omega_source,
                          "0", "0.0", "false"]
            f.write(",".join(fields) + "\n")


def load_velocity_csv(path: str | Path) -> list[VelocityEstimate]:
    out = []
    with _open_input(path, "velocity") as f:
        header = f.readline().strip()
        if header != VELOCITY_HEADER:
            raise InputFormatError(
                f"bad velocity CSV header {header!r}; expected {VELOCITY_HEADER!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise InputFormatError(f"velocity CSV line {lineno}: expected 8 fields")
            try:
                quality = EstimateQuality(n_inliers=int(parts[5]),
                                          inlier_fraction=float(parts[6]),
                                          mean_residual=0.0)
                out.append(VelocityEstimate(
                    t_mid=float(parts[0]), v_lon=float(parts[1]),
                    v_lat=float(parts[2]), omega=float(parts[3]),
                    omega_source=parts[4], quality=quality,
                    valid=parts[7] == "true"))
            except ValueError as exc:
                raise InputFormatError(f"velocity CSV line {lineno}: {exc}") from exc
    return out
