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

from .event_io import read_csv
from .rigid import EstimateQuality
from .vehicle import ImuSeries, VelocityEstimate

IMU_HEADER = "t_us,yaw_rate_rad_s"
VELOCITY_HEADER = "t_s,v_lon,v_lat,omega,omega_source,n_inliers,inlier_fraction,valid"
_IMU_COLUMNS = np.dtype([("t_us", "i8"), ("yaw_rate", "f8")])
_VELOCITY_COLUMNS = np.dtype([("t_s", "f8"), ("v_lon", "f8"), ("v_lat", "f8"),
                              ("omega", "f8"), ("omega_source", "O"), ("n_inliers", "i8"),
                              ("inlier_fraction", "f8"), ("valid", "O")])


def write_imu_csv(path: str | Path, imu: ImuSeries) -> None:
    with open(path, "w", newline="") as f:
        f.write(IMU_HEADER + "\n")
        for t, w in zip(imu.t_us, imu.yaw_rate):
            f.write(f"{int(t)},{float(w)!r}\n")


def load_imu_csv(path: str | Path) -> ImuSeries:
    rows = read_csv(path, IMU_HEADER, _IMU_COLUMNS)
    return ImuSeries(rows["t_us"], rows["yaw_rate"])


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
    rows = read_csv(path, VELOCITY_HEADER, _VELOCITY_COLUMNS)
    return [VelocityEstimate(t_mid=t, v_lon=v_lon, v_lat=v_lat, omega=omega,
                             omega_source=source,
                             quality=EstimateQuality(n_inliers=n, inlier_fraction=frac,
                                                     mean_residual=0.0),
                             valid=valid.strip() == "true")
            for t, v_lon, v_lat, omega, source, n, frac, valid in rows.tolist()]
