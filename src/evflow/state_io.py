"""CSV formats for IMU input and velocity output streams, read by
``event_io.read_csv`` and written by ``event_io.write_csv``.

Each header is its reader's column names (the fields of its dtype).
IMU: header ``t_us,yaw_rate_rad_s``.
Velocity (estimates and ground truth share the schema): header
``t_s,v_lon,v_lat,omega,omega_source,n_inliers,inlier_fraction,valid``.
Invalid rows, from ``VelocityEstimate.invalid``, carry zeros in the numeric
fields; readers must honor the ``valid`` flag.  Every float field must be
finite (``read_csv`` checks it); ``omega_source`` is ``flow``, ``imu`` or
``truth``, ``n_inliers`` at least 0 and ``inlier_fraction`` within [0, 1].
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .event_io import read_csv, row_error, write_csv
from .rigid import EstimateQuality
from .vehicle import ImuSeries, VelocityEstimate

_IMU_COLUMNS = np.dtype([("t_us", "i8"), ("yaw_rate_rad_s", "f8")])
_VELOCITY_COLUMNS = np.dtype([("t_s", "f8"), ("v_lon", "f8"), ("v_lat", "f8"),
                              ("omega", "f8"), ("omega_source", "O"), ("n_inliers", "i8"),
                              ("inlier_fraction", "f8"), ("valid", "O")])


def write_imu_csv(path: str | Path, imu: ImuSeries) -> None:
    write_csv(path, _IMU_COLUMNS.names, [zip(imu.t_us.tolist(), imu.yaw_rate.tolist())])


def load_imu_csv(path: str | Path) -> ImuSeries:
    rows = read_csv(path, _IMU_COLUMNS)
    t_us = rows["t_us"]
    back = np.flatnonzero(t_us[1:] < t_us[:-1])
    if back.size:
        row = int(back[0]) + 1
        raise row_error(path, row, f"has t_us {t_us[row]}, below the row before it")
    return ImuSeries(t_us, rows["yaw_rate_rad_s"])


def write_velocity_csv(path: str | Path, estimates: Iterable[VelocityEstimate]) -> None:
    """Write ``estimates`` to ``path``, each row as the iterable yields it."""
    write_csv(path, _VELOCITY_COLUMNS.names,
              ([(e.t_mid, e.v_lon, e.v_lat, e.omega, e.omega_source, e.quality.n_inliers,
                 e.quality.inlier_fraction, "true" if e.valid else "false")]
               for e in estimates))


def load_velocity_csv(path: str | Path) -> list[VelocityEstimate]:
    rows = read_csv(path, _VELOCITY_COLUMNS)
    sources = [source.strip() for source in rows["omega_source"].tolist()]
    flags = [valid.strip() for valid in rows["valid"].tolist()]
    domains = (("omega_source", sources, lambda s: s in ("flow", "imu", "truth"),
                "flow, imu or truth"),
               ("n_inliers", rows["n_inliers"].tolist(), lambda n: n >= 0, "at least 0"),
               ("inlier_fraction", rows["inlier_fraction"].tolist(), lambda f: 0 <= f <= 1,
                "within [0, 1]"),
               ("valid", flags, lambda f: f in ("true", "false"), "true or false"))
    for column, values, ok, expected in domains:
        bad = next((i for i, value in enumerate(values) if not ok(value)), None)
        if bad is not None:
            raise row_error(path, bad, f"has {column} {values[bad]!r}, expected {expected}")
    return [VelocityEstimate(t_mid=t, v_lon=v_lon, v_lat=v_lat, omega=omega,
                             omega_source=source,
                             quality=EstimateQuality(n_inliers=n, inlier_fraction=frac,
                                                     mean_residual=0.0),
                             valid=flag == "true")
            for (t, v_lon, v_lat, omega, _, n, frac, _), source, flag
            in zip(rows.tolist(), sources, flags)]
