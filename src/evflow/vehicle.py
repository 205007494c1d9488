"""Transfer of camera-center velocity to the rear axle and IMU yaw substitution.

The planar rigid-body relation v_axle = v_camera + omega x CA (omega taken
as the z-axis angular velocity, CA the camera-to-axle offset in the
vehicle frame) moves the estimate to the rear axle.  Optionally the
flow-derived yaw rate is replaced by an interpolated IMU measurement
before the transfer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rigid import CameraVelocity, EstimateQuality


@dataclass(frozen=True)
class Extrinsics:
    """Camera center to rear-axle center, meters, vehicle frame
    (x longitudinal forward, y lateral left)."""

    ca_x: float = 0.0
    ca_y: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.ca_x) and math.isfinite(self.ca_y)):
            raise ValueError("extrinsics must be finite")
        if math.hypot(self.ca_x, self.ca_y) >= 10.0:
            raise ValueError("camera-to-axle offset beyond 10 m fails the sanity bound")


@dataclass(frozen=True)
class VelocityEstimate:
    """Axle-frame velocity sample; an invalid one, from ``invalid``, holds
    zeros in every number."""

    t_mid: float
    v_lon: float
    v_lat: float
    omega: float
    omega_source: str
    quality: EstimateQuality
    valid: bool = True
    reason: str = ""

    @classmethod
    def invalid(cls, t_mid: float, reason: str, omega_source: str) -> "VelocityEstimate":
        """The row of a pair the chain could not estimate, and why."""
        return cls(t_mid=t_mid, v_lon=0.0, v_lat=0.0, omega=0.0, omega_source=omega_source,
                   quality=EstimateQuality(n_inliers=0, inlier_fraction=0.0, mean_residual=0.0),
                   valid=False, reason=reason)


@dataclass(frozen=True, eq=False)
class ImuSeries:
    """Time-sorted yaw-rate samples with interpolating lookup.

    The series keeps read-only copies of its sample arrays, so it never
    changes once built and its caller's arrays stay writable.  ``t_us`` and
    ``yaw_rate`` are matching 1-d sequences (two columns of one file, or of
    one truth list) in time order, which ``state_io.load_imu_csv`` checks.
    """

    t_us: np.ndarray
    yaw_rate: np.ndarray

    def __post_init__(self):
        for name, dtype in (("t_us", np.int64), ("yaw_rate", np.float64)):
            samples = np.array(getattr(self, name), dtype=dtype)
            samples.setflags(write=False)
            object.__setattr__(self, name, samples)

    def yaw_at(self, t_s: float, staleness_s: float) -> float | None:
        """Yaw rate at ``t_s``: linear interpolation between the bracketing
        samples, nearest-sample hold at the stream edges.

        Returns None when the nearest sample is further than
        ``staleness_s`` away, inside a gap between samples too.
        """
        if self.t_us.size == 0:
            return None
        t_query = t_s * 1e6
        hi = int(np.searchsorted(self.t_us, t_query))
        # past an edge both bracketing samples are the edge sample
        lo, hi = max(hi - 1, 0), min(hi, self.t_us.size - 1)
        t0, t1 = float(self.t_us[lo]), float(self.t_us[hi])
        if min(abs(t_query - t0), abs(t1 - t_query)) > staleness_s * 1e6:
            return None
        w0, w1 = float(self.yaw_rate[lo]), float(self.yaw_rate[hi])
        if t1 == t0:
            return w1
        frac = (t_query - t0) / (t1 - t0)
        return w0 + frac * (w1 - w0)


def transform_to_axle(cv: CameraVelocity, ext: Extrinsics,
                      omega_source: str = "flow") -> VelocityEstimate:
    """Apply v_axle = v_camera + omega x CA.

    With omega about z the cross product contributes
    omega * (-ca_y, ca_x), so a purely longitudinal offset (ca_y = 0)
    leaves the longitudinal component untouched for any yaw rate.
    """
    v_lon = cv.v[0] + cv.omega * (-ext.ca_y)
    v_lat = cv.v[1] + cv.omega * ext.ca_x
    return VelocityEstimate(t_mid=cv.t_mid, v_lon=float(v_lon), v_lat=float(v_lat),
                            omega=cv.omega, omega_source=omega_source,
                            quality=cv.quality, valid=True)


def substitute_imu_yaw(cv: CameraVelocity, imu: ImuSeries, ext: Extrinsics,
                       staleness_s: float) -> VelocityEstimate:
    """Transfer to the axle with the yaw rate taken from the IMU stream.

    The IMU samples bracketing ``cv.t_mid`` are linearly interpolated; if
    the nearest sample is staler than ``staleness_s`` the estimate is
    returned as the invalid row ``imu_stale`` instead of raising.
    """
    yaw = imu.yaw_at(cv.t_mid, staleness_s)
    if yaw is None:
        return VelocityEstimate.invalid(cv.t_mid, "imu_stale", "imu")
    swapped = CameraVelocity(v=cv.v, omega=float(yaw), t_mid=cv.t_mid, quality=cv.quality)
    return transform_to_axle(swapped, ext, omega_source="imu")
