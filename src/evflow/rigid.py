"""Planar rigid-motion estimation from point correspondences.

Solves ``argmin over rotations R and translations t of
sum_i |R p_i + t - q_i|^2`` in closed form: with H the cross-covariance of
the centroid-subtracted point sets, the optimal angle is
``atan2(H[0,1] - H[1,0], H[0,0] + H[1,1])`` (the planar case of the SVD
solution of Arun, Huang & Blostein and of Umeyama, always a proper
rotation).  A 2-point-sample RANSAC loop guards the fit against outliers,
and the pixel-space solution is converted to a metric camera velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConsensusError, InsufficientDataError
from .events import CameraModel

# Named signed-permutation maps from image axes to vehicle axes
# (x longitudinal forward, y lateral left).
AXIS_MAPPINGS = {
    "+x": np.array([1.0, 0.0]),
    "-x": np.array([-1.0, 0.0]),
    "+y": np.array([0.0, 1.0]),
    "-y": np.array([0.0, -1.0]),
}


@dataclass(frozen=True)
class AxisMapping:
    """Image-to-vehicle axis mapping plus the yaw-rate sign.

    ``image_x``/``image_y`` name the vehicle axis each image axis maps to
    ("+x", "-x", "+y", "-y"); together they must form a signed
    permutation.  ``omega_sign`` resolves the handedness of the yaw rate
    (z-up, counter-clockwise positive) for the mounting.  The identity
    mapping leaves the pixel-space solution untouched.
    """

    image_x: str = "+x"
    image_y: str = "+y"
    omega_sign: int = 1

    def __post_init__(self):
        if self.image_x not in AXIS_MAPPINGS or self.image_y not in AXIS_MAPPINGS:
            raise ValueError("axis names must be one of +x, -x, +y, -y")
        if self.image_x[1] == self.image_y[1]:
            raise ValueError("image axes must map to distinct vehicle axes")
        if self.omega_sign not in (1, -1):
            raise ValueError("omega_sign must be +1 or -1")

    @property
    def matrix(self) -> np.ndarray:
        return np.column_stack([AXIS_MAPPINGS[self.image_x], AXIS_MAPPINGS[self.image_y]])


def _rotation(theta: float) -> np.ndarray:
    """Counter-clockwise rotation matrix by ``theta`` radians."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class RigidMotion2D:
    """One frame pair's rotation (radians, counter-clockwise in image axes)
    and pixel translation, with fit metadata."""

    theta: float
    t: np.ndarray
    n_points: int
    mean_residual: float

    def __post_init__(self):
        if not -math.pi < self.theta <= math.pi:
            raise ValueError("theta must lie in (-pi, pi]")
        if self.n_points < 2:
            raise ValueError("a rigid fit needs at least 2 points")

    @property
    def rotation(self) -> np.ndarray:
        return _rotation(self.theta)


@dataclass(frozen=True)
class RansacParams:
    """RANSAC settings; ``enabled`` tells the pipeline whether to run the
    consensus loop or a plain ``estimate_rigid`` on all correspondences."""

    iterations: int = 16
    inlier_threshold: float = 0.5
    min_inlier_fraction: float = 0.3
    enabled: bool = True

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.inlier_threshold <= 0:
            raise ValueError("inlier threshold must be positive")
        if not 0.0 <= self.min_inlier_fraction <= 1.0:
            raise ValueError("min_inlier_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class EstimateQuality:
    n_inliers: int
    inlier_fraction: float
    mean_residual: float


@dataclass(frozen=True)
class CameraVelocity:
    """Metric planar velocity of the camera center in vehicle axes."""

    v: np.ndarray  # (v_lon, v_lat) in m/s
    omega: float   # rad/s, z-up counter-clockwise
    t_mid: float   # seconds
    quality: EstimateQuality

    def __post_init__(self):
        if not (np.all(np.isfinite(self.v)) and math.isfinite(self.omega)):
            raise ValueError("camera velocity components must be finite")


def estimate_rigid(p: np.ndarray, q: np.ndarray) -> RigidMotion2D:
    """Optimal rotation + translation mapping points p onto q.

    The angle comes in closed form from the cross-covariance H of the
    centered point sets, theta = atan2(H01 - H10, H00 + H11), which
    maximises trace(R H); then t = q_mean - R p_mean.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 2 or p.shape != q.shape:
        raise ValueError("expected matching (N, 2) point arrays")
    n = p.shape[0]
    if n < 2:
        raise InsufficientDataError(f"rigid fit needs >= 2 correspondences, got {n}")
    p_mean = p.mean(axis=0)
    q_mean = q.mean(axis=0)
    pc = p - p_mean
    if not np.any(np.abs(pc) > 1e-12):
        raise InsufficientDataError("all source points coincide")
    h_cov = pc.T @ (q - q_mean)
    theta = math.atan2(h_cov[0, 1] - h_cov[1, 0], h_cov[0, 0] + h_cov[1, 1])
    if theta == -math.pi:  # a half turn whose sine is -0 or rounds away
        theta = math.pi
    rot = _rotation(theta)
    t = q_mean - rot @ p_mean
    residual = float(np.mean(np.linalg.norm(p @ rot.T + t - q, axis=1)))
    return RigidMotion2D(theta=theta, t=t, n_points=n, mean_residual=residual)


def reconstruct_flow(motion: RigidMotion2D, p: np.ndarray) -> np.ndarray:
    """Predicted end points R p + t for each source point."""
    p = np.asarray(p, dtype=np.float64)
    return p @ motion.rotation.T + motion.t


def ransac_estimate(p: np.ndarray, q: np.ndarray, params: RansacParams,
                    rng_seed) -> tuple[RigidMotion2D, np.ndarray]:
    """Consensus rigid fit: 2-point hypotheses, end-point-error inliers.

    Runs ``params.iterations`` hypotheses from seeded 2-point samples,
    keeps the largest inlier set (end-point error below the threshold),
    and refits on it.  Coincident samples are redrawn up to a global cap
    of 10x the iteration count.

    Raises DegenerateConsensusError when the best inlier fraction falls
    below ``params.min_inlier_fraction``.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n = p.shape[0]
    if n < 2:
        raise InsufficientDataError(f"RANSAC needs >= 2 correspondences, got {n}")

    rng = np.random.default_rng(rng_seed)
    best_count = 0
    best_mask = None
    retries = 10 * params.iterations
    for _ in range(params.iterations):
        while True:
            i, j = rng.choice(n, size=2, replace=False)
            if np.any(p[i] != p[j]):
                break
            retries -= 1
            if retries < 0:
                raise InsufficientDataError("could not sample two distinct source points")
        try:
            hyp = estimate_rigid(p[[i, j]], q[[i, j]])
        except InsufficientDataError:
            continue
        epe = np.linalg.norm(reconstruct_flow(hyp, p) - q, axis=1)
        mask = epe < params.inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask

    if best_mask is None or best_count < 2 or best_count / n < params.min_inlier_fraction:
        raise DegenerateConsensusError(
            f"best inlier fraction {best_count / n:.3f} below "
            f"{params.min_inlier_fraction:.3f} ({best_count}/{n})")
    motion = estimate_rigid(p[best_mask], q[best_mask])
    return motion, best_mask


def to_camera_velocity(motion: RigidMotion2D, cam: CameraModel, dt: float,
                       t_mid: float = 0.0,
                       mapping: AxisMapping = AxisMapping(),
                       n_total: int | None = None) -> CameraVelocity:
    """Convert a pixel-space motion over dt seconds to metric velocity.

    Per image axis v = t * meters_per_px / dt and omega = theta / dt,
    then the configured mounting mapping carries both into vehicle axes.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    v_img = motion.t * cam.meters_per_px / dt
    omega = mapping.omega_sign * motion.theta / dt
    total = n_total if n_total is not None else motion.n_points
    quality = EstimateQuality(
        n_inliers=motion.n_points,
        inlier_fraction=motion.n_points / total if total else 0.0,
        mean_residual=motion.mean_residual,
    )
    return CameraVelocity(v=mapping.matrix @ v_img, omega=omega,
                          t_mid=t_mid, quality=quality)
