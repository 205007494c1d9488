"""Planar rigid-motion estimation from point correspondences.

Solves ``argmin over rotations R and translations t of
sum_i |R p_i + t - q_i|^2`` in closed form: with H the cross-covariance of
the centroid-subtracted point sets, the optimal angle is
``atan2(H[0,1] - H[1,0], H[0,0] + H[1,1])`` (the planar case of the SVD
solution of Arun, Huang & Blostein and of Umeyama, always a proper
rotation).  A 2-point-sample RANSAC loop, its settings fixed below, guards
the fit against outliers, and the pixel-space solution is converted to a
metric camera velocity.

The module runs no matrix product: each entry of H is a correctly rounded
sum (``math.fsum``), points turn by the angle elementwise (``_turn``), and
the axis mapping moves each component by index and sign.  So a fit's bytes
do not depend on the BLAS kernel or its thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConsensusError, InsufficientDataError
from .events import CameraModel

RANSAC_ITERATIONS = 16  # 2-point hypotheses per fit
INLIER_THRESHOLD_PX = 0.5  # end-point error below which a correspondence is an inlier
MIN_INLIER_FRACTION = 0.3  # a consensus smaller than this share of the points fails

# Each name an image axis may map to: the vehicle axis (0 x longitudinal
# forward, 1 y lateral left) and the sign it takes.
AXIS_MAPPINGS = {"+x": (0, 1.0), "-x": (0, -1.0), "+y": (1, 1.0), "-y": (1, -1.0)}


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


def _turn(theta: float, p: np.ndarray) -> np.ndarray:
    """R p for the point ``p`` (shape (2,)) or each row of ``p`` (shape
    (N, 2)), R the counter-clockwise rotation by ``theta`` radians."""
    c, s = math.cos(theta), math.sin(theta)
    x, y = p[..., 0], p[..., 1]
    return np.array([c * x - s * y, s * x + c * y]).T


@dataclass(frozen=True)
class RigidMotion2D:
    """One frame pair's rotation (radians in (-pi, pi], counter-clockwise in
    image axes) and pixel translation, with fit metadata: the fit's point
    count, at least 2, and its mean end-point error."""

    theta: float
    t: np.ndarray
    n_points: int
    mean_residual: float


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
    maximises trace(R H); then t = q_mean - R p_mean.  Each entry of H is
    the correctly rounded sum of its N products.  ``p`` and ``q`` are
    ``subsample_flow``'s matching float64 (N, 2) arrays, or RANSAC's rows
    of them.
    """
    n = p.shape[0]
    if n < 2:
        raise InsufficientDataError(f"rigid fit needs >= 2 correspondences, got {n}")
    p_mean = p.mean(axis=0)
    q_mean = q.mean(axis=0)
    pc = p - p_mean
    if not np.any(np.abs(pc) > 1e-12):
        raise InsufficientDataError("all source points coincide")
    products = pc[:, :, None] * (q - q_mean)[:, None, :]  # pc[:, i] * qc[:, j]
    h00, h01, h10, h11 = map(math.fsum, products.reshape(n, 4).T.tolist())
    theta = math.atan2(h01 - h10, h00 + h11)
    if theta == -math.pi:  # a half turn whose sine is -0 or rounds away
        theta = math.pi
    t = q_mean - _turn(theta, p_mean)
    residual = float(np.mean(np.linalg.norm(_turn(theta, p) + t - q, axis=1)))
    return RigidMotion2D(theta=theta, t=t, n_points=n, mean_residual=residual)


def reconstruct_flow(motion: RigidMotion2D, p: np.ndarray) -> np.ndarray:
    """Predicted end points R p + t for each source point of the float64
    (N, 2) array ``p``."""
    return _turn(motion.theta, p) + motion.t


def ransac_estimate(p: np.ndarray, q: np.ndarray, rng_seed) -> tuple[RigidMotion2D, np.ndarray]:
    """Consensus rigid fit: 2-point hypotheses, end-point-error inliers.

    Runs ``RANSAC_ITERATIONS`` hypotheses from seeded 2-point samples,
    keeps the largest inlier set (end-point error below
    ``INLIER_THRESHOLD_PX``), and refits on it.  Coincident samples are
    redrawn up to a global cap of 10x the iteration count.

    ``p`` and ``q`` are ``subsample_flow``'s matching float64 (N, 2)
    arrays.  Raises DegenerateConsensusError when the best inlier fraction
    falls below ``MIN_INLIER_FRACTION``.
    """
    n = p.shape[0]
    if n < 2:
        raise InsufficientDataError(f"RANSAC needs >= 2 correspondences, got {n}")

    rng = np.random.default_rng(rng_seed)
    best_count = 0
    best_mask = None
    retries = 10 * RANSAC_ITERATIONS
    for _ in range(RANSAC_ITERATIONS):
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
        mask = epe < INLIER_THRESHOLD_PX
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask

    if best_mask is None or best_count < 2 or best_count / n < MIN_INLIER_FRACTION:
        raise DegenerateConsensusError(
            f"best inlier fraction {best_count / n:.3f} below "
            f"{MIN_INLIER_FRACTION:.3f} ({best_count}/{n})")
    motion = estimate_rigid(p[best_mask], q[best_mask])
    return motion, best_mask


def to_camera_velocity(motion: RigidMotion2D, cam: CameraModel, dt: float, t_mid: float,
                       mapping: AxisMapping, n_total: int) -> CameraVelocity:
    """Convert a pixel-space motion over dt seconds to metric velocity.

    Per image axis v = t * meters_per_px / dt and omega = theta / dt,
    then the configured mounting mapping moves each component of v to its
    vehicle axis, with its sign, and signs omega.
    ``motion`` was fitted to ``n_total`` correspondences, at least one.
    ``dt`` is the accumulation window, which ``AccumulationConfig`` keeps > 0.
    """
    v = np.empty(2)
    for name, value in zip((mapping.image_x, mapping.image_y), motion.t * cam.meters_per_px / dt):
        axis, sign = AXIS_MAPPINGS[name]
        v[axis] = sign * value
    omega = mapping.omega_sign * motion.theta / dt
    quality = EstimateQuality(n_inliers=motion.n_points, inlier_fraction=motion.n_points / n_total,
                              mean_residual=motion.mean_residual)
    return CameraVelocity(v=v, omega=omega, t_mid=t_mid, quality=quality)
