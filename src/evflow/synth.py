"""Synthetic event camera over a textured moving ground plane.

The plane carries an infinite procedural texture realized on the integer
pixel lattice and sampled bilinearly.  A trajectory of planar velocities
(v_lon, v_lat, yaw rate) is integrated into a similarity transform whose
rotation acts about the principal point, log intensity is rendered per
substep, and one event is emitted per contrast-threshold crossing with a
timestamp interpolated linearly inside the substep.  The matching ground
truth is the trajectory transferred to the rear axle through
v_axle = v_camera + omega x CA.

The camera is modeled as fixed above the moving plane (the spinning-disk /
treadmill configuration), so the estimated motion equals the trajectory
under the identity axis mapping; real mountings resolve their sign
conventions in the run configuration instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .events import EVENT_DTYPE, CameraModel, make_events
from .rigid import CameraVelocity, EstimateQuality
from .vehicle import Extrinsics, VelocityEstimate, transform_to_axle

MAX_SUBSTEPS = 10 ** 6  # ceiling on duration / time_step, the simulator's loop count
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = (z + _GOLDEN).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _hash_unit(ix: np.ndarray, iy: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic uniform [0, 1) value per integer lattice cell."""
    h = _splitmix64(ix.astype(np.int64).view(np.uint64)
                    ^ _splitmix64(iy.astype(np.int64).view(np.uint64)
                                  ^ np.uint64(salt & 0xFFFFFFFFFFFFFFFF)))
    return h.astype(np.float64) / 2.0 ** 64


@dataclass(frozen=True)
class GridCoord:
    """A plane coordinate over a pixel grid, written as a per-column term
    plus a per-row term: the value at row i, column j is ``row[i] + col[j]``.

    A pixel raster under a similarity has this form, and band-limited noise
    evaluates it without forming the grid.
    """

    col: np.ndarray
    row: np.ndarray

    def full(self) -> np.ndarray:
        return self.row[:, None] + self.col[None, :]


@dataclass(frozen=True)
class NoiseTexture:
    """Band-limited noise: a seeded sum of random plane waves.

    ``cutoff`` bounds the spatial frequency in cycles per pixel, so the
    smallest features span about 1/cutoff pixels.  Being band-limited the
    texture is evaluated analytically at arbitrary coordinates (it is its
    own interpolant); ``lattice`` gives the values on integer pixels.
    """

    seed: int = 0
    cutoff: float = 0.15
    amplitude: float = 0.6
    n_waves: int = 32

    @cached_property
    def _waves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        rng = np.random.default_rng(self.seed)
        mag = 2 * math.pi * rng.uniform(0.2 * self.cutoff, self.cutoff, self.n_waves)
        ang = rng.uniform(0.0, 2 * math.pi, self.n_waves)
        phase = rng.uniform(0.0, 2 * math.pi, self.n_waves)
        amp = self.amplitude * math.sqrt(2.0 / self.n_waves)
        return mag * np.cos(ang), mag * np.sin(ang), phase, amp

    def values(self, tx, ty) -> np.ndarray:
        """Texture at points (arrays of one shape) or on a grid (both
        ``GridCoord``), in float64.

        A wave's phase is a column term plus a row term (a point is a column
        with a zero row term), so the sum of cosines is the real part of one
        rank-``n_waves`` contraction of per-column factors
        exp(i(kx x_col + ky y_col)) with per-row factors
        amp exp(i(kx x_row + ky y_row + phase)).  On a grid it runs as one
        matrix product.
        """
        kx, ky, phase, amp = self._waves
        if isinstance(tx, GridCoord):
            x_col, y_col = tx.col, ty.col
            x_row, y_row = tx.row[:, None], ty.row[:, None]
        else:
            x_col = np.asarray(tx, dtype=np.float64)
            y_col = np.asarray(ty, dtype=np.float64)
            x_row = y_row = np.zeros(())
        col = np.exp(1j * (x_col[..., None] * kx + y_col[..., None] * ky))
        row = amp * np.exp(1j * (x_row[..., None] * kx + y_row[..., None] * ky + phase))
        return np.einsum("...k,...k->...", col, row, optimize=True).real.copy()

    def lattice(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        return self.values(ix, iy)


@dataclass(frozen=True)
class CheckerTexture:
    period_px: float = 16.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.period_px > 0:
            raise ValueError("checker period must be positive")

    def lattice(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        par = np.floor(ix / self.period_px) + np.floor(iy / self.period_px)
        return self.amplitude * (np.asarray(par, dtype=np.int64) % 2).astype(np.float64)

    def values(self, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
        return _bilinear_lattice(self, tx, ty)


@dataclass(frozen=True)
class DotTexture:
    """Jittered-grid dot field: one cone-profile dot per grid cell.

    ``density`` is dots per square pixel; the implied cell pitch is
    1/sqrt(density) pixels.  Dot centers stay in the middle half of their
    cell and the radius is capped at a quarter pitch, so any query point
    is covered by at most the four cells around it.
    """

    density: float = 0.01
    radius_px: float = 2.5
    amplitude: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if not self.density > 0:
            raise ValueError("dot density must be positive")
        if self.radius_px > 0.25 * self.cell_px:
            raise ValueError("dot radius must not exceed a quarter of the cell pitch")

    @property
    def cell_px(self) -> float:
        return 1.0 / math.sqrt(self.density)

    def lattice(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        s = self.cell_px
        r = self.radius_px
        x = np.asarray(ix, dtype=np.float64)
        y = np.asarray(iy, dtype=np.float64)
        cxa = np.floor((x - r) / s).astype(np.int64)
        cxb = np.floor((x + r) / s).astype(np.int64)
        cya = np.floor((y - r) / s).astype(np.int64)
        cyb = np.floor((y + r) / s).astype(np.int64)
        # the four cells around each point; each cell's dot center is hashed once
        nx = np.stack([cxa, cxb, cxa, cxb])
        ny = np.stack([cya, cya, cyb, cyb])
        salt_x, salt_y = self.seed * 2 + 1, self.seed * 2 + 2
        dot_x = _box_gather(lambda cx, cy: (cx + (0.25 + 0.5 * _hash_unit(cx, cy, salt_x))) * s,
                            nx, ny)
        dot_y = _box_gather(lambda cx, cy: (cy + (0.25 + 0.5 * _hash_unit(cx, cy, salt_y))) * s,
                            nx, ny)
        value = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.float64)
        for cx, cy in zip(dot_x, dot_y):
            np.maximum(value, 1.0 - np.hypot(x - cx, y - cy) / r, out=value)
        return self.amplitude * np.maximum(value, 0.0)

    def values(self, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
        return _bilinear_lattice(self, tx, ty)


def _box_gather(fn, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """``fn(ix, iy)`` for a function ``fn`` applied elementwise to integer
    points given as arrays that broadcast together.

    ``fn`` runs once on the integer box the points span, given as a row of
    x values and a column of y values, and its values are gathered per
    point, so a point repeated (or shared with a neighbour's corner) costs
    one evaluation.  When the box holds more cells than there are points,
    as for scattered points, ``fn`` runs on the points instead.
    """
    n_points = np.broadcast(ix, iy).size
    if n_points == 0:
        return fn(ix, iy)
    x_lo, y_lo = int(ix.min()), int(iy.min())
    nx, ny = int(ix.max()) - x_lo + 1, int(iy.max()) - y_lo + 1
    if nx * ny > n_points:
        return fn(ix, iy)
    box = fn(np.arange(x_lo, x_lo + nx)[None, :], np.arange(y_lo, y_lo + ny)[:, None])
    return box.ravel().take((iy - y_lo) * nx + (ix - x_lo))


def _bilinear_lattice(texture, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    x0 = np.floor(tx).astype(np.int64)
    y0 = np.floor(ty).astype(np.int64)
    fx = tx - x0
    fy = ty - y0
    v00, v01, v10, v11 = _box_gather(texture.lattice, np.stack([x0, x0 + 1, x0, x0 + 1]),
                                     np.stack([y0, y0, y0 + 1, y0 + 1]))
    return (v00 * (1 - fx) * (1 - fy) + v01 * fx * (1 - fy)
            + v10 * (1 - fx) * fy + v11 * fx * fy)


def sample_texture(texture, tx, ty) -> np.ndarray:
    """Texture value at arbitrary plane coordinates (pixel units).

    ``tx`` and ``ty`` are arrays of one shape, or both ``GridCoord`` for a
    pixel grid.  Discontinuous textures are realized on the integer lattice
    and sampled bilinearly; band-limited noise is evaluated analytically.
    """
    if isinstance(texture, NoiseTexture):
        return texture.values(tx, ty)
    if isinstance(tx, GridCoord):
        tx, ty = tx.full(), ty.full()
    return texture.values(np.asarray(tx, dtype=np.float64), np.asarray(ty, dtype=np.float64))


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear planar velocity profile of the camera point."""

    t_s: np.ndarray
    v_lon: np.ndarray
    v_lat: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        for name in ("t_s", "v_lon", "v_lat", "omega"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not (self.t_s.shape == self.v_lon.shape == self.v_lat.shape == self.omega.shape):
            raise ValueError("trajectory channels must have matching lengths")
        if self.t_s.size < 1:
            raise ValueError("trajectory needs at least one sample")
        if np.any(np.diff(self.t_s) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        for name in ("t_s", "v_lon", "v_lat", "omega"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"trajectory {name} must be finite")

    @classmethod
    def constant(cls, duration: float, v_lon: float = 0.0, v_lat: float = 0.0,
                 omega: float = 0.0) -> "Trajectory":
        return cls(np.array([0.0, duration]), np.array([v_lon] * 2),
                   np.array([v_lat] * 2), np.array([omega] * 2))

    def check_covers(self, duration: float) -> None:
        """Raise ValueError unless the samples span [0, duration]."""
        if self.t_s[0] > 0 or self.t_s[-1] < duration:
            raise ValueError(
                f"trajectory [{self.t_s[0]}, {self.t_s[-1]}] does not cover [0, {duration}]")

    def at(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=np.float64)
        return (np.interp(t, self.t_s, self.v_lon),
                np.interp(t, self.t_s, self.v_lat),
                np.interp(t, self.t_s, self.omega))

    def reversed(self) -> "Trajectory":
        """Velocity profile retracing the motion backwards in time."""
        end = self.t_s[-1]
        return Trajectory(end - self.t_s[::-1], -self.v_lon[::-1],
                          -self.v_lat[::-1], -self.omega[::-1])


@dataclass(frozen=True)
class SimConfig:
    """One simulator run.  ``duration / time_step``, the number of rendered
    substeps, may not exceed ``MAX_SUBSTEPS``."""

    texture: object
    cam: CameraModel
    ext: Extrinsics = Extrinsics()
    contrast: float = 0.2
    noise_rate: float = 0.1
    duration: float = 1.0
    time_step: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.contrast <= 0:
            raise ValueError("contrast threshold must be positive")
        if self.noise_rate < 0:
            raise ValueError("noise rate must be non-negative")
        if self.duration <= 0 or self.time_step <= 0:
            raise ValueError("duration and time_step must be positive")
        if not self.duration / self.time_step <= MAX_SUBSTEPS:
            raise ValueError(f"duration / time_step must be at most {MAX_SUBSTEPS} substeps")


def _render(texture, psi: float, c_px: np.ndarray, cam: CameraModel) -> np.ndarray:
    """Log intensity under the texture-to-image similarity (rotation psi
    about the principal point, translation c_px pixels)."""
    u = np.arange(cam.width, dtype=np.float64) - cam.cx - c_px[0]
    v = np.arange(cam.height, dtype=np.float64) - cam.cy - c_px[1]
    c, s = math.cos(psi), math.sin(psi)
    # tx = c u + s v and ty = -s u + c v: a column term plus a row term each
    return sample_texture(texture, GridCoord(c * u, s * v), GridCoord(-s * u, c * v))


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


@dataclass(frozen=True)
class SimState:
    """Resumable simulator state: plane transform plus the per-pixel
    threshold-ladder anchor, so chained runs continue one event stream."""

    psi: float
    c_px: np.ndarray
    anchor: np.ndarray


def _twist_increment(v_lon: float, v_lat: float, omega: float, scale: float,
                     h: float) -> tuple[float, float, float]:
    """Exact rigid increment for constant (v, omega) over h seconds.

    Uses the SE(2) exponential so that negating the velocities yields the
    exact inverse increment; trajectory reversal then retraces the same
    plane transforms.
    """
    theta = omega * h
    if abs(theta) < 1e-9:
        a = 1.0 - theta * theta / 6.0
        b = 0.5 * theta - theta ** 3 / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta
    vx = v_lon * scale * h
    vy = v_lat * scale * h
    return theta, a * vx - b * vy, b * vx + a * vy


def _axle_truth(traj: Trajectory, ext: Extrinsics, t: np.ndarray) -> list[VelocityEstimate]:
    v_lon, v_lat, omega = traj.at(t)
    quality = EstimateQuality(n_inliers=0, inlier_fraction=1.0, mean_residual=0.0)
    return [transform_to_axle(CameraVelocity(v=np.array([vl, vt]), omega=float(om),
                                             t_mid=float(ti), quality=quality),
                              ext, omega_source="truth")
            for ti, vl, vt, om in zip(t, v_lon, v_lat, omega)]


def _time_order(t_us: np.ndarray) -> np.ndarray:
    """``np.argsort(t_us, kind="stable")`` for one substep's timestamps.

    Offsets inside a substep shorter than 65.536 ms fit 16 bits, and numpy
    sorts 16-bit keys stably by radix.
    """
    t_lo = t_us.min()
    span = t_us.max() - t_lo
    return np.argsort((t_us - t_lo).astype(np.uint16 if span < 1 << 16 else np.int64),
                      kind="stable")


def generate_events(cfg: SimConfig, traj: Trajectory,
                    initial_state: SimState | None = None
                    ) -> tuple[np.ndarray, list[VelocityEstimate], SimState]:
    """Simulate the event stream and its axle-frame ground truth.

    Per substep and pixel, one event is emitted for every contrast level
    (ladder anchor plus an integer multiple of the threshold) the pixel
    crosses, with polarity matching the direction and the timestamp
    interpolated linearly within the substep; spurious Poisson events are
    appended at ``noise_rate`` per pixel per second.  Returns the event
    array, ground truth sampled at substep boundaries, and the final
    simulator state so runs can be chained.
    """
    traj.check_covers(cfg.duration)
    cam = cfg.cam
    scale = cam.f_px / cam.height_z
    n_sub = max(1, math.ceil(cfg.duration / cfg.time_step))
    h = cfg.duration / n_sub

    if initial_state is None:
        psi, c_px = 0.0, np.zeros(2)
        level_prev = _render(cfg.texture, psi, c_px, cam)
        anchor = level_prev.copy()
    else:
        psi = float(initial_state.psi)
        c_px = np.asarray(initial_state.c_px, dtype=np.float64).copy()
        anchor = initial_state.anchor.copy()
        level_prev = _render(cfg.texture, psi, c_px, cam)
    rng = np.random.default_rng(cfg.seed)
    # Threshold lines sit at anchor + (j - 1/2) * C so a fresh pixel starts
    # centered in band 0; the first crossing in either direction needs a
    # half-threshold traversal, every further one a full threshold.
    band_prev = np.floor((level_prev - anchor) / cfg.contrast + 0.5).astype(np.int64)

    t_last_us = round(cfg.duration * 1e6) - 1
    chunks = []
    expected_noise = cfg.noise_rate * h * cam.width * cam.height
    for k in range(n_sub):
        t0 = k * h
        v_lon, v_lat, omega = traj.at(t0 + 0.5 * h)
        dtheta, ux, uy = _twist_increment(float(v_lon), float(v_lat), float(omega), scale, h)
        cr, sr = math.cos(dtheta), math.sin(dtheta)
        c_px = np.array([cr * c_px[0] - sr * c_px[1] + ux,
                         sr * c_px[0] + cr * c_px[1] + uy])
        psi += dtheta
        level_new = _render(cfg.texture, psi, c_px, cam)
        band_new = np.floor((level_new - anchor) / cfg.contrast + 0.5).astype(np.int64)
        diff = band_new - band_prev

        # the pixels that cross a level, in raster order
        idx = np.flatnonzero(diff)
        n_cross = diff.ravel()[idx]
        band0 = band_prev.ravel()[idx]
        anchor_px = anchor.ravel()[idx]
        level0 = level_prev.ravel()[idx]
        rise = level_new.ravel()[idx] - level0
        ys_px, xs_px = (a.astype(np.uint16) for a in np.divmod(idx, cam.width))
        # emitted per level, then rising before falling, then in raster order:
        # the stable time sort below keeps that order among equal timestamps
        ts, xs, ys, ps = [], [], [], []
        for i in range(1, int(np.abs(n_cross).max(initial=0)) + 1):
            for sign in (1, -1):
                sel = np.flatnonzero(n_cross >= i if sign > 0 else n_cross <= -i)
                if not sel.size:
                    continue
                level_idx = band0[sel] + (i if sign > 0 else 1 - i)
                target = anchor_px[sel] + (level_idx - 0.5) * cfg.contrast
                frac = (target - level0[sel]) / rise[sel]
                ts.append((t0 + np.clip(frac, 0.0, 1.0) * h) * 1e6)
                xs.append(xs_px[sel])
                ys.append(ys_px[sel])
                ps.append(np.full(sel.size, sign, dtype=np.int8))
        if cfg.noise_rate > 0:
            n_noise = int(rng.poisson(expected_noise))
            if n_noise:
                ts.append((t0 + rng.random(n_noise) * h) * 1e6)
                xs.append(rng.integers(0, cam.width, n_noise).astype(np.uint16))
                ys.append(rng.integers(0, cam.height, n_noise).astype(np.uint16))
                ps.append(rng.choice(np.array([-1, 1], dtype=np.int8), n_noise))
        if ts:
            t_us = np.floor(np.concatenate(ts) + 0.5).astype(np.int64)
            # keep boundary-rounded timestamps inside the simulated span
            np.clip(t_us, 0, t_last_us, out=t_us)
            order = _time_order(t_us)
            chunks.append(make_events(t_us[order].astype(np.uint64),
                                      np.concatenate(xs)[order],
                                      np.concatenate(ys)[order], np.concatenate(ps)[order]))
        level_prev = level_new
        band_prev = band_new

    events = np.concatenate(chunks) if chunks else np.empty(0, dtype=EVENT_DTYPE)
    truth = _axle_truth(traj, cfg.ext, np.arange(n_sub + 1) * h)
    return events, truth, SimState(psi=psi, c_px=c_px, anchor=anchor)
