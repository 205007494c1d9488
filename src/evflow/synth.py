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
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import parallel
from .events import EVENT_DTYPE, CameraModel, make_events
from .rigid import CameraVelocity, EstimateQuality
from .vehicle import Extrinsics, VelocityEstimate, transform_to_axle

MAX_SUBSTEPS = 10 ** 6  # ceiling on duration / time_step, the simulator's loop count
MAX_CROSSINGS = 1000  # ceiling on the contrast levels one pixel crosses in one substep
MAX_NOISE_RATE = 1e6  # noise events per pixel per second: one per timestamp tick
N_WAVES = 32  # plane waves summed by NoiseTexture
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
    own interpolant).
    """

    seed: int = 0
    cutoff: float = 0.15
    amplitude: float = 0.6

    def __post_init__(self):
        if not 0 < self.cutoff <= 0.5:
            raise ValueError("noise cutoff must lie in (0, 0.5] cycles per pixel")

    @cached_property
    def _waves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        rng = np.random.default_rng(self.seed)
        mag = 2 * math.pi * rng.uniform(0.2 * self.cutoff, self.cutoff, N_WAVES)
        ang = rng.uniform(0.0, 2 * math.pi, N_WAVES)
        phase = rng.uniform(0.0, 2 * math.pi, N_WAVES)
        amp = self.amplitude * math.sqrt(2.0 / N_WAVES)
        return mag * np.cos(ang), mag * np.sin(ang), phase, amp

    def values(self, tx: GridCoord, ty: GridCoord) -> np.ndarray:
        """Texture on the grid of ``tx`` and ``ty``, in float64.

        A wave's phase is a column term plus a row term, so the sum of cosines
        is the real part of one matrix product, over the waves, of per-column
        factors exp(i(kx x_col + ky y_col)) and per-row factors
        amp exp(i(kx x_row + ky y_row + phase)).
        """
        kx, ky, phase, amp = self._waves
        # A render's texture outlives its temporaries, so it is allocated
        # before them: they are then freed from the top of the simulator
        # process's heap, which glibc trims, not left as holes below it.
        # Allocated after them, this array and _bands' raised the peak RSS
        # of simulating the benchmark's sim_drive scenario by about 0.7 MB.
        texture = np.empty((tx.row.size, tx.col.size))
        col = np.exp(1j * (tx.col[:, None] * kx + ty.col[:, None] * ky))
        row = amp * np.exp(1j * (tx.row[:, None, None] * kx + ty.row[:, None, None] * ky + phase))
        texture[...] = np.einsum("...k,...k->...", col, row, optimize=True).real
        return texture


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
        if not 0 < self.radius_px <= 0.25 * self.cell_px:
            raise ValueError("dot radius must be > 0 and at most a quarter of the cell pitch")

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
        dot_x = LatticeBox(lambda cx, cy: (cx + (0.25 + 0.5 * _hash_unit(cx, cy, salt_x))) * s
                           ).gather(nx, ny)[0]
        dot_y = LatticeBox(lambda cx, cy: (cy + (0.25 + 0.5 * _hash_unit(cx, cy, salt_y))) * s
                           ).gather(nx, ny)[0]
        value = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.float64)
        for cx, cy in zip(dot_x, dot_y):
            np.maximum(value, 1.0 - np.hypot(x - cx, y - cy) / r, out=value)
        return self.amplitude * np.maximum(value, 0.0)


class LatticeBox:
    """Values of an elementwise function ``fn`` of integer points over an
    integer rectangle, kept so that later gathers inside it evaluate nothing.

    A simulator run keeps one for a lattice texture.  A gather whose
    rectangle it does not hold refills it around that rectangle with a
    margin of half the rectangle's extent on each side: the box holds at
    most 4 times the cells of the largest rectangle gathered in the run,
    however long the run or its path.
    """

    def __init__(self, fn):
        self.fn = fn
        self.x_lo = self.y_lo = 0
        self.values = np.zeros((0, 0))

    def fill(self, x_lo: int, y_lo: int, nx: int, ny: int) -> None:
        """Evaluate float64-valued ``fn`` on the ``nx`` by ``ny`` rectangle at
        (``x_lo``, ``y_lo``), a quarter of its rows at a time, which bounds
        ``fn``'s temporaries by those of one gathered rectangle."""
        self.x_lo, self.y_lo = x_lo, y_lo
        self.values = np.empty((ny, nx))
        xs, ys = np.arange(x_lo, x_lo + nx)[None, :], np.arange(y_lo, y_lo + ny)[:, None]
        rows = max(1, ny // 4)
        for r in range(0, ny, rows):
            self.values[r:r + rows] = self.fn(xs, ys[r:r + rows])

    def gather(self, ix: np.ndarray, iy: np.ndarray, reach: int = 0) -> list[np.ndarray]:
        """``fn(ix + a, iy + b)`` for b and then a in 0..``reach``, one array
        each, for integer points given as arrays that broadcast together.

        The values are taken from the box, refilled unless it holds the
        rectangle from the smallest point to ``reach`` cells past the largest,
        so a point repeated or shared by two offsets costs one evaluation.
        When that rectangle holds more cells than there are values, as for
        scattered points, ``fn`` runs on the points instead.
        """
        offsets = [(a, b) for b in range(reach + 1) for a in range(reach + 1)]
        x_lo, y_lo = int(ix.min()), int(iy.min())
        nx, ny = int(ix.max()) - x_lo + 1 + reach, int(iy.max()) - y_lo + 1 + reach
        if nx * ny > len(offsets) * np.broadcast(ix, iy).size:
            return list(self.fn(np.stack([ix + a for a, _ in offsets]),
                                np.stack([iy + b for _, b in offsets])))
        rows, cols = self.values.shape
        if not (self.x_lo <= x_lo and x_lo + nx <= self.x_lo + cols
                and self.y_lo <= y_lo and y_lo + ny <= self.y_lo + rows):
            self.fill(x_lo - nx // 2, y_lo - ny // 2, 2 * nx, 2 * ny)
        flat, cols = self.values.ravel(), self.values.shape[1]
        i = (iy - self.y_lo) * cols + (ix - self.x_lo)
        return [flat[b * cols + a:].take(i) for a, b in offsets]


def _bilinear_lattice(box: LatticeBox, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """Bilinear samples of the lattice function of ``box``."""
    x0 = np.floor(tx).astype(np.int64)
    y0 = np.floor(ty).astype(np.int64)
    fx = tx - x0
    fy = ty - y0
    v00, v01, v10, v11 = box.gather(x0, y0, reach=1)
    return (v00 * (1 - fx) * (1 - fy) + v01 * fx * (1 - fy)
            + v10 * (1 - fx) * fy + v11 * fx * fy)


def sample_texture(texture, tx: GridCoord, ty: GridCoord,
                   box: LatticeBox | None = None) -> np.ndarray:
    """Texture value on the grid of plane coordinates ``tx`` and ``ty``
    (pixel units); scattered points are a grid of one zero row.

    Discontinuous textures are realized on the integer lattice and sampled
    bilinearly from ``box``, a fresh one when none is given; band-limited
    noise is evaluated analytically.
    """
    if isinstance(texture, NoiseTexture):
        return texture.values(tx, ty)
    return _bilinear_lattice(box or LatticeBox(texture.lattice), tx.full(), ty.full())


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

    def at(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=np.float64)
        return (np.interp(t, self.t_s, self.v_lon),
                np.interp(t, self.t_s, self.v_lat),
                np.interp(t, self.t_s, self.omega))


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
        if not 0 <= self.noise_rate <= MAX_NOISE_RATE:
            raise ValueError(f"noise rate must lie in [0, {MAX_NOISE_RATE:g}] per pixel per second")
        if self.duration < 1e-6 or self.time_step <= 0:
            raise ValueError("duration must be at least 1 us (one timestamp tick) "
                             "and time_step positive")
        if not self.duration / self.time_step <= MAX_SUBSTEPS:
            raise ValueError(f"duration / time_step must be at most {MAX_SUBSTEPS} substeps")


def _render(texture, psi: float, c_px: np.ndarray, cam: CameraModel,
            box: LatticeBox | None = None) -> np.ndarray:
    """Log intensity under the texture-to-image similarity (rotation psi
    about the principal point, translation c_px pixels), a lattice
    texture's values gathered from ``box`` when given."""
    u = np.arange(cam.width, dtype=np.float64) - cam.cx - c_px[0]
    v = np.arange(cam.height, dtype=np.float64) - cam.cy - c_px[1]
    c, s = math.cos(psi), math.sin(psi)
    # tx = c u + s v and ty = -s u + c v: a column term plus a row term each
    return sample_texture(texture, GridCoord(c * u, s * v), GridCoord(-s * u, c * v), box)


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


def _time_order(t_us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``order = np.argsort(t_us, kind="stable")`` for one substep's
    non-negative int64 timestamps, and ``t_us[order]`` as uint64.

    Offset and record index form one unique key, ``(offset << b) | index``
    with ``b`` bits for the index: sorting it keeps equal timestamps in
    record order, its low bits are the order and its high bits the sorted
    offsets.  The key is uint32 when it fits, which sorts about twice as
    fast as the stable argsort; the argsort remains for keys past 64 bits.
    """
    t_lo = t_us.min()
    b = (t_us.size - 1).bit_length()
    bits = int(t_us.max() - t_lo).bit_length() + b
    if bits > 64:
        order = np.argsort(t_us, kind="stable")
        return order, t_us[order].view(np.uint64)
    key = np.empty(t_us.size, np.uint32 if bits <= 32 else np.uint64)
    np.subtract(t_us, t_lo, out=key, casting="unsafe")
    key <<= b
    key |= np.arange(key.size, dtype=key.dtype)
    key.sort()
    order = (key & ((1 << b) - 1)).astype(np.intp)
    key >>= b
    return order, np.add(key, t_lo.astype(np.uint64), dtype=np.uint64)


def _bands(level: np.ndarray, anchor: np.ndarray, contrast: float) -> np.ndarray:
    """The threshold band each pixel's log intensity ``level`` lies in."""
    # allocated before its float temporary, which it outlives: see NoiseTexture.values
    band = np.empty(level.shape, np.int64)
    scaled = level - anchor
    scaled /= contrast
    scaled += 0.5
    band[...] = np.floor(scaled, out=scaled)
    return band


def _crossings(level_prev: np.ndarray, band_prev: np.ndarray, level_new: np.ndarray,
               band_new: np.ndarray, anchor: np.ndarray, contrast: float, t0: float,
               h: float, raster: tuple[np.ndarray, np.ndarray],
               noise: tuple[np.ndarray, ...] | None) -> list[np.ndarray]:
    """The events of a substep from ``t0`` to ``t0 + h`` seconds, as columns
    [timestamp in float us, x, y, polarity]: the contrast-level crossings per
    level, then rising before falling, then in raster order, and last the
    substep's ``noise`` events (the same four columns), if any.

    ``raster`` holds each pixel's x and y by its raster index.  Only the
    crossing pixels' indices and level counts are kept for the whole frame;
    each level's part gathers its own pixels' values into its place in the
    columns, which are allocated once.
    """
    level_prev, band_prev, level_new, band_new, anchor = (
        a.ravel() for a in (level_prev, band_prev, level_new, band_new, anchor))
    # the rising and the falling pixels in raster order, with the levels each
    # crosses; each level keeps those that reach it
    sides = []
    for crosses in (band_new > band_prev, band_new < band_prev):
        px = np.flatnonzero(crosses)
        sides.append([px, np.abs(band_new[px] - band_prev[px])])
    crossed = max(int(n.max(initial=0)) for _, n in sides)
    if crossed > MAX_CROSSINGS:
        raise ValueError(f"a pixel crosses {crossed} contrast levels in one substep, "
                         f"more than {MAX_CROSSINGS}: shorten the time step or raise "
                         "the contrast")
    size = sum(int(n.sum()) for _, n in sides) + (0 if noise is None else noise[0].size)
    columns = [np.empty(size), np.empty(size, np.uint16), np.empty(size, np.uint16),
               np.empty(size, np.int8)]
    t, x, y, p = columns
    at = 0
    for i in range(1, crossed + 1):
        for side, sign in zip(sides, (1, -1)):
            if i > 1:
                reach = side[1] >= i
                side[:] = side[0][reach], side[1][reach]
            px = side[0]
            if not px.size:
                continue
            part = slice(at, at + px.size)
            at += px.size
            # the timestamp (t0 + clip(frac, 0, 1) h) 1e6 at the fraction
            # frac = (target - level0) / (level_new - level0) of the substep
            # where the level reaches target = anchor + (band + j - 1/2) C,
            # j = i rising and 1 - i falling, computed in place in that order
            band = band_prev[px]
            band += i if sign > 0 else 1 - i
            frac = np.subtract(band, 0.5, out=t[part])
            frac *= contrast
            frac += anchor[px]
            level0 = level_prev[px]
            frac -= level0
            rise = level_new[px]
            rise -= level0
            frac /= rise
            np.clip(frac, 0.0, 1.0, out=frac)
            frac *= h
            frac += t0
            frac *= 1e6
            raster[0].take(px, out=x[part])
            raster[1].take(px, out=y[part])
            p[part] = sign
    if noise is not None:
        for column, drawn in zip(columns, noise):
            column[at:] = drawn
    return columns


def _sorted_records(columns: list[np.ndarray], t_last_us: int) -> np.ndarray:
    """One substep's records from its [timestamp in float us, x, y,
    polarity] ``columns``, which it empties, rounded to whole microseconds
    up to ``t_last_us`` and sorted by time; equal timestamps keep the
    columns' order."""
    t, x, y, p = columns
    columns.clear()
    t += 0.5
    t_us = np.floor(t, out=t).astype(np.int64)
    del t  # freed before the sort's temporaries exist
    # keep boundary-rounded timestamps inside the simulated span
    np.clip(t_us, 0, t_last_us, out=t_us)
    order, t_us = _time_order(t_us)
    return make_events(t_us, x[order], y[order], p[order])


def _put(buffer: np.ndarray, n: int, records: np.ndarray) -> None:
    """``buffer[n:n + records.size] = records`` for contiguous ``EVENT_DTYPE``
    arrays, copied as bytes: numpy copies packed structured records field by
    field, over ten times slower."""
    width = EVENT_DTYPE.itemsize
    buffer.view(np.uint8)[n * width:(n + records.size) * width] = records.view(np.uint8)


def _substeps(cfg: SimConfig, traj: Trajectory, h: float, rng: np.random.Generator,
              pose: tuple[float, np.ndarray], first: int,
              stop: int) -> Iterator[tuple[int, tuple[float, np.ndarray], tuple | None]]:
    """Substeps ``first`` to ``stop - 1`` of ``h`` seconds each, from the plane
    ``pose`` (psi, c_px) at the start of substep ``first`` and with ``rng`` in
    its state there: yields each substep's index, the pose at its end and its
    noise events (timestamp in float us, x, y, polarity) drawn from ``rng``,
    or None."""
    cam = cfg.cam
    scale = cam.f_px / cam.height_z
    expected_noise = cfg.noise_rate * h * cam.width * cam.height
    psi, c_px = pose
    for k in range(first, stop):
        t0 = k * h
        v_lon, v_lat, omega = traj.at(t0 + 0.5 * h)
        dtheta, ux, uy = _twist_increment(float(v_lon), float(v_lat), float(omega), scale, h)
        cr, sr = math.cos(dtheta), math.sin(dtheta)
        c_px = np.array([cr * c_px[0] - sr * c_px[1] + ux, sr * c_px[0] + cr * c_px[1] + uy])
        psi += dtheta
        n_noise = int(rng.poisson(expected_noise)) if cfg.noise_rate > 0 else 0
        yield k, (psi, c_px), (((t0 + rng.random(n_noise) * h) * 1e6,
                                rng.integers(0, cam.width, n_noise).astype(np.uint16),
                                rng.integers(0, cam.height, n_noise).astype(np.uint16),
                                rng.choice(np.array([-1, 1], dtype=np.int8), n_noise))
                               if n_noise else None)


def generate_events(cfg: SimConfig, traj: Trajectory) -> tuple[np.ndarray, list[VelocityEstimate]]:
    """Simulate the event stream and its axle-frame ground truth.

    Per substep and pixel, one event is emitted for every contrast level
    (ladder anchor plus an integer multiple of the threshold) the pixel
    crosses, with polarity matching the direction and the timestamp
    interpolated linearly within the substep; spurious Poisson events are
    appended at ``noise_rate`` per pixel per second.  The plane starts in
    the identity pose.  Returns the event array and ground truth sampled
    at substep boundaries.  ``Scenario`` checks that ``traj`` covers
    [0, ``cfg.duration``].

    A substep's events depend only on its two images, the anchor and its
    noise, so the substeps split into contiguous blocks, one per
    ``parallel.default_workers``, which ``parallel.forked`` runs.  A set-up
    pass integrates the poses and draws each substep's noise from the one
    seeded generator, in substep order, keeping only the pose and the
    generator's state at each block's first substep.  Each block replays its
    substeps from there, rendering its first image once; this process runs
    the first block and forked children the later ones.  The stream does not
    depend on where the blocks are cut.
    """
    cam = cfg.cam
    n_sub = max(1, math.ceil(cfg.duration / cfg.time_step))
    h = cfg.duration / n_sub
    # a lattice texture's values, kept for the run in each process and
    # refilled only when a render's footprint leaves the box; noise has none,
    # and its box is never gathered
    box = LatticeBox(getattr(cfg.texture, "lattice", None))
    # each pixel's threshold ladder is anchored at its first level.  Threshold
    # lines sit at anchor + (j - 1/2) * C so a fresh pixel starts centered in
    # band 0; the first crossing in either direction needs a half-threshold
    # traversal, every further one a full threshold.
    anchor = _render(cfg.texture, 0.0, np.zeros(2), cam, box)
    y_px, x_px = np.indices((cam.height, cam.width), dtype=np.uint16).reshape(2, -1)
    raster = x_px, y_px
    t_last_us = round(cfg.duration * 1e6) - 1
    blocks = parallel.blocks(n_sub, parallel.default_workers())
    rng = np.random.default_rng(cfg.seed)
    starts = {0: ((0.0, np.zeros(2)), rng.bit_generator.state)}
    for first, stop in blocks[:-1]:
        for _, pose, _ in _substeps(cfg, traj, h, rng, starts[first][0], first, stop):
            pass
        starts[stop] = pose, rng.bit_generator.state

    def block(first: int, stop: int) -> Iterator[np.ndarray]:
        """Each substep's records of ``[first, stop)``, sorted by time."""
        pose, state = starts[first]
        rng.bit_generator.state = state
        level = _render(cfg.texture, *pose, cam, box) if first else anchor
        band = _bands(level, anchor, cfg.contrast)
        for k, pose, noise in _substeps(cfg, traj, h, rng, pose, first, stop):
            level_new = _render(cfg.texture, *pose, cam, box)
            band_new = _bands(level_new, anchor, cfg.contrast)
            columns = _crossings(level, band, level_new, band_new, anchor, cfg.contrast,
                                 k * h, h, raster, noise)
            if columns[0].size:
                yield _sorted_records(columns, t_last_us)
            level, band = level_new, band_new

    # The stream is written into one buffer that grows in place by exactly
    # each substep's records: ndarray.resize is realloc, which moves a large
    # block by remapping its pages, so the stream is never copied or held
    # twice, and no zero-filled slack is resident ahead of need.  No view of
    # the buffer outlives a statement, which makes refcheck=False safe.
    events = np.empty(0, dtype=EVENT_DTYPE)
    for records in parallel.forked(blocks, block, "substeps"):
        n = events.size
        events.resize(n + records.size, refcheck=False)
        _put(events, n, records)
        del records  # freed before the next substep's temporaries exist
    truth = _axle_truth(traj, cfg.ext, np.arange(n_sub + 1) * h)
    return events, truth
