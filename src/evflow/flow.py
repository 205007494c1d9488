"""Dense optical flow via polynomial expansion with coarse-to-fine refinement.

Each image neighborhood is approximated by a quadratic
``f(u) = u' A u + b' u + c`` fitted under a separable Gaussian weighting
(the applicability).  For a pair of images the local displacement ``d``
satisfies ``A_avg d = db`` where ``A_avg`` averages the two expansions and
``db`` is half the difference of the linear coefficients; the solve is
stabilized by Gaussian-averaging the normal equations over ``window_size``
and iterated, warping the second expansion by the current displacement.
A pyramid of downscaled images extends the capture range.  The expansions
depend on a single frame, so ``flow_pyramid`` builds them once per frame
and ``compute_flow`` refines the displacement between two pyramids.

Conventions: pixel centers sit at integer coordinates, x is the column
axis, y the row axis, and flow (u, v) maps a point p in the first frame to
p + (u, v) in the second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RCOND_INVALID = 1e-6  # normal-matrix reciprocal condition number below this marks a pixel invalid
_MIN_LEVEL_SIZE = 16
# Pixels per normal-equations tile.  Built whole, a 346x260 frame's float64
# temporaries (about 14 MB) go back to the OS and are faulted in again every
# iteration.
_TILE_PX = 16_384


@dataclass(frozen=True)
class FlowParams:
    """Knobs of the expansion/refinement algorithm.

    ``poly_n`` is the expansion neighborhood radius (the kernel spans
    2*poly_n + 1 samples).
    """

    pyramid_levels: int = 3
    pyramid_scale: float = 0.5
    window_size: int = 15
    iterations: int = 3
    poly_n: int = 5
    poly_sigma: float = 1.1

    def __post_init__(self):
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if not 0.0 < self.pyramid_scale < 1.0:
            raise ValueError("pyramid_scale must lie in (0, 1)")
        if self.window_size < 3 or self.window_size % 2 == 0:
            raise ValueError("window_size must be odd and >= 3")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.poly_n < 1:
            raise ValueError("poly_n must be >= 1")
        if self.poly_sigma <= 0:
            raise ValueError("poly_sigma must be positive")


@dataclass(frozen=True)
class FlowField:
    """Dense per-pixel displacement with a validity mask.

    ``u``/``v`` hold the x and y displacement in pixels per frame pair;
    ``valid`` is False where the local normal matrix was too close to
    singular (textureless or aperture-limited neighborhoods).
    """

    u: np.ndarray
    v: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if self.u.shape != self.v.shape or self.u.shape != self.valid.shape:
            raise ValueError("flow component shapes disagree")
        if np.any(~np.isfinite(self.u[self.valid])) or np.any(~np.isfinite(self.v[self.valid])):
            raise ValueError("non-finite displacement marked valid")

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape


def inject_outliers(field: FlowField, fraction: float, magnitude: float,
                    rng_seed) -> FlowField:
    """Replace a seeded random subset of valid flow vectors with uniformly
    oriented vectors of the given magnitude."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    idx = np.flatnonzero(field.valid)
    n_out = int(round(fraction * idx.size))
    u = field.u.copy()
    v = field.v.copy()
    if n_out:
        rng = np.random.default_rng(rng_seed)
        chosen = rng.choice(idx, size=n_out, replace=False)
        angles = rng.uniform(0.0, 2 * np.pi, n_out)
        u.ravel()[chosen] = magnitude * np.cos(angles)
        v.ravel()[chosen] = magnitude * np.sin(angles)
    return FlowField(u=u, v=v, valid=field.valid.copy())


def _applicability_kernels(n: int, sigma: float):
    k = np.arange(-n, n + 1, dtype=np.float64)
    g = _gaussian_kernel(2 * n + 1, sigma)
    return g, k * g, k * k * g


def _gram_inverse_entries(g: np.ndarray, n: int):
    """Invert the 6x6 Gram matrix of the basis (1, x, y, x^2, y^2, xy).

    The separable Gaussian applicability makes the inverse sparse; only
    four distinct entries are needed to read off A and b.
    """
    k = np.arange(-n, n + 1, dtype=np.float64)
    m2 = float(np.sum(g * k * k))
    m4 = float(np.sum(g * k ** 4))
    G = np.zeros((6, 6))
    G[0, 0] = 1.0
    G[1, 1] = G[2, 2] = m2
    G[3, 3] = G[4, 4] = m4
    G[5, 5] = m2 * m2
    G[0, 3] = G[3, 0] = G[0, 4] = G[4, 0] = m2
    G[3, 4] = G[4, 3] = m2 * m2
    inv = np.linalg.inv(G)
    return inv[0, 3], inv[1, 1], inv[3, 3], inv[5, 5]


def polynomial_expansion(image: np.ndarray, poly_n: int, poly_sigma: float) -> np.ndarray:
    """Weighted least-squares quadratic fit around every pixel.

    The fitted surface is ``axx*x^2 + ayy*y^2 + axy*x*y + bx*x + by*y + c``
    in local coordinates, i.e. A = [[axx, axy/2], [axy/2, ayy]] and
    b = (bx, by).  Returns the (5, h, w) channels the refinement reads,
    ``[axx, ayy, axy/2, bx, by]``; the constant term ``c`` is not computed.
    Borders use replicated (clamped) samples.  The fit is exact for inputs
    that are polynomials of degree <= 2, e.g. a constant image yields
    A = 0 and b = 0.  Float inputs keep their dtype; everything else is
    promoted to float64.
    """
    img = np.asarray(image)
    if img.dtype not in (np.float32, np.float64):
        img = img.astype(np.float64)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("expansion needs a non-empty 2-d image")
    from scipy import ndimage  # imported on first use: commands without flow never load scipy

    g, xg, xxg = (k.astype(img.dtype) for k in _applicability_kernels(poly_n, poly_sigma))
    ig03, ig11, ig33, ig55 = _gram_inverse_entries(g.astype(np.float64), poly_n)

    # Vertical moment pass (y axis), then horizontal (x axis); correlate1d
    # applies kernels unflipped so the odd kernel measures +offset moments.
    r0 = ndimage.correlate1d(img, g, axis=0, mode="nearest")
    r1 = ndimage.correlate1d(img, xg, axis=0, mode="nearest")
    r2 = ndimage.correlate1d(img, xxg, axis=0, mode="nearest")

    b1 = ndimage.correlate1d(r0, g, axis=1, mode="nearest")
    b2 = ndimage.correlate1d(r0, xg, axis=1, mode="nearest")
    b3 = ndimage.correlate1d(r1, g, axis=1, mode="nearest")
    b4 = ndimage.correlate1d(r0, xxg, axis=1, mode="nearest")
    b5 = ndimage.correlate1d(r2, g, axis=1, mode="nearest")
    b6 = ndimage.correlate1d(r1, xg, axis=1, mode="nearest")

    dt = img.dtype.type
    return np.stack([dt(ig03) * b1 + dt(ig33) * b4, dt(ig03) * b1 + dt(ig33) * b5,
                     0.5 * (dt(ig55) * b6), dt(ig11) * b2, dt(ig11) * b3])


def _resize_bilinear(img: np.ndarray, height: int, width: int) -> np.ndarray:
    """Separable bilinear resample with half-pixel alignment and edge clamp.

    ``img`` is at least 2 px on a side, as every pyramid level is.
    """
    h0, w0 = img.shape

    def axis_coords(n_out, n_in):
        c = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        np.clip(c, 0.0, n_in - 1.0, out=c)
        i0 = np.minimum(np.floor(c).astype(np.intp), n_in - 2)
        return i0, (c - i0).astype(img.dtype)

    yi, yf = axis_coords(height, h0)
    xi, xf = axis_coords(width, w0)
    rows = img[:, xi] * (1.0 - xf) + img[:, xi + 1] * xf
    return rows[yi, :] * (1.0 - yf)[:, None] + rows[yi + 1, :] * yf[:, None]


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    k = np.arange(size, dtype=np.float64) - (size - 1) / 2
    g = np.exp(-(k * k) / (2.0 * sigma * sigma))
    return g / g.sum()


def _smooth(channel: np.ndarray, kernel: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Separable smoothing, vertical then horizontal, into ``out`` if given."""
    from scipy import ndimage

    tmp = ndimage.correlate1d(channel, kernel, axis=0, mode="nearest")
    return ndimage.correlate1d(tmp, kernel, axis=1, mode="nearest", output=out)


_BORDER_RAMP = 5


def _border_weights(height: int, width: int, dtype=np.float32) -> np.ndarray:
    y = np.minimum(np.arange(height), np.arange(height)[::-1])
    x = np.minimum(np.arange(width), np.arange(width)[::-1])
    wy = np.minimum(y, _BORDER_RAMP) / _BORDER_RAMP
    wx = np.minimum(x, _BORDER_RAMP) / _BORDER_RAMP
    return (wy[:, None] * wx[None, :]).astype(dtype)


def _normal_equations(s0: np.ndarray, s1: np.ndarray, u: np.ndarray, v: np.ndarray,
                      border: np.ndarray, rows: slice, out: np.ndarray) -> None:
    """Build per-pixel 2x2 normal equations G d = h for the displacement.

    The second expansion is sampled at the warped position p + (u, v) with
    bilinear interpolation (coordinates clamped to the frame), the two A
    matrices are averaged, and the current displacement is folded into the
    right-hand side so the solve yields the full displacement, not an
    increment.  Only the rows ``rows`` are built, into ``out[:, rows]``;
    the warp gathers from all of ``s1``.  Channels: [G11, G12, G22, h1, h2].
    """
    _, h, w = s0.shape
    s0, out = s0[:, rows], out[:, rows]
    u, v, border = u[rows], v[rows], border[rows]
    xs = np.arange(w, dtype=np.float32)[None, :] + u
    ys = np.arange(rows.start, rows.stop, dtype=np.float32)[:, None] + v
    np.clip(xs, 0.0, w - 1.0, out=xs)
    np.clip(ys, 0.0, h - 1.0, out=ys)
    x0 = np.minimum(xs.astype(np.intp), w - 2)
    y0 = np.minimum(ys.astype(np.intp), h - 2)
    # float32 coordinates minus intp indices give float64 weights, so the
    # warped expansion and the normal equations are float64 until they are
    # stored into the float32 ``out``.  Flow outputs are pinned to this: a
    # warp stored in float32 moves the flow by up to 3e-6 px.
    fx = (xs - x0).ravel()
    fy = (ys - y0).ravel()
    i00 = (y0 * w + x0).ravel()
    i01 = i00 + 1
    i10 = i00 + w
    i11 = i10 + 1
    w00 = (1 - fx) * (1 - fy)
    w01 = fx * (1 - fy)
    w10 = (1 - fx) * fy
    w11 = fx * fy
    s1w = [(ch.take(i00) * w00 + ch.take(i01) * w01
            + ch.take(i10) * w10 + ch.take(i11) * w11).reshape(u.shape)
           for ch in s1.reshape(5, -1)]

    axx = 0.5 * (s0[0] + s1w[0])
    ayy = 0.5 * (s0[1] + s1w[1])
    aoff = 0.5 * (s0[2] + s1w[2])
    dbx = 0.5 * (s0[3] - s1w[3]) + axx * u + aoff * v
    dby = 0.5 * (s0[4] - s1w[4]) + aoff * u + ayy * v

    axx = axx * border
    ayy = ayy * border
    aoff = aoff * border
    dbx = dbx * border
    dby = dby * border

    out[0] = axx * axx + aoff * aoff
    out[1] = (axx + ayy) * aoff
    out[2] = ayy * ayy + aoff * aoff
    out[3] = axx * dbx + aoff * dby
    out[4] = aoff * dbx + ayy * dby


def _solve_flow(m: np.ndarray):
    g11, g12, g22, h1, h2 = m
    det = g11 * g22 - g12 * g12
    # Relative regularizer: negligible where conditioned, keeps the solve
    # finite where the normal matrix degenerates.
    reg = (1e-5 * 0.5 * (g11 + g22)) ** 2 + np.float32(1e-35)
    inv = 1.0 / (det + reg)
    return (g22 * h1 - g12 * h2) * inv, (g11 * h2 - g12 * h1) * inv


def _rcond(g11, g12, g22):
    mean = 0.5 * (g11 + g22)
    radius = np.sqrt(np.maximum(0.25 * (g11 - g22) ** 2 + g12 * g12, 0.0))
    lmax = mean + radius
    with np.errstate(invalid="ignore", divide="ignore"):
        rc = np.where(lmax > 0, (mean - radius) / lmax, 0.0)
    return np.nan_to_num(rc, nan=0.0)


def _refine(s0: np.ndarray, s1: np.ndarray, u: np.ndarray, v: np.ndarray,
            border: np.ndarray, kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One refinement iteration; returns the new (u, v) and the
    window-smoothed normal equations.

    The normal equations are built ``_TILE_PX`` pixels at a time, then each
    channel is window-smoothed vertically and horizontally and the solve
    runs per pixel.
    """
    _, h, w = s0.shape
    m = np.empty_like(s0)
    step = max(1, _TILE_PX // w)
    for r0 in range(0, h, step):
        _normal_equations(s0, s1, u, v, border, slice(r0, min(r0 + step, h)), m)
    for ch in m:
        _smooth(ch, kernel, out=ch)
    return (*_solve_flow(m), m)


@dataclass(frozen=True)
class FlowPyramid:
    """One frame's stacked expansions, one per pyramid level, coarsest first.

    Each level is a (5, h, w) float32 array of the channels the refinement
    reads.  The expansion depends on the frame alone, so a stream builds one
    pyramid per frame and pairs each with its neighbours on both sides.
    """

    params: FlowParams
    levels: tuple[np.ndarray, ...]

    @property
    def shape(self) -> tuple[int, int]:
        """The frame's shape, which the finest level keeps."""
        return self.levels[-1].shape[1:]


def _level_count(h0: int, w0: int, params: FlowParams) -> int:
    levels = 1
    scale = 1.0
    while levels < params.pyramid_levels:
        scale *= params.pyramid_scale
        if min(h0, w0) * scale < _MIN_LEVEL_SIZE:
            break
        levels += 1
    return levels


def flow_pyramid(image: np.ndarray, params: FlowParams) -> FlowPyramid:
    """Blur, resize and polynomially expand ``image`` at every pyramid level."""
    a = np.asarray(image, dtype=np.float32)
    if a.ndim != 2 or min(a.shape) < 2:
        raise ValueError("flow needs 2-d frames at least 2 pixels on a side")
    h0, w0 = a.shape
    levels = []
    for k in range(_level_count(h0, w0, params) - 1, -1, -1):
        scale = params.pyramid_scale ** k
        lh = max(2, int(round(h0 * scale)))
        lw = max(2, int(round(w0 * scale)))
        if k > 0:
            sigma = (1.0 / scale - 1.0) * 0.5
            size = max(3, int(round(sigma * 5)) | 1)
            img = _smooth(a, _gaussian_kernel(size, sigma).astype(np.float32))
        else:
            img = a
        img = _resize_bilinear(img, lh, lw)
        levels.append(polynomial_expansion(img, params.poly_n, params.poly_sigma))
    return FlowPyramid(params=params, levels=tuple(levels))


def compute_flow(prev: np.ndarray | FlowPyramid, next_: np.ndarray | FlowPyramid,
                 params: FlowParams) -> FlowField:
    """Dense displacement field from ``prev`` to ``next_``.

    Each frame is an image or its ``flow_pyramid`` built with ``params``;
    passing pyramids lets a stream expand every frame once.  Deterministic:
    identical inputs and parameters give bit-identical fields.  Textureless
    regions are reported through the validity mask rather than an
    exception.
    """
    a = prev if isinstance(prev, FlowPyramid) else flow_pyramid(prev, params)
    b = next_ if isinstance(next_, FlowPyramid) else flow_pyramid(next_, params)
    if a.shape != b.shape:
        raise ValueError(f"frame shapes differ: {a.shape} vs {b.shape}")
    if a.params != params or b.params != params:
        raise ValueError("flow pyramid was built with other flow parameters")

    win_kernel = _gaussian_kernel(params.window_size,
                                  0.3 * (params.window_size // 2)).astype(np.float32)
    u = v = None
    m = None
    for s0, s1 in zip(a.levels, b.levels):
        _, lh, lw = s0.shape
        if u is None:
            u = np.zeros((lh, lw), dtype=np.float32)
            v = np.zeros((lh, lw), dtype=np.float32)
        else:
            ph, pw = u.shape
            u = _resize_bilinear(u, lh, lw) * np.float32(lw / pw)
            v = _resize_bilinear(v, lh, lw) * np.float32(lh / ph)

        border = _border_weights(lh, lw)
        for _ in range(params.iterations):
            u, v, m = _refine(s0, s1, u, v, border, win_kernel)

    valid = _rcond(m[0], m[1], m[2]) >= RCOND_INVALID
    u = np.where(valid, u, np.float32(0.0)).astype(np.float64)
    v = np.where(valid, v, np.float32(0.0)).astype(np.float64)
    return FlowField(u=u, v=v, valid=valid)


def subsample_flow(field: FlowField, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Correspondences (p, q = p + flow) on a stride grid of valid pixels.

    Returns two (N, 2) arrays of (x, y) pixel-center coordinates, row-major
    over grid points whose mask is set.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    h, w = field.shape
    ys, xs = np.mgrid[0:h:stride, 0:w:stride]
    keep = field.valid[ys, xs]
    xs = xs[keep]
    ys = ys[keep]
    p = np.stack([xs, ys], axis=1).astype(np.float64)
    q = p + np.stack([field.u[ys, xs], field.v[ys, xs]], axis=1)
    return p, q
