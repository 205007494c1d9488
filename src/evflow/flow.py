"""Dense optical flow via polynomial expansion with coarse-to-fine refinement.

Each image neighborhood is approximated by a quadratic
``f(u) = u' A u + b' u + c`` fitted under a separable Gaussian weighting
(the applicability).  For a pair of images the local displacement ``d``
satisfies ``A_avg d = db`` where ``A_avg`` averages the two expansions and
``db`` is half the difference of the linear coefficients; the solve is
stabilized by Gaussian-averaging the normal equations over ``WINDOW_SIZE``
taps and iterated ``ITERATIONS`` times per level, warping the second
expansion by the current displacement.  A pyramid of images downscaled by
``PYRAMID_SCALE`` per level extends the capture range.  The expansions
depend on a single frame, so ``flow_pyramid`` builds them once per frame
and ``compute_flow`` refines the displacement between two pyramids.  Its
last pass smooths and solves only on the stride grid the caller reads.
These constants are fixed; the run config sets only the pyramid's depth
and the stride.

Conventions: pixel centers sit at integer coordinates, x is the column
axis, y the row axis, and flow (u, v) maps a point p in the first frame to
p + (u, v) in the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

RCOND_INVALID = 1e-6  # normal-matrix reciprocal condition number below this marks a pixel invalid
_MIN_LEVEL_SIZE = 16
# Pixels per normal-equations tile, which bounds the warp's temporaries.  On
# 346x260 driving frames (2-vCPU VM, alternating fresh-process runs), building
# them whole was no faster (5 of 10 runs) and raised peak RSS from 91 to 100 MB.
_TILE_PX = 16_384

PYRAMID_SCALE = 0.5  # each pyramid level's side over the next finer one's
WINDOW_SIZE = 15  # taps of the Gaussian window that averages the normal equations
ITERATIONS = 3  # refinement passes per pyramid level
POLY_N = 5  # expansion neighborhood radius: the kernels span 2 * POLY_N + 1 samples
POLY_SIGMA = 1.1  # the applicability Gaussian's sigma in pixels


@dataclass(frozen=True)
class FlowField:
    """Displacement with a validity mask on the frame's ``stride`` grid.

    Element ``[i, j]`` belongs to the pixel ``(x, y) = (j, i) * stride``.
    ``u``/``v`` hold the x and y displacement in pixels per frame pair;
    ``valid`` is False where the local normal matrix was too close to
    singular (textureless or aperture-limited neighborhoods).  Stride 1 is
    the dense per-pixel field.
    """

    u: np.ndarray
    v: np.ndarray
    valid: np.ndarray
    stride: int = 1

    def __post_init__(self):
        if self.u.shape != self.v.shape or self.u.shape != self.valid.shape:
            raise ValueError("flow component shapes disagree")
        if np.any(~np.isfinite(self.u[self.valid])) or np.any(~np.isfinite(self.v[self.valid])):
            raise ValueError("non-finite displacement marked valid")


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


def polynomial_expansion(image: np.ndarray) -> np.ndarray:
    """Weighted least-squares quadratic fit around every pixel.

    The fitted surface is ``axx*x^2 + ayy*y^2 + axy*x*y + bx*x + by*y + c``
    in local coordinates, i.e. A = [[axx, axy/2], [axy/2, ayy]] and
    b = (bx, by).  Returns the (5, h, w) channels the refinement reads,
    ``[axx, ayy, axy/2, bx, by]``; the constant term ``c`` is not computed.
    Borders use replicated (clamped) samples.  The fit is exact for inputs
    that are polynomials of degree <= 2, e.g. a constant image yields
    A = 0 and b = 0.  ``image`` is a 2-d float32 or float64 array, 2 px a
    side or more: ``RunConfig`` keeps the camera that large, and
    ``flow_pyramid`` keeps every level so.  The channels keep its dtype.
    """
    g, xg, xxg = (k.astype(image.dtype) for k in _applicability_kernels(POLY_N, POLY_SIGMA))
    ig03, ig11, ig33, ig55 = _gram_inverse_entries(g.astype(np.float64), POLY_N)

    # Vertical moment passes (y axis), then horizontal (x axis); _correlate1d
    # applies kernels unflipped so the odd kernel measures +offset moments.
    r = np.empty((3,) + image.shape, image.dtype)
    for kernel, row in zip((g, xg, xxg), r):
        _correlate1d(image, kernel, axis=0, output=row)
    # the horizontal passes write the moments b5, b3, b2, b6 and b4 into the
    # channels they scale to; only b1 is a temporary
    out = np.empty((5,) + image.shape, image.dtype)
    b1 = _correlate1d(r[0], g, axis=-1)
    _correlate1d(r[:0:-1], g, axis=-1, output=out[1::3])
    _correlate1d(r[:2], xg, axis=-1, output=out[3:1:-1])
    _correlate1d(r[:1], xxg, axis=-1, output=out[:1])

    dt = image.dtype.type
    b1 *= dt(ig03)
    out[:2] *= dt(ig33)
    out[:2] += b1  # axx = ig33 b4 + ig03 b1, ayy = ig33 b5 + ig03 b1
    out[2] *= dt(ig55)
    out[2] *= 0.5  # axy / 2
    out[3:] *= dt(ig11)  # bx, by
    return out


def _resize_bilinear(img: np.ndarray, height: int, width: int) -> np.ndarray:
    """Separable bilinear resample with half-pixel alignment and edge clamp.

    ``img`` is a frame of a ``RunConfig`` camera, so 2 px a side or more.
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


# the window smoothing of the normal equations; read-only, as every pair
# reads it
_WINDOW_KERNEL = _gaussian_kernel(WINDOW_SIZE, 0.3 * (WINDOW_SIZE // 2)).astype(np.float32)
_WINDOW_KERNEL.flags.writeable = False


# Output lines per band-matrix product.  A tile reads 2r input lines beyond
# its own, so wider tiles multiply more of the band's zeros.
_CORR_TILE = 16


@lru_cache(maxsize=128)
def _band_tiles(n: int, kernel: tuple[float, ...]) -> tuple[tuple[int, ...], np.ndarray]:
    """The band of the (n, n) matrix whose product with a length-n column
    correlates it with ``kernel``, taps past an end falling on the edge
    sample, cut into tiles of ``_CORR_TILE`` rows.

    Tile t holds rows ``t * _CORR_TILE`` on (zero past row n) and the
    ``min(n, _CORR_TILE + 2r)`` columns from ``starts[t]`` on, which hold all
    of their nonzero entries.  Returns ``starts`` and the read-only tiles.
    """
    r = len(kernel) // 2
    width = min(n, _CORR_TILE + 2 * r)
    count = -(-n // _CORR_TILE)
    starts = np.clip(np.arange(count) * _CORR_TILE - r, 0, n - width)
    rows = np.arange(n)[:, None]
    cols = np.clip(rows + np.arange(-r, r + 1), 0, n - 1) - starts[rows // _CORR_TILE]
    tiles = np.bincount((rows * width + cols).ravel(), weights=np.tile(kernel, n),
                        minlength=count * _CORR_TILE * width)
    tiles = tiles.reshape(count, _CORR_TILE, width)
    tiles.flags.writeable = False
    return tuple(starts.tolist()), tiles


def _correlate1d(x: np.ndarray, kernel: np.ndarray, axis: int,
                 output: np.ndarray | None = None, stride: int = 1) -> np.ndarray:
    """Correlate ``x`` with the odd-length ``kernel`` along ``axis``, one of
    its last two, replicating edge samples, at every ``stride``-th line
    from the first; into ``output`` if given, which must not overlap ``x``.

    Each tile of ``_CORR_TILE`` output lines is a band tile times the input
    lines it reaches, multiplied and summed in float64 and stored in ``x``'s
    dtype, so float32 data are rounded once.  A stride multiplies only the
    band rows of the lines it outputs.  BLAS may sum a product of fewer rows
    with another kernel, which moves some float64 sums by about an ulp;
    rounded to float32, none of 10.5 million such sums of random data
    changed.  The kernel is applied unflipped.
    """
    n = x.shape[axis]
    if output is None:
        shape = list(x.shape)
        shape[axis] = -(-n // stride)
        output = np.empty(shape, x.dtype)
    starts, tiles = _band_tiles(n, tuple(np.asarray(kernel, dtype=np.float64).tolist()))
    width = tiles.shape[-1]
    last = axis % x.ndim == x.ndim - 1
    for tile, lo, t0 in zip(tiles, starts, range(0, n, _CORR_TILE)):
        first = -(-t0 // stride)  # the tile's first output line
        band = tile[first * stride - t0:n - t0:stride]
        t = slice(first, first + len(band))
        if last:
            output[..., t] = x[..., lo:lo + width] @ band.T
        else:
            output[..., t, :] = band @ x[..., lo:lo + width, :]
    return output


def _smooth(channel: np.ndarray, kernel: np.ndarray, out: np.ndarray | None = None,
            stride: int = 1) -> np.ndarray:
    """Separable smoothing, vertical then horizontal, at every ``stride``-th
    row and column, into ``out`` (may be ``channel`` at stride 1)."""
    return _correlate1d(_correlate1d(channel, kernel, axis=-2, stride=stride), kernel,
                        axis=-1, output=out, stride=stride)


_BORDER_RAMP = 5


@lru_cache(maxsize=128)
def _border_weights(height: int, width: int) -> np.ndarray:
    """The read-only float32 weights that ramp the normal equations down to 0
    over the ``_BORDER_RAMP`` pixels next to each edge."""
    y = np.minimum(np.arange(height), np.arange(height)[::-1])
    x = np.minimum(np.arange(width), np.arange(width)[::-1])
    wy = np.minimum(y, _BORDER_RAMP) / _BORDER_RAMP
    wx = np.minimum(x, _BORDER_RAMP) / _BORDER_RAMP
    weights = (wy[:, None] * wx[None, :]).astype(np.float32)
    weights.flags.writeable = False
    return weights


def _bilinear_taps(u: np.ndarray, v: np.ndarray, rows: slice,
                   h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into an (h, w) frame of the four pixels around p + (u, v)
    for each pixel p of ``rows`` (coordinates clamped to the frame), and
    their bilinear weights: two (4, N) stacks, the corners in the order
    (y, x) + (0, 0), (0, 1), (1, 0), (1, 1).  ``u`` and ``v`` cover ``rows``.
    """
    xs = np.arange(w, dtype=np.float32)[None, :] + u
    ys = np.arange(rows.start, rows.stop, dtype=np.float32)[:, None] + v
    np.clip(xs, 0.0, w - 1.0, out=xs)
    np.clip(ys, 0.0, h - 1.0, out=ys)
    x0 = np.minimum(xs.astype(np.intp), w - 2)
    y0 = np.minimum(ys.astype(np.intp), h - 2)
    # float32 weights, as the expansions are: the warped expansion and the
    # normal equations stay float32, which halves the bytes the gathers
    # move.  Against float64 weights this moved drive_dense's v_lon by at
    # most 1.2e-8 m/s and disk_sparse's omega by at most 5.6e-7 rad/s.
    fx = (xs - x0.astype(np.float32)).ravel()
    fy = (ys - y0.astype(np.float32)).ravel()
    corners = (y0 * w + x0).ravel() + np.array([0, 1, w, w + 1])[:, None]
    weights = (np.stack([1 - fy, fy])[:, None] * np.stack([1 - fx, fx])).reshape(4, -1)
    return corners, weights


def _normal_equations(s0: np.ndarray, s1: np.ndarray, u: np.ndarray, v: np.ndarray,
                      border: np.ndarray, rows: slice, out: np.ndarray,
                      e: np.ndarray) -> None:
    """Build per-pixel 2x2 normal equations G d = h for the displacement.

    The second expansion is sampled at the warped position p + (u, v) with
    bilinear interpolation (coordinates clamped to the frame), the two A
    matrices are averaged, and the current displacement is folded into the
    right-hand side so the solve yields the full displacement, not an
    increment.  Only the rows ``rows`` are built, into ``out[:, rows]``;
    the warp gathers from all of ``s1``.  Channels: [G11, G12, G22, h1, h2].
    The warped expansion is written into the leading columns of ``e``, a
    (5, N) buffer of ``s0``'s dtype with N at least the pixels of ``rows``.
    """
    _, h, w = s0.shape
    s0, out = s0[:, rows], out[:, rows]
    u, v, border = u[rows], v[rows], border[rows]
    corners, weights = _bilinear_taps(u, v, rows, h, w)
    # one gather per channel; the axis-0 sum adds the weighted corners in
    # order, ((c00 w00 + c01 w01) + c10 w10) + c11 w11.  Each gather is freed
    # before the next and the taps before the arithmetic, for peak memory.
    e = e[:, :u.size]
    for ch, warped in zip(s1.reshape(5, -1), e):
        taken = ch.take(corners)
        taken *= weights
        taken.sum(axis=0, out=warped)
        del taken
    del corners, weights
    e = e.reshape(s0.shape)

    # e becomes [axx, ayy, aoff, dbx, dby]: the averaged A and half the
    # difference of b, plus A d for the current displacement d = (u, v)
    np.add(s0[:3], e[:3], out=e[:3])
    np.subtract(s0[3:], e[3:], out=e[3:])
    e *= 0.5
    axx, ayy, aoff, dbx, dby = e
    e[3:] += e[0:3:2] * u  # (axx, aoff) u
    e[3:] += e[2:0:-1] * v  # (aoff, ayy) v
    e *= border

    square = e[:3] * e[:3]
    np.add(square[:2], square[2], out=out[0:3:2])  # axx^2 + aoff^2, ayy^2 + aoff^2
    np.add(axx, ayy, out=out[1])
    out[1] *= aoff
    np.multiply(e[0:3:2], dbx, out=out[3:])
    out[3:] += e[2:0:-1] * dby  # axx dbx + aoff dby, aoff dbx + ayy dby


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
            border: np.ndarray, kernel: np.ndarray, stride: int,
            m: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One refinement iteration; returns the new (u, v) and the
    window-smoothed normal equations at every ``stride``-th row and column.

    The normal equations are built whole into ``m``, shaped as ``s0``,
    since the window reads each point's neighbours, as many rows at a time
    as the (5, N) buffer ``e`` holds whole; then each channel is
    window-smoothed vertically and horizontally and the solve runs per
    point, both only on the stride grid.  At stride 1 the smoothed
    equations are ``m`` itself.  Every element of both buffers is written
    before it is read, so a level's passes can share them.
    """
    _, h, w = s0.shape
    step = e.shape[1] // w
    for r0 in range(0, h, step):
        _normal_equations(s0, s1, u, v, border, slice(r0, min(r0 + step, h)), m, e)
    m = _smooth(m, kernel, out=m if stride == 1 else None, stride=stride)
    return (*_solve_flow(m), m)


@dataclass(frozen=True)
class FlowPyramid:
    """One frame's stacked expansions, one per pyramid level, coarsest first.

    Each level is a (5, h, w) float32 array of the channels the refinement
    reads.  The expansion depends on the frame alone, so a stream builds one
    pyramid per frame and pairs each with its neighbours on both sides.
    """

    levels: tuple[np.ndarray, ...]

    @property
    def shape(self) -> tuple[int, int]:
        """The frame's shape, which the finest level keeps."""
        return self.levels[-1].shape[1:]


def _level_count(h0: int, w0: int, pyramid_levels: int) -> int:
    levels = 1
    scale = 1.0
    while levels < pyramid_levels:
        scale *= PYRAMID_SCALE
        if min(h0, w0) * scale < _MIN_LEVEL_SIZE:
            break
        levels += 1
    return levels


def flow_pyramid(image: np.ndarray, pyramid_levels: int) -> FlowPyramid:
    """Blur, resize and polynomially expand ``image`` at up to
    ``pyramid_levels`` pyramid levels, stopping before a level would fall
    below ``_MIN_LEVEL_SIZE`` px a side."""
    a = image.astype(np.float32)
    h0, w0 = a.shape
    levels = []
    for k in range(_level_count(h0, w0, pyramid_levels) - 1, -1, -1):
        img = a  # the finest level is the frame itself
        if k > 0:
            scale = PYRAMID_SCALE ** k
            sigma = (1.0 / scale - 1.0) * 0.5
            size = max(3, int(round(sigma * 5)) | 1)
            kernel = _gaussian_kernel(size, sigma).astype(np.float32)
            img = _resize_bilinear(_smooth(a, kernel), max(2, int(round(h0 * scale))),
                                   max(2, int(round(w0 * scale))))
        level = polynomial_expansion(img)
        # read-only: a frame's pyramid serves both of its pairs
        level.flags.writeable = False
        levels.append(level)
    return FlowPyramid(levels=tuple(levels))


def compute_flow(a: FlowPyramid, b: FlowPyramid, stride: int) -> FlowField:
    """Displacement field from the frame of pyramid ``a`` to that of ``b``,
    on the frame's ``stride`` grid.

    Both pyramids come from ``flow_pyramid`` with the same level count, over
    frames of one sensor (``FrameMemo.pyramid`` builds them), so a stream
    expands every frame once.  Every refinement pass but the last covers the
    whole level; the last one smooths and solves only at the grid points,
    which are all that is read.  Its grid equals the dense field sliced
    ``[::stride, ::stride]`` once rounded to float32, not by construction:
    ``_correlate1d`` says why.  ``RunConfig`` keeps ``stride`` >= 1.
    Deterministic: identical pyramids give bit-identical fields.
    Textureless regions are reported through the validity mask rather than
    an exception.
    """
    u = np.zeros(a.levels[0].shape[1:], dtype=np.float32)
    v = np.zeros_like(u)
    finest = len(a.levels) - 1
    for level, (s0, s1) in enumerate(zip(a.levels, b.levels)):
        _, lh, lw = s0.shape
        if level:
            ph, pw = u.shape
            u = _resize_bilinear(u, lh, lw) * np.float32(lw / pw)
            v = _resize_bilinear(v, lh, lw) * np.float32(lh / ph)

        # the level's buffers, which its passes reuse; each call has its own
        m = np.empty_like(s0)
        e = np.empty((5, max(1, _TILE_PX // lw) * lw), s0.dtype)
        border = _border_weights(lh, lw)
        for i in range(ITERATIONS):
            last = level == finest and i == ITERATIONS - 1
            u, v, m = _refine(s0, s1, u, v, border, _WINDOW_KERNEL, stride if last else 1, m, e)

    valid = _rcond(m[0], m[1], m[2]) >= RCOND_INVALID
    u = np.where(valid, u, np.float32(0.0)).astype(np.float64)
    v = np.where(valid, v, np.float32(0.0)).astype(np.float64)
    return FlowField(u=u, v=v, valid=valid, stride=stride)


def subsample_flow(field: FlowField) -> tuple[np.ndarray, np.ndarray]:
    """Correspondences (p, q = p + flow) at the field's valid grid points.

    Returns two (N, 2) arrays of (x, y) pixel-center coordinates, row-major
    over the grid.
    """
    ys, xs = np.nonzero(field.valid)
    p = np.stack([xs, ys], axis=1).astype(np.float64) * field.stride
    q = p + np.stack([field.u[ys, xs], field.v[ys, xs]], axis=1)
    return p, q
