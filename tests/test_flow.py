import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.ndimage import map_coordinates

from evflow import flow
from evflow.flow import (POLY_N, POLY_SIGMA, FlowField, compute_flow, flow_pyramid,
                         polynomial_expansion, subsample_flow)
from helpers import image_flow, on_grid

INTERIOR = (slice(24, -24), slice(24, -24))


def wls_quadratic_oracle(img, y0, x0, n, sigma):
    """Independent dense weighted least-squares fit of
    c + bx*x + by*y + axx*x^2 + ayy*y^2 + axy*x*y on the clamped patch,
    returned in the expansion's channel order [axx, ayy, axy/2, bx, by]."""
    offs = np.arange(-n, n + 1)
    u, v = np.meshgrid(offs, offs)  # u: x offset, v: y offset
    ys = np.clip(y0 + v, 0, img.shape[0] - 1)
    xs = np.clip(x0 + u, 0, img.shape[1] - 1)
    f = img[ys, xs].ravel()
    w = (np.exp(-(u ** 2) / (2 * sigma ** 2)) * np.exp(-(v ** 2) / (2 * sigma ** 2))).ravel()
    u = u.ravel().astype(float)
    v = v.ravel().astype(float)
    design = np.stack([np.ones_like(u), u, v, u * u, v * v, u * v], axis=1)
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], f * sw, rcond=None)
    return {"axx": coef[3], "ayy": coef[4], "aoff": coef[5] / 2, "bx": coef[1], "by": coef[2]}


CHANNELS = ("axx", "ayy", "aoff", "bx", "by")


def nine_pass_expansion(img):
    """The expansion as nine separate ``scipy.ndimage.correlate1d`` passes,
    three vertical and six horizontal, combined as ``polynomial_expansion``
    combines them."""
    g, xg, xxg = (k.astype(img.dtype) for k in flow._applicability_kernels(POLY_N, POLY_SIGMA))
    ig03, ig11, ig33, ig55 = flow._gram_inverse_entries(g.astype(np.float64), POLY_N)

    def corr(x, kernel, axis):
        return ndimage.correlate1d(x, kernel, axis=axis, mode="nearest")

    r0, r1, r2 = corr(img, g, 0), corr(img, xg, 0), corr(img, xxg, 0)
    b1, b2, b3 = corr(r0, g, 1), corr(r0, xg, 1), corr(r1, g, 1)
    b4, b5, b6 = corr(r0, xxg, 1), corr(r2, g, 1), corr(r1, xg, 1)
    dt = img.dtype.type
    return np.stack([dt(ig03) * b1 + dt(ig33) * b4, dt(ig03) * b1 + dt(ig33) * b5,
                     0.5 * (dt(ig55) * b6), dt(ig11) * b2, dt(ig11) * b3])


class TestPolynomialExpansion:
    def test_constant_image(self):
        e = polynomial_expansion(np.full((20, 24), 7.25))
        inner = (slice(6, -6), slice(6, -6))
        assert e.shape == (5, 20, 24) and e.dtype == np.float64
        for ch in e:
            assert np.allclose(ch[inner], 0.0, atol=1e-10)

    def test_linear_ramp(self):
        X = np.tile(np.arange(30, dtype=float), (30, 1))
        axx, _, _, bx, by = polynomial_expansion(3.0 * X)
        inner = (slice(6, -6), slice(6, -6))
        assert np.allclose(bx[inner], 3.0, atol=1e-9)
        assert np.allclose(by[inner], 0.0, atol=1e-9)
        assert np.allclose(axx[inner], 0.0, atol=1e-9)

    def test_pure_quadratic(self):
        X = np.tile(np.arange(30, dtype=float), (30, 1))
        axx, ayy, aoff, _, _ = polynomial_expansion(X ** 2)
        inner = (slice(6, -6), slice(6, -6))
        assert np.all(axx[inner] > 0)
        assert np.allclose(axx[inner], 1.0, atol=1e-9)
        assert np.allclose(aoff[inner], 0.0, atol=1e-9)
        assert np.allclose(ayy[inner], 0.0, atol=1e-9)

    @pytest.mark.parametrize("pixel", [(10, 11), (15, 20), (8, 25), (22, 7), (16, 16)])
    def test_against_independent_wls_solve(self, pixel, noise_image):
        img = noise_image((32, 36), seed=9)
        e = polynomial_expansion(img)
        y0, x0 = pixel
        oracle = wls_quadratic_oracle(img, y0, x0, POLY_N, POLY_SIGMA)
        for key, got in zip(CHANNELS, e[:, y0, x0]):
            assert got == pytest.approx(oracle[key], abs=1e-8), key

    def test_border_uses_clamped_patch(self, noise_image):
        img = noise_image((32, 36), seed=10)
        e = polynomial_expansion(img)
        oracle = wls_quadratic_oracle(img, 0, 0, POLY_N, POLY_SIGMA)
        for key, got in zip(CHANNELS, e[:, 0, 0]):
            assert got == pytest.approx(oracle[key], abs=1e-8), key

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (260, 346), (24, 1000),
                                       (1000, 24)],
                             ids=lambda shape: f"{shape[0]}x{shape[1]}-{POLY_N}-{POLY_SIGMA}")
    def test_equals_nine_scipy_passes(self, shape):
        img = 50.0 * np.random.default_rng(11).standard_normal(shape)
        for dtype in (np.float32, np.float64):
            x = img.astype(dtype)
            got, want = polynomial_expansion(x), nine_pass_expansion(x)
            assert got.dtype == dtype
            if dtype == np.float32:
                assert np.array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(img).max())


class TestComputeFlow:
    def test_identity_pair(self, noise_image):
        img = noise_image()
        field = image_flow(img, img)
        mag = np.hypot(field.u, field.v)[field.valid]
        assert mag.mean() < 0.05

    @pytest.mark.parametrize("shift", [1, 2, 3, 5])
    def test_integer_shift_oracle(self, shift, noise_image):
        img = noise_image()
        field = image_flow(img, np.roll(img, shift, axis=1))
        assert abs(field.u[INTERIOR].mean() - shift) < 0.2
        assert abs(field.v[INTERIOR].mean()) < 0.2

    def test_vertical_shift(self, noise_image):
        img = noise_image()
        field = image_flow(img, np.roll(img, 2, axis=0))
        assert abs(field.v[INTERIOR].mean() - 2) < 0.2
        assert abs(field.u[INTERIOR].mean()) < 0.2

    def test_rotation_against_analytic_field(self, noise_image):
        img = noise_image()
        h, w = img.shape
        cy, cx = (h - 1) / 2, (w - 1) / 2
        ang = 0.02
        Y, X = np.mgrid[0:h, 0:w].astype(float)
        c, s = np.cos(ang), np.sin(ang)
        rot = map_coordinates(img, [cy - (X - cx) * s + (Y - cy) * c,
                                    cx + (X - cx) * c + (Y - cy) * s],
                              order=3, mode="nearest")
        field = image_flow(img, rot)
        u_true = -ang * (Y - cy)
        v_true = ang * (X - cx)
        epe = np.hypot(field.u - u_true, field.v - v_true)[INTERIOR]
        assert epe.mean() < 0.3

    def test_uniform_image_all_invalid(self):
        field = image_flow(np.full((64, 64), 9.0), np.full((64, 64), 9.0))
        assert field.valid.sum() == 0

    def test_determinism(self, noise_image):
        img = noise_image()
        nxt = np.roll(img, 2, axis=0)
        a = image_flow(img, nxt)
        b = image_flow(img, nxt)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
        assert np.array_equal(a.valid, b.valid)


def whole_frame_refinement(s0, s1, u, v, border, kernel):
    """One refinement iteration computed on the whole frame at once: normal
    equations, then each channel smoothed vertically and horizontally, then
    the solve.  The tiled ``flow._refine`` must reproduce it bit for bit."""
    _, h, w = s0.shape
    xs = np.clip(np.arange(w, dtype=np.float32)[None, :] + u, 0.0, w - 1.0)
    ys = np.clip(np.arange(h, dtype=np.float32)[:, None] + v, 0.0, h - 1.0)
    x0 = np.minimum(xs.astype(np.intp), w - 2)
    y0 = np.minimum(ys.astype(np.intp), h - 2)
    # float32 weights, so the warp and the normal equations stay float32
    fx = xs - x0.astype(np.float32)
    fy = ys - y0.astype(np.float32)
    s1w = [ch[y0, x0] * ((1 - fx) * (1 - fy)) + ch[y0, x0 + 1] * (fx * (1 - fy))
           + ch[y0 + 1, x0] * ((1 - fx) * fy) + ch[y0 + 1, x0 + 1] * (fx * fy)
           for ch in s1]
    axx = 0.5 * (s0[0] + s1w[0])
    ayy = 0.5 * (s0[1] + s1w[1])
    aoff = 0.5 * (s0[2] + s1w[2])
    dbx = (0.5 * (s0[3] - s1w[3]) + axx * u + aoff * v) * border
    dby = (0.5 * (s0[4] - s1w[4]) + aoff * u + ayy * v) * border
    axx, ayy, aoff = axx * border, ayy * border, aoff * border
    m = np.stack([axx * axx + aoff * aoff, (axx + ayy) * aoff, ayy * ayy + aoff * aoff,
                  axx * dbx + aoff * dby, aoff * dbx + ayy * dby]).astype(np.float32)
    for ch in m:
        tmp = ndimage.correlate1d(ch, kernel, axis=0, mode="nearest")
        ndimage.correlate1d(tmp, kernel, axis=1, mode="nearest", output=ch)
    g11, g12, g22, h1, h2 = m
    inv = 1.0 / (g11 * g22 - g12 * g12 + (1e-5 * 0.5 * (g11 + g22)) ** 2 + np.float32(1e-35))
    return (g22 * h1 - g12 * h2) * inv, (g11 * h2 - g12 * h1) * inv, m


class TestRefinementTiles:
    """The refinement builds the normal equations in tiles of as many rows
    as its buffer ``e`` holds; the tile size must never change a bit of the
    flow, and no element of the reused buffers may be read unwritten."""

    @settings(max_examples=40, deadline=None)
    @given(h=st.integers(2, 24), w=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
           half_window=st.integers(1, 7), reach=st.floats(0.0, 6.0), tile=st.integers(1, 80))
    def test_tiles_reproduce_the_whole_frame_iteration(self, h, w, seed, half_window, reach,
                                                       tile):
        rng = np.random.default_rng(seed)
        s0, s1 = rng.standard_normal((2, 5, h, w)).astype(np.float32)
        u, v = (reach * rng.standard_normal((2, h, w))).astype(np.float32)
        border = flow._border_weights(h, w)
        size = 2 * half_window + 1
        kernel = flow._gaussian_kernel(size, 0.3 * half_window).astype(np.float32)
        want_u, want_v, want_m = whole_frame_refinement(s0, s1, u, v, border, kernel)
        # tiles of a few pixels split the normal equations into many row
        # blocks; NaN in the buffers shows any element a pass reads unwritten
        m = np.full((5, h, w), np.nan, np.float32)
        e = np.full((5, max(1, tile // w) * w), np.nan, np.float32)
        got_u, got_v, got_m = flow._refine(s0, s1, u, v, border, kernel, 1, m, e)
        assert np.array_equal(got_u, want_u)
        assert np.array_equal(got_v, want_v)
        assert np.array_equal(got_m, want_m)


class TestSharedArrays:
    """Arrays that more than one pair or call reads are read-only, so a
    stray write raises instead of corrupting another pair's flow."""

    def test_pyramids_are_read_only_and_left_intact(self, noise_image):
        img = noise_image()
        a = flow_pyramid(img, 3)
        b = flow_pyramid(np.roll(img, 2, axis=1), 3)
        before = [level.tobytes() for p in (a, b) for level in p.levels]
        for level in a.levels + b.levels:
            with pytest.raises(ValueError):
                level[0, 0, 0] = 1.0
        compute_flow(a, b, 1)
        assert [level.tobytes() for p in (a, b) for level in p.levels] == before

    # every per-shape cache in flow, called twice for one shape, and the
    # window kernel that every pair smooths with
    @pytest.mark.parametrize("cached", [
        lambda: flow._band_tiles(40, (0.25, 0.5, 0.25))[1],
        lambda: flow._border_weights(12, 20),
        lambda: flow._WINDOW_KERNEL,
    ], ids=["band_tiles", "border_weights", "window_kernel"])
    def test_per_shape_caches_are_read_only(self, cached):
        array = cached()
        assert cached() is array
        with pytest.raises(ValueError):
            array[...] = 0


class TestStrideGrid:
    """The last refinement pass smooths and solves only on the stride grid;
    the field there must be the dense field's grid points, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(stride=st.integers(1, 9), levels=st.integers(1, 4),
           h=st.integers(17, 140).filter(lambda n: n % 16),
           w=st.integers(17, 180).filter(lambda n: n % 16),
           dy=st.integers(0, 3), dx=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_grid_field_is_the_dense_field_sliced(self, stride, levels, h, w, dy, dx, seed):
        assume(stride == 1 or (h % stride and w % stride))
        texture = ndimage.gaussian_filter(
            np.random.default_rng(seed).standard_normal((h + 3, w + 3)), 1.5)
        texture = 255.0 * (texture - texture.min()) / np.ptp(texture)
        a = flow_pyramid(texture[:h, :w], levels)
        b = flow_pyramid(texture[dy:dy + h, dx:dx + w], levels)
        want = on_grid(compute_flow(a, b, 1), stride)
        got = compute_flow(a, b, stride)
        assert got.stride == stride and got.u.shape == (-(-h // stride), -(-w // stride))
        assert np.array_equal(got.valid, want.valid)
        assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)


# the kernels flow correlates with: the window smoothing, the expansion's
# applicability at its radius and at a smaller one, and the pyramid blur of a level an
# eighth of the frame's size
CORR_KERNELS = {
    "window": flow._gaussian_kernel(15, 0.3 * 7),
    **{f"{name}{n}": k for n, sigma in ((2, 0.7), (POLY_N, POLY_SIGMA))
       for name, k in zip(("g", "xg", "xxg"), flow._applicability_kernels(n, sigma))},
    "blur": flow._gaussian_kernel(17, 3.5),
}
# 1024 lines along the free axis split each product into chunks (past 512 to
# 819 lines, by kernel length)
CORR_SIDES = (2, 3, 15, 16, 17, 31, 120, 260, 346, 1024)


def corr_cases(rng, dtype):
    """(x, axis) with every side in ``CORR_SIDES`` along each axis."""
    for i, n in enumerate(CORR_SIDES):
        other = CORR_SIDES[(i + 4) % len(CORR_SIDES)]
        for axis, shape in ((0, (n, other)), (1, (other, n))):
            yield (50.0 * rng.standard_normal(shape)).astype(dtype), axis


class TestCorrelate1d:
    """``flow._correlate1d`` against ``scipy.ndimage.correlate1d`` with
    replicated edges, which sums float32 data in double as well."""

    @pytest.mark.parametrize("name", sorted(CORR_KERNELS))
    def test_float32_matches_scipy_bit_for_bit(self, name):
        kernel = CORR_KERNELS[name].astype(np.float32)
        for x, axis in corr_cases(np.random.default_rng(7), np.float32):
            got = flow._correlate1d(x, kernel, axis)
            assert got.dtype == np.float32
            assert np.array_equal(got, ndimage.correlate1d(x, kernel, axis=axis, mode="nearest"))

    @pytest.mark.parametrize("name", sorted(CORR_KERNELS))
    def test_float64_agrees_to_rounding(self, name):
        kernel = CORR_KERNELS[name]
        for x, axis in corr_cases(np.random.default_rng(8), np.float64):
            got = flow._correlate1d(x, kernel, axis)
            want = ndimage.correlate1d(x, kernel, axis=axis, mode="nearest")
            # relative to the summed terms' size, as the sums cancel
            scale = ndimage.correlate1d(np.abs(x), np.abs(kernel), axis=axis, mode="nearest")
            assert got.dtype == np.float64
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_stacked_channels_and_aliased_output(self):
        x = np.random.default_rng(9).standard_normal((5, 260, 346)).astype(np.float32)
        kernel = CORR_KERNELS["window"].astype(np.float32)
        for axis in (1, 2):
            want = ndimage.correlate1d(x, kernel, axis=axis, mode="nearest")
            assert np.array_equal(flow._correlate1d(x, kernel, axis - 3), want)
        smoothed = x.copy()
        flow._smooth(smoothed, kernel, out=smoothed)
        for ch, got in zip(x, smoothed):
            tmp = ndimage.correlate1d(ch, kernel, axis=0, mode="nearest")
            assert np.array_equal(got, ndimage.correlate1d(tmp, kernel, axis=1, mode="nearest"))

    @pytest.mark.parametrize("value", [0.0, 9.0, 255.0, 0.1, 7.25, 183.7, np.pi])
    def test_constant_image_stays_constant(self, value):
        """Exactly: on any float32 constant for the symmetric kernels, and on
        the 8-bit intensities flow is given for the odd ones too."""
        for name, kernel in CORR_KERNELS.items():
            if name.startswith("xg") and value != int(value):
                continue
            for x, axis in corr_cases(np.random.default_rng(0), np.float32):
                got = flow._correlate1d(np.full_like(x, value), kernel.astype(np.float32), axis)
                assert np.all(got == got.flat[0]), (name, x.shape, axis)
                if name.startswith("xg"):
                    assert got.flat[0] == 0.0


class TestSubsampleFlow:
    def make_field(self, h=2, w=2, u=1.0, v=0.0, stride=2):
        return FlowField(u=np.full((h, w), u), v=np.full((h, w), v),
                         valid=np.ones((h, w), dtype=bool), stride=stride)

    def test_stride_grid(self):
        p, q = subsample_flow(self.make_field())
        assert p.shape == (4, 2)
        assert np.allclose(q - p, [1.0, 0.0])
        assert set(map(tuple, p)) == {(0, 0), (2, 0), (0, 2), (2, 2)}

    def test_mask_removes_point(self):
        field = self.make_field()
        field.valid[1, 0] = False
        p, q = subsample_flow(field)
        assert p.shape == (3, 2)
        assert (0.0, 2.0) not in set(map(tuple, p))

    def test_stride_one_cardinality(self):
        p, _ = subsample_flow(self.make_field(h=6, w=5, stride=1))
        assert p.shape == (30, 2)

    def test_empty_when_all_invalid(self):
        field = FlowField(u=np.zeros((4, 4)), v=np.zeros((4, 4)),
                          valid=np.zeros((4, 4), dtype=bool))
        p, q = subsample_flow(field)
        assert p.shape == (0, 2) and q.shape == (0, 2)
