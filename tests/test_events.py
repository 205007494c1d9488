import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflow.events import (AccumulationConfig, CameraModel,
                           iter_frames, make_events, max_exposure_for_blur,
                           relative_motion_blur, to_intensity, validate_events)
from helpers import add_at_reference

CAM_640 = CameraModel(width=640, height=480, height_z=0.6, fov_alpha=math.radians(60))


def cfg(window=100, w=16, h=12, cap=15):
    return AccumulationConfig(window_us=window, sensor_width=w, sensor_height=h,
                              count_cap=cap)


class TestAccumulate:
    def test_suspended_generator_holds_only_its_frame(self):
        rng = np.random.default_rng(5)
        n = 300_000
        ev = make_events(np.sort(rng.integers(0, 1000, n)), rng.integers(0, 346, n),
                         rng.integers(0, 260, n), rng.choice([-1, 1], n))
        frames = iter_frames(ev, cfg(window=1000, w=346, h=260))
        tracemalloc.start()
        try:
            frame = next(frames)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert frame.event_total == n
        # the window's index and int64 counts are not still referenced
        assert held - frame.counts.nbytes < 1_000_000

    def test_three_events_one_pixel(self):
        ev = make_events([10, 20, 30], [5, 5, 5], [5, 5, 5], [1, 1, 1])
        frames = list(iter_frames(ev, cfg()))
        assert len(frames) == 1
        assert frames[0].counts[5, 5] == 3
        assert frames[0].counts.sum() == 3
        assert frames[0].event_total == 3

    def test_empty_stream_explicit_window(self):
        frames = list(iter_frames(make_events([], [], [], []), cfg(), t_start_us=0, t_end_us=100))
        assert len(frames) == 1
        assert frames[0].event_total == 0
        assert not frames[0].counts.any()

    def test_empty_stream_no_anchor(self):
        assert list(iter_frames(make_events([], [], [], []), cfg())) == []

    def test_uniform_random_against_counting_oracle(self):
        rng = np.random.default_rng(7)
        n = 100_000
        c = AccumulationConfig(window_us=33_000, sensor_width=346, sensor_height=260,
                               count_cap=10 ** 9)
        t = np.sort(rng.integers(0, 33_000, n))
        x = rng.integers(0, 346, n)
        y = rng.integers(0, 260, n)
        p = rng.choice([-1, 1], n)
        frames = list(iter_frames(make_events(t, x, y, p), c))
        assert len(frames) == 1
        assert frames[0].counts.sum() == n

        # independent single-pass dict-based counting oracle
        oracle: dict[tuple, int] = {}
        for xi, yi in zip(x, y):
            oracle[(int(xi), int(yi))] = oracle.get((int(xi), int(yi)), 0) + 1
        for (xi, yi), count in oracle.items():
            assert frames[0].counts[yi, xi] == count

    def test_empty_middle_window(self):
        ev = make_events([10, 250], [0, 1], [0, 1], [1, -1])
        frames = list(iter_frames(ev, cfg(window=100)))
        assert len(frames) == 3
        assert frames[0].event_total == 1
        assert frames[1].event_total == 0
        assert frames[2].event_total == 1
        assert frames[1].t_start_us == 110 and frames[1].t_end_us == 210

    def test_count_cap_clips(self):
        ev = make_events(range(20), [3] * 20, [4] * 20, [1] * 20)
        frames = list(iter_frames(ev, cfg(cap=5)))
        assert frames[0].counts[4, 3] == 5
        assert frames[0].event_total == 20
        assert frames[0].counts.sum() <= frames[0].event_total

    @given(st.data(), st.integers(1, 4), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_matches_add_at_reference(self, data, cap, window):
        c = cfg(window=window, cap=cap)
        # timestamps drawn from window edges as well as anywhere in the span;
        # few pixels, so counts pass the cap
        edge = st.integers(0, 4).map(lambda k: k * window)
        rows = data.draw(st.lists(st.tuples(st.one_of(edge, st.integers(0, 1000)),
                                            st.integers(0, 2), st.integers(0, 1),
                                            st.sampled_from([-1, 1])), max_size=80))
        rows.sort(key=lambda r: r[0])
        ev = make_events(*(list(col) for col in zip(*rows))) if rows else make_events([], [], [], [])
        first = rows[0][0] if rows else 0
        t_start = data.draw(st.integers(0, first))
        t_end = data.draw(st.one_of(st.none(), st.integers(0, 1500)))
        frames = list(iter_frames(ev, c, t_start_us=t_start, t_end_us=t_end))
        want = add_at_reference(ev, c, t_start, t_end)
        assert len(frames) == len(want)
        for f, (start, end, pos, neg, total) in zip(frames, want):
            assert (f.t_start_us, f.t_end_us, f.event_total) == (start, end, total)
            assert np.array_equal(f.counts, np.minimum(pos + neg, cap))

    def test_timestamps_past_2_63(self):
        # an int64 cast of these times wraps negative and drops both events
        ev = make_events([2 ** 63 - 10, 2 ** 63 + 5], [1, 2], [3, 3], [1, -1])
        frames = list(iter_frames(ev, cfg()))
        assert len(frames) == 1 and frames[0].event_total == 2
        assert frames[0].counts[3, 1] == 1 and frames[0].counts[3, 2] == 1
        # the last uint64 timestamp falls in a window that ends past 2**64
        ev = make_events([2 ** 64 - 50, 2 ** 64 - 1], [0, 0], [0, 0], [1, 1])
        frames = list(iter_frames(ev, cfg()))
        assert len(frames) == 1 and frames[0].t_end_us == 2 ** 64 + 50
        assert frames[0].event_total == 2 and frames[0].counts[0, 0] == 2

    def test_step_past_2_63_is_in_order(self):
        ev = make_events([0, 2 ** 63 + 1], [0, 1], [0, 1], [1, 1])
        validate_events(ev, 16, 12)  # an int64 difference would read this step as negative
        # windows are produced lazily, so the long gap allocates nothing up front
        frames = iter_frames(ev, cfg())
        first = next(frames)
        assert first.event_total == 1 and first.counts[0, 0] == 1
        assert next(frames).event_total == 0

    def test_negative_start_rejected(self):
        ev = make_events([10], [0], [0], [1])
        with pytest.raises(ValueError):
            list(iter_frames(ev, cfg(), t_start_us=-100))

    @given(st.lists(st.tuples(st.integers(0, 999), st.integers(0, 15),
                              st.integers(0, 11), st.sampled_from([-1, 1])),
                    max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, rows):
        rows.sort(key=lambda r: r[0])
        ev = make_events(*(list(col) for col in zip(*rows))) if rows else make_events([], [], [], [])
        frames = list(iter_frames(ev, cfg(window=137)))
        assert sum(f.event_total for f in frames) == len(rows)
        total = sum(int(f.counts.sum()) for f in frames)
        assert total <= len(rows)

    @given(st.integers(0, 2 ** 31), st.integers(2, 180))
    @settings(max_examples=20, deadline=None)
    def test_order_insensitive_within_window(self, seed, n):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.integers(0, 100, n))
        x = rng.integers(0, 16, n)
        y = rng.integers(0, 12, n)
        p = rng.choice([-1, 1], n)
        a = list(iter_frames(make_events(t, x, y, p), cfg(), t_start_us=0))[0]
        perm = rng.permutation(n)
        b = list(iter_frames(make_events(t, x[perm], y[perm], p[perm]), cfg(), t_start_us=0))[0]
        assert np.array_equal(a.counts, b.counts)


class TestToIntensity:
    def test_all_zero(self):
        frame = list(iter_frames(make_events([], [], [], []), cfg(), t_start_us=0, t_end_us=100))[0]
        assert not to_intensity(frame, 15).any()

    def test_saturated_pixel(self):
        ev = make_events(range(15), [2] * 15, [3] * 15, [1] * 15)
        frame = list(iter_frames(ev, cfg()))[0]
        img = to_intensity(frame, 15)
        assert img[3, 2] == 255
        assert img.sum() == 255

    def test_affine_map_hand_computed(self):
        # counts {0, 4, 8} with cap 8 -> {0, 128, 255}: 4 * 255 / 8 = 127.5
        # rounds half up to 128
        ev = make_events([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                         [1] * 4 + [2] * 8, [0] * 12, [1] * 12)
        frame = list(iter_frames(ev, cfg(cap=8)))[0]
        img = to_intensity(frame, 8)
        assert img[0, 0] == 0 and img[0, 1] == 128 and img[0, 2] == 255

    @given(st.data(), st.one_of(st.just(1), st.integers(2, 6)))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_polarity_image(self, data, cap):
        # each pixel's (positive, negative) counts: both polarities, past the
        # cap in one polarity, in both, or only in their sum
        low, high = st.integers(0, cap), st.integers(cap + 1, 2 * cap + 2)
        only_sum = st.integers(1, cap).flatmap(
            lambda pos: st.tuples(st.just(pos), st.integers(cap - pos + 1, cap)))
        pixel = st.one_of(st.tuples(st.integers(1, cap + 2), st.integers(1, cap + 2)),
                          st.tuples(high, low), st.tuples(low, high),
                          st.tuples(high, high), only_sum, st.just((0, 0)))
        counts = data.draw(st.lists(pixel, min_size=12, max_size=12))
        rows = data.draw(st.permutations(
            [(i % 4, i // 4, p) for i, (pos, neg) in enumerate(counts)
             for p, n in ((1, pos), (-1, neg)) for _ in range(n)]))
        ev = make_events([0] * len(rows), *([row[k] for row in rows] for k in range(3)))
        c = cfg(w=4, h=3, cap=cap)
        frame = list(iter_frames(ev, c, t_start_us=0))[0]
        (_, _, pos, neg, _), = add_at_reference(ev, c, 0, None)
        # the image as two grids clipped at the cap, summed and clipped again
        summed = np.minimum(np.minimum(pos, cap) + np.minimum(neg, cap), cap)
        want = np.floor(summed.astype(np.float64) * (255.0 / cap) + 0.5).astype(np.uint8)
        assert np.array_equal(to_intensity(frame, cap), want)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_count(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 20, size=40)
        ev = make_events(np.arange(counts.sum()),
                         np.repeat(np.arange(40) % 16, counts),
                         np.repeat(np.arange(40) // 16 % 12, counts),
                         np.ones(counts.sum(), dtype=np.int8))
        frame = list(iter_frames(ev, cfg(cap=15), t_start_us=0))[0]
        img = to_intensity(frame, 15)
        order = np.argsort(frame.counts.ravel(), kind="stable")
        assert np.all(np.diff(img.ravel()[order].astype(int)) >= 0)


class TestCameraModel:
    def test_focal_from_fov_anchor(self):
        assert CAM_640.f_px == pytest.approx(554.256, abs=0.01)

    def test_consistency_gate(self):
        CameraModel(width=640, height=480, height_z=0.6, f_px=554.0,
                    fov_alpha=math.radians(60))
        with pytest.raises(ValueError):
            CameraModel(width=640, height=480, height_z=0.6, f_px=500.0,
                        fov_alpha=math.radians(60))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CameraModel(width=640, height=480, height_z=0.0, f_px=554.0)
        with pytest.raises(ValueError):
            CameraModel(width=640, height=480, height_z=0.6, fov_alpha=math.pi)
        with pytest.raises(ValueError):
            CameraModel(width=640, height=480, height_z=0.6)


class TestBlurBudget:
    def test_highway_anchor(self):
        blur = relative_motion_blur(170e-6, 40.0, CAM_640)
        assert 0.0095 <= blur <= 0.0100

    def test_zero_speed(self):
        assert relative_motion_blur(1.0, 0.0, CAM_640) == 0.0

    def test_disk_anchor(self):
        cam = CameraModel(width=640, height=480, height_z=0.3, fov_alpha=math.radians(60))
        blur = relative_motion_blur(0.87e-3, 5.65, cam)
        assert blur == pytest.approx(0.014, abs=5e-4)
        assert blur * 640 == pytest.approx(9.1, abs=0.05)

    def test_max_exposure_anchor(self):
        t = max_exposure_for_blur(0.01, 40.0, CAM_640)
        assert t * 1e6 == pytest.approx(173.2, abs=0.5)

    def test_linear_in_speed(self):
        assert max_exposure_for_blur(0.01, 20.0, CAM_640) == pytest.approx(
            2 * max_exposure_for_blur(0.01, 40.0, CAM_640), rel=1e-12)

    def test_no_limit_at_zero_speed(self):
        assert max_exposure_for_blur(0.01, 0.0, CAM_640) == math.inf

    @given(st.floats(1e-6, 1e-2), st.floats(0.1, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, t_exp, v):
        blur = relative_motion_blur(t_exp, v, CAM_640)
        assert max_exposure_for_blur(blur, v, CAM_640) == pytest.approx(t_exp, rel=1e-12)

    @given(st.floats(1e-6, 1e-2), st.floats(0.1, 50.0), st.floats(0.1, 2.0),
           st.floats(0.3, 2.5))
    @settings(max_examples=50, deadline=None)
    def test_monotonicity(self, t_exp, v, z, alpha):
        cam = CameraModel(width=640, height=480, height_z=z, fov_alpha=alpha)
        base = relative_motion_blur(t_exp, v, cam)
        assert relative_motion_blur(t_exp * 1.1, v, cam) > base
        assert relative_motion_blur(t_exp, v * 1.1, cam) > base
        taller = CameraModel(width=640, height=480, height_z=z * 1.1, fov_alpha=alpha)
        assert relative_motion_blur(t_exp, v, taller) < base
        wider = CameraModel(width=640, height=480, height_z=z, fov_alpha=min(alpha * 1.1, 3.0))
        assert relative_motion_blur(t_exp, v, wider) < base
