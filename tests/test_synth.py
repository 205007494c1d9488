import errno
import functools
import hashlib
import inspect
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evflow
from evflow import event_io, parallel, state_io, synth
from evflow.cli import main as cli_main
from evflow.config import RunConfig, Scenario
from evflow.errors import WorkerError
from evflow.event_io import write_events_binary
from evflow.events import EVENT_DTYPE, CameraModel, make_events, validate_events
from evflow.flow import FlowField
from evflow.pipeline import iter_pairs
from evflow.rigid import estimate_rigid, ransac_estimate, reconstruct_flow
from evflow.synth import (N_WAVES, CheckerTexture, DotTexture, GridCoord, LatticeBox,
                          NoiseTexture, SimConfig, Trajectory, _bands, _bilinear_lattice,
                          _crossings, _sorted_records, _time_order, generate_events,
                          sample_texture)
from evflow.vehicle import Extrinsics, ImuSeries
from helpers import (assert_no_child_left, constant_trajectory, inject_outliers, logged,
                     render_plane)

CAM = CameraModel(width=101, height=81, height_z=0.5, f_px=100.0)


def sim(texture=None, cam=CAM, **kw):
    kw.setdefault("noise_rate", 0.0)
    kw.setdefault("duration", 0.05)
    kw.setdefault("time_step", 1e-3)
    return SimConfig(texture=texture or NoiseTexture(seed=3), cam=cam, **kw)


@dataclass(frozen=True)
class FourFoldTexture:
    """cos(kx) + cos(ky): invariant under 90-degree rotation about the origin."""

    period_px: float = 10.0

    def values(self, tx, ty):
        k = 2 * math.pi / self.period_px
        return np.cos(k * np.asarray(tx)) + np.cos(k * np.asarray(ty))

    def lattice(self, ix, iy):
        return self.values(np.asarray(ix, float), np.asarray(iy, float))


def scattered(xs, ys):
    """Plane points (``xs[j]``, ``ys[j]``) as the coordinates of a grid of one zero row."""
    return (GridCoord(np.asarray(xs, dtype=np.float64), np.zeros(1)),
            GridCoord(np.asarray(ys, dtype=np.float64), np.zeros(1)))


def plane_coords(pose, cam):
    """Texture coordinates of every pixel under a plane pose (x, y, yaw)."""
    x, y, yaw = pose
    scale = cam.f_px / cam.height_z
    u = (np.arange(cam.width, dtype=np.float64) - cam.cx)[None, :] - x * scale
    v = (np.arange(cam.height, dtype=np.float64) - cam.cy)[:, None] - y * scale
    c, s = math.cos(yaw), math.sin(yaw)
    return c * u + s * v, -s * u + c * v


def reference_noise(tex, tx, ty):
    """The noise texture as a per-wave float64 sum of cosines."""
    rng = np.random.default_rng(tex.seed)
    mag = 2 * math.pi * rng.uniform(0.2 * tex.cutoff, tex.cutoff, N_WAVES)
    ang = rng.uniform(0.0, 2 * math.pi, N_WAVES)
    phase = rng.uniform(0.0, 2 * math.pi, N_WAVES)
    amp = tex.amplitude * math.sqrt(2.0 / N_WAVES)
    out = np.zeros(np.broadcast_shapes(np.shape(tx), np.shape(ty)))
    for m, a, ph in zip(mag, ang, phase):
        out += amp * np.cos(m * np.cos(a) * tx + m * np.sin(a) * ty + ph)
    return out


def _splitmix64(z):
    z = (z + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _hash_unit(ix, iy, salt):
    h = _splitmix64(ix.astype(np.int64).view(np.uint64)
                    ^ _splitmix64(iy.astype(np.int64).view(np.uint64)
                                  ^ np.uint64(salt & 0xFFFFFFFFFFFFFFFF)))
    return h.astype(np.float64) / 2.0 ** 64


def reference_dot_lattice(tex, ix, iy):
    """The dot lattice hashing the four candidate cells at every point."""
    s, r = tex.cell_px, tex.radius_px
    x = np.asarray(ix, dtype=np.float64)
    y = np.asarray(iy, dtype=np.float64)
    cxa = np.floor((x - r) / s).astype(np.int64)
    cxb = np.floor((x + r) / s).astype(np.int64)
    cya = np.floor((y - r) / s).astype(np.int64)
    cyb = np.floor((y + r) / s).astype(np.int64)
    value = np.zeros(x.shape, dtype=np.float64)
    for nx in (cxa, cxb):
        for ny in (cya, cyb):
            jx = 0.25 + 0.5 * _hash_unit(nx, ny, tex.seed * 2 + 1)
            jy = 0.25 + 0.5 * _hash_unit(nx, ny, tex.seed * 2 + 2)
            dist = np.hypot(x - (nx + jx) * s, y - (ny + jy) * s)
            np.maximum(value, 1.0 - dist / r, out=value)
    return tex.amplitude * np.maximum(value, 0.0)


def reference_bilinear(lattice, tx, ty):
    """Bilinear sampling that evaluates the lattice at each corner of each point."""
    x0 = np.floor(tx).astype(np.int64)
    y0 = np.floor(ty).astype(np.int64)
    fx, fy = tx - x0, ty - y0
    return (lattice(x0, y0) * (1 - fx) * (1 - fy) + lattice(x0 + 1, y0) * fx * (1 - fy)
            + lattice(x0, y0 + 1) * (1 - fx) * fy + lattice(x0 + 1, y0 + 1) * fx * fy)


class TestRenderPlane:
    def test_checker_identity_pose(self):
        img = render_plane(CheckerTexture(period_px=16.0), (0.0, 0.0, 0.0), CAM)
        # principal point is integer for odd dimensions; cells flip exactly
        # at texture multiples of 16
        xs = np.arange(CAM.width) - CAM.cx
        row = img[40]
        cell = np.floor(xs / 16.0).astype(int)
        change = np.flatnonzero(np.diff(row) != 0)
        assert set(xs[change + 1]) <= set(xs[np.flatnonzero(np.diff(cell) != 0) + 1])
        assert np.array_equal(np.unique(img), [0.0, 1.0])

    def test_translation_shift_oracle(self):
        tex = NoiseTexture(seed=4)
        base = render_plane(tex, (0.0, 0.0, 0.0), CAM)
        dx_m = 0.03  # 6 px at f/z = 200
        moved = render_plane(tex, (dx_m, 0.0, 0.0), CAM)
        shift = round(dx_m * CAM.f_px / CAM.height_z)
        # the texture is float64; the tolerance covers its rounding
        assert np.abs(moved[:, shift:] - base[:, :-shift]).max() < 1e-12

    def test_translation_shift_oracle_lattice_texture(self):
        tex = CheckerTexture(period_px=16.0)
        base = render_plane(tex, (0.0, 0.0, 0.0), CAM)
        moved = render_plane(tex, (0.03, 0.0, 0.0), CAM)
        assert np.abs(moved[:, 6:] - base[:, :-6]).max() < 1e-9

    def test_quarter_turn_on_fourfold_texture(self):
        tex = FourFoldTexture()
        base = render_plane(tex, (0.0, 0.0, 0.0), CAM)
        turned = render_plane(tex, (0.0, 0.0, math.pi / 2), CAM)
        # square center crop so the rotated comparison stays on-sensor
        crop = base[:, 10:91]
        got = turned[:, 10:91]
        assert np.abs(got - np.rot90(crop, k=-1)).max() < 1e-9

    def test_rejects_non_finite_pose(self):
        with pytest.raises(ValueError):
            render_plane(NoiseTexture(), (math.nan, 0.0, 0.0), CAM)


class TestTextures:
    def test_sample_texture_bilinear_between_lattice(self):
        tex = CheckerTexture(period_px=4.0)
        v0 = tex.lattice(np.array([3]), np.array([0]))[0]
        v1 = tex.lattice(np.array([4]), np.array([0]))[0]
        mid = sample_texture(tex, *scattered([3.5], [0.0]))[0, 0]
        assert mid == pytest.approx(0.5 * (v0 + v1))

    def test_dot_radius_cap(self):
        with pytest.raises(ValueError):
            DotTexture(density=0.01, radius_px=3.0)  # cell 10 px -> cap 2.5

    def test_dot_field_has_dots(self):
        tex = DotTexture(density=0.01, radius_px=2.0, seed=1)
        grid = tex.lattice(*np.meshgrid(np.arange(60), np.arange(60)))
        assert grid.max() > 0.5 * tex.amplitude
        assert (grid == 0).mean() > 0.3  # background between dots

    @pytest.mark.parametrize("pose", [(0.0, 0.0, 0.0), (0.37, -0.81, 0.6),
                                      (-2.5, 1.9, -2.2), (4.0, 3.0, math.pi / 4)])
    def test_noise_matches_per_wave_cosines(self, pose):
        tex = NoiseTexture(seed=17)
        tx, ty = plane_coords(pose, CAM)
        grid = render_plane(tex, pose, CAM)
        assert np.abs(grid - reference_noise(tex, tx, ty)).max() < 1e-12

    @given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0), yaw=st.floats(-4.0, 4.0),
           seed=st.integers(0, 2 ** 31),
           points=st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6),
                                     st.integers(-10 ** 6, 10 ** 6)), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_lattice_textures_match_per_point_evaluation(self, x, y, yaw, seed, points):
        cam = CameraModel(width=41, height=33, height_z=0.5, f_px=100.0)
        tx, ty = plane_coords((x, y, yaw), cam)
        dots = DotTexture(density=0.01, radius_px=2.5, seed=seed)
        checker = CheckerTexture(period_px=7.0)
        ref_dots = lambda ix, iy: reference_dot_lattice(dots, ix, iy)
        assert np.array_equal(render_plane(dots, (x, y, yaw), cam),
                              reference_bilinear(ref_dots, tx, ty))
        assert np.array_equal(_bilinear_lattice(LatticeBox(dots.lattice), tx, ty),
                              reference_bilinear(ref_dots, tx, ty))
        assert np.array_equal(render_plane(checker, (x, y, yaw), cam),
                              reference_bilinear(checker.lattice, tx, ty))
        ix, iy = np.floor(tx).astype(np.int64), np.floor(ty).astype(np.int64)
        assert np.array_equal(dots.lattice(ix, iy), reference_dot_lattice(dots, ix, iy))
        # scattered points, whose box is far larger than their count
        px, py = (np.array(c, dtype=np.int64) for c in zip(*points))
        assert np.array_equal(dots.lattice(px, py), reference_dot_lattice(dots, px, py))
        fx, fy = px + 0.25, py - 0.5
        assert np.array_equal(sample_texture(dots, *scattered(fx, fy))[0],
                              reference_bilinear(ref_dots, fx, fy))

    def test_textures_deterministic(self):
        a = NoiseTexture(seed=5).values(*scattered(np.arange(10.0), np.arange(10.0)))
        b = NoiseTexture(seed=5).values(*scattered(np.arange(10.0), np.arange(10.0)))
        assert np.array_equal(a, b)


class TestLatticeBox:
    """``generate_events`` gathers a lattice texture's corners from one box
    per run, refilled only when a render's corner rectangle leaves it."""

    @given(start=st.tuples(st.floats(-4.0, 4.0), st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)),
           steps=st.lists(st.tuples(st.floats(-0.6, 0.6), st.floats(-30.0, 30.0),
                                    st.floats(-30.0, 30.0)), min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_run_box_renders_equal_per_render_boxes(self, start, steps, seed):
        cam = CameraModel(width=41, height=33, height_z=0.5, f_px=100.0)
        poses = [start]
        for step in steps:
            poses.append(tuple(a + b for a, b in zip(poses[-1], step)))
        # a last jump of three footprints leaves whatever box the path built
        psi, cx, cy = poses[-1]
        poses.append((psi, cx + 3 * cam.width, cy - 3 * cam.height))
        for tex in (DotTexture(density=0.01, radius_px=2.5, seed=seed),
                    CheckerTexture(period_px=7.0)):
            box = synth.LatticeBox(tex.lattice)
            with mock.patch.object(box, "fill", wraps=box.fill) as fill:
                for psi, cx, cy in poses:
                    c_px = np.array([cx, cy])
                    assert np.array_equal(synth._render(tex, psi, c_px, cam, box),
                                          synth._render(tex, psi, c_px, cam))
            assert fill.call_count >= 2

    def test_box_holds_at_most_four_footprints(self):
        """A long turning drive: every render's box holds its corner rectangle
        and at most 4 times the cells of the largest one so far."""
        cam = CameraModel(width=41, height=33, height_z=0.5, f_px=100.0)
        cfg = sim(DotTexture(seed=2), cam=cam, duration=0.2, time_step=1e-3)
        records = []
        real = synth.LatticeBox.gather

        def recording(box, x0, y0, reach=0):
            out = real(box, x0, y0, reach)
            if box.fn == cfg.texture.lattice:
                footprint = ((int(x0.max()) - int(x0.min()) + 2)
                             * (int(y0.max()) - int(y0.min()) + 2))
                rows, cols = box.values.shape
                assert box.x_lo <= x0.min() and x0.max() + 1 < box.x_lo + cols
                assert box.y_lo <= y0.min() and y0.max() + 1 < box.y_lo + rows
                records.append((footprint, box.values.size, box.x_lo, box.y_lo))
            return out

        # one process, so that every render is recorded here
        with mock.patch.object(synth.LatticeBox, "gather", recording), \
                mock.patch.object(parallel, "default_workers", lambda: 1):
            generate_events(cfg, Trajectory([0.0, 0.2], [5.0, 3.0], [1.0, -2.0], [8.0, 8.0]))
        assert len(records) == 201  # the first level and one per substep
        largest = 0
        for footprint, cells, _, _ in records:
            largest = max(largest, footprint)
            assert cells <= 4 * largest
        assert len({(x_lo, y_lo) for _, _, x_lo, y_lo in records}) >= 4  # refilled on the way

    @pytest.mark.parametrize("name, fills", [("dot_disk", 1), ("dot_drive", 2)])
    def test_lattice_box_fills_per_run(self, name, fills):
        """The spinning disk never leaves its first box; the dot drive does."""
        cfg, traj = pinned_scenario(name)
        # one process, so that every fill is counted here
        with mock.patch.object(synth.LatticeBox, "fill", autospec=True,
                               side_effect=synth.LatticeBox.fill) as fill, \
                mock.patch.object(parallel, "default_workers", lambda: 1):
            generate_events(cfg, traj)
        # fills with another function are DotTexture.lattice's own dot-center boxes
        assert sum(c.args[0].fn == cfg.texture.lattice for c in fill.call_args_list) == fills


class TestTrajectory:
    def test_piecewise_linear_interp(self):
        tr = Trajectory([0.0, 1.0], [0.0, 2.0], [0.0, 0.0], [1.0, 3.0])
        v_lon, v_lat, omega = tr.at(0.25)
        assert v_lon == pytest.approx(0.5) and omega == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            Trajectory([0.0, 1.0], [1.0, math.inf], [0.0, 0.0], [0.0, 0.0])


class TestGenerateEvents:
    def test_zero_velocity_zero_events(self):
        ev, truth = generate_events(sim(duration=0.01), constant_trajectory(0.01))
        assert ev.size == 0
        assert len(truth) == 11  # substep-boundary ground truth rows

    def test_stream_invariants_hold(self):
        ev, _ = generate_events(sim(noise_rate=5.0, seed=2),
                                constant_trajectory(0.05, v_lon=1.0))
        validate_events(ev, CAM.width, CAM.height)
        assert ev["t_us"].max() < 50_000

    def test_event_count_scales_with_speed(self):
        cfg = sim()
        n1 = generate_events(cfg, constant_trajectory(0.05, v_lon=1.0))[0].size
        n2 = generate_events(cfg, constant_trajectory(0.05, v_lon=2.0))[0].size
        assert n2 == pytest.approx(2 * n1, rel=0.25)

    def test_bit_identical_given_seeds(self):
        cfg = sim(noise_rate=3.0, seed=12)
        tr = constant_trajectory(0.05, v_lon=1.2, omega=1.0)
        a, _ = generate_events(cfg, tr)
        b, _ = generate_events(cfg, tr)
        assert np.array_equal(a, b)

    def test_ground_truth_satisfies_axle_transfer_exactly(self):
        ext = Extrinsics(ca_x=0.4, ca_y=-0.2)
        cfg = sim(ext=ext, duration=0.04)
        tr = Trajectory([0.0, 0.04], [1.0, 2.0], [0.1, -0.1], [0.5, 2.0])
        _, truth = generate_events(cfg, tr)
        for g in truth:
            v_lon, v_lat, omega = (float(x) for x in tr.at(g.t_mid))
            assert g.omega == omega
            assert g.v_lon == v_lon + omega * -ext.ca_y  # exact arithmetic identity
            assert g.v_lat == v_lat + omega * ext.ca_x

    def test_polarity_antisymmetry_under_reversal(self):
        # the first leg ends at rest and the second retraces it backwards:
        # each pixel's levels run back through the same values, so its
        # polarity sequence is its own reverse, negated
        tr = Trajectory([0.0, 0.02, 0.05, 0.08, 0.1], [0.5, 1.5, 0.0, -1.5, -0.5],
                        [0.0, 0.2, 0.0, -0.2, 0.0], [0.0, 2.0, 0.0, -2.0, 0.0])
        ev, _ = generate_events(sim(duration=0.1), tr)
        seq = {}
        for x, y, p in zip(ev["x"], ev["y"], ev["p"]):
            seq.setdefault((int(x), int(y)), []).append(int(p))
        assert len(seq) > 1000
        for key, polarities in seq.items():
            assert polarities == [-p for p in reversed(polarities)], key

    def test_timestamps_clamped_inside_duration(self):
        ev, _ = generate_events(sim(duration=0.02, noise_rate=2.0, seed=5),
                                constant_trajectory(0.02, v_lon=2.0))
        assert ev["t_us"].max() <= 19_999

    def test_equal_timestamps_keep_emission_order(self):
        # slow enough that no pixel crosses two levels in one substep, so
        # inside a substep equal timestamps hold rising events first, then
        # each polarity in raster order; substep boundaries (whole ms) can
        # tie events of two substeps and are left out
        ev, _ = generate_events(sim(DotTexture(seed=4), duration=0.02),
                                constant_trajectory(0.02, v_lon=0.5, omega=2.0))
        ev = ev[ev["t_us"] % 1000 != 0]
        order = np.lexsort((ev["x"], ev["y"], -ev["p"].astype(np.int64), ev["t_us"]))
        assert np.array_equal(order, np.arange(ev.size))
        t_mixed = np.intersect1d(ev["t_us"][ev["p"] > 0], ev["t_us"][ev["p"] < 0])
        assert t_mixed.size > 100  # ties between polarities do occur

    def test_last_microsecond_kept(self):
        d = 0.000249  # d * 1e6 is 248.99999999999997, which int() truncates to 248
        cam = CameraModel(width=8, height=8, height_z=0.5, f_px=100.0)
        ev, _ = generate_events(sim(cam=cam, duration=d, noise_rate=2e5, seed=1),
                                constant_trajectory(d))
        assert ev["t_us"].max() == round(d * 1e6) - 1 == 248

    def test_records_of_one_microsecond_keep_the_crossing_order(self):
        # contrast 1 and anchor 0: a level's band is round(level); pixel (x, y)
        # crosses new - old bands, 1 to 3 in either direction, and the
        # crossings and the noise all fall inside microsecond 7
        old = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.1, 0.0]])
        new = np.array([[2.0, -1.0, 3.0, 1.0], [-3.0, 1.0, -0.9, 0.3]])
        anchor = np.zeros_like(old)
        raster = (np.tile(np.arange(4, dtype=np.uint16), 2),
                  np.repeat(np.arange(2, dtype=np.uint16), 4))
        noise = (np.array([7.3, 7.0, 7.1]), np.array([3, 0, 3], dtype=np.uint16),
                 np.array([1, 0, 1], dtype=np.uint16), np.array([-1, 1, 1], dtype=np.int8))
        columns = _crossings(old, _bands(old, anchor, 1.0), new, _bands(new, anchor, 1.0),
                             anchor, 1.0, 7e-6, 0.4e-6, raster, noise)
        ev = _sorted_records(columns, 100)
        want = [(0, 0, 1), (2, 0, 1), (3, 0, 1), (1, 1, 1),  # level 1, rising
                (1, 0, -1), (0, 1, -1), (2, 1, -1),  # level 1, falling
                (0, 0, 1), (2, 0, 1), (1, 1, 1),  # level 2
                (1, 0, -1), (0, 1, -1),
                (2, 0, 1), (0, 1, -1),  # level 3
                (3, 1, -1), (0, 0, 1), (3, 1, 1)]  # noise, in draw order
        assert ev["t_us"].tolist() == [7] * len(want)
        assert list(zip(ev["x"].tolist(), ev["y"].tolist(), ev["p"].tolist())) == want

    # count 5 (3 index bits): spans on either side of the uint32 key's last
    # bit and of the uint64 key's, past which the stable argsort runs
    @given(log_count=st.integers(0, 10), count_delta=st.sampled_from([-1, 0, 1]),
           key_bits=st.sampled_from([8, 32, 64]), span_delta=st.integers(-2, 1),
           base=st.integers(0, 2 ** 40), distinct=st.integers(1, 8),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(log_count=2, count_delta=1, key_bits=32, span_delta=-1, base=3, distinct=4, seed=0)
    @example(log_count=2, count_delta=1, key_bits=32, span_delta=0, base=3, distinct=4, seed=0)
    @example(log_count=2, count_delta=1, key_bits=64, span_delta=-1, base=0, distinct=4, seed=1)
    @example(log_count=2, count_delta=1, key_bits=64, span_delta=0, base=0, distinct=4, seed=1)
    @settings(max_examples=80, deadline=None)
    def test_time_order_is_the_stable_argsort(self, log_count, count_delta, key_bits,
                                              span_delta, base, distinct, seed):
        # the key holds the offset from the first timestamp above b index bits
        count = max(1, 2 ** log_count + count_delta)
        b = (count - 1).bit_length()
        span = min(max(0, 2 ** max(0, key_bits - b) + span_delta), 2 ** 63 - 1)
        base = min(base, 2 ** 63 - 1 - span)
        rng = np.random.default_rng(seed)
        # few distinct timestamps, so that most records tie with others
        values = base + rng.integers(0, span, distinct, endpoint=True)
        t_us = rng.choice(values, count)
        ends = rng.permutation(count)[:2]
        t_us[ends] = [base, base + span][:ends.size]
        order, t_sorted = _time_order(t_us)
        want = np.argsort(t_us, kind="stable")
        assert np.array_equal(order, want)
        assert t_sorted.dtype == np.uint64
        assert np.array_equal(t_sorted, t_us[want].astype(np.uint64))


def pinned_scenario(name):
    """Three short streams with noise on: a 346x260 noise-texture drive, a
    160x120 spinning dot disk, and a 160x120 dot drive that translates about
    130 px while it turns, far enough to leave its first lattice box."""
    if name == "noise_drive":
        cam = CameraModel(width=346, height=260, height_z=1.2, fov_alpha=math.radians(90))
        return (SimConfig(texture=NoiseTexture(seed=11), cam=cam, noise_rate=0.5,
                          duration=0.02, time_step=33e-3 / 8, seed=1),
                Trajectory([0.0, 0.02], [0.5, 2.5], [0.0, 0.2], [0.0, 0.5]))
    cam = CameraModel(width=160, height=120, height_z=0.5, f_px=100.0)
    dots = DotTexture(density=0.01, radius_px=2.5, seed=21)
    if name == "dot_drive":
        return (SimConfig(texture=dots, cam=cam, contrast=0.5, noise_rate=0.1,
                          duration=0.06, time_step=1e-3, seed=17),
                Trajectory([0.0, 0.03, 0.06], [10.0, 12.0, 9.0], [2.0, -3.0, 1.0],
                           [1.0, 6.0, -4.0]))
    return (SimConfig(texture=dots, cam=cam, noise_rate=0.1, duration=0.01,
                      time_step=1e-3 / 8, seed=13),
            constant_trajectory(0.01, omega=37.70))


# (event count, SHA-256 of the records): noise_drive and dot_disk recorded
# when the simulator still concatenated per-substep chunks, dot_drive when it
# still evaluated the lattice afresh for every render
PINNED_STREAMS = {
    "noise_drive": (418_647, "7787a74a67d5485edb963dc90d3ef2ac193ed73845610d30772d988647f2baf6"),
    "dot_disk": (137_102, "e7d6dbab4becace5d21e49eba484867684cdcbad6401f8902ee0c39fd2c6fdc6"),
    "dot_drive": (293_107, "231ea9363acf59bd4bbf60d3ec98dffd5caf95659bae04482920fb79fd71efa2"),
}


# the estimator's run over each pinned stream: its sensor, window, stride and
# RANSAC switch; ``dot_drive`` reads its yaw rate from an IMU series of the truth
PINNED_RUNS = {
    "noise_drive": "accumulation.window_us = 4000\nflow.stride = 8\nflow.pyramid_levels = 4\n"
                   "ransac.enabled = false\n",
    "dot_disk": "accumulation.window_us = 2000\nflow.stride = 7\nransac.enabled = true\n",
    "dot_drive": "accumulation.window_us = 5000\nflow.stride = 5\nransac.enabled = true\n"
                 "omega.source = imu\nio.imu = imu.csv\n",
}

# SHA-256 of the estimates CSV of each pinned run, and of pair 2's flow-debug
# CSV and SVG on noise_drive; taken with numpy 2.4.6 and its bundled OpenBLAS
# 0.3.31, whose float64 band products the flow's window passes run through
PINNED_ESTIMATES = {
    "noise_drive": "1e43649424be4242b3c9923123b2466d2e6f9800b592e451a0730ff1a188c7c2",
    "dot_disk": "674b58175b0957d989f708993958c3796f2b5dfe2dc4307c699533483d2806b1",
    "dot_drive": "1a9552cbd5d7ba7ace228e5d91f998cc5c03e5d64d930b6ce2eac6585af64824",
    "flow_00002.csv": "b873e4e3a6bc8b7fa8b0c2dce012dae5101bf93140f9ecfbb51e61a367d50fc9",
    "flow_00002.svg": "fa48762f1e713cb357842206f9167ea77fed811cb47362ca78eb51d339496895",
}


@functools.lru_cache(maxsize=None)
def pinned_stream(name):
    """``pinned_scenario(name)``'s events and truth, simulated once per test run."""
    ev, truth = generate_events(*pinned_scenario(name))
    return ev, truth


def pinned_run_config(name, tmp_path):
    cam = pinned_scenario(name)[0].cam
    text = (f"camera.width = {cam.width}\ncamera.height = {cam.height}\n"
            f"camera.height_z = {cam.height_z!r}\ncamera.f_px = {cam.f_px!r}\n"
            f"io.out_dir = {tmp_path / 'out'}\nseed = 5\n" + PINNED_RUNS[name])
    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    return RunConfig.from_text(text), path


def file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _estimates_digest(events, truth, cfg, path) -> str:
    """SHA-256 of the estimates CSV that ``cfg``'s run over ``events`` writes
    to ``path``; a run with ``omega.source = imu`` reads the yaw rate of
    ``truth``."""
    import hashlib
    from pathlib import Path

    import numpy as np

    from evflow import state_io
    from evflow.pipeline import iter_pairs
    from evflow.vehicle import ImuSeries

    imu = None
    if cfg.omega_source == "imu":
        t = np.array([g.t_mid for g in truth])
        imu = ImuSeries((t * 1e6).round().astype(np.int64), [g.omega for g in truth])
    state_io.write_velocity_csv(path, (pair.estimate for pair in
                                       iter_pairs(events, cfg, imu=imu)))
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestPinnedEstimates:
    """The bytes the estimator writes for the pinned streams; one, two or
    three pair processes write the same (three split only ``dot_drive``'s
    12 windows: the others' 5 are too few to give each block two)."""

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_estimates_bytes_are_pinned(self, name, tmp_path):
        events, truth = pinned_stream(name)
        cfg, _ = pinned_run_config(name, tmp_path)
        digests = set()
        for workers in (1, 2, 3):
            with mock.patch.object(parallel, "default_workers", lambda: workers):
                digests.add(_estimates_digest(events, truth, cfg,
                                              tmp_path / f"estimates_{workers}.csv"))
        assert digests == {PINNED_ESTIMATES[name]}

    def test_flow_debug_bytes_are_pinned(self, tmp_path):
        events, _ = pinned_stream("noise_drive")
        cfg, run_cfg = pinned_run_config("noise_drive", tmp_path)
        ev_path = tmp_path / "events.evt"
        write_events_binary(ev_path, events, cfg.camera.width, cfg.camera.height)
        assert cli_main(["flow-debug", "--config", str(run_cfg), "--events", str(ev_path),
                         "--pair-index", "2"]) == 0
        for name in ("flow_00002.csv", "flow_00002.svg"):
            assert file_sha256(tmp_path / "out" / name) == PINNED_ESTIMATES[name], name


class TestEventBuffer:
    """``generate_events`` spools each substep's records to one unlinked
    file, which it returns mapped read-only, and ``simulate`` writes that
    mapping out by way of a new name it renames over the events path."""

    @pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
    def test_stream_bytes_are_pinned(self, name):
        ev, _ = pinned_stream(name)
        assert (ev.size, hashlib.sha256(ev.tobytes()).hexdigest()) == PINNED_STREAMS[name]

    @given(duration=st.floats(1e-3, 0.012), noise_rate=st.sampled_from([0.0, 50.0, 2e3]),
           v_lon=st.floats(0.0, 3.0), omega=st.floats(-20.0, 20.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(duration=0.012, noise_rate=2e3, v_lon=3.0, omega=20.0, seed=0)
    @example(duration=1e-3, noise_rate=0.0, v_lon=0.0, omega=0.0, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_buffer_equals_the_concatenated_substep_records(self, duration, noise_rate, v_lon,
                                                            omega, seed):
        # one worker, so that make_events is called here in stream order
        records = []

        def recording(*args):
            records.append(make_events(*args))
            return records[-1]

        cfg = sim(duration=duration, noise_rate=noise_rate, seed=seed)
        with mock.patch.object(synth, "make_events", recording), \
                mock.patch.object(parallel, "default_workers", lambda: 1):
            ev, _ = generate_events(cfg, constant_trajectory(duration, v_lon=v_lon,
                                                             omega=omega))
        want = np.concatenate(records) if records else np.empty(0, dtype=EVENT_DTYPE)
        assert ev.dtype == EVENT_DTYPE and ev.size == want.size
        assert ev.tobytes() == want.tobytes()
        assert not ev.flags.writeable

    def test_a_stream_without_events_writes_header_only_files(self, tmp_path):
        scenario = tmp_path / "still.cfg"
        scenario.write_text(WIDE_SCENARIO.replace("1.0, 1.0", "0.0, 0.0")
                            + "sim.noise_rate = 0\n")
        for name, header in (("events.evt", b"EVT1\xc8\x00\xc8\x00"),
                             ("events.csv", b"t_us,x,y,p\n")):
            assert cli_main(["simulate", str(scenario), "--events", str(tmp_path / name)]) == 0
            assert (tmp_path / name).read_bytes() == header

    def test_a_spool_that_cannot_be_created_exits_2(self, tmp_path, capsys, monkeypatch):
        scenario, events = tmp_path / "wide.cfg", tmp_path / "events.evt"
        scenario.write_text(WIDE_SCENARIO)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        assert cli_main(["simulate", str(scenario), "--events", str(events)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: cannot spool the event stream in ")
        assert "Traceback" not in err and not events.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("name", ["events.evt", "events.csv"])
    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    def test_a_write_cut_short_exits_2_and_leaves_the_path_as_it_was(
            self, tmp_path, capsys, monkeypatch, name, existing):
        scenario, events = tmp_path / "wide.cfg", tmp_path / "out" / name
        scenario.write_text(WIDE_SCENARIO)
        events.parent.mkdir()
        if existing:
            events.write_bytes(b"earlier bytes")

        def cut_short(records):  # the first records go out, then the disk is full
            yield records[:5]
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(event_io, "_chunks", cut_short)
        assert cli_main(["simulate", str(scenario), "--events", str(events)]) == 2
        err = capsys.readouterr().err
        assert err == "output error: cannot write the output: No space left on device\n"
        assert list(events.parent.iterdir()) == ([events] if existing else [])
        if existing:
            assert events.read_bytes() == b"earlier bytes"


WIDE_SCENARIO = """
camera.width = 200
camera.height = 200
camera.height_z = 0.5
camera.f_px = 100.0
texture.kind = noise
sim.duration_s = 0.012
sim.time_step_s = 0.001
trajectory.t_s = 0.0, 0.012
trajectory.v_lon = 1.0, 1.0
"""


class TestWorkers:
    """``generate_events`` runs contiguous blocks of substeps, one per
    ``parallel.default_workers``, in forked processes."""

    @given(first=st.floats(1e-3, 0.014), second=st.floats(1e-3, 0.014),
           texture=st.sampled_from(["noise", "dots"]), seed=st.integers(0, 2 ** 32 - 1))
    @example(first=0.005, second=0.0105, texture="dots", seed=3)  # 5 and 11 substeps
    @settings(max_examples=12, deadline=None)
    def test_stream_does_not_depend_on_the_worker_count(self, first, second, texture, seed):
        tex = NoiseTexture(seed=3) if texture == "noise" else DotTexture(seed=4)
        traj = Trajectory([0.0, 0.03], [1.0, 3.0], [0.5, -0.5], [2.0, -6.0])
        runs = []
        for workers in (1, 2, 3):
            with mock.patch.object(parallel, "default_workers", lambda: workers):
                a, _ = generate_events(sim(tex, duration=first, noise_rate=2e3, seed=seed), traj)
                b, _ = generate_events(
                 sim(tex, duration=second, noise_rate=2e3, seed=seed + 1), traj)
            runs.append((a.tobytes(), b.tobytes()))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert_no_child_left()

    @given(split=st.integers(2, 14).flatmap(lambda n_sub: st.tuples(
               st.just(n_sub), st.sets(st.integers(1, n_sub - 1), min_size=1, max_size=3))),
           texture=st.sampled_from(["noise", "dots"]), seed=st.integers(0, 2 ** 32 - 1))
    # a one-substep first block, a one-substep last block, and both
    @example(split=(7, {1}), texture="noise", seed=5)
    @example(split=(7, {1}), texture="dots", seed=5)
    @example(split=(7, {6}), texture="noise", seed=5)
    @example(split=(7, {6}), texture="dots", seed=5)
    @example(split=(7, {1, 6}), texture="noise", seed=5)
    @example(split=(7, {1, 6}), texture="dots", seed=5)
    @settings(max_examples=12, deadline=None)
    def test_a_split_at_any_substep_writes_the_bytes_of_one_block(self, split, texture, seed):
        n_sub, cuts = split
        tex = NoiseTexture(seed=3) if texture == "noise" else DotTexture(seed=4)
        traj = Trajectory([0.0, 0.03], [1.0, 3.0], [0.5, -0.5], [2.0, -6.0])
        cfg = sim(tex, duration=n_sub * 1e-3, noise_rate=2e3, seed=seed)
        bounds = [0, *sorted(cuts), n_sub]
        streams = []
        for blocks in ([(0, n_sub)], list(zip(bounds, bounds[1:]))):
            with mock.patch.object(parallel, "blocks", lambda n_items, workers: blocks):
                streams.append(generate_events(cfg, traj)[0].tobytes())
        assert streams[0] and streams[1] == streams[0]
        assert_no_child_left()

    def test_the_child_replays_the_poses_before_its_block(self, tmp_path):
        """Two blocks of six substeps: this process integrates the first six
        poses, and makes one more call for the ground truth at every
        boundary; the child integrates all twelve, rendering none of the
        first five."""
        scenario = tmp_path / "wide.cfg"
        scenario.write_text(WIDE_SCENARIO)
        cfg = Scenario.from_file(scenario)
        log = tmp_path / "at.log"
        with mock.patch.object(parallel, "default_workers", lambda: 2), \
                mock.patch.object(Trajectory, "at", logged(log, Trajectory.at)):
            generate_events(cfg.sim, cfg.trajectory)
        assert parallel.blocks(12, 2) == [(0, 6), (6, 12)]
        calls = log.read_text().split()
        parent = calls.count(str(os.getpid()))
        assert (parent, len(calls) - parent, len(set(calls))) == (6 + 1, 12, 2)
        assert_no_child_left()

    def test_workers_keep_the_callers_error_state(self, tmp_path, capsys):
        """A render that turns infinite in the child's block raises there under
        the ``np.errstate`` the child inherits; the error reaches this process
        after the first block's records, and ``simulate`` exits 2."""
        scenario = tmp_path / "wide.cfg"
        scenario.write_text(WIDE_SCENARIO)
        cfg = Scenario.from_file(scenario)
        with mock.patch.object(parallel, "default_workers", lambda: 2):
            clean, _ = generate_events(cfg.sim, cfg.trajectory)
        assert parallel.blocks(12, 2) == [(0, 6), (6, 12)]
        parent, real = os.getpid(), synth.sample_texture

        def sample(*args):
            level = real(*args)
            return level if os.getpid() == parent else np.full_like(level, np.inf)

        spooled, real_spool = [], event_io.spool_events

        def recording_spool(blocks):
            def recorded():
                for records in blocks:
                    spooled.append(records.copy())
                    yield records
            return real_spool(recorded())

        events = tmp_path / "events.evt"
        with mock.patch.object(parallel, "default_workers", lambda: 2), \
                mock.patch.object(synth, "sample_texture", sample):
            with mock.patch.object(event_io, "spool_events", recording_spool), \
                    np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
                generate_events(cfg.sim, cfg.trajectory)
            assert_no_child_left()
            # the first block's six substeps, each with records, and nothing after
            first_block = np.concatenate(spooled)
            assert len(spooled) == 6 and 0 < first_block.size < clean.size
            assert first_block.tobytes() == clean[:first_block.size].tobytes()
            assert clean["t_us"][first_block.size] >= 6000
            assert cli_main(["simulate", str(scenario), "--events", str(events)]) == 2
            assert_no_child_left()
            assert list(tmp_path.iterdir()) == [scenario]
        err = capsys.readouterr().err
        assert "cannot simulate this scenario" in err and "Traceback" not in err

    def test_a_child_that_dies_raises_naming_its_substeps(self, tmp_path):
        scenario = tmp_path / "wide.cfg"
        scenario.write_text(WIDE_SCENARIO)
        cfg = Scenario.from_file(scenario)
        parent, real = os.getpid(), synth.sample_texture

        def sample(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        with mock.patch.object(parallel, "default_workers", lambda: 2), \
                mock.patch.object(synth, "sample_texture", sample), \
                pytest.raises(WorkerError, match="^the process of substeps 6-11 exited "
                                                  "with status 3$"):
            generate_events(cfg.sim, cfg.trajectory)
        assert_no_child_left()


class TestInjectOutliers:
    def field(self, n=20, u=3.0):
        return FlowField(u=np.full((n, n), u), v=np.zeros((n, n)),
                         valid=np.ones((n, n), dtype=bool))

    def test_zero_fraction_identity(self):
        f = self.field()
        g = inject_outliers(f, 0.0, 50.0, rng_seed=1)
        assert np.array_equal(f.u, g.u) and np.array_equal(f.v, g.v)

    def test_full_fraction_fixed_magnitude(self):
        g = inject_outliers(self.field(), 1.0, 50.0, rng_seed=2)
        norms = np.hypot(g.u, g.v)
        assert np.allclose(norms, 50.0, atol=1e-9)

    def test_seed_determinism_and_fraction_count(self):
        f = self.field()
        g1 = inject_outliers(f, 0.2, 50.0, rng_seed=3)
        g2 = inject_outliers(f, 0.2, 50.0, rng_seed=3)
        assert np.array_equal(g1.u, g2.u)
        changed = (g1.u != f.u) | (g1.v != f.v)
        assert changed.sum() == round(0.2 * f.valid.sum())

    def test_ransac_robust_where_plain_fit_degrades(self):
        rng = np.random.default_rng(9)
        h = w = 24
        u = np.full((h, w), 4.0) + rng.standard_normal((h, w)) * 0.02
        v = rng.standard_normal((h, w)) * 0.02
        clean = FlowField(u=u, v=v, valid=np.ones((h, w), bool))
        dirty = inject_outliers(clean, 0.2, 50.0, rng_seed=4)

        def pairs(field):
            ys, xs = np.mgrid[0:h, 0:w]
            p = np.stack([xs.ravel(), ys.ravel()], 1).astype(float)
            return p, p + np.stack([field.u.ravel(), field.v.ravel()], 1)

        def err(motion, p):
            truth = p + [4.0, 0.0]
            return np.linalg.norm(reconstruct_flow(motion, p) - truth, axis=1).mean()

        p, q_clean = pairs(clean)
        _, q_dirty = pairs(dirty)
        base = err(estimate_rigid(p, q_clean), p)
        plain = err(estimate_rigid(p, q_dirty), p)
        robust = err(ransac_estimate(p, q_dirty, rng_seed=5)[0], p)
        assert robust <= 1.2 * base
        assert plain >= 5.0 * base

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            inject_outliers(self.field(), 1.5, 50.0, rng_seed=0)


def _fresh_process(code: str, *args, **env: str | None) -> subprocess.CompletedProcess:
    """``code`` run with ``args`` in a new interpreter that imports evflow
    from this tree, with ``env`` added to its environment (a None value
    removes the variable); its output is captured, and it must exit 0."""
    src = str(Path(evflow.__file__).parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env={k: v for k, v in env.items() if v is not None},
                          capture_output=True, text=True, check=True)


def _fresh_python(code: str, *args, **env: str | None) -> str:
    """Stdout of ``_fresh_process(code, *args, **env)``."""
    return _fresh_process(code, *args, **env).stdout


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc/self/status")
def test_import_pins_one_blas_thread_unless_the_caller_sets_one():
    """``import evflow.cli`` in a fresh interpreter with no BLAS thread count
    set leaves the process one OS thread; a caller's own count is kept."""
    code = ("import os, evflow.cli; print(os.environ['OPENBLAS_NUM_THREADS'], "
            "os.environ['OMP_NUM_THREADS'], next(line.split()[1] for line in "
            "open('/proc/self/status') if line.startswith('Threads:')))")
    unset = _fresh_python(code, OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS=None)
    assert unset.split() == ["1", "1", "1"]
    caller = _fresh_python(code, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS=None)
    assert caller.split()[:2] == ["2", "1"]


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_simulator_and_file_io_import_without_scipy():
    # simulate, evaluate and plot need neither scipy nor its import time
    out = _fresh_python("import sys, evflow.synth, evflow.event_io, evflow.state_io, "
                        f"evflow.cli; print({_SCIPY_MODULES})")
    assert out.strip() == "[]"


TINY_SCENARIO = """
camera.width = 48
camera.height = 36
camera.height_z = 0.5
camera.f_px = 40.0
texture.kind = noise
sim.duration_s = 0.066
sim.time_step_s = 0.004125
trajectory.t_s = 0.0, 0.066
trajectory.v_lon = 1.0, 1.0
"""

TINY_RUN = """
camera.width = 48
camera.height = 36
camera.height_z = 0.5
camera.f_px = 40.0
accumulation.window_us = 33000
"""


def test_no_command_loads_scipy(tmp_path):
    """Each command in a fresh interpreter, the flow commands included, loads
    none of scipy: the estimator runs on numpy alone."""
    def run(*argv):
        code = ("import json, sys; from evflow.cli import main; code = main(sys.argv[1:]); "
                f"print(json.dumps([code, {_SCIPY_MODULES}]))")
        code, modules = json.loads(_fresh_python(code, *argv).splitlines()[-1])
        assert code == 0, argv
        return modules

    scenario, run_cfg = tmp_path / "scenario.cfg", tmp_path / "run.cfg"
    scenario.write_text(TINY_SCENARIO)
    run_cfg.write_text(TINY_RUN)
    events, truth = tmp_path / "events.evt", tmp_path / "truth.csv"
    assert run("simulate", scenario, "--events", events, "--ground-truth", truth) == []
    assert run("evaluate", "--estimates", truth, "--ground-truth", truth,
               "--tolerance", "0.0165") == []
    assert run("plot", "--estimates", truth, "--ground-truth", truth,
               "--out-dir", tmp_path / "plots") == []
    assert run("blur-budget", "--out-dir", tmp_path / "bb") == []
    assert run("estimate", "--config", run_cfg, "--events", events,
               "--out-dir", tmp_path / "out") == []
    assert run("flow-debug", "--config", run_cfg, "--events", events,
               "--out-dir", tmp_path / "debug") == []
    assert (tmp_path / "out" / "estimates.csv").is_file()
    assert any((tmp_path / "debug").iterdir())


def test_estimate_does_not_load_numpy_ma(tmp_path):
    """``estimate`` in a fresh interpreter summarises its timings without
    importing ``numpy.ma``, an import that would run after its last row."""
    scenario, run_cfg = tmp_path / "scenario.cfg", tmp_path / "run.cfg"
    scenario.write_text(TINY_SCENARIO)
    run_cfg.write_text(TINY_RUN)
    events = tmp_path / "events.evt"
    cli = "import sys; from evflow.cli import main; code = main(sys.argv[1:]); "
    _fresh_python(cli + "assert code == 0", "simulate", scenario, "--events", events)
    out = _fresh_python(cli + "print(code, 'numpy.ma' in sys.modules)", "estimate",
                        "--config", run_cfg, "--events", events, "--out-dir", tmp_path / "out")
    assert out.splitlines()[-1] == "0 False"
    assert json.loads((tmp_path / "out" / "timings.json").read_text())["stages_ms"]


DRIVE_SCENARIO = """
camera.width = 346
camera.height = 260
camera.height_z = 1.2
camera.fov_deg = 90.0
texture.kind = noise
texture.seed = 31
sim.duration_s = {duration}
sim.time_step_s = 0.004125
trajectory.t_s = 0.0, {duration}
trajectory.v_lon = 2.5, 2.5
trajectory.v_lat = 0.2, 0.2
trajectory.omega = 0.5, 0.5
"""


def test_estimate_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Flow's correlations are BLAS products: ``estimate`` on a 3-window
    346x260 stream writes the same bytes with one BLAS thread and with two."""
    cli = "import sys; from evflow.cli import main; sys.exit(main(sys.argv[1:]))"
    scenario, events = tmp_path / "drive.cfg", tmp_path / "drive.evt"
    run_cfg = tmp_path / "run.cfg"
    scenario.write_text(DRIVE_SCENARIO.format(duration=0.099))
    run_cfg.write_text("camera.width = 346\ncamera.height = 260\ncamera.height_z = 1.2\n"
                       "camera.fov_deg = 90.0\naccumulation.window_us = 33000\n")
    _fresh_python(cli, "simulate", scenario, "--events", events)
    rows = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        _fresh_python(cli, "estimate", "--config", run_cfg, "--events", events,
                      "--out-dir", out, OPENBLAS_NUM_THREADS=threads)
        rows.append((out / "estimates.csv").read_bytes())
    assert rows[0] == rows[1]
    assert len(rows[0].splitlines()) == 4  # header and one row per window


def _correlate_digest() -> str:
    """SHA-256 of float32 window correlations along each of the last two axes
    of a stack whose other axis is 1,040 wide, at strides 1 and 4."""
    import hashlib

    import numpy as np

    from evflow import flow

    x = np.random.default_rng(7).standard_normal((2, 1100, 1040)).astype(np.float32)
    return hashlib.sha256(b"".join(
        flow._correlate1d(x, flow._WINDOW_KERNEL, axis, stride=stride).tobytes()
        for axis in (-2, -1) for stride in (1, 4))).hexdigest()


# The pinned streams with their estimates, pair 2's flow-debug CSV and
# _correlate_digest, in a new interpreter; prints them as one JSON line
_KERNEL_DIGESTS = inspect.getsource(_correlate_digest) + inspect.getsource(_estimates_digest) + """
import hashlib, json, pickle, sys
from pathlib import Path
from evflow.cli import main
from evflow.synth import generate_events

scenarios, run_cfg, events, out = sys.argv[1:]
digests = {}
for name, (scenario, cfg) in pickle.loads(Path(scenarios).read_bytes()).items():
    ev, truth = generate_events(*scenario)
    digests[name] = [ev.size, hashlib.sha256(ev.tobytes()).hexdigest(),
                     _estimates_digest(ev, truth, cfg, Path(scenarios).with_name(f"{name}.csv"))]
assert main(["flow-debug", "--config", run_cfg, "--events", events, "--pair-index", "2",
             "--out-dir", out]) == 0
digests["flow_00002.csv"] = hashlib.sha256((Path(out) / "flow_00002.csv").read_bytes()).hexdigest()
digests["correlate"] = _correlate_digest()
print(json.dumps(digests))
"""


@pytest.mark.parametrize("env", [{"OPENBLAS_CORETYPE": "Haswell"},
                                 {"OPENBLAS_CORETYPE": "Sandybridge"},
                                 {"OPENBLAS_CORETYPE": "Nehalem"},
                                 {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["Haswell", "Sandybridge", "Nehalem", "two_blas_threads"])
def test_pinned_bytes_do_not_depend_on_the_blas_kernel(env, tmp_path):
    """The pinned streams and their estimates, the pinned flow-debug CSV and
    flow's band products on lines wider than 1,024 are the same bytes under
    other OpenBLAS kernels, as another CPU would pick them, and with two
    BLAS threads."""
    scenarios = tmp_path / "scenarios.pickle"
    scenarios.write_bytes(pickle.dumps({name: (pinned_scenario(name),
                                               pinned_run_config(name, tmp_path)[0])
                                        for name in PINNED_STREAMS}))
    events, _ = pinned_stream("noise_drive")
    cfg, run_cfg = pinned_run_config("noise_drive", tmp_path)
    ev_path = tmp_path / "events.evt"
    write_events_binary(ev_path, events, cfg.camera.width, cfg.camera.height)
    run = _fresh_process(_KERNEL_DIGESTS, scenarios, run_cfg, ev_path, tmp_path / "debug",
                         OPENBLAS_VERBOSE="2", **env)
    core = env.get("OPENBLAS_CORETYPE")
    if core and f"Core: {core}" not in run.stderr.splitlines():
        pytest.skip(f"OpenBLAS did not run the {core} kernel: {run.stderr.strip()!r}")
    digests = json.loads(run.stdout.splitlines()[-1])
    assert digests == {**{name: [*pin, PINNED_ESTIMATES[name]]
                          for name, pin in PINNED_STREAMS.items()},
                       "flow_00002.csv": PINNED_ESTIMATES["flow_00002.csv"],
                       "correlate": _correlate_digest()}


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc/self/status")
def test_simulate_holds_the_stream_once(tmp_path):
    """``evflow simulate`` at two durations in fresh interpreters: the peak
    RSS grows by a small part of the stream's bytes, since the stream is
    spooled to a file as it is made and written out page by page.

    The peak is the process's own ``VmHWM``; ``ru_maxrss`` would carry the
    peak of the process that started it across exec.
    """
    code = ("import sys; from evflow.cli import main; main(sys.argv[1:]); "
            "print(next(line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')))")
    peak_bytes, stream_bytes = [], []
    for duration in (0.033, 0.132):  # about 1.2M and 4.6M events
        scenario, events = tmp_path / f"{duration}.cfg", tmp_path / f"{duration}.evt"
        scenario.write_text(DRIVE_SCENARIO.format(duration=duration))
        peak_kb = _fresh_python(code, "simulate", scenario, "--events", events).split()[-1]
        peak_bytes.append(int(peak_kb) * 1024)
        stream_bytes.append(events.stat().st_size)
    growth = (peak_bytes[1] - peak_bytes[0]) / (stream_bytes[1] - stream_bytes[0])
    assert growth < 0.2, f"peak RSS grew {growth:.2f}x the stream's bytes"


# criterion 4's drive over 16 windows of 33 ms, as the benchmark simulates it:
# 7.35M events, 95.6 MB of records
DENSE_DRIVE_SCENARIO = """
camera.width = 346
camera.height = 260
camera.height_z = 1.2
camera.fov_deg = 90.0
texture.kind = noise
texture.seed = 31
accumulation.window_us = 33000
sim.duration_s = 0.528
sim.seed = 1
trajectory.t_s = 0.0, 1.155, 2.31, 3.465, 4.62
trajectory.v_lon = 0.5, 2.5, 1.0, 2.2, 0.9
trajectory.v_lat = 0.0, 0.2, -0.1, 0.15, 0.0
trajectory.omega = 0.0, 0.5, -0.4, 0.3, 0.0
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_simulate_peaks_below_its_streams_bytes(tmp_path):
    """``evflow simulate`` of a stream of over 60 MB peaks below 0.6x the
    stream's bytes.

    The peak is ``ru_maxrss`` from ``os.wait4``: that of the process and of
    the worker it reaped, whichever is larger.  A small launcher starts the
    process, since Linux carries the starting process's peak into a child's
    ``ru_maxrss`` at exec.
    """
    launcher = ("import os, subprocess, sys\n"
                "proc = subprocess.Popen([sys.executable, '-m', 'evflow.cli', *sys.argv[1:]],\n"
                "                        stdout=subprocess.DEVNULL)\n"
                "_, status, usage = os.wait4(proc.pid, 0)\n"
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
    scenario, events = tmp_path / "drive.cfg", tmp_path / "drive.evt"
    scenario.write_text(DENSE_DRIVE_SCENARIO)
    code, peak_kb = map(int, _fresh_python(launcher, "simulate", scenario, "--events",
                                           events).split())
    stream_bytes = events.stat().st_size - 8
    assert code == 0 and stream_bytes > 60e6
    assert peak_kb * 1024 < 0.6 * stream_bytes, \
        f"peak RSS {peak_kb / 1024:.1f} MB for {stream_bytes / 1e6:.1f} MB of records"
