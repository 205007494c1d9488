import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evflow
from evflow.events import CameraModel, validate_events
from evflow.flow import FlowField, inject_outliers
from evflow.rigid import RansacParams, estimate_rigid, ransac_estimate, reconstruct_flow
from evflow.synth import (CheckerTexture, DotTexture, NoiseTexture, SimConfig,
                          Trajectory, _bilinear_lattice, _time_order, generate_events,
                          render_plane, sample_texture)
from evflow.vehicle import Extrinsics

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
    mag = 2 * math.pi * rng.uniform(0.2 * tex.cutoff, tex.cutoff, tex.n_waves)
    ang = rng.uniform(0.0, 2 * math.pi, tex.n_waves)
    phase = rng.uniform(0.0, 2 * math.pi, tex.n_waves)
    amp = tex.amplitude * math.sqrt(2.0 / tex.n_waves)
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
    def test_noise_lattice_matches_values(self):
        tex = NoiseTexture(seed=8)
        ix, iy = np.arange(-5, 5), np.arange(3, 13)
        assert np.allclose(tex.lattice(ix, iy), tex.values(ix.astype(float), iy.astype(float)))

    def test_sample_texture_bilinear_between_lattice(self):
        tex = CheckerTexture(period_px=4.0)
        v0 = tex.lattice(np.array([3]), np.array([0]))[0]
        v1 = tex.lattice(np.array([4]), np.array([0]))[0]
        mid = sample_texture(tex, np.array([3.5]), np.array([0.0]))[0]
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
        # the point path gives the grid path's values, and a scalar point a 0-d value
        assert np.abs(sample_texture(tex, tx, ty) - grid).max() < 1e-12
        point = sample_texture(tex, tx[5, 7], ty[5, 7])
        assert np.shape(point) == () and abs(point - grid[5, 7]) < 1e-12

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
        assert np.array_equal(_bilinear_lattice(dots, tx, ty), reference_bilinear(ref_dots, tx, ty))
        assert np.array_equal(render_plane(checker, (x, y, yaw), cam),
                              reference_bilinear(checker.lattice, tx, ty))
        ix, iy = np.floor(tx).astype(np.int64), np.floor(ty).astype(np.int64)
        assert np.array_equal(dots.lattice(ix, iy), reference_dot_lattice(dots, ix, iy))
        # scattered points, whose box is far larger than their count
        px, py = (np.array(c, dtype=np.int64) for c in zip(*points))
        assert np.array_equal(dots.lattice(px, py), reference_dot_lattice(dots, px, py))
        fx, fy = px + 0.25, py - 0.5
        assert np.array_equal(sample_texture(dots, fx, fy), reference_bilinear(ref_dots, fx, fy))

    def test_textures_deterministic(self):
        a = NoiseTexture(seed=5).values(np.arange(10.0), np.arange(10.0))
        b = NoiseTexture(seed=5).values(np.arange(10.0), np.arange(10.0))
        assert np.array_equal(a, b)


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

    def test_reversed_profile(self):
        tr = Trajectory([0.0, 1.0, 3.0], [1.0, 2.0, 0.5], [0.1, 0.0, 0.0], [0.0, 1.0, 0.0])
        rev = tr.reversed()
        assert np.allclose(rev.t_s, [0.0, 2.0, 3.0])
        v, _, _ = rev.at(0.0)
        assert v == pytest.approx(-0.5)


class TestGenerateEvents:
    def test_zero_velocity_zero_events(self):
        ev, truth, _ = generate_events(sim(duration=0.01), Trajectory.constant(0.01))
        assert ev.size == 0
        assert len(truth) == 11  # substep-boundary ground truth rows

    def test_stream_invariants_hold(self):
        ev, _, _ = generate_events(sim(noise_rate=5.0, seed=2),
                                   Trajectory.constant(0.05, v_lon=1.0))
        validate_events(ev, CAM.width, CAM.height)
        assert ev["t_us"].max() < 50_000

    def test_event_count_scales_with_speed(self):
        cfg = sim()
        n1 = generate_events(cfg, Trajectory.constant(0.05, v_lon=1.0))[0].size
        n2 = generate_events(cfg, Trajectory.constant(0.05, v_lon=2.0))[0].size
        assert n2 == pytest.approx(2 * n1, rel=0.25)

    def test_bit_identical_given_seeds(self):
        cfg = sim(noise_rate=3.0, seed=12)
        tr = Trajectory.constant(0.05, v_lon=1.2, omega=1.0)
        a, _, _ = generate_events(cfg, tr)
        b, _, _ = generate_events(cfg, tr)
        assert np.array_equal(a, b)

    def test_ground_truth_satisfies_axle_transfer_exactly(self):
        ext = Extrinsics(ca_x=0.4, ca_y=-0.2)
        cfg = sim(ext=ext, duration=0.04)
        tr = Trajectory([0.0, 0.04], [1.0, 2.0], [0.1, -0.1], [0.5, 2.0])
        _, truth, _ = generate_events(cfg, tr)
        for g in truth:
            v_lon, v_lat, omega = (float(x) for x in tr.at(g.t_mid))
            assert g.omega == omega
            assert g.v_lon == v_lon + omega * -ext.ca_y  # exact arithmetic identity
            assert g.v_lat == v_lat + omega * ext.ca_x

    def test_polarity_antisymmetry_under_reversal(self):
        cfg = sim()
        tr = Trajectory([0.0, 0.02, 0.05], [0.5, 1.5, 0.2], [0.0, 0.2, 0.0],
                        [0.0, 2.0, -1.0])
        fwd, _, state = generate_events(cfg, tr)
        rev, _, state2 = generate_events(cfg, tr.reversed(), initial_state=state)
        assert fwd.size == rev.size
        assert abs(state2.psi) < 1e-12 and np.abs(state2.c_px).max() < 1e-9

        def per_pixel(ev):
            seq = {}
            for x, y, p in zip(ev["x"], ev["y"], ev["p"]):
                seq.setdefault((int(x), int(y)), []).append(int(p))
            return seq

        f, r = per_pixel(fwd), per_pixel(rev)
        assert set(f) == set(r)
        for key, seq in f.items():
            assert r[key] == [-p for p in reversed(seq)]

    def test_trajectory_must_cover_duration(self):
        with pytest.raises(ValueError):
            generate_events(sim(duration=0.2), Trajectory.constant(0.1, v_lon=1.0))

    def test_timestamps_clamped_inside_duration(self):
        ev, _, _ = generate_events(sim(duration=0.02, noise_rate=2.0, seed=5),
                                   Trajectory.constant(0.02, v_lon=2.0))
        assert ev["t_us"].max() <= 19_999

    def test_equal_timestamps_keep_emission_order(self):
        # slow enough that no pixel crosses two levels in one substep, so
        # inside a substep equal timestamps hold rising events first, then
        # each polarity in raster order; substep boundaries (whole ms) can
        # tie events of two substeps and are left out
        ev, _, _ = generate_events(sim(DotTexture(seed=4), duration=0.02),
                                   Trajectory.constant(0.02, v_lon=0.5, omega=2.0))
        ev = ev[ev["t_us"] % 1000 != 0]
        order = np.lexsort((ev["x"], ev["y"], -ev["p"].astype(np.int64), ev["t_us"]))
        assert np.array_equal(order, np.arange(ev.size))
        t_mixed = np.intersect1d(ev["t_us"][ev["p"] > 0], ev["t_us"][ev["p"] < 0])
        assert t_mixed.size > 100  # ties between polarities do occur

    def test_last_microsecond_kept(self):
        d = 0.000249  # d * 1e6 is 248.99999999999997, which int() truncates to 248
        cam = CameraModel(width=8, height=8, height_z=0.5, f_px=100.0)
        ev, _, _ = generate_events(sim(cam=cam, duration=d, noise_rate=2e5, seed=1),
                                   Trajectory.constant(d))
        assert ev["t_us"].max() == round(d * 1e6) - 1 == 248

    @given(base=st.integers(0, 2 ** 40), hi=st.sampled_from([0, 3, 65_535, 65_536, 300_000]),
           offsets=st.lists(st.integers(0, 300_000), min_size=1, max_size=200))
    @example(base=5, hi=300_000, offsets=[65_536, 0, 7, 65_536, 7])
    @example(base=0, hi=65_535, offsets=[65_535, 0, 65_535, 1, 0])
    @settings(max_examples=60, deadline=None)
    def test_time_order_is_the_stable_argsort(self, base, hi, offsets):
        t_us = base + np.minimum(offsets, hi).astype(np.int64)
        assert np.array_equal(_time_order(t_us), np.argsort(t_us, kind="stable"))


class TestInjectOutliers:
    def field(self, n=20, u=3.0):
        return FlowField(u=np.full((n, n), u), v=np.zeros((n, n)),
                         valid=np.ones((n, n), dtype=bool), dt=1e-3)

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
        clean = FlowField(u=u, v=v, valid=np.ones((h, w), bool), dt=1e-3)
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
        robust = err(ransac_estimate(p, q_dirty, RansacParams(), rng_seed=5)[0], p)
        assert robust <= 1.2 * base
        assert plain >= 5.0 * base

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            inject_outliers(self.field(), 1.5, 50.0, rng_seed=0)


def test_simulator_and_file_io_import_without_scipy():
    # simulate, evaluate and plot need neither scipy nor its import time
    code = ("import sys, evflow.synth, evflow.event_io, evflow.state_io; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(evflow.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
