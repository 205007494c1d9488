"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured values once its assertions hold."""

import math
import time

import numpy as np
import pytest

from evflow import state_io
from evflow.cli import main as cli_main
from evflow.config import RunConfig
from evflow.evaluate import evaluate
from evflow.events import (AccumulationConfig, CameraModel, accumulate,
                           make_events, relative_motion_blur, to_intensity)
from evflow.flow import FlowParams, compute_flow, inject_outliers, subsample_flow
from evflow.pipeline import iter_pairs, process_frame_pair
from evflow.rigid import (CameraVelocity, RansacParams, RigidMotion2D,
                          estimate_rigid, ransac_estimate, reconstruct_flow,
                          to_camera_velocity)
from evflow.synth import DotTexture, NoiseTexture, SimConfig, Trajectory, generate_events
from evflow.vehicle import (Extrinsics, ImuSeries, substitute_imu_yaw,
                            transform_to_axle)


def camera_level_estimates(events, cfg, span_us):
    """Camera-frame velocities (before the axle transfer) of every pair with a rigid fit."""
    return [pair.camera for pair in iter_pairs(events, cfg, t_start_us=0, t_end_us=span_us)
            if pair.camera is not None]


def run_config(cam, window_us, ransac_enabled, stride=8, levels=3, seed=7):
    return RunConfig(
        camera=cam,
        accumulation=AccumulationConfig(window_us=window_us, sensor_width=cam.width,
                                        sensor_height=cam.height),
        flow=FlowParams(pyramid_levels=levels),
        ransac=RansacParams(enabled=ransac_enabled),
        extrinsics=Extrinsics(),
        stride=stride,
        seed=seed)


def test_c01_blur_budget_anchor(announce):
    cam_highway = CameraModel(width=640, height=480, height_z=0.6,
                              fov_alpha=math.radians(60))
    blur_a = relative_motion_blur(170e-6, 40.0, cam_highway)
    assert 0.0095 <= blur_a <= 0.0100

    cam_disk = CameraModel(width=640, height=480, height_z=0.3,
                           fov_alpha=math.radians(60))
    blur_b = relative_motion_blur(0.87e-3, 5.65, cam_disk)
    assert 0.0138 <= blur_b <= 0.0145
    px = blur_b * 640
    assert px == pytest.approx(9.1, abs=0.05)
    announce(f"PASS criterion 1: blur anchors {blur_a:.5f} (1% budget) and "
             f"{blur_b:.5f} = {px:.2f} px on 640 px")


def test_c02_pixel_speed_anchor(announce):
    cam = CameraModel(width=640, height=480, height_z=0.6, f_px=554.26)
    motion = RigidMotion2D(theta=0.0, t=np.array([185.0, 0.0]), n_points=10,
                           mean_residual=0.0)
    cv = to_camera_velocity(motion, cam, dt=0.005)
    speed = float(np.linalg.norm(cv.v))
    assert speed == pytest.approx(40.0, abs=0.1)
    announce(f"PASS criterion 2: 185 px over 5 ms converts to {speed:.3f} m/s")


def test_c03_spinning_disk_analog(announce):
    omega_true = 37.70
    cam = CameraModel(width=160, height=120, height_z=0.5, f_px=100.0)
    window_us = 1_000
    duration = 0.12
    sim = SimConfig(texture=DotTexture(density=0.01, radius_px=2.5, seed=21),
                    cam=cam, noise_rate=0.1, duration=duration,
                    time_step=window_us * 1e-6 / 8, seed=13)
    events, _, _ = generate_events(sim, Trajectory.constant(duration, omega=omega_true))
    cfg = run_config(cam, window_us, ransac_enabled=True, stride=4)
    cvs = camera_level_estimates(events, cfg, span_us=int(duration * 1e6))
    assert len(cvs) > 100
    omega_mean = float(np.mean([cv.omega for cv in cvs]))
    assert abs(omega_mean - omega_true) <= 0.01 * omega_true
    announce(f"PASS criterion 3: mean omega {omega_mean:.4f} rad/s vs {omega_true} "
             f"({abs(omega_mean - omega_true) / omega_true * 100:.2f}% error, "
             f"{len(cvs)} frames)")


def test_c04_scaled_platform_analog(announce):
    cam = CameraModel(width=346, height=260, height_z=1.2, fov_alpha=math.radians(90))
    window_us = 33_000
    duration = 4.62  # 140 windows
    # speeds span 0.5..2.5 m/s around a ~1.5 m/s mean; accelerations stay
    # near 1.5 m/s^2 since the window-midpoint stamping lags the measured
    # displacement by half a window under acceleration
    traj = Trajectory(
        [0.0, 1.155, 2.31, 3.465, 4.62],
        [0.5, 2.5, 1.0, 2.2, 0.9],
        [0.0, 0.2, -0.1, 0.15, 0.0],
        [0.0, 0.5, -0.4, 0.3, 0.0])         # turning segments
    ext = Extrinsics(ca_x=0.25, ca_y=0.0)
    sim = SimConfig(texture=NoiseTexture(seed=31), cam=cam, ext=ext, noise_rate=0.1,
                    duration=duration, time_step=window_us * 1e-6 / 8, seed=17)
    events, truth, _ = generate_events(sim, traj)

    cfg = run_config(cam, window_us, ransac_enabled=False, levels=4)
    cvs = camera_level_estimates(events, cfg, span_us=int(duration * 1e6))
    assert len(cvs) >= 70

    est_flow = [transform_to_axle(cv, ext) for cv in cvs]
    report = evaluate(est_flow, truth, tolerance_s=window_us * 1e-6 / 2)
    mean_speed = float(np.mean(np.abs([g.v_lon for g in truth])))
    rmse_lon = report.channels["v_lon"].rmse
    assert rmse_lon < 0.03 * mean_speed

    # lateral improvement from an exact IMU when the flow yaw carries a bias
    bias = 0.2
    biased = [transform_to_axle(
        CameraVelocity(v=cv.v, omega=cv.omega + bias, t_mid=cv.t_mid,
                       quality=cv.quality), ext) for cv in cvs]
    imu_t = np.arange(0.0, duration + 1e-9, 1e-3)
    imu = ImuSeries((imu_t * 1e6).round().astype(np.int64), traj.at(imu_t)[2])
    with_imu = [substitute_imu_yaw(
        CameraVelocity(v=cv.v, omega=cv.omega + bias, t_mid=cv.t_mid,
                       quality=cv.quality), imu, ext,
        staleness_s=2 * window_us * 1e-6) for cv in cvs]
    rmse_lat_biased = evaluate(biased, truth,
                               tolerance_s=window_us * 1e-6 / 2).channels["v_lat"].rmse
    rmse_lat_imu = evaluate(with_imu, truth,
                            tolerance_s=window_us * 1e-6 / 2).channels["v_lat"].rmse
    assert rmse_lat_imu < rmse_lat_biased
    announce(f"PASS criterion 4: v_lon RMSE {rmse_lon:.4f} m/s "
             f"({rmse_lon / mean_speed * 100:.2f}% of mean {mean_speed:.2f} m/s); "
             f"v_lat RMSE imu {rmse_lat_imu:.4f} < biased-flow {rmse_lat_biased:.4f} "
             f"({(1 - rmse_lat_imu / rmse_lat_biased) * 100:.1f}% lower)")


def test_c05_ransac_robustness(announce):
    v_true = 32.0
    cam = CameraModel(width=180, height=50, height_z=0.635, f_px=635.0)
    window_us = 100
    duration = 0.02  # 200 windows
    sim = SimConfig(texture=NoiseTexture(seed=41, cutoff=0.12, amplitude=0.4),
                    cam=cam, noise_rate=0.0, duration=duration,
                    time_step=window_us * 1e-6 / 8, seed=19)
    events, _, _ = generate_events(sim, Trajectory.constant(duration, v_lon=v_true))

    cfg = run_config(cam, window_us, ransac_enabled=True, stride=4, levels=2)
    frames = accumulate(events, cfg.accumulation, t_start_us=0,
                        t_end_us=int(duration * 1e6))
    center = np.array([cam.cx, cam.cy])
    params = RansacParams(iterations=16, inlier_threshold=0.5)
    speeds_ransac, speeds_plain = [], []
    prev = None
    for i, frame in enumerate(frames):
        img = to_intensity(frame, cfg.accumulation.count_cap)
        if prev is not None:
            field = compute_flow(prev, img, cfg.flow)
            dirty = inject_outliers(field, 0.2, 50.0, rng_seed=(23, i))
            p, q = subsample_flow(dirty, cfg.stride)
            scale = cam.height_z / cam.f_px / cfg.window_s
            robust, _ = ransac_estimate(p - center, q - center, params, rng_seed=(29, i))
            speeds_ransac.append(float(np.linalg.norm(robust.t)) * scale)
            plain = estimate_rigid(p - center, q - center)
            speeds_plain.append(float(np.linalg.norm(plain.t)) * scale)
        prev = img
    speeds_ransac = np.array(speeds_ransac)
    speeds_plain = np.array(speeds_plain)
    assert speeds_ransac.size >= 150
    assert speeds_ransac.std() <= speeds_plain.std() / 3
    assert abs(speeds_ransac.mean() - v_true) <= 0.01 * v_true
    announce(f"PASS criterion 5: with RANSAC mean {speeds_ransac.mean():.3f} m/s "
             f"std {speeds_ransac.std():.3f}; without std {speeds_plain.std():.3f} "
             f"(ratio {speeds_plain.std() / speeds_ransac.std():.1f}x, "
             f"{speeds_ransac.size} frames)")


def test_c06_rigid_fit_optimality(announce):
    rng = np.random.default_rng(101)
    thetas = np.arange(-0.2, 0.2 + 1e-12, 1e-3)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    rots = np.stack([np.stack([cos_t, -sin_t], 1), np.stack([sin_t, cos_t], 1)], 1)
    worst_gap = -math.inf
    for _ in range(200):
        n = int(rng.integers(3, 101))
        p = rng.uniform(-50, 50, size=(n, 2))
        true_theta = rng.uniform(-0.15, 0.15)
        c, s = math.cos(true_theta), math.sin(true_theta)
        q = p @ np.array([[c, -s], [s, c]]).T + rng.uniform(-10, 10, 2)
        q = q + rng.standard_normal((n, 2)) * rng.uniform(0.0, 0.5)

        m = estimate_rigid(p, q)
        j_est = float(np.sum((reconstruct_flow(m, p) - q) ** 2))
        # vectorized brute force: closed-form t per grid theta
        rp = np.einsum("gij,nj->gni", rots, p)
        t = q.mean(0) - np.einsum("gij,j->gi", rots, p.mean(0))
        resid = rp + t[:, None, :] - q
        j_grid = float(np.min(np.sum(resid ** 2, axis=(1, 2))))
        worst_gap = max(worst_gap, j_est - j_grid)
        assert j_est <= j_grid + 1e-9
    announce(f"PASS criterion 6: closed-form objective <= grid search on 200 instances "
             f"(worst gap {worst_gap:.2e})")


def test_c07_flow_oracle(announce, noise_image):
    img = noise_image()
    params = FlowParams()
    interior = (slice(24, -24), slice(24, -24))
    errs = []
    for shift in (1, 2, 3, 5):
        field = compute_flow(img, np.roll(img, shift, axis=1), params)
        eu = abs(float(field.u[interior].mean()) - shift)
        ev = abs(float(field.v[interior].mean()))
        errs.append(max(eu, ev))
        assert eu < 0.2 and ev < 0.2

    ident = compute_flow(img, img, params)
    ident_mean = float(np.hypot(ident.u, ident.v)[ident.valid].mean())
    assert ident_mean < 0.05

    uniform = compute_flow(np.full((64, 64), 5.0), np.full((64, 64), 5.0), params)
    assert uniform.valid.sum() == 0
    announce(f"PASS criterion 7: shift errors max {max(errs):.4f} px, identity "
             f"{ident_mean:.4f} px, uniform valid pixels 0")


def test_c08_axle_transfer_exactness(announce):
    rng = np.random.default_rng(7)
    quality = None
    for _ in range(500):
        v = rng.uniform(-20, 20, 2)
        omega = float(rng.uniform(-10, 10))
        ca_x = float(rng.uniform(-5, 5))
        ca_y = float(rng.uniform(-5, 5))

        def cv(w):
            from evflow.rigid import EstimateQuality
            return CameraVelocity(v=v, omega=w, t_mid=0.0,
                                  quality=EstimateQuality(1, 1.0, 0.0))

        # ca_y = 0: longitudinal independent of omega, exact
        lon_ext = Extrinsics(ca_x=ca_x, ca_y=0.0)
        assert transform_to_axle(cv(omega), lon_ext).v_lon == \
            transform_to_axle(cv(0.0), lon_ext).v_lon

        # omega = 0: identity on both components, exact
        ext = Extrinsics(ca_x=ca_x, ca_y=ca_y)
        rest = transform_to_axle(cv(0.0), ext)
        assert rest.v_lon == v[0] and rest.v_lat == v[1]

        # affine slope equals (-ca_y, ca_x) to 1e-12
        moved = transform_to_axle(cv(omega), ext)
        if omega != 0.0:
            assert (moved.v_lon - rest.v_lon) / omega == pytest.approx(-ca_y, abs=1e-12)
            assert (moved.v_lat - rest.v_lat) / omega == pytest.approx(ca_x, abs=1e-12)
    announce("PASS criterion 8: axle-transfer identities exact over 500 random draws")


def test_c09_determinism_and_accounting(announce, tmp_path):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("""
camera.width = 120
camera.height = 90
camera.height_z = 0.5
camera.f_px = 100.0
texture.kind = noise
texture.seed = 11
sim.noise_rate = 0.2
sim.duration_s = 0.099
sim.time_step_s = 0.004125
sim.seed = 3
trajectory.t_s = 0.0, 0.099
trajectory.v_lon = 1.2, 1.2
trajectory.omega = 0.4, 0.4
""")
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text("""
camera.width = 120
camera.height = 90
camera.height_z = 0.5
camera.f_px = 100.0
accumulation.window_us = 33000
flow.stride = 6
seed = 5
""")
    outputs = []
    for tag in ("a", "b"):
        ev = tmp_path / f"events_{tag}.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        out = tmp_path / f"out_{tag}"
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(ev),
                         "--out-dir", str(out)]) == 0
        outputs.append((ev.read_bytes(), (out / "estimates.csv").read_bytes()))
    assert outputs[0][0] == outputs[1][0], "simulated event bytes differ between runs"
    assert outputs[0][1] == outputs[1][1], "estimate CSV bytes differ between runs"

    import json
    timings = json.loads((tmp_path / "out_a" / "timings.json").read_text())
    assert timings["frames_in"] == timings["frames_valid"] + timings["frames_invalid"]

    # RMSE / sigma against a naive two-pass reference
    rng = np.random.default_rng(2)
    t = np.arange(40) * 0.05
    errs = rng.standard_normal(40)
    truth = [state_io.VelocityEstimate(
        t_mid=float(ti), v_lon=1.0, v_lat=0.0, omega=0.0, omega_source="truth",
        quality=state_io.EstimateQuality(0, 1.0, 0.0), valid=True) for ti in t]
    est = [state_io.VelocityEstimate(
        t_mid=float(ti), v_lon=1.0 + float(e), v_lat=0.0, omega=0.0,
        omega_source="flow", quality=state_io.EstimateQuality(0, 1.0, 0.0),
        valid=True) for ti, e in zip(t, errs)]
    report = evaluate(est, truth, tolerance_s=0.01)
    rmse_ref = math.sqrt(sum(float(e) ** 2 for e in errs) / len(errs))
    mean_ref = sum(float(e) for e in errs) / len(errs)
    sigma_ref = math.sqrt(sum((float(e) - mean_ref) ** 2 for e in errs) / len(errs))
    assert report.channels["v_lon"].rmse == pytest.approx(rmse_ref, rel=1e-12)
    assert report.channels["v_lon"].sigma == pytest.approx(sigma_ref, rel=1e-12)
    announce("PASS criterion 9: byte-identical reruns, frame accounting, and "
             "reference-matched RMSE/sigma")


def test_c10_latency_ceiling(announce):
    cam = CameraModel(width=346, height=260, height_z=0.3, f_px=300.0)
    cfg = run_config(cam, 33_000, ransac_enabled=True)
    rng = np.random.default_rng(3)
    n = 400_000
    # frame 2 repeats frame 1's event pattern shifted 3 px so the pair is a
    # representative workload that exercises every stage
    xs = rng.integers(0, 346, n)
    ys = rng.integers(0, 260, n)
    ps = rng.choice([-1, 1], n)
    frames = []
    for k, shift in enumerate((0, 3)):
        t = np.sort(rng.integers(0, 33_000, n)) + k * 33_000
        ev = make_events(t, (xs + shift) % 346, ys, ps)
        order = np.argsort(ev["t_us"], kind="stable")
        frames.extend(accumulate(ev[order], cfg.accumulation, t_start_us=k * 33_000,
                                 t_end_us=(k + 1) * 33_000))
    for _ in range(2):  # warm caches
        process_frame_pair(frames[0], frames[1], cfg, pair_index=1)

    t0 = time.perf_counter()
    stage_s = [process_frame_pair(frames[0], frames[1], cfg, pair_index=i).stage_s
               for i in range(10)]
    mean_ms = (time.perf_counter() - t0) / 10 * 1e3
    assert mean_ms < 200.0
    breakdown = ", ".join(f"{s} {np.mean([st[s] for st in stage_s]) * 1e3:.1f}" for s in
                          ("intensity", "flow", "subsample", "estimate", "transform"))
    announce(f"PASS criterion 10: mean per-pair latency {mean_ms:.1f} ms at 346x260 "
             f"(stage means ms: {breakdown})")
