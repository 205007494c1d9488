import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evflow.errors import DegenerateConsensusError, InsufficientDataError
from evflow.events import CameraModel
from evflow.rigid import (INLIER_THRESHOLD_PX, RANSAC_ITERATIONS, AxisMapping, RigidMotion2D,
                          estimate_rigid, ransac_estimate, reconstruct_flow,
                          to_camera_velocity)

CAM = CameraModel(width=640, height=480, height_z=0.6, f_px=554.26)


def rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def brute_force_objective(p, q, theta_grid):
    """Grid search over theta with the closed-form optimal t per theta."""
    best = math.inf
    p_mean, q_mean = p.mean(0), q.mean(0)
    for theta in theta_grid:
        r = rot(theta)
        t = q_mean - r @ p_mean
        best = min(best, float(np.sum((p @ r.T + t - q) ** 2)))
    return best


def objective(motion, p, q):
    return float(np.sum((reconstruct_flow(motion, p) - q) ** 2))


def kabsch_theta(h):
    """Reference angle: the generic SVD solution for cross-covariance h,
    with the determinant fix that keeps the rotation proper."""
    u, _, vt = np.linalg.svd(h)
    d = 1.0 if np.linalg.det(vt.T @ u.T) >= 0 else -1.0
    r = vt.T @ np.diag([1.0, d]) @ u.T
    return math.atan2(r[1, 0], r[0, 0])


def angle_gap(a, b):
    return abs(math.remainder(a - b, 2 * math.pi))


# Centered source points whose cross-covariance with cross_q(m) is m itself.
CROSS_P = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def cross_q(m):
    return 0.5 * np.vstack([m, -m])


class TestSvd2x2:
    """The closed-form angle for a given 2x2 cross-covariance against the
    generic SVD solution."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_generic_svd(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            m = rng.standard_normal((2, 2)) * rng.choice([1e-6, 1e-2, 1.0, 1e3])
            if rng.random() < 0.1:
                m[1] = m[0]  # rank deficient
            if rng.random() < 0.1:
                m = np.diag(rng.standard_normal(2))
            motion = estimate_rigid(CROSS_P, cross_q(m))
            s = np.linalg.svd(m, compute_uv=False)
            # the angle is as well determined as s1 / |(m00 + m11, m01 - m10)|
            spread = s[0] / math.hypot(m[0, 0] + m[1, 1], m[0, 1] - m[1, 0])
            assert angle_gap(motion.theta, kabsch_theta(m)) <= 1e-14 * (1 + spread)

    def test_zero_matrix(self):
        motion = estimate_rigid(CROSS_P, cross_q(np.zeros((2, 2))))
        assert motion.theta == 0.0
        assert np.array_equal(motion.t, np.zeros(2))


class TestEstimateRigid:
    def test_identity(self):
        p = np.random.default_rng(0).standard_normal((5, 2)) * 10
        m = estimate_rigid(p, p)
        assert m.theta == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(m.t, 0.0, atol=1e-12)
        assert m.mean_residual == pytest.approx(0.0, abs=1e-12)

    def test_pure_translation(self):
        p = np.random.default_rng(1).standard_normal((7, 2)) * 10
        m = estimate_rigid(p, p + [3.0, 4.0])
        assert m.theta == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(m.t, [3.0, 4.0], atol=1e-12)

    def test_exact_rotation_30deg(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        m = estimate_rigid(p, p @ rot(math.pi / 6).T)
        assert m.theta == pytest.approx(math.pi / 6, abs=1e-9)
        assert np.allclose(m.t, 0.0, atol=1e-9)

    def test_noisy_pairs_match_brute_force(self):
        rng = np.random.default_rng(2)
        p = rng.standard_normal((50, 2)) * 20
        q = p @ rot(0.05).T + [2.0, -1.0] + rng.standard_normal((50, 2)) * 0.1
        m = estimate_rigid(p, q)
        grid = np.arange(-0.2, 0.2 + 1e-9, 1e-4)
        assert objective(m, p, q) <= brute_force_objective(p, q, grid) + 1e-9

    def test_reflection_input_stays_proper_rotation(self):
        p = np.random.default_rng(3).standard_normal((6, 2)) * 5
        q = p * [-1.0, 1.0]  # mirrored points
        m = estimate_rigid(p, q)
        # the best rotation over the whole circle, not the reflection
        grid = np.arange(-math.pi, math.pi, 1e-3)
        assert objective(m, p, q) <= brute_force_objective(p, q, grid) + 1e-9

    def test_collinear_points_proper(self):
        p = np.stack([np.linspace(0, 10, 9), np.zeros(9)], axis=1)
        m = estimate_rigid(p, p @ rot(0.4).T + [1.0, 2.0])
        assert m.theta == pytest.approx(0.4, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            estimate_rigid(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_coincident_points(self):
        p = np.ones((4, 2))
        with pytest.raises(InsufficientDataError):
            estimate_rigid(p, p + 1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_theta_invariant_under_common_offset(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        p = rng.standard_normal((n, 2)) * 15
        q = p @ rot(rng.uniform(-1, 1)).T + rng.standard_normal(2) * 4
        q += rng.standard_normal((n, 2)) * 0.2
        offset = rng.standard_normal(2) * 100
        a = estimate_rigid(p, q)
        b = estimate_rigid(p + offset, q + offset)
        assert b.theta == pytest.approx(a.theta, abs=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_t_invariant_for_pure_translation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        p = rng.standard_normal((n, 2)) * 15
        q = p + rng.standard_normal(2) * 4
        offset = rng.standard_normal(2) * 100
        a = estimate_rigid(p, q)
        b = estimate_rigid(p + offset, q + offset)
        assert np.allclose(a.t, b.t, atol=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_estimate_reconstruct_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        p = rng.standard_normal((n, 2)) * 20
        if np.allclose(p, p[0]):
            return
        motion = RigidMotion2D(theta=float(rng.uniform(-3.0, 3.0)),
                               t=rng.standard_normal(2) * 10, n_points=n,
                               mean_residual=0.0)
        back = estimate_rigid(p, reconstruct_flow(motion, p))
        assert back.theta == pytest.approx(motion.theta, abs=1e-9)
        assert np.allclose(back.t, motion.t, atol=1e-7)

    @given(st.sampled_from(["random", "mirrored", "collinear", "half_turn", "two_points"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_kabsch_reference(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = 2 if kind == "two_points" else int(rng.integers(3, 61))
        if kind == "collinear":
            p = np.outer(rng.standard_normal(n), rng.standard_normal(2)) * 20
        else:
            p = rng.standard_normal((n, 2)) * 20
        p += rng.standard_normal(2) * 50
        theta = math.pi if kind == "half_turn" else rng.uniform(-math.pi, math.pi)
        q = p @ rot(theta).T + rng.standard_normal(2) * 10
        if kind == "mirrored":
            q[:, 0] *= -1.0
        elif kind != "half_turn":
            q += rng.standard_normal((n, 2)) * 0.5
        h = (p - p.mean(0)).T @ (q - q.mean(0))
        # a mirrored isotropic set makes every angle optimal
        assume(math.hypot(h[0, 0] + h[1, 1], h[0, 1] - h[1, 0]) > 1e-3 * np.abs(h).max())
        motion = estimate_rigid(p, q)
        assert angle_gap(motion.theta, kabsch_theta(h)) <= 1e-12
        assert -math.pi < motion.theta <= math.pi

    def test_half_turn_is_plus_pi(self):
        p = np.array([[1.0, 0.0], [-1.0, 0.0]])
        q = np.array([[-1.0, 0.0], [1.0, 1e-300]])  # atan2 alone gives -pi here
        assert estimate_rigid(p, q).theta == math.pi


class TestReconstructFlow:
    def test_translation_only(self):
        m = RigidMotion2D(theta=0.0, t=np.array([1.0, 1.0]), n_points=2, mean_residual=0.0)
        assert np.allclose(reconstruct_flow(m, np.array([[0.0, 0.0]])), [[1.0, 1.0]])

    def test_quarter_turn(self):
        m = RigidMotion2D(theta=math.pi / 2, t=np.zeros(2), n_points=2, mean_residual=0.0)
        assert np.allclose(reconstruct_flow(m, np.array([[1.0, 0.0]])), [[0.0, 1.0]],
                           atol=1e-12)


class TestRansac:
    def make_contaminated(self, n_in=10, n_out=2):
        rng = np.random.default_rng(4)
        p = rng.uniform(-30, 30, size=(n_in + n_out, 2))
        q = p + [2.0, 0.0]
        q[n_in:] = p[n_in:] + [50.0, 50.0]
        return p, q

    def test_constructed_outlier_instance(self):
        p, q = self.make_contaminated()
        motion, mask = ransac_estimate(p, q, rng_seed=11)
        assert mask.sum() == 10
        assert not mask[10:].any()
        assert np.allclose(motion.t, [2.0, 0.0], atol=1e-9)
        assert motion.theta == pytest.approx(0.0, abs=1e-10)

    def test_outlier_free_equals_plain_fit(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(-20, 20, size=(40, 2))
        q = p @ rot(0.02).T + [1.0, -0.5]
        motion, mask = ransac_estimate(p, q, rng_seed=0)
        plain = estimate_rigid(p, q)
        assert mask.all()
        assert motion.theta == pytest.approx(plain.theta, abs=1e-12)
        assert np.allclose(motion.t, plain.t, atol=1e-12)

    def test_published_defaults(self):
        assert INLIER_THRESHOLD_PX == 0.5
        assert RANSAC_ITERATIONS == 16

    def test_deterministic_masks(self):
        p, q = self.make_contaminated()
        _, m1 = ransac_estimate(p, q, rng_seed=(3, 7))
        _, m2 = ransac_estimate(p, q, rng_seed=(3, 7))
        assert np.array_equal(m1, m2)

    def test_degenerate_consensus_raises(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(-20, 20, size=(30, 2))
        q = p + rng.uniform(-40, 40, size=(30, 2))  # no rigid consensus
        with pytest.raises(DegenerateConsensusError):
            ransac_estimate(p, q, rng_seed=1)

    def test_dominance_over_contaminated_fit(self):
        rng = np.random.default_rng(7)
        n_in, n_out = 28, 12  # 30% gross outliers
        p = rng.uniform(-40, 40, size=(n_in + n_out, 2))
        q = p @ rot(0.03).T + [1.5, -0.7]
        q[:n_in] += rng.standard_normal((n_in, 2)) * 0.05
        q[n_in:] += rng.uniform(-1, 1, size=(n_out, 2)) * 60  # error >> 10 * eps
        truth_inliers = np.zeros(n_in + n_out, dtype=bool)
        truth_inliers[:n_in] = True

        motion, _ = ransac_estimate(p, q, rng_seed=2)
        plain = estimate_rigid(p, q)
        res_ransac = np.linalg.norm(
            reconstruct_flow(motion, p[truth_inliers]) - q[truth_inliers], axis=1).mean()
        res_plain = np.linalg.norm(
            reconstruct_flow(plain, p[truth_inliers]) - q[truth_inliers], axis=1).mean()
        assert res_ransac <= res_plain

    def test_optimality_over_random_instances(self):
        rng = np.random.default_rng(8)
        grid = np.arange(-0.2, 0.2 + 1e-9, 1e-3)
        for _ in range(30):
            n = int(rng.integers(3, 100))
            p = rng.standard_normal((n, 2)) * 30
            q = p @ rot(rng.uniform(-0.15, 0.15)).T + rng.standard_normal(2) * 5
            q += rng.standard_normal((n, 2)) * 0.5
            m = estimate_rigid(p, q)
            assert objective(m, p, q) <= brute_force_objective(p, q, grid) + 1e-9


class TestToCameraVelocity:
    def make_motion(self, theta=0.0, t=(0.0, 0.0)):
        return RigidMotion2D(theta=theta, t=np.array(t, dtype=float), n_points=100,
                             mean_residual=0.1)

    def convert(self, motion, dt, mapping=AxisMapping(), n_total=100):
        return to_camera_velocity(motion, CAM, dt, 0.0, mapping, n_total)

    def test_pixel_speed_anchor(self):
        cv = self.convert(self.make_motion(t=(185.0, 0.0)), dt=0.005)
        assert np.linalg.norm(cv.v) == pytest.approx(40.05, abs=0.01)

    def test_zero_motion(self):
        cv = self.convert(self.make_motion(), dt=0.005)
        assert np.allclose(cv.v, 0.0) and cv.omega == 0.0

    def test_disk_omega_anchor(self):
        cv = self.convert(self.make_motion(theta=0.03766), dt=0.001)
        assert cv.omega == pytest.approx(37.66, abs=1e-9)
        assert cv.omega * 60 / (2 * math.pi) == pytest.approx(359.6, abs=0.05)

    def test_axis_mapping_permutes_and_flips(self):
        mapping = AxisMapping(image_x="-y", image_y="+x", omega_sign=-1)
        cv = self.convert(self.make_motion(theta=0.01, t=(10.0, 20.0)), dt=0.01,
                          mapping=mapping)
        scale = CAM.height_z / CAM.f_px / 0.01
        assert cv.v[0] == pytest.approx(20.0 * scale)   # image +y -> vehicle +x
        assert cv.v[1] == pytest.approx(-10.0 * scale)  # image +x -> vehicle -y
        assert cv.omega == pytest.approx(-1.0)

    def test_quality_fraction(self):
        cv = self.convert(self.make_motion(t=(1.0, 0.0)), dt=0.01, n_total=200)
        assert cv.quality.n_inliers == 100
        assert cv.quality.inlier_fraction == pytest.approx(0.5)

    def test_mapping_validation(self):
        with pytest.raises(ValueError):
            AxisMapping(image_x="+x", image_y="-x")
        with pytest.raises(ValueError):
            AxisMapping(omega_sign=0)
