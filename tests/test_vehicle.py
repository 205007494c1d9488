import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflow.rigid import CameraVelocity, EstimateQuality
from evflow.vehicle import (Extrinsics, ImuSeries, substitute_imu_yaw,
                            transform_to_axle)

QUALITY = EstimateQuality(n_inliers=50, inlier_fraction=0.9, mean_residual=0.2)

finite = st.floats(-20.0, 20.0, allow_nan=False)


def cam_vel(v_lon=0.0, v_lat=0.0, omega=0.0, t_mid=0.0):
    return CameraVelocity(v=np.array([v_lon, v_lat]), omega=omega, t_mid=t_mid,
                          quality=QUALITY)


class TestTransformToAxle:
    def test_zero_omega_is_identity(self):
        est = transform_to_axle(cam_vel(1.2, -0.4), Extrinsics(0.5, 0.2))
        assert est.v_lon == pytest.approx(1.2) and est.v_lat == pytest.approx(-0.4)

    def test_cross_product_arithmetic(self):
        est = transform_to_axle(cam_vel(1.0, 0.0, omega=1.0), Extrinsics(0.3, 0.0))
        assert est.v_lon == pytest.approx(1.0)
        assert est.v_lat == pytest.approx(0.3)
        assert est.omega == pytest.approx(1.0)
        assert est.omega_source == "flow" and est.valid

    @given(finite, finite, st.floats(-10.0, 10.0), st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_longitudinal_invariance_exact(self, v_lon, v_lat, omega, ca_x):
        ext = Extrinsics(ca_x=ca_x, ca_y=0.0)
        with_omega = transform_to_axle(cam_vel(v_lon, v_lat, omega), ext)
        without = transform_to_axle(cam_vel(v_lon, v_lat, 0.0), ext)
        assert with_omega.v_lon == without.v_lon  # exact, no tolerance

    @given(finite, finite, st.floats(-10.0, 10.0), st.floats(-4.0, 4.0),
           st.floats(-4.0, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_affine_slope_in_omega(self, v_lon, v_lat, omega, ca_x, ca_y):
        ext = Extrinsics(ca_x=ca_x, ca_y=ca_y)
        base = transform_to_axle(cam_vel(v_lon, v_lat, 0.0), ext)
        moved = transform_to_axle(cam_vel(v_lon, v_lat, omega), ext)
        assert moved.v_lon - base.v_lon == pytest.approx(omega * -ca_y, abs=1e-12)
        assert moved.v_lat - base.v_lat == pytest.approx(omega * ca_x, abs=1e-12)

    def test_zero_offset_identity(self):
        est = transform_to_axle(cam_vel(0.7, 0.1, omega=3.0), Extrinsics())
        assert est.v_lon == pytest.approx(0.7) and est.v_lat == pytest.approx(0.1)

    def test_sanity_bound(self):
        with pytest.raises(ValueError):
            Extrinsics(ca_x=9.0, ca_y=9.0)


class TestImuSeries:
    def test_midpoint_interpolation(self):
        imu = ImuSeries([0, 10_000], [1.0, 2.0])
        assert imu.yaw_at(0.005, staleness_s=1.0) == pytest.approx(1.5)

    def test_edge_hold_within_staleness(self):
        imu = ImuSeries([1000, 2000], [1.0, 3.0])
        assert imu.yaw_at(0.0005, staleness_s=0.001) == pytest.approx(1.0)
        assert imu.yaw_at(0.0030, staleness_s=0.0015) == pytest.approx(3.0)

    def test_stale_returns_none(self):
        imu = ImuSeries([0], [1.0])
        assert imu.yaw_at(1.0, staleness_s=0.066) is None

    def test_stale_inside_a_gap_returns_none(self):
        imu = ImuSeries([0, 10_000_000], [0.0, 1.0])
        assert imu.yaw_at(5.0, staleness_s=0.066) is None
        assert imu.yaw_at(0.05, staleness_s=0.066) == pytest.approx(0.005)
        assert imu.yaw_at(9.95, staleness_s=0.066) == pytest.approx(0.995)

    def test_equal_timestamps(self):
        imu = ImuSeries([1000, 1000, 2000, 2000], [1.0, 3.0, 5.0, 7.0])
        assert imu.yaw_at(0.0005, staleness_s=0.001) == 1.0  # the first sample held
        assert imu.yaw_at(0.0025, staleness_s=0.001) == 7.0  # the last sample held
        assert imu.yaw_at(0.0015, staleness_s=0.001) == pytest.approx(4.0)

    def test_keeps_read_only_copies(self):
        t, w = np.array([0, 10]), np.array([1.0, 2.0])
        imu = ImuSeries(t, w)
        assert t.flags.writeable and w.flags.writeable
        assert not (imu.t_us.flags.writeable or imu.yaw_rate.flags.writeable)
        t[0], w[0] = 5, 9.0
        assert (imu.t_us[0], imu.yaw_rate[0]) == (0, 1.0)


class TestSubstituteImuYaw:
    def test_interpolated_yaw_replaces_flow(self):
        imu = ImuSeries([0, 10_000], [1.0, 2.0])
        est = substitute_imu_yaw(cam_vel(1.0, 0.0, omega=9.9, t_mid=0.005), imu,
                                 Extrinsics(0.4, 0.0), staleness_s=0.066)
        assert est.omega == pytest.approx(1.5)
        assert est.omega_source == "imu"
        assert est.v_lat == pytest.approx(1.5 * 0.4)

    def test_matching_imu_equals_flow_transfer(self):
        imu = ImuSeries([0, 10_000], [2.5, 2.5])
        cv = cam_vel(0.8, -0.1, omega=2.5, t_mid=0.004)
        ext = Extrinsics(0.3, -0.1)
        a = substitute_imu_yaw(cv, imu, ext, staleness_s=0.066)
        b = transform_to_axle(cv, ext)
        assert a.v_lon == pytest.approx(b.v_lon) and a.v_lat == pytest.approx(b.v_lat)
        assert a.omega == pytest.approx(b.omega)

    def test_staleness_marks_invalid(self):
        # the only sample 5 s before t_mid, or t_mid inside a 10 s gap between samples
        for imu in (ImuSeries([0], [1.0]), ImuSeries([0, 10_000_000], [1.0, 2.0])):
            est = substitute_imu_yaw(cam_vel(1.0, 0.0, omega=0.0, t_mid=5.0), imu,
                                     Extrinsics(), staleness_s=0.066)
            assert not est.valid
            assert est.reason == "imu_stale"
