import pytest

from evflow.config import RunConfig, Scenario, parse_kv_text
from evflow.errors import ConfigError
from evflow.synth import CheckerTexture, DotTexture, NoiseTexture

RUN_TEXT = """
# comment line
io.events = events.csv
io.out_dir = out
camera.width = 346
camera.height = 260
camera.height_z = 0.3          # trailing comment
camera.f_px = 299.7
accumulation.window_us = 33000
flow.stride = 6
ransac.enabled = false
extrinsics.ca_x = 0.25
seed = 17
"""

SCENARIO_TEXT = """
camera.width = 120
camera.height = 90
camera.height_z = 0.5
camera.f_px = 100.0
texture.kind = dots
texture.density = 0.01
texture.radius_px = 2.0
sim.duration_s = 0.1
sim.contrast = 0.25
sim.time_step_s = 0.002
trajectory.t_s = 0.0, 0.05, 0.1
trajectory.v_lon = 1.0, 2.0, 1.0
trajectory.omega = 0.0, 0.5, 0.0
"""


class TestKvParsing:
    def test_basic(self):
        kv = parse_kv_text("a.b = 1\n# note\nc = x y\n")
        assert kv == {"a.b": "1", "c": "x y"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_kv_text("just words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_kv_text("a = 1\na = 2\n")


class TestRunConfig:
    def test_parse_with_defaults(self):
        cfg = RunConfig.from_text(RUN_TEXT)
        assert cfg.camera.width == 346
        assert cfg.accumulation.window_us == 33000
        assert cfg.accumulation.count_cap == 15
        assert cfg.flow.window_size == 15 and cfg.flow.poly_sigma == 1.1
        assert cfg.ransac.enabled is False
        assert cfg.ransac.inlier_threshold == 0.5 and cfg.ransac.iterations == 16
        assert cfg.stride == 6 and cfg.seed == 17
        assert cfg.extrinsics.ca_x == 0.25 and cfg.extrinsics.ca_y == 0.0
        assert cfg.mapping.image_x == "+x" and cfg.mapping.omega_sign == 1

    def test_round_trip_lossless(self):
        cfg = RunConfig.from_text(RUN_TEXT)
        again = RunConfig.from_text(cfg.to_text())
        assert again == cfg
        assert again.to_text() == cfg.to_text()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text(RUN_TEXT + "nonsense.key = 1\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text("camera.width = 10\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text(RUN_TEXT.replace("33000", "soon"))

    def test_imu_source_requires_path(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text(RUN_TEXT + "omega.source = imu\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_file(tmp_path / "absent.cfg")

    def test_camera_fov_alternative(self):
        text = RUN_TEXT.replace("camera.f_px = 299.7", "camera.fov_deg = 60.0")
        cfg = RunConfig.from_text(text)
        assert cfg.camera.f_px == pytest.approx(173 / 0.57735, rel=1e-3)


class TestScenario:
    def test_parse_dots(self):
        sc = Scenario.from_text(SCENARIO_TEXT)
        assert isinstance(sc.sim.texture, DotTexture)
        assert sc.sim.contrast == 0.25
        assert sc.sim.duration == 0.1
        assert sc.trajectory.t_s.tolist() == [0.0, 0.05, 0.1]
        assert sc.trajectory.v_lat.tolist() == [0.0, 0.0, 0.0]

    def test_parse_noise_and_checker(self):
        noise = SCENARIO_TEXT.replace("texture.kind = dots", "texture.kind = noise") \
            .replace("texture.density = 0.01\n", "").replace("texture.radius_px = 2.0\n", "")
        assert isinstance(Scenario.from_text(noise).sim.texture, NoiseTexture)
        checker = noise.replace("texture.kind = noise",
                                "texture.kind = checker\ntexture.period_px = 8")
        assert isinstance(Scenario.from_text(checker).sim.texture, CheckerTexture)

    def test_unknown_texture(self):
        with pytest.raises(ConfigError):
            Scenario.from_text(SCENARIO_TEXT.replace("dots", "marble"))

    def test_default_time_step_follows_window(self):
        text = SCENARIO_TEXT.replace("sim.time_step_s = 0.002\n",
                                     "accumulation.window_us = 16000\n")
        sc = Scenario.from_text(text)
        assert sc.sim.time_step == pytest.approx(0.002)

    def test_trajectory_length_mismatch(self):
        with pytest.raises(ConfigError):
            Scenario.from_text(SCENARIO_TEXT.replace(
                "trajectory.v_lon = 1.0, 2.0, 1.0", "trajectory.v_lon = 1.0"))
