import dataclasses
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflow import config
from evflow.cli import main as cli_main
from evflow.config import RunConfig, Scenario, parse_kv_text
from evflow.errors import ConfigError
from evflow.synth import MAX_SUBSTEPS, CheckerTexture, DotTexture, NoiseTexture

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
        assert cfg.pyramid_levels == 3
        assert cfg.ransac is False
        assert cfg.stride == 6 and cfg.seed == 17
        assert cfg.extrinsics.ca_x == 0.25 and cfg.extrinsics.ca_y == 0.0
        assert cfg.mapping.image_x == "+x" and cfg.mapping.omega_sign == 1

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


# The keys each parser accepted before the key tables, copied from its code,
# less those since retired (RETIRED_KEYS).
RUN_KEYS = {
    "io.events", "io.imu", "io.out_dir",
    "camera.width", "camera.height", "camera.height_z", "camera.f_px", "camera.fov_deg",
    "camera.cx", "camera.cy",
    "accumulation.window_us", "accumulation.count_cap",
    "flow.pyramid_levels", "flow.stride", "ransac.enabled",
    "extrinsics.ca_x", "extrinsics.ca_y",
    "mapping.image_x", "mapping.image_y", "mapping.omega_sign",
    "omega.source", "seed",
}
SCENARIO_KEYS = {
    "camera.width", "camera.height", "camera.height_z", "camera.f_px", "camera.fov_deg",
    "camera.cx", "camera.cy",
    "accumulation.window_us",
    "extrinsics.ca_x", "extrinsics.ca_y",
    "texture.kind",
    "sim.duration_s", "sim.contrast", "sim.noise_rate", "sim.time_step_s", "sim.seed",
    "trajectory.t_s", "trajectory.v_lon", "trajectory.v_lat", "trajectory.omega",
}
TEXTURE_KEYS = {
    "noise": {"texture.seed", "texture.cutoff", "texture.amplitude"},
    "checker": {"texture.period_px", "texture.amplitude"},
    "dots": {"texture.density", "texture.radius_px", "texture.amplitude", "texture.seed"},
}
TABLES = (config.CAMERA, config.ACCUMULATION, config.EXTRINSICS, config.MAPPING, config.RUN,
          config.TEXTURE, config.SIM)
# keys a parser once read and no longer does: each is now rejected as unknown
RETIRED_KEYS = {"io.ground_truth", "eval.alignment_tolerance_s", "intensity.merge",
                "flow.pyramid_scale", "flow.window_size", "flow.iterations", "flow.poly_n",
                "flow.poly_sigma", "ransac.iterations", "ransac.inlier_threshold_px",
                "ransac.min_inlier_fraction"}
CANDIDATE_KEYS = (RUN_KEYS | SCENARIO_KEYS | set().union(*TEXTURE_KEYS.values())
                  | set().union(*TABLES) | RETIRED_KEYS)

# every run key with a value other than its default: key -> (value, field path, parsed)
RUN_VALUES = {
    "io.events": ("ev.evt", "events_path", "ev.evt"),
    "io.imu": ("imu.csv", "imu_path", "imu.csv"),
    "io.out_dir": ("results", "out_dir", "results"),
    "camera.width": ("200", "camera.width", 200),
    "camera.height": ("150", "camera.height", 150),
    "camera.height_z": ("0.7", "camera.height_z", 0.7),
    "camera.f_px": ("180.0", "camera.f_px", 180.0),
    "camera.fov_deg": ("58.07", "camera.fov_alpha", math.radians(58.07)),
    "camera.cx": ("99.0", "camera.cx", 99.0),
    "camera.cy": ("70.5", "camera.cy", 70.5),
    "accumulation.window_us": ("20000", "accumulation.window_us", 20000),
    "accumulation.count_cap": ("9", "accumulation.count_cap", 9),
    "flow.pyramid_levels": ("2", "pyramid_levels", 2),
    "flow.stride": ("5", "stride", 5),
    "ransac.enabled": ("false", "ransac", False),
    "extrinsics.ca_x": ("0.3", "extrinsics.ca_x", 0.3),
    "extrinsics.ca_y": ("-0.1", "extrinsics.ca_y", -0.1),
    "mapping.image_x": ("-y", "mapping.image_x", "-y"),
    "mapping.image_y": ("+x", "mapping.image_y", "+x"),
    "mapping.omega_sign": ("-1", "mapping.omega_sign", -1),
    "omega.source": ("imu", "omega_source", "imu"),
    "seed": ("42", "seed", 42),
}
SCENARIO_VALUES = {
    "camera.width": ("200", "sim.cam.width", 200),
    "camera.height": ("150", "sim.cam.height", 150),
    "camera.height_z": ("0.7", "sim.cam.height_z", 0.7),
    "camera.f_px": ("180.0", "sim.cam.f_px", 180.0),
    "camera.fov_deg": ("58.07", "sim.cam.fov_alpha", math.radians(58.07)),
    "camera.cx": ("99.0", "sim.cam.cx", 99.0),
    "camera.cy": ("70.5", "sim.cam.cy", 70.5),
    "accumulation.window_us": ("16000", None, None),  # only a default for sim.time_step_s
    "extrinsics.ca_x": ("0.3", "sim.ext.ca_x", 0.3),
    "extrinsics.ca_y": ("-0.1", "sim.ext.ca_y", -0.1),
    "sim.duration_s": ("0.5", "sim.duration", 0.5),
    "sim.contrast": ("0.3", "sim.contrast", 0.3),
    "sim.noise_rate": ("0.05", "sim.noise_rate", 0.05),
    "sim.time_step_s": ("0.003", "sim.time_step", 0.003),
    "sim.seed": ("5", "sim.seed", 5),
    "trajectory.t_s": ("0.0, 0.5", "trajectory.t_s", [0.0, 0.5]),
    "trajectory.v_lon": ("1.0, 2.0", "trajectory.v_lon", [1.0, 2.0]),
    "trajectory.v_lat": ("0.1, 0.2", "trajectory.v_lat", [0.1, 0.2]),
    "trajectory.omega": ("0.3, -0.3", "trajectory.omega", [0.3, -0.3]),
}
TEXTURE_VALUES = {
    "noise": {"texture.seed": ("7", "seed", 7), "texture.cutoff": ("0.2", "cutoff", 0.2),
              "texture.amplitude": ("0.9", "amplitude", 0.9)},
    "checker": {"texture.period_px": ("12.0", "period_px", 12.0),
                "texture.amplitude": ("0.9", "amplitude", 0.9)},
    "dots": {"texture.density": ("0.02", "density", 0.02),
             "texture.radius_px": ("1.5", "radius_px", 1.5),
             "texture.amplitude": ("0.9", "amplitude", 0.9),
             "texture.seed": ("7", "seed", 7)},
}


def _text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _field(obj, path: str):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def _default(obj, path: str):
    *parents, name = path.split(".")
    owner = _field(obj, ".".join(parents)) if parents else obj
    return {f.name: f.default for f in dataclasses.fields(owner)}[name]


def _scenario_values(kind: str) -> dict:
    return {**SCENARIO_VALUES,
            **{key: (value, f"sim.texture.{name}", parsed)
               for key, (value, name, parsed) in TEXTURE_VALUES[kind].items()}}


def _scenario_text(kind: str) -> str:
    values = {key: value for key, (value, _, _) in _scenario_values(kind).items()}
    return _text({"texture.kind": kind, **values})


def _unknown_rejected(parse, text: str, key: str) -> bool:
    with pytest.raises(ConfigError) as info:
        parse(text + f"{key} = 1\n")
    return "unknown keys" in str(info.value)


class TestKeyTables:
    def test_every_run_key_lands_in_its_field(self):
        assert set(RUN_VALUES) == RUN_KEYS
        cfg = RunConfig.from_text(_text({k: v for k, (v, _, _) in RUN_VALUES.items()}))
        for key, (_, path, parsed) in RUN_VALUES.items():
            assert _field(cfg, path) == pytest.approx(parsed), key
            if path != "camera.fov_alpha":  # derived from f_px when not given
                assert _default(cfg, path) != parsed, key

    @pytest.mark.parametrize("kind", sorted(TEXTURE_KEYS))
    def test_every_scenario_key_lands_in_its_field(self, kind):
        sc = Scenario.from_text(_scenario_text(kind))
        assert type(sc.sim.texture) is config.TEXTURE_KINDS[kind]
        for key, (_, path, parsed) in _scenario_values(kind).items():
            if path is None:
                continue
            value = _field(sc, path)
            assert (value.tolist() if path.startswith("trajectory") else value) \
                == pytest.approx(parsed), key
            if path != "sim.cam.fov_alpha":
                assert _default(sc, path) != parsed, key

    def test_run_key_set_matches(self):
        text = _text({k: v for k, (v, _, _) in RUN_VALUES.items()})
        for key in CANDIDATE_KEYS - RUN_KEYS:
            assert _unknown_rejected(RunConfig.from_text, text, key), key

    @pytest.mark.parametrize("kind", sorted(TEXTURE_KEYS))
    def test_scenario_key_set_matches(self, kind):
        accepted = SCENARIO_KEYS | TEXTURE_KEYS[kind]
        assert set(parse_kv_text(_scenario_text(kind))) == accepted
        for key in CANDIDATE_KEYS - accepted:
            assert _unknown_rejected(Scenario.from_text, _scenario_text(kind), key), key

    def test_readme_run_block_names_the_run_keys(self):
        block = _readme_block("Run config")
        assert _named_keys(block) == RUN_KEYS
        RunConfig.from_text(block)

    def test_readme_scenario_block_names_the_scenario_keys(self):
        block = _readme_block("Scenario config")
        named = _named_keys(block)
        # the block names some camera.* keys and defers the rest to the run block
        cameras = {key for key in SCENARIO_KEYS if key.startswith("camera.")}
        assert named - cameras == SCENARIO_KEYS - cameras
        assert named & cameras <= cameras <= _named_keys(_readme_block("Run config"))
        Scenario.from_text(block)
        bullets = _README.split("Texture keys per `texture.kind`", 1)[1].split("\n\n")[1]
        listed = {kind: set(re.findall(r"`(texture\.\w+) =", body)) for kind, body
                  in re.findall(r"^- `(\w+)`:(.*?)(?=^- |\Z)", bullets, re.M | re.S)}
        assert listed == TEXTURE_KEYS


_README = (Path(__file__).parents[1] / "README.md").read_text()


def _readme_block(title: str) -> str:
    """The ini block after README's ``<title> (`evflow ...`):`` line."""
    return re.search(rf"^{title} \(`evflow \w+`\):\n\n```ini\n(.*?)```", _README,
                     re.M | re.S).group(1)


def _named_keys(block: str) -> set[str]:
    """Every key a README block assigns, in a line or in its comment."""
    return set(re.findall(r"([a-z_][\w.]*) +=", block))


_ANY_VALUE = st.one_of(st.text(), st.integers().map(str), st.floats().map(repr),
                       st.lists(st.floats().map(repr), max_size=4).map(", ".join))


class TestDomains:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.sampled_from(sorted(RUN_KEYS)), _ANY_VALUE, max_size=6))
    def test_arbitrary_run_values_parse_or_raise_config_error(self, overrides):
        values = {k: v for k, (v, _, _) in RUN_VALUES.items()}
        try:
            RunConfig.from_text(_text({**values, **overrides}))
        except ConfigError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(TEXTURE_KEYS)),
           st.dictionaries(st.sampled_from(sorted(SCENARIO_KEYS | config.TEXTURE.keys())),
                           _ANY_VALUE, max_size=6))
    def test_arbitrary_scenario_values_parse_or_raise_config_error(self, kind, overrides):
        values = parse_kv_text(_scenario_text(kind))
        try:
            Scenario.from_text(_text({**values, **overrides}))
        except ConfigError:
            pass

    @pytest.mark.parametrize("line", [
        "camera.height_z = nan", "camera.f_px = inf", "extrinsics.ca_x = -inf", "seed = -2",
        "camera.width = 1" + "0" * 400, "accumulation.window_us = 1" + "0" * 400,
        f"accumulation.window_us = {2 ** 64}", f"accumulation.count_cap = {2 ** 30}",
        f"accumulation.count_cap = {10 ** 20}", "flow.stride = 0", "flow.pyramid_levels = 0",
        "intensity.merge = bogus",  # retired: rejected as an unknown key
    ])
    def test_run_out_of_domain(self, line):
        key = line.split(" = ")[0]
        values = {k: v for k, (v, _, _) in RUN_VALUES.items() if k != key}
        with pytest.raises(ConfigError) as info:
            RunConfig.from_text(_text(values) + line + "\n")
        # every message names the file, and a check on the built config its key
        assert str(info.value).startswith("<config>: ")
        if key.startswith("flow."):
            assert key in str(info.value)

    @pytest.mark.parametrize("height_z, ok", [("1e260", True), ("1e270", False),
                                              ("1e300", False)])
    def test_camera_scale_must_keep_the_velocity_finite(self, height_z, ok):
        # 2**129 px, a valid flow's bound, times 1e270 / 180 m per px is finite
        # but overflows over the 20 ms window; with 1e300 it overflows at once
        text = _text({**{k: v for k, (v, _, _) in RUN_VALUES.items()},
                      "camera.height_z": height_z})
        if ok:
            RunConfig.from_text(text)
            return
        with pytest.raises(ConfigError, match=r"camera\.height_z / camera\.f_px .*"
                                              r"accumulation\.window_us"):
            RunConfig.from_text(text)

    @pytest.mark.parametrize("kind, line", [
        ("noise", "sim.duration_s = nan"), ("noise", "camera.height_z = nan"),
        ("noise", "sim.contrast = inf"), ("noise", "texture.seed = -1"),
        ("noise", "sim.seed = -3"), ("dots", "texture.density = 0"),
        ("checker", "texture.period_px = 0"), ("noise", "trajectory.v_lat = 0.0, nan"),
        ("noise", "trajectory.t_s = 0.0, 0.1"), ("noise", "camera.width = 0"),
        ("noise", "sim.time_step_s = 1e-300"), ("noise", "sim.time_step_s = 1e-9"),
        ("noise", "camera.width = 70000"), ("noise", "camera.height = 65536"),
        ("noise", "texture.cutoff = -0.1"), ("noise", "texture.cutoff = 0.6"),
        ("noise", "sim.noise_rate = 2e6"), ("noise", "sim.duration_s = 5e-7"),
        ("dots", "texture.radius_px = -2.5"), ("dots", "texture.radius_px = 0"),
    ])
    def test_scenario_out_of_domain(self, kind, line):
        key = line.split(" = ")[0]
        values = {k: v for k, v in parse_kv_text(_scenario_text(kind)).items() if k != key}
        with pytest.raises(ConfigError):
            Scenario.from_text(_text(values) + line + "\n")

    @pytest.mark.parametrize("window_us", ["0", "-1", str(2 ** 64)])
    def test_scenario_window_out_of_domain_exits_2(self, tmp_path, capsys, window_us):
        # checked although the scenario's sim.time_step_s leaves the window unused
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(SCENARIO_TEXT + f"accumulation.window_us = {window_us}\n")
        events = tmp_path / "events.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(events)]) == 2
        err = capsys.readouterr().err
        assert "'accumulation.window_us'" in err and "(0, 2**64)" in err
        assert not events.exists()

    @pytest.mark.parametrize("width, height, run_ok, scenario_ok", [
        (1, 1, False, True), (1, 150, False, True), (2, 2, True, True),
        (65535, 65535, False, False), (65536, 150, False, False), (200, 70000, False, False),
        (2048, 2048, True, True), (2049, 2048, False, False),
    ])
    def test_camera_side_bounds(self, width, height, run_ok, scenario_ok):
        # f_px alone fixes the camera, so no fov/f_px disagreement can reject it
        sides = {"camera.width": width, "camera.height": height}
        dropped = ("camera.fov_deg", "camera.cx", "camera.cy")
        run = {k: v for k, (v, _, _) in RUN_VALUES.items() if k not in dropped}
        scenario = {k: v for k, v in parse_kv_text(_scenario_text("noise")).items()
                    if k not in dropped}
        for parse, values, ok in ((RunConfig.from_text, run, run_ok),
                                  (Scenario.from_text, scenario, scenario_ok)):
            if ok:
                assert parse(_text({**values, **sides})) is not None
            else:
                with pytest.raises(ConfigError, match="px"):
                    parse(_text({**values, **sides}))

    def test_count_cap_upper_bound_parses(self):
        values = {k: v for k, (v, _, _) in RUN_VALUES.items() if k != "accumulation.count_cap"}
        cfg = RunConfig.from_text(_text(values) + f"accumulation.count_cap = {2 ** 30 - 1}\n")
        assert cfg.accumulation.count_cap == 2 ** 30 - 1

    def test_window_below_2_pow_64_us_parses(self):
        values = {k: v for k, (v, _, _) in RUN_VALUES.items() if k != "accumulation.window_us"}
        cfg = RunConfig.from_text(_text(values) + f"accumulation.window_us = {2 ** 64 - 1}\n")
        assert cfg.accumulation.window_us == 2 ** 64 - 1

    def test_substep_ceiling(self):
        values = parse_kv_text(_scenario_text("noise"))
        duration = float(values["sim.duration_s"])
        at_ceiling = {**values, "sim.time_step_s": repr(duration / MAX_SUBSTEPS)}
        assert Scenario.from_text(_text(at_ceiling)).sim.time_step == duration / MAX_SUBSTEPS
        over = {**values, "sim.time_step_s": repr(duration / (MAX_SUBSTEPS + 1))}
        with pytest.raises(ConfigError, match="substeps"):
            Scenario.from_text(_text(over))

    def test_unreadable_file(self, tmp_path):
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"\xff\xfe\x00")
        for path in (tmp_path, binary):
            with pytest.raises(ConfigError):
                RunConfig.from_file(path)
            with pytest.raises(ConfigError):
                Scenario.from_file(path)
