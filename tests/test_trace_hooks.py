"""The benchmark's layer tracer wraps package functions by module attribute
(``perfbench/tracer.py``); a renamed or moved function fails every traced
run, so each wrapped attribute must resolve, and the spans of a traced
``evflow estimate`` must account for its wall time."""

import importlib
import importlib.util
import inspect
import time
from pathlib import Path

from evflow import parallel, synth
from evflow.cli import main as cli_main
from evflow.config import RunConfig
from evflow.event_io import write_events_binary
from evflow.synth import NoiseTexture, SimConfig, generate_events
from helpers import constant_trajectory, logged

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

RUN_TEXT = """
camera.width = 160
camera.height = 120
camera.height_z = 0.5
camera.f_px = 120.0
accumulation.window_us = 33000
flow.stride = 6
ransac.enabled = true
seed = 5
"""

# spans every estimate run records; rigid.estimate_rigid runs inside RANSAC
ESTIMATE_SPANS = {"event_io.load", "events.accumulate", "pipeline.pair", "events.intensity",
                  "flow.compute", "flow.expand", "flow.subsample", "rigid.fit",
                  "rigid.estimate_rigid", "vehicle.transform", "state_io.write"}
# per-frame work the benchmark attributes to a frame pair
PAIR_WORK = ("events.intensity", "flow.expand", "flow.compute")
COVERAGE = 0.95


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    wraps = load_tracer().WRAPS
    assert wraps
    for module_name, attr, _, _, is_generator in wraps:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} is missing"
        assert inspect.isgeneratorfunction(fn) == is_generator, f"{module_name}.{attr}"


def test_traced_estimate_spans_cover_its_wall_time(tmp_path):
    cfg = RunConfig.from_text(RUN_TEXT)
    duration = 12 * cfg.window_s
    sim = SimConfig(texture=NoiseTexture(seed=11), cam=cfg.camera, noise_rate=0.05,
                    duration=duration, time_step=cfg.window_s / 8, seed=3)
    events, _ = generate_events(sim, constant_trajectory(duration, v_lon=1.0,
                                                         v_lat=0.1, omega=0.3))
    ev_path = tmp_path / "events.evt"
    write_events_binary(ev_path, events, cfg.camera.width, cfg.camera.height)
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(RUN_TEXT)
    argv = ["estimate", "--config", str(run_cfg), "--events", str(ev_path),
            "--out-dir", str(tmp_path / "out")]
    assert cli_main(argv) == 0  # first-call costs stay out of the traced run

    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        code = cli_main(argv)
        wall = time.perf_counter() - t0
    finally:
        assert tracer.restore()
    assert code == 0

    spans = tracer.spans
    assert ESTIMATE_SPANS <= {s[0] for s in spans}
    for name, _, _, parent, _ in spans:
        if name in PAIR_WORK:
            while parent != -1 and spans[parent][0] != "pipeline.pair":
                parent = spans[parent][3]
            assert parent != -1, f"{name} runs outside pipeline.pair"
    top = sum(end - start for name, start, end, parent, _ in spans
              if parent == -1 and name in module.TOP_LEVEL)
    assert top >= COVERAGE * wall, f"top-level spans cover {top / wall:.1%} of the run"


SCENARIO_TEXT = """
camera.width = 160
camera.height = 120
camera.height_z = 0.5
camera.f_px = 120.0
texture.kind = noise
texture.seed = 11
accumulation.window_us = 33000
sim.duration_s = 0.264
sim.noise_rate = 0.05
sim.seed = 3
trajectory.t_s = 0.0, 0.264
trajectory.v_lon = 1.0, 1.0
trajectory.v_lat = 0.1, 0.1
trajectory.omega = 0.3, 0.3
"""


N_SUB = 64  # 0.264 s in steps of an eighth of the 33 ms window


def traced_simulate(tmp_path):
    """The spans and wall seconds of one traced ``simulate`` of SCENARIO_TEXT."""
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO_TEXT)
    argv = ["simulate", str(scenario), "--events", str(tmp_path / "events.evt")]
    assert cli_main(argv) == 0  # first-call costs stay out of the traced run

    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        code = cli_main(argv)
        wall = time.perf_counter() - t0
    finally:
        assert tracer.restore()
    assert code == 0
    return tracer.spans, wall


def test_traced_simulate_spans_cover_its_wall_time(tmp_path, monkeypatch):
    # one process, so that the tracer sees every render
    monkeypatch.setattr(parallel, "default_workers", lambda: 1)
    spans, wall = traced_simulate(tmp_path)
    names = [s[0] for s in spans]
    # one texture evaluation per rendered image: the initial one plus one per substep
    assert names.count("synth.texture") == N_SUB + 1
    assert "synth.make_events" in names
    top = sum(end - start for name, start, end, parent, _ in spans
              if parent == -1 and name in ("synth.generate", "event_io.write"))
    assert top >= COVERAGE * wall, f"top-level spans cover {top / wall:.1%} of the run"


def test_traced_simulate_on_two_workers_renders_each_later_block_start_again(
        tmp_path, monkeypatch):
    # the tracer sees this process's block only; the log counts both processes' renders
    log = tmp_path / "renders.log"
    monkeypatch.setattr(parallel, "default_workers", lambda: 2)
    monkeypatch.setattr(synth, "_render", logged(log, synth._render))
    spans, wall = traced_simulate(tmp_path)
    blocks = parallel.blocks(N_SUB, 2)
    assert blocks == [(0, 32), (32, 64)]
    # two simulate runs: the untraced first and the traced one
    assert len(log.read_text().split()) == 2 * (N_SUB + 1 + (len(blocks) - 1))
    names = [s[0] for s in spans]
    assert names.count("synth.texture") == 1 + 32
    assert names.count("synth.generate") == 1
    top = sum(end - start for name, start, end, parent, _ in spans
              if parent == -1 and name in ("synth.generate", "event_io.write"))
    assert top >= COVERAGE * wall, f"top-level spans cover {top / wall:.1%} of the run"
