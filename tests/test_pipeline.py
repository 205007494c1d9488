import contextlib
import io
import json
import math
import sys
import tempfile
import threading
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflow import event_io, flow, pipeline, state_io
from evflow.cli import main as cli_main
from evflow.config import RunConfig, Scenario
from evflow.errors import EvaluationError, InputFormatError
from evflow.evaluate import evaluate
from evflow.event_io import load_events_csv, write_events_binary
from evflow.events import EVENT_DTYPE, accumulate, make_events
from evflow.pipeline import iter_pairs, process_frame_pair
from evflow.plots import dump_flow_csv, emit_plots
from evflow.rigid import EstimateQuality
from evflow.synth import NoiseTexture, SimConfig, Trajectory, generate_events
from evflow.vehicle import VelocityEstimate

QUALITY = EstimateQuality(n_inliers=10, inlier_fraction=1.0, mean_residual=0.0)

RUN_TEXT = """
camera.width = 120
camera.height = 90
camera.height_z = 0.5
camera.f_px = 100.0
accumulation.window_us = 33000
flow.stride = 6
ransac.enabled = true
seed = 5
"""


def small_scenario(duration=0.165, v_lon=1.0, v_lat=0.1, omega=0.3, noise_rate=0.05):
    cfg = RunConfig.from_text(RUN_TEXT)
    sim = SimConfig(texture=NoiseTexture(seed=11), cam=cfg.camera, noise_rate=noise_rate,
                    duration=duration, time_step=33e-3 / 8, seed=3)
    traj = Trajectory.constant(duration, v_lon=v_lon, v_lat=v_lat, omega=omega)
    events, truth, _ = generate_events(sim, traj)
    return cfg, events, truth


def vel(t, v_lon, v_lat=0.0, omega=0.0, valid=True, source="flow"):
    return VelocityEstimate(t_mid=t, v_lon=v_lon, v_lat=v_lat, omega=omega,
                            omega_source=source, quality=QUALITY, valid=valid)


def estimates(events, cfg, **kwargs) -> list[VelocityEstimate]:
    """The output row of every frame ``iter_pairs`` yields."""
    return [pair.estimate for pair in iter_pairs(events, cfg, **kwargs)]


def counting(calls: list, name: str, fn):
    """``fn`` that also appends ``name`` to ``calls`` on each call; an append
    stays exact when pairs run on several threads."""
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


def with_gaps(events, present, window_us):
    """A stream of ``len(present)`` windows: window j holds the events of
    window ``j % 5`` of ``events`` moved to it where ``present[j]``, else none."""
    parts = [events[:0]]
    for j in [j for j, keep in enumerate(present) if keep]:
        src = (j % 5) * window_us
        part = events[(events["t_us"] >= src) & (events["t_us"] < src + window_us)].copy()
        part["t_us"] += j * window_us - src
        parts.append(part)
    return np.concatenate(parts)


@pytest.fixture(scope="module")
def small_stream():
    """``small_scenario()``'s config and events, simulated once per module."""
    cfg, events, _ = small_scenario()
    return cfg, events


class TestRunPipeline:
    def test_row_count_and_accounting(self):
        cfg, events, truth = small_scenario()
        rows = estimates(events, cfg)
        assert len(rows) == 5  # 0.165 s / 33 ms
        assert [e.reason for e in rows if not e.valid] == ["no_previous_frame"]
        assert sum(e.valid for e in rows) == 4

    def test_estimates_track_truth(self):
        cfg, events, truth = small_scenario()
        report = evaluate(estimates(events, cfg), truth, tolerance_s=cfg.window_s / 2)
        assert report.channels["v_lon"].rmse < 0.03
        assert report.channels["omega"].rmse < 0.03

    def test_zero_event_input_all_invalid(self):
        cfg = RunConfig.from_text(RUN_TEXT)
        ev = make_events([], [], [], [])
        rows = estimates(ev, cfg, t_start_us=0, t_end_us=99_000)
        assert len(rows) == 3
        assert all(not e.valid for e in rows)
        assert {e.reason for e in rows[1:]} == {"textureless"}

    def test_empty_stream_without_span(self):
        cfg = RunConfig.from_text(RUN_TEXT)
        assert estimates(make_events([], [], [], []), cfg) == []

    def test_deterministic_output_rows(self):
        cfg, events, _ = small_scenario(duration=0.099)
        assert estimates(events, cfg) == estimates(events, cfg)

    def test_each_frame_converted_and_expanded_once(self, monkeypatch):
        cfg, events, _ = small_scenario()
        frames = accumulate(events, cfg.accumulation)
        cold = [process_frame_pair(prev, curr, cfg, pair_index=i + 1).estimate
                for i, (prev, curr) in enumerate(zip(frames, frames[1:]))]
        blank = np.zeros((cfg.camera.height, cfg.camera.width))
        n_levels = len(flow.flow_pyramid(blank, cfg.flow).levels)
        calls = []
        monkeypatch.setattr(flow, "polynomial_expansion",
                            counting(calls, "expand", flow.polynomial_expansion))
        monkeypatch.setattr(pipeline, "to_intensity",
                            counting(calls, "intensity", pipeline.to_intensity))
        rows = estimates(events, cfg)
        assert len(rows) == len(frames) == 5
        assert Counter(calls) == {"expand": len(frames) * n_levels, "intensity": len(frames)}
        assert rows[1:] == cold

    def test_pairs_of_empty_windows_skip_flow(self, monkeypatch, tmp_path):
        cfg, events, _ = small_scenario(duration=0.099)
        # the same three windows again, after six empty ones
        later = events.copy()
        later["t_us"] += 9 * cfg.accumulation.window_us
        events = np.concatenate([events, later])
        frames = accumulate(events, cfg.accumulation)
        empty = [f.event_total == 0 for f in frames]
        assert len(frames) == 12 and sum(empty) == 6
        cold = [process_frame_pair(prev, curr, cfg, pair_index=i + 1).estimate
                for i, (prev, curr) in enumerate(zip(frames, frames[1:]))]
        calls = []
        monkeypatch.setattr(pipeline, "flow_pyramid",
                            counting(calls, "pyramid", pipeline.flow_pyramid))
        monkeypatch.setattr(pipeline, "compute_flow",
                            counting(calls, "flow", pipeline.compute_flow))
        pairs = list(iter_pairs(events, cfg))
        assert [pair.estimate for pair in pairs[1:]] == cold
        run = [k for k in range(1, len(frames)) if not (empty[k - 1] and empty[k])]
        assert len(run) == 6  # 2 + 1 + 3: five empty pairs are skipped
        assert Counter(calls) == {"pyramid": len({j for k in run for j in (k - 1, k)}),
                                  "flow": len(run)}
        assert [k for k, pair in enumerate(pairs) if pair.flow is not None] == run

        # estimate writes the same rows and counts each reason in first-seen order
        ev_path, run_cfg = tmp_path / "events.evt", tmp_path / "run.cfg"
        write_events_binary(ev_path, events, cfg.camera.width, cfg.camera.height)
        run_cfg.write_text(RUN_TEXT)
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(ev_path),
                         "--out-dir", str(tmp_path / "out")]) == 0
        state_io.write_velocity_csv(tmp_path / "expected.csv", (p.estimate for p in pairs))
        assert ((tmp_path / "out" / "estimates.csv").read_bytes()
                == (tmp_path / "expected.csv").read_bytes())
        timings = json.loads((tmp_path / "out" / "timings.json").read_text())
        reasons = Counter(e.reason for e in [pairs[0].estimate, *cold] if not e.valid)
        assert list(timings["invalid_reasons"].items()) == list(reasons.items())
        assert (timings["frames_in"], timings["frames_valid"], timings["frames_invalid"]) == (
            len(frames), len(frames) - reasons.total(), reasons.total())

    @settings(max_examples=8, deadline=None)
    @given(present=st.lists(st.booleans(), min_size=1, max_size=8).map(lambda p: [False, *p]))
    def test_rows_do_not_depend_on_the_worker_count(self, small_stream, present):
        # the first window is blank; the rest are random with empty-window gaps
        cfg, source = small_stream
        window_us = cfg.accumulation.window_us
        events = with_gaps(source, present, window_us)
        written = []
        with tempfile.TemporaryDirectory() as tmp:
            for workers in (1, 2, 3):
                path = Path(tmp) / f"estimates_{workers}.csv"
                state_io.write_velocity_csv(path, estimates(
                    events, cfg, t_start_us=0, t_end_us=len(present) * window_us,
                    workers=workers))
                written.append(path.read_bytes())
        assert written[0].count(b"\n") == len(present) + 1
        assert written[1] == written[0] and written[2] == written[0]

    def test_each_frame_expanded_once_with_more_workers_than_cores(self, small_stream,
                                                                   monkeypatch):
        cfg, events = small_stream
        frames = accumulate(events, cfg.accumulation)
        cold = [process_frame_pair(prev, curr, cfg, pair_index=i + 1).estimate
                for i, (prev, curr) in enumerate(zip(frames, frames[1:]))]
        calls, out = [], {}
        monkeypatch.setattr(pipeline, "flow_pyramid",
                            counting(calls, "pyramid", pipeline.flow_pyramid))

        def run():
            out["pairs"] = list(iter_pairs(events, cfg, workers=4))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
        try:
            thread = threading.Thread(target=run)
            thread.start()
            thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert [pair.estimate for pair in out["pairs"][1:]] == cold
        assert calls == ["pyramid"] * len(frames)
        assert [tuple(pair.stage_s) for pair in out["pairs"]] == [()] + [
            (*pipeline.PAIR_STAGES, "pair")] * len(cold)

    @pytest.mark.parametrize("taken", [1, 2, 3])
    def test_closing_early_leaves_no_pool_thread(self, small_stream, taken):
        # batches of two frames: rows 1 and 3 come from the pool, which is still
        # running pair 1 when row 0 is out and pair 3 when row 2 is out
        cfg, events = small_stream
        rows = iter_pairs(events, cfg, workers=2)
        assert len(list(islice(rows, taken))) == taken
        rows.close()
        assert not [t for t in threading.enumerate() if t.name.startswith("evflow-pair")]

    def test_first_row_of_a_batch_does_not_wait_for_the_pool(self, small_stream,
                                                            monkeypatch):
        cfg, events = small_stream
        real = pipeline.process_frame_pair
        first_row = {i: threading.Event() for i in (0, 2)}  # batches of two frames
        log = []

        def pool_pair_waits_for_the_first_row(prev, curr, cfg, pair_index, **kwargs):
            if pair_index in (1, 3):
                log.append((pair_index, first_row[pair_index - 1].wait(timeout=5)))
            return real(prev, curr, cfg, pair_index, **kwargs)

        monkeypatch.setattr(pipeline, "process_frame_pair", pool_pair_waits_for_the_first_row)
        for i, _ in enumerate(iter_pairs(events, cfg, workers=2)):
            if i in first_row:
                first_row[i].set()
        assert log == [(1, True), (3, True)]

    def test_default_workers_follow_frame_size_and_usable_cpus(self, monkeypatch):
        small = RunConfig.from_text(RUN_TEXT)  # 120x90
        large = RunConfig.from_text(RUN_TEXT.replace("camera.width = 120", "camera.width = 346")
                                    .replace("camera.height = 90", "camera.height = 260"))
        assert large.camera.width * large.camera.height >= pipeline.PARALLEL_MIN_PIXELS
        for cpus, expect_large in ((1, 1), (2, 2), (8, 2)):
            monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            assert pipeline.default_workers(small) == 1
            assert pipeline.default_workers(large) == expect_large

    def test_latency_accounting_sums(self):
        cfg, events, _ = small_scenario(duration=0.132)
        pairs = list(iter_pairs(events, cfg))
        assert len(pairs) == 4 and pairs[0].stage_s == {}
        for pair in pairs[1:]:
            stage_sum = sum(pair.stage_s[s] for s in pipeline.PAIR_STAGES)
            e2e = pair.stage_s["pair"]
            assert stage_sum <= e2e
            assert (e2e - stage_sum) / e2e < 0.05

    def test_timings_json_layout(self, tmp_path):
        cfg, events, _ = small_scenario(duration=0.132)
        pairs = list(iter_pairs(events, cfg))
        flowed = [pair for pair in pairs if pair.flow is not None]
        assert flowed and all(pair.estimate.valid for pair in flowed)  # so every stage runs
        ev_path, run_cfg = tmp_path / "events.evt", tmp_path / "run.cfg"
        write_events_binary(ev_path, events, cfg.camera.width, cfg.camera.height)
        run_cfg.write_text(RUN_TEXT)
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(ev_path),
                         "--out-dir", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "timings.json").read_text())
        assert list(doc) == ["stages_ms", "overhead_ms", "accumulate_s", "frames_in",
                             "frames_valid", "frames_invalid", "invalid_reasons"]
        stats = doc["stages_ms"]
        assert list(stats) == [*pipeline.PAIR_STAGES, "pair"]
        assert [list(st) for st in stats.values()] == [["mean", "std", "p95", "count"]] * 6
        assert [st["count"] for st in stats.values()] == [len(flowed)] * 6
        assert doc["accumulate_s"] > 0
        assert doc["overhead_ms"] == pytest.approx(stats["pair"]["mean"] - sum(
            stats[s]["mean"] for s in pipeline.PAIR_STAGES), rel=1e-9)

    def test_constant_speed_recovery_within_2pct(self):
        cfg, events, truth = small_scenario(duration=0.165, v_lon=1.5, v_lat=0.0,
                                            omega=0.0)
        valid = [e for e in estimates(events, cfg) if e.valid]
        mean_v = float(np.mean([e.v_lon for e in valid]))
        assert abs(mean_v - 1.5) / 1.5 < 0.02

    def test_imu_omega_source(self):
        cfg, events, truth = small_scenario(duration=0.132, omega=0.4)
        from dataclasses import replace
        from evflow.vehicle import ImuSeries
        cfg = replace(cfg, omega_source="imu", imu_path="unused.csv")
        t = np.array([g.t_mid for g in truth])
        imu = ImuSeries((t * 1e6).round().astype(np.int64),
                        np.array([g.omega for g in truth]))
        valid = [e for e in estimates(events, cfg, imu=imu) if e.valid]
        assert valid and all(e.omega_source == "imu" for e in valid)
        assert all(abs(e.omega - 0.4) < 1e-9 for e in valid)


class TestVelocityCsv:
    def test_round_trip(self, tmp_path):
        rows = [vel(0.1, 1.25, -0.5, 0.75), vel(0.2, 0.0, valid=False),
                vel(0.3, 2.0, 0.1, -0.3, source="imu")]
        path = tmp_path / "v.csv"
        state_io.write_velocity_csv(path, rows)
        back = state_io.load_velocity_csv(path)
        assert len(back) == 3
        assert back[0].v_lon == 1.25 and back[0].omega == 0.75
        assert not back[1].valid
        assert back[2].omega_source == "imu"

    def test_header_checked(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(InputFormatError):
            state_io.load_velocity_csv(path)

    @pytest.mark.parametrize("body", ["", "\n", "\n\n"], ids=["none", "blank", "blanks"])
    def test_header_only_is_empty(self, tmp_path, body):
        # an empty body must not reach np.loadtxt, which warns on it
        path = tmp_path / "in.csv"
        path.write_text(state_io.IMU_HEADER + "\n" + body)
        assert state_io.load_imu_csv(path).t_us.size == 0
        path.write_text(state_io.VELOCITY_HEADER + "\n" + body)
        assert state_io.load_velocity_csv(path) == []
        path.write_text("t_us,x,y,p\n" + body)
        assert load_events_csv(path).size == 0


class TestEvaluate:
    def test_identical_streams_zero_metrics(self):
        rows = [vel(0.1 * k, 1.0 + 0.1 * k, 0.2, 0.3) for k in range(10)]
        report = evaluate(rows, rows, tolerance_s=0.01)
        for chan in ("v_lon", "v_lat", "omega"):
            assert report.channels[chan].rmse == 0.0
            assert report.channels[chan].sigma == 0.0
        assert report.channels["v_lon"].relative_pct == 0.0

    def test_constant_bias_closed_form(self):
        truth = [vel(0.1 * k, 2.0) for k in range(20)]
        est = [vel(0.1 * k, 2.1) for k in range(20)]
        report = evaluate(est, truth, tolerance_s=0.01)
        m = report.channels["v_lon"]
        assert m.rmse == pytest.approx(0.1, abs=1e-12)
        assert m.sigma == pytest.approx(0.0, abs=1e-12)
        assert m.relative_pct == pytest.approx(5.0, abs=1e-9)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        t = np.arange(50) * 0.05
        errs = rng.standard_normal((50, 3))
        truth = [vel(ti, 1.0, 0.5, -0.2) for ti in t]
        est = [vel(ti, 1.0 + e[0], 0.5 + e[1], -0.2 + e[2]) for ti, e in zip(t, errs)]
        report = evaluate(est, truth, tolerance_s=0.01)
        for c, chan in enumerate(("v_lon", "v_lat", "omega")):
            # naive two-pass reference
            mean = sum(errs[:, c]) / len(errs)
            var = sum((e - mean) ** 2 for e in errs[:, c]) / len(errs)
            rmse = math.sqrt(sum(e * e for e in errs[:, c]) / len(errs))
            got = report.channels[chan]
            assert got.rmse == pytest.approx(rmse, rel=1e-12)
            assert got.sigma == pytest.approx(math.sqrt(var), rel=1e-12)
            assert got.sigma <= got.rmse

    def test_invalid_rows_excluded_and_counted(self):
        truth = [vel(0.1 * k, 1.0) for k in range(10)]
        est = [vel(0.1 * k, 1.0, valid=(k % 2 == 0)) for k in range(10)]
        report = evaluate(est, truth, tolerance_s=0.01)
        assert report.frames_valid == 5 and report.frames_invalid == 5
        assert report.pairs_used == 5

    def test_unpaired_outside_tolerance(self):
        truth = [vel(0.0, 1.0), vel(1.0, 1.0)]
        est = [vel(0.001, 1.0), vel(0.49, 1.0)]
        report = evaluate(est, truth, tolerance_s=0.01)
        assert report.pairs_used == 1 and report.unpaired == 1

    def test_no_overlap_raises(self):
        truth = [vel(100.0, 1.0)]
        est = [vel(0.0, 1.0)]
        with pytest.raises(EvaluationError):
            evaluate(est, truth, tolerance_s=0.01)

    def test_empty_streams_raise(self):
        with pytest.raises(EvaluationError):
            evaluate([], [vel(0.0, 1.0)], tolerance_s=0.01)


class TestEmitPlots:
    def test_six_wellformed_deterministic_files(self, tmp_path):
        truth = [vel(0.1 * k, math.sin(k / 3), 0.1, 0.2) for k in range(30)]
        est = [vel(0.1 * k + 0.002, math.sin(k / 3) + 0.05, 0.12, 0.18) for k in range(30)]
        files = emit_plots(est, truth, tmp_path / "a")
        assert len(files) == 6
        names = {f.name for f in files}
        assert names == {"velocity_v_lon.svg", "velocity_v_lat.svg", "velocity_omega.svg",
                         "residual_v_lon.svg", "residual_v_lat.svg", "residual_omega.svg"}
        for f in files:
            root = ET.parse(f).getroot()  # XML well-formedness oracle
            assert root.tag.endswith("svg")
        again = emit_plots(est, truth, tmp_path / "b")
        for f1, f2 in zip(files, again):
            assert f1.read_bytes() == f2.read_bytes()

    def test_invalid_only_stream_warns(self, tmp_path):
        truth = [vel(0.1 * k, 1.0) for k in range(5)]
        est = [vel(0.1 * k, 0.0, valid=False) for k in range(5)]
        files = emit_plots(est, truth, tmp_path)
        text = (tmp_path / "velocity_v_lon.svg").read_text()
        assert "no valid estimates" in text
        ET.parse(files[0])


# one window spans any u64 time range, so a parsed stream is at most two frames
FUZZ_RUN_TEXT = RUN_TEXT.replace("accumulation.window_us = 33000",
                                 "accumulation.window_us = 10000000000000000000")
CSV_HEADERS = {"events": "t_us,x,y,p", "imu": state_io.IMU_HEADER,
               "velocity": state_io.VELOCITY_HEADER}


def run_csv_input(work: Path, kind: str, body: bytes) -> int:
    """Exit code of the CLI command that reads ``body`` as its ``kind`` CSV input:
    ``estimate`` for events and IMU samples, ``evaluate`` for velocities."""
    path = work / f"{kind}.csv"
    path.write_bytes(CSV_HEADERS[kind].encode() + b"\n" + body)
    run_cfg = work / "run.cfg"
    events = work / "events.csv"
    if kind == "velocity":
        truth = work / "truth.csv"
        state_io.write_velocity_csv(truth, [vel(0.0, 1.0)])
        return cli_main(["evaluate", "--estimates", str(path), "--ground-truth", str(truth),
                         "--tolerance", "0.01"])
    if kind == "imu":
        events.write_text("t_us,x,y,p\n")
        run_cfg.write_text(FUZZ_RUN_TEXT + f"io.imu = {path}\nomega.source = imu\n")
    else:
        run_cfg.write_text(FUZZ_RUN_TEXT)
    return cli_main(["estimate", "--config", str(run_cfg), "--events", str(events),
                     "--out-dir", str(work / "out")])


EVT_HEADER = b"EVT1" + np.array([120, 90], dtype="<u2").tobytes()
CONFIG_ALPHABET = "abcdefghijklmnopqrstuvwxyz._=#,0123456789- \n"


def assert_exits_cleanly(argv) -> None:
    """The CLI ends ``argv`` with a documented exit code and no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


class TestCli:
    @pytest.fixture
    def workspace(self, tmp_path):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text("""
camera.width = 120
camera.height = 90
camera.height_z = 0.5
camera.f_px = 100.0
texture.kind = noise
texture.seed = 11
sim.noise_rate = 0.05
sim.duration_s = 0.132
sim.time_step_s = 0.004125
sim.seed = 3
trajectory.t_s = 0.0, 0.132
trajectory.v_lon = 1.0, 1.0
trajectory.v_lat = 0.1, 0.1
trajectory.omega = 0.3, 0.3
""")
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(RUN_TEXT + f"io.out_dir = {tmp_path / 'out'}\n")
        return tmp_path, scenario, run_cfg

    def test_full_chain_exit_codes(self, workspace, capsys):
        tmp_path, scenario, run_cfg = workspace
        ev = tmp_path / "events.csv"
        gt = tmp_path / "gt.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev),
                         "--ground-truth", str(gt)]) == 0
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(ev)]) == 0
        out = tmp_path / "out"
        assert (out / "estimates.csv").exists()
        timings = json.loads((out / "timings.json").read_text())
        assert timings["frames_in"] == timings["frames_valid"] + timings["frames_invalid"]
        assert cli_main(["evaluate", "--estimates", str(out / "estimates.csv"),
                         "--ground-truth", str(gt), "--tolerance", "0.0165"]) == 0
        # timings.json's stage times are per-pair walls, which overlap across pairs
        stage_lines = [line.split()[:2] for line in capsys.readouterr().out.splitlines()
                       if line.split()[0] in ("wall", "latency")]
        assert stage_lines == [["wall", s] for s in (*pipeline.PAIR_STAGES, "pair")]
        assert cli_main(["plot", "--estimates", str(out / "estimates.csv"),
                         "--ground-truth", str(gt),
                         "--out-dir", str(tmp_path / "plots")]) == 0
        assert cli_main(["blur-budget", "--out-dir", str(tmp_path / "bb")]) == 0
        assert (tmp_path / "bb" / "blur_budget.csv").exists()
        assert cli_main(["flow-debug", "--config", str(run_cfg), "--events", str(ev),
                         "--pair-index", "1"]) == 0

    def test_binary_event_path(self, workspace):
        tmp_path, scenario, run_cfg = workspace
        ev = tmp_path / "events.evt"
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(ev)]) == 0

    def test_imu_source_through_cli(self, workspace):
        tmp_path, scenario, _ = workspace
        ev = tmp_path / "events.csv"
        imu = tmp_path / "imu.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev),
                         "--imu", str(imu)]) == 0
        run_cfg = tmp_path / "run_imu.cfg"
        run_cfg.write_text(RUN_TEXT + f"io.out_dir = {tmp_path / 'out_imu'}\n"
                           f"io.imu = {imu}\nomega.source = imu\n")
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(ev)]) == 0
        rows = state_io.load_velocity_csv(tmp_path / "out_imu" / "estimates.csv")
        valid = [r for r in rows if r.valid]
        assert valid and all(r.omega_source == "imu" for r in valid)
        assert all(abs(r.omega - 0.3) < 0.02 for r in valid)

    def test_config_error_exit_2(self, tmp_path):
        assert cli_main(["estimate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_format_error_exit_3(self, workspace):
        tmp_path, _, run_cfg = workspace
        bad = tmp_path / "bad.csv"
        bad.write_text("t_us,x,y,p\n10,0,0,1\n5,0,0,1\n")
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(bad)]) == 3
        short = tmp_path / "short.evt"
        short.write_bytes(b"EVT1")
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(short)]) == 3

    @pytest.mark.parametrize("times, record, block", [
        ([0, 1_000, 40_000, 50_000, 45_000, 60_000], 4, None),  # inside the second window
        ([0, 10_000, 40_000, 50_000, 20_000], 4, None),  # back into the first window
        ([0, 1, 2, 3, 4, 5, 6, 7, 5, 9], 8, 4),  # the first record of the third load block
    ], ids=["later_window", "window_seam", "load_block_seam"])
    def test_order_error_names_the_stream_record(self, workspace, capsys, monkeypatch,
                                                 times, record, block):
        tmp_path, _, run_cfg = workspace
        if block:
            monkeypatch.setattr(event_io, "_CHECK_BLOCK", block)
        path = tmp_path / "events.evt"
        zeros = [0] * len(times)
        write_events_binary(path, make_events(times, zeros, zeros, [1] * len(times)), 120, 90)
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"timestamps decrease at record {record}\n" in err and "Traceback" not in err

    def test_missing_input_exit_3(self, workspace):
        tmp_path, _, _ = workspace
        present = tmp_path / "present.csv"
        state_io.write_velocity_csv(present, [vel(0.0, 1.0)])
        absent = str(tmp_path / "absent.csv")
        for est, gt in ((absent, str(present)), (str(present), absent)):
            assert cli_main(["evaluate", "--estimates", est, "--ground-truth", gt,
                             "--tolerance", "0.01"]) == 3
        ev = tmp_path / "events.csv"
        ev.write_text("t_us,x,y,p\n1,0,0,1\n")
        run_cfg = tmp_path / "run_imu.cfg"
        run_cfg.write_text(RUN_TEXT + f"io.imu = {absent}\nomega.source = imu\n")
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(ev)]) == 3

    @pytest.mark.parametrize("kind, body", [
        ("imu", b"1,0.5\n2,0.\xff5\n"),
        ("imu", b"99999999999999999999999,0.5\n"),
        ("velocity", b"0.0,1.0,0.0,0.0,fl\xe9w,10,1.0,true\n"),
        ("velocity", b"0.0,1.0,0.0,0.0,flow,10,1.0\n"),
        ("imu", b"0,nan\n"),
        ("imu", b"0,inf\n"),
        ("imu", b"0,1e999\n"),
        ("velocity", b"nan,1.0,0.0,0.0,flow,10,1.0,true\n"),
        ("velocity", b"0.0,inf,0.0,0.0,flow,10,1.0,true\n"),
        ("velocity", b"0.0,1.0,-inf,0.0,flow,10,1.0,true\n"),
        ("velocity", b"0.0,1.0,0.0,1e999,flow,10,1.0,true\n"),
        ("velocity", b"0.0,1.0,0.0,0.0,flow,10,nan,false\n"),
    ], ids=["imu_not_utf8", "imu_t_beyond_int64", "velocity_not_utf8", "velocity_7_fields",
            "imu_yaw_nan", "imu_yaw_inf", "imu_yaw_overflow", "velocity_t_nan",
            "velocity_v_lon_inf", "velocity_v_lat_minus_inf", "velocity_omega_overflow",
            "velocity_inlier_fraction_nan"])
    def test_malformed_csv_exit_3(self, tmp_path, capsys, kind, body):
        assert run_csv_input(tmp_path, kind, body) == 3
        err = capsys.readouterr().err
        assert err.startswith("input format error:") and err.count("\n") == 1
        assert f"{kind}.csv" in err and "Traceback" not in err

    @pytest.mark.parametrize("body, line", [
        (b"1,0,0,1\n2,0,0\n", 3),
        (b"1,0,0,1\nzz,0,0,1\n", 3),
        (b"\n1,0,0,1\n\n2,0,\xff,1\n", 5),
    ], ids=["three_fields", "not_a_number", "not_utf8_after_empty_lines"])
    def test_malformed_csv_names_the_file_line(self, tmp_path, capsys, body, line):
        assert run_csv_input(tmp_path, "events", body) == 3
        err = capsys.readouterr().err
        assert err.startswith("input format error:") and f"events.csv: line {line}:" in err
        assert "usecols" not in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", sorted(CSV_HEADERS))
    @settings(max_examples=50, deadline=None)
    @given(body=st.binary(max_size=24)
           | st.text("0123456789,.-e\n ", max_size=24).map(str.encode))
    def test_arbitrary_csv_body_exits_cleanly(self, kind, body):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as work, contextlib.redirect_stderr(err):
            code = run_csv_input(Path(work), kind, body)
        assert code in (0, 3, 4)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=40, deadline=None)
    @given(blob=st.binary(max_size=40)
           | st.binary(max_size=40).map(EVT_HEADER.__add__)
           | st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 130),
                                st.integers(0, 100), st.sampled_from([-1, 0, 1])),
                      max_size=4).map(lambda rows: EVT_HEADER + np.array(
                          rows, dtype=EVENT_DTYPE).tobytes()))
    def test_arbitrary_event_binary_exits_cleanly(self, blob):
        with tempfile.TemporaryDirectory() as work:
            events = Path(work) / "events.evt"
            events.write_bytes(blob)
            run_cfg = Path(work) / "run.cfg"
            run_cfg.write_text(FUZZ_RUN_TEXT)
            assert_exits_cleanly(["estimate", "--config", run_cfg, "--events", events,
                                  "--out-dir", Path(work) / "out"])

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    @settings(max_examples=40, deadline=None)
    @given(text=st.binary(max_size=60) | st.text(CONFIG_ALPHABET, max_size=60).map(str.encode))
    def test_arbitrary_config_text_exits_cleanly(self, command, text):
        with tempfile.TemporaryDirectory() as work:
            config, events = Path(work) / "given.cfg", Path(work) / "events.csv"
            config.write_bytes(text)
            if command == "estimate":
                events.write_text("t_us,x,y,p\n1,0,0,1\n")
                argv = ["estimate", "--config", config, "--events", events,
                        "--out-dir", Path(work) / "out"]
            else:
                argv = ["simulate", config, "--events", events]
            assert_exits_cleanly(argv)

    @pytest.mark.parametrize("timings", [None, "{", "[]", '{"stages_ms": {"pair": 5}}'],
                             ids=["directory", "truncated", "array", "stage_not_an_object"])
    def test_bad_timings_json_exit_3(self, tmp_path, capsys, timings):
        est = tmp_path / "estimates.csv"
        state_io.write_velocity_csv(est, [vel(0.0, 1.0)])
        path = tmp_path / "timings.json"
        if timings is None:
            path.mkdir()
        else:
            path.write_text(timings)
        assert cli_main(["evaluate", "--estimates", str(est), "--ground-truth", str(est),
                         "--tolerance", "0.01"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input format error:") and "Traceback" not in err

    @pytest.mark.parametrize("arg", ["--speeds=abc", "--speeds=-5", "--speeds=nan",
                                     "--budgets=0", "--fov-deg=200", "--sensor-width=0",
                                     "--sensor-width=70000"])
    def test_blur_budget_bad_arguments_exit_2(self, tmp_path, capsys, arg):
        out = tmp_path / "bb"
        assert cli_main(["blur-budget", "--out-dir", str(out), arg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "1e400"])
    def test_evaluate_bad_tolerance_exit_2(self, tmp_path, capsys, tolerance):
        est = tmp_path / "estimates.csv"
        state_io.write_velocity_csv(est, [vel(0.0, 1.0)])
        assert cli_main(["evaluate", "--estimates", str(est), "--ground-truth", str(est),
                         "--tolerance", tolerance]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--tolerance" in err
        assert "Traceback" not in err

    def test_evaluation_error_exit_4(self, workspace, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        state_io.write_velocity_csv(a, [vel(0.0, 1.0)])
        state_io.write_velocity_csv(b, [vel(99.0, 1.0)])
        assert cli_main(["evaluate", "--estimates", str(a), "--ground-truth", str(b),
                         "--tolerance", "0.01"]) == 4

    def test_seed_env_override(self, workspace, monkeypatch, capsys):
        tmp_path, scenario, run_cfg = workspace
        ev = tmp_path / "events.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        for bad in ("not-a-number", "-5"):
            monkeypatch.setenv("EVFLOW_SEED", bad)
            assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(ev)]) == 2
            assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 2
        monkeypatch.setenv("EVFLOW_SEED", "99")
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(ev)]) == 0

    @pytest.mark.parametrize("old, new", [
        ("sim.duration_s = 0.132", "sim.duration_s = nan"),
        ("camera.height_z = 0.5", "camera.height_z = nan"),
        ("sim.noise_rate = 0.05", "sim.contrast = inf"),
        ("texture.seed = 11", "texture.seed = -1"),
        ("sim.seed = 3", "sim.seed = -3"),
        ("texture.kind = noise\ntexture.seed = 11", "texture.kind = dots\ntexture.density = 0"),
        ("texture.kind = noise\ntexture.seed = 11",
         "texture.kind = checker\ntexture.period_px = 0"),
        ("trajectory.t_s = 0.0, 0.132", "trajectory.t_s = 0.0, 0.1"),
        ("sim.time_step_s = 0.004125", "sim.time_step_s = 1e-300"),
    ], ids=["duration_nan", "height_z_nan", "contrast_inf", "texture_seed_negative",
            "sim_seed_negative", "density_zero", "period_zero", "trajectory_short",
            "substeps_past_ceiling"])
    def test_scenario_out_of_domain_exit_2(self, workspace, capsys, old, new):
        tmp_path, scenario, _ = workspace
        bad = tmp_path / "bad_scenario.cfg"
        text = scenario.read_text()
        assert old in text
        bad.write_text(text.replace(old, new))
        assert cli_main(["simulate", str(bad), "--events", str(tmp_path / "ev.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("old, new", [
        ("camera.height_z = 0.5", "camera.height_z = nan"),
        ("seed = 5", "seed = -2"),
        ("accumulation.window_us = 33000", "accumulation.window_us = 1" + "0" * 400),
        ("camera.width = 120\ncamera.height = 90", "camera.width = 1\ncamera.height = 1"),
        ("seed = 5", f"seed = 5\naccumulation.count_cap = {3 * 10 ** 9}"),
        ("seed = 5", f"seed = 5\naccumulation.count_cap = {10 ** 20}"),
    ], ids=["height_z_nan", "seed_negative", "window_past_u64", "camera_1px",
            "count_cap_past_int32", "count_cap_past_int64"])
    def test_run_config_out_of_domain_exit_2(self, workspace, capsys, old, new):
        tmp_path, scenario, run_cfg = workspace
        ev = tmp_path / "events.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        bad = tmp_path / "bad_run.cfg"
        bad.write_text(run_cfg.read_text().replace(old, new))
        capsys.readouterr()
        assert cli_main(["estimate", "--config", str(bad), "--events", str(ev)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_directory_inputs(self, workspace, capsys):
        tmp_path, scenario, run_cfg = workspace
        ev = tmp_path / "events.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        folder = tmp_path / "folder.csv"
        folder.mkdir()
        capsys.readouterr()
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(folder)]) == 3
        assert cli_main(["estimate", "--config", str(folder), "--events", str(ev)]) == 2
        assert cli_main(["simulate", str(folder), "--events", str(ev)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count(" error:") == 3

    def test_unwritable_outputs_exit_2(self, workspace, capsys, monkeypatch):
        tmp_path, scenario, run_cfg = workspace
        ev, gt = tmp_path / "events.csv", tmp_path / "gt.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev),
                         "--ground-truth", str(gt)]) == 0
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(ev)]) == 0
        est = tmp_path / "out" / "estimates.csv"
        folder = tmp_path / "folder.csv"
        folder.mkdir()
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        fresh = str(tmp_path / "fresh.csv")
        compare = ["--estimates", str(est), "--ground-truth", str(gt)]
        flowed = []
        monkeypatch.setattr(pipeline, "process_frame_pair", lambda *a, **k: flowed.append(a))
        for argv in (["simulate", scenario, "--events", folder],
                     ["simulate", scenario, "--events", fresh, "--ground-truth", folder],
                     ["simulate", scenario, "--events", fresh, "--imu", a_file / "imu.csv"],
                     ["estimate", "--config", run_cfg, "--events", ev, "--out-dir", a_file],
                     ["evaluate", *compare, "--tolerance", "0.0165", "--report", folder],
                     ["plot", *compare, "--out-dir", a_file],
                     ["blur-budget", "--out-dir", a_file / "bb"],
                     ["flow-debug", "--config", run_cfg, "--events", ev, "--out-dir", a_file]):
            capsys.readouterr()
            assert cli_main([str(a) for a in argv]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("output error:") and "Traceback" not in err, argv
        assert not flowed  # estimate fails on its output directory before any pair runs

    def test_failed_estimate_keeps_the_rows_before_the_failure(self, workspace, monkeypatch):
        tmp_path, scenario, run_cfg = workspace
        ev, out = tmp_path / "events.csv", tmp_path / "out"
        argv = ["estimate", "--config", str(run_cfg), "--events", str(ev)]
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        assert cli_main(argv) == 0
        full = state_io.load_velocity_csv(out / "estimates.csv")
        assert len(full) == 4
        real = pipeline.process_frame_pair

        def fail_at_pair_3(prev, curr, cfg, pair_index, **kwargs):
            if pair_index == 3:
                raise InputFormatError("stopped at pair 3")
            return real(prev, curr, cfg, pair_index, **kwargs)

        monkeypatch.setattr(pipeline, "process_frame_pair", fail_at_pair_3)
        assert cli_main(argv) == 3
        assert state_io.load_velocity_csv(out / "estimates.csv") == full[:3]
        assert not (out / "timings.json").exists()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_failed_pair_under_two_workers_keeps_the_rows_before_it(self, workspace,
                                                                     monkeypatch, k):
        # batches of two frames: pair 2 runs on the calling thread, pair 3 on the pool
        tmp_path, scenario, run_cfg = workspace
        ev, out = tmp_path / "events.csv", tmp_path / "out"
        argv = ["estimate", "--config", str(run_cfg), "--events", str(ev)]
        monkeypatch.setattr(pipeline, "default_workers", lambda cfg: 2)
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        assert cli_main(argv) == 0
        full = state_io.load_velocity_csv(out / "estimates.csv")
        real = pipeline.process_frame_pair

        def fail_at_pair_k(prev, curr, cfg, pair_index, **kwargs):
            if pair_index == k:
                raise InputFormatError(f"stopped at pair {k}")
            return real(prev, curr, cfg, pair_index, **kwargs)

        monkeypatch.setattr(pipeline, "process_frame_pair", fail_at_pair_k)
        assert cli_main(argv) == 3
        assert state_io.load_velocity_csv(out / "estimates.csv") == full[:k]
        assert not (out / "timings.json").exists()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_estimate_starts_at_most_workers_minus_one_threads(self, workspace, monkeypatch,
                                                               workers):
        tmp_path, scenario, run_cfg = workspace
        ev = tmp_path / "events.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        monkeypatch.setattr(pipeline, "default_workers", lambda cfg: workers)
        started = []
        real_start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (started.append(thread), real_start(thread)))
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(ev)]) == 0
        assert len(started) <= workers - 1

    def test_flow_debug_pair_past_last_frame_exit_2(self, workspace):
        tmp_path, scenario, run_cfg = workspace
        ev = tmp_path / "events.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        n_frames = len(accumulate(load_events_csv(ev), RunConfig.from_file(run_cfg).accumulation))
        for k in (0, n_frames, 10 ** 20):
            assert cli_main(["flow-debug", "--config", str(run_cfg), "--events", str(ev),
                             "--pair-index", str(k)]) == 2
        # the index is checked before any input is read
        for k in (0, 10 ** 20):
            assert cli_main(["flow-debug", "--config", str(run_cfg), "--events",
                             str(tmp_path / "absent.csv"), "--pair-index", str(k)]) == 2
        assert cli_main(["flow-debug", "--config", str(run_cfg), "--events", str(ev),
                         "--pair-index", str(n_frames - 1)]) == 0

    def test_estimate_does_not_hold_its_rows(self, tmp_path):
        # two events on a tiny sensor: all but the first and last pairs are
        # textureless, so the stream's length is all that grows with it
        window_us, n = 1000, 1000
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text("camera.width = 16\ncamera.height = 12\ncamera.height_z = 0.5\n"
                           f"camera.f_px = 20.0\naccumulation.window_us = {window_us}\n"
                           "flow.pyramid_levels = 1\n")

        def traced_peak(windows: int) -> int:
            events = tmp_path / f"events_{windows}.csv"
            events.write_text(f"t_us,x,y,p\n0,1,1,1\n{(windows - 1) * window_us},2,2,1\n")
            argv = ["estimate", "--config", str(run_cfg), "--events", str(events),
                    "--out-dir", str(tmp_path / f"out_{windows}")]
            tracemalloc.start()
            try:
                assert cli_main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(3)  # first-call imports and caches stay out of the comparison
        grown = traced_peak(4 * n) - traced_peak(n)
        # a held VelocityEstimate row costs about 190 B
        assert grown < 3 * n * 190 / 4, f"{grown / (3 * n):.0f} B per added row"

    def test_flow_debug_dumps_the_pair_flow(self, workspace):
        tmp_path, scenario, run_cfg = workspace
        ev = tmp_path / "events.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        assert cli_main(["flow-debug", "--config", str(run_cfg), "--events", str(ev),
                         "--pair-index", "2"]) == 0
        cfg = RunConfig.from_file(run_cfg)
        frames = accumulate(load_events_csv(ev, cfg.camera.width, cfg.camera.height),
                            cfg.accumulation)
        field = process_frame_pair(frames[1], frames[2], cfg, pair_index=2).flow
        dump_flow_csv(field, cfg.stride, tmp_path / "expected.csv")
        assert ((tmp_path / "out" / "flow_00002.csv").read_bytes()
                == (tmp_path / "expected.csv").read_bytes())
