import contextlib
import errno
import io
import json
import math
import os
import re
import signal
import tempfile
import threading
import time
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evflow import event_io, flow, parallel, pipeline, state_io, synth
from evflow.cli import _stats_ms
from evflow.cli import main as cli_main
from evflow.config import RunConfig
from evflow.errors import EvaluationError, InputFormatError, WorkerError
from evflow.evaluate import evaluate
from evflow.event_io import load_events_csv, write_events_binary
from evflow.events import EVENT_DTYPE, iter_frames, make_events
from evflow.pipeline import FrameMemo, PairResult, iter_pairs, process_frame_pair
from evflow.plots import CHANNEL_FILES, dump_flow_csv, emit_plots, write_blur_budget
from evflow.rigid import EstimateQuality
from evflow.synth import NoiseTexture, SimConfig, generate_events
from evflow.vehicle import ImuSeries, VelocityEstimate
from helpers import assert_no_child_left, constant_trajectory, logged

QUALITY = EstimateQuality(n_inliers=10, inlier_fraction=1.0, mean_residual=0.0)
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)

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
    traj = constant_trajectory(duration, v_lon=v_lon, v_lat=v_lat, omega=omega)
    events, truth = generate_events(sim, traj)
    return cfg, events, truth


def cold_estimates(frames, cfg):
    """Each consecutive pair's estimate, its two frames converted and expanded afresh."""
    return [process_frame_pair(FrameMemo(prev), FrameMemo(curr), cfg, pair_index=i + 1).estimate
            for i, (prev, curr) in enumerate(zip(frames, frames[1:]))]


def vel(t, v_lon, v_lat=0.0, omega=0.0, valid=True, source="flow"):
    return VelocityEstimate(t_mid=t, v_lon=v_lon, v_lat=v_lat, omega=omega,
                            omega_source=source, quality=QUALITY, valid=valid)


def estimates(events, cfg, **kwargs) -> list[VelocityEstimate]:
    """The output row of every frame ``iter_pairs`` yields."""
    return [pair.estimate for pair in iter_pairs(events, cfg, **kwargs)]


# the stages every pair that reaches the axle transfer runs, in order
PAIR_STAGES = ("intensity", "flow", "subsample", "estimate", "transform")


def workers_patched(workers: int):
    """``parallel.default_workers`` answering ``workers`` while the context is open."""
    return mock.patch.object(parallel, "default_workers", lambda: workers)


def counting(calls: list, name: str, fn):
    """``fn`` that also appends ``name`` to ``calls`` on each call."""
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


@pytest.fixture(scope="module")
def long_stream():
    """The config and events of a 7-window ``small_scenario``: enough windows
    for three blocks."""
    cfg, events, _ = small_scenario(duration=0.231)
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
        # one process, so that every call is counted here
        monkeypatch.setattr(parallel, "default_workers", lambda: 1)
        cfg, events, _ = small_scenario()
        frames = list(iter_frames(events, cfg.accumulation))
        cold = cold_estimates(frames, cfg)
        blank = np.zeros((cfg.camera.height, cfg.camera.width))
        n_levels = len(flow.flow_pyramid(blank, cfg.pyramid_levels).levels)
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
        # one process, so that every call is counted here
        monkeypatch.setattr(parallel, "default_workers", lambda: 1)
        cfg, events, _ = small_scenario(duration=0.099)
        # the same three windows again, after six empty ones
        later = events.copy()
        later["t_us"] += 9 * cfg.accumulation.window_us
        events = np.concatenate([events, later])
        frames = list(iter_frames(events, cfg.accumulation))
        empty = [f.event_total == 0 for f in frames]
        assert len(frames) == 12 and sum(empty) == 6
        cold = cold_estimates(frames, cfg)
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
        assert [k for k, pair in enumerate(pairs) if "flow" in pair.stage_s] == run

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
                with workers_patched(workers):
                    state_io.write_velocity_csv(path, estimates(
                        events, cfg, t_start_us=0, t_end_us=len(present) * window_us))
                written.append(path.read_bytes())
        assert written[0].count(b"\n") == len(present) + 1
        assert written[1] == written[0] and written[2] == written[0]

    @settings(max_examples=10, deadline=None)
    @given(present=st.lists(st.booleans(), min_size=1, max_size=7).map(lambda p: [False, *p]),
           trailing=st.integers(0, 3), shift=st.integers(0, 2 ** 40), data=st.data())
    def test_a_split_at_any_frame_writes_the_bytes_of_one_block(self, small_stream, present,
                                                               trailing, shift, data):
        # explicit bounds around a blank first window, random gaps and up to
        # three trailing empty windows, split into two or three blocks anywhere
        cfg, source = small_stream
        window_us = cfg.accumulation.window_us
        n = len(present) + trailing
        events = with_gaps(source, present, window_us)
        events["t_us"] += shift
        cuts = data.draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=2))
        bounds = [0, *sorted(cuts), n]
        written = []
        with tempfile.TemporaryDirectory() as tmp:
            for blocks in ([(0, n)], list(zip(bounds, bounds[1:]))):
                path = Path(tmp) / f"estimates_{len(blocks)}.csv"
                with mock.patch.object(parallel, "blocks", lambda n_items, workers: blocks):
                    state_io.write_velocity_csv(path, estimates(
                        events, cfg, t_start_us=shift, t_end_us=shift + n * window_us))
                written.append(path.read_bytes())
        assert written[0].count(b"\n") == n + 1
        assert written[1] == written[0]
        assert_no_child_left()

    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_every_row_before_a_failed_accumulation_is_yielded(self, long_stream, window,
                                                               monkeypatch):
        cfg, events = long_stream
        with workers_patched(1):
            want = estimates(events, cfg)[:window]
        failing_us = int(events["t_us"][0]) + window * cfg.accumulation.window_us

        def failing_frames(*args, **kwargs):
            # the frame source raises where it would accumulate frame
            # ``window``, in whichever block's process accumulates it
            for frame in iter_frames(*args, **kwargs):
                if frame.t_start_us == failing_us:
                    raise RuntimeError("accumulation failed")
                yield frame

        monkeypatch.setattr(pipeline, "iter_frames", failing_frames)
        for workers in (1, 2, 3):
            rows = []
            with workers_patched(workers), pytest.raises(RuntimeError,
                                                         match="accumulation failed"):
                rows.extend(pair.estimate for pair in iter_pairs(events, cfg))
            assert rows == want
            assert_no_child_left()

    def test_each_frame_expanded_once_in_the_first_block(self, long_stream, monkeypatch,
                                                         tmp_path):
        # a later block expands the frame before it once more, in its own process
        cfg, events = long_stream
        frames = list(iter_frames(events, cfg.accumulation))
        cold = cold_estimates(frames, cfg)
        log = tmp_path / "pyramids.log"
        monkeypatch.setattr(pipeline, "flow_pyramid",
                            logged(log, pipeline.flow_pyramid))
        with workers_patched(3):
            pairs = list(iter_pairs(events, cfg))
        assert parallel.blocks(len(frames), 3) == [(0, 2), (2, 4), (4, 7)]
        assert [pair.estimate for pair in pairs[1:]] == cold
        per_process = Counter(log.read_text().split())
        assert per_process.pop(str(os.getpid())) == 2
        assert sorted(per_process.values()) == [3, 4]
        assert [tuple(pair.stage_s) for pair in pairs] == [()] + [
            (*PAIR_STAGES, "pair")] * len(cold)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_two_frames_are_resident_per_process(self, long_stream, monkeypatch,
                                                         tmp_path, workers):
        cfg, events = long_stream
        live, log = weakref.WeakSet(), tmp_path / "resident.log"
        real_init = pipeline.FrameMemo.__init__

        def tracked_init(memo, frame):
            real_init(memo, frame)
            live.add(memo)
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {len(live)}\n")

        monkeypatch.setattr(pipeline.FrameMemo, "__init__", tracked_init)
        with workers_patched(workers):
            rows = list(iter_pairs(events, cfg))
        resident = {}
        for line in log.read_text().splitlines():
            pid, count = line.split()
            resident.setdefault(pid, []).append(int(count))
        blocks = parallel.blocks(len(rows), workers)
        assert len(blocks) == len(resident) == workers
        assert sorted(map(len, resident.values())) == sorted(
            stop - max(first - 1, 0) for first, stop in blocks)
        assert max(max(counts) for counts in resident.values()) == 2

    @pytest.mark.parametrize("taken", [1, 2, 3, 4, 5, 6, None],
                             ids=["1", "2", "3", "4", "5", "6", "all"])
    def test_no_child_outlives_the_rows(self, long_stream, taken):
        # three blocks: rows 0-1 are this process's, 2-3 and 4-6 its children's
        cfg, events = long_stream
        with workers_patched(3):
            rows = iter_pairs(events, cfg)
            assert len(list(islice(rows, taken))) == (taken or 7)
            rows.close()
        assert_no_child_left()

    def test_first_block_rows_do_not_wait_for_the_later_blocks(self, small_stream,
                                                              monkeypatch, tmp_path):
        # the child's pairs wait until the first block's rows are out
        cfg, events = small_stream
        with workers_patched(1):
            want = estimates(events, cfg)
        parent, flag = os.getpid(), tmp_path / "first_block_out"
        real = pipeline.process_frame_pair

        def child_pair_waits_for_the_first_block(prev, curr, cfg, pair_index, **kwargs):
            result = real(prev, curr, cfg, pair_index, **kwargs)
            if os.getpid() != parent:
                deadline = time.monotonic() + 5
                while not flag.exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
                result.stage_s["saw_first_block"] = float(flag.exists())
            return result

        monkeypatch.setattr(pipeline, "process_frame_pair", child_pair_waits_for_the_first_block)
        rows = []
        with workers_patched(2):
            assert parallel.blocks(len(want), 2) == [(0, 2), (2, 5)]
            for pair in iter_pairs(events, cfg):
                rows.append(pair)
                if len(rows) == 2:
                    flag.touch()
        assert [pair.estimate for pair in rows] == want
        assert [pair.stage_s.get("saw_first_block") for pair in rows] == [None, None, 1, 1, 1]

    @pytest.mark.parametrize("death, message", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {signal.SIGKILL}"),
    ], ids=["exit_3", "sigkill"])
    def test_a_child_that_dies_raises_naming_its_status(self, small_stream, monkeypatch,
                                                        death, message):
        cfg, events = small_stream
        with workers_patched(1):
            want = estimates(events, cfg)[:2]
        parent, real = os.getpid(), pipeline.process_frame_pair

        def dies_in_the_child(prev, curr, cfg, pair_index, **kwargs):
            if os.getpid() != parent:
                death()
            return real(prev, curr, cfg, pair_index, **kwargs)

        monkeypatch.setattr(pipeline, "process_frame_pair", dies_in_the_child)
        rows = []
        with workers_patched(2), pytest.raises(WorkerError,
                                               match=f"the process of frames 2-4 {message}$"):
            rows.extend(pair.estimate for pair in iter_pairs(events, cfg))
        assert rows == want
        assert_no_child_left()

    def test_default_workers_follow_usable_cpus(self, monkeypatch):
        for cpus, workers in ((1, 1), (2, 2), (8, 2)):
            monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            assert parallel.default_workers() == workers

    def test_latency_accounting_sums(self):
        cfg, events, _ = small_scenario(duration=0.132)
        pairs = list(iter_pairs(events, cfg))
        assert len(pairs) == 4 and pairs[0].stage_s == {}
        for pair in pairs[1:]:
            stage_sum = sum(pair.stage_s[s] for s in PAIR_STAGES)
            e2e = pair.stage_s["pair"]
            assert stage_sum <= e2e
            assert (e2e - stage_sum) / e2e < 0.05

    def test_timings_json_layout(self, tmp_path):
        cfg, events, _ = small_scenario(duration=0.132)
        pairs = list(iter_pairs(events, cfg))
        flowed = [pair for pair in pairs if "flow" in pair.stage_s]
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
        assert list(stats) == [*PAIR_STAGES, "pair"]
        assert [list(st) for st in stats.values()] == [["mean", "std", "p95", "count"]] * 6
        assert [st["count"] for st in stats.values()] == [len(flowed)] * 6
        assert doc["accumulate_s"] > 0
        assert doc["overhead_ms"] == pytest.approx(stats["pair"]["mean"] - sum(
            stats[s]["mean"] for s in PAIR_STAGES), rel=1e-9)

    def test_p95_is_numpys_default_percentile(self):
        rng = np.random.default_rng(2)
        for count in range(1, 301):
            for samples in (rng.exponential(0.01, count), rng.integers(0, 4, count) * 1e-3):
                assert _stats_ms(samples.tolist())["p95"] == np.percentile(samples * 1e3, 95)

    def test_constant_speed_recovery_within_2pct(self):
        cfg, events, truth = small_scenario(duration=0.165, v_lon=1.5, v_lat=0.0,
                                            omega=0.0)
        valid = [e for e in estimates(events, cfg) if e.valid]
        mean_v = float(np.mean([e.v_lon for e in valid]))
        assert abs(mean_v - 1.5) / 1.5 < 0.02

    def test_imu_omega_source(self):
        cfg, events, truth = small_scenario(duration=0.132, omega=0.4)
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

    def test_invalid_row_is_written_as_zeros(self, tmp_path):
        path = tmp_path / "v.csv"
        state_io.write_velocity_csv(path, [VelocityEstimate.invalid(0.25, "imu_stale", "imu")])
        assert path.read_text().splitlines()[1] == "0.25,0.0,0.0,0.0,imu,0,0.0,false"

    def test_header_checked(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(InputFormatError):
            state_io.load_velocity_csv(path)

    @pytest.mark.parametrize("body", ["", "\n", "\n\n"], ids=["none", "blank", "blanks"])
    def test_header_only_is_empty(self, tmp_path, body):
        # an empty body must not reach np.loadtxt, which warns on it
        path = tmp_path / "in.csv"
        path.write_text(CSV_HEADERS["imu"] + "\n" + body)
        assert state_io.load_imu_csv(path).t_us.size == 0
        path.write_text(CSV_HEADERS["velocity"] + "\n" + body)
        assert state_io.load_velocity_csv(path) == []
        path.write_text("t_us,x,y,p\n" + body)
        assert load_events_csv(path, 120, 90).size == 0

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(FINITE_FLOATS | FINITE_FLOATS.map(np.float64), min_size=1,
                           max_size=8))
    @example(values=[-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, np.float64(0.1 + 0.2),
                     np.float64(-0.0), np.float64(5e-324)])
    def test_finite_floats_round_trip_bit_for_bit(self, values):
        bits = np.array(values, dtype=np.float64).view(np.int64)
        rows = [VelocityEstimate(t_mid=v, v_lon=v, v_lat=v, omega=v, omega_source="flow",
                                 quality=EstimateQuality(n_inliers=3,
                                                         inlier_fraction=min(abs(v), 1.0),
                                                         mean_residual=0.0))
                for v in values]
        with tempfile.TemporaryDirectory() as work:
            imu_path, velocity_path = Path(work) / "imu.csv", Path(work) / "v.csv"
            state_io.write_imu_csv(imu_path, ImuSeries(np.arange(len(values)), values))
            state_io.write_velocity_csv(velocity_path, rows)
            imu = state_io.load_imu_csv(imu_path)
            back = state_io.load_velocity_csv(velocity_path)
        assert np.array_equal(imu.yaw_rate.view(np.int64), bits)
        columns = [(e.t_mid, e.v_lon, e.v_lat, e.omega, e.quality.inlier_fraction)
                   for e in back]
        expected = [(v, v, v, v, min(abs(v), 1.0)) for v in values]
        assert np.array_equal(np.array(columns).view(np.int64),
                              np.array(expected, dtype=np.float64).view(np.int64))


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
# values at the edges of each FUZZ_RUN_TEXT key's domain; camera sides stay
# at most 64 px, so that no case allocates a large frame
FUZZ_RUN_VALUES = {
    "camera.width": st.integers(-1, 64),
    "camera.height": st.integers(-1, 64),
    "camera.height_z": st.floats(),
    "camera.f_px": st.floats(),
    "accumulation.window_us": st.sampled_from([-1, 0, 1, 2 ** 64 - 1, 2 ** 64]),
    "flow.stride": st.sampled_from([-1, 0, 1, 2 ** 63]),
    "ransac.enabled": st.sampled_from(["true", "false", "yes"]),
    "seed": st.sampled_from([-1, 0, 2 ** 64, 10 ** 400]),
}


def with_value(text: str, key: str, value) -> str:
    """Config ``text`` with the value of its line for ``key`` replaced."""
    lines = text.splitlines()
    at = [line.split(" = ")[0] for line in lines].index(key)
    lines[at] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def perturbed_text(text: str, values: dict):
    """``text`` with one value swapped for a drawn one: an edge of the key's
    domain drawn from ``values``, a non-finite value or empty text."""
    return st.sampled_from(sorted(values)).flatmap(
        lambda key: (values[key].map(str) | st.sampled_from(["", "nan", "inf", "-inf"]))
        .map(lambda value: with_value(text, key, value)))


def perturbed_run_text():
    return perturbed_text(FUZZ_RUN_TEXT, FUZZ_RUN_VALUES)


FUZZ_SCENARIO_TEXT = """\
camera.width = 32
camera.height = 24
camera.height_z = 0.5
camera.f_px = 40.0
extrinsics.ca_x = 0.25
texture.kind = noise
texture.seed = 3
texture.cutoff = 0.15
texture.amplitude = 0.6
sim.duration_s = 0.004
sim.time_step_s = 0.0005
sim.contrast = 0.2
sim.noise_rate = 0.1
sim.seed = 1
trajectory.t_s = 0.0, 0.004
trajectory.v_lon = 1.0, 1.0
trajectory.v_lat = 0.0, 0.0
trajectory.omega = 0.5, 0.5
"""
# values at the edges of each FUZZ_SCENARIO_TEXT key's domain, or any float;
# camera sides stay at most 64 px.  The time step and the noise rate take
# values just past their ceilings rather than any float, so that no case
# renders up to a million substeps or draws millions of noise events.
FUZZ_SCENARIO_VALUES = {
    "camera.width": st.integers(-1, 64),
    "camera.height": st.integers(-1, 64),
    "camera.height_z": st.floats(),
    "camera.f_px": st.floats(),
    "extrinsics.ca_x": st.floats(),
    "texture.kind": st.sampled_from(["noise", "checker", "dots", "stripes"]),
    "texture.seed": st.sampled_from([-1, 0, 2 ** 64, 10 ** 400]),
    "texture.cutoff": st.floats(),
    "texture.amplitude": st.floats(),
    "sim.duration_s": st.floats(),
    "sim.time_step_s": st.sampled_from([-1.0, 0.0, 5e-324, 4e-9 * (1 - 2 ** -52), 0.004,
                                        1e308]),
    "sim.contrast": st.floats(),
    "sim.noise_rate": st.sampled_from([-1.0, 0.0, 5e-324, 1e6 * (1 + 2 ** -52), 1e308]),
    "sim.seed": st.sampled_from([-1, 0, 2 ** 64, 10 ** 400]),
    "trajectory.t_s": st.sampled_from(["0.0", "0.004, 0.0", "0.0, 0.0, 0.004",
                                       "-1e308, 1e308"]),
    "trajectory.v_lon": st.floats().map("{}, 1.0".format),
    "trajectory.v_lat": st.floats().map("0.0, {}".format),
    "trajectory.omega": st.floats().map("{}, 0.5".format),
}


def perturbed_scenario_text():
    return perturbed_text(FUZZ_SCENARIO_TEXT, FUZZ_SCENARIO_VALUES)


CSV_HEADERS = {kind: ",".join(columns.names) for kind, columns in (
    ("events", event_io._CSV_COLUMNS), ("imu", state_io._IMU_COLUMNS),
    ("velocity", state_io._VELOCITY_COLUMNS))}


def test_readme_lists_each_csv_header(tmp_path):
    text = (Path(__file__).parents[1] / "README.md").read_text()
    formats = text.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    # each "- **<Name> CSV**" entry and the first code span in it, wrapped lines included
    listed = dict(re.findall(r"^- \*\*([\w-]+) CSV\*\*[^`]*`([^`]*)`", formats, re.M))
    one = np.ones((1, 1))
    with mock.patch("evflow.plots.write_csv") as write_csv:
        dump_flow_csv(flow.FlowField(u=one, v=one, valid=one > 0, stride=1), tmp_path / "f.csv")
    budget_csv, _ = write_blur_budget([1.0], [0.01], RunConfig.from_text(RUN_TEXT).camera,
                                      tmp_path)
    budget_header = budget_csv.read_text().splitlines()[0]
    assert listed == {"Event": CSV_HEADERS["events"], "IMU": CSV_HEADERS["imu"],
                      "Velocity": CSV_HEADERS["velocity"],
                      "Flow-debug": ",".join(write_csv.call_args.args[1]),
                      "Blur-budget": budget_header.replace("0.01", "<budget>")}


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


VALID_VELOCITY_ROW = ("0.0", "1.0", "0.0", "0.0", "flow", "10", "1.0", "true")
VELOCITY_FIELD_VALUES = st.sampled_from(["nan", "inf", "-1", "2", "1e400",
                                         "9223372036854775808", "bogus", ""])
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
        assert stage_lines == [["wall", s] for s in (*PAIR_STAGES, "pair")]
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

    def test_imu_stale_rows_are_written_as_zeros(self, workspace):
        tmp_path, scenario, _ = workspace
        ev, imu = tmp_path / "events.csv", tmp_path / "imu.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev),
                         "--imu", str(imu)]) == 0
        lines = imu.read_text().splitlines()
        kept = lines[:len(lines) // 3]
        imu.write_text("\n".join(kept) + "\n")
        run_cfg = tmp_path / "run_imu.cfg"
        run_cfg.write_text(RUN_TEXT + f"io.out_dir = {tmp_path / 'out_imu'}\n"
                           f"io.imu = {imu}\nomega.source = imu\n")
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(ev)]) == 0
        out = tmp_path / "out_imu"
        n_stale = json.loads((out / "timings.json").read_text())["invalid_reasons"]["imu_stale"]
        # a row is stale when the last kept sample lies more than two windows before it
        last_s = int(kept[-1].split(",")[0]) * 1e-6
        rows = [row.split(",") for row in (out / "estimates.csv").read_text().splitlines()[1:]]
        stale = [fields for fields in rows if float(fields[0]) - last_s > 2 * 0.033]
        assert n_stale and len(stale) == n_stale
        assert all(fields[1:] == ["0.0", "0.0", "0.0", "imu", "0", "0.0", "false"]
                   for fields in stale)

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

    @pytest.mark.parametrize("flag", ["yes", "True", "1", ""], ids=["yes", "True", "1", "empty"])
    def test_velocity_valid_not_true_or_false_exit_3(self, tmp_path, capsys, flag):
        body = f"0.0,1.0,0.0,0.0,flow,10,1.0, true \n0.1,1.0,0.0,0.0,flow,10,1.0,{flag}\n"
        assert run_csv_input(tmp_path, "velocity", body.encode()) == 3
        err = capsys.readouterr().err
        assert err.startswith("input format error:") and "Traceback" not in err
        assert f"velocity.csv: line 3 has valid {flag!r}, expected true or false" in err

    @pytest.mark.parametrize("row, message", [
        ("0.1,1.0,0.0,0.0,bogus,10,1.0,true", "omega_source 'bogus', expected flow, imu or truth"),
        ("0.1,1.0,0.0,0.0,flow,-5,1.0,true", "n_inliers -5, expected at least 0"),
        ("0.1,1.0,0.0,0.0,flow,10,7.0,true", "inlier_fraction 7.0, expected within [0, 1]"),
    ], ids=["omega_source_bogus", "n_inliers_negative", "inlier_fraction_above_1"])
    def test_velocity_field_out_of_domain_exit_3(self, tmp_path, capsys, row, message):
        body = f"0.0,1.0,0.0,0.0, imu ,0,0.0,true\n{row}\n"
        assert run_csv_input(tmp_path, "velocity", body.encode()) == 3
        err = capsys.readouterr().err
        assert err.startswith("input format error:") and "Traceback" not in err
        assert f"velocity.csv: line 3 has {message}" in err

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

    @settings(max_examples=60, deadline=None)
    @given(column=st.integers(0, len(VALID_VELOCITY_ROW) - 1),
           value=VELOCITY_FIELD_VALUES | VELOCITY_FIELD_VALUES.map(" {} ".format)
           | st.text("0123456789,.-e abcdefghijklmnopqrstuvwxyz", max_size=8))
    def test_velocity_row_with_one_drawn_field_exits_cleanly(self, column, value):
        row = list(VALID_VELOCITY_ROW)
        row[column] = value
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as work, contextlib.redirect_stderr(err):
            code = run_csv_input(Path(work), "velocity", (",".join(row) + "\n").encode())
        assert code in (0, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()

    def test_imu_out_of_time_order_names_the_file_row_and_column(self, tmp_path, capsys):
        assert run_csv_input(tmp_path, "imu", b"0,0.1\n200,0.1\n200,0.1\n100,0.1\n") == 3
        err = capsys.readouterr().err
        assert err.startswith("input format error:") and "Traceback" not in err
        assert "imu.csv: line 5 has t_us 100, below the row before it" in err

    @pytest.mark.parametrize("kind, body, message", [
        ("imu", b"\n\n1,0.5\n\n2,nan\n", "line 6 has a non-finite yaw_rate_rad_s"),
        ("imu", b"\n\n1,0.5\n\n2,x\n", "line 6: could not convert"),
        ("imu", b"\n0,0.1\n\n200,0.1\n100,0.1\n", "line 6 has t_us 100, below the row before it"),
        ("velocity", b"\n0.0,1.0,0.0,0.0,flow,10,1.0,true\n\n0.1,1.0,0.0,0.0,flow,10,1.0,maybe\n",
         "line 5 has valid 'maybe', expected true or false"),
        ("velocity", b"\n0.0,1.0,0.0,0.0,flow,10,1.0,true\n\n0.1,1.0,0.0,0.0,flow,-5,1.0,true\n",
         "line 5 has n_inliers -5, expected at least 0"),
    ], ids=["imu_yaw_nan", "imu_yaw_not_a_number", "imu_out_of_time_order", "velocity_valid",
            "velocity_n_inliers"])
    def test_errors_after_empty_lines_name_the_file_line(self, tmp_path, capsys, kind, body,
                                                         message):
        # a value error and a parse error count lines alike, the header as line 1
        assert run_csv_input(tmp_path, kind, body) == 3
        err = capsys.readouterr().err
        assert err.startswith("input format error:") and "Traceback" not in err
        assert f"{kind}.csv: {message}" in err

    def test_overhead_is_the_mean_of_each_pairs_own(self, tmp_path, monkeypatch):
        # a full pair 2 ms outside its stages, and a textureless one that stops
        # after subsample 1 ms outside its own
        def ms(**stages):
            return {stage: t / 1e3 for stage, t in stages.items()}

        pairs = [PairResult(vel(0.033, 1.0), None,
                            ms(intensity=1, flow=10, subsample=1, estimate=5, transform=1,
                               pair=20)),
                 PairResult(replace(vel(0.066, 0.0), valid=False, reason="textureless"),
                            None, ms(intensity=1, flow=10, subsample=1, pair=13))]
        monkeypatch.setattr("evflow.cli.iter_pairs", lambda *args, **kwargs: iter(pairs))
        events, run_cfg = tmp_path / "events.csv", tmp_path / "run.cfg"
        events.write_text(CSV_HEADERS["events"] + "\n")
        run_cfg.write_text(RUN_TEXT)
        assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(events),
                         "--out-dir", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "timings.json").read_text())
        assert [doc["stages_ms"][s]["count"] for s in ("subsample", "estimate")] == [2, 1]
        assert doc["overhead_ms"] == pytest.approx(1.5)

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

    @settings(max_examples=60, deadline=None)
    @given(text=perturbed_run_text())
    def test_perturbed_run_config_exits_cleanly(self, text):
        with tempfile.TemporaryDirectory() as work:
            config, events = Path(work) / "run.cfg", Path(work) / "events.csv"
            config.write_text(text)
            # two windows of one event each once the window is 1 us
            events.write_text("t_us,x,y,p\n1,0,0,1\n2,1,1,-1\n")
            assert_exits_cleanly(["estimate", "--config", config, "--events", events,
                                  "--out-dir", Path(work) / "out"])

    @settings(max_examples=60, deadline=None)
    @given(text=perturbed_scenario_text())
    # non-finite levels, a million levels crossed per substep, a negative cutoff
    @example(text=with_value(FUZZ_SCENARIO_TEXT, "camera.height_z", "5e-324"))
    @example(text=with_value(FUZZ_SCENARIO_TEXT, "texture.amplitude", "1e6"))
    @example(text=with_value(FUZZ_SCENARIO_TEXT, "texture.cutoff", "-0.1"))
    def test_perturbed_scenario_exits_cleanly(self, text):
        with tempfile.TemporaryDirectory() as work:
            scenario = Path(work) / "scenario.cfg"
            scenario.write_text(text)
            assert_exits_cleanly(["simulate", scenario, "--events", Path(work) / "events.evt",
                                  "--ground-truth", Path(work) / "truth.csv"])

    @pytest.mark.parametrize("timings", [
        None, "{", "[]", '{"stages_ms": {"pair": 5}}',
        '{"stages_ms": {"pair": {"mean": true, "std": false, "p95": true, "count": true}}}',
    ], ids=["directory", "truncated", "array", "stage_not_an_object", "boolean_stats"])
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

    @pytest.mark.parametrize("budgets, named", [("0.01,0.01000001", "0.01 and 0.01000001"),
                                                ("0.02,0.05,0.02", "0.02 and 0.02")])
    def test_blur_budget_colliding_columns_exit_2(self, tmp_path, capsys, budgets, named):
        # both budgets print as t_exp_us_at_0.01 (or 0.02), one column's name
        out = tmp_path / "bb"
        assert cli_main(["blur-budget", "--out-dir", str(out), f"--budgets={budgets}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"budgets {named} share" in err
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

    @pytest.fixture
    def invalid_truth_row(self, tmp_path):
        """An estimate at 0.1 s, and truth whose row at 0.1 s is invalid
        between two valid rows 0.1 s away."""
        est, truth = tmp_path / "estimates.csv", tmp_path / "truth.csv"
        state_io.write_velocity_csv(est, [vel(0.1, 1.0)])
        state_io.write_velocity_csv(truth, [vel(0.0, 1.0), vel(0.1, 0.0, valid=False),
                                            vel(0.2, 1.0)])
        return est, truth

    def test_evaluate_pairs_only_valid_truth_rows(self, invalid_truth_row, capsys):
        est, truth = invalid_truth_row
        assert cli_main(["evaluate", "--estimates", str(est), "--ground-truth", str(truth),
                         "--tolerance", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "v_lon  RMSE 0.000000 m/s" in out and "E 0.00%" in out
        assert "paired 1, unpaired 0" in out

    def test_evaluate_without_a_valid_truth_row_exit_4(self, invalid_truth_row, capsys):
        est, truth = invalid_truth_row
        state_io.write_velocity_csv(truth, [vel(0.1, 0.0, valid=False)])
        assert cli_main(["evaluate", "--estimates", str(est), "--ground-truth", str(truth),
                         "--tolerance", "0.15"]) == 4
        assert capsys.readouterr().err.startswith("evaluation error:")

    def test_plot_leaves_out_invalid_truth_rows(self, invalid_truth_row, tmp_path):
        est, truth = invalid_truth_row
        valid_only = tmp_path / "valid_truth.csv"
        state_io.write_velocity_csv(valid_only, [vel(0.0, 1.0), vel(0.2, 1.0)])
        for name, gt in (("all", truth), ("valid", valid_only)):
            assert cli_main(["plot", "--estimates", str(est), "--ground-truth", str(gt),
                             "--out-dir", str(tmp_path / name)]) == 0
        for series, residual, _ in CHANNEL_FILES.values():
            for svg in (series, residual):
                assert (tmp_path / "all" / svg).read_bytes() == \
                    (tmp_path / "valid" / svg).read_bytes()

    def test_plot_pairs_with_truth_in_time_order(self, tmp_path):
        # the estimates equal the truth, so each residual is 0 when paired right
        rows = [vel(0.0, 1.0, 0.1, 0.2), vel(0.1, 2.0, 0.3, 0.5), vel(0.2, 4.0, 0.6, 1.0)]
        est = tmp_path / "estimates.csv"
        state_io.write_velocity_csv(est, rows)
        for name, truth in (("sorted", rows), ("shuffled", [rows[2], rows[0], rows[1]])):
            state_io.write_velocity_csv(tmp_path / f"{name}.csv", truth)
            assert cli_main(["plot", "--estimates", str(est), "--ground-truth",
                             str(tmp_path / f"{name}.csv"), "--out-dir", str(tmp_path / name)]) == 0
        for series, residual, _ in CHANNEL_FILES.values():
            for svg in (series, residual):
                assert (tmp_path / "shuffled" / svg).read_bytes() == \
                    (tmp_path / "sorted" / svg).read_bytes()

    def test_seed_comes_only_from_the_config(self, workspace, monkeypatch):
        # the scenario's noise and the run's RANSAC both draw from a seed
        tmp_path, scenario, run_cfg = workspace
        outputs = []
        for seed_env in (None, "99"):
            if seed_env is not None:
                monkeypatch.setenv("EVFLOW_SEED", seed_env)
            ev = tmp_path / f"events_{seed_env}.csv"
            out = tmp_path / f"out_{seed_env}"
            assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
            assert cli_main(["estimate", "--config", str(run_cfg), "--events", str(ev),
                             "--out-dir", str(out)]) == 0
            outputs.append((ev.read_bytes(), (out / "estimates.csv").read_bytes()))
        assert outputs[0] == outputs[1]

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
        # two blocks: pair 1 fails in this process, pairs 2 and 3 in the child,
        # whose rows before the failure still follow the first block's
        tmp_path, scenario, run_cfg = workspace
        ev, out = tmp_path / "events.csv", tmp_path / "out"
        argv = ["estimate", "--config", str(run_cfg), "--events", str(ev)]
        monkeypatch.setattr(parallel, "default_workers", lambda: 2)
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        assert cli_main(argv) == 0
        full = state_io.load_velocity_csv(out / "estimates.csv")
        assert parallel.blocks(len(full), 2) == [(0, 2), (2, 4)]
        real = pipeline.process_frame_pair

        def fail_at_pair_k(prev, curr, cfg, pair_index, **kwargs):
            if pair_index == k:
                raise InputFormatError(f"stopped at pair {k}")
            return real(prev, curr, cfg, pair_index, **kwargs)

        monkeypatch.setattr(pipeline, "process_frame_pair", fail_at_pair_k)
        assert cli_main(argv) == 3
        assert state_io.load_velocity_csv(out / "estimates.csv") == full[:k]
        assert not (out / "timings.json").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    @pytest.mark.parametrize("workers", [1, 2, 3, pytest.param(None, id="160x120")])
    def test_no_thread_and_at_most_workers_minus_one_children(
            self, workspace, monkeypatch, workers, command):
        # workers None: the real default_workers on a 160x120 sensor, two CPUs usable
        tmp_path, scenario, run_cfg = workspace
        ev = tmp_path / "events.csv"
        if workers is None:
            for path in (scenario, run_cfg):
                text = path.read_text().replace("camera.width = 120", "camera.width = 160")
                path.write_text(text.replace("camera.height = 90", "camera.height = 120"))
            monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1},
                                raising=False)
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        if workers is not None:
            monkeypatch.setattr(parallel, "default_workers", lambda: workers)
        started, forks = [], []
        real_start, real_fork = threading.Thread.start, os.fork
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (started.append(thread), real_start(thread)))
        monkeypatch.setattr(os, "fork", lambda: (forks.append(workers), real_fork())[1])
        argv = {"estimate": ["estimate", "--config", str(run_cfg), "--events", str(ev)],
                "simulate": ["simulate", str(scenario), "--events", str(ev)]}[command]
        assert cli_main(argv) == 0
        assert started == []
        # estimate's 4 windows: two blocks for two workers, one for three (too
        # few for two a block); simulate's 32 substeps: a block per worker
        assert len(forks) == {"estimate": {1: 0, 2: 1, 3: 0, None: 1},
                              "simulate": {1: 0, 2: 1, 3: 2, None: 1}}[command][workers] \
            <= (workers or 2) - 1
        assert_no_child_left()

    @pytest.mark.parametrize("command, items", [("estimate", "frames 2-3"),
                                                ("simulate", "substeps 16-31")],
                             ids=["estimate", "simulate"])
    @pytest.mark.parametrize("failure", ["child_dies", "fork_raises"])
    def test_a_worker_failure_exits_5(self, workspace, monkeypatch, capsys, failure, command,
                                      items):
        tmp_path, scenario, run_cfg = workspace
        ev = tmp_path / "events.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        monkeypatch.setattr(parallel, "default_workers", lambda: 2)
        if failure == "fork_raises":
            def fork():
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

            monkeypatch.setattr(os, "fork", fork)
            want = f"cannot start the process of {items}: {os.strerror(errno.EAGAIN)}"
        else:
            parent = os.getpid()

            def dies_in_the_child(real):
                def call(*args, **kwargs):
                    if os.getpid() != parent:
                        os._exit(3)
                    return real(*args, **kwargs)
                return call

            # one function that each command's later block calls
            monkeypatch.setattr(pipeline, "process_frame_pair",
                                dies_in_the_child(pipeline.process_frame_pair))
            monkeypatch.setattr(synth, "sample_texture", dies_in_the_child(synth.sample_texture))
            want = f"the process of {items} exited with status 3"
        argv = {"estimate": ["estimate", "--config", str(run_cfg), "--events", str(ev)],
                "simulate": ["simulate", str(scenario), "--events", str(tmp_path / "b.evt")]}
        capsys.readouterr()
        assert cli_main(argv[command]) == 5
        err = capsys.readouterr().err
        assert err == f"worker error: {want}\n"
        assert_no_child_left()

    def test_flow_debug_pair_past_last_frame_exit_2(self, workspace):
        tmp_path, scenario, run_cfg = workspace
        ev = tmp_path / "events.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        cfg = RunConfig.from_file(run_cfg)
        n_frames = len(list(iter_frames(load_events_csv(ev, cfg.camera.width, cfg.camera.height),
                                        cfg.accumulation)))
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
        frames = list(iter_frames(load_events_csv(ev, cfg.camera.width, cfg.camera.height),
                                  cfg.accumulation))
        field = flow.compute_flow(*(FrameMemo(frame).pyramid(cfg)[0] for frame in frames[1:3]),
                                  cfg.stride)
        dump_flow_csv(field, tmp_path / "expected.csv")
        assert ((tmp_path / "out" / "flow_00002.csv").read_bytes()
                == (tmp_path / "expected.csv").read_bytes())

    def test_flow_debug_reads_no_imu_file(self, workspace):
        tmp_path, scenario, run_cfg = workspace
        ev = tmp_path / "events.csv"
        assert cli_main(["simulate", str(scenario), "--events", str(ev)]) == 0
        imu_cfg = tmp_path / "imu_run.cfg"
        imu_cfg.write_text(run_cfg.read_text()
                           + f"omega.source = imu\nio.imu = {tmp_path / 'absent.csv'}\n")
        for cfg, out in ((run_cfg, "flow"), (imu_cfg, "imu")):
            assert cli_main(["flow-debug", "--config", str(cfg), "--events", str(ev),
                             "--pair-index", "2", "--out-dir", str(tmp_path / out)]) == 0
        assert ((tmp_path / "imu" / "flow_00002.csv").read_bytes()
                == (tmp_path / "flow" / "flow_00002.csv").read_bytes())
        # estimate, which uses the yaw rates, still needs the file
        assert cli_main(["estimate", "--config", str(imu_cfg), "--events", str(ev)]) == 3
