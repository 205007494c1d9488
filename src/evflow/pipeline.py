"""End-to-end estimation: events in, axle-frame velocity estimates out.

Frames are accumulated strictly in timestamp order; each consecutive frame
pair runs intensity conversion, dense flow, correspondence subsampling,
the (optionally RANSAC-guarded) rigid fit, metric conversion and the axle
transfer.  A pair depends only on its two frames, the config and its index,
so on large frames two pairs run at once while the rows still come out in
frame order.  A frame pair that fails any stage produces an estimate
with ``valid = False`` and a reason code instead of being dropped.
Wall-clock timings are recorded per stage and per pair.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import count, islice

import numpy as np

from .config import RunConfig
from .errors import DegenerateConsensusError, InsufficientDataError
from .events import EventFrame, iter_frames, to_intensity
from .flow import FlowField, FlowPyramid, compute_flow, flow_pyramid, subsample_flow
from .rigid import (CameraVelocity, EstimateQuality, estimate_rigid, ransac_estimate,
                    to_camera_velocity)
from .vehicle import ImuSeries, VelocityEstimate, substitute_imu_yaw, transform_to_axle

PAIR_STAGES = ("intensity", "flow", "subsample", "estimate", "transform")
# Frames of fewer pixels run one pair at a time.  On a 2-vCPU host two
# threads ran the pair loop 1.12-1.16x faster at 160x120 and 208x156 but
# 1.21-1.35x at 240x180 to 346x260; the small gain does not pay for a second
# working set, nor show in a run whose wall is mostly loading and accumulation.
PARALLEL_MIN_PIXELS = 40_000

_INVALID_QUALITY = EstimateQuality(n_inliers=0, inlier_fraction=0.0, mean_residual=0.0)


def default_workers(cfg: RunConfig) -> int:
    """Pairs run at once: two on frames of ``PARALLEL_MIN_PIXELS`` or more
    where two CPUs are usable, else one."""
    if cfg.camera.width * cfg.camera.height < PARALLEL_MIN_PIXELS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


@dataclass
class StageTimings:
    """Per-frame-pair wall-clock seconds for each stage plus end to end.

    Each figure is one pair's wall time on the thread that ran it; pairs
    that run at once overlap, so the stage times can sum past the run's wall.
    """

    stages: dict[str, list[float]] = field(default_factory=dict)
    accumulate_s: float = 0.0

    def add(self, stage: str, seconds: float) -> None:
        self.stages.setdefault(stage, []).append(seconds)

    def stats_ms(self) -> dict[str, dict[str, float]]:
        out = {}
        for stage, vals in self.stages.items():
            arr = np.asarray(vals) * 1e3
            out[stage] = {"mean": float(arr.mean()), "std": float(arr.std()),
                          "p95": float(np.percentile(arr, 95)), "count": int(arr.size)}
        return out

    def overhead_ms(self) -> float:
        """Mean per-pair orchestration time not attributed to any stage."""
        stats = self.stats_ms()
        if "pair" not in stats:
            return 0.0
        staged = sum(stats[s]["mean"] for s in PAIR_STAGES if s in stats)
        return stats["pair"]["mean"] - staged


@dataclass(frozen=True)
class PairResult:
    """Outcome of one frame pair.

    ``estimate`` is the output row and carries the reason code of an
    invalid pair.  ``camera`` is the camera-frame velocity before the axle
    transfer, or None when no rigid fit was reached.  ``flow`` is None when
    the row was decided without running flow.
    """

    estimate: VelocityEstimate
    camera: CameraVelocity | None = None
    flow: FlowField | None = None


class FrameMemo:
    """A frame and its flow pyramid, built once by whichever of its two pairs asks first.

    The two pairs that share a frame may run on different threads; the lock
    makes the later one wait for the first one's build instead of repeating it.
    """

    def __init__(self, frame: EventFrame):
        self.frame = frame
        self._lock = threading.Lock()
        self._pyramid: FlowPyramid | None = None

    def pyramid(self, cfg: RunConfig, intensity_s: list[float]) -> FlowPyramid:
        """The frame's pyramid; a build appends its intensity conversion's seconds."""
        with self._lock:
            if self._pyramid is None:
                t0 = time.perf_counter()
                image = to_intensity(self.frame, cfg.accumulation.count_cap, cfg.merge)
                intensity_s.append(time.perf_counter() - t0)
                self._pyramid = flow_pyramid(image, cfg.flow)
            return self._pyramid


def _invalid(t_mid: float, reason: str, omega_source: str) -> VelocityEstimate:
    return VelocityEstimate(t_mid=t_mid, v_lon=0.0, v_lat=0.0, omega=0.0,
                            omega_source=omega_source, quality=_INVALID_QUALITY,
                            valid=False, reason=reason)


def process_frame_pair(prev: EventFrame | FrameMemo, curr: EventFrame | FrameMemo,
                       cfg: RunConfig, pair_index: int, imu: ImuSeries | None = None,
                       timings: StageTimings | None = None) -> PairResult:
    """Run every per-pair stage for one consecutive frame pair.

    ``pair_index`` seeds the RANSAC draw together with the run seed, so
    results do not depend on processing order.  A frame given as a
    ``FrameMemo`` is converted and expanded here only if no other pair has
    done so; a bare ``EventFrame`` always is, with the same result.
    """
    rec = timings.add if timings is not None else (lambda stage, s: None)
    t_pair = time.perf_counter()
    prev, curr = (f if isinstance(f, FrameMemo) else FrameMemo(f) for f in (prev, curr))
    t_mid = curr.frame.t_mid_s

    t0 = time.perf_counter()
    intensity_s = []
    # the later frame first: its pyramid is this pair's own to build, while
    # the earlier one's may be under way in the pair before
    pyramid = curr.pyramid(cfg, intensity_s)
    flow = compute_flow(prev.pyramid(cfg, intensity_s), pyramid, cfg.flow)
    intensity = sum(intensity_s)
    rec("intensity", intensity)
    rec("flow", time.perf_counter() - t0 - intensity)

    t0 = time.perf_counter()
    p, q = subsample_flow(flow, cfg.stride)
    rec("subsample", time.perf_counter() - t0)

    reason = "textureless"
    if p.shape[0]:
        t0 = time.perf_counter()
        center = np.array([cfg.camera.cx, cfg.camera.cy])
        try:
            if cfg.ransac.enabled:
                motion, _ = ransac_estimate(p - center, q - center, cfg.ransac,
                                            rng_seed=(cfg.seed, pair_index))
            else:
                motion = estimate_rigid(p - center, q - center)
            reason = ""
        except InsufficientDataError:
            reason = "insufficient_correspondences"
        except DegenerateConsensusError:
            reason = "degenerate_consensus"
        rec("estimate", time.perf_counter() - t0)
    if reason:
        rec("pair", time.perf_counter() - t_pair)
        return PairResult(_invalid(t_mid, reason, cfg.omega_source), None, flow)

    t0 = time.perf_counter()
    cam_vel = to_camera_velocity(motion, cfg.camera, cfg.window_s, t_mid=t_mid,
                                 mapping=cfg.mapping, n_total=p.shape[0])
    if cfg.omega_source == "imu":
        est = substitute_imu_yaw(cam_vel, imu, cfg.extrinsics,
                                 staleness_s=2 * cfg.window_s)
    else:
        est = transform_to_axle(cam_vel, cfg.extrinsics)
    rec("transform", time.perf_counter() - t0)
    rec("pair", time.perf_counter() - t_pair)
    return PairResult(est, cam_vel, flow)


def _call(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the exception it raised, to raise again in frame order."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def _run_batch(memos: list[FrameMemo | None], first_index: int, cfg: RunConfig,
               imu: ImuSeries | None, timings: StageTimings | None,
               pool) -> list[PairResult | Exception]:
    """The row of each frame in ``memos[1:]``, paired with the frame before it.

    ``memos[0]`` is the previous batch's last frame, None before the first
    frame.  The first pair that runs flow runs on this thread and the others
    on ``pool``; a pair that raised leaves its exception in its row's place.
    """
    rows, jobs = [], []
    for pair_index, (prev, curr) in enumerate(zip(memos, memos[1:]), first_index):
        if prev is None:
            rows.append(PairResult(_invalid(curr.frame.t_mid_s, "no_previous_frame",
                                            cfg.omega_source)))
        elif prev.frame.event_total == curr.frame.event_total == 0:
            # two blank images have no texture to track
            rows.append(PairResult(_invalid(curr.frame.t_mid_s, "textureless",
                                            cfg.omega_source)))
        else:
            rows.append(None)
            jobs.append((prev, curr, cfg, pair_index))
    futures = [pool.submit(_call, process_frame_pair, *job, imu=imu, timings=timings)
               for job in jobs[1:]]
    first = [_call(process_frame_pair, *job, imu=imu, timings=timings) for job in jobs[:1]]
    done = iter(first + [f.result() for f in futures])
    return [next(done) if row is None else row for row in rows]


def iter_pairs(events: np.ndarray, cfg: RunConfig, imu: ImuSeries | None = None,
               timings: StageTimings | None = None, t_start_us: int | None = None,
               t_end_us: int | None = None, workers: int | None = None) -> Iterator[PairResult]:
    """Accumulate an event stream and yield one PairResult per frame, in frame order.

    The first frame only primes the pair chain: its row is invalid with
    reason ``no_previous_frame``.  Each later frame yields the estimate of
    its pair with the previous one; a pair of two empty windows is
    ``textureless`` without running flow.  Invalid frames carry reason
    codes and never vanish.

    Frames are accumulated ``workers`` at a time (``default_workers(cfg)``
    when None), and their pairs run at once on this thread and a pool of
    ``workers - 1`` threads.  A batch's rows are yielded once all of its
    pairs are done, so at most ``workers + 1`` frames and their pyramids are
    resident, and when a pair raises, every row before it has been yielded.  ``timings`` receives the per-pair stage times, and
    in ``accumulate_s`` the time spent accumulating frames alone.
    """
    workers = default_workers(cfg) if workers is None else workers
    if cfg.omega_source == "imu" and imu is None:
        raise InsufficientDataError("omega source is imu but no IMU stream was supplied")
    # flow imports scipy on first use; importing it here keeps it out of the first pair
    from scipy import ndimage  # noqa: F401
    frames = iter_frames(events, cfg.accumulation, t_start_us=t_start_us, t_end_us=t_end_us)
    prev = pool = None
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # its import costs a few ms
        pool = ThreadPoolExecutor(workers - 1, thread_name_prefix="evflow-pair")
    try:
        for first_index in count(0, workers):
            t0 = time.perf_counter()
            batch = [FrameMemo(frame) for frame in islice(frames, workers)]
            if timings is not None:
                timings.accumulate_s += time.perf_counter() - t0
            if not batch:
                return
            rows = _run_batch([prev, *batch], first_index, cfg, imu, timings, pool)
            prev = batch[-1]
            del batch  # only the last frame's memo is carried into the next batch
            for row in rows:
                if isinstance(row, Exception):
                    raise row
                yield row
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
