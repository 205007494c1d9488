"""End-to-end estimation: events in, axle-frame velocity estimates out.

Frames are accumulated strictly in timestamp order; each consecutive frame
pair runs intensity conversion, dense flow, correspondence subsampling,
the (optionally RANSAC-guarded) rigid fit, metric conversion and the axle
transfer.  A pair depends only on its two frames, the config and its index,
so on large frames two pairs run at once, one on the calling thread and one
as a future on a small thread pool, while the rows still come out in frame
order.  A frame pair that fails any stage produces an estimate
with ``valid = False`` and a reason code instead of being dropped.
Each pair's row carries its own wall-clock seconds per stage.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True)
class PairResult:
    """Outcome of one frame pair.

    ``estimate`` is the output row and carries the reason code of an
    invalid pair.  ``camera`` is the camera-frame velocity before the axle
    transfer, or None when no rigid fit was reached.  ``flow`` is None when
    the row was decided without running flow.  ``stage_s`` holds the pair's
    wall seconds in each stage it ran and, under ``"pair"``, end to end, on
    the thread that ran it; it is empty for a row decided without running a
    stage.  ``accumulate_s`` is the time spent accumulating frames since the
    previous row.
    """

    estimate: VelocityEstimate
    camera: CameraVelocity | None = None
    flow: FlowField | None = None
    stage_s: dict[str, float] = field(default_factory=dict)
    accumulate_s: float = 0.0


class FrameMemo:
    """A frame and its flow pyramid, built once by whichever of its two pairs asks first.

    The two pairs that share a frame may run on different threads; the lock
    makes the later one wait for the first one's build instead of repeating it.
    """

    def __init__(self, frame: EventFrame):
        self.frame = frame
        self._lock = threading.Lock()
        self._pyramid: FlowPyramid | None = None

    def pyramid(self, cfg: RunConfig) -> tuple[FlowPyramid, float]:
        """The frame's pyramid and the seconds this call spent converting the
        frame to intensity: 0.0 when the pyramid was already built."""
        with self._lock:
            if self._pyramid is not None:
                return self._pyramid, 0.0
            t0 = time.perf_counter()
            image = to_intensity(self.frame, cfg.accumulation.count_cap, cfg.merge)
            intensity_s = time.perf_counter() - t0
            self._pyramid = flow_pyramid(image, cfg.flow)
            return self._pyramid, intensity_s


def _invalid(t_mid: float, reason: str, omega_source: str) -> VelocityEstimate:
    return VelocityEstimate(t_mid=t_mid, v_lon=0.0, v_lat=0.0, omega=0.0,
                            omega_source=omega_source, quality=_INVALID_QUALITY,
                            valid=False, reason=reason)


def process_frame_pair(prev: EventFrame | FrameMemo, curr: EventFrame | FrameMemo,
                       cfg: RunConfig, pair_index: int,
                       imu: ImuSeries | None = None) -> PairResult:
    """Run every per-pair stage for one consecutive frame pair.

    ``pair_index`` seeds the RANSAC draw together with the run seed, so
    results do not depend on processing order.  A frame given as a
    ``FrameMemo`` is converted and expanded here only if no other pair has
    done so; a bare ``EventFrame`` always is, with the same result.
    """
    t_pair = time.perf_counter()
    stage_s = {}
    prev, curr = (f if isinstance(f, FrameMemo) else FrameMemo(f) for f in (prev, curr))
    t_mid = curr.frame.t_mid_s

    t0 = time.perf_counter()
    # the later frame first: its pyramid is this pair's own to build, while
    # the earlier one's may be under way in the pair before
    curr_pyramid, curr_s = curr.pyramid(cfg)
    prev_pyramid, prev_s = prev.pyramid(cfg)
    flow = compute_flow(prev_pyramid, curr_pyramid, cfg.flow)
    stage_s["intensity"] = curr_s + prev_s
    stage_s["flow"] = time.perf_counter() - t0 - stage_s["intensity"]

    t0 = time.perf_counter()
    p, q = subsample_flow(flow, cfg.stride)
    stage_s["subsample"] = time.perf_counter() - t0

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
        stage_s["estimate"] = time.perf_counter() - t0
    if reason:
        stage_s["pair"] = time.perf_counter() - t_pair
        return PairResult(_invalid(t_mid, reason, cfg.omega_source), None, flow, stage_s)

    t0 = time.perf_counter()
    cam_vel = to_camera_velocity(motion, cfg.camera, cfg.window_s, t_mid=t_mid,
                                 mapping=cfg.mapping, n_total=p.shape[0])
    if cfg.omega_source == "imu":
        est = substitute_imu_yaw(cam_vel, imu, cfg.extrinsics,
                                 staleness_s=2 * cfg.window_s)
    else:
        est = transform_to_axle(cam_vel, cfg.extrinsics)
    stage_s["transform"] = time.perf_counter() - t0
    stage_s["pair"] = time.perf_counter() - t_pair
    return PairResult(est, cam_vel, flow, stage_s)


def _pair(prev: FrameMemo | None, curr: FrameMemo, cfg: RunConfig, pair_index: int,
          imu: ImuSeries | None) -> PairResult:
    """The row of ``curr`` paired with ``prev``, the frame before it (None before the first)."""
    if prev is None:
        return PairResult(_invalid(curr.frame.t_mid_s, "no_previous_frame", cfg.omega_source))
    if prev.frame.event_total == curr.frame.event_total == 0:
        # two blank images have no texture to track
        return PairResult(_invalid(curr.frame.t_mid_s, "textureless", cfg.omega_source))
    return process_frame_pair(prev, curr, cfg, pair_index, imu=imu)


def iter_pairs(events: np.ndarray, cfg: RunConfig, imu: ImuSeries | None = None,
               t_start_us: int | None = None, t_end_us: int | None = None,
               workers: int | None = None) -> Iterator[PairResult]:
    """Accumulate an event stream and yield one PairResult per frame, in frame order.

    The first frame only primes the pair chain: its row is invalid with
    reason ``no_previous_frame``.  Each later frame yields the estimate of
    its pair with the previous one; a pair of two empty windows is
    ``textureless`` without running flow.  Invalid frames carry reason
    codes and never vanish.

    Frames are accumulated ``workers`` at a time (``default_workers(cfg)``
    when None).  A batch's first pair runs on this thread while the others
    run on a pool of ``workers - 1`` threads.  Each row is yielded once it
    and the rows before it are done, and the next batch is accumulated only
    after every pair of this one, so at most ``workers + 1`` frames and
    their pyramids are resident.  When a pair raises, every row before it
    has been yielded.  A batch's first row carries in ``accumulate_s`` the
    time spent accumulating the batch.
    """
    workers = default_workers(cfg) if workers is None else workers
    if cfg.omega_source == "imu" and imu is None:
        raise InsufficientDataError("omega source is imu but no IMU stream was supplied")
    # flow imports scipy on first use; importing it here keeps it out of the first pair
    from scipy import ndimage  # noqa: F401
    from concurrent.futures import ThreadPoolExecutor  # scipy has already loaded it
    frames = iter_frames(events, cfg.accumulation, t_start_us=t_start_us, t_end_us=t_end_us)
    prev = None
    # the pool starts a thread only on a submit, so one pair at a time starts none
    with ThreadPoolExecutor(max(1, workers - 1), thread_name_prefix="evflow-pair") as pool:
        for first_index in count(0, workers):
            t0 = time.perf_counter()
            batch = [FrameMemo(frame) for frame in islice(frames, workers)]
            accumulate_s = time.perf_counter() - t0
            if not batch:
                return
            pairs = [(a, b, cfg, i, imu)
                     for i, (a, b) in enumerate(zip([prev, *batch], batch), first_index)]
            prev = batch[-1]
            futures = [pool.submit(_pair, *pair) for pair in pairs[1:]]
            yield replace(_pair(*pairs[0]), accumulate_s=accumulate_s)
            del batch, pairs  # only the last frame's memo is carried into the next batch
            for future in futures:
                yield future.result()
