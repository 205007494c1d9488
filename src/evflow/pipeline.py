"""End-to-end estimation: events in, axle-frame velocity estimates out.

Frames are accumulated strictly in timestamp order; each consecutive frame
pair runs intensity conversion, flow on the stride grid, correspondence
subsampling, the (optionally RANSAC-guarded) rigid fit, metric conversion
and the axle transfer.  A pair depends only on its two frames, the config
and its index, so the windows split into contiguous blocks, one per worker
process: this process runs the first block and a forked child each later
one, and the rows still come out in frame order.
A frame pair that fails any stage produces an estimate
with ``valid = False`` and a reason code instead of being dropped.
Each pair's row carries its own wall-clock seconds per stage.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import parallel
from .config import RunConfig
from .errors import DegenerateConsensusError, InsufficientDataError
from .events import EventFrame, _window_end, iter_frames, to_intensity, window_grid
from .flow import FlowPyramid, compute_flow, flow_pyramid, subsample_flow
from .rigid import CameraVelocity, estimate_rigid, ransac_estimate, to_camera_velocity
from .vehicle import ImuSeries, VelocityEstimate, substitute_imu_yaw, transform_to_axle

@dataclass(frozen=True)
class PairResult:
    """Outcome of one frame pair.

    ``estimate`` is the output row and carries the reason code of an
    invalid pair.  ``camera`` is the camera-frame velocity before the axle
    transfer, or None when no rigid fit was reached.  ``stage_s`` holds the
    pair's wall seconds in each stage it ran and, under ``"pair"``, end to
    end, in the process that ran it; it is empty for a row decided without
    running a stage.  ``accumulate_s`` is the time spent accumulating the
    row's own frame, in the same process.  A later block's rows reach the
    caller pickled, so every field must pickle.
    """

    estimate: VelocityEstimate
    camera: CameraVelocity | None = None
    stage_s: dict[str, float] = field(default_factory=dict)
    accumulate_s: float = 0.0


class FrameMemo:
    """A frame and its flow pyramid, built once by whichever of its two pairs asks first."""

    def __init__(self, frame: EventFrame):
        self.frame = frame
        self._pyramid: FlowPyramid | None = None

    def pyramid(self, cfg: RunConfig) -> tuple[FlowPyramid, float]:
        """The frame's pyramid and the seconds this call spent converting the
        frame to intensity: 0.0 when the pyramid was already built."""
        if self._pyramid is not None:
            return self._pyramid, 0.0
        t0 = time.perf_counter()
        image = to_intensity(self.frame, cfg.accumulation.count_cap)
        intensity_s = time.perf_counter() - t0
        self._pyramid = flow_pyramid(image, cfg.pyramid_levels)
        return self._pyramid, intensity_s


def process_frame_pair(prev: FrameMemo, curr: FrameMemo, cfg: RunConfig, pair_index: int,
                       imu: ImuSeries | None = None) -> PairResult:
    """Run every per-pair stage for one consecutive frame pair.

    ``pair_index`` seeds the RANSAC draw together with the run seed, so
    results do not depend on processing order.  Each frame is converted
    and expanded here only if the other pair it belongs to has not done so.
    """
    t_pair = time.perf_counter()
    stage_s = {}
    t_mid = curr.frame.t_mid_s

    t0 = time.perf_counter()
    prev_pyramid, prev_s = prev.pyramid(cfg)
    curr_pyramid, curr_s = curr.pyramid(cfg)
    flow = compute_flow(prev_pyramid, curr_pyramid, cfg.stride)
    stage_s["intensity"] = prev_s + curr_s
    stage_s["flow"] = time.perf_counter() - t0 - stage_s["intensity"]

    t0 = time.perf_counter()
    p, q = subsample_flow(flow)
    stage_s["subsample"] = time.perf_counter() - t0

    reason = "textureless"
    if p.shape[0]:
        t0 = time.perf_counter()
        center = np.array([cfg.camera.cx, cfg.camera.cy])
        try:
            if cfg.ransac:
                motion, _ = ransac_estimate(p - center, q - center,
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
        return PairResult(VelocityEstimate.invalid(t_mid, reason, cfg.omega_source), None, stage_s)

    t0 = time.perf_counter()
    cam_vel = to_camera_velocity(motion, cfg.camera, cfg.window_s, t_mid, cfg.mapping, p.shape[0])
    if cfg.omega_source == "imu":
        est = substitute_imu_yaw(cam_vel, imu, cfg.extrinsics,
                                 staleness_s=2 * cfg.window_s)
    else:
        est = transform_to_axle(cam_vel, cfg.extrinsics)
    stage_s["transform"] = time.perf_counter() - t0
    stage_s["pair"] = time.perf_counter() - t_pair
    return PairResult(est, cam_vel, stage_s)


def _pair(prev: FrameMemo | None, curr: FrameMemo, cfg: RunConfig, pair_index: int,
          imu: ImuSeries | None, accumulate_s: float) -> PairResult:
    """The row of ``curr`` paired with ``prev``, the frame before it (None
    before the first), carrying the seconds spent accumulating ``curr``."""
    if prev is None or prev.frame.event_total == curr.frame.event_total == 0:
        # the first frame has no pair, and two blank images have no texture to track
        reason = "no_previous_frame" if prev is None else "textureless"
        result = PairResult(VelocityEstimate.invalid(curr.frame.t_mid_s, reason, cfg.omega_source))
    else:
        result = process_frame_pair(prev, curr, cfg, pair_index, imu=imu)
    return replace(result, accumulate_s=accumulate_s)


def iter_pairs(events: np.ndarray, cfg: RunConfig, imu: ImuSeries | None = None,
               t_start_us: int | None = None,
               t_end_us: int | None = None) -> Iterator[PairResult]:
    """Accumulate an event stream and yield one PairResult per frame, in frame order.

    The first frame only primes the pair chain: its row is invalid with
    reason ``no_previous_frame``.  Each later frame yields the estimate of
    its pair with the previous one; a pair of two empty windows is
    ``textureless`` without running flow.  Invalid frames carry reason
    codes and never vanish.

    ``parallel.forked`` splits the windows into contiguous blocks, one per
    worker: this process runs the first block and yields its rows as they
    finish, and a forked child runs each later one, whose rows follow in
    block order.  Every process holds at most two frames and their
    pyramids.  When a pair or the accumulation of a frame raises, in any
    block, every row before it has been yielded.  Each row carries in
    ``accumulate_s`` the time spent accumulating its own frame.  ``imu`` is
    given for ``omega.source = imu``, which requires ``io.imu``.
    """
    anchor, n_frames = window_grid(events["t_us"], cfg.accumulation.window_us,
                                   t_start_us, t_end_us)
    if not n_frames:
        return
    yield from parallel.forked(
        n_frames, lambda first, stop: _block(events, cfg, imu, anchor, first, stop), "frames")


def _block(events: np.ndarray, cfg: RunConfig, imu: ImuSeries | None, anchor: int,
           first: int, stop: int) -> Iterator[PairResult]:
    """The rows of frames ``[first, stop)`` of the windows from ``anchor``.

    Frame ``first - 1`` is accumulated and expanded here too, to pair with
    frame ``first``, and yields no row of its own.
    """
    w = cfg.accumulation.window_us
    prime = max(first - 1, 0)
    times = events["t_us"]
    lo = _window_end(times, anchor + prime * w, 0) if prime else 0
    hi = _window_end(times, anchor + stop * w, lo)
    frames = iter_frames(events[lo:hi], cfg.accumulation, t_start_us=anchor + prime * w,
                         t_end_us=anchor + stop * w)
    prev, t0 = None, time.perf_counter()
    for index, frame in enumerate(frames, prime):
        curr = FrameMemo(frame)
        if index >= first:
            yield _pair(prev, curr, cfg, index, imu, time.perf_counter() - t0)
        prev, t0 = curr, time.perf_counter()
