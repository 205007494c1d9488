"""End-to-end estimation: events in, axle-frame velocity estimates out.

Frames are processed strictly in timestamp order; each consecutive frame
pair runs intensity conversion, dense flow, correspondence subsampling,
the (optionally RANSAC-guarded) rigid fit, metric conversion and the axle
transfer.  A frame pair that fails any stage produces an estimate with
``valid = False`` and a reason code instead of being dropped.  Wall-clock
timings are recorded per stage and per pair.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import DegenerateConsensusError, InsufficientDataError
from .events import EventFrame, iter_frames, to_intensity
from .flow import FlowField, FlowPyramid, compute_flow, flow_pyramid, subsample_flow
from .rigid import (CameraVelocity, EstimateQuality, estimate_rigid, ransac_estimate,
                    to_camera_velocity)
from .vehicle import ImuSeries, VelocityEstimate, substitute_imu_yaw, transform_to_axle

PAIR_STAGES = ("intensity", "flow", "subsample", "estimate", "transform")

_INVALID_QUALITY = EstimateQuality(n_inliers=0, inlier_fraction=0.0, mean_residual=0.0)


@dataclass
class StageTimings:
    """Per-frame-pair wall-clock seconds for each stage plus end to end."""

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
    transfer, or None when no rigid fit was reached.  ``flow`` and
    ``pyramid`` are None when the row was decided without running flow;
    otherwise ``pyramid`` is the current frame's flow pyramid, which the
    next pair takes as its ``prev_pyramid``.
    """

    estimate: VelocityEstimate
    camera: CameraVelocity | None = None
    flow: FlowField | None = None
    pyramid: FlowPyramid | None = None


def _invalid(t_mid: float, reason: str, omega_source: str) -> VelocityEstimate:
    return VelocityEstimate(t_mid=t_mid, v_lon=0.0, v_lat=0.0, omega=0.0,
                            omega_source=omega_source, quality=_INVALID_QUALITY,
                            valid=False, reason=reason)


def process_frame_pair(prev: EventFrame, curr: EventFrame, cfg: RunConfig,
                       pair_index: int, imu: ImuSeries | None = None,
                       timings: StageTimings | None = None,
                       prev_pyramid: FlowPyramid | None = None) -> PairResult:
    """Run every per-pair stage for one consecutive frame pair.

    ``pair_index`` seeds the RANSAC draw together with the run seed, so
    results do not depend on processing order.  ``prev_pyramid`` is the
    ``pyramid`` of the pair that ended at ``prev``; without it ``prev`` is
    converted and expanded here, with the same result.
    """
    rec = timings.add if timings is not None else (lambda stage, s: None)
    t_pair = time.perf_counter()
    t_mid = curr.t_mid_s

    t0 = time.perf_counter()
    if prev_pyramid is None:
        img_prev = to_intensity(prev, cfg.accumulation.count_cap, cfg.merge)
    img_curr = to_intensity(curr, cfg.accumulation.count_cap, cfg.merge)
    rec("intensity", time.perf_counter() - t0)

    t0 = time.perf_counter()
    if prev_pyramid is None:
        prev_pyramid = flow_pyramid(img_prev, cfg.flow)
    pyramid = flow_pyramid(img_curr, cfg.flow)
    flow = compute_flow(prev_pyramid, pyramid, cfg.flow)
    rec("flow", time.perf_counter() - t0)

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
        return PairResult(_invalid(t_mid, reason, cfg.omega_source), None, flow, pyramid)

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
    return PairResult(est, cam_vel, flow, pyramid)


def iter_pairs(events: np.ndarray, cfg: RunConfig, imu: ImuSeries | None = None,
               timings: StageTimings | None = None, t_start_us: int | None = None,
               t_end_us: int | None = None) -> Iterator[PairResult]:
    """Accumulate an event stream and yield one PairResult per frame, in frame order.

    The first frame only primes the pair chain: its row is invalid with
    reason ``no_previous_frame``.  Each later frame yields the estimate of
    its pair with the previous one; a pair of two empty windows is
    ``textureless`` without running flow.  Invalid frames carry reason
    codes and never vanish.  Only the previous frame and the previous
    PairResult stay resident.  ``timings`` receives the per-pair stage times, and in
    ``accumulate_s`` the time spent accumulating frames alone.
    """
    if cfg.omega_source == "imu" and imu is None:
        raise InsufficientDataError("omega source is imu but no IMU stream was supplied")
    prev = pair = None
    t0 = time.perf_counter()
    for pair_index, frame in enumerate(iter_frames(events, cfg.accumulation,
                                                   t_start_us=t_start_us, t_end_us=t_end_us)):
        if timings is not None:
            timings.accumulate_s += time.perf_counter() - t0
        if prev is None:
            pair = PairResult(_invalid(frame.t_mid_s, "no_previous_frame", cfg.omega_source))
        elif prev.event_total == frame.event_total == 0:
            # two blank images have no texture to track; the next pair
            # expands this frame itself, with the same result
            pair = PairResult(_invalid(frame.t_mid_s, "textureless", cfg.omega_source))
        else:
            pair = process_frame_pair(prev, frame, cfg, pair_index, imu=imu, timings=timings,
                                      prev_pyramid=pair.pyramid)
        yield pair
        prev = frame
        t0 = time.perf_counter()  # the consumer's time between frames is not accumulation
