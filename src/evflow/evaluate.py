"""Comparison of a velocity estimate stream against ground truth.

Valid estimates are paired with the nearest valid ground-truth row inside
an alignment tolerance; per channel the report carries the RMSE of the
paired errors and the standard deviation of the signed error, plus the
relative error for the longitudinal channel (the only one whose ground
truth cannot be identically zero over a run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError
from .vehicle import VelocityEstimate

CHANNELS = ("v_lon", "v_lat", "omega")


@dataclass(frozen=True)
class ChannelMetrics:
    rmse: float
    sigma: float
    relative_pct: float | None = None


@dataclass(frozen=True)
class EvalReport:
    channels: dict[str, ChannelMetrics]
    frames_total: int
    frames_valid: int
    frames_invalid: int
    pairs_used: int
    unpaired: int
    latency_ms: dict[str, dict[str, float]] = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = []
        for name in CHANNELS:
            m = self.channels[name]
            unit = "rad/s" if name == "omega" else "m/s"
            line = f"{name:6s} RMSE {m.rmse:.6f} {unit}  sigma {m.sigma:.6f} {unit}"
            if m.relative_pct is not None:
                line += f"  E {m.relative_pct:.2f}%"
            out.append(line)
        out.append(f"frames: total {self.frames_total}, valid {self.frames_valid}, "
                   f"invalid {self.frames_invalid}; paired {self.pairs_used}, "
                   f"unpaired {self.unpaired}")
        for stage, st in self.latency_ms.items():
            out.append(f"wall {stage:10s} mean {st['mean']:.2f} ms  std {st['std']:.2f}"
                       f"  p95 {st['p95']:.2f}  n {st['count']}")
        return out


def _valid_series(rows: list[VelocityEstimate]) -> tuple[np.ndarray, np.ndarray]:
    """Times and (n, 3) ``CHANNELS`` values of the valid rows, in stable time order."""
    rows = sorted((r for r in rows if r.valid), key=lambda r: r.t_mid)
    return (np.array([r.t_mid for r in rows]),
            np.array([[r.v_lon, r.v_lat, r.omega] for r in rows]).reshape(-1, 3))


def _pair_series(est_t: np.ndarray, truth_t: np.ndarray, tolerance: float):
    idx = np.searchsorted(truth_t, est_t)
    idx = np.clip(idx, 1, truth_t.size - 1) if truth_t.size > 1 else np.zeros_like(idx)
    left = np.abs(truth_t[np.maximum(idx - 1, 0)] - est_t)
    right = np.abs(truth_t[idx] - est_t)
    nearest = np.where(left <= right, np.maximum(idx - 1, 0), idx)
    dist = np.minimum(left, right)
    return nearest, dist <= tolerance


def evaluate(estimates: list[VelocityEstimate], truth: list[VelocityEstimate],
             tolerance_s: float,
             latency_ms: dict[str, dict[str, float]] | None = None) -> EvalReport:
    """Pair estimates with ground truth and compute per-channel metrics.

    Only estimates and ground-truth rows marked valid participate;
    estimates without a valid ground-truth row within ``tolerance_s`` are
    excluded and counted as unpaired.  Raises EvaluationError when the
    estimate stream is empty, the ground truth has no valid row, or no pair
    falls inside the tolerance.
    """
    truth_t, truth_arr = _valid_series(truth)
    if not estimates or not truth_t.size:
        raise EvaluationError("need a non-empty estimate stream and at least one valid "
                              "ground-truth row")
    est_t, est_arr = _valid_series(estimates)
    nearest, ok = _pair_series(est_t, truth_t, tolerance_s)
    pairs_used = int(ok.sum())
    if pairs_used == 0:
        raise EvaluationError("no estimate/ground-truth pair within the alignment tolerance")
    truths = truth_arr[nearest[ok]]
    errors = est_arr[ok] - truths

    channels = {}
    for c, name in enumerate(CHANNELS):
        err = errors[:, c]
        rmse = float(np.sqrt(np.mean(err * err)))
        sigma = float(np.std(err))
        rel = None
        if name == "v_lon":
            denom = float(np.mean(np.abs(truths[:, 0])))
            rel = rmse / denom * 100.0 if denom > 0 else math.inf
        channels[name] = ChannelMetrics(rmse=rmse, sigma=sigma, relative_pct=rel)

    return EvalReport(channels=channels, frames_total=len(estimates),
                      frames_valid=est_t.size, frames_invalid=len(estimates) - est_t.size,
                      pairs_used=pairs_used, unpaired=ok.size - pairs_used,
                      latency_ms=latency_ms or {})
