"""Command-line front end.

Subcommands: ``simulate`` (scenario -> events + ground truth),
``estimate`` (events -> velocity CSV), ``evaluate`` (estimates vs ground
truth -> metric report), ``plot`` (overlay + residual SVGs),
``blur-budget`` (exposure ceilings CSV/SVG), ``flow-debug`` (one frame
pair's flow as CSV + quiver SVG).

Exit codes: 0 success, 2 configuration error or an output path that
cannot be written, 3 input format error, 4 evaluation error, 5 worker
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

import numpy as np

from . import event_io, state_io
from .config import RunConfig, Scenario, _finite, _floats
from .errors import ConfigError, EvaluationError, InputFormatError, OutputError, WorkerError
from .evaluate import evaluate
from .events import CameraModel, iter_frames
from .flow import compute_flow, subsample_flow
from .pipeline import FrameMemo, iter_pairs
from .plots import dump_flow_csv, emit_plots, write_blur_budget
from .svgplot import quiver
from .synth import generate_events
from .vehicle import ImuSeries

@contextmanager
def _writing():
    """Turn an OSError from creating or writing an output into OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {exc.filename or 'the output'}: "
                          f"{exc.strerror or exc}") from exc


def _load_estimate_inputs(args) -> tuple[RunConfig, np.ndarray]:
    """Run config and event stream of ``estimate`` and ``flow-debug``."""
    cfg = RunConfig.from_file(args.config)
    events = event_io.load_events(args.events or cfg.events_path,
                                  cfg.camera.width, cfg.camera.height)
    return cfg, events


def _cmd_simulate(args) -> int:
    try:
        # a value that overflows the simulation raises here instead of
        # putting non-finite levels or wrapped integers into the stream
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            scenario = Scenario.from_file(args.scenario)
            sim = scenario.sim
            events, truth = generate_events(sim, scenario.trajectory)
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(f"{args.scenario}: cannot simulate this scenario: {exc}") from exc
    with _writing():
        out_events = Path(args.events)
        out_events.parent.mkdir(parents=True, exist_ok=True)
        event_io.write_events(out_events, events, sim.cam.width, sim.cam.height)
        if args.ground_truth:
            Path(args.ground_truth).parent.mkdir(parents=True, exist_ok=True)
            state_io.write_velocity_csv(args.ground_truth, truth)
        if args.imu:
            t = np.array([g.t_mid for g in truth])
            omega = np.array([g.omega for g in truth])
            Path(args.imu).parent.mkdir(parents=True, exist_ok=True)
            state_io.write_imu_csv(args.imu,
                                   ImuSeries((t * 1e6).round().astype(np.int64), omega))
    print(f"simulated {events.size} events over {sim.duration} s "
          f"({sim.cam.width}x{sim.cam.height})")
    return 0


def _stats_ms(samples: list[float]) -> dict[str, float]:
    """Mean, spread, p95 and count of wall times given in seconds, in ms; p95
    interpolates between ranks as ``np.percentile`` does by default, without
    the ``numpy.ma`` import of its first call."""
    ms = np.asarray(samples) * 1e3
    ranked = sorted(ms.tolist())
    lo, gamma = divmod((len(ranked) - 1) * 0.95, 1)
    a, b = ranked[int(lo)], ranked[min(int(lo) + 1, len(ranked) - 1)]
    p95 = b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma
    return {"mean": float(ms.mean()), "std": float(ms.std()), "p95": p95, "count": int(ms.size)}


def _cmd_estimate(args) -> int:
    cfg, events = _load_estimate_inputs(args)
    imu = state_io.load_imu_csv(cfg.imu_path) if cfg.omega_source == "imu" else None
    out_dir = Path(args.out_dir or cfg.out_dir)
    est_path = out_dir / "estimates.csv"
    counts = Counter()  # None for valid rows, else the reason, in first-seen order
    stage_s = {}  # every pair's seconds per stage, stages in first-seen order
    accumulate_s = overhead_s = 0.0  # overhead_s: the pairs' time outside their own stages

    def rows():
        nonlocal accumulate_s, overhead_s
        for pair in iter_pairs(events, cfg, imu=imu):
            counts[None if pair.estimate.valid else pair.estimate.reason] += 1
            accumulate_s += pair.accumulate_s
            for stage, seconds in pair.stage_s.items():
                stage_s.setdefault(stage, []).append(seconds)
                overhead_s += seconds if stage == "pair" else -seconds
            yield pair.estimate

    with _writing():
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "timings.json").unlink(missing_ok=True)  # a failed run leaves none
        state_io.write_velocity_csv(est_path, rows())
        frames_in = sum(counts.values())
        frames_valid = counts.pop(None, 0)
        stats = {stage: _stats_ms(samples) for stage, samples in stage_s.items()}
        # the mean of each pair's own overhead: a pair that stops early runs fewer stages
        overhead_ms = overhead_s * 1e3 / stats["pair"]["count"] if "pair" in stats else 0.0
        with open(out_dir / "timings.json", "w") as f:
            json.dump({"stages_ms": stats,
                       "overhead_ms": overhead_ms,
                       "accumulate_s": accumulate_s,
                       "frames_in": frames_in,
                       "frames_valid": frames_valid,
                       "frames_invalid": frames_in - frames_valid,
                       "invalid_reasons": counts}, f, indent=2)
    print(f"wrote {est_path} ({frames_in} frames: {frames_valid} valid, "
          f"{frames_in - frames_valid} invalid)")
    for stage, st in stats.items():
        print(f"  {stage:10s} mean {st['mean']:8.2f} ms  p95 {st['p95']:8.2f} ms")
    print(f"  overhead   mean {overhead_ms:8.2f} ms")
    return 0


def _load_latency(path: Path) -> dict[str, dict[str, float]]:
    """The ``stages_ms`` table of an estimate run's timings.json; {} without one."""
    if not path.exists():
        return {}
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    stages = doc.get("stages_ms", {}) if isinstance(doc, dict) else None
    if not (isinstance(stages, dict) and all(
            # type, not isinstance: a JSON true or false is a bool, which is an int
            isinstance(st, dict) and all(type(st.get(k)) in (int, float)
                                         for k in ("mean", "std", "p95", "count"))
            for st in stages.values())):
        raise InputFormatError(f"{path}: expected an object whose stages_ms maps each "
                               "stage to numeric mean, std, p95 and count")
    return stages


def _cmd_evaluate(args) -> int:
    try:
        tolerance = _finite(args.tolerance)
    except ValueError as exc:
        raise ConfigError(f"--tolerance: {exc}") from exc
    if tolerance < 0:
        raise ConfigError(f"--tolerance must not be negative, got {args.tolerance!r}")
    estimates = state_io.load_velocity_csv(args.estimates)
    truth = state_io.load_velocity_csv(args.ground_truth)
    latency = _load_latency(Path(args.estimates).parent / "timings.json")
    report = evaluate(estimates, truth, tolerance_s=tolerance, latency_ms=latency)
    for line in report.lines():
        print(line)
    if args.report:
        with _writing():
            Path(args.report).write_text("\n".join(report.lines()) + "\n")
    return 0


def _cmd_plot(args) -> int:
    estimates = state_io.load_velocity_csv(args.estimates)
    truth = state_io.load_velocity_csv(args.ground_truth)
    with _writing():
        written = emit_plots(estimates, truth, args.out_dir)
    print("\n".join(str(p) for p in written))
    return 0


def _cmd_blur_budget(args) -> int:
    try:
        cam = CameraModel(width=args.sensor_width, height=args.sensor_height,
                          height_z=args.height_z,
                          fov_alpha=np.radians(args.fov_deg))
        speeds = _floats(args.speeds)
        budgets = _floats(args.budgets)
        with _writing():
            csv_path, svg_path = write_blur_budget(speeds, budgets, cam, args.out_dir)
    except ValueError as exc:
        raise ConfigError(f"blur-budget: {exc}") from exc
    print(f"{csv_path}\n{svg_path}")
    return 0


def _cmd_flow_debug(args) -> int:
    k = args.pair_index
    if not 1 <= k < sys.maxsize:
        raise ConfigError(f"pair index must lie in [1, {sys.maxsize}), got {k}")
    cfg, events = _load_estimate_inputs(args)
    # streaming: frames before k - 1 are accumulated and dropped one by one
    pair = [FrameMemo(f) for f in islice(iter_frames(events, cfg.accumulation), k - 1, k + 1)]
    if len(pair) < 2:
        raise ConfigError(f"pair index {k} is past the last frame pair")
    pyramids = [memo.pyramid(cfg)[0] for memo in pair]
    field = compute_flow(*pyramids, cfg.stride)
    h, w = pyramids[0].shape
    out_dir = Path(args.out_dir or cfg.out_dir)
    csv_path = out_dir / f"flow_{k:05d}.csv"
    svg_path = out_dir / f"flow_{k:05d}.svg"
    with _writing():
        out_dir.mkdir(parents=True, exist_ok=True)
        dump_flow_csv(field, csv_path)
        svg_path.write_text(quiver(f"flow, pair {k}", w, h, *subsample_flow(field)))
    print(f"{csv_path}\n{svg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evflow",
        description="Planar velocity estimation from event-camera optical flow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write events + ground truth")
    p.add_argument("scenario", help="scenario config file")
    p.add_argument("--events", required=True, help="output events path (.csv or .evt)")
    p.add_argument("--ground-truth", default="", help="output ground-truth velocity CSV")
    p.add_argument("--imu", default="", help="output IMU CSV derived from the trajectory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate velocities from an event stream")
    p.add_argument("--config", required=True, help="run config file")
    p.add_argument("--events", default="", help="override io.events from the config")
    p.add_argument("--out-dir", default="", help="override io.out_dir from the config")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("evaluate", help="compare estimates against ground truth")
    p.add_argument("--estimates", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--tolerance", required=True,
                   help="pairing tolerance in seconds (half the window is typical)")
    p.add_argument("--report", default="", help="also write the report to this file")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("plot", help="velocity overlays and residual histograms")
    p.add_argument("--estimates", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("blur-budget", help="exposure ceilings per speed and blur budget")
    p.add_argument("--speeds", default="5,10,15,20,25,30,35,40",
                   help="comma-separated speeds in m/s")
    p.add_argument("--budgets", default="0.01,0.02,0.05", help="blur fractions")
    p.add_argument("--height-z", type=_finite, default=0.6)
    p.add_argument("--fov-deg", type=_finite, default=60.0)
    p.add_argument("--sensor-width", type=int, default=640)
    p.add_argument("--sensor-height", type=int, default=480)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_blur_budget)

    p = sub.add_parser("flow-debug", help="dump one frame pair's flow (CSV + quiver SVG)")
    p.add_argument("--config", required=True)
    p.add_argument("--events", default="")
    p.add_argument("--pair-index", type=int, default=1)
    p.add_argument("--out-dir", default="")
    p.set_defaults(func=_cmd_flow_debug)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except InputFormatError as exc:
        print(f"input format error: {exc}", file=sys.stderr)
        return 3
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 4
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
