#!/usr/bin/env python3
"""evflow benchmark: drives `evflow simulate` and `evflow estimate` from outside.

Run from the root of a source checkout (the directory holding ``src/``)::

    python3 perfbench/run.py --workload drive_dense --seed 1 --seconds 15 --trace 0

``--trace 0`` times the plain commands in fresh processes and prints the
end-to-end metrics; ``--trace 1`` runs each command plain and then traced
in one process (see ``tracer.py``) and prints the per-layer metrics.  Every
output passes the correctness gates before a number is reported.  The last
stdout line is the JSON result; the line before it is the machine record,
also written with the raw figures to ``.bench_out/BENCH_<workload>[_trace].json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy import ndimage

from tracer import TOP_LEVEL
from workloads import WORKLOADS, Workload

# one BLAS thread: the estimator's kernels are single-threaded numpy/scipy, and
# a pinned thread count keeps runs on a shared machine comparable
BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 3
MIN_REPS = 3
RUN_LIMIT_S = 170.0
COVERAGE_TOLERANCE = 0.05
EVT_HEADER_BYTES = 8
EVT_RECORD_BYTES = 13  # packed u64 t_us, u16 x, u16 y, i8 p


# The reference kernel's time on the 2-vCPU development VM (Intel Xeon,
# 2.1 GHz).  It only sets the scale of the normalized times; see reference_s.
REFERENCE_S = 0.2

_REF_IMAGE = np.linspace(0, 255, 260 * 346, dtype=np.float32).reshape(260, 346)
_REF_LLC = np.linspace(-8, 8, 3_000_000, dtype=np.float32)          # 12 MB
_REF_DRAM = np.linspace(-8, 8, 24_000_000, dtype=np.float32)        # 96 MB
_REF_KERNEL = np.full(15, 1 / 15, dtype=np.float32)


def reference_s() -> float:
    """Wall time of a fixed kernel that is slowed by what slows the program.

    On a host shared with other tenants the speed of the same code drifts by
    up to 1.5x over seconds to minutes, mostly through contention for cache
    and memory bandwidth.  The kernel smooths a cache-resident image (as in
    flow), takes a transcendental over a 12 MB array (as in the simulator's
    texture) and streams a 96 MB array (the size of the dense event stream).
    Timing it right before and after each timed step measures the drift, and
    the step's time is scaled by ``REFERENCE_S`` over it.  The kernel lives in
    the benchmark, so no change to the program can move it.
    """
    t0 = time.perf_counter()
    for _ in range(40):
        ndimage.correlate1d(_REF_IMAGE, _REF_KERNEL, axis=0, mode="nearest")
    for _ in range(10):
        np.cos(_REF_LLC * np.float32(0.5))
    for _ in range(2):
        (_REF_DRAM * np.float32(0.5)).sum()
    return time.perf_counter() - t0


class GateError(Exception):
    """An output failed a correctness gate."""


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


def count_events(path: Path) -> int:
    """Events in an EVT1 or CSV stream, counted from the file layout alone."""
    if path.suffix == ".evt":
        payload = path.stat().st_size - EVT_HEADER_BYTES
        if payload < 0 or payload % EVT_RECORD_BYTES:
            raise GateError(f"{path.name}: {payload} payload bytes are not whole records")
        return payload // EVT_RECORD_BYTES
    with open(path, "rb") as f:
        return sum(block.count(b"\n") for block in iter(lambda: f.read(1 << 22), b"")) - 1


def check_round_trip(path: Path, w: Workload) -> None:
    """The stream loads through the program's EVT1 reader and writes back identically."""
    from evflow import event_io
    try:
        events, width, height = event_io.load_events_binary(path)
    except Exception as exc:  # any rejection of the stream is a gate failure
        raise GateError(f"load_events_binary rejects {path.name}: {exc}") from exc
    if (width, height) != w.size:
        raise GateError(f"{path.name} is {width}x{height}, expected {w.size}")
    if events.size != count_events(path):
        raise GateError(f"{path.name}: loaded {events.size} events, file holds "
                        f"{count_events(path)}")
    copy = path.with_name(path.name + ".roundtrip")
    try:
        event_io.write_events_binary(copy, events, width, height)
        if _digest(copy) != _digest(path):
            raise GateError(f"{path.name} does not round-trip byte-identically")
    finally:
        copy.unlink(missing_ok=True)


def check_estimates(out_dir: Path, w: Workload) -> dict:
    """Frame accounting and the criterion's accuracy bound on one estimate run."""
    est_path = out_dir / "estimates.csv"
    if not est_path.is_file():
        raise GateError(f"{est_path} was not written")
    with open(est_path, newline="") as f:
        rows = list(csv.DictReader(f))
    flags = [r.get("valid") for r in rows]
    if any(flag not in ("true", "false") for flag in flags):
        raise GateError("estimates.csv has a row without a true/false valid flag")
    n_valid = flags.count("true")
    counts = {"frames_in": len(rows), "frames_valid": n_valid,
              "frames_invalid": len(rows) - n_valid}
    if len(rows) != w.windows:
        raise GateError(f"{len(rows)} estimate rows for {w.windows} windows")
    timings_path = out_dir / "timings.json"
    if timings_path.is_file():
        reported = json.loads(timings_path.read_text())
        for key, value in counts.items():
            if key in reported and reported[key] != value:
                raise GateError(f"timings.json {key}={reported[key]}, estimates.csv has {value}")
    if counts["frames_valid"] + counts["frames_invalid"] != counts["frames_in"]:
        raise GateError("frames_in != frames_valid + frames_invalid")
    valid = [r for r in rows if r["valid"] == "true"]
    if not valid:
        raise GateError("no valid estimate rows")
    try:
        t, v_lon, omega = (np.array([float(r[k]) for r in valid])
                           for k in ("t_s", "v_lon", "omega"))
    except (KeyError, ValueError) as exc:
        raise GateError(f"unparsable estimate row: {exc}") from exc
    err = w.error_pct(t, v_lon, omega)
    if not err < w.err_limit_pct:  # also catches NaN
        raise GateError(f"{w.accuracy} error {err:.4f}% is not below {w.err_limit_pct}%")
    return {"rows": len(rows), "err_pct": err,
            # the first frame only primes the pair chain, so it is no pair
            "invalid_pair_frac": (counts["frames_invalid"] - 1) / (len(rows) - 1),
            "digest": _digest(est_path)}


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _named(doc: dict, name: str) -> list:
    return [s for s in doc["spans"] if s[0] == name]


def _ms(span) -> float:
    return (span[2] - span[1]) * 1e3


def _per_run(docs, fn) -> float:
    return float(statistics.median(fn(d) for d in docs))


def _total_ms(name):
    return lambda d: sum(_ms(s) for s in _named(d, name))


def _count(name):
    return lambda d: len(_named(d, name))


def top_level_ms(doc: dict) -> float:
    return sum(_ms(s) for s in doc["spans"] if s[3] == -1 and s[0] in TOP_LEVEL)


def layer_metrics(est: list, sim: list, measured: list, checks: list) -> dict:
    """Per-layer figures from traced estimate and simulate runs.

    Per-call timings pool every traced run; per-run totals and counts are
    the median over runs.
    """
    pooled = lambda docs, name: [_ms(s) for d in docs for s in _named(d, name)]
    attrs = lambda docs, name, key: [s[4][key] for d in docs for s in _named(d, name)
                                     if key in s[4]]
    m = {}
    m["event_io.load_ms"] = _per_run(est, _total_ms("event_io.load"))
    m["event_io.bytes_read"] = _per_run(est, lambda d: sum(attrs([d], "event_io.load", "bytes")))
    m["event_io.write_ms"] = _per_run(sim, _total_ms("event_io.write"))

    steady = [_ms(s) for d in est for s in _named(d, "events.accumulate")[1:]]
    m["events.accumulate_ms_p50"] = _pct(steady, 50)
    m["events.accumulate_ms_p90"] = _pct(steady, 90)
    m["events.accumulate_first_ms"] = _per_run(est, lambda d: _ms(_named(d, "events.accumulate")[0]))
    m["events.events_per_frame"] = float(np.mean(attrs(est, "events.accumulate", "events")))
    m["events.intensity_ms_p50"] = _pct(pooled(est, "events.intensity"), 50)
    m["events.intensity_calls"] = _per_run(est, _count("events.intensity"))

    m["flow.compute_ms_p50"] = _pct(pooled(est, "flow.compute"), 50)
    m["flow.compute_ms_p90"] = _pct(pooled(est, "flow.compute"), 90)
    m["flow.expand_ms_total"] = _per_run(est, _total_ms("flow.expand"))
    m["flow.expand_calls"] = _per_run(est, _count("flow.expand"))
    m["flow.subsample_ms_p50"] = _pct(pooled(est, "flow.subsample"), 50)
    m["flow.valid_px_frac"] = float(np.mean(attrs(est, "flow.compute", "valid_frac")))
    m["flow.correspondences_mean"] = float(np.mean(attrs(est, "flow.subsample", "n")))

    m["rigid.fit_ms_p50"] = _pct(pooled(est, "rigid.fit"), 50)
    m["rigid.estimate_rigid_calls"] = _per_run(est, lambda d: len(_named(d, "rigid.estimate_rigid"))
                                               + sum(attrs([d], "rigid.fit", "estimate_rigid_calls")))
    m["rigid.inlier_frac_mean"] = float(np.mean(attrs(est, "rigid.fit", "inlier_frac")))
    m["rigid.fit_failures"] = _per_run(est, lambda d: len(attrs([d], "rigid.fit", "error")))

    per_pair = {}
    for i, d in enumerate(est):
        for s in _named(d, "vehicle.transform"):
            per_pair[(i, s[3])] = per_pair.get((i, s[3]), 0.0) + _ms(s)
    m["vehicle.transform_ms_p50"] = _pct(list(per_pair.values()), 50)
    m["state_io.write_ms"] = _per_run(est, _total_ms("state_io.write"))

    m["pipeline.pair_ms_p50"] = _pct(pooled(est, "pipeline.pair"), 50)
    m["pipeline.pair_ms_p90"] = _pct(pooled(est, "pipeline.pair"), 90)
    # a window's latency once it closes: accumulate it, then run its pair
    frame = [_ms(a) + _ms(p) for d in est
             for a, p in zip(_named(d, "events.accumulate")[1:], _named(d, "pipeline.pair"))]
    m["pipeline.frame_ms_p50"] = _pct(frame, 50)
    m["pipeline.frame_ms_p90"] = _pct(frame, 90)
    m["pipeline.overhead_ms"] = _per_run(est, lambda d: d["traced_s"] * 1e3 - top_level_ms(d))
    m["pipeline.trace_overhead_pct"] = _per_run(
        measured, lambda d: (d["traced_s"] - d["plain_s"]) / d["plain_s"] * 100.0)
    m["pipeline.invalid_pair_frac"] = float(statistics.median(c["invalid_pair_frac"] for c in checks))

    m["synth.generate_s"] = _per_run(sim, _total_ms("synth.generate")) / 1e3
    m["synth.texture_ms_p50"] = _pct(pooled(sim, "synth.texture"), 50)
    m["synth.texture_calls"] = _per_run(sim, _count("synth.texture"))
    m["synth.make_events_ms_total"] = _per_run(sim, _total_ms("synth.make_events"))
    m["synth.events"] = _per_run(sim, lambda d: sum(attrs([d], "synth.generate", "events")))
    return m


# Runs in a separate small interpreter.  Linux carries the spawning process's
# peak RSS into a child's ru_maxrss at exec, so children started from this
# benchmark process (numpy, scipy and the reference arrays resident) would
# report its size instead of their own; children of this launcher start small.
_LAUNCHER = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    req = json.loads(line)
    t0 = time.perf_counter()
    with open(req["log"], "wb") as log:
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=log, stderr=subprocess.STDOUT)
        print(json.dumps({"pid": proc.pid}), flush=True)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
    print(json.dumps({"code": os.waitstatus_to_exitcode(status),
                      "wall_s": time.perf_counter() - t0,
                      "maxrss_kb": usage.ru_maxrss}), flush=True)
"""


class Launcher:
    """A small helper process that starts each child and reports its rusage."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", "-c", _LAUNCHER],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd, env, log: Path, timeout: float) -> dict:
        """Run one child to completion; returns its exit code, wall s and peak RSS."""
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd), "env": env,
                                          "log": str(log), "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        pid = json.loads(self.proc.stdout.readline())["pid"]
        try:
            return json.loads(self.proc.stdout.readline())
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Bench:
    """One run of one workload: set-up, timed reps, gates and metrics."""

    def __init__(self, root: Path, workload: Workload, seed: int, seconds: float):
        self.root = root
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.work = root / ".bench_out" / f"work-{workload.name}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.events = self.inputs / workload.events_file
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self._reference = 0.0
        # a fixed hash seed keeps each process's heap layout, and so its peak
        # RSS, the same from run to run; outputs never depend on it
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        **{k: str(BLAS_THREADS) for k in BLAS_ENV})
        self.env.pop("EVFLOW_SEED", None)  # it would override the generated scenario seed

    # -- processes -------------------------------------------------------
    def _child(self, argv: list[str], log_name: str):
        """Run one process to completion; returns (wall s, its peak RSS in MB)."""
        self.attempted += 1
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise GateError(f"{log_name}: no time left inside the {RUN_LIMIT_S:.0f} s run limit")
        log = self.work / f"{log_name}.log"
        done = self.launcher.run(argv, self.root, self.env, log, timeout)
        if done["code"] != 0:
            tail = log.read_text(errors="replace")[-400:]
            raise GateError(f"{log_name} exited {done['code']}: {tail}")
        return done["wall_s"], done["maxrss_kb"] / 1024.0

    def _cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "evflow.cli", *args]

    def _simulate_args(self, events: Path) -> list[str]:
        return ["simulate", str(self.work / "scenario.cfg"), "--events", str(events)]

    def _estimate_args(self, out: str) -> list[str]:
        return ["estimate", "--config", str(self.work / "run.cfg"),
                "--events", str(self.events), "--out-dir", out]

    def _traced(self, command: list[str], tag: str, first: str) -> dict:
        out = self.work / f"{tag}.spans.json"
        work = self.work / tag
        self._child([sys.executable, str(Path(__file__).with_name("tracer.py")),
                     "--src", str(self.root / "src"), "--out", str(out),
                     "--work", str(work), "--first", first, "--", *command], tag)
        doc = json.loads(out.read_text())
        doc["work"] = work
        wall = doc["traced_s"] * 1e3
        if abs(wall - top_level_ms(doc)) > COVERAGE_TOLERANCE * wall:
            raise GateError(f"{tag}: top-level spans cover {top_level_ms(doc):.1f} of "
                            f"{wall:.1f} ms traced wall time")
        return doc

    def _write_configs(self) -> None:
        (self.work / "scenario.cfg").write_text(self.w.scenario_text(self.seed))
        (self.work / "run.cfg").write_text(self.w.run_config_text())

    def _stream(self, path: Path, stream: dict | None) -> dict:
        """Count and digest one simulated stream; the same seed must repeat it."""
        now = {"events": count_events(path), "bytes": path.stat().st_size,
               "digest": _digest(path)}
        if stream is not None and now != stream:
            raise GateError(f"{path.name}: the stream differs between runs of one seed "
                            f"({now['events']} vs {stream['events']} events)")
        return now

    def _reps(self, one_rep, min_reps: int) -> list:
        """Repeat ``one_rep`` for the run's seconds, at least ``min_reps`` times."""
        out, t0 = [], time.perf_counter()
        while len(out) < min_reps or time.perf_counter() - t0 < self.seconds:
            t_rep = time.perf_counter()
            out.append(one_rep(len(out)))
            # leave room for the remaining checks inside the run limit
            if self.deadline - time.perf_counter() < 3 * (time.perf_counter() - t_rep):
                break
        return out

    # -- workloads ---------------------------------------------------------
    def run(self, trace: bool) -> tuple[dict, dict]:
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self.launcher = Launcher()
        try:
            metrics, sizes = self._traced_run() if trace else self._plain_run()
        except GateError as exc:
            self.failures.append(str(exc))
            metrics, sizes = {}, {}
        finally:
            self.launcher.close()
            shutil.rmtree(self.work, ignore_errors=True)
        if self.failures:
            metrics = {}
        return metrics, sizes

    def _host_scale(self) -> float:
        """Host-speed factor for the step since the previous reference timing.

        ``REFERENCE_S`` over the mean of the reference kernel's times just
        before and just after the step; the next step starts from this one's
        after-timing.
        """
        now = reference_s()
        scale = REFERENCE_S / ((self._reference + now) / 2)
        self.samples["reference_s"].append(now)
        self._reference = now
        return scale

    def _plain_run(self) -> tuple[dict, dict]:
        w = self.w
        setup_s, sim_rates, stream = [], [], None
        self.samples = {"reference_s": [], "raw_setup_s": [], "raw_rep_wall_s": []}
        reference_s()  # warm-up: first-call costs are not host speed
        self._reference = reference_s()
        for i in range(SETUP_REPS):
            t0 = time.perf_counter()
            self._write_configs()
            if w.measured == "estimate":
                wall, _ = self._child(self._cli(*self._simulate_args(self.events)), f"setup{i}")
            else:
                self._child([sys.executable, "-c", "import evflow.cli"], f"setup{i}")
            raw = time.perf_counter() - t0
            scale = self._host_scale()
            self.samples["raw_setup_s"].append(raw)
            setup_s.append(raw * scale)
            if w.measured == "estimate":
                stream = self._stream(self.events, stream)
                sim_rates.append(stream["events"] / (wall * scale))

        def estimate_rep(i):
            out = self.work / f"est{i}"
            wall, rss = self._child(self._cli(*self._estimate_args(str(out))), f"est{i}")
            return wall, rss, check_estimates(out, w)

        def simulate_rep(i):
            wall, rss = self._child(self._cli(*self._simulate_args(self.events)), f"sim{i}")
            return wall, rss, None

        def timed_rep(i):
            nonlocal stream
            wall, rss, check = (estimate_rep if w.measured == "estimate" else simulate_rep)(i)
            scale = self._host_scale()
            self.samples["raw_rep_wall_s"].append(wall)
            if w.measured == "simulate":
                stream = self._stream(self.events, stream)
                sim_rates.append(stream["events"] / (wall * scale))
            return wall * scale, rss, check

        reps = self._reps(timed_rep, MIN_REPS)
        if w.measured == "simulate":
            check_round_trip(self.events, w)
            _, _, check = estimate_rep("check")
        else:
            check = reps[0][2]
            if len({r[2]["digest"] for r in reps}) != 1:
                raise GateError("estimates.csv differs between reruns of one input")
        metrics = {
            "setup_s": statistics.median(setup_s),
            "frames_per_s": statistics.median(w.windows / r[0] for r in reps),
            "sim_events_per_s": statistics.median(sim_rates),
            "peak_rss_mb": statistics.median(r[1] for r in reps),
            "err_pct": check["err_pct"],
        }
        return metrics, {"events": stream["events"], "bytes": stream["bytes"],
                         "frames": w.windows, "reps": len(reps)}

    def _traced_run(self) -> tuple[dict, dict]:
        w = self.w
        self._write_configs()
        est_docs, sim_docs, checks = [], [], []

        def simulate_rep(i):
            doc = self._traced(self._simulate_args(Path("{out}") / w.events_file),
                               f"sim{i}", ("plain", "traced")[i % 2])
            plain, traced = (doc["work"] / m / w.events_file for m in ("plain", "traced"))
            stream = self._stream(plain, sim_docs[0]["stream"] if sim_docs else None)
            self._stream(traced, stream)
            doc["stream"] = stream
            shutil.copyfile(traced, self.events)
            shutil.rmtree(doc["work"])
            sim_docs.append(doc)
            return doc

        def estimate_rep(i):
            doc = self._traced(self._estimate_args("{out}"), f"est{i}", ("plain", "traced")[i % 2])
            plain, traced = (check_estimates(doc["work"] / m, w) for m in ("plain", "traced"))
            if plain["digest"] != traced["digest"]:
                raise GateError("estimates.csv differs between the plain and traced runs")
            shutil.rmtree(doc["work"])
            checks.append(traced)
            est_docs.append(doc)
            return doc

        if w.measured == "estimate":
            simulate_rep(0)
            measured = self._reps(estimate_rep, 1)
        else:
            measured = self._reps(simulate_rep, 1)
            check_round_trip(self.events, w)
            estimate_rep(0)
        stream = sim_docs[0]["stream"]
        return (layer_metrics(est_docs, sim_docs, measured, checks),
                {"events": stream["events"], "bytes": stream["bytes"],
                 "frames": w.windows, "reps": len(measured)})


def machine_record(seed: int, sizes: dict) -> dict:
    import scipy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "blas_threads": BLAS_THREADS, "seed": seed, "inputs": sizes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="evflow end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "evflow" / "cli.py").is_file():
        print(f"no evflow sources under {root / 'src'}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(root / "src"))

    bench = Bench(root, WORKLOADS[args.workload], args.seed, args.seconds)
    values, sizes = bench.run(bool(args.trace))
    if values and set(values) != set(declared):
        bench.failures.append(f"metrics {sorted(set(values) ^ set(declared))} "
                              "disagree with BENCHMARK.json")
        values = {}
    record = machine_record(args.seed, sizes)
    metrics = {k: {"value": float(values[k]), "unit": declared[k]["unit"]} for k in values}
    result = {"correct": not bench.failures,
              "attempted": max(bench.attempted, len(bench.failures)),
              "failed": len(bench.failures), "metrics": metrics}
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    (out / f"BENCH_{args.workload}{suffix}.json").write_text(json.dumps(
        {"workload": args.workload, "trace": args.trace, "machine": record,
         "failures": bench.failures, "samples": bench.samples, **result}, indent=2))
    for failure in bench.failures:
        print(f"gate failed: {failure}", file=sys.stderr)
    print(json.dumps({"machine": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # a terminated run still kills and reaps its running child (see Bench._child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
