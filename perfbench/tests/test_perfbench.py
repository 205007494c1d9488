"""Tests of the benchmark itself: metric emission, gates and tracing fidelity.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

The smoke runs use every workload at full size with one set-up and one
timed rep, so the module takes one to two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_workload_once():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in SPEC["end_to_end"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_declared_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "MIN_REPS", 1)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    machine = json.loads(lines[-2])["machine"]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert m["better"] in ("higher", "lower")
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and np.isfinite(got["value"])
    assert machine["seed"] == 3 and machine["inputs"]["frames"] == WORKLOADS[workload].windows
    assert machine["numba_importable"] in (True, False)
    assert 1 <= machine["blas_threads"] <= machine["nproc"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "disk_sparse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _write_estimates(out: Path, rows, timings=None):
    out.mkdir(parents=True, exist_ok=True)
    lines = ["t_s,v_lon,v_lat,omega,omega_source,n_inliers,inlier_fraction,valid"]
    lines += [f"{t!r},0.0,0.0,{w!r},flow,10,1.0,{flag}" for t, w, flag in rows]
    (out / "estimates.csv").write_text("\n".join(lines) + "\n")
    if timings is not None:
        (out / "timings.json").write_text(json.dumps(timings))


def _disk_rows(omega=37.70):
    w = WORKLOADS["disk_sparse"]
    t = (np.arange(w.windows) + 0.5) * w.window_us * 1e-6
    return [(float(t[0]), 0.0, "false")] + [(float(ti), omega, "true") for ti in t[1:]]


def test_estimate_gate_passes_an_exact_run(tmp_path):
    rows = _disk_rows()
    _write_estimates(tmp_path, rows, {"frames_in": len(rows), "frames_valid": len(rows) - 1,
                                      "frames_invalid": 1})
    info = run.check_estimates(tmp_path, WORKLOADS["disk_sparse"])
    assert info["err_pct"] == pytest.approx(0.0, abs=1e-9)
    assert info["invalid_pair_frac"] == 0.0


@pytest.mark.parametrize("corrupt", ["accuracy", "missing_row", "bad_flag", "accounting", "nan"])
def test_estimate_gate_fires_on_corrupted_output(tmp_path, corrupt):
    rows = _disk_rows(omega=38.2 if corrupt == "accuracy" else 37.70)
    timings = None
    if corrupt == "missing_row":
        rows = rows[:-1]
    elif corrupt == "bad_flag":
        rows[3] = (rows[3][0], rows[3][1], "yes")
    elif corrupt == "accounting":
        timings = {"frames_in": len(rows), "frames_valid": len(rows), "frames_invalid": 0}
    elif corrupt == "nan":
        rows[2] = (rows[2][0], float("nan"), "true")
    _write_estimates(tmp_path, rows, timings)
    with pytest.raises(run.GateError):
        run.check_estimates(tmp_path, WORKLOADS["disk_sparse"])


def _tiny_stream(path: Path, width: int, height: int):
    from evflow import event_io
    from evflow.events import make_events
    rng = np.random.default_rng(0)
    n = 500
    ev = make_events(np.sort(rng.integers(0, 10_000, n)), rng.integers(0, width, n),
                     rng.integers(0, height, n), rng.choice([-1, 1], n))
    event_io.write_events_binary(path, ev, width, height)


def test_round_trip_gate_accepts_a_clean_stream(tmp_path):
    w = WORKLOADS["sim_drive"]
    path = tmp_path / "events.evt"
    _tiny_stream(path, *w.size)
    run.check_round_trip(path, w)
    assert run.count_events(path) == 500


@pytest.mark.parametrize("corrupt", ["truncated", "pixel_out_of_range", "bad_magic"])
def test_round_trip_gate_fires_on_corrupted_stream(tmp_path, corrupt):
    w = WORKLOADS["sim_drive"]
    path = tmp_path / "events.evt"
    _tiny_stream(path, *w.size)
    blob = bytearray(path.read_bytes())
    if corrupt == "truncated":
        blob = blob[:-3]
    elif corrupt == "pixel_out_of_range":
        blob[8 + 8:8 + 10] = (60_000).to_bytes(2, "little")  # first record's x
    else:
        blob[:4] = b"EVT0"
    path.write_bytes(bytes(blob))
    with pytest.raises(run.GateError):
        run.check_round_trip(path, w)


def test_stream_gate_fires_when_a_seed_does_not_repeat(tmp_path):
    bench = run.Bench(ROOT, WORKLOADS["sim_drive"], seed=1, seconds=0)
    path = tmp_path / "events.evt"
    _tiny_stream(path, *WORKLOADS["sim_drive"].size)
    first = bench._stream(path, None)
    assert bench._stream(path, first) == first
    blob = bytearray(path.read_bytes())
    blob[8] ^= 1  # first timestamp's low bit
    path.write_bytes(bytes(blob))
    with pytest.raises(run.GateError):
        bench._stream(path, first)


def test_tracer_restores_every_wrapper():
    import importlib
    originals = [getattr(importlib.import_module(m), a) for m, a, *_ in tracer.WRAPS]
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = [getattr(importlib.import_module(m), a) for m, a, *_ in tracer.WRAPS]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        assert t.restore()
    assert [getattr(importlib.import_module(m), a) for m, a, *_ in tracer.WRAPS] == originals


def test_traced_estimate_is_byte_identical_and_covered(tmp_path):
    from evflow.cli import main
    w = WORKLOADS["disk_sparse"]
    events = tmp_path / "events.evt"
    _tiny_stream(events, *w.size)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(w.run_config_text())
    argv = lambda out: ["estimate", "--config", str(cfg), "--events", str(events),
                        "--out-dir", str(tmp_path / out)]
    assert main(argv("plain")) == 0
    t = tracer.Tracer()
    t.install()
    try:
        assert main(argv("traced")) == 0
    finally:
        assert t.restore()
    plain, traced = ((tmp_path / d / "estimates.csv").read_bytes() for d in ("plain", "traced"))
    assert plain == traced
    names = {s[0] for s in t.spans}
    assert {"event_io.load", "events.accumulate", "pipeline.pair", "state_io.write",
            "flow.compute", "flow.expand", "rigid.fit", "rigid.estimate_rigid"} <= names
    top = [s for s in t.spans if s[3] == -1]
    assert top and all(s[0] in tracer.TOP_LEVEL for s in top)
    for name, start, end, parent, _ in t.spans:
        assert end >= start
        if parent >= 0:
            p = t.spans[parent]
            assert p[1] <= start and end <= p[2]
