"""Layer spans for one `evflow` command, recorded from outside the package.

The tracer replaces public functions at the module attributes the program
calls them through (``evflow.pipeline.compute_flow``,
``evflow.flow.polynomial_expansion``, ...) with wrappers that record a
span around each call, and puts the originals back afterwards.  The
program's own call path runs unchanged; nothing under ``src/`` is edited.

A span is ``[name, start_s, end_s, parent_index, attrs]``.  Spans are kept
in memory and written as JSON when the command ends.

Run as a script it executes one CLI command twice in this process, once
plain and once traced, each writing into its own output directory::

    python perfbench/tracer.py --src src --out spans.json --work DIR \\
        --first plain -- estimate --config run.cfg --events ev.evt --out-dir {out}

``{out}`` in the command is replaced by ``DIR/plain`` or ``DIR/traced``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path


def _path_bytes(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _frame_events(frame):
    return {"events": int(frame.event_total)}


def _valid_frac(field, args, kwargs):
    return {"valid_frac": float(field.valid.mean())}


def _correspondences(result, args, kwargs):
    return {"n": int(result[0].shape[0])}


def _ransac_inliers(result, args, kwargs):
    return {"inlier_frac": float(result[1].mean())}


def _closed_form(result, args, kwargs):
    # the closed-form fit uses every correspondence and is one estimate_rigid call
    return {"inlier_frac": 1.0, "estimate_rigid_calls": 1}


def _sim_events(result, args, kwargs):
    return {"events": int(result[0].size)}


# (module, attribute, span name, attrs from (result, args, kwargs), is generator)
WRAPS = (
    ("evflow.event_io", "load_events_binary", "event_io.load", _path_bytes, False),
    ("evflow.event_io", "load_events_csv", "event_io.load", _path_bytes, False),
    ("evflow.event_io", "write_events_binary", "event_io.write", None, False),
    ("evflow.event_io", "write_events_csv", "event_io.write", None, False),
    ("evflow.state_io", "write_velocity_csv", "state_io.write", None, False),
    ("evflow.pipeline", "iter_frames", "events.accumulate", _frame_events, True),
    ("evflow.pipeline", "process_frame_pair", "pipeline.pair", None, False),
    ("evflow.pipeline", "to_intensity", "events.intensity", None, False),
    ("evflow.pipeline", "compute_flow", "flow.compute", _valid_frac, False),
    ("evflow.flow", "polynomial_expansion", "flow.expand", None, False),
    ("evflow.pipeline", "subsample_flow", "flow.subsample", _correspondences, False),
    ("evflow.pipeline", "ransac_estimate", "rigid.fit", _ransac_inliers, False),
    ("evflow.pipeline", "estimate_rigid", "rigid.fit", _closed_form, False),
    ("evflow.rigid", "estimate_rigid", "rigid.estimate_rigid", None, False),
    ("evflow.pipeline", "to_camera_velocity", "vehicle.transform", None, False),
    ("evflow.pipeline", "transform_to_axle", "vehicle.transform", None, False),
    ("evflow.cli", "generate_events", "synth.generate", _sim_events, False),
    ("evflow.synth", "sample_texture", "synth.texture", None, False),
    ("evflow.synth", "make_events", "synth.make_events", None, False),
)

# spans with no parent in a command; together they must cover its wall time
TOP_LEVEL = ("event_io.load", "events.accumulate", "pipeline.pair",
             "state_io.write", "synth.generate", "event_io.write")


class Tracer:
    """Span recorder plus the install/restore of the function wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap_call(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4]["error"] = type(exc).__name__
                raise
            finally:
                self._close(rec)
            if attrs_of is not None:
                rec[4].update(attrs_of(result, args, kwargs))
            return result
        return wrapper

    def _wrap_generator(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    # the exhausted call yields no frame: not a span of its own
                    self._close(rec)
                    self.spans.pop()
                    return
                except BaseException as exc:
                    rec[4]["error"] = type(exc).__name__
                    self._close(rec)
                    raise
                self._close(rec)
                rec[4].update(attrs_of(item))
                yield item
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, attrs_of, is_gen in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)  # a missing attribute fails the traced run
            wrap = self._wrap_generator if is_gen else self._wrap_call
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrap(fn, name, attrs_of))

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original."""
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        ok = all(getattr(module, attr) is fn for module, attr, fn in self._saved)
        self._saved.clear()
        return ok


def _run_main(argv: list[str]) -> tuple[int, float]:
    from evflow.cli import main
    t0 = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the evflow package")
    parser.add_argument("--out", required=True, help="JSON file for the spans and wall times")
    parser.add_argument("--work", required=True, help="parent of the plain/ and traced/ outputs")
    parser.add_argument("--first", choices=("plain", "traced"), default="plain")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    sys.path.insert(0, args.src)
    import evflow.cli  # noqa: F401  imports stay outside both timed calls

    tracer = Tracer()
    walls, codes, restored, t_traced = {}, {}, True, 0.0
    order = ("plain", "traced") if args.first == "plain" else ("traced", "plain")
    for mode in order:
        out_dir = Path(args.work) / mode
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = [a.replace("{out}", str(out_dir)) for a in command]
        if mode == "traced":
            tracer.install()
            try:
                t_traced = time.perf_counter()
                codes[mode], walls[mode] = _run_main(argv)
            finally:
                restored = tracer.restore()
        else:
            codes[mode], walls[mode] = _run_main(argv)
    spans = [[n, s - t_traced, e - t_traced, p, a] for n, s, e, p, a in tracer.spans]
    Path(args.out).write_text(json.dumps({
        "plain_s": walls["plain"], "traced_s": walls["traced"],
        "exit_codes": codes, "restored": restored, "spans": spans}))
    return 0 if restored and not any(codes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
