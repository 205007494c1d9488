"""Readers and writers for the event CSV and EVT1 binary formats.

CSV: header ``t_us,x,y,p`` with one event per line, p in {1,-1}.
Binary: ASCII magic ``EVT1`` followed by little-endian u16 width and u16
height, then packed records of (u64 t_us, u16 x, u16 y, i8 p).
Both readers validate the stream invariants on load.  ``load_events`` and
``write_events`` pick the format from the file suffix: ``.evt`` is EVT1,
anything else CSV.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

from .errors import EventBoundsError, InputFormatError
from .events import EVENT_DTYPE, validate_events

CSV_HEADER = "t_us,x,y,p"
BINARY_MAGIC = b"EVT1"
_HEADER_BYTES = 8  # magic plus u16 width and u16 height
_CSV_CHUNK = 1 << 16  # rows formatted per write, which bounds the text held at once


def write_events_csv(path: str | Path, events: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for start in range(0, events.size, _CSV_CHUNK):
            part = events[start:start + _CSV_CHUNK]
            columns = (part[name].tolist() for name in ("t_us", "x", "y", "p"))
            f.write("\n".join(map("{},{},{},{}".format, *columns)) + "\n")


def load_events_csv(path: str | Path, width: int | None = None,
                    height: int | None = None) -> np.ndarray:
    with open(path, "r") as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise InputFormatError(f"bad event CSV header {header!r}; expected {CSV_HEADER!r}")
        body = f.read()
    if body.strip():
        try:
            raw = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2)
        except ValueError as exc:
            raise InputFormatError(f"unparsable event CSV row: {exc}") from exc
        if raw.shape[1] != 4:
            raise InputFormatError(f"event CSV rows need 4 fields, got {raw.shape[1]}")
    else:
        raw = np.empty((0, 4), dtype=np.int64)
    ev = np.empty(raw.shape[0], dtype=EVENT_DTYPE)
    for name, column in zip(EVENT_DTYPE.names, raw.T):
        # range-check before the narrowing cast, which would wrap silently
        info = np.iinfo(EVENT_DTYPE[name])
        if column.size and (column.min() < info.min or column.max() > info.max):
            raise EventBoundsError(f"event CSV {name} value outside the {info.dtype} range")
        ev[name] = column
    validate_events(ev, width, height)
    return ev


def write_events_binary(path: str | Path, events: np.ndarray,
                        width: int, height: int) -> None:
    header = BINARY_MAGIC + np.array([width, height], dtype="<u2").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(events, dtype=EVENT_DTYPE).data)


def load_events_binary(path: str | Path) -> tuple[np.ndarray, int, int]:
    """Read an EVT1 file; returns (events, width, height).

    The records are memory-mapped read-only, not copied: the returned array
    is a view of the file and cannot be written to.
    """
    with open(path, "rb") as f:
        header = f.read(_HEADER_BYTES)
        size = os.fstat(f.fileno()).st_size
    if len(header) < _HEADER_BYTES or header[:4] != BINARY_MAGIC:
        raise InputFormatError("missing EVT1 magic in event binary")
    width, height = (int(v) for v in np.frombuffer(header[4:], dtype="<u2"))
    n, partial = divmod(size - _HEADER_BYTES, EVENT_DTYPE.itemsize)
    if partial:
        raise InputFormatError("event binary payload is not a whole number of records")
    if n:
        ev = np.asarray(np.memmap(path, dtype=EVENT_DTYPE, mode="r",
                                  offset=_HEADER_BYTES, shape=(n,)))
    else:  # a zero-length mapping is an error
        ev = np.frombuffer(b"", dtype=EVENT_DTYPE)
    validate_events(ev, width, height)
    return ev, width, height


def load_events(path: str | Path, width: int, height: int) -> np.ndarray:
    """Read the event file at ``path`` for a width x height sensor.

    An unreadable file and an EVT1 header of another size raise
    InputFormatError.
    """
    try:
        if Path(path).suffix != ".evt":
            return load_events_csv(path, width, height)
        events, file_width, file_height = load_events_binary(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read events file {path}: {exc}") from exc
    if (file_width, file_height) != (width, height):
        raise InputFormatError(f"event file is {file_width}x{file_height} but the "
                               f"camera is {width}x{height}")
    return events


def write_events(path: str | Path, events: np.ndarray, width: int, height: int) -> None:
    if Path(path).suffix == ".evt":
        write_events_binary(path, events, width, height)
    else:
        write_events_csv(path, events)
