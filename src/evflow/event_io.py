"""Readers and writers for the event CSV and EVT1 binary formats, and the
CSV table reader and writer that every CSV input (events, IMU, velocity)
and every CSV output goes through.

CSV: header ``t_us,x,y,p`` with one event per line, t_us a u64, p in {1,-1}.
Binary: ASCII magic ``EVT1`` followed by little-endian u16 width and u16
height, then packed records of (u64 t_us, u16 x, u16 y, i8 p).
Both readers validate the stream invariants on load, the only check a
stream gets: ``events.iter_frames`` counts what they return.
``load_events`` and ``write_events`` pick the format from the file suffix:
``.evt`` is EVT1, anything else CSV.

``spool_events`` keeps a stream made block by block (the simulator's) out
of memory, in an unlinked temporary file of EVT1 records.  The event
writers drop the mapped pages of each chunk they wrote, so a mapped stream
is written without becoming resident, and rename the file over its path
only after the last record: an EVT1 file holds no record count, so a write
cut short must not leave a shorter stream behind.
"""

from __future__ import annotations

import mmap
import os
import tempfile
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from itertools import islice, starmap
from pathlib import Path

import numpy as np

from .errors import EventBoundsError, InputFormatError, OutputError
from .events import EVENT_DTYPE, _release_pages, validate_events

BINARY_MAGIC = b"EVT1"
_HEADER_BYTES = 8  # magic plus u16 width and u16 height
# records per write of an events file, which bounds the CSV text held at once
# and the mapped pages a write passes before it drops them
_WRITE_CHUNK = 1 << 16
_CHECK_BLOCK = 1 << 18  # EVT1 records read per block when a file is validated on load
_RESCAN_LINES = 1 << 12  # rows per parse when a failed read looks for its bad line
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")  # names np.loadtxt decompresses
# parsed wide so that an x, y or p outside its field is caught before narrowing: the
# cast wraps silently, and not every numpy version allowed rejects it in loadtxt
_CSV_COLUMNS = np.dtype([("t_us", "u8"), ("x", "i8"), ("y", "i8"), ("p", "i8")])


def write_csv(path: str | Path, names: Sequence[str], blocks: Iterable[Iterable[tuple]]) -> None:
    """Write the header ``names`` joined by commas to ``path``, then each
    block of rows (tuples in ``names`` order) with one write.  Every value is
    written by ``str``: a float (Python or numpy float64) in its shortest
    round-trip form, an int or a string as it is."""
    with open(path, "w", newline="") as f:
        _write_rows(f, names, blocks)


def _write_rows(f, names: Sequence[str], blocks: Iterable[Iterable[tuple]]) -> None:
    line = ",".join(["{}"] * len(names)) + "\n"
    f.write(",".join(names) + "\n")
    for block in blocks:
        f.write("".join(starmap(line.format, block)))


def write_events_csv(path: str | Path, events: np.ndarray) -> None:
    with _replacing(path, "x", newline="") as f:
        _write_rows(f, _CSV_COLUMNS.names,
                    (zip(*(part[name].tolist() for name in _CSV_COLUMNS.names))
                     for part in _chunks(events)))


def _chunks(events: np.ndarray) -> Iterator[np.ndarray]:
    """``events`` in slices of ``_WRITE_CHUNK`` records; once the next slice
    is asked for, the mapped pages the last one passed are dropped."""
    for start in range(0, events.size, _WRITE_CHUNK):
        stop = min(start + _WRITE_CHUNK, events.size)
        yield events[start:stop]
        _release_pages(events, stop)


@contextmanager
def _replacing(path: str | Path, mode: str, **kwargs) -> Iterator:
    """A new file, opened with ``mode`` (an ``x`` mode) and ``kwargs`` at a
    unique name in the directory of ``path`` (of its target, for a
    symlink), which replaces that file once the block ends and is removed
    if the block raises.  ``open`` creates it, so the umask sets its
    permissions.  A device or a pipe at ``path`` cannot be replaced, and is
    opened and written as it is."""
    path = Path(path)
    if path.exists() and not path.is_file() and not path.is_dir():
        with open(path, mode.replace("x", "w"), **kwargs) as f:
            yield f
        return
    path = path.resolve()
    part = path.with_name(f"{path.name}.{os.urandom(6).hex()}.part")
    f = open(part, mode, **kwargs)
    try:
        with f:
            yield f
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def read_csv(path: str | Path, dtype: np.dtype) -> np.ndarray:
    """The rows of the CSV file at ``path`` as a 1-d array of the structured
    ``dtype``, one field per column: the header line is the field names,
    joined by commas.

    Empty lines are skipped.  An unreadable file, another header,
    undecodable bytes, a row with another field count, a value its field
    cannot hold (an integer out of range included) and a NaN or infinite
    float raise InputFormatError; it names the file and the first bad line,
    counting the header as line 1, and the column of a non-finite float.
    """
    header = ",".join(dtype.names)
    try:
        with open(path) as f:
            found = f.readline().strip()
            if found != header:
                raise InputFormatError(f"bad CSV header {found!r} in {path}; "
                                       f"expected {header!r}")
            # loadtxt warns on input without rows, so a body without one stops here
            if all(line == "\n" for line in f):
                return np.empty(0, dtype=dtype)
            # loadtxt parses a file it opens itself in chunks, not a line per call,
            # but it opens a name with a compression suffix through a decompressor
            f.seek(0)
            rows = _parse_rows(f if Path(path).suffix in _COMPRESSED_SUFFIXES else path,
                               dtype, 1)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise InputFormatError(f"cannot read {path}: {_bad_line(path, dtype) or exc}") from exc
    for name in (name for name in dtype.names if dtype[name].kind == "f"):
        bad = np.flatnonzero(~np.isfinite(rows[name]))
        if bad.size:
            raise row_error(path, int(bad[0]), f"has a non-finite {name}")
    return rows


def row_error(path: str | Path, row: int, message: str) -> InputFormatError:
    """``message`` about row ``row`` (from 0) of what ``read_csv`` returned
    for ``path``, after the row's file line: the header is line 1, and an
    empty line holds no row.  Only this error path counts lines."""
    with open(path) as f:
        lines = (n for n, line in enumerate(f, start=1) if n > 1 and line != "\n")
        return InputFormatError(f"cannot read {path}: line {next(islice(lines, row, None))} "
                                f"{message}")


def _parse_rows(source, dtype: np.dtype, skiprows: int) -> np.ndarray:
    return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                      skiprows=skiprows)


def _bad_line(path: str | Path, dtype: np.dtype) -> str | None:
    """``"line N: reason"`` for the first line of the CSV file at ``path``
    that does not decode or whose row does not parse as ``dtype`` (the
    header is line 1); None when every line reads.

    The error path alone rescans the file, ``_RESCAN_LINES`` rows per
    parse, and only a failing block is parsed again row by row.
    """
    def first_failure(block):
        try:
            _parse_rows([line for _, line in block], dtype, 0)
            return None
        except ValueError:
            pass
        for lineno, line in block:
            if line.count(",") + 1 != len(dtype.names):
                return (f"line {lineno}: {line.count(',') + 1} fields, "
                        f"expected {len(dtype.names)}")
            try:
                _parse_rows([line], dtype, 0)
            except ValueError as exc:  # numpy names the row of its one-line input
                return f"line {lineno}: " + str(exc).replace(" at row 0,", " in")
        return None

    with open(path, errors="surrogateescape") as f:
        block = []
        for lineno, line in enumerate(f, start=1):
            try:
                line.encode(f.encoding)
            except UnicodeEncodeError:
                return f"line {lineno}: bytes that are not valid {f.encoding}"
            if lineno > 1 and line != "\n":
                block.append((lineno, line))
            if len(block) == _RESCAN_LINES:
                found = first_failure(block)
                if found:
                    return found
                block = []
        return first_failure(block) if block else None


def load_events_csv(path: str | Path, width: int, height: int) -> np.ndarray:
    """The events of the CSV file at ``path``, checked for a ``width`` x ``height`` sensor."""
    rows = read_csv(path, _CSV_COLUMNS)
    for name in ("x", "y", "p"):  # t_us is parsed as the u8 it is kept as
        info = np.iinfo(EVENT_DTYPE[name])
        if rows.size and (rows[name].min() < info.min or rows[name].max() > info.max):
            raise EventBoundsError(f"event CSV {name} value outside the {info.dtype} range")
    ev = rows.astype(EVENT_DTYPE)
    validate_events(ev, width, height)
    return ev


def write_events_binary(path: str | Path, events: np.ndarray,
                        width: int, height: int) -> None:
    with _replacing(path, "xb") as f:
        f.write(BINARY_MAGIC + np.array([width, height], dtype="<u2").tobytes())
        for part in _chunks(events):
            f.write(np.ascontiguousarray(part, dtype=EVENT_DTYPE).data)


def load_events_binary(path: str | Path) -> tuple[np.ndarray, int, int]:
    """Read an EVT1 file; returns (events, width, height).

    The records are memory-mapped read-only, not copied: the returned array
    is a view of the file and cannot be written to.  They are validated here
    through buffered reads, so loading maps in no page of the file.
    """
    with open(path, "rb") as f:
        header = f.read(_HEADER_BYTES)
        if len(header) < _HEADER_BYTES or header[:4] != BINARY_MAGIC:
            raise InputFormatError("missing EVT1 magic in event binary")
        width, height = (int(v) for v in np.frombuffer(header[4:], dtype="<u2"))
        n, partial = divmod(os.fstat(f.fileno()).st_size - _HEADER_BYTES,
                            EVENT_DTYPE.itemsize)
        if partial:
            raise InputFormatError("event binary payload is not a whole number of records")
        _check_records(f, n, width, height)
        if not n:  # a zero-length mapping is an error
            return np.frombuffer(b"", dtype=EVENT_DTYPE), width, height
        mapping = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    return np.frombuffer(mapping, dtype=EVENT_DTYPE, offset=_HEADER_BYTES), width, height


@contextmanager
def _spooling() -> Iterator[None]:
    """Turn an OSError from the spool into OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot spool the event stream in {tempfile.gettempdir()}: "
                          f"{exc.strerror or exc}") from exc


def spool_events(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """The records of ``blocks`` (``EVENT_DTYPE`` arrays), in order, as one
    read-only array that views a file mapping, as ``load_events_binary``
    returns.

    Each block's bytes go to an unlinked temporary file as the block comes,
    so the stream is never held in memory; the file lives as long as the
    array.  A spool that cannot be created, written or mapped raises
    OutputError.
    """
    with _spooling():
        spool = tempfile.TemporaryFile()
    with spool:
        for block in blocks:
            with _spooling():
                spool.write(np.ascontiguousarray(block, dtype=EVENT_DTYPE).data)
            del block  # freed before the next block is made
        with _spooling():
            spool.flush()
            if not spool.tell():  # a zero-length mapping is an error
                return np.frombuffer(b"", dtype=EVENT_DTYPE)
            mapping = mmap.mmap(spool.fileno(), 0, access=mmap.ACCESS_READ)
    return np.frombuffer(mapping, dtype=EVENT_DTYPE)


def _check_records(f, n: int, width: int, height: int) -> None:
    """``validate_events`` over the ``n`` records of the open EVT1 file
    ``f``, read ``_CHECK_BLOCK`` records at a time.

    Each block is read with the record before it, which checks the order
    across the seam.  As in one check of the whole stream, an order error
    anywhere wins over a bounds error.
    """
    bounds_error = None
    for start in range(0, n, _CHECK_BLOCK):
        first = max(start - 1, 0)
        f.seek(_HEADER_BYTES + first * EVENT_DTYPE.itemsize)
        block = np.fromfile(f, dtype=EVENT_DTYPE, count=min(start + _CHECK_BLOCK, n) - first)
        try:
            validate_events(block, width, height, first_record=first)
        except EventBoundsError as exc:
            bounds_error = bounds_error or exc
    if bounds_error is not None:
        raise bounds_error


def load_events(path: str | Path, width: int, height: int) -> np.ndarray:
    """Read the event file at ``path`` for a width x height sensor.

    An unreadable file and an EVT1 header of another size raise
    InputFormatError.
    """
    if Path(path).suffix != ".evt":
        return load_events_csv(path, width, height)
    try:
        events, file_width, file_height = load_events_binary(path)
    except OSError as exc:
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
