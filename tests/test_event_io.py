import errno
import mmap
import os
import re
import stat
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflow import event_io, state_io
from evflow.errors import EventBoundsError, EventOrderError, InputFormatError, OutputError
from evflow.event_io import (load_events_binary, load_events_csv, read_csv,
                             write_events_binary, write_events_csv)
from evflow.events import (EVENT_DTYPE, AccumulationConfig, _release_pages, iter_frames,
                           make_events, validate_events)
from helpers import add_at_reference


@pytest.fixture
def sample_events():
    rng = np.random.default_rng(3)
    n = 500
    return make_events(np.sort(rng.integers(0, 10_000, n)), rng.integers(0, 346, n),
                       rng.integers(0, 260, n), rng.choice([-1, 1], n))


def reference_write_csv(path, events):
    """The CSV writer as a per-row Python loop: the byte oracle."""
    with open(path, "w", newline="") as f:
        f.write("t_us,x,y,p\n")
        for t, x, y, p in zip(events["t_us"], events["x"], events["y"], events["p"]):
            f.write(f"{int(t)},{int(x)},{int(y)},{int(p)}\n")


def reference_write_binary(path, events, width, height):
    """The EVT1 writer through a full ``tobytes`` copy: the byte oracle."""
    with open(path, "wb") as f:
        f.write(b"EVT1" + np.array([width, height], dtype="<u2").tobytes())
        f.write(events.astype(EVENT_DTYPE, copy=False).tobytes())


@pytest.mark.parametrize("pick", [lambda ev: ev[::3], lambda ev: ev[:0], lambda ev: ev[7:8],
                                  lambda ev: ev, lambda ev: event_io.spool_events([ev])],
                         ids=["strided", "empty", "one", "all", "spooled"])
def test_writers_match_the_reference_bytes(tmp_path, monkeypatch, sample_events, pick):
    # a write chunk shorter than the stream, so records cross chunk boundaries
    monkeypatch.setattr(event_io, "_WRITE_CHUNK", 7)
    events = pick(sample_events)
    ours, ref = tmp_path / "ours", tmp_path / "ref"
    write_events_csv(ours, events)
    reference_write_csv(ref, events)
    assert ours.read_bytes() == ref.read_bytes()
    write_events_binary(ours, events, 346, 260)
    reference_write_binary(ref, events, 346, 260)
    assert ours.read_bytes() == ref.read_bytes()


def test_csv_round_trip(tmp_path, sample_events):
    path = tmp_path / "events.csv"
    write_events_csv(path, sample_events)
    back = load_events_csv(path, 346, 260)
    assert np.array_equal(back, sample_events)


def test_csv_empty_round_trip(tmp_path):
    path = tmp_path / "events.csv"
    write_events_csv(path, make_events([], [], [], []))
    assert load_events_csv(path, 346, 260).size == 0


def test_csv_round_trip_full_u64_range(tmp_path):
    path = tmp_path / "events.csv"
    events = make_events([0, 2**63, 2**64 - 1], [0, 1, 2], [0, 1, 2], [1, -1, 1])
    write_events_csv(path, events)
    assert np.array_equal(load_events_csv(path, 346, 260), events)


def test_csv_t_us_beyond_u64(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(f"t_us,x,y,p\n{2**64},2,3,1\n")
    with pytest.raises(InputFormatError, match="events.csv"):
        load_events_csv(path, 346, 260)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("time,x,y,pol\n1,2,3,1\n")
    with pytest.raises(InputFormatError):
        load_events_csv(path, 346, 260)


def test_csv_bad_polarity(tmp_path):
    path = tmp_path / "events.csv"
    for p in (0, 257):  # 257 would wrap to 1 in the int8 field
        path.write_text(f"t_us,x,y,p\n1,2,3,{p}\n")
        with pytest.raises(EventBoundsError):
            load_events_csv(path, 346, 260)


def test_csv_non_monotone(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("t_us,x,y,p\n10,2,3,1\n5,2,3,1\n")
    with pytest.raises(EventOrderError):
        load_events_csv(path, 346, 260)


def test_csv_bounds_checked_on_load(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("t_us,x,y,p\n1,400,3,1\n")
    with pytest.raises(EventBoundsError):
        load_events_csv(path, 346, 260)
    for x in (65541, -1):  # would wrap to x = 5 or 65535 in the uint16 field
        path.write_text(f"t_us,x,y,p\n1,{x},3,1\n")
        with pytest.raises(EventBoundsError, match="uint16"):
            load_events_csv(path, 346, 260)


# each CSV input schema with rows of it; the velocity schema has object columns
CSV_ROWS = {
    "events": (event_io._CSV_COLUMNS, ["1,2,3,1", "5,0,1,-1", "18446744073709551615,4,4,1"]),
    "imu": (state_io._IMU_COLUMNS, ["0,0.5", "10,-1e-3", "20,2"]),
    "velocity": (state_io._VELOCITY_COLUMNS, ["0.0,1.0,0.0,0.0,flow,10,1.0,true",
                                             "0.1,1.5,0.25,-0.5, imu ,0,0.0,false",
                                             "0.2,-2.0,0.0,1e-3,truth,3,0.5,true"]),
}
# a file's text after its header line, from the rows
CSV_LAYOUTS = {
    "blank_lines": lambda rows: "\n" + "\n\n".join(rows) + "\n\n\n",
    "crlf": lambda rows: "\r\n".join(rows) + "\r\n",
    "no_final_newline": lambda rows: "\n".join(rows),
}


@pytest.mark.parametrize("layout", sorted(CSV_LAYOUTS))
@pytest.mark.parametrize("kind", sorted(CSV_ROWS))
def test_read_csv_parses_each_layout_as_its_lines(tmp_path, kind, layout):
    dtype, rows = CSV_ROWS[kind]
    path = tmp_path / f"{kind}.csv"
    newline = "\r\n" if layout == "crlf" else "\n"
    path.write_bytes((",".join(dtype.names) + newline + CSV_LAYOUTS[layout](rows)).encode())
    lines = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    got = read_csv(path, dtype)
    assert got.dtype == dtype and got.tolist() == lines.tolist()


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_read_csv_reads_plain_text_under_a_compression_suffix(tmp_path, sample_events, suffix):
    # np.loadtxt would decompress a path by its suffix; the file is read as it is
    path = tmp_path / f"events.csv{suffix}"
    write_events_csv(path, sample_events)
    assert np.array_equal(load_events_csv(path, 346, 260), sample_events)


def test_binary_round_trip(tmp_path, sample_events):
    path = tmp_path / "events.evt"
    write_events_binary(path, sample_events, 346, 260)
    back, width, height = load_events_binary(path)
    assert (width, height) == (346, 260)
    assert np.array_equal(back, sample_events)


def test_binary_header_only_is_empty(tmp_path):
    path = tmp_path / "events.evt"
    write_events_binary(path, make_events([], [], [], []), 346, 260)
    back, width, height = load_events_binary(path)
    assert (width, height) == (346, 260)
    assert back.dtype == EVENT_DTYPE and back.size == 0


def test_binary_loads_read_only_and_writes_back_identically(tmp_path, sample_events):
    path = tmp_path / "events.evt"
    write_events_binary(path, sample_events, 346, 260)
    back, width, height = load_events_binary(path)
    assert not back.flags.writeable
    with pytest.raises(ValueError):
        back["x"][0] = 1
    frames = list(iter_frames(back, AccumulationConfig(window_us=1000, sensor_width=width,
                                                       sensor_height=height)))
    assert sum(f.event_total for f in frames) == sample_events.size
    copy = tmp_path / "copy.evt"
    write_events_binary(copy, back, width, height)
    assert copy.read_bytes() == path.read_bytes()


def test_binary_magic_rejected(tmp_path):
    path = tmp_path / "events.evt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(InputFormatError):
        load_events_binary(path)


@pytest.mark.parametrize("blob", [b"", b"EVT1\x5a\x01"])
def test_binary_shorter_than_header_rejected(tmp_path, blob):
    path = tmp_path / "events.evt"
    path.write_bytes(blob)
    with pytest.raises(InputFormatError):
        load_events_binary(path)


def test_binary_truncated_payload(tmp_path, sample_events):
    path = tmp_path / "events.evt"
    write_events_binary(path, sample_events, 346, 260)
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(InputFormatError):
        load_events_binary(path)


def test_binary_validates_bounds(tmp_path):
    ev = make_events([1], [345], [259], [1])
    path = tmp_path / "events.evt"
    write_events_binary(path, ev, 100, 100)
    with pytest.raises(EventBoundsError):
        load_events_binary(path)


def test_binary_validates_in_blocks(tmp_path, monkeypatch, sample_events):
    monkeypatch.setattr(event_io, "_CHECK_BLOCK", 7)
    path = tmp_path / "events.evt"
    write_events_binary(path, sample_events, 346, 260)
    assert np.array_equal(load_events_binary(path)[0], sample_events)
    # a decrease from the last record of one block to the first of the next
    ev = make_events([0, 1, 2, 3, 4, 5, 6, 5, 8, 9], [0] * 10, [0] * 10, [1] * 10)
    write_events_binary(path, ev, 346, 260)
    with pytest.raises(EventOrderError, match="at record 7$"):
        load_events_binary(path)
    # an order error in a later block wins over a bounds error in an earlier one
    ev["x"][1] = 400
    write_events_binary(path, ev, 346, 260)
    with pytest.raises(EventOrderError, match="at record 7$"):
        load_events_binary(path)
    ev["t_us"][7] = 7
    write_events_binary(path, ev, 346, 260)
    with pytest.raises(EventBoundsError):
        load_events_binary(path)


@given(st.lists(st.tuples(st.integers(0, 400), st.integers(0, 17), st.integers(0, 13),
                          st.sampled_from([1, -1, 1, -1, 0, 2, -128])), max_size=40),
       st.integers(1, 150), st.sampled_from(["sorted", "one_back", "unsorted"]),
       st.integers(0, 39), st.integers(1, 400))
@settings(max_examples=300, deadline=None)
def test_loaders_reject_what_validate_events_rejects(rows, window, order, k, back):
    # a 16x12 sensor: x and y are drawn past it, p off {1, -1}, times unsorted
    # or sorted but for one record set ``back`` earlier, which may sit at a seam
    if order != "unsorted":
        rows.sort(key=lambda r: r[0])
    if order == "one_back" and rows:
        k %= len(rows)
        rows[k] = (max(rows[k][0] - back, 0), *rows[k][1:])
    ev = make_events(*(list(col) for col in zip(*rows))) if rows else make_events([], [], [], [])
    cfg = AccumulationConfig(window_us=window, sensor_width=16, sensor_height=12)
    try:
        validate_events(ev, 16, 12)
        want = None
    except InputFormatError as exc:
        want = exc
    # EVT1 records are checked three at a time, so rows cross block seams
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(event_io, "_CHECK_BLOCK", 3):
        for name in ("events.evt", "events.csv"):
            path = Path(tmp) / name
            event_io.write_events(path, ev, 16, 12)
            if want is not None:
                with pytest.raises(type(want)) as got:
                    event_io.load_events(path, 16, 12)
                if isinstance(want, EventOrderError):  # names the same record
                    assert str(got.value) == str(want)
                continue
            frames = list(iter_frames(event_io.load_events(path, 16, 12), cfg))
            reference = add_at_reference(ev, cfg, rows[0][0], None) if rows else []
            assert len(frames) == len(reference)
            for f, (start, end, pos, neg, total) in zip(frames, reference):
                assert (f.t_start_us, f.t_end_us, f.event_total) == (start, end, total)
                assert np.array_equal(f.counts, np.minimum(pos + neg, cfg.count_cap))


def mapped_rss_kb() -> int | None:
    """This process's resident file-backed pages in kB, None where the
    kernel does not report them."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    fields = dict(re.findall(r"^(RssFile|RssShmem):\s+(\d+) kB", status, re.M))
    return sum(map(int, fields.values())) if "RssFile" in fields else None


@pytest.mark.skipif(mapped_rss_kb() is None or not hasattr(mmap, "MADV_DONTNEED"),
                    reason="needs RssFile in /proc/self/status and MADV_DONTNEED")
def test_binary_frames_keep_one_window_resident(tmp_path):
    # 5M records (65 MB) in 16 windows of 4 MB
    n, width, height = 5_000_000, 346, 260
    i = np.arange(n)
    ev = np.empty(n, dtype=EVENT_DTYPE)
    ev["t_us"] = i // 8
    ev["x"] = i % width
    ev["y"] = i // width % height
    ev["p"] = 1
    path = tmp_path / "long.evt"
    write_events_binary(path, ev, width, height)
    del ev, i
    before = mapped_rss_kb()
    events, _, _ = load_events_binary(path)
    growth, total = mapped_rss_kb() - before, 0
    for frame in iter_frames(events, AccumulationConfig(window_us=40_000, sensor_width=width,
                                                        sensor_height=height)):
        total += frame.event_total
        growth = max(growth, mapped_rss_kb() - before)
    assert total == n
    assert growth < 16 * 1024, f"file pages resident grew by {growth} kB"


@pytest.mark.parametrize("drop", [True, False], ids=["madvise", "no_madvise"])
def test_mapped_frames_equal_in_memory_frames(tmp_path, monkeypatch, drop):
    if not drop:
        monkeypatch.delattr(mmap, "MADV_DONTNEED", raising=False)
    rng = np.random.default_rng(5)
    n = 200_000  # 2.6 MB, so each window spans many pages
    ev = make_events(np.sort(rng.integers(0, 100_000, n)), rng.integers(0, 346, n),
                     rng.integers(0, 260, n), rng.choice([-1, 1], n))
    path = tmp_path / "events.evt"
    write_events_binary(path, ev, 346, 260)
    mapped, width, height = load_events_binary(path)
    cfg = AccumulationConfig(window_us=7_000, sensor_width=width, sensor_height=height)
    want = list(iter_frames(ev, cfg))
    # the second pass reads pages the first one dropped
    for _ in range(2):
        got = list(iter_frames(mapped, cfg))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.event_total == b.event_total
            assert np.array_equal(a.counts, b.counts)
    # the header-only file maps nothing, and an array in memory has no pages to drop
    write_events_binary(path, make_events([], [], [], []), 346, 260)
    empty, _, _ = load_events_binary(path)
    frames = list(iter_frames(empty, cfg, t_start_us=0, t_end_us=10_000))
    assert len(frames) == 2 and all(f.event_total == 0 for f in frames)
    _release_pages(empty, 0)
    _release_pages(ev, n)


def test_spool_is_the_blocks_as_a_read_only_mapping(sample_events):
    blocks = [sample_events[:100], sample_events[100:100], sample_events[100:]]
    spooled = event_io.spool_events(iter(blocks))
    assert spooled.dtype == EVENT_DTYPE and spooled.tobytes() == sample_events.tobytes()
    assert not spooled.flags.writeable
    assert isinstance(spooled.base, memoryview) and isinstance(spooled.base.obj, mmap.mmap)
    # no records map nothing: a zero-length mapping is an error
    for blocks in ([], [sample_events[:0]]):
        empty = event_io.spool_events(blocks)
        assert empty.dtype == EVENT_DTYPE and empty.size == 0


@pytest.mark.skipif(mapped_rss_kb() is None or not hasattr(mmap, "MADV_DONTNEED"),
                    reason="needs RssFile in /proc/self/status and MADV_DONTNEED")
def test_release_pages_drops_a_spools_pages():
    n = 800_000  # 10.4 MB
    ev = np.zeros(n, dtype=EVENT_DTYPE)
    ev["t_us"] = np.arange(n)
    spooled = event_io.spool_events([ev[:n // 2], ev[n // 2:]])
    before = mapped_rss_kb()
    assert int(spooled["t_us"].sum()) == n * (n - 1) // 2  # maps in every page
    touched = mapped_rss_kb()
    _release_pages(spooled, n)
    assert touched - before > 9 * 1024 and mapped_rss_kb() - before < 1024
    assert spooled.tobytes() == ev.tobytes()  # a dropped page reads back from the file


def test_a_spool_that_cannot_be_created_raises_output_error(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    with pytest.raises(OutputError, match="^cannot spool the event stream in .*missing: "):
        event_io.spool_events([make_events([1], [2], [3], [1])])


@pytest.mark.parametrize("name", ["events.evt", "events.csv"])
@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
def test_a_write_cut_short_leaves_the_target_as_it_was(tmp_path, monkeypatch, sample_events,
                                                       name, existing):
    path = tmp_path / name
    if existing:
        path.write_bytes(b"earlier bytes")

    def cut_short(records):
        yield records[:7]
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(event_io, "_chunks", cut_short)
    with pytest.raises(OSError, match="No space left"):
        event_io.write_events(path, sample_events, 346, 260)
    assert list(tmp_path.iterdir()) == ([path] if existing else [])
    if existing:
        assert path.read_bytes() == b"earlier bytes"


@pytest.mark.parametrize("name", ["events.evt", "events.csv"])
def test_a_written_file_takes_its_mode_from_the_umask(tmp_path, sample_events, name):
    path = tmp_path / name
    path.write_bytes(b"")
    path.chmod(0o600)
    old = os.umask(0o027)
    try:
        event_io.write_events(path, sample_events, 346, 260)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("name", ["events.evt", "events.csv"])
def test_a_symlink_is_written_through_and_a_device_in_place(tmp_path, sample_events, name):
    target, link = tmp_path / "target" / name, tmp_path / name
    target.parent.mkdir()
    link.symlink_to(target)
    event_io.write_events(link, sample_events, 346, 260)
    assert link.is_symlink() and sorted(tmp_path.rglob("*")) == [link, target.parent, target]
    assert np.array_equal(event_io.load_events(target, 346, 260), sample_events)
    if Path(os.devnull).is_char_device():
        if name.endswith(".evt"):
            write_events_binary(os.devnull, sample_events, 346, 260)
        else:
            write_events_csv(os.devnull, sample_events)
        assert Path(os.devnull).is_char_device()
        assert not list(Path(os.devnull).parent.glob(Path(os.devnull).name + ".*.part"))


@pytest.mark.parametrize("name", ["events.evt", "events.csv", "events"])
def test_suffix_picks_the_format(tmp_path, sample_events, name):
    path = tmp_path / name
    event_io.write_events(path, sample_events, 346, 260)
    assert path.read_bytes().startswith(b"EVT1" if name.endswith(".evt") else b"t_us,")
    np.testing.assert_array_equal(event_io.load_events(path, 346, 260), sample_events)


def test_load_events_checks_the_binary_size(tmp_path, sample_events):
    path = tmp_path / "events.evt"
    write_events_binary(path, sample_events, 346, 260)
    with pytest.raises(InputFormatError, match="346x260"):
        event_io.load_events(path, 640, 480)


@pytest.mark.parametrize("name", ["absent.csv", "absent.evt", "folder.csv", "folder.evt",
                                  "binary.csv"])
def test_load_events_unreadable_is_a_format_error(tmp_path, name):
    (tmp_path / "folder.csv").mkdir()
    (tmp_path / "folder.evt").mkdir()
    (tmp_path / "binary.csv").write_bytes(b"\xff\xfe\x00\x01")
    with pytest.raises(InputFormatError):
        event_io.load_events(tmp_path / name, 346, 260)
