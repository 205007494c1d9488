import numpy as np
import pytest

from evflow import event_io
from evflow.errors import EventBoundsError, EventOrderError, InputFormatError
from evflow.event_io import (load_events_binary, load_events_csv,
                             write_events_binary, write_events_csv)
from evflow.events import EVENT_DTYPE, AccumulationConfig, accumulate, make_events


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
                                  lambda ev: ev], ids=["strided", "empty", "one", "all"])
def test_writers_match_the_reference_bytes(tmp_path, monkeypatch, sample_events, pick):
    # a row chunk shorter than the stream, so rows cross chunk boundaries
    monkeypatch.setattr(event_io, "_CSV_CHUNK", 7)
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
    assert load_events_csv(path).size == 0


def test_csv_round_trip_full_u64_range(tmp_path):
    path = tmp_path / "events.csv"
    events = make_events([0, 2**63, 2**64 - 1], [0, 1, 2], [0, 1, 2], [1, -1, 1])
    write_events_csv(path, events)
    assert np.array_equal(load_events_csv(path, 346, 260), events)


def test_csv_t_us_beyond_u64(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(f"t_us,x,y,p\n{2**64},2,3,1\n")
    with pytest.raises(InputFormatError, match="events.csv"):
        load_events_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("time,x,y,pol\n1,2,3,1\n")
    with pytest.raises(InputFormatError):
        load_events_csv(path)


def test_csv_bad_polarity(tmp_path):
    path = tmp_path / "events.csv"
    for p in (0, 257):  # 257 would wrap to 1 in the int8 field
        path.write_text(f"t_us,x,y,p\n1,2,3,{p}\n")
        with pytest.raises(EventBoundsError):
            load_events_csv(path)


def test_csv_non_monotone(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("t_us,x,y,p\n10,2,3,1\n5,2,3,1\n")
    with pytest.raises(EventOrderError):
        load_events_csv(path)


def test_csv_bounds_checked_on_load(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("t_us,x,y,p\n1,400,3,1\n")
    with pytest.raises(EventBoundsError):
        load_events_csv(path, width=346, height=260)
    load_events_csv(path)  # without dimensions only stream-level checks apply
    path.write_text("t_us,x,y,p\n1,65541,3,1\n")  # would wrap to x = 5 in the uint16 field
    for dims in ({"width": 346, "height": 260}, {}):
        with pytest.raises(EventBoundsError):
            load_events_csv(path, **dims)


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
    frames = accumulate(back, AccumulationConfig(window_us=1000, sensor_width=width,
                                                 sensor_height=height))
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
