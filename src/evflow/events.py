"""Event streams, fixed-window accumulation, and the motion-blur budget.

An event stream is a numpy structured array with fields ``t_us`` (uint64
microseconds, non-decreasing), ``x``/``y`` (uint16 pixel coordinates) and
``p`` (int8 polarity, +1 or -1).  Accumulation bins a stream into
consecutive fixed-duration windows, counting the events of either polarity
per pixel in one clipped histogram per window.
"""

from __future__ import annotations

import bisect
import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from .errors import EventBoundsError, EventOrderError

EVENT_DTYPE = np.dtype([
    ("t_us", "<u8"),
    ("x", "<u2"),
    ("y", "<u2"),
    ("p", "<i1"),
])
_U64_END = 2 ** 64  # one past the largest uint64 timestamp
_GALLOP = 4096  # first step, in records, of the search for a window's end
# Largest sensor, in pixels: over three times a 1280x960 event sensor.  Each
# window holds one int64 count per pixel, 32 MB at this size.
MAX_SENSOR_PX = 2 ** 22


def make_events(t_us, x, y, p) -> np.ndarray:
    """Assemble parallel sequences into an event array (no validation)."""
    t_us = np.asarray(t_us, dtype=np.uint64)
    ev = np.empty(t_us.shape[0], dtype=EVENT_DTYPE)
    ev["t_us"] = t_us
    ev["x"] = np.asarray(x, dtype=np.uint16)
    ev["y"] = np.asarray(y, dtype=np.uint16)
    ev["p"] = np.asarray(p, dtype=np.int8)
    return ev


def validate_events(events: np.ndarray, width: int, height: int,
                    first_record: int = 0) -> None:
    """Check polarity domain, time order and pixel bounds for a ``width`` x ``height`` sensor.

    Raises EventOrderError on a non-monotone timestamp and EventBoundsError
    on an out-of-range pixel.  ``events`` may be a part of a stream that
    starts at its record ``first_record``; an order error names the record
    counted from the stream's start.  Its records are ``EVENT_DTYPE``'s, as
    both ``event_io`` loaders read them.
    """
    if events.size == 0:
        return
    t = events["t_us"]
    # compared in uint64, so a step past 2**63 is an increase, not a wrap
    back = t[1:] < t[:-1]
    if back.any():
        raise EventOrderError("timestamps decrease at record "
                              f"{first_record + int(np.argmax(back)) + 1}")
    # abs(-128) stays -128 in int8, so that value is rejected too
    if np.any(np.abs(events["p"]) != 1):
        raise EventBoundsError("polarity values must be +1 or -1")
    if int(events["x"].max()) >= width:
        raise EventBoundsError(f"event x out of range for width {width}")
    if int(events["y"].max()) >= height:
        raise EventBoundsError(f"event y out of range for height {height}")


@dataclass(frozen=True)
class AccumulationConfig:
    """Fixed-time accumulation parameters; the sensor sides are a ``CameraModel``'s."""

    window_us: int
    sensor_width: int
    sensor_height: int
    count_cap: int = 15

    def __post_init__(self):
        if not 0 < self.window_us < 2 ** 64:  # event times are u64 microseconds
            raise ValueError("accumulation window must lie in (0, 2**64) us")
        # the clipped counts are held in int32
        if not 1 <= self.count_cap <= 2 ** 30 - 1:
            raise ValueError("count_cap must lie in [1, 2**30 - 1]")


@dataclass(frozen=True)
class EventFrame:
    """The event count histogram of one accumulation window.

    ``counts`` is a (height, width) int32 grid of the events of either
    polarity per pixel, clipped at the configured count cap.
    ``event_total`` is the number of events that fell in the window before
    clipping, so ``counts.sum() <= event_total`` with equality unless
    clipping occurred.
    """

    t_start_us: int
    t_end_us: int
    counts: np.ndarray
    event_total: int

    @property
    def t_mid_s(self) -> float:
        return (self.t_start_us + self.t_end_us) / 2 * 1e-6


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera looking straight down at the ground plane.

    Exactly one of ``f_px``/``fov_alpha`` may be omitted; the other is then
    derived from the sensor width.  When both are supplied they must agree
    to within 1%.  The principal point defaults to the image center with
    pixel centers at integer coordinates.
    """

    width: int
    height: int
    height_z: float
    f_px: float | None = None
    fov_alpha: float | None = None
    cx: float = field(default=None)  # type: ignore[assignment]
    cy: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not (1 <= self.width <= 65535 and 1 <= self.height <= 65535):
            raise ValueError("sensor sides must lie in [1, 65535] px (event x/y are u16)")
        if self.width * self.height > MAX_SENSOR_PX:
            raise ValueError(f"sensor {self.width}x{self.height} exceeds {MAX_SENSOR_PX} px")
        if self.height_z <= 0:
            raise ValueError("camera height above ground must be positive")
        if self.f_px is None and self.fov_alpha is None:
            raise ValueError("one of f_px or fov_alpha is required")
        if self.fov_alpha is not None and not 0 < self.fov_alpha < math.pi:
            raise ValueError("fov_alpha must lie in (0, pi)")
        if self.f_px is None:
            object.__setattr__(self, "f_px", (self.width / 2) / math.tan(self.fov_alpha / 2))
        elif self.f_px <= 0:
            raise ValueError("focal length must be positive")
        if self.fov_alpha is None:
            object.__setattr__(self, "fov_alpha", 2 * math.atan((self.width / 2) / self.f_px))
        else:
            implied = (self.width / 2) / math.tan(self.fov_alpha / 2)
            if abs(implied - self.f_px) > 0.01 * self.f_px:
                raise ValueError(
                    f"f_px {self.f_px:.2f} and fov imply {implied:.2f}; disagreement exceeds 1%")
        if self.cx is None:
            object.__setattr__(self, "cx", (self.width - 1) / 2)
        if self.cy is None:
            object.__setattr__(self, "cy", (self.height - 1) / 2)

    @property
    def meters_per_px(self) -> float:
        """Ground-plane meters subtended by one pixel."""
        return self.height_z / self.f_px


def iter_frames(events: np.ndarray, cfg: AccumulationConfig,
                t_start_us: int | None = None,
                t_end_us: int | None = None):
    """Lazily bin a time-sorted event stream into consecutive fixed windows.

    Windows are anchored at the first event's timestamp unless a
    non-negative ``t_start_us`` is given; ``t_end_us`` extends the covered
    span so that trailing (or, for an empty stream, all) windows are
    emitted as all-zero frames.  Every event lands in exactly one window;
    per-pixel counts clip at ``cfg.count_cap``.  Yielding one frame at a
    time keeps consumers at bounded memory regardless of stream length.

    ``events`` must be a stream that ``validate_events`` accepts for the
    sensor of ``cfg``, as every ``event_io`` loader returns; it is counted
    without another check.  For a stream that views a file mapping
    (``event_io.load_events_binary``), the pages of each finished window
    are dropped from the process, so only the current window stays
    resident.
    """
    if t_start_us is not None and t_start_us < 0:
        raise ValueError(f"accumulation start time must be non-negative, got {t_start_us}")
    w = cfg.window_us
    times = events["t_us"]
    if t_start_us is None:
        if events.size == 0:
            return
        t_start_us = int(times[0])
    if events.size and int(times[0]) < t_start_us:
        raise EventOrderError("events precede the accumulation start time")

    last = int(times[-1]) if events.size else t_start_us
    span_end = max(last + 1, t_end_us if t_end_us is not None else 0)
    n_frames = max(1, -(-(span_end - t_start_us) // w))

    # Events are time-sorted, so each window is a contiguous slice.  A window
    # holds the events at or before its end - 1, a bound that fits in uint64
    # even when the end is 2**64 or beyond.
    height, width = cfg.sensor_height, cfg.sensor_width
    lo = 0
    for k in range(n_frames):
        last_in = np.uint64(min(t_start_us + (k + 1) * w, _U64_END) - 1)
        hi = _window_end(times, last_in, lo)
        yield EventFrame(
            t_start_us=t_start_us + k * w,
            t_end_us=t_start_us + (k + 1) * w,
            counts=_histogram(events[lo:hi], height, width, cfg.count_cap),
            event_total=hi - lo,
        )
        if hi > lo:
            _release_pages(events, hi)
        lo = hi


def _histogram(window: np.ndarray, height: int, width: int, cap: int) -> np.ndarray:
    """The events of ``window`` per pixel, of either polarity, clipped at
    ``cap``: a (height, width) int32 grid.

    Its index and int64 counts are freed on return, so a suspended
    ``iter_frames`` holds only the frame it yielded.
    """
    idx = np.multiply(window["y"], width, dtype=np.intp)
    idx += window["x"]
    counts = np.bincount(idx, minlength=height * width)
    np.minimum(counts, cap, out=counts)
    return counts.astype(np.int32).reshape(height, width)


def _window_end(times: np.ndarray, last_in: np.uint64, lo: int) -> int:
    """The index of the first time after ``last_in`` at or past ``lo``.

    The search gallops from ``lo`` and bisects only the last step, so it
    reads the time column near the window and not at pages far ahead.
    bisect compares in uint64 and reads the strided column in place, where
    np.searchsorted would first copy it.
    """
    n = len(times)
    step = _GALLOP
    while lo + step < n and times[lo + step] <= last_in:
        lo += step
        step *= 2
    return bisect.bisect_right(times, last_in, lo, min(lo + step, n))


def _release_pages(events: np.ndarray, end: int) -> None:
    """Drop from the process the mapped file pages that hold only records
    before ``events[end]``.

    Acts on an array that views a read-only ``mmap``, as
    ``event_io.load_events_binary`` returns; a no-op for an array in memory
    and where the platform has no ``MADV_DONTNEED``.  A dropped page is read
    from the file again on its next access, so values never change.
    """
    advice = getattr(mmap, "MADV_DONTNEED", None)
    base = events.base
    while isinstance(base, np.ndarray):
        base = base.base
    if advice is None or not isinstance(base, memoryview) \
            or not isinstance(base.obj, mmap.mmap):
        return
    mapping = base.obj
    end_address = events.__array_interface__["data"][0] + end * events.strides[0]
    done = end_address - np.frombuffer(mapping, dtype=np.uint8).__array_interface__["data"][0]
    length = min(done - done % mmap.PAGESIZE, len(mapping))
    if length > 0:
        mapping.madvise(advice, 0, length)


def to_intensity(frame: EventFrame, count_cap: int) -> np.ndarray:
    """Render an event frame as an 8-bit grayscale image.

    Counts are clipped at ``count_cap`` and mapped linearly onto [0, 255]
    with round-half-up, so a zero count is 0 and a saturated count is 255.
    """
    scaled = np.minimum(frame.counts, count_cap).astype(np.float64) * (255.0 / count_cap)
    return np.floor(scaled + 0.5).astype(np.uint8)


def relative_motion_blur(t_exp_s: float, v_mps: float, cam: CameraModel) -> float:
    """Fraction of the image width swept by the ground during one exposure.

    Computed as t_exp * v / (z * 2 * tan(alpha / 2)).
    """
    if t_exp_s < 0 or v_mps < 0:
        raise ValueError("exposure time and speed must be non-negative")
    return t_exp_s * v_mps / (cam.height_z * 2.0 * math.tan(cam.fov_alpha / 2.0))


def max_exposure_for_blur(blur_budget: float, v_mps: float, cam: CameraModel) -> float:
    """Longest exposure (seconds) keeping relative motion blur within budget.

    At zero speed any exposure satisfies the budget; returns ``math.inf``.
    """
    if blur_budget <= 0:
        raise ValueError("blur budget must be positive")
    if v_mps < 0:
        raise ValueError("speed must be non-negative")
    if v_mps == 0:
        return math.inf
    return blur_budget * cam.height_z * 2.0 * math.tan(cam.fov_alpha / 2.0) / v_mps
