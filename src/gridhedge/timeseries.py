"""Ingestion of power time-series CSV files.

Expected format: header ``timestamp,power_kw``, ISO-8601 timestamps,
strictly increasing rows at a uniform sampling interval.  Log-returns in a
daily clock window (e.g. 10:00-17:00) pair consecutive in-window samples
only, never across the overnight gap.
"""
import csv
import math
from dataclasses import dataclass
from datetime import datetime, time, timedelta, timezone

import numpy as np

HEADER = ("timestamp", "power_kw")
_MICROSECOND = timedelta(microseconds=1)


@dataclass(frozen=True)
class PowerSeries:
    timestamps: np.ndarray  # datetime64[us]
    values: np.ndarray      # kW
    dt_hours: float

    def __len__(self):
        return len(self.values)


def _parse_timestamp(text: str, row: int) -> datetime:
    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ValueError(f"row {row}: bad timestamp {text!r}") from exc
    if stamp.tzinfo is not None:
        stamp = stamp.astimezone(timezone.utc).replace(tzinfo=None)
    return stamp


def load_power_csv(path) -> PowerSeries:
    """Read and validate a power CSV; errors name the offending row.

    Row numbers in messages are 1-based file lines (header is line 1).
    """
    stamps = []
    values = []
    lines = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("no data rows: file is empty") from None
        if [h.strip().lower() for h in header] != list(HEADER):
            raise ValueError(
                f"row 1: header must be 'timestamp,power_kw', got {','.join(header)!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise ValueError(f"row {line_no}: expected 2 columns, got {len(row)}")
            stamps.append(_parse_timestamp(row[0].strip(), line_no))
            try:
                value = float(row[1])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"row {line_no}: bad power value {row[1]!r}")
            values.append(value)
            lines.append(line_no)
    if not values:
        raise ValueError("no data rows")
    if len(values) < 2:
        raise ValueError("no data rows: need at least 2 samples")

    # integer microseconds from the first stamp give both the timestamps
    # and their float seconds, with no per-element datetime conversion
    origin = stamps[0]
    micros = np.array([(t - origin) // _MICROSECOND for t in stamps], dtype=np.int64)
    seconds = micros / 1e6
    gaps = np.diff(seconds)
    if np.any(gaps <= 0):
        bad = lines[int(np.argmax(gaps <= 0)) + 1]  # later row of the pair
        raise ValueError(f"row {bad}: timestamps not strictly increasing")
    step = gaps[0]
    uneven = np.abs(gaps - step) > 1e-3
    if np.any(uneven):
        idx = int(np.argmax(uneven))
        raise ValueError(
            f"row {lines[idx + 1]}: non-uniform sampling interval "
            f"({gaps[idx]:.3f}s vs expected {step:.3f}s)"
        )
    return PowerSeries(
        timestamps=np.datetime64(origin, "us") + micros.astype("timedelta64[us]"),
        values=np.asarray(values, dtype=float),
        dt_hours=step / 3600.0,
    )


def parse_clock(text: str) -> time:
    hh, mm = text.strip().split(":")
    return time(hour=int(hh), minute=int(mm))


def window_log_returns(series: PowerSeries, window: "tuple[time, time] | None"):
    """Log-returns at the file's sampling interval, restricted to the window.

    A return is taken between consecutive samples whose clock times both lie
    in [start, end], so none spans the gap between one day's window and the
    next.  Every sample of such a pair must be positive.
    """
    values = series.values
    pair = np.ones(len(values) - 1, dtype=bool)
    if window is not None:
        stamps = series.timestamps
        clock_us = (stamps - stamps.astype("datetime64[D]")).astype(np.int64)
        start, end = (
            ((t.hour * 60 + t.minute) * 60 + t.second) * 1_000_000 + t.microsecond
            for t in window
        )
        inside = (clock_us >= start) & (clock_us <= end)
        pair = inside[:-1] & inside[1:]
    left, right = values[:-1][pair], values[1:][pair]
    if np.any(left <= 0) or np.any(right <= 0):
        raise ValueError("window contains non-positive power values")
    return np.log(right) - np.log(left)
