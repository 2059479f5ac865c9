"""Power CSV ingestion and daily-window slicing."""
from datetime import datetime, timezone

import numpy as np
import pytest

from gridhedge.timeseries import (
    load_power_csv,
    parse_clock,
    window_log_returns,
)


def write_csv(tmp_path, rows, header="timestamp,power_kw"):
    path = tmp_path / "series.csv"
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def five_min_rows(day, start_h, count, values):
    rows = []
    for i in range(count):
        minutes = start_h * 60 + 5 * i
        rows.append(f"2020-06-{day:02d}T{minutes // 60:02d}:{minutes % 60:02d}:00,{values[i]}")
    return rows


def test_round_trip(tmp_path):
    values = [20.0, 20.5, 21.0, 20.8]
    path = write_csv(tmp_path, five_min_rows(1, 10, 4, values))
    series = load_power_csv(path)
    assert len(series) == 4
    assert series.dt_hours == pytest.approx(5 / 60)
    assert np.allclose(series.values, values)


def test_non_uniform_interval_names_row(tmp_path):
    rows = [
        "2020-06-01T10:00:00,20",
        "2020-06-01T10:05:00,21",
        "2020-06-01T10:12:00,22",
    ]
    want = r"^row 4: non-uniform sampling interval \(420\.000s vs expected 300\.000s\)$"
    with pytest.raises(ValueError, match=want):
        load_power_csv(write_csv(tmp_path, rows))


def test_non_increasing_names_row(tmp_path):
    rows = [
        "2020-06-01T10:05:00,20",
        "2020-06-01T10:00:00,21",
    ]
    with pytest.raises(ValueError, match="^row 3: timestamps not strictly increasing$"):
        load_power_csv(write_csv(tmp_path, rows))


@pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
def test_bad_power_value_names_row(tmp_path, bad):
    values = [20.0, 20.5, bad, 20.8, 21.0]
    with pytest.raises(ValueError, match=f"^row 4: bad power value '{bad}'$"):
        load_power_csv(write_csv(tmp_path, five_min_rows(1, 10, 5, values)))


@pytest.mark.parametrize(
    "rows, want",
    [
        (["2020-06-01T10:00:00,20", "June 1st,21"], "^row 3: bad timestamp 'June 1st'$"),
        (["2020-06-01T10:00:00,20", "2020-06-01T10:05:00,21,22"],
         "^row 3: expected 2 columns, got 3$"),
        (["2020-06-01T10:00:00,20"], "^no data rows: need at least 2 samples$"),
    ],
    ids=["bad_timestamp", "three_columns", "one_row"],
)
def test_malformed_rows_refused(tmp_path, rows, want):
    with pytest.raises(ValueError, match=want):
        load_power_csv(write_csv(tmp_path, rows))


@pytest.mark.parametrize("blank", ["", "   ", ",", " , ", "\t"],
                         ids=["empty", "spaces", "comma", "spaced_comma", "tab"])
def test_blank_rows_skipped(tmp_path, blank):
    rows = five_min_rows(1, 10, 3, [20.0, 20.5, 21.0])
    series = load_power_csv(write_csv(tmp_path, [rows[0], blank, rows[1], rows[2], blank]))
    assert series.values.tolist() == [20.0, 20.5, 21.0]
    assert series.dt_hours == pytest.approx(5 / 60)


def test_bad_header(tmp_path):
    want = "^row 1: header must be 'timestamp,power_kw', got 'time,kw'$"
    with pytest.raises(ValueError, match=want):
        load_power_csv(write_csv(tmp_path, ["2020-06-01T10:00:00,20"], header="time,kw"))


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="^no data rows: file is empty$"):
        load_power_csv(path)
    with pytest.raises(ValueError, match="^no data rows$"):
        load_power_csv(write_csv(tmp_path, []))


def test_zulu_timestamps(tmp_path):
    rows = ["2020-06-01T10:00:00Z,20", "2020-06-01T10:05:00Z,21"]
    series = load_power_csv(write_csv(tmp_path, rows))
    assert len(series) == 2


def test_timestamps_match_per_element_conversion(tmp_path):
    # zulu, offset and naive stamps with sub-second parts, 1.5 s apart in UTC;
    # the loader must give what converting each datetime on its own gives
    stamps = [
        "2020-06-01T10:00:00.123456+02:00",
        "2020-06-01T08:00:01.623456Z",
        "2020-06-01T08:00:03.123456",
        "2020-06-01T10:00:04.623456+02:00",
        "2020-06-01T07:30:06.123456-00:30",
    ]
    series = load_power_csv(write_csv(tmp_path, [f"{t},20" for t in stamps]))
    utc = []
    for text in stamps:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if stamp.tzinfo is not None:
            stamp = stamp.astimezone(timezone.utc).replace(tzinfo=None)
        utc.append(stamp)
    want = np.array(utc, dtype="datetime64[us]")
    assert series.timestamps.dtype == want.dtype
    np.testing.assert_array_equal(series.timestamps, want)
    assert series.dt_hours == (utc[1] - utc[0]).total_seconds() / 3600.0


def test_window_skips_overnight_gap(tmp_path):
    # two days, 10:00-10:15 each; returns must not straddle the day boundary
    day1 = five_min_rows(1, 10, 4, [20, 21, 22, 23])
    day2 = five_min_rows(2, 10, 4, [30, 31, 32, 33])
    rows = day1 + day2
    # make the full file uniform by filling the gap is unrealistic; instead
    # the file itself is two windows and fails the uniformity check, so build
    # a single uniform day with values outside the window too
    rows = five_min_rows(1, 9, 30, list(np.linspace(10, 39, 30)))
    path = write_csv(tmp_path, rows)
    series = load_power_csv(path)
    window = (parse_clock("09:30"), parse_clock("10:00"))
    returns = window_log_returns(series, window)
    inside = series.values[6:13]  # 09:30..10:00 inclusive
    assert returns.size == inside.size - 1
    assert np.allclose(returns, np.diff(np.log(inside)))


def test_window_returns_never_straddle_midnight(tmp_path):
    # three uniform hourly days; 22:00-02:00 is outside the 09:00-17:00 window
    values = list(np.linspace(10, 81, 72))
    rows = [
        f"2020-06-{1 + h // 24:02d}T{h % 24:02d}:00:00,{value}" for h, value in enumerate(values)
    ]
    series = load_power_csv(write_csv(tmp_path, rows))
    returns = window_log_returns(series, (parse_clock("09:00"), parse_clock("17:00")))
    want = np.concatenate(
        [np.diff(np.log(series.values[24 * day + 9 : 24 * day + 18])) for day in range(3)]
    )
    assert returns.size == 3 * 8
    assert np.array_equal(returns, want)


def test_window_covering_midnight_keeps_overnight_returns(tmp_path):
    # every sample is in 00:00-23:59, so the 23:00 -> 00:00 pairs count too
    rows = [f"2020-06-{1 + h // 24:02d}T{h % 24:02d}:00:00,{20 + h}" for h in range(48)]
    series = load_power_csv(write_csv(tmp_path, rows))
    returns = window_log_returns(series, (parse_clock("00:00"), parse_clock("23:59")))
    assert np.array_equal(returns, np.diff(np.log(series.values)))


def test_non_positive_value_inside_window_rejected(tmp_path):
    values = [20, 21, 0, 23, 24, 25]
    series = load_power_csv(write_csv(tmp_path, five_min_rows(1, 10, 6, values)))
    with pytest.raises(ValueError, match="^window contains non-positive power values$"):
        window_log_returns(series, (parse_clock("10:00"), parse_clock("10:25")))


def test_non_positive_value_outside_window_ignored(tmp_path):
    values = [-1, 0, 22, 23, 24, 25]
    series = load_power_csv(write_csv(tmp_path, five_min_rows(1, 10, 6, values)))
    returns = window_log_returns(series, (parse_clock("10:10"), parse_clock("10:25")))
    assert np.array_equal(returns, np.diff(np.log([22.0, 23.0, 24.0, 25.0])))


def test_window_none_uses_all(tmp_path):
    rows = five_min_rows(1, 10, 5, [20, 21, 22, 23, 24])
    series = load_power_csv(write_csv(tmp_path, rows))
    returns = window_log_returns(series, None)
    assert returns.size == 4
