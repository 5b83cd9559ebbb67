"""Two-predictor decision instances over the post-meal decision grid.

Each meal yields up to seven alarm decisions, 2 h to 3 h 30 m after the
meal on a 15-min grid. A decision at time t carries the current reading
x_t, the rate of decrease from the post-meal peak, and a binary label: 1
when any reading 15/20/25 min after t is at or under the alarm threshold.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cgm_data import (
    _CLOCK_CELLS,
    _DAY_MINUTES,
    EPOCH,
    SAMPLING_PERIOD_MIN,
    DataValidationError,
    PatientSeries,
    PipelineConfig,
    _time_cells,
    csv_cells,
    csv_table,
    label_hypoglycemia,
)

_TS_FORMAT = "%Y-%m-%dT%H:%M"

FEATURE_COLUMNS = ("patient_id", "meal_time", "peak_time", "peak_value",
                   "decision_time", "x_t", "rate", "ph_min_bg", "label")


class DecisionInstance(NamedTuple):
    """One alarm decision: the two predictors, the label, and audit fields.
    Times are minutes since `EPOCH`. A tuple: immutable, and equal to a
    plain tuple of the same values."""

    patient_id: str
    meal_time: float
    peak_time: float
    peak_value: float
    decision_time: float
    x_t: float        # snapped reading at the decision time, mmol/L
    rate: float       # (peak - x_t) / minutes since the peak; positive = falling
    label: int        # 1 iff any horizon reading <= threshold
    ph_min_bg: float  # lowest present horizon reading, kept for severity analysis


def rate_of_decrease(peak_value, peak_time, current_value, current_time):
    """(peak - current) / minutes elapsed, elementwise over scalars or
    arrays, times in minutes; positive means BG is falling."""
    elapsed = np.subtract(current_time, peak_time)
    if not (elapsed > 0).all():
        raise ValueError("decision time must come after the peak")
    return np.subtract(peak_value, current_value) / elapsed


def _snap(minutes: np.ndarray, values: np.ndarray, times: np.ndarray,
          tolerance: float) -> np.ndarray:
    """`values` of the sample nearest each of `times` within the tolerance,
    ends included; the earlier sample on ties, NaN where none is in reach.
    `minutes` holds the sample times, increasing and non-empty."""
    after = np.searchsorted(minutes, times)
    before = np.maximum(after - 1, 0)
    after = np.minimum(after, len(minutes) - 1)
    to_before = np.abs(times - minutes[before])
    to_after = np.abs(minutes[after] - times)
    nearest = np.where(to_after < to_before, after, before)
    return np.where(np.minimum(to_before, to_after) <= tolerance, values[nearest], np.nan)


def build_instances(series: PatientSeries,
                    cfg: PipelineConfig | None = None) -> list[DecisionInstance]:
    """All alarm decision instances for one patient, ordered by (meal, t).

    A meal's peak is its highest present reading in [meal, meal + peak
    window], the earliest on ties; a meal without one yields nothing. Its
    grid time t is kept when t comes before the next meal, the horizon
    [t + 15, t + 25] lies within one day's daytime hours, t is at least one
    sampling period past the peak (the rate is ill-defined nearer), the
    reading snapped to t is present and so is at least one horizon reading.
    """
    cfg = cfg or PipelineConfig()
    present = np.flatnonzero(~np.isnan(series.bg))
    meals = series.meal_times
    if not len(present) or not len(meals):
        return []
    minutes, bg = series.minutes[present], series.bg[present]

    lo = np.searchsorted(minutes, meals, side="left")
    hi = np.searchsorted(minutes, meals + cfg.peak_window_min, side="right")
    peak = np.array([a + int(np.argmax(bg[a:b])) if a < b else -1 for a, b in zip(lo, hi)])
    peak_minutes = np.where(peak >= 0, minutes[peak], np.nan)

    t = meals[:, None] + np.asarray(cfg.decision_offsets_min, dtype=float)
    first = t + cfg.lead_time_min
    last = t + cfg.horizon_offsets_min[-1]
    # both ends from the midnight before `first`: a horizon across midnight
    # ends at or past 24:00, after any daytime end
    midnight = 1440 * np.floor(first / 1440)
    keep = ((t < np.append(meals[1:], np.inf)[:, None])
            & (first - midnight >= 60 * cfg.daytime_start.hour + cfg.daytime_start.minute)
            & (last - midnight <= 60 * cfg.daytime_end.hour + cfg.daytime_end.minute)
            & (t - peak_minutes[:, None] >= SAMPLING_PERIOD_MIN))
    meal_k, decision = np.nonzero(keep)[0], t[keep]
    snapped = _snap(minutes, bg, decision[:, None] + np.array((0, *cfg.horizon_offsets_min)),
                    cfg.snap_tolerance_min)
    ok = ~np.isnan(snapped[:, 0]) & ~np.isnan(snapped[:, 1:]).all(axis=1)

    k, decision, x = meal_k[ok], decision[ok], snapped[ok, 0]
    low = np.nanmin(snapped[ok, 1:], axis=1)
    peak_time, peak_value = minutes[peak[k]], bg[peak[k]]
    columns = (meals[k], peak_time, peak_value, decision, x,
               rate_of_decrease(peak_value, peak_time, x, decision),
               label_hypoglycemia(low), low)
    return list(map(DecisionInstance, repeat(series.patient_id), *(c.tolist() for c in columns)))


def write_feature_csv(instances, stream) -> None:
    """One instance per row to a text stream, full float precision, LF line
    endings; the cells are built a column at a time. Each time must be a
    whole minute in 1000-9999, the years `read_feature_csv` reads back: the
    first that is not, in row order, raises ValueError naming its instance
    and column."""
    patient_id, meal, peak, peak_value, decision, x_t, rate, label, ph_min_bg = (
        list(zip(*instances)) or [()] * 9)
    dates, clock = _time_cells(
        np.array((meal, peak, decision), dtype=np.float64).T, range(1000, 10000),
        lambda i: f"instance {i // 3} {FEATURE_COLUMNS[(1, 2, 4)[i % 3]]}",
        lambda day: (EPOCH + timedelta(days=day)).strftime("%Y-%m-%dT"))
    stamps = list(map(str.__add__, dates, map(_CLOCK_CELLS.__getitem__, clock)))
    values = [map(repr, map(float, column)) for column in (peak_value, x_t, rate, ph_min_bg)]
    stream.write(csv_table(FEATURE_COLUMNS, zip(
        patient_id, stamps[0::3], stamps[1::3], values[0], stamps[2::3], *values[1:],
        map(str, map(int, label)))))


def _finite(cell: str, column: str) -> float:
    if math.isfinite(value := float(cell)):
        return value
    raise ValueError(f"{column} must be a finite number, got {cell!r}")


def _parse_time(cell: str) -> float:
    return (datetime.strptime(cell, _TS_FORMAT) - EPOCH) / timedelta(minutes=1)


def _time_column(cells) -> list[float]:
    """`_parse_time` of each cell, once per distinct cell, with one
    `strptime` per date for the cells that end in a ``HH:MM`` clock."""
    cells, starts, times = list(cells), {}, {}
    for cell in set(cells):
        minute = _DAY_MINUTES.get(cell[-5:])
        if minute is None:
            times[cell] = _parse_time(cell)
            continue
        if (start := starts.get(date := cell[:-5])) is None:
            starts[date] = start = _parse_time(date + "00:00")
        times[cell] = start + minute
    return list(map(times.__getitem__, cells))


def _row_instance(row: list) -> DecisionInstance:
    """One table row as an instance: the label first, then the cells left to right."""
    label = int(row[8])
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    meal, peak, peak_value, decision, x_t, rate, ph_min_bg = (
        _parse_time(row[k]) if k in (1, 2, 4) else _finite(row[k], FEATURE_COLUMNS[k])
        for k in range(1, 8))
    return DecisionInstance(row[0], meal, peak, peak_value, decision, x_t, rate, label, ph_min_bg)


def read_feature_csv(source: str | Path) -> list[DecisionInstance]:
    """Load a feature table written by `write_feature_csv`, from its text or a
    Path; a float cell that is not a finite number is a data error on its row.

    Rows of blank cells are skipped. The rows before the first one of the
    wrong width are converted a column at a time, and a row at a time only
    when a cell fails, so that the error names the first bad row.
    """
    if isinstance(source, Path):
        source = source.read_bytes().decode()  # no newline translation: keeps a quoted "\r"
    cells, lines, misshapen = csv_cells(source, FEATURE_COLUMNS)
    columns = [cells[k::9] for k in range(9)]
    try:
        labels = list(map(int, columns[8]))
        values = [list(map(float, columns[k])) for k in (3, 5, 6, 7)]
        if not (set(labels) <= {0, 1} and np.isfinite(values).all()):
            raise ValueError("a label or value out of range")
        times = _time_column(chain(columns[1], columns[2], columns[4]))
    except ValueError:
        for k, line in enumerate(lines.tolist()):
            try:
                _row_instance(cells[9 * k:9 * k + 9])
            except ValueError as exc:
                raise DataValidationError(str(exc), row=line) from exc
        raise RuntimeError("a feature column failed to convert, but none of its rows") from None
    if misshapen:
        raise misshapen
    n = len(labels)
    meal, peak, decision = times[:n], times[n:2 * n], times[2 * n:]
    return list(map(DecisionInstance, columns[0], meal, peak, values[0], decision, *values[1:3],
                    labels, values[3]))
