"""Two-predictor decision instances over the post-meal decision grid.

Each meal yields up to seven alarm decisions, 2 h to 3 h 30 m after the
meal on a 15-min grid. A decision at time t carries the current reading
x_t, the rate of decrease from the post-meal peak, and a binary label: 1
when any reading 15/20/25 min after t is at or under the alarm threshold.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from functools import cache
from pathlib import Path

import numpy as np

from .cgm_data import (
    SAMPLING_PERIOD_MIN,
    DataValidationError,
    PatientSeries,
    PipelineConfig,
    csv_rows,
    label_hypoglycemia,
)

_TS_FORMAT = "%Y-%m-%dT%H:%M"

FEATURE_COLUMNS = ("patient_id", "meal_time", "peak_time", "peak_value",
                   "decision_time", "x_t", "rate", "ph_min_bg", "label")


@dataclass(frozen=True)
class DecisionInstance:
    """One alarm decision: the two predictors, the label, and audit fields."""

    patient_id: str
    meal_time: datetime
    peak_time: datetime
    peak_value: float
    decision_time: datetime
    x_t: float        # snapped reading at the decision time, mmol/L
    rate: float       # (peak - x_t) / minutes since the peak; positive = falling
    label: int        # 1 iff any horizon reading <= threshold
    ph_min_bg: float  # lowest present horizon reading, kept for severity analysis


def rate_of_decrease(peak_value: float, peak_time: datetime,
                     current_value: float, current_time: datetime) -> float:
    """(peak - current) / minutes elapsed; positive means BG is falling."""
    minutes = (current_time - peak_time).total_seconds() / 60.0
    if minutes <= 0:
        raise ValueError("decision time must come after the peak")
    return (peak_value - current_value) / minutes


def _minute_of_day(clock: time) -> float:
    return (datetime.combine(date.min, clock) - datetime.min) / timedelta(minutes=1)


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
    meal_rows = np.flatnonzero(~np.isnan(series.meal_ref))
    if not len(present) or not len(meal_rows):
        return []
    minutes, bg = series.minutes[present], series.bg[present]
    meals = series.minutes[meal_rows]

    lo = np.searchsorted(minutes, meals, side="left")
    hi = np.searchsorted(minutes, meals + cfg.peak_window_min, side="right")
    peak = np.array([a + int(np.argmax(bg[a:b])) if a < b else -1 for a, b in zip(lo, hi)])
    peak_minutes = np.where(peak >= 0, minutes[peak], np.nan)

    t = meals[:, None] + np.asarray(cfg.decision_offsets_min, dtype=float)
    first = t + cfg.horizon_offsets_min[0]
    last = t + cfg.horizon_offsets_min[-1]
    # both ends from the midnight before `first`: a horizon across midnight
    # ends at or past 24:00, after any daytime end
    midnight = 1440 * np.floor(first / 1440)
    keep = ((t < np.append(meals[1:], np.inf)[:, None])
            & (first - midnight >= _minute_of_day(cfg.daytime_start))
            & (last - midnight <= _minute_of_day(cfg.daytime_end))
            & (t - peak_minutes[:, None] >= SAMPLING_PERIOD_MIN))
    meal_k, offset_k = np.nonzero(keep)
    snapped = _snap(minutes, bg, t[keep][:, None] + np.array((0, *cfg.horizon_offsets_min)),
                    cfg.snap_tolerance_min)
    ok = ~np.isnan(snapped[:, 0]) & ~np.isnan(snapped[:, 1:]).all(axis=1)

    meal_times = [series.timestamp(i) for i in meal_rows]
    peaks = [(series.timestamp(present[p]), float(bg[p])) if p >= 0 else None for p in peak]
    instances = []
    for k, offset, x, low in zip(meal_k[ok], offset_k[ok], snapped[ok, 0].tolist(),
                                 np.nanmin(snapped[ok, 1:], axis=1).tolist()):
        peak_time, peak_value = peaks[k]
        decision_time = meal_times[k] + timedelta(minutes=cfg.decision_offsets_min[offset])
        instances.append(DecisionInstance(
            patient_id=series.patient_id,
            meal_time=meal_times[k],
            peak_time=peak_time,
            peak_value=peak_value,
            decision_time=decision_time,
            x_t=x,
            rate=rate_of_decrease(peak_value, peak_time, x, decision_time),
            label=label_hypoglycemia(low, cfg.hypo_threshold),
            ph_min_bg=low,
        ))
    return instances


def csv_table(columns, rows) -> str:
    """CSV text of a header and rows of string cells: minimal quoting, LF
    line endings, and every cell of a row that holds a CR quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # the minimal writer leaves a "\r" unquoted, and no reader takes that back
    quote_all = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(columns)
    for row in rows:
        (quote_all if "\r" in "".join(row) else writer).writerow(row)
    return buf.getvalue()


def write_feature_csv(instances, path) -> None:
    """One instance per row, full float precision, LF line endings."""
    stamp = cache(lambda t: t.strftime(_TS_FORMAT))  # a meal's rows share its times
    text = csv_table(FEATURE_COLUMNS, ([
        inst.patient_id,
        stamp(inst.meal_time),
        stamp(inst.peak_time),
        repr(float(inst.peak_value)),
        stamp(inst.decision_time),
        repr(float(inst.x_t)),
        repr(float(inst.rate)),
        repr(float(inst.ph_min_bg)),
        str(int(inst.label)),
    ] for inst in instances))
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)


def _finite(cell: str, column: str) -> float:
    if math.isfinite(value := float(cell)):
        return value
    raise ValueError(f"{column} must be a finite number, got {cell!r}")


def read_feature_csv(path) -> list[DecisionInstance]:
    """Load a feature table written by `write_feature_csv`; a float cell
    that is not a finite number is a data error on its row."""
    if hasattr(path, "read"):
        text = path.read()
    else:
        text = Path(path).read_bytes().decode()  # no newline translation: keeps a quoted "\r"
    rows = csv_rows(text)
    if not rows or tuple(c.strip() for c in rows[0]) != FEATURE_COLUMNS:
        raise DataValidationError(f"expected header {','.join(FEATURE_COLUMNS)!r}", row=1)
    instances = []
    parse_time = cache(lambda cell: datetime.strptime(cell, _TS_FORMAT))
    for line, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(FEATURE_COLUMNS):
            raise DataValidationError(
                f"expected {len(FEATURE_COLUMNS)} columns, got {len(row)}", row=line)
        try:
            label = int(row[8])
            if label not in (0, 1):
                raise ValueError(f"label must be 0 or 1, got {label}")
            instances.append(DecisionInstance(
                patient_id=row[0],
                meal_time=parse_time(row[1]),
                peak_time=parse_time(row[2]),
                peak_value=_finite(row[3], "peak_value"),
                decision_time=parse_time(row[4]),
                x_t=_finite(row[5], "x_t"),
                rate=_finite(row[6], "rate"),
                ph_min_bg=_finite(row[7], "ph_min_bg"),
                label=label,
            ))
        except ValueError as exc:
            raise DataValidationError(str(exc), row=line) from exc
    return instances
