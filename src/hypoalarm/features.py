"""Two-predictor decision instances over the post-meal decision grid.

Each meal yields up to seven alarm decisions, 2 h to 3 h 30 m after the
meal on a 15-min grid. A decision at time t carries the current reading
x_t, the rate of decrease from the post-meal peak, and a binary label: 1
when any reading 15/20/25 min after t is at or under the alarm threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, time, timedelta
from functools import cache
from itertools import repeat
from pathlib import Path

import numpy as np

from .cgm_data import (
    EPOCH,
    SAMPLING_PERIOD_MIN,
    DataValidationError,
    PatientSeries,
    PipelineConfig,
    csv_rows,
    csv_table,
    label_hypoglycemia,
)

_TS_FORMAT = "%Y-%m-%dT%H:%M"

FEATURE_COLUMNS = ("patient_id", "meal_time", "peak_time", "peak_value",
                   "decision_time", "x_t", "rate", "ph_min_bg", "label")


@dataclass(frozen=True)
class DecisionInstance:
    """One alarm decision: the two predictors, the label, and audit fields.
    Times are minutes since `EPOCH`."""

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


def _minute_of_day(clock: time) -> float:
    return (datetime.combine(EPOCH, clock) - EPOCH) / timedelta(minutes=1)


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
    first = t + cfg.lead_time_min
    last = t + cfg.horizon_offsets_min[-1]
    # both ends from the midnight before `first`: a horizon across midnight
    # ends at or past 24:00, after any daytime end
    midnight = 1440 * np.floor(first / 1440)
    keep = ((t < np.append(meals[1:], np.inf)[:, None])
            & (first - midnight >= _minute_of_day(cfg.daytime_start))
            & (last - midnight <= _minute_of_day(cfg.daytime_end))
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
    """One instance per row to a text stream, full float precision, LF line endings."""
    # a meal's rows share its times
    stamp = cache(lambda m: (EPOCH + timedelta(minutes=m)).strftime(_TS_FORMAT))
    stream.write(csv_table(FEATURE_COLUMNS, ([
        inst.patient_id,
        stamp(inst.meal_time),
        stamp(inst.peak_time),
        repr(float(inst.peak_value)),
        stamp(inst.decision_time),
        repr(float(inst.x_t)),
        repr(float(inst.rate)),
        repr(float(inst.ph_min_bg)),
        str(int(inst.label)),
    ] for inst in instances)))


def _finite(cell: str, column: str) -> float:
    if math.isfinite(value := float(cell)):
        return value
    raise ValueError(f"{column} must be a finite number, got {cell!r}")


def read_feature_csv(source: str | Path) -> list[DecisionInstance]:
    """Load a feature table written by `write_feature_csv`, from its text or a
    Path; a float cell that is not a finite number is a data error on its row."""
    if isinstance(source, Path):
        source = source.read_bytes().decode()  # no newline translation: keeps a quoted "\r"
    rows = csv_rows(source)
    if not rows or tuple(c.strip() for c in rows[0]) != FEATURE_COLUMNS:
        raise DataValidationError(f"expected header {','.join(FEATURE_COLUMNS)!r}", row=1)
    instances = []
    parse_time = cache(  # a time cell to minutes since EPOCH, once per distinct cell
        lambda cell: (datetime.strptime(cell, _TS_FORMAT) - EPOCH) / timedelta(minutes=1))
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
