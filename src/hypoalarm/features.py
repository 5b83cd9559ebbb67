"""Two-predictor decision instances over the post-meal decision grid.

Each meal yields up to seven alarm decisions, 2 h to 3 h 30 m after the
meal on a 15-min grid. A decision at time t carries the current reading
x_t, the rate of decrease from the post-meal peak, and a binary label: 1
when any reading 15/20/25 min after t is at or under the alarm threshold.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

from .cgm_data import (
    SAMPLING_PERIOD_MIN,
    DataValidationError,
    PatientSeries,
    PipelineConfig,
    label_hypoglycemia,
)

_TS_FORMAT = "%Y-%m-%dT%H:%M"

FEATURE_COLUMNS = ("patient_id", "meal_time", "peak_time", "peak_value",
                   "decision_time", "x_t", "rate", "ph_min_bg", "label")


@dataclass(frozen=True)
class MealEpisode:
    """One meal's peak and the decision times that survived filtering."""

    meal_time: datetime
    peak_time: datetime
    peak_value: float
    decision_times: tuple[datetime, ...]


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


def find_postprandial_peak(series: PatientSeries, meal_time: datetime,
                           cfg: PipelineConfig | None = None):
    """Highest present BG in [meal, meal + peak window]; earliest on ties.

    Returns (peak_time, peak_value) or None when the window holds no
    present reading.
    """
    cfg = cfg or PipelineConfig()
    i = series.window_max(meal_time, meal_time + timedelta(minutes=cfg.peak_window_min))
    return None if i is None else (series.timestamp(i), float(series.bg[i]))


def _horizon_in_daytime(t: datetime, cfg: PipelineConfig) -> bool:
    start = t + timedelta(minutes=cfg.horizon_offsets_min[0])
    end = t + timedelta(minutes=cfg.horizon_offsets_min[-1])
    if start.date() != end.date():
        return False
    return cfg.daytime_start <= start.time() and end.time() <= cfg.daytime_end


def decision_grid(meal_time: datetime, next_meal: datetime | None,
                  cfg: PipelineConfig | None = None) -> list[datetime]:
    """Nominal decision times for one meal.

    Drops times at or after the next meal, and times whose horizon does
    not sit fully inside daytime hours.
    """
    cfg = cfg or PipelineConfig()
    grid = []
    for offset in cfg.decision_offsets_min:
        t = meal_time + timedelta(minutes=offset)
        if next_meal is not None and t >= next_meal:
            continue
        if not _horizon_in_daytime(t, cfg):
            continue
        grid.append(t)
    return grid


def horizon_label(series: PatientSeries, t: datetime,
                  cfg: PipelineConfig | None = None):
    """(label, lowest horizon BG) for a decision at `t`.

    Label is 1 iff any present reading snapped to t+15/t+20/t+25 is at or
    under the threshold; None when all three are missing.
    """
    cfg = cfg or PipelineConfig()
    readings = []
    for offset in cfg.horizon_offsets_min:
        i = series.nearest_present(t + timedelta(minutes=offset), cfg.snap_tolerance_min)
        if i is not None:
            readings.append(float(series.bg[i]))
    if not readings:
        return None
    low = min(readings)
    return (label_hypoglycemia(low, cfg.hypo_threshold), low)


def rate_of_decrease(peak_value: float, peak_time: datetime,
                     current_value: float, current_time: datetime) -> float:
    """(peak - current) / minutes elapsed; positive means BG is falling."""
    minutes = (current_time - peak_time).total_seconds() / 60.0
    if minutes <= 0:
        raise ValueError("decision time must come after the peak")
    return (peak_value - current_value) / minutes


def meal_episodes(series: PatientSeries,
                  cfg: PipelineConfig | None = None) -> list[MealEpisode]:
    """Per-meal peak and surviving decision grid, before sample snapping."""
    cfg = cfg or PipelineConfig()
    meals = series.meal_times
    episodes = []
    for k, meal in enumerate(meals):
        next_meal = meals[k + 1] if k + 1 < len(meals) else None
        peak = find_postprandial_peak(series, meal, cfg)
        if peak is None:
            continue
        episodes.append(MealEpisode(
            meal_time=meal,
            peak_time=peak[0],
            peak_value=peak[1],
            decision_times=tuple(decision_grid(meal, next_meal, cfg)),
        ))
    return episodes


def build_instances(series: PatientSeries,
                    cfg: PipelineConfig | None = None) -> list[DecisionInstance]:
    """All alarm decision instances for one patient, ordered by (meal, t).

    A grid time is skipped when it has no snapped reading, when its whole
    horizon is missing, or when it falls within one sampling period of the
    peak (the rate would be ill-defined there).
    """
    cfg = cfg or PipelineConfig()
    min_gap = timedelta(minutes=SAMPLING_PERIOD_MIN)
    instances = []
    for episode in meal_episodes(series, cfg):
        for t in episode.decision_times:
            if t - episode.peak_time < min_gap:
                continue
            current = series.nearest_present(t, cfg.snap_tolerance_min)
            if current is None:
                continue
            x_t = float(series.bg[current])
            horizon = horizon_label(series, t, cfg)
            if horizon is None:
                continue
            label, low = horizon
            instances.append(DecisionInstance(
                patient_id=series.patient_id,
                meal_time=episode.meal_time,
                peak_time=episode.peak_time,
                peak_value=episode.peak_value,
                decision_time=t,
                x_t=x_t,
                rate=rate_of_decrease(episode.peak_value, episode.peak_time, x_t, t),
                label=label,
                ph_min_bg=low,
            ))
    return instances


def write_feature_csv(instances, path) -> None:
    """One instance per row, full float precision, LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FEATURE_COLUMNS)
    for inst in instances:
        writer.writerow([
            inst.patient_id,
            inst.meal_time.strftime(_TS_FORMAT),
            inst.peak_time.strftime(_TS_FORMAT),
            repr(float(inst.peak_value)),
            inst.decision_time.strftime(_TS_FORMAT),
            repr(float(inst.x_t)),
            repr(float(inst.rate)),
            repr(float(inst.ph_min_bg)),
            str(int(inst.label)),
        ])
    text = buf.getvalue()
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)


def read_feature_csv(path) -> list[DecisionInstance]:
    """Load a feature table written by `write_feature_csv`."""
    if hasattr(path, "read"):
        text = path.read()
    else:
        text = Path(path).read_text()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(c.strip() for c in rows[0]) != FEATURE_COLUMNS:
        raise DataValidationError(f"expected header {','.join(FEATURE_COLUMNS)!r}", row=1)
    instances = []
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
                meal_time=datetime.strptime(row[1], _TS_FORMAT),
                peak_time=datetime.strptime(row[2], _TS_FORMAT),
                peak_value=float(row[3]),
                decision_time=datetime.strptime(row[4], _TS_FORMAT),
                x_t=float(row[5]),
                rate=float(row[6]),
                ph_min_bg=float(row[7]),
                label=label,
            ))
        except ValueError as exc:
            raise DataValidationError(str(exc), row=line) from exc
    return instances
