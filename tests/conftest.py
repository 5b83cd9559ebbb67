"""Shared fixtures: hand-built series with known peaks, rates, and labels,
and synthetic cohort shapes with some constants overridden."""

import math
import typing
from datetime import datetime, timedelta

import numpy as np
import pytest

from hypoalarm import PatientSeries, PipelineConfig, SynthConfig, build_instances
from hypoalarm.cart import finite_number
from oracle_utils import minutes


def ts(hhmm: str, day: int = 7) -> datetime:
    hour, minute = hhmm.split(":")
    return datetime(2015, 9, day, int(hour), int(minute))


def ts_minutes(hhmm: str, day: int = 7) -> float:
    """`ts` in minutes since the epoch, the time unit of `DecisionInstance`."""
    return minutes(ts(hhmm, day))


def decision_at(rows, probe):
    """The instance `build_instances` emits for the decision at minute
    `probe`, or None. `rows` are (minute, bg) pairs, bg None or NaN for a
    missing reading. A meal row holding a 30 mmol/L peak is added one
    decision offset before `probe`, so `probe` is its first grid time."""
    meal = probe - PipelineConfig.decision_offsets_min[0]
    samples = sorted([(m, math.nan if bg is None else bg, math.nan) for m, bg in rows]
                     + [(meal, 30.0, 6.0)])
    hits = [inst for inst in build_instances(PatientSeries("p", samples))
            if inst.decision_time == probe]
    return hits[0] if hits else None


def outcome(call, *args, **kwargs):
    """What `call` returns, or the type and text of the `ValueError` or
    `OverflowError` it raises."""
    try:
        return call(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


# the shape constants of SynthConfig and the type each is declared with
SHAPE_CONSTANTS = {name: typing.get_args(kind)[0]
                   for name, kind in typing.get_type_hints(SynthConfig).items()
                   if typing.get_origin(kind) is typing.ClassVar}


def shape_violations(cfg) -> list[str]:
    """The invariants of a synthetic cohort's shape that `cfg` breaks."""
    value = {name: getattr(cfg, name) for name in SHAPE_CONSTANTS}
    broken = [name for name, kind in SHAPE_CONSTANTS.items()
              if not (type(value[name]) is int if kind is int else finite_number(value[name]))]
    if broken:
        return broken
    broken += [name for name in value if "rate" in name and not value[name] > 0]
    broken += [name for name in value if name.endswith("_sd") and not value[name] >= 0]
    broken += [f"{name[:-4]}_min <= {name}" for name in value
               if name.endswith("_max") and not value[name[:-4] + "_min"] <= value[name]]
    broken += [name for name in ("hypo_pressure", "missing_prob") if not 0 <= value[name] <= 1]
    checks = {
        # 2.55/15 is the rate at which 6.45 mmol/L could reach 3.9 in 15 min
        "max_drop_rate < 2.55/15": cfg.max_drop_rate < 2.55 / 15,
        "dip_fall_rate_max < max_drop_rate": cfg.dip_fall_rate_max < cfg.max_drop_rate,
        "noise_clip >= 0": cfg.noise_clip >= 0,
        "0 < bg_floor < bg_ceil": 0 < cfg.bg_floor < cfg.bg_ceil,
        # three meal slots: breakfast, lunch, dinner
        "1 <= meals_per_day_min <= meals_per_day_max <= 3":
            1 <= cfg.meals_per_day_min <= cfg.meals_per_day_max <= 3,
        "days_min >= 1": cfg.days_min >= 1,
    }
    return broken + [check for check, holds in checks.items() if not holds]


def shaped(**constants) -> type[SynthConfig]:
    """A `SynthConfig` subclass with the named shape constants overridden.

    A name that is not a shape constant is a `TypeError`, and a shape that
    breaks an invariant of `shape_violations` a `ValueError`.
    """
    unknown = sorted(set(constants) - set(SHAPE_CONSTANTS))
    if unknown:
        raise TypeError(f"not SynthConfig shape constants: {unknown}")
    cls = type("ShapedSynthConfig", (SynthConfig,), constants)
    if broken := shape_violations(cls):
        raise ValueError(f"shape breaks {broken}")
    return cls


def series_from_anchors(anchors, meals=None, missing=None, start="7:02", end="22:57",
                        patient_id="anchored", dm_type="other") -> PatientSeries:
    """5-min series interpolating linearly between (H:MM, bg) anchors.

    `meals` maps H:MM to the reference BG recorded at that sample;
    `missing` lists H:MM samples whose sensor reading becomes N/A.
    """
    meals = meals or {}
    missing = set(missing or ())
    t_start, t_end = ts(start), ts(end)
    xp = [(ts(h) - t_start).total_seconds() / 60.0 for h, _ in anchors]
    fp = [v for _, v in anchors]
    n = int((t_end - t_start).total_seconds() // 60 // 5) + 1
    rows = []
    for i in range(n):
        t = t_start + timedelta(minutes=5 * i)
        key = f"{t.hour}:{t.minute:02d}"
        bg = math.nan if key in missing else float(np.interp(5.0 * i, xp, fp))
        rows.append((minutes(t), bg, meals.get(key, math.nan)))
    return PatientSeries(patient_id=patient_id, samples=rows, dm_type=dm_type)


# Two meals in one day. The morning meal decays into an afternoon low
# (label flips to 1 at the 11:12 decision); the evening meal stays high.
WORKED_ANCHORS = [
    ("7:02", 7.0),
    ("8:42", 7.0),
    ("9:17", 12.7),   # morning peak
    ("10:42", 6.6),
    ("10:57", 5.6),
    ("11:12", 4.8),
    ("11:27", 3.8),
    ("11:32", 3.6),
    ("11:37", 3.7),
    ("11:57", 4.4),
    ("12:37", 5.2),
    ("19:07", 9.0),
    ("19:32", 15.7),  # evening peak
    ("21:07", 8.0),
    ("21:22", 8.7),
    ("21:37", 8.4),
    ("22:57", 8.0),
]

WORKED_MEALS = {"8:42": 6.8, "19:07": 9.2}

# (decision time, expected x_t, expected rate, expected label); rates match
# the printed three-decimal values to within 5e-4
WORKED_ROWS = [
    ("21:07", 8.0, 0.081, 0),
    ("21:22", 8.7, 0.064, 0),
    ("21:37", 8.4, 0.058, 0),
    ("10:42", 6.6, 0.072, 0),
    ("10:57", 5.6, 0.071, 0),
    ("11:12", 4.8, 0.069, 1),
]


@pytest.fixture
def worked_series() -> PatientSeries:
    return series_from_anchors(WORKED_ANCHORS, WORKED_MEALS, patient_id="p-worked")
