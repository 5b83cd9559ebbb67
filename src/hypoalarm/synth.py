"""Seeded synthetic CGM cohorts: meal-driven rises, decays, occasional
daytime lows, emitted in the exact ingestion CSV shape.

The generator is feature-faithful rather than physiology-faithful: whether
a meal ends in a low is decided up front, and the curve is built so the
low is reachable only through a bounded, sustained fall. A hard per-step
rate clamp then guarantees that a high reading now cannot be followed by
a sub-threshold reading within the prediction horizon, which is what
makes the "high BG now" region genuinely safe for a classifier to learn.

A cohort is built one patient at a time. Each patient draws only from its
own seeded substreams and shares nothing with its neighbours, so patient k
is the same bytes in a cohort of any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import ClassVar

import numpy as np

from .cgm_data import EPOCH, SAMPLING_PERIOD_MIN, PatientSeries

# an arbitrary fixed start date, in minutes since `EPOCH`
_COHORT_START_MIN = (datetime(2015, 9, 7) - EPOCH) // timedelta(minutes=1)

# meal slots as minutes into a day: breakfast, lunch, dinner
_SLOTS = ((435.0, 505.0), (705.0, 780.0), (1050.0, 1140.0))

_PHI = 0.8  # AR(1) coefficient of the sensor noise


@dataclass(frozen=True)
class SynthConfig:
    """The synthetic cohort: its size and seed, and the shape of its curves.

    Only `n_patients` and `seed` can be set; the shape values are class
    constants, also readable from an instance. All rates are (mmol/L)/min.

    `max_drop_rate` stays well under 2.55/15 so a reading at or above 6.45
    mmol/L cannot reach 3.9 within the 15-min lead time (at 0.055 not even
    within the full 25-min horizon), which keeps the high-BG region free of
    alarm labels.
    """

    days_min: ClassVar[int] = 3
    days_max: ClassVar[int] = 4
    meals_per_day_min: ClassVar[int] = 2
    meals_per_day_max: ClassVar[int] = 3
    baseline_min: ClassVar[float] = 7.2
    baseline_max: ClassVar[float] = 9.8
    peak_delay_mean: ClassVar[float] = 45.0   # minutes from meal to peak
    peak_delay_sd: ClassVar[float] = 18.0
    rise_min: ClassVar[float] = 2.0           # meal excursion, mmol/L
    rise_max: ClassVar[float] = 6.0
    decay_rate_min: ClassVar[float] = 0.020   # drift back toward baseline
    decay_rate_max: ClassVar[float] = 0.050
    hypo_pressure: ClassVar[float] = 0.10     # per-meal probability of a post-meal low
    nadir_min: ClassVar[float] = 2.6          # depth of a low, mmol/L
    nadir_max: ClassVar[float] = 3.6
    nadir_delay_min: ClassVar[float] = 155.0  # minutes from meal to the low
    nadir_delay_max: ClassVar[float] = 215.0
    nadir_plateau_min: ClassVar[float] = 5.0  # dwell at the low before recovery
    nadir_plateau_max: ClassVar[float] = 25.0
    dip_fall_rate_min: ClassVar[float] = 0.030
    dip_fall_rate_max: ClassVar[float] = 0.045
    recovery_rate_min: ClassVar[float] = 0.022
    recovery_rate_max: ClassVar[float] = 0.050
    max_drop_rate: ClassVar[float] = 0.055    # hard per-step clamp
    max_rise_rate: ClassVar[float] = 0.35
    noise_sd: ClassVar[float] = 0.12          # stationary sd of the AR(1) sensor noise
    noise_clip: ClassVar[float] = 0.28        # absolute cap on the noise, mmol/L
    missing_prob: ClassVar[float] = 0.01
    bg_floor: ClassVar[float] = 2.0
    bg_ceil: ClassVar[float] = 20.0
    n_patients: int = 33
    seed: int = 0

    def __post_init__(self):
        for name in ("n_patients", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # bool and float are not counts
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_patients < 1:
            raise ValueError(f"degenerate config: need >= 1 patient, got {self.n_patients}")


def generate_cohort(cfg: SynthConfig) -> list[PatientSeries]:
    """Deterministic cohort for a seed; patients use independent substreams,
    so patient k's series does not depend on the cohort size."""
    return [_patient(cfg, pidx) for pidx in range(cfg.n_patients)]


def _patient(cfg: SynthConfig, pidx: int) -> PatientSeries:
    # Independent substreams so that raising hypo_pressure only flips
    # per-meal dip decisions without shifting any other draw.
    rng_struct = np.random.default_rng([cfg.seed, pidx, 0])
    rng_dip = np.random.default_rng([cfg.seed, pidx, 1])
    rng_params = np.random.default_rng([cfg.seed, pidx, 2])
    rng_noise = np.random.default_rng([cfg.seed, pidx, 3])

    n_days = int(rng_struct.integers(cfg.days_min, cfg.days_max + 1))
    baseline = float(rng_struct.uniform(cfg.baseline_min, cfg.baseline_max))
    u = rng_struct.random()
    dm_type = "type1" if u < 0.64 else ("type2" if u < 0.94 else "other")

    meal_minutes: list[int] = []
    for day in range(n_days):
        n_meals = int(rng_struct.integers(cfg.meals_per_day_min, cfg.meals_per_day_max + 1))
        slots = [rng_struct.uniform(lo, hi) for lo, hi in _SLOTS]
        pick = sorted(rng_struct.permutation(len(_SLOTS))[:n_meals])
        meal_minutes += [day * 1440 + SAMPLING_PERIOD_MIN * round(slots[j] / SAMPLING_PERIOD_MIN)
                         for j in pick]
    meal_minutes.sort()

    total_min = n_days * 1440
    anchors_t = [0.0]
    anchors_v = [baseline]

    def push(t: float, v: float) -> None:
        if t > anchors_t[-1]:
            anchors_t.append(float(t))
            anchors_v.append(float(v))

    def relax(to_t: float) -> float:
        # drift back toward baseline between excursions
        elapsed = to_t - anchors_t[-1]
        return baseline + (anchors_v[-1] - baseline) * math.exp(-elapsed / 240.0)

    for k, meal in enumerate(meal_minutes):
        next_meal = meal_minutes[k + 1] if k + 1 < len(meal_minutes) else total_min + 1440
        cap = next_meal - SAMPLING_PERIOD_MIN

        # one fixed block of draws per meal; the dip flag selects among them
        peak_delay = min(max(rng_params.normal(cfg.peak_delay_mean, cfg.peak_delay_sd), 15.0),
                         115.0)
        rise = float(rng_params.uniform(cfg.rise_min, cfg.rise_max))
        dip_rise = float(rng_params.uniform(1.0, 3.0))
        decay_rate = float(rng_params.uniform(cfg.decay_rate_min, cfg.decay_rate_max))
        post_level = baseline + float(rng_params.uniform(-0.3, 1.3))
        nadir = float(rng_params.uniform(cfg.nadir_min, cfg.nadir_max))
        nadir_delay = float(rng_params.uniform(cfg.nadir_delay_min, cfg.nadir_delay_max))
        plateau = float(rng_params.uniform(cfg.nadir_plateau_min, cfg.nadir_plateau_max))
        fall_rate = float(rng_params.uniform(cfg.dip_fall_rate_min, cfg.dip_fall_rate_max))
        recovery_rate = float(rng_params.uniform(cfg.recovery_rate_min, cfg.recovery_rate_max))

        dip = bool(rng_dip.random() < cfg.hypo_pressure)

        v_meal = relax(meal)
        push(meal, v_meal)

        points: list[tuple[float, float]] = []
        if dip:
            t_peak = meal + min(peak_delay, 50.0)
            t_nadir = meal + nadir_delay
            # cap the peak so the fall to the nadir stays under the clamp
            v_peak = min(v_meal + dip_rise, nadir + fall_rate * (t_nadir - t_peak))
            if v_peak > v_meal:
                points.append((t_peak, v_peak))
            points.append((t_nadir, nadir))
            points.append((t_nadir + plateau, nadir))
            points.append((t_nadir + plateau + (post_level - nadir) / recovery_rate, post_level))
        else:
            t_peak = meal + peak_delay
            v_peak = min(v_meal + rise, cfg.bg_ceil - 1.0)
            points.append((t_peak, v_peak))
            if v_peak > post_level:
                points.append((t_peak + (v_peak - post_level) / decay_rate, post_level))

        for t_pt, v_pt in points:
            t_prev, v_prev = anchors_t[-1], anchors_v[-1]
            if t_pt <= cap:
                push(t_pt, v_pt)
            else:
                if cap > t_prev:
                    frac = (cap - t_prev) / (t_pt - t_prev)
                    push(cap, v_prev + frac * (v_pt - v_prev))
                break

    push(total_min, relax(total_min))

    n_samples = total_min // SAMPLING_PERIOD_MIN
    grid = np.arange(n_samples) * SAMPLING_PERIOD_MIN
    curve = np.interp(grid, anchors_t, anchors_v)
    ref_jitter = rng_params.normal(0.0, 0.25, len(meal_minutes))

    # AR(1) sensor noise: smooth enough that the rate clamp rarely bites
    eps_sd = cfg.noise_sd * math.sqrt(1.0 - _PHI * _PHI)
    eps = rng_noise.normal(0.0, eps_sd, n_samples).tolist()
    level = rng_noise.normal(0.0, cfg.noise_sd)
    noise = np.array([level := _PHI * level + e for e in eps])  # level = phi * level + eps
    bg = _clamp(cfg, np.clip(noise, -cfg.noise_clip, cfg.noise_clip, out=noise) + curve)
    # dropouts come from the patient's fifth substream, which nothing else draws from
    bg[np.random.default_rng([cfg.seed, pidx, 4]).random(n_samples) < cfg.missing_prob] = np.nan

    meal_idx = np.array(meal_minutes, dtype=np.int64) // SAMPLING_PERIOD_MIN
    meal_ref = np.full(n_samples, np.nan)
    meal_ref[meal_idx] = np.maximum(cfg.bg_floor, curve[meal_idx] + ref_jitter)
    samples = np.column_stack((_COHORT_START_MIN + grid, bg, meal_ref))
    return PatientSeries(patient_id=f"p{pidx:02d}", samples=samples, dm_type=dm_type)


def _clamp(cfg: SynthConfig, raw: np.ndarray) -> np.ndarray:
    """The sensor clamp: each reading to within `max_drop_rate` and
    `max_rise_rate` of the clamped reading before it, then to the range
    [bg_floor, bg_ceil]. The first reading has no predecessor and is only
    clamped to the range.

    This gives that scalar loop's result, but the loop only walks: it starts
    at each reading that leaves its predecessor's rate band and stops at the
    first reading back inside its band. The walks are exact because:
    - every predecessor lies in [bg_floor, bg_ceil], so clamping to the
      rate band and then to the range equals clamping to their
      intersection;
    - so a range-clamped reading inside its true predecessor's band is the
      result;
    - from that reading on, the range-clamped values stay right until the
      next reading outside the band. A reading that an earlier walk passed
      lies inside its predecessor's band, so a walk from it stops at once;
    - `max` and `min` only select operands, so each reading is the same
      float as in the scalar loop.
    """
    bg = np.clip(raw, cfg.bg_floor, cfg.bg_ceil)
    max_down = cfg.max_drop_rate * SAMPLING_PERIOD_MIN
    max_up = cfg.max_rise_rate * SAMPLING_PERIOD_MIN
    bites = np.flatnonzero((bg[1:] < bg[:-1] - max_down) | (bg[1:] > bg[:-1] + max_up)) + 1
    for i in bites.tolist():
        j, prev = i, bg.item(i - 1)
        while j < len(bg) and not prev - max_down <= bg.item(j) <= prev + max_up:
            prev = bg[j] = min(max(bg.item(j), prev - max_down), prev + max_up)
            j += 1
    return bg
