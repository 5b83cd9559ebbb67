"""Seeded synthetic CGM cohorts: meal-driven rises, decays, occasional
daytime lows, emitted in the exact ingestion CSV shape.

The generator is feature-faithful rather than physiology-faithful: whether
a meal ends in a low is decided up front, and the curve is built so the
low is reachable only through a bounded, sustained fall. A hard per-step
rate clamp then guarantees that a high reading now cannot be followed by
a sub-threshold reading within the prediction horizon, which is what
makes the "high BG now" region genuinely safe for a classifier to learn.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from datetime import date

import numpy as np

from .cgm_data import SAMPLING_PERIOD_MIN, PatientSeries

# an arbitrary fixed start date, in minutes since 2000-01-01
_COHORT_START_MIN = (date(2015, 9, 7) - date(2000, 1, 1)).days * 1440

# meal slots as minutes into a day: breakfast, lunch, dinner
_SLOTS = ((435.0, 505.0), (705.0, 780.0), (1050.0, 1140.0))


@dataclass(frozen=True)
class SynthConfig:
    """Cohort shape parameters; all rates are (mmol/L)/min.

    Every float field must be finite, every rate > 0, every `*_sd` >= 0 and
    every `*_min` at most its `*_max`.

    `max_drop_rate` stays well under 2.55/15 so a reading at or above 6.45
    mmol/L cannot reach 3.9 within the 15-min lead time (at the default
    0.055 not even within the full 25-min horizon), which keeps the
    high-BG region free of alarm labels.
    """

    n_patients: int = 33
    days_min: int = 3
    days_max: int = 4
    meals_per_day_min: int = 2
    meals_per_day_max: int = 3
    baseline_min: float = 7.2
    baseline_max: float = 9.8
    peak_delay_mean: float = 45.0   # minutes from meal to peak
    peak_delay_sd: float = 18.0
    rise_min: float = 2.0           # meal excursion, mmol/L
    rise_max: float = 6.0
    decay_rate_min: float = 0.020   # drift back toward baseline
    decay_rate_max: float = 0.050
    hypo_pressure: float = 0.10     # per-meal probability of a post-meal low
    nadir_min: float = 2.6          # depth of a low, mmol/L
    nadir_max: float = 3.6
    nadir_delay_min: float = 155.0  # minutes from meal to the low
    nadir_delay_max: float = 215.0
    nadir_plateau_min: float = 5.0  # dwell at the low before recovery
    nadir_plateau_max: float = 25.0
    dip_fall_rate_min: float = 0.030
    dip_fall_rate_max: float = 0.045
    recovery_rate_min: float = 0.022
    recovery_rate_max: float = 0.050
    max_drop_rate: float = 0.055    # hard per-step clamp
    max_rise_rate: float = 0.35
    noise_sd: float = 0.12          # stationary sd of the AR(1) sensor noise
    noise_clip: float = 0.28        # absolute cap on the noise, mmol/L
    missing_prob: float = 0.01
    bg_floor: float = 2.0
    bg_ceil: float = 20.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # each *_min field comes before its *_max
            value = getattr(self, f.name)
            if f.type == "int" and type(value) is not int:  # bool and float are not counts
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if f.type == "float" and not (number and abs(value) <= sys.float_info.max):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
            if "rate" in f.name and not value > 0:
                raise ValueError(f"{f.name} must be > 0, got {value!r}")
            if f.name.endswith("_sd") and not value >= 0:
                raise ValueError(f"{f.name} must be >= 0, got {value!r}")
            if f.name.endswith("_max") and not getattr(self, f.name[:-4] + "_min") <= value:
                raise ValueError(f"{f.name[:-4]}_min must not exceed {f.name}")
        if self.n_patients < 1 or self.days_min < 1:
            raise ValueError("degenerate config: need >= 1 patient and >= 1 day")
        if not 1 <= self.meals_per_day_min <= self.meals_per_day_max <= len(_SLOTS):
            raise ValueError(f"meals per day must fit 1..{len(_SLOTS)}")
        for name in ("hypo_pressure", "missing_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p!r}")
        if not self.max_drop_rate < 2.55 / 15.0:
            raise ValueError("max_drop_rate must stay under 2.55/15 mmol/L per min")
        if self.dip_fall_rate_max >= self.max_drop_rate:
            raise ValueError("dip fall rates must stay under the drop clamp")
        if self.noise_clip < 0:
            raise ValueError(f"noise_clip must be >= 0, got {self.noise_clip!r}")
        if not 0 < self.bg_floor < self.bg_ceil:
            raise ValueError("need 0 < bg_floor < bg_ceil")


def generate_cohort(cfg: SynthConfig) -> list[PatientSeries]:
    """Deterministic cohort for a seed; patients use independent substreams."""
    return [_generate_patient(cfg, i) for i in range(cfg.n_patients)]


def _generate_patient(cfg: SynthConfig, pidx: int) -> PatientSeries:
    # Independent substreams so that raising hypo_pressure only flips
    # per-meal dip decisions without shifting any other draw.
    rng_struct = np.random.default_rng([cfg.seed, pidx, 0])
    rng_dip = np.random.default_rng([cfg.seed, pidx, 1])
    rng_params = np.random.default_rng([cfg.seed, pidx, 2])
    rng_noise = np.random.default_rng([cfg.seed, pidx, 3])
    rng_miss = np.random.default_rng([cfg.seed, pidx, 4])

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
        peak_delay = float(np.clip(rng_params.normal(cfg.peak_delay_mean, cfg.peak_delay_sd),
                                   15.0, 115.0))
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

    # AR(1) sensor noise: smooth enough that the rate clamp below rarely bites
    phi = 0.8
    eps_sd = cfg.noise_sd * math.sqrt(1.0 - phi * phi)
    eps = rng_noise.normal(0.0, eps_sd, n_samples) if cfg.noise_sd > 0 else np.zeros(n_samples)
    noise = np.empty(n_samples)
    level = rng_noise.normal(0.0, cfg.noise_sd) if cfg.noise_sd > 0 else 0.0
    for i in range(n_samples):
        level = phi * level + eps[i]
        noise[i] = level
    noise = np.clip(noise, -cfg.noise_clip, cfg.noise_clip)

    raw = curve + noise
    max_down = cfg.max_drop_rate * SAMPLING_PERIOD_MIN
    max_up = cfg.max_rise_rate * SAMPLING_PERIOD_MIN
    values = raw.tolist()
    prev = min(max(values[0], cfg.bg_floor), cfg.bg_ceil)
    bg = [prev]
    for v in values[1:]:
        v = min(max(v, prev - max_down), prev + max_up)
        v = min(max(v, cfg.bg_floor), cfg.bg_ceil)
        bg.append(v)
        prev = v

    missing = rng_miss.random(n_samples) < cfg.missing_prob
    meal_idx = np.array(meal_minutes, dtype=np.int64) // SAMPLING_PERIOD_MIN
    ref_jitter = rng_params.normal(0.0, 0.25, len(meal_minutes))

    meal_ref = np.full(n_samples, np.nan)
    meal_ref[meal_idx] = np.maximum(cfg.bg_floor, curve[meal_idx] + ref_jitter)
    samples = np.column_stack([_COHORT_START_MIN + grid, np.where(missing, np.nan, bg), meal_ref])
    return PatientSeries(patient_id=f"p{pidx:02d}", samples=samples, dm_type=dm_type)
