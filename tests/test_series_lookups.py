"""`build_instances` and its snapping helper against loop-based references.

Random series carry gaps (missing readings and irregular spacing), repeated
BG levels (peak ties) and close sample pairs (equal-distance snapping ties).
Snap probes include sample times, midpoints between samples, quarter-minute
and microsecond fractions, and times beyond both ends of the series. Meals
fall at random samples and near the daytime edges, across midnight, back to
back and on the last sample.
"""

import dataclasses
import math
from datetime import datetime, time, timedelta

import numpy as np
import pytest

from hypoalarm import PatientSeries, PipelineConfig, SynthConfig, build_instances, generate_cohort
from hypoalarm.features import _snap

from conftest import decision_at, minutes, series_from_anchors
from oracle_utils import linear_sample_at, loop_build_instances, timed_rows

BASE = datetime(2015, 9, 7, 6, 0)
LEVELS = (3.5, 3.9, 6.2, 9.0, 12.7)
TOLERANCES = (0.0, 0.5, 1.0, 2.0, 2.5, 5.0)
# minute of day near which meals are placed: decisions whose horizon meets
# 07:00 or 23:00, a horizon across midnight, and a meal just before midnight
EDGE_MEALS = (285, 420, 1235, 1300, 1430)


def random_series(rng) -> PatientSeries:
    steps = rng.choice([1, 2, 4, 5, 5, 5, 5, 10, 45], size=int(rng.integers(1, 70)))
    rows = []
    for m in np.cumsum(steps):
        bg = math.nan if rng.random() < 0.25 else float(rng.choice(LEVELS))
        rows.append((minutes(BASE) + int(m), bg, math.nan))
    return PatientSeries("r", rows)


def probe_times(rng, series: PatientSeries) -> list[datetime]:
    times = [timestamp for timestamp, _ in timed_rows(series)]
    probes = list(times)
    probes += [a + (b - a) / 2 for a, b in zip(times, times[1:])]  # equal-distance ties
    first, last = times[0], times[-1]
    span = (last - first) / timedelta(minutes=1) + 60
    for _ in range(30):
        quarter = int(rng.integers(0, 4 * span)) / 4
        probes.append(first - timedelta(minutes=30) + timedelta(minutes=quarter))
        micros = int(rng.integers(0, int(span * 60e6)))
        probes.append(first - timedelta(minutes=30) + timedelta(microseconds=micros))
    probes += [first - timedelta(minutes=2, seconds=30), last + timedelta(minutes=2.5),
               first - timedelta(hours=3), last + timedelta(hours=3)]
    return probes


def random_meal_series(rng) -> PatientSeries:
    """Up to two days of whole-minute samples, steps of 1-45 min (mostly 5),
    a quarter of the readings missing, meals as described above. BG takes
    repeated levels, or rises in 0.1 steps so that peaks sit at the end of
    the peak window, next to the first decision."""
    n = int(rng.integers(1, 500))
    steps = np.where(rng.random(n) < 0.8, 5, rng.integers(1, 46, size=n))
    times = minutes(datetime(2015, 9, 7)) + int(rng.integers(0, 1440)) + np.cumsum(steps)
    if rng.random() < 0.3:
        bg = np.round(np.linspace(2.0, 20.0, n), 1)
    else:
        bg = rng.choice(LEVELS, size=n)
    bg[rng.random(n) < 0.25] = np.nan
    meal = rng.random(n) < 0.008
    for day in range(int(times[0] // 1440), int(times[-1] // 1440) + 1):
        for edge in EDGE_MEALS:
            if rng.random() < 0.2:
                meal[np.argmin(np.abs(times - (1440 * day + edge + rng.integers(-10, 11))))] = True
    if meal.any() and rng.random() < 0.3:  # back to back
        meal[min(int(rng.choice(np.flatnonzero(meal))) + 1, n - 1)] = True
    if rng.random() < 0.3:
        meal[-1] = True
    meal_ref = np.where(meal, rng.choice(LEVELS, size=n), np.nan)
    return PatientSeries("r", np.column_stack([times, bg, meal_ref]))


def assert_matches_loop(rng, cfg, count) -> int:
    """Compare `count` random series; returns how many instances matched."""
    emitted = 0
    for k in range(count):
        series = random_meal_series(rng)
        instances = build_instances(series, cfg)
        assert instances == loop_build_instances(series, cfg), k
        emitted += len(instances)
    return emitted


# frozen `PipelineConfig` subclasses, each overriding the class constants of
# one rule `build_instances` reads; the oracle reads each from the config too.
# A horizon moves the lead with it: `lead_time_min` is its first offset.
SEAMS = {
    "hypo_threshold": {"hypo_threshold": 4.6},
    "horizon_alone": {"horizon_offsets_min": (60, 65, 70)},
    "lead_and_horizon": {"horizon_offsets_min": (30, 35, 40)},
    "grid_and_peak_window": {"decision_offsets_min": (90, 100, 110, 125, 140),
                             "peak_window_min": 90},
    "daytime": {"daytime_start": time(9, 30), "daytime_end": time(20, 15)},
    "snap_tolerance": {"snap_tolerance_min": 0.0},
}


def seam_config(name: str) -> PipelineConfig:
    assert set(SEAMS[name]) <= set(vars(PipelineConfig))  # overrides, not new names
    return dataclasses.dataclass(frozen=True)(
        type(f"{name}_config", (PipelineConfig,), SEAMS[name]))()


def early_meal_series() -> PatientSeries:
    """A falling trace with a meal at 04:30: its first decision, 06:30, has a
    horizon that starts before 07:00 at offset 15 but not at offset 60."""
    anchors = [("4:00", 8.0), ("4:45", 11.0), ("9:00", 3.2), ("10:00", 3.0)]
    return series_from_anchors(anchors, {"4:30": 8.5}, start="4:00", end="10:00")


class TestSampleAtOracle:
    """`_snap`, the reading nearest a time, against a scan of every row."""

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(20)
        checked = 0
        for _ in range(60):
            series = random_series(rng)
            present = np.flatnonzero(~np.isnan(series.bg))
            if not len(present):
                continue
            rows = timed_rows(series)
            probes = probe_times(rng, series)
            times = np.array([minutes(p) for p in probes])
            for tol in TOLERANCES + (float(rng.uniform(0, 6)),):
                got = _snap(series.minutes[present], present.astype(float), times, tol)
                for nominal, index in zip(probes, got.tolist()):
                    expected = linear_sample_at(rows, nominal, tol)
                    assert (math.isnan(index) if expected is None else index == expected), (
                        nominal, tol)
                    checked += 1
        assert checked > 10_000

    def test_nan_reading_is_a_gap_inf_and_41_are_rejected(self):
        t0, t1 = minutes(BASE) + 180, minutes(BASE) + 185  # 09:00, 09:05
        series = PatientSeries("p", [(t0, 5.0, math.nan), (t1, math.nan, math.nan)])
        assert series.missing_count == 1 and len(series.meal_times) == 0
        horizon = [(t1 + h, 6.0) for h in (15, 20, 25)]
        assert decision_at([(t0, 5.0), (t1, math.nan)] + horizon, t1) is None
        assert decision_at([(t0, 5.0), (t1, 6.0)] + horizon, t1).x_t == 6.0
        for bad in (math.inf, -math.inf, 41.0):
            with pytest.raises(ValueError, match="range"):
                PatientSeries("p", [(t0, 5.0, math.nan), (t1, bad, math.nan)])
            with pytest.raises(ValueError, match="range"):
                PatientSeries("p", [(t0, 5.0, bad)])


class TestPeakOracle:
    @pytest.mark.parametrize("window", [120])
    def test_matches_linear_scan(self, window):
        cfg = PipelineConfig()
        assert cfg.peak_window_min == window
        assert assert_matches_loop(np.random.default_rng(21), cfg, 40) > 40


class TestBuildInstancesOracle:
    """The array pass against the loop, under the default config and under
    frozen subclasses that override the rules it reads."""

    def test_matches_loop_on_random_series(self):
        assert assert_matches_loop(np.random.default_rng(24), PipelineConfig(), 200) > 400

    def test_series_without_present_readings_or_meals(self):
        cfg = PipelineConfig()
        series = random_meal_series(np.random.default_rng(25))
        no_reading = PatientSeries("r", np.column_stack(
            [series.minutes, np.full(len(series.bg), np.nan), np.full(len(series.bg), 6.0)]))
        no_meal = PatientSeries("r", np.column_stack(
            [series.minutes, series.bg, np.full(len(series.bg), np.nan)]))
        for edge in (no_reading, no_meal, PatientSeries("r", np.empty((0, 3)))):
            assert build_instances(edge, cfg) == loop_build_instances(edge, cfg) == []

    @pytest.fixture(scope="class")
    def seam_records(self):
        """The early-meal record, two synth cohorts, and random off-grid series."""
        rng = np.random.default_rng(26)
        return ([early_meal_series()]
                + [series for seed in (7, 11)
                   for series in generate_cohort(SynthConfig(n_patients=6, seed=seed))]
                + [random_meal_series(rng) for _ in range(30)])

    @pytest.mark.parametrize("name", SEAMS)
    def test_config_subclass_matches_loop(self, seam_records, name):
        cfg = seam_config(name)
        for series in seam_records:
            assert build_instances(series, cfg) == loop_build_instances(series, cfg), (
                series.patient_id)

    def test_config_subclass_changes_what_is_emitted(self, seam_records):
        """Each seam case moves the table off the default's, so the
        comparison above is not one of two unchanged tables."""
        default = [build_instances(series) for series in seam_records]
        for name in SEAMS:
            cfg = seam_config(name)
            assert [build_instances(series, cfg) for series in seam_records] != default, name

    def test_horizon_start_follows_the_offsets(self):
        series = early_meal_series()
        cfg = seam_config("horizon_alone")
        default = build_instances(series)
        moved = build_instances(series, cfg)
        assert len(default) == 6 and len(moved) == 7
        assert cfg.lead_time_min == 60  # the lead moves with the horizon
        assert moved[0].decision_time == series.meal_times[0] + 120


class TestArrayView:
    def test_arrays_mirror_the_samples(self):
        rows = random_series(np.random.default_rng(23)).samples.tolist()
        source = np.array(rows)
        series = PatientSeries("r", source)
        source[0, 1] = 1.0  # the series holds its own copy
        assert series.samples.shape == (len(rows), 3)
        assert np.array_equal(series.samples, rows, equal_nan=True)
        for col, column in enumerate((series.minutes, series.bg, series.meal_ref)):
            assert np.shares_memory(column, series.samples)
            assert np.array_equal(column, [row[col] for row in rows], equal_nan=True)
            assert not column.flags.writeable
        assert not series.samples.flags.writeable
        assert series.missing_count == sum(math.isnan(row[1]) for row in rows)
