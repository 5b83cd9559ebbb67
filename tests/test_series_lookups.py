"""`build_instances` and its snapping helper against loop-based references.

Random series carry gaps (missing readings and irregular spacing), repeated
BG levels (peak ties) and close sample pairs (equal-distance snapping ties).
Snap probes include sample times, midpoints between samples, quarter-minute
and microsecond fractions, and times beyond both ends of the series. Meals
fall at random samples and near the daytime edges, across midnight, back to
back and on the last sample.
"""

import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from hypoalarm import PatientSeries, PipelineConfig, build_instances
from hypoalarm.features import _snap

from conftest import decision_at, minutes
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
