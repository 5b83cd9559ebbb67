"""The array-backed series lookups against linear-scan reference versions.

Random series carry gaps (missing readings and irregular spacing), repeated
BG levels (peak ties) and close sample pairs (equal-distance snapping ties).
Probe times include sample times, midpoints between samples, quarter-minute
and microsecond fractions, and times beyond both ends of the series.
"""

import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from hypoalarm import (
    PatientSeries,
    PipelineConfig,
    find_postprandial_peak,
    horizon_label,
    label_hypoglycemia,
)

from conftest import minutes
from oracle_utils import linear_postprandial_peak, linear_sample_at, timed_rows

BASE = datetime(2015, 9, 7, 6, 0)
LEVELS = (3.5, 3.9, 6.2, 9.0, 12.7)
TOLERANCES = (0.0, 0.5, 1.0, 2.0, 2.5, 5.0)


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


class TestSampleAtOracle:
    """`PatientSeries.nearest_present`, the snapped reading at a time."""

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(20)
        checked = 0
        for _ in range(60):
            series = random_series(rng)
            rows = timed_rows(series)
            for nominal in probe_times(rng, series):
                for tol in TOLERANCES + (float(rng.uniform(0, 6)),):
                    assert series.nearest_present(nominal, tol) == linear_sample_at(
                        rows, nominal, tol), (nominal, tol)
                    checked += 1
        assert checked > 10_000

    def test_nan_reading_is_a_gap_inf_and_41_are_rejected(self):
        t0, t1 = minutes(BASE), minutes(BASE) + 5
        series = PatientSeries("p", [(t0, 5.0, math.nan), (t1, math.nan, math.nan)])
        assert series.missing_count == 1 and series.meal_times == ()
        assert series.nearest_present(BASE + timedelta(minutes=5), 2.5) is None
        for bad in (math.inf, -math.inf, 41.0):
            with pytest.raises(ValueError, match="range"):
                PatientSeries("p", [(t0, 5.0, math.nan), (t1, bad, math.nan)])
            with pytest.raises(ValueError, match="range"):
                PatientSeries("p", [(t0, 5.0, bad)])


class TestPeakOracle:
    @pytest.mark.parametrize("window", [120, 30])
    def test_matches_linear_scan(self, window):
        cfg = PipelineConfig(peak_window_min=window, decision_offsets_min=(window,))
        rng = np.random.default_rng(21)
        for _ in range(60):
            series = random_series(rng)
            rows = timed_rows(series)
            for meal in probe_times(rng, series):
                assert find_postprandial_peak(series, meal, cfg) == linear_postprandial_peak(
                    rows, meal, window), meal


class TestHorizonOracle:
    def test_matches_linear_scan(self):
        cfg = PipelineConfig()
        rng = np.random.default_rng(22)
        for _ in range(60):
            series = random_series(rng)
            rows = timed_rows(series)
            for t in probe_times(rng, series):
                hits = (linear_sample_at(rows, t + timedelta(minutes=off), cfg.snap_tolerance_min)
                        for off in cfg.horizon_offsets_min)
                readings = [rows[i][1] for i in hits if i is not None]
                expected = (label_hypoglycemia(min(readings)), min(readings)) if readings else None
                assert horizon_label(series, t, cfg) == expected, t


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
