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
    GlucoseSample,
    PatientSeries,
    PipelineConfig,
    build_instances,
    find_postprandial_peak,
    horizon_label,
    label_hypoglycemia,
    meal_episodes,
    sample_at,
)

from conftest import WORKED_ANCHORS, WORKED_MEALS, series_from_anchors
from oracle_utils import linear_postprandial_peak, linear_sample_at

BASE = datetime(2015, 9, 7, 6, 0)
LEVELS = (3.5, 3.9, 6.2, 9.0, 12.7)
TOLERANCES = (0.0, 0.5, 1.0, 2.0, 2.5, 5.0)


def random_series(rng) -> PatientSeries:
    steps = rng.choice([1, 2, 4, 5, 5, 5, 5, 10, 45], size=int(rng.integers(1, 70)))
    samples = []
    for m in np.cumsum(steps):
        bg = None if rng.random() < 0.25 else float(rng.choice(LEVELS))
        samples.append(GlucoseSample(BASE + timedelta(minutes=int(m)), bg))
    return PatientSeries("r", tuple(samples))


def probe_times(rng, series: PatientSeries) -> list[datetime]:
    times = [s.timestamp for s in series.samples]
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
    def test_matches_linear_scan(self):
        rng = np.random.default_rng(20)
        checked = 0
        for _ in range(60):
            series = random_series(rng)
            for nominal in probe_times(rng, series):
                for tol in TOLERANCES + (float(rng.uniform(0, 6)),):
                    assert sample_at(series, nominal, tol) is linear_sample_at(
                        series, nominal, tol), (nominal, tol)
                    checked += 1
        assert checked > 10_000

    def test_nan_reading_is_rejected_not_a_gap(self):
        with pytest.raises(ValueError, match="range"):
            PatientSeries("p", (GlucoseSample(BASE, 5.0),
                                GlucoseSample(BASE + timedelta(minutes=5), math.nan)))
        with pytest.raises(ValueError, match="range"):
            PatientSeries("p", (GlucoseSample(BASE, 5.0, meal_ref=math.nan),))


class TestPeakOracle:
    @pytest.mark.parametrize("window", [120, 30])
    def test_matches_linear_scan(self, window):
        cfg = PipelineConfig(peak_window_min=window, decision_offsets_min=(window,))
        rng = np.random.default_rng(21)
        for _ in range(60):
            series = random_series(rng)
            for meal in probe_times(rng, series):
                assert find_postprandial_peak(series, meal, cfg) == linear_postprandial_peak(
                    series, meal, window), meal


class TestHorizonOracle:
    def test_matches_linear_scan(self):
        cfg = PipelineConfig()
        rng = np.random.default_rng(22)
        for _ in range(60):
            series = random_series(rng)
            for t in probe_times(rng, series):
                readings = [s.bg for s in (
                    linear_sample_at(series, t + timedelta(minutes=off), cfg.snap_tolerance_min)
                    for off in cfg.horizon_offsets_min) if s is not None]
                expected = (label_hypoglycemia(min(readings)), min(readings)) if readings else None
                assert horizon_label(series, t, cfg) == expected, t


class TestArrayView:
    def test_arrays_mirror_the_samples(self):
        series = random_series(np.random.default_rng(23))
        assert len(series.minutes) == len(series.bg) == len(series.samples)
        assert np.all(np.diff(series.minutes) > 0)
        missing = [s.bg is None for s in series.samples]
        assert np.isnan(series.bg).tolist() == missing
        assert not series.minutes.flags.writeable and not series.bg.flags.writeable

    def test_built_once_per_series(self, monkeypatch):
        calls = {"minutes": 0, "bg": 0}
        for name in calls:
            prop = PatientSeries.__dict__[name]
            build = prop.func

            def counted(self, build=build, name=name):
                calls[name] += 1
                return build(self)

            monkeypatch.setattr(prop, "func", counted)
        series = series_from_anchors(WORKED_ANCHORS, WORKED_MEALS)
        assert build_instances(series)
        meal_episodes(series)
        sample_at(series, series.samples[3].timestamp, 2.5)
        assert calls == {"minutes": 1, "bg": 1}
