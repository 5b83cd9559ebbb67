import csv
import dataclasses
import io
import math
from datetime import time, timedelta

import numpy as np
import pytest

from hypoalarm import (
    DataValidationError,
    PatientSeries,
    PipelineConfig,
    build_instances,
    label_hypoglycemia,
    rate_of_decrease,
    read_feature_csv,
    write_feature_csv,
)
from hypoalarm.features import FEATURE_COLUMNS, csv_table
from hypoalarm.synth import SynthConfig, generate_cohort

from conftest import (
    WORKED_ANCHORS,
    WORKED_MEALS,
    WORKED_ROWS,
    decision_at,
    minutes,
    series_from_anchors,
    ts,
    ts_minutes,
)
from oracle_utils import EPOCH


def peaks(series):
    """(peak time, peak value) per meal that yields an instance, times in
    minutes."""
    return {inst.meal_time: (inst.peak_time, inst.peak_value)
            for inst in build_instances(series)}


def flat_series(meals, start, end):
    """A full 5-min trace at 6 mmol/L from `start` to `end` with meal rows
    at the `meals` datetimes."""
    rows = []
    t = start
    while t <= end:
        rows.append((minutes(t), 6.0, 6.0 if t in meals else math.nan))
        t += timedelta(minutes=5)
    return PatientSeries("flat", rows)


def decision_times(meal, series, cfg=None):
    """Decision times, as datetimes, of the meal at datetime `meal`."""
    return [EPOCH + timedelta(minutes=inst.decision_time)
            for inst in build_instances(series, cfg) if inst.meal_time == minutes(meal)]


class TestPeak:
    def test_worked_evening_peak(self, worked_series):
        assert peaks(worked_series)[ts_minutes("19:07")] == (ts_minutes("19:32"), 15.7)

    def test_worked_morning_peak(self, worked_series):
        assert peaks(worked_series)[ts_minutes("8:42")] == (ts_minutes("9:17"), 12.7)

    def test_decreasing_bg_peaks_at_the_meal(self):
        series = series_from_anchors([("9:02", 11.0), ("12:02", 5.0)], {"9:02": 10.8},
                                     start="9:02", end="12:02")
        assert peaks(series) == {ts_minutes("9:02"): (ts_minutes("9:02"), 11.0)}

    def test_earliest_tie_wins(self):
        series = series_from_anchors(
            [("9:02", 10.0), ("9:27", 15.7), ("9:52", 15.7), ("11:02", 8.0)], {"9:02": 9.0},
            start="9:02", end="12:02")
        # interpolation keeps the plateau at 15.7 between the two anchors
        assert peaks(series) == {ts_minutes("9:02"): (ts_minutes("9:27"), 15.7)}

    def test_empty_window_is_none(self):
        # every reading of the meal's 2 h window is missing; later decisions
        # have their reading and horizon but no peak to measure from
        window = [f"{h}:{m:02d}" for h in (9, 10) for m in range(2, 60, 5)] + ["11:02"]
        series = series_from_anchors([("9:02", 10.0), ("13:02", 10.0)], {"9:02": 9.0},
                                     start="9:02", end="13:02", missing=window)
        assert build_instances(series) == []
        series = series_from_anchors([("9:02", 10.0), ("13:02", 10.0)], {"9:02": 9.0},
                                     start="9:02", end="13:02", missing=window[:-1])
        assert peaks(series) == {ts_minutes("9:02"): (ts_minutes("11:02"), 10.0)}


class TestDecisionGrid:
    def test_first_three_evening_decisions(self):
        series = flat_series({ts("19:07")}, ts("19:02"), ts("23:57"))
        assert decision_times(ts("19:07"), series)[:3] == [ts("21:07"), ts("21:22"), ts("21:37")]

    def test_morning_rows(self):
        series = flat_series({ts("8:42")}, ts("8:42"), ts("12:57"))
        grid = decision_times(ts("8:42"), series)
        assert ts("10:42") in grid and ts("10:57") in grid and ts("11:12") in grid
        assert len(grid) == 7

    def test_late_meal_truncates_at_daytime_end(self):
        # horizons must end by 23:00, so only the 20:30 meal's first decision survives
        series = flat_series({ts("20:30")}, ts("20:30"), ts("23:55"))
        grid = decision_times(ts("20:30"), series)
        assert grid == [ts("22:30")]
        assert all(t + timedelta(minutes=25) <= ts("23:00") for t in grid)

    def test_early_meal_waits_for_daytime_start(self):
        series = flat_series({ts("4:00", day=8)}, ts("4:00", day=8), ts("8:00", day=8))
        grid = decision_times(ts("4:00", day=8), series)
        assert grid == [ts(hhmm, day=8) for hhmm in ("6:45", "7:00", "7:15", "7:30")]
        assert all(t + timedelta(minutes=15) >= ts("7:00", day=8) for t in grid)

    def test_next_meal_truncates(self):
        series = flat_series({ts("8:42"), ts("11:12")}, ts("8:42"), ts("14:57"))
        assert decision_times(ts("8:42"), series) == [ts("10:42"), ts("10:57")]

    def test_overnight_horizon_dropped(self):
        series = flat_series({ts("22:00")}, ts("22:00"), ts("2:00", day=8))
        assert build_instances(series) == []
        # with daytime spanning the whole clock only the one horizon across
        # midnight (23:55 to 00:05 after the 23:40 decision) is dropped
        cfg = PipelineConfig(daytime_start=time(0, 0), daytime_end=time(23, 59))
        series = flat_series({ts("21:40")}, ts("21:40"), ts("2:00", day=8))
        grid = decision_times(ts("21:40"), series, cfg)
        assert grid == [ts("21:40") + timedelta(minutes=m) for m in (135, 150, 165, 180, 195, 210)]


class TestHorizonLabel:
    def _instance(self, bgs, missing=()):
        """The decision at 9:00 over readings 9:15/9:20/9:25 (one per `bgs`)."""
        readings = (("9:00", bgs[0]), ("9:15", bgs[0]), ("9:20", bgs[1]), ("9:25", bgs[2]))
        rows = [(minutes(ts(hhmm)), None if hhmm in missing else bg) for hhmm, bg in readings]
        return decision_at(rows, minutes(ts("9:00")))

    def test_any_low_reading_flags(self):
        inst = self._instance([4.1, 3.8, 4.0])
        assert (inst.label, inst.ph_min_bg) == (1, 3.8)

    def test_all_high_readings_stay_zero(self):
        inst = self._instance([8.0, 7.7, 7.5])
        assert (inst.label, inst.ph_min_bg) == (0, 7.5)

    def test_all_missing_is_none(self):
        assert self._instance([8.0, 7.7, 7.5], missing=("9:15", "9:20", "9:25")) is None

    def test_partial_horizon_still_labels(self):
        inst = self._instance([8.0, 3.5, 7.5], missing=("9:20",))
        assert (inst.label, inst.ph_min_bg) == (0, 7.5)


class TestRate:
    def test_worked_evening_rate(self):
        assert rate_of_decrease(15.7, ts_minutes("19:32"), 8.0, ts_minutes("21:07")) == pytest.approx(
            0.081, abs=5e-4)

    def test_worked_morning_rate(self):
        assert rate_of_decrease(12.7, ts_minutes("9:17"), 6.6, ts_minutes("10:42")) == pytest.approx(
            0.072, abs=5e-4)

    def test_no_net_change(self):
        assert rate_of_decrease(10.0, ts_minutes("9:00"), 10.0, ts_minutes("9:50")) == 0.0

    def test_negative_when_bg_rose_above_peak(self):
        assert rate_of_decrease(10.0, ts_minutes("9:00"), 11.0, ts_minutes("10:00")) < 0

    def test_degenerate_order_rejected(self):
        with pytest.raises(ValueError):
            rate_of_decrease(10.0, ts_minutes("9:00"), 9.0, ts_minutes("9:00"))
        with pytest.raises(ValueError):
            rate_of_decrease(10.0, ts_minutes("9:00"), 9.0, ts_minutes("8:55"))

    def test_elementwise_matches_scalar(self):
        rng = np.random.default_rng(7)
        peak_value = rng.choice([3.9, 6.2, 12.7, 15.7], 300)
        x = np.append(rng.uniform(2.0, 20.0, 200), np.full(100, 3.9))
        peak_time = ts_minutes("9:00") + rng.integers(0, 600, 300)
        decision = peak_time + rng.integers(1, 300, 300)
        rates = rate_of_decrease(peak_value, peak_time, x, decision)
        columns = (peak_value.tolist(), peak_time.tolist(), x.tolist(), decision.tolist())
        assert rates.tolist() == [rate_of_decrease(*args) for args in zip(*columns)]
        assert rates.tolist() == [(p - c) / (t - s) for p, s, c, t in zip(*columns)]

    @pytest.mark.parametrize("elapsed", [0.0, -5.0, math.nan])
    def test_any_non_positive_elapsed_rejected(self, elapsed):
        peak_time = np.full(4, ts_minutes("9:00"))
        decision = peak_time + np.array([5.0, 30.0, 60.0, 90.0])
        assert (rate_of_decrease(10.0, peak_time, 9.0, decision) > 0).all()
        decision[2] = peak_time[2] + elapsed
        with pytest.raises(ValueError, match="after the peak"):
            rate_of_decrease(10.0, peak_time, 9.0, decision)


class TestBuildInstances:
    def test_worked_rows(self, worked_series):
        instances = {i.decision_time: i for i in build_instances(worked_series)}
        for hhmm, x_t, rate, label in WORKED_ROWS:
            inst = instances[ts_minutes(hhmm)]
            assert inst.x_t == pytest.approx(x_t, abs=1e-9)
            assert inst.rate == pytest.approx(rate, abs=5e-4)
            assert inst.label == label

    def test_instance_counts_per_meal(self, worked_series):
        instances = build_instances(worked_series)
        morning = [i for i in instances if i.meal_time == ts_minutes("8:42")]
        evening = [i for i in instances if i.meal_time == ts_minutes("19:07")]
        assert len(morning) == 7   # full grid fits the day
        assert len(evening) == 6   # the 22:37 decision would see past 23:00

    def test_ordering(self, worked_series):
        instances = build_instances(worked_series)
        keys = [(i.meal_time, i.decision_time) for i in instances]
        assert keys == sorted(keys)

    def test_no_meals_means_no_instances(self):
        series = series_from_anchors([("9:02", 8.0), ("12:02", 8.0)],
                                     start="9:02", end="12:02")
        assert build_instances(series) == []

    def test_zero_meals_marker_required(self, worked_series):
        assert list(peaks(worked_series)) == [ts_minutes("8:42"), ts_minutes("19:07")]
        assert peaks(worked_series)[ts_minutes("8:42")][1] == 12.7

    def test_rate_times_dt_recovers_bg_drop(self, worked_series):
        for inst in build_instances(worked_series):
            dt = inst.decision_time - inst.peak_time
            assert inst.rate * dt == pytest.approx(inst.peak_value - inst.x_t, abs=1e-9)

    def test_pipeline_invariants_on_synthetic_cohort(self):
        cfg = PipelineConfig()
        offsets = set(cfg.decision_offsets_min)
        for series in generate_cohort(SynthConfig(n_patients=6, seed=11)):
            meals = list(series.meal_times)
            instances = build_instances(series, cfg)
            for inst in instances:
                assert inst.decision_time - inst.meal_time in offsets
                assert inst.decision_time - inst.peak_time >= 5
                start = EPOCH + timedelta(minutes=inst.decision_time + 15)
                end = EPOCH + timedelta(minutes=inst.decision_time + 25)
                assert start.time() >= cfg.daytime_start
                assert end.time() <= cfg.daytime_end
                later = [m for m in meals if m > inst.meal_time]
                if later:
                    assert inst.decision_time < min(later)
                assert inst.label == label_hypoglycemia(inst.ph_min_bg)


class TestFeatureCsv:
    def test_round_trip(self, worked_series):
        instances = build_instances(worked_series)
        buf = io.StringIO()
        write_feature_csv(instances, buf)
        again = read_feature_csv(buf.getvalue())
        assert again == instances

    @pytest.mark.parametrize("patient_id", ["a,b", 'quote"d', "line\nbreak", "cr\rlf\r\n"])
    def test_round_trip_with_csv_special_ids(self, patient_id, tmp_path):
        series = series_from_anchors(WORKED_ANCHORS, WORKED_MEALS, patient_id=patient_id)
        instances = build_instances(series)
        buf = io.StringIO()
        write_feature_csv(instances, buf)
        assert read_feature_csv(buf.getvalue()) == instances
        with open(tmp_path / "f.csv", "w", newline="") as f:
            write_feature_csv(instances, f)
        assert read_feature_csv(tmp_path / "f.csv") == instances

    def test_cr_and_crlf_line_endings_read_like_lf(self, worked_series, tmp_path):
        instances = build_instances(worked_series)
        buf = io.StringIO()
        write_feature_csv(instances, buf)
        for ending in ("\r", "\r\n"):
            (tmp_path / "f.csv").write_bytes(buf.getvalue().replace("\n", ending).encode())
            assert read_feature_csv(tmp_path / "f.csv") == instances

    def test_bad_header_rejected(self):
        with pytest.raises(DataValidationError, match="header"):
            read_feature_csv("a,b\n")

    def test_bad_label_rejected(self, worked_series):
        instances = build_instances(worked_series)
        buf = io.StringIO()
        write_feature_csv(instances, buf)
        mangled = buf.getvalue().replace(",0\n", ",2\n", 1)
        with pytest.raises(DataValidationError, match="label"):
            read_feature_csv(mangled)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["peak_value", "x_t", "rate", "ph_min_bg"])
    def test_non_finite_cell_rejected_on_its_row(self, worked_series, column, value):
        instances = build_instances(worked_series)
        instances[1] = dataclasses.replace(instances[1], **{column: value})
        buf = io.StringIO()
        write_feature_csv(instances, buf)
        with pytest.raises(DataValidationError,
                           match=f"^row 3: {column} must be a finite number, got '{value!r}'$"):
            read_feature_csv(buf.getvalue())

    def test_table_writer_quotes_minimally_and_a_cr_row_whole(self):
        rows = [["a,b", 'q"d', "n\nl"], ["1", "x", "c\rr"], ["2", "", "3.5"]]
        text = csv_table(("id", "k", "v"), rows)
        assert text == 'id,k,v\n"a,b","q""d","n\nl"\n"1","x","c\rr"\n2,,3.5\n'
        assert list(csv.reader(io.StringIO(text, newline=""))) == [["id", "k", "v"], *rows]

    def test_oversized_cell_is_a_data_error(self):
        text = ",".join(FEATURE_COLUMNS) + '\n"' + "p" * 200_000 + '",' + ",".join("1" * 8) + "\n"
        with pytest.raises(DataValidationError,
                           match=r"^row 2: field larger than field limit \(131072\)$"):
            read_feature_csv(text)
