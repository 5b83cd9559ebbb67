import csv
import io
import math
import re
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypoalarm import (
    DecisionInstance,
    PatientSeries,
    PipelineConfig,
    alarms,
    build_instances,
    grow_tree,
    label_hypoglycemia,
    read_feature_csv,
    write_feature_csv,
)
from hypoalarm.cgm_data import BG_MAX, DataValidationError, csv_table
from hypoalarm.features import FEATURE_COLUMNS, rate_of_decrease
from hypoalarm.synth import SynthConfig, generate_cohort

from conftest import (
    WORKED_ANCHORS,
    WORKED_MEALS,
    WORKED_ROWS,
    decision_at,
    minutes,
    outcome,
    series_from_anchors,
    ts,
    ts_minutes,
)
from oracle_utils import EPOCH, loop_csv_table, loop_read_feature_csv, loop_write_feature_csv


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


def decision_times(meal, series):
    """Decision times, as datetimes, of the meal at datetime `meal`."""
    return [EPOCH + timedelta(minutes=inst.decision_time)
            for inst in build_instances(series) if inst.meal_time == minutes(meal)]


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
        # the 23:40 decision's horizon, 23:55 to 00:05, crosses midnight. Both
        # ends count from the midnight before 23:55, so it ends at 24:05, after
        # 23:00, though 23:55 comes after 07:00 and 00:05 before 23:00.
        series = flat_series({ts("21:40")}, ts("21:40"), ts("2:00", day=8))
        assert decision_times(ts("21:40"), series) == []


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


def with_samples(series, samples):
    return PatientSeries(series.patient_id, samples, series.dm_type)


class TestCausality:
    """A decision at t reads nothing after t plus the snap tolerance, so
    rewriting every reading after a cut leaves the predictors, and so the
    alarm, of each decision before the cut as they were."""

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_readings_after_a_cut_leave_earlier_decisions(self, seed):
        rng = np.random.default_rng(seed)
        tolerance = PipelineConfig.snap_tolerance_min
        before, again, ahead = [], [], 0
        for series in generate_cohort(SynthConfig(n_patients=3, seed=seed)):
            samples = series.samples.copy()  # off the 5-min grid, still increasing
            samples[:, 0] += rng.uniform(-2.4, 2.4, len(samples))
            series = with_samples(series, samples)
            instances = build_instances(series)
            decisions = np.array([inst.decision_time for inst in instances])
            # cuts anywhere, and just past a decision's reach, where a lookahead would show
            cuts = [*rng.uniform(series.minutes[0], series.minutes[-1], 3),
                    *(rng.choice(decisions, 20) + tolerance + rng.uniform(0.0, 0.5, 20))]
            for cut in cuts:
                later = (series.minutes > cut) & ~np.isnan(series.bg)
                samples = series.samples.copy()
                samples[later, 1] = BG_MAX - rng.uniform(0.0, BG_MAX, later.sum())  # in (0, 40]
                edited = {(inst.meal_time, inst.decision_time): inst
                          for inst in build_instances(with_samples(series, samples))}
                for inst in instances:
                    if inst.decision_time + tolerance < cut:
                        before.append(inst)
                        again.append(edited[inst.meal_time, inst.decision_time])
            present = series.minutes[~np.isnan(series.bg)]
            nearest = present[np.argmin(np.abs(present - decisions[:, None]), axis=1)]
            ahead += int(((nearest > decisions) & (decisions + tolerance < max(cuts))).sum())
        assert [inst[:7] for inst in again] == [inst[:7] for inst in before]
        assert ahead > 0  # some x_t was read after its decision time
        X, y = (np.array([[i.x_t, i.rate] for i in before]), np.array([i.label for i in before]))
        tree = grow_tree(X, y, PipelineConfig.costs, PipelineConfig.prune_depth)
        assert (alarms(tree, [[i.x_t, i.rate] for i in again]) == alarms(tree, X)).all()


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
        instances[1] = instances[1]._replace(**{column: value})
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

    def test_oversized_unquoted_cell_is_a_data_error(self, worked_series):
        buf = io.StringIO()
        write_feature_csv(build_instances(worked_series), buf)
        header, first, rest = buf.getvalue().split("\n", 2)
        text = "\n".join((header, first, "p" * 200_000 + "," + ",".join("1" * 8), rest))
        with pytest.raises(DataValidationError,
                           match=r"^row 3: field larger than field limit \(131072\)$"):
            read_feature_csv(text)

    @pytest.mark.parametrize("char", ["p", "\u00e9"], ids=["ascii", "two_byte"])
    def test_cell_at_the_field_limit_is_read_and_one_past_it_is_not(self, worked_series, char):
        limit = csv.field_size_limit()
        instances = build_instances(worked_series)[:2]
        for length in (limit, limit + 1):
            wide = [instances[0], instances[1]._replace(patient_id=char * length)]
            buf = io.StringIO()
            write_feature_csv(wide, buf)
            assert outcome(read_feature_csv, buf.getvalue()) == (
                wide if length == limit
                else (DataValidationError, f"row 3: field larger than field limit ({limit})"))


class TestDecisionInstance:
    def test_fields_keep_their_order(self):
        assert DecisionInstance._fields == ("patient_id", "meal_time", "peak_time", "peak_value",
                                            "decision_time", "x_t", "rate", "label", "ph_min_bg")

    @pytest.mark.parametrize("name", [*DecisionInstance._fields, "other"])
    def test_assigning_a_field_raises(self, worked_series, name):
        inst = build_instances(worked_series)[0]
        with pytest.raises(AttributeError):
            setattr(inst, name, 1.0)

    def test_equal_to_a_plain_tuple_of_its_values(self, worked_series):
        inst = build_instances(worked_series)[0]
        assert inst == tuple(getattr(inst, name) for name in DecisionInstance._fields)
        assert inst != inst._replace(x_t=inst.x_t + 1.0)


def written(write, instances):
    buf = io.StringIO()
    return outcome(write, instances, buf) or buf.getvalue()


# whole minutes, as int and as float, and fractions of one, all within years 99-9604
MINUTES = st.integers(-10**9, 4 * 10**9)
TIME = MINUTES | MINUTES.map(float) | st.floats(-1e9, 4e9) | st.sampled_from([-0.0, 0.5, True])
# whole minutes, as int and as float, from 1000-01-01T00:00 to 9999-12-31T23:59
WRITABLE_MINUTES = st.integers(-525_948_480, 4_207_593_599)
WRITABLE_TIME = WRITABLE_MINUTES | WRITABLE_MINUTES.map(float)
VALUE = st.floats() | st.integers(-5, 5)
IDS = st.text() | st.text(',"\r\n\t x')
INSTANCES = st.lists(st.builds(
    DecisionInstance, patient_id=IDS, meal_time=TIME, peak_time=TIME, peak_value=VALUE,
    decision_time=TIME, x_t=VALUE, rate=VALUE, label=st.sampled_from((0, 1, True)),
    ph_min_bg=VALUE), max_size=6)

# cells a reader may meet, by column kind; some are valid but not what the writer writes
ODD_CELLS = {
    "label": ["2", "x", "01", "-1", " 1", "1.0", "", "+0", "1_0"],
    "value": ["nan", "inf", "-inf", "1e400", "x", "", " 2.5 ", "1_0", "\u0665"],
    "time": ["2015-9-7T7:05", "2015-02-30T10:00", "2015-09-07T24:00", "2015-09-07t07:05",
             "2015-09-07 07:05", "2015-09-07T07:05:00", "07:05", "", " 2015-09-07T07:05",
             "2015-09-07T07:5", "1999-12-31T23:59", "0999-01-01T00:00", "98-09-03T13:20"],
    "id": ["", ",", '"', "\r", "a\r\nb"],
}
COLUMN_KINDS = ("id", "time", "time", "value", "time", "value", "value", "value", "label")
BLANK_ROWS = ([], [""], ["  "], [" "] * 9, ["", "\t", "\u3000"])


# table rows dense in what `csv.writer` quotes, with empty cells and one-cell rows
TABLE_ROW = st.lists(st.text(',"\r\na ', max_size=3), max_size=4)


@st.composite
def feature_tables(draw):
    """The text of a written feature table, with odd cells, rows of the wrong
    width and blank rows put in, then rewritten with LF, CRLF or CR line ends."""
    instances = draw(st.lists(st.builds(
        DecisionInstance, patient_id=IDS, meal_time=WRITABLE_TIME, peak_time=WRITABLE_TIME,
        peak_value=st.floats(-1e6, 1e6), decision_time=WRITABLE_TIME, x_t=st.floats(0, 40),
        rate=st.floats(-1, 1), label=st.sampled_from((0, 1)), ph_min_bg=st.floats(0, 40)),
        max_size=5))
    buf = io.StringIO()
    loop_write_feature_csv(instances, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue(), newline="")))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(rows)))
        edit = draw(st.sampled_from(("cell", "cell", "width", "blank")))
        if edit == "blank":
            rows.insert(at, list(draw(st.sampled_from(BLANK_ROWS))))
        elif at < len(rows) and rows[at]:
            row = rows[at]
            if edit == "cell":
                column = draw(st.integers(0, len(row) - 1))
                row[column] = draw(st.sampled_from(ODD_CELLS[COLUMN_KINDS[column % 9]]))
            elif draw(st.booleans()):
                del row[draw(st.integers(0, len(row) - 1))]
            else:
                row.append(draw(st.sampled_from(("", "1"))))
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(("\n", "\r\n", "\r"))),
               quoting=draw(st.sampled_from((csv.QUOTE_MINIMAL, csv.QUOTE_ALL)))).writerows(rows)
    return out.getvalue()


class TestOnlyReadableTimesAreWritten:
    """`write_feature_csv` writes a time only as a cell that `read_feature_csv`
    gives back: a whole minute in the years 1000-9999. Any other time raises,
    naming the first bad instance and column in row order."""

    @pytest.mark.parametrize("time, problem", [
        (ts_minutes("8:00") + 0.5, "is not a whole minute"),  # would be written 08:00
        (minutes(datetime(999, 12, 31, 23, 59)), "is outside the years 1000-9999"),
        (minutes(datetime(9999, 12, 31, 23, 59)) + 1, "is outside the years 1000-9999"),
    ], ids=["half_minute", "year_999", "year_10000"])
    @pytest.mark.parametrize("column", ["meal_time", "peak_time", "decision_time"])
    def test_the_bad_time_is_named(self, worked_series, column, time, problem):
        instances = build_instances(worked_series)
        instances[2] = instances[2]._replace(**{column: time})
        with pytest.raises(ValueError, match=rf"^instance 2 {column} at minute "
                                             rf"{re.escape(repr(time))} {problem}$"):
            write_feature_csv(instances, io.StringIO())

    def test_the_first_bad_row_wins_over_a_bad_earlier_column_in_a_later_row(
            self, worked_series):
        instances = build_instances(worked_series)
        instances[1] = instances[1]._replace(decision_time=instances[1].decision_time + 0.5)
        instances[3] = instances[3]._replace(meal_time=math.nan)
        with pytest.raises(ValueError, match=r"^instance 1 decision_time at minute [\d.]+ is "
                                             r"not a whole minute$"):
            write_feature_csv(instances, io.StringIO())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(
        DecisionInstance, patient_id=IDS, meal_time=TIME, peak_time=TIME,
        peak_value=st.floats(-1e6, 1e6), decision_time=TIME, x_t=st.floats(0, 40),
        rate=st.floats(-1, 1), label=st.sampled_from((0, 1, True)),
        ph_min_bg=st.floats(0, 40)), max_size=6))
    @example([DecisionInstance("p", -1.1e-308, 0.0, 1.0, 30.0, 1.0, 1.0, 0, 1.0)])
    def test_a_written_table_reads_back_equal(self, instances):
        buf = io.StringIO()
        try:
            write_feature_csv(instances, buf)
        except ValueError:
            return
        assert read_feature_csv(buf.getvalue()) == instances


class TestFeatureCsvMatchesLoop:
    """The column-wise feature codec against the row-at-a-time oracles: the
    same bytes, the same instances, or the same error message and row."""

    @settings(max_examples=150, deadline=None)
    @given(INSTANCES)
    @example([DecisionInstance("p", -1.1e-308, 0.0, 1.0, 30.0, 1.0, 1.0, 0, 1.0)])
    def test_writer_bytes_and_reader(self, instances):
        text = written(write_feature_csv, instances)
        assert text == written(loop_write_feature_csv, instances)
        if isinstance(text, str):
            assert outcome(read_feature_csv, text) == outcome(loop_read_feature_csv, text)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf, 1e13, -1e13, 2**62])
    @pytest.mark.parametrize("column", ["meal_time", "peak_time", "decision_time"])
    def test_an_unwritable_time_raises_as_in_the_loop(self, worked_series, column, time):
        instances = build_instances(worked_series)
        instances[2] = instances[2]._replace(**{column: time})
        assert written(write_feature_csv, instances)[0] is ValueError
        assert written(write_feature_csv, instances) == written(loop_write_feature_csv, instances)

    def test_a_patient_id_that_is_no_str_raises_as_in_the_loop(self, worked_series):
        instances = build_instances(worked_series)
        instances[1] = instances[1]._replace(patient_id=5)
        with pytest.raises(TypeError) as loop:
            loop_write_feature_csv(instances, io.StringIO())
        with pytest.raises(TypeError) as raised:
            write_feature_csv(instances, io.StringIO())
        assert str(raised.value) == str(loop.value)

    @settings(max_examples=300, deadline=None)
    @given(TABLE_ROW, st.lists(TABLE_ROW | st.just([""]), max_size=6))
    def test_table_bytes_match_the_csv_writer(self, columns, rows):
        assert csv_table(columns, rows) == loop_csv_table(columns, rows)

    @settings(max_examples=300, deadline=None)
    @given(feature_tables())
    def test_reader_on_edited_tables(self, text):
        assert outcome(read_feature_csv, text) == outcome(loop_read_feature_csv, text)

    @pytest.mark.parametrize("kind,cell", [(k, c) for k, cells in ODD_CELLS.items()
                                           for c in cells])
    def test_each_odd_cell_in_each_column_of_its_kind(self, worked_series, kind, cell):
        buf = io.StringIO()
        loop_write_feature_csv(build_instances(worked_series), buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue(), newline="")))
        for column in (k for k, name in enumerate(COLUMN_KINDS) if name == kind):
            edited = [list(row) for row in rows]
            edited[3][column] = cell
            text = csv_table(edited[0], edited[1:])
            assert outcome(read_feature_csv, text) == outcome(loop_read_feature_csv, text)

    def test_first_bad_row_wins_over_a_later_misshapen_one(self, worked_series):
        buf = io.StringIO()
        write_feature_csv(build_instances(worked_series), buf)
        lines = buf.getvalue().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",2"
        lines[4] += ",extra"
        text = "\n".join(lines) + "\n"
        with pytest.raises(DataValidationError, match="^row 3: label must be 0 or 1, got 2$"):
            read_feature_csv(text)
        lines[2] = lines[2].rsplit(",", 1)[0] + ",1"
        with pytest.raises(DataValidationError, match="^row 5: expected 9 columns, got 10$"):
            read_feature_csv("\n".join(lines) + "\n")
