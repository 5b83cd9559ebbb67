import dataclasses
import math
import random
from datetime import datetime, timedelta

import numpy as np
import pytest

from hypoalarm import (
    DataValidationError,
    PatientSeries,
    PipelineConfig,
    label_hypoglycemia,
    parse_cgm_file,
    series_to_csv,
)
from hypoalarm.cgm_data import MG_PER_DL_PER_MMOL_L
from hypoalarm.synth import SynthConfig, generate_cohort

from conftest import decision_at, minutes, ts
from oracle_utils import EPOCH, MONTHS, loop_parse_cgm_file

HEADER = "Sample#,Date,Time,Meal,SensorBG"


def make_csv(*rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


# rows that fail one parser check each when they follow a 9:22 reading
BAD_ROWS = [
    ("1,7.Sept.15,9:27,.,11.4", "malformed timestamp"),
    ("1,7.Sep.15,9h27,.,11.4", "malformed timestamp"),
    ("1,32.Sep.15,9:27,.,11.4", "malformed timestamp"),
    ("1,7.Sep.15,24:00,.,11.4", "malformed timestamp"),
    ("1,7.Sep.15,9:60,.,11.4", "malformed timestamp"),
    ("1,29.Feb.15,9:27,.,11.4", "malformed timestamp"),
    ("1,31.Sep.15,9:27,.,11.4", "malformed timestamp"),
    ("1,7.Sep.2015,9:27,.,11.4", "malformed timestamp"),
    ("1,7.Sep.-1,9:27,.,11.4", "malformed timestamp"),
    ("1,7.Sep.5,9:27,.,11.4", "malformed timestamp"),
    ("1,1_0.Sep.15,9:27,.,11.4", "malformed timestamp"),
    ("1,+7.Sep.15,9:27,.,11.4", "malformed timestamp"),
    ("1,7.Sep.15,7:3_0,.,11.4", "malformed timestamp"),
    ("1,7.Sep.15,\u0667:30,.,11.4", "malformed timestamp"),
    ("1,7.Sep.15,7:5,.,11.4", "malformed timestamp"),
    ("1,7.Sep.15,9:27,.,-2.0", "SensorBG"),
    ("1,7.Sep.15,9:27,.,0", "SensorBG"),
    ("1,7.Sep.15,9:27,.,99", "SensorBG"),
    ("1,7.Sep.15,9:27,x,11.4", "Meal"),
    ("x,7.Sep.15,9:27,.,11.4", "Sample#"),
    ("1_0,7.Sep.15,9:27,.,11.4", "Sample#"),
    ("1,7.Sep.15,9:27,11.4", "5 columns"),
]


class TestParse:
    def test_sample_rows(self):
        series = parse_cgm_file(make_csv(
            "0,7.Sep.15,9:22,.,11.8",
            "1,7.Sep.15,9:27,.,11.4",
            "2,7.Sep.15,9:32,10.2,11.8",
            "3,7.Sep.15,9:37,.,12.2",
        ), patient_id="p0")
        assert series.samples.shape == (4, 3)
        assert series.samples[2].tolist() == [minutes(datetime(2015, 9, 7, 9, 32)), 11.8, 10.2]
        assert math.isnan(series.meal_ref[0])
        assert series.bg[0] == 11.8
        assert series.meal_times.tolist() == [minutes(datetime(2015, 9, 7, 9, 32))]

    def test_na_becomes_missing_but_row_is_kept(self):
        series = parse_cgm_file(make_csv(
            "0,7.Sep.15,9:22,.,11.8",
            "1,7.Sep.15,9:27,.,N/A",
            "2,7.Sep.15,9:32,.,11.9",
        ))
        assert len(series.samples) == 3
        assert math.isnan(series.bg[1])
        assert series.missing_count == 1

    def test_quoted_row_matches_its_unquoted_twin(self):
        plain = make_csv("0,7.Sep.15,9:22,.,11.8", "1,7.Sep.15,9:27,10.2,N/A")
        quoted = make_csv("0,7.Sep.15,9:22,.,11.8", '"1","7.Sep.15","9:27","10.2","N/A"')
        assert parse_cgm_file(quoted) == parse_cgm_file(plain)

    def test_crosses_midnight(self):
        series = parse_cgm_file(make_csv(
            "0,7.Sep.15,23:57,.,6.0",
            "1,8.Sep.15,0:02,.,6.1",
        ))
        assert series.minutes.tolist() == [minutes(datetime(2015, 9, 7, 23, 57)),
                                           minutes(datetime(2015, 9, 8, 0, 2))]

    def test_mg_unit_converts_both_bg_columns(self):
        series = parse_cgm_file(make_csv("0,7.Sep.15,9:22,180,70"), unit="mg")
        assert series.bg[0] == pytest.approx(3.885, abs=1e-3)
        assert series.meal_ref[0] == pytest.approx(180 / 18.016, abs=1e-9)

    @pytest.mark.parametrize("row,fragment", BAD_ROWS)
    def test_bad_rows_carry_the_row_number(self, row, fragment):
        text = make_csv("0,7.Sep.15,9:22,.,11.8", row)
        with pytest.raises(DataValidationError) as err:
            parse_cgm_file(text)
        assert "row 3" in str(err.value)
        assert fragment in str(err.value)

    def test_non_monotone_timestamps_rejected(self):
        text = make_csv("0,7.Sep.15,9:22,.,11.8", "1,7.Sep.15,9:22,.,11.4")
        with pytest.raises(DataValidationError, match="row 3"):
            parse_cgm_file(text)
        text = make_csv("0,7.Sep.15,9:22,.,11.8", "1,7.Sep.15,9:17,.,11.4")
        with pytest.raises(DataValidationError, match="not strictly increasing"):
            parse_cgm_file(text)

    def test_bad_header_rejected(self):
        with pytest.raises(DataValidationError, match="header"):
            parse_cgm_file("a,b,c,d,e\n0,7.Sep.15,9:22,.,11.8\n")

    def test_round_trip_identity(self):
        series = parse_cgm_file(make_csv(
            "0,7.Sep.15,9:22,.,11.8",
            "1,7.Sep.15,9:27,.,N/A",
            "2,7.Sep.15,9:32,10.2,11.8",
            "3,8.Sep.15,0:05,.,3.9",
        ), patient_id="p1", dm_type="type1")
        again = parse_cgm_file(series_to_csv(series), patient_id="p1", dm_type="type1")
        assert again == series

    def test_round_trip_full_precision(self):
        series = generate_cohort(SynthConfig(n_patients=1, seed=9))[0]
        again = parse_cgm_file(series_to_csv(series), patient_id=series.patient_id,
                               dm_type=series.dm_type)
        assert again == series


def outcome(parse, text, **kwargs):
    """The series `parse` returns, or the type and text of what it raises."""
    try:
        return parse(text, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def record_rows(rng, start, count, unit="mmol"):
    """`count` valid rows of cells, 5 min apart from `start` (minutes since
    2000-01-01), with full-precision and short readings, some missing,
    some meals and some zero-padded hours."""
    scale = 1.0 if unit == "mmol" else MG_PER_DL_PER_MMOL_L
    rows = []
    for k in range(count):
        t = EPOCH + timedelta(minutes=start + 5 * k)
        hour = f"{t.hour:02d}" if rng.random() < 0.3 else str(t.hour)
        meal = repr(rng.uniform(3.0, 15.0) * scale) if rng.random() < 0.1 else "."
        bg = ("N/A" if rng.random() < 0.05
              else repr(round(rng.uniform(2.5, 22.0) * scale, rng.randint(0, 17))))
        rows.append([str(k), f"{t.day}.{MONTHS[t.month - 1]}.{t:%y}", f"{hour}:{t.minute:02d}",
                     meal, bg])
    return rows


BLANK_ROWS = ("", "   ", ",,,,", " , ,", "\t")
PADS = ("", " ", "\t", "\u00a0", "\x0b")


def render(rng, rows, quote=0.0, pad=0.0, blank=0.0, mixed_ends=False):
    """Record text of `rows` with a share of blank rows, padded cells and
    fully quoted rows; LF endings or a random mix of LF, CRLF and CR."""
    lines = [HEADER]
    for cells in rows:
        if rng.random() < blank:
            lines.append(rng.choice(BLANK_ROWS))
        if rng.random() < pad:
            cells = [rng.choice(PADS) + cell + rng.choice(PADS) for cell in cells]
        if rng.random() < quote:
            cells = [f'"{cell}"' for cell in cells]
        lines.append(",".join(cells))
    return "".join(line + (rng.choice(("\n", "\r\n", "\r")) if mixed_ends else "\n")
                   for line in lines)


def assert_parsers_agree(text, **kwargs):
    assert outcome(parse_cgm_file, text, **kwargs) == outcome(loop_parse_cgm_file, text, **kwargs)


class TestParseMatchesLoop:
    """`parse_cgm_file` against the row-at-a-time oracle: the same series,
    or the same error message and row number."""

    START = minutes(datetime(2015, 9, 7, 0, 2))

    @pytest.mark.parametrize("seed", range(40))
    def test_valid_texts(self, seed):
        rng = random.Random(seed)
        unit = rng.choice(("mmol", "mg"))
        rows = record_rows(rng, self.START, rng.randint(1, 400), unit)
        text = render(rng, rows, quote=rng.choice((0.0, 0.2, 1.0)),
                      pad=rng.choice((0.0, 0.1)), blank=rng.choice((0.0, 0.05)),
                      mixed_ends=rng.random() < 0.5)
        series = parse_cgm_file(text, unit=unit)
        assert len(series.samples) == len(rows)
        assert series == loop_parse_cgm_file(text, unit=unit)

    @pytest.mark.parametrize("row,fragment", BAD_ROWS)
    def test_bad_row_at_random_rows(self, row, fragment):
        rng = random.Random(row)
        for _ in range(6):
            before = rng.randint(0, 30)
            bad_at = minutes(datetime(2015, 9, 7, 9, 22)) - 5 * (before - 1)
            rows = (record_rows(rng, bad_at, before) + [row.split(",")]
                    + record_rows(rng, minutes(datetime(2015, 9, 7, 9, 32)), rng.randint(0, 30)))
            text = render(rng, rows, quote=rng.choice((0.0, 0.3)), pad=rng.choice((0.0, 0.3)),
                          blank=rng.choice((0.0, 0.2)), mixed_ends=rng.random() < 0.5)
            kind, message = outcome(parse_cgm_file, text)
            assert kind is DataValidationError and fragment in message
            assert_parsers_agree(text)

    @pytest.mark.parametrize("column", [3, 4])
    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "N/A",
                                      ".", "", "1_0", "\u0665", "5e-324", "40.0", "40.000001",
                                      '"4,5"', '"N/A"', '"."'])
    def test_special_bg_cells(self, cell, column):
        rng = random.Random(column)
        for _ in range(4):
            rows = record_rows(rng, self.START, rng.randint(1, 20))
            rows[rng.randrange(len(rows))][column] = cell
            assert_parsers_agree(render(rng, rows))

    @pytest.mark.parametrize("cell", ["", " ", "-1", "1.0", "\u0663", "1_0", "+1", '"7"'])
    def test_special_sample_numbers(self, cell):
        rng = random.Random(cell)
        for _ in range(4):
            rows = record_rows(rng, self.START, rng.randint(1, 20))
            rows[rng.randrange(len(rows))][0] = cell
            assert_parsers_agree(render(rng, rows))

    @pytest.mark.parametrize("space", " \t\v\f\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000")
    def test_padded_cells(self, space):
        rng = random.Random(space)
        for _ in range(4):
            rows = record_rows(rng, self.START, rng.randint(1, 20))
            cells = rows[rng.randrange(len(rows))]
            column = rng.randrange(5)
            cells[column] = rng.choice(("", space)) + cells[column] + space
            text = render(rng, rows)
            series = parse_cgm_file(text)
            assert len(series.samples) == len(rows)
            assert series == loop_parse_cgm_file(text)

    @pytest.mark.parametrize("cell", ["1261.12", "720.64", "720.65", "1e-300", "5e-324", "70"])
    def test_mg_values(self, cell):
        rng = random.Random(cell)
        rows = record_rows(rng, self.START, 5, unit="mg")
        rows[2][4] = rows[3][3] = cell
        assert_parsers_agree(render(rng, rows), unit="mg")

    @pytest.mark.parametrize("text", [HEADER, HEADER + "\n", HEADER + "\r\n\r\n",
                                      HEADER + "\n ,,\n\t\n", "", "\n" + HEADER,
                                      '"Sample#","Date","Time","Meal","SensorBG"\n',
                                      HEADER + "\n1,2\n0,7.Sep.15,9:22,.,x\n"])
    def test_header_only_and_short_files(self, text):
        assert_parsers_agree(text)


def parsed_bg(cells, unit):
    """SensorBG of a record whose readings are `cells`, 5 min apart and
    without meals, parsed with `unit`."""
    rows = record_rows(random.Random(0), TestParseMatchesLoop.START, len(cells))
    for row, cell in zip(rows, cells):
        row[3:] = [".", cell]
    return parse_cgm_file(render(random.Random(0), rows), unit=unit).bg


class TestUnits:
    def test_mmol_identity(self):
        assert parsed_bg(["5.5"], "mmol")[0] == 5.5

    def test_mg_division(self):
        assert parsed_bg(["70"], "mg")[0] == pytest.approx(3.885, abs=1e-3)

    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
    def test_domain_violations(self, value):
        with pytest.raises(DataValidationError, match="row 2: SensorBG must be a number"):
            parsed_bg([repr(value)], "mg")

    def test_unknown_unit(self):
        with pytest.raises(ValueError, match="unknown unit 'mol'"):
            parse_cgm_file(make_csv("0,7.Sep.15,9:22,.,5.0"), unit="mol")

    def test_involution(self):
        xs = np.random.default_rng(0).uniform(1e-6, 40.0, 500)
        bg = parsed_bg([repr(float(x) * MG_PER_DL_PER_MMOL_L) for x in xs], "mg")
        assert bg == pytest.approx(xs, abs=1e-9)


class TestLabel:
    def test_boundary_inclusive(self):
        assert label_hypoglycemia(3.9) == 1

    def test_above(self):
        assert label_hypoglycemia(3.95) == 0

    def test_severe_is_still_one(self):
        assert label_hypoglycemia(2.8) == 1

    def test_elementwise_matches_scalar(self):
        rng = np.random.default_rng(3)
        grid = np.concatenate([np.round(np.arange(2.0, 6.0, 0.1), 1), rng.uniform(0.5, 20.0, 200)])
        assert 3.9 in grid.tolist()
        labels = label_hypoglycemia(grid)
        assert labels.tolist() == [label_hypoglycemia(bg) for bg in grid.tolist()]
        assert labels.tolist() == [1 if bg <= 3.9 else 0 for bg in grid.tolist()]
        assert label_hypoglycemia(grid, 2.8).tolist() == [int(bg <= 2.8) for bg in grid.tolist()]

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            a, b = sorted(rng.uniform(0.5, 10.0, 2))
            assert label_hypoglycemia(a) >= label_hypoglycemia(b)


def make_series(times_bgs):
    return PatientSeries("p", [(minutes(ts(t)), math.nan if bg is None else bg, math.nan)
                               for t, bg in times_bgs])


def snapped(times_bgs, probe, tol=2.5):
    """x_t that `build_instances` snaps for a decision at `probe` (H:MM),
    with present readings 15/20/25 min later; None when it emits none."""
    at = minutes(ts(probe))
    rows = [(minutes(ts(t)), bg) for t, bg in times_bgs] + [(at + h, 6.0) for h in (15, 20, 25)]
    inst = decision_at(rows, at, PipelineConfig(snap_tolerance_min=tol))
    return None if inst is None else inst.x_t


class TestSampleAt:
    """The reading `build_instances` snaps to a decision time."""

    def test_exact_hit(self):
        assert snapped([("9:27", 5.0), ("9:32", 6.0), ("9:37", 7.0)], "9:32") == 6.0

    def test_nearest_within_tolerance(self):
        assert snapped([("9:27", 5.0), ("9:32", 6.0), ("9:37", 7.0)], "9:34") == 6.0

    def test_out_of_range_is_none(self):
        assert snapped([("9:27", 5.0), ("9:32", 6.0), ("9:37", 7.0)], "9:45") is None

    def test_tie_goes_to_earlier(self):
        assert snapped([("9:30", 5.0), ("9:34", 7.0)], "9:32") == 5.0

    def test_skips_missing_bg(self):
        times_bgs = [("9:27", 5.0), ("9:32", None), ("9:37", 7.0)]
        assert snapped(times_bgs, "9:32") is None
        assert snapped(times_bgs, "9:35") == 7.0

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            PipelineConfig(snap_tolerance_min=-1)

    def test_never_beyond_tolerance(self):
        # whole-minute readings against quarter-minute decision times, so the
        # added meal and horizon rows never share a reading's time
        rng = np.random.default_rng(2)
        base = minutes(ts("8:00"))
        times = base + np.sort(rng.choice(600, size=60, replace=False))
        bgs = rng.uniform(3, 10, size=60)
        rows = list(zip(times.tolist(), bgs.tolist()))
        found = 0
        for _ in range(200):
            probe = base + int(rng.integers(0, 600)) + int(rng.integers(1, 4)) / 4
            tol = float(rng.uniform(0, 10))
            frame = [(probe + h, 6.0) for h in (15, 20, 25)]
            inst = decision_at(rows + frame, probe, PipelineConfig(snap_tolerance_min=tol))
            distance = np.abs(times - probe)
            if inst is None:
                assert (distance > tol).all()
                continue
            found += 1
            (hit,) = np.flatnonzero(bgs == inst.x_t)
            assert distance[hit] <= tol
            assert hit == np.argmin(distance)  # nearest, the earlier one on ties
        assert found > 50


class TestSeriesValidation:
    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            make_series([("9:32", 5.0), ("9:27", 5.0)])
        with pytest.raises(ValueError, match="increasing"):
            make_series([("9:32", 5.0), ("9:32", 6.0)])

    def test_bg_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            make_series([("9:32", 41.0)])

    def test_bad_dm_type_rejected(self):
        with pytest.raises(ValueError, match="dm_type"):
            PatientSeries("p", (), dm_type="type3")

    @pytest.mark.parametrize("samples", [[(0.0, 5.0)], [[0.0, 5.0, 1.0, 2.0]], [0.0, 5.0, 1.0]])
    def test_samples_must_be_rows_of_three(self, samples):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            PatientSeries("p", samples)


class TestPipelineConfig:
    def test_defaults_are_valid(self):
        cfg = PipelineConfig()
        assert cfg.hypo_threshold == 3.9
        assert cfg.decision_offsets_min == (120, 135, 150, 165, 180, 195, 210)
        assert cfg.horizon_offsets_min == (15, 20, 25)
        assert cfg.costs.cost_fn == 15.0 and cfg.costs.cost_fp == 1.0

    def test_lead_time_and_peak_window_are_no_fields(self):
        names = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert not names & {"lead_time_min", "peak_window_min"}
        assert len(names) == 10

    def test_lead_time_and_peak_window_follow_the_grids(self):
        assert (PipelineConfig().lead_time_min, PipelineConfig().peak_window_min) == (15, 120)
        cfg = PipelineConfig(horizon_offsets_min=(20, 30), decision_offsets_min=(90, 105))
        assert (cfg.lead_time_min, cfg.peak_window_min) == (20, 90)

    def test_grid_must_step_fifteen(self):
        with pytest.raises(ValueError):
            PipelineConfig(decision_offsets_min=(120, 140))
