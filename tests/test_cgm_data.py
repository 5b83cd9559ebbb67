import math
from datetime import datetime

import numpy as np
import pytest

from hypoalarm import (
    DataValidationError,
    PatientSeries,
    PipelineConfig,
    label_hypoglycemia,
    parse_cgm_file,
    series_to_csv,
    to_mmol,
)
from hypoalarm.cgm_data import MG_PER_DL_PER_MMOL_L
from hypoalarm.synth import SynthConfig, generate_cohort

from conftest import decision_at, minutes, ts

HEADER = "Sample#,Date,Time,Meal,SensorBG"


def make_csv(*rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


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
        assert series.timestamp(2) == datetime(2015, 9, 7, 9, 32)
        assert math.isnan(series.meal_ref[0])
        assert series.bg[0] == 11.8
        assert series.meal_times == (datetime(2015, 9, 7, 9, 32),)

    def test_na_becomes_missing_but_row_is_kept(self):
        series = parse_cgm_file(make_csv(
            "0,7.Sep.15,9:22,.,11.8",
            "1,7.Sep.15,9:27,.,N/A",
            "2,7.Sep.15,9:32,.,11.9",
        ))
        assert len(series.samples) == 3
        assert math.isnan(series.bg[1])
        assert series.missing_count == 1

    def test_file_like_input(self):
        import io
        series = parse_cgm_file(io.StringIO(make_csv("0,7.Sep.15,9:22,.,5.0")))
        assert len(series.samples) == 1

    def test_crosses_midnight(self):
        series = parse_cgm_file(make_csv(
            "0,7.Sep.15,23:57,.,6.0",
            "1,8.Sep.15,0:02,.,6.1",
        ))
        assert series.timestamp(1) == datetime(2015, 9, 8, 0, 2)
        assert series.minutes[1] - series.minutes[0] == 5

    def test_mg_unit_converts_both_bg_columns(self):
        series = parse_cgm_file(make_csv("0,7.Sep.15,9:22,180,70"), unit="mg")
        assert series.bg[0] == pytest.approx(3.885, abs=1e-3)
        assert series.meal_ref[0] == pytest.approx(180 / 18.016, abs=1e-9)

    @pytest.mark.parametrize("row,fragment", [
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
    ])
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


class TestUnits:
    def test_mmol_identity(self):
        assert to_mmol(5.5, "mmol") == 5.5

    def test_mg_division(self):
        assert to_mmol(70, "mg") == pytest.approx(3.885, abs=1e-3)

    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
    def test_domain_violations(self, value):
        with pytest.raises(ValueError):
            to_mmol(value, "mg")

    def test_unknown_unit(self):
        with pytest.raises(ValueError):
            to_mmol(5.0, "mol")

    def test_involution(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(1e-6, 40.0, 500):
            assert to_mmol(float(x) * MG_PER_DL_PER_MMOL_L, "mg") == pytest.approx(x, abs=1e-9)


class TestLabel:
    def test_boundary_inclusive(self):
        assert label_hypoglycemia(3.9) == 1

    def test_above(self):
        assert label_hypoglycemia(3.95) == 0

    def test_severe_is_still_one(self):
        assert label_hypoglycemia(2.8) == 1

    def test_missing_is_unknown(self):
        assert label_hypoglycemia(None) is None

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

    def test_horizon_must_start_at_lead_time(self):
        with pytest.raises(ValueError):
            PipelineConfig(horizon_offsets_min=(20, 25, 30))

    def test_grid_must_start_at_peak_window(self):
        with pytest.raises(ValueError):
            PipelineConfig(decision_offsets_min=(135, 150))

    def test_grid_must_step_fifteen(self):
        with pytest.raises(ValueError):
            PipelineConfig(decision_offsets_min=(120, 140))
