import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from hypoalarm import DecisionInstance, SynthConfig, cli, one_way_anova, write_feature_csv
from hypoalarm.cgm_data import CSV_COLUMNS, parse_cgm_file
from hypoalarm.cli import main
from hypoalarm.features import FEATURE_COLUMNS, read_feature_csv

from oracle_utils import f_upper_tail_by_quadrature, minutes

SMALL_CONFIG = {"n_patients": 5, "seed": 1}


def source_tree_env() -> dict:
    """The environment with this tree's ``src`` first on PYTHONPATH, installed or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def cohort_dir(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    out = tmp_path / "cohort"
    assert main(["synth", "--config", str(config), "--seed", "1", "--out", str(out)]) == 0
    return out


@pytest.fixture
def features_csv(tmp_path, cohort_dir):
    out = tmp_path / "features.csv"
    assert main(["features", "--in", str(cohort_dir), "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_outputs_and_manifest(self, cohort_dir):
        files = {p.name for p in cohort_dir.iterdir()}
        assert {"p00.csv", "p04.csv", "cohort.json", "manifest.json"} <= files
        manifest = json.loads((cohort_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seeds"] == [1]
        for name, digest in manifest["outputs"].items():
            assert len(digest) == 64
        cohort = json.loads((cohort_dir / "cohort.json").read_text())
        assert len(cohort["patients"]) == 5
        assert all(p["dm_type"] in ("type1", "type2", "other") for p in cohort["patients"])

    def test_bad_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"n_patients": 0}))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "error[data]" in capsys.readouterr().err

    def test_negative_seed_names_the_field(self, tmp_path, capsys):
        assert main(["synth", "--seed", "-1", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "error[data]: bad synth config: seed must be >= 0, got -1\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("fields", [{"seed": 1.5}, {"n_patients": 2.5}])
    def test_non_integer_count_rejected(self, tmp_path, capsys, fields):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps(fields))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_shape_key_rejected(self, tmp_path, capsys):
        # a shape constant may be named only at its own value
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "bg_floor": SynthConfig.bg_floor + 0.5}))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]: bad synth config: ") and "'bg_floor'" in err
        assert not (tmp_path / "x").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "n_days": 3}))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "'n_days'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_that_is_no_object_is_a_data_error(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text("[1, 2]")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "error[data]: synth config must be a JSON object\n"
        assert not (tmp_path / "x").exists()

    def test_echoed_config_reproduces_the_cohort(self, tmp_path, cohort_dir):
        config = tmp_path / "echo.json"
        echo = json.loads((cohort_dir / "cohort.json").read_text())["config"]
        assert echo.keys() == SynthConfig.__annotations__.keys()
        config.write_text(json.dumps(echo))
        again = tmp_path / "again"
        assert main(["synth", "--config", str(config), "--out", str(again)]) == 0
        for path in [*cohort_dir.glob("*.csv"), cohort_dir / "cohort.json"]:
            assert (again / path.name).read_bytes() == path.read_bytes()


class TestIngest:
    def test_summary_line(self, cohort_dir, capsys):
        assert main(["ingest", "--in", str(cohort_dir / "p00.csv")]) == 0
        out = capsys.readouterr().out
        assert "patient=p00" in out and "samples=" in out and "meals=" in out

    def test_non_monotone_rejected_with_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("Sample#,Date,Time,Meal,SensorBG\n"
                       "0,7.Sep.15,9:22,.,11.8\n"
                       "1,7.Sep.15,9:17,.,11.4\n")
        assert main(["ingest", "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error[data]" in err and "row 3" in err

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        assert main(["ingest", "--in", str(tmp_path / "nope.csv")]) == 2

    def test_directory_is_a_data_error(self, tmp_path, capsys):
        assert main(["ingest", "--in", str(tmp_path)]) == 2
        assert "error[data]: " in capsys.readouterr().err

    def test_mg_unit_flag(self, tmp_path, capsys):
        mg = tmp_path / "mg.csv"
        mg.write_text("Sample#,Date,Time,Meal,SensorBG\n0,7.Sep.15,9:22,180,70\n")
        assert main(["ingest", "--in", str(mg), "--unit", "mg"]) == 0

    def test_oversized_cell_is_a_data_error(self, tmp_path, capsys):
        record = tmp_path / "big.csv"
        record.write_text('Sample#,Date,Time,Meal,SensorBG\n0,7.Sep.15,9:22,.,"'
                          + "1" * 200_000 + '"\n')
        assert main(["ingest", "--in", str(record)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error[data]: row 2: field larger than field limit (131072)"]

    def test_oversized_unquoted_cell_is_a_data_error(self, tmp_path, capsys):
        record = tmp_path / "big.csv"
        record.write_text("Sample#,Date,Time,Meal,SensorBG\n0,7.Sep.15,9:22,.,5.0\n"
                          "1,7.Sep.15,9:27,.," + "1" * 200_000 + "\n")
        assert main(["ingest", "--in", str(record)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error[data]: row 3: field larger than field limit (131072)"]


class TestFeatures:
    def test_table_written(self, features_csv):
        lines = features_csv.read_text().splitlines()
        assert lines[0] == ("patient_id,meal_time,peak_time,peak_value,"
                            "decision_time,x_t,rate,ph_min_bg,label")
        assert len(lines) > 50
        manifest = json.loads(features_csv.with_suffix(".manifest.json").read_text())
        assert manifest["command"] == "features"
        assert manifest["outputs"] == {
            "features.csv": manifest["outputs"]["features.csv"]}

    def test_missing_input_is_a_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["features", "--in", str(missing), "--out", str(tmp_path / "f.csv")]) == 2
        assert capsys.readouterr().err == f"error[data]: no such file or directory: {missing}\n"
        assert not (tmp_path / "f.csv").exists()

    def test_directory_without_records_is_a_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["features", "--in", str(empty), "--out", str(tmp_path / "f.csv")]) == 2
        assert capsys.readouterr().err == f"error[data]: no patient CSV files under {empty}\n"
        assert not (tmp_path / "f.csv").exists()

    def test_single_file_input(self, tmp_path, cohort_dir):
        out = tmp_path / "one.csv"
        assert main(["features", "--in", str(cohort_dir / "p00.csv"),
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_record_data_error_names_its_file(self, tmp_path, cohort_dir, capsys):
        record = cohort_dir / "p03.csv"
        lines = record.read_text().splitlines(keepends=True)
        record.write_text("".join(lines[:101] + lines[100:]))  # row 101 once more
        assert main(["features", "--in", str(cohort_dir), "--out", str(tmp_path / "f.csv")]) == 2
        assert capsys.readouterr().err == (f"error[data]: {record}: row 102: timestamps not"
                                           " strictly increasing at 7.Sep.15 8:15\n")
        assert not (tmp_path / "f.csv").exists()

    def test_crlf_record_gives_the_lf_table(self, tmp_path, cohort_dir):
        text = (cohort_dir / "p00.csv").read_bytes()
        tables = []
        for name, data in (("lf", text), ("crlf", text.replace(b"\n", b"\r\n")),
                           ("cr", text.replace(b"\n", b"\r"))):
            (tmp_path / name).mkdir()
            (tmp_path / name / "p00.csv").write_bytes(data)
            out = tmp_path / f"{name}.csv"
            assert main(["features", "--in", str(tmp_path / name), "--out", str(out)]) == 0
            inputs = json.loads(out.with_suffix(".manifest.json").read_text())["inputs"]
            assert inputs == {str(tmp_path / name / "p00.csv"): hashlib.sha256(data).hexdigest()}
            tables.append(out.read_bytes())
        assert b"\r" not in tables[0] and tables[0] == tables[1] == tables[2]



RECORD_HEADER = "Sample#,Date,Time,Meal,SensorBG\n"


def _record_rows(text):
    """The cells of each row of a synth record, header dropped."""
    return [line.split(",") for line in text.splitlines()[1:]]


def _record_text(rows):
    return RECORD_HEADER + "".join(",".join(cells) + "\n" for cells in rows)


def _features_of(tmp_path, name, text):
    """The instances `features` extracts from a record file p00.csv holding `text`."""
    record, out = tmp_path / name / "p00.csv", tmp_path / f"{name}.csv"
    record.parent.mkdir()
    record.write_text(text)
    assert main(["features", "--in", str(record), "--out", str(out)]) == 0
    return read_feature_csv(out)


class TestIrregularRecords:
    """One case per row of the README's table of irregular records: each is
    a data error that names its row, or is absorbed."""

    def test_a_dst_fall_back_hour_stops_at_its_first_repeated_time(self, tmp_path, capsys):
        record = tmp_path / "dst.csv"
        record.write_text(RECORD_HEADER + "0,7.Sep.15,0:55,.,11.8\n1,7.Sep.15,1:00,.,11.4\n"
                          "2,7.Sep.15,1:05,.,11.2\n3,7.Sep.15,1:00,.,11.0\n"
                          "4,7.Sep.15,1:05,.,10.8\n")
        assert main(["ingest", "--in", str(record)]) == 2
        assert capsys.readouterr().err == (
            "error[data]: row 5: timestamps not strictly increasing at 7.Sep.15 1:00\n")

    def test_a_time_with_seconds_is_a_malformed_timestamp(self, tmp_path, capsys):
        record = tmp_path / "seconds.csv"
        record.write_text(RECORD_HEADER + "0,7.Sep.15,8:00,.,11.8\n1,7.Sep.15,8:05:00,.,11.4\n")
        assert main(["ingest", "--in", str(record)]) == 2
        assert capsys.readouterr().err == (
            "error[data]: row 3: malformed timestamp '7.Sep.15' '8:05:00'\n")

    def test_na_cells_are_counted_as_missing(self, tmp_path, cohort_dir, capsys):
        rows = _record_rows((cohort_dir / "p00.csv").read_text())
        present = [cells for cells in rows if cells[4] != "N/A"]
        for cells in present[100:110]:
            cells[4] = "N/A"
        record = tmp_path / "p00.csv"
        record.write_text(_record_text(rows))
        assert main(["ingest", "--in", str(cohort_dir / "p00.csv")]) == 0
        before = capsys.readouterr().out
        assert main(["ingest", "--in", str(record)]) == 0
        missing = len(rows) - len(present)
        assert before.endswith(f" missing={missing}\n")
        assert capsys.readouterr().out == before.replace(f"={missing}\n", f"={missing + 10}\n")

    def test_times_off_the_grid_are_absorbed(self, tmp_path, cohort_dir):
        text = (cohort_dir / "p00.csv").read_text()
        rows = _record_rows(text)
        for cells in rows:  # every row 2 min later, within the 2.5-min snap tolerance
            later = datetime.strptime(f"{cells[1]} {cells[2]}", "%d.%b.%y %H:%M") + timedelta(
                minutes=2)
            cells[1:3] = f"{later.day}.{later:%b.%y}", f"{later.hour}:{later:%M}"
        assert rows[0][2] == "0:02"
        full = _features_of(tmp_path, "full", text)
        shifted = _features_of(tmp_path, "shifted", _record_text(rows))
        assert full and shifted == [inst._replace(meal_time=inst.meal_time + 2,
                                                  peak_time=inst.peak_time + 2,
                                                  decision_time=inst.decision_time + 2)
                                    for inst in full]

    def test_a_two_hour_gap_drops_only_the_decisions_it_leaves_unread(self, tmp_path,
                                                                       cohort_dir):
        text = (cohort_dir / "p00.csv").read_text()
        series = parse_cgm_file(text, patient_id="p00")
        meals = series.meal_times.tolist() + [math.inf]
        # a meal whose next one is over 400 min later: no other meal's decisions reach the gap
        meal = next(m for m, after in zip(meals, meals[1:]) if after - m > 400)
        absent = (series.minutes > meal + 145) & (series.minutes <= meal + 265)
        assert absent.sum() == 24  # two hours of 5-min rows
        rows = [cells for cells, gone in zip(_record_rows(text), absent) if not gone]
        full = _features_of(tmp_path, "full", text)
        gapped = _features_of(tmp_path, "gapped", _record_text(rows))
        # the decision at 120 min reads all its horizon before the gap; from 135 min on,
        # each decision's reading or all its horizon readings fall in the gap
        dropped = [inst for inst in full
                   if inst.meal_time == meal and inst.decision_time >= meal + 135]
        assert dropped and gapped == [inst for inst in full if inst not in dropped]


def _rewrite_cohort(cohort_dir, edit):
    """Apply `edit(entry, outside)` to the first cohort.json entry, where
    `outside` is a valid record file next to (not inside) the cohort."""
    outside = cohort_dir.parent / "outside.csv"
    outside.write_text((cohort_dir / "p00.csv").read_text())
    path = cohort_dir / "cohort.json"
    doc = json.loads(path.read_text())
    edit(doc["patients"][0], outside)
    path.write_text(json.dumps(doc))
    return path


BAD_ENTRIES = {
    "no_id": lambda pat, outside: pat.pop("id"),
    "no_file": lambda pat, outside: pat.pop("file"),
    "int_id": lambda pat, outside: pat.update(id=7),
    "file_outside": lambda pat, outside: pat.update(file=f"../{outside.name}"),
    "file_absolute": lambda pat, outside: pat.update(file=str(outside)),
    "dm_type_list": lambda pat, outside: pat.update(dm_type=["x"]),
    "dm_type_unknown": lambda pat, outside: pat.update(dm_type="type9"),
    "repeated_id": lambda pat, outside: pat.update(id="p01"),
}


class TestCohortJson:
    @pytest.mark.parametrize("edit", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
    def test_bad_entry_is_a_data_error_for_features(self, tmp_path, cohort_dir, capsys, edit):
        _rewrite_cohort(cohort_dir, edit)
        assert main(["features", "--in", str(cohort_dir),
                     "--out", str(tmp_path / "f.csv")]) == 2
        assert "error[data]: " in capsys.readouterr().err

    @pytest.mark.parametrize("edit", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
    def test_bad_entry_is_a_data_error_for_evaluate(self, tmp_path, features_csv, cohort_dir,
                                                    capsys, edit):
        cohort = _rewrite_cohort(cohort_dir, edit)
        assert main(["evaluate", "--features", str(features_csv), "--cohort", str(cohort),
                     "--k", "2", "--allocations", "1", "--out", str(tmp_path / "r")]) == 2
        assert "error[data]: " in capsys.readouterr().err

    def test_repeated_id_names_both_entries(self, tmp_path, cohort_dir, capsys):
        cohort = _rewrite_cohort(cohort_dir, BAD_ENTRIES["repeated_id"])
        assert main(["features", "--in", str(cohort_dir),
                     "--out", str(tmp_path / "f.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error[data]: {cohort}: patients[1] repeats the id 'p01' of patients[0]\n")
        assert not (tmp_path / "f.csv").exists()

    def test_patients_must_be_a_list(self, tmp_path, cohort_dir):
        (cohort_dir / "cohort.json").write_text('{"patients": {"id": "p00"}}')
        assert main(["features", "--in", str(cohort_dir),
                     "--out", str(tmp_path / "f.csv")]) == 2

    def test_comma_in_patient_id_round_trips_to_train(self, tmp_path, cohort_dir):
        odd = tmp_path / "odd"
        odd.mkdir()
        (odd / 'a,"b".csv').write_text((cohort_dir / "p00.csv").read_text())
        table = tmp_path / "f.csv"
        assert main(["features", "--in", str(odd), "--out", str(table)]) == 0
        assert table.read_text().splitlines()[1].startswith('"a,""b""",')
        assert main(["train", "--features", str(table),
                     "--out", str(tmp_path / "tree.json")]) == 0


class TestTrain:
    def test_tree_document(self, tmp_path, features_csv):
        out = tmp_path / "tree.json"
        assert main(["train", "--features", str(features_csv), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "feature" in doc or "class" in doc

    def test_directory_is_a_data_error(self, tmp_path, capsys):
        assert main(["train", "--features", str(tmp_path),
                     "--out", str(tmp_path / "tree.json")]) == 2
        assert "error[data]: " in capsys.readouterr().err

    def test_header_only_table_is_a_data_error(self, tmp_path, capsys):
        table = tmp_path / "header.csv"
        table.write_text(",".join(FEATURE_COLUMNS) + "\n")
        assert main(["train", "--features", str(table),
                     "--out", str(tmp_path / "tree.json")]) == 2
        assert capsys.readouterr().err == "error[data]: feature table is empty\n"
        assert not (tmp_path / "tree.json").exists()

    @pytest.mark.parametrize("column,cell,error", [
        (0, '"' + "p" * 200_000 + '"', "field larger than field limit (131072)"),
        (7, "nan", "ph_min_bg must be a finite number, got 'nan'"),
        (0, "p" * 200_000, "field larger than field limit (131072)"),
    ], ids=["oversized_cell", "non_finite_cell", "oversized_unquoted_cell"])
    def test_bad_first_row_is_a_data_error(self, tmp_path, features_csv, capsys,
                                           column, cell, error):
        header, first, rest = features_csv.read_text().split("\n", 2)
        cells = first.split(",")
        cells[column] = cell
        table = tmp_path / "bad.csv"
        table.write_text("\n".join((header, ",".join(cells), rest)))
        assert main(["train", "--features", str(table),
                     "--out", str(tmp_path / "tree.json")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error[data]: row 2: {error}"]
        assert not (tmp_path / "tree.json").exists()


class TestPredict:
    def test_high_bg_is_no_alarm(self, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({
            "feature": "x_t", "threshold": 6.45,
            "left": {"class": "H", "n_N": 2, "n_H": 30},
            "right": {"class": "N", "n_N": 50, "n_H": 0},
        }))
        assert main(["predict", "--tree", str(tree), "--xt", "8.0",
                     "--rate", "0.081"]) == 0
        assert capsys.readouterr().out.strip() == "N"

    def test_low_bg_alarms(self, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({
            "feature": "x_t", "threshold": 6.45,
            "left": {"class": "H", "n_N": 2, "n_H": 30},
            "right": {"class": "N", "n_N": 50, "n_H": 0},
        }))
        assert main(["predict", "--tree", str(tree), "--xt", "4.2",
                     "--rate", "0.08"]) == 0
        assert capsys.readouterr().out.strip() == "H"

    def test_invalid_document_is_a_data_error(self, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({"feature": "bogus", "threshold": 1.0,
                                    "left": {"class": "N", "n_N": 1, "n_H": 0},
                                    "right": {"class": "N", "n_N": 1, "n_H": 0}}))
        assert main(["predict", "--tree", str(tree), "--xt", "1", "--rate", "0"]) == 2
        assert "unknown feature" in capsys.readouterr().err


class TestEvaluate:
    def test_report_shape(self, tmp_path, features_csv, cohort_dir):
        out = tmp_path / "report"
        assert main(["evaluate", "--features", str(features_csv), "--k", "5",
                     "--allocations", "4", "--seed", "3",
                     "--cohort", str(cohort_dir / "cohort.json"),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["per_run"]) == 20
        assert all("tree" in run for run in summary["per_run"])
        assert summary["seeds"] == [3, 4, 5, 6]
        assert summary["config"]["costs"] == {"cost_fn": 15.0, "cost_fp": 1.0}
        assert summary["config"]["prune_depth"] == 3
        perf = (out / "performance.csv").read_text().splitlines()
        assert len(perf) == 21  # header + 20 runs
        assert (out / "per_patient.csv").exists()
        assert (out / "missed_events.csv").exists()
        per_patient = (out / "per_patient.csv").read_text().splitlines()
        assert len(per_patient) == 6  # header + 5 patients
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {
            "summary.json", "performance.csv", "per_patient.csv", "missed_events.csv"}

    def test_summary_config_lists_every_constant(self, tmp_path, features_csv):
        out = tmp_path / "report"
        assert main(["evaluate", "--features", str(features_csv), "--seed", "7",
                     "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["config"] == {
            "allocations": 4, "costs": {"cost_fn": 15.0, "cost_fp": 1.0},
            "daytime": ["07:00", "23:00"],
            "decision_offsets_min": [120, 135, 150, 165, 180, 195, 210], "folds": 5,
            "horizon_offsets_min": [15, 20, 25], "hypo_threshold": 3.9, "lead_time_min": 15,
            "peak_window_min": 120, "prune_depth": 3, "seed": 7, "snap_tolerance_min": 2.5}

    def test_usage_error_for_bad_k(self, tmp_path, features_csv, capsys):
        code = main(["evaluate", "--features", str(features_csv), "--k", "1",
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert "error[usage]" in capsys.readouterr().err

    def test_usage_error_for_negative_seed(self, tmp_path, features_csv, capsys):
        out = tmp_path / "r"
        capsys.readouterr()
        assert main(["evaluate", "--features", str(features_csv), "--seed", "-1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error[usage]: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_fewer_instances_than_folds_is_a_data_error(self, tmp_path, capsys):
        t0 = minutes(datetime(2015, 9, 7, 9, 0))
        table = tmp_path / "three.csv"
        with open(table, "w", newline="") as f:
            write_feature_csv([DecisionInstance("p", t0, t0, 10.0, t0 + 5 * k, 8.0, 0.05, k % 2,
                                                8.0) for k in range(3)], f)
        out = tmp_path / "r"
        assert main(["evaluate", "--features", str(table), "--k", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error[data]: 3 instances cannot fill 5 folds\n"
        assert not out.exists()

    def test_allocations_too_large_to_hold_are_a_data_error(self, tmp_path, features_csv,
                                                            capsys):
        # numpy refuses the petabyte alarm matrix before it touches memory
        out = tmp_path / "r"
        assert main(["evaluate", "--features", str(features_csv),
                     "--allocations", str(10**12), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[data]: Unable to allocate")
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path, features_csv):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["evaluate", "--features", str(features_csv),
                         "--seed", "7", "--out", str(out)]) == 0
        for name in ("summary.json", "performance.csv", "per_patient.csv",
                     "missed_events.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # manifests match except for their timestamps
        doc_a = json.loads((out_a / "manifest.json").read_text())
        doc_b = json.loads((out_b / "manifest.json").read_text())
        doc_a.pop("created_utc"), doc_b.pop("created_utc")
        assert doc_a == doc_b

    def test_defaults_come_from_the_pipeline_config(self, tmp_path, features_csv):
        out = tmp_path / "report"
        assert main(["evaluate", "--features", str(features_csv), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {"k": 5, "allocations": 4, "seed": 0}
        config = json.loads((out / "summary.json").read_text())["config"]
        assert (config["lead_time_min"], config["peak_window_min"]) == (15, 120)


class TestReport:
    def test_regenerates_identical_tables(self, tmp_path, features_csv):
        first = tmp_path / "report"
        assert main(["evaluate", "--features", str(features_csv), "--seed", "2",
                     "--out", str(first)]) == 0
        second = tmp_path / "again"
        assert main(["report", "--summary", str(first / "summary.json"),
                     "--out", str(second)]) == 0
        for name in ("performance.csv", "per_patient.csv", "missed_events.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_missed_events_table_heads_and_joins_the_lows(self, tmp_path):
        # two lows among 40 non-hypo decisions at the same point: every tree
        # is one "N" leaf, so both lows are missed
        table = tmp_path / "features.csv"
        table.write_text(",".join(FEATURE_COLUMNS) + "\n" + "".join(
            f"pa,2015-09-07T09:00,2015-09-07T09:30,10.0,2015-09-07T11:00,8.0,0.05,"
            f"{low},{int(low < 3.9)}\n" for low in [2.5, 3.0] + [8.0] * 40))
        report = tmp_path / "report"
        assert main(["evaluate", "--features", str(table), "--k", "2", "--allocations", "1",
                     "--out", str(report)]) == 0
        assert (report / "missed_events.csv").read_text() == (
            "patient_id,sensitivity,predicted_events,missed_events,lowest_bgs,severe_count\n"
            "pa,0.0,0,2,2.5;3.0,1\n")

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["missed_events"].pop("rows"),
        lambda doc: doc["per_run"][3].pop("sensitivity"),
        lambda doc: doc["per_patient"].__setitem__(0, "p00"),
    ], ids=["missed_events_without_rows", "per_run_row_without_column", "row_not_an_object"])
    def test_malformed_summary_is_a_data_error(self, tmp_path, features_csv, capsys, edit):
        report = tmp_path / "report"
        assert main(["evaluate", "--features", str(features_csv), "--out", str(report)]) == 0
        doc = json.loads((report / "summary.json").read_text())
        edit(doc)
        (report / "summary.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--summary", str(report / "summary.json"),
                     "--out", str(tmp_path / "again")]) == 2
        assert "error[data]: summary " in capsys.readouterr().err
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("section, k, column, value, what", [
        ("per_patient", 0, "accuracy", {"a": [1, None]}, "a finite number or null"),
        ("per_run", 0, "tp", "x,y", "an integer"),
        ("per_patient", 1, "n_points", True, "an integer"),
        ("per_run", 2, "seed", 1.5, "an integer"),
        ("per_run", 1, "specificity", math.inf, "a finite number or null"),
        ("per_patient", 0, "patient_id", 7, "a string"),
    ], ids=["object_ratio", "string_count", "bool_count", "float_seed", "infinite_ratio",
            "int_patient_id"])
    def test_cell_of_the_wrong_type_is_a_data_error(self, tmp_path, features_csv, capsys,
                                                    section, k, column, value, what):
        report = tmp_path / "report"
        assert main(["evaluate", "--features", str(features_csv), "--out", str(report)]) == 0
        doc = json.loads((report / "summary.json").read_text())
        doc[section][k][column] = value
        (report / "summary.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--summary", str(report / "summary.json"),
                     "--out", str(tmp_path / "again")]) == 2
        assert capsys.readouterr().err == (
            f"error[data]: summary {section}[{k}] {column!r} must be {what}\n")
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("low", ["[3.0]", "null", "true", '"2.5"', "1e999"],
                             ids=["list", "null", "bool", "string", "overflow"])
    def test_low_that_is_no_finite_number_is_a_data_error(self, tmp_path, capsys, low):
        # one low among 40 non-hypo decisions at the same point: every tree
        # is one "N" leaf, so both patients have a missed-events row
        table = tmp_path / "features.csv"
        table.write_text(",".join(FEATURE_COLUMNS) + "\n" + "".join(
            f"{pid},2015-09-07T09:00,2015-09-07T09:30,10.0,2015-09-07T11:00,8.0,0.05,"
            f"{low},{int(low < 3.9)}\n" for pid in ("pa", "pb") for low in [2.5] + [8.0] * 40))
        report = tmp_path / "report"
        assert main(["evaluate", "--features", str(table), "--k", "2", "--allocations", "1",
                     "--out", str(report)]) == 0
        doc = json.loads((report / "summary.json").read_text())
        doc["missed_events"]["rows"][1]["lows"] = [2.5, "LOW"]
        (report / "summary.json").write_text(json.dumps(doc).replace('"LOW"', low))
        capsys.readouterr()
        assert main(["report", "--summary", str(report / "summary.json"),
                     "--out", str(tmp_path / "again")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]: summary missed_events.rows[1] ")
        assert err.count("\n") == 1
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("seeds", [{"seeds": {"not": "seeds"}}, {"seeds": [True]}, {}],
                             ids=["object", "bool", "missing"])
    def test_seeds_that_are_no_list_of_integers_are_a_data_error(self, tmp_path, capsys, seeds):
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps(
            {"per_run": [], "per_patient": [], "missed_events": {"rows": []}, **seeds}))
        assert main(["report", "--summary", str(summary), "--out", str(tmp_path / "again")]) == 2
        assert capsys.readouterr().err == (
            "error[data]: summary 'seeds' must be a list of integers\n")
        assert not (tmp_path / "again").exists()


ODD_IDS = ("a,b", 'q"d', "c\rr", "n\nl")


class TestCsvSpecialIds:
    """Report tables quote patient ids that hold CSV syntax."""

    def test_report_tables_read_back_intact(self, tmp_path, capsys):
        # per patient one low among 40 non-hypo decisions at the same point:
        # every tree is one "N" leaf, so every patient also has a missed event
        t0 = minutes(datetime(2015, 9, 7, 9, 0))
        table = tmp_path / "features.csv"
        with open(table, "w", newline="") as f:
            write_feature_csv([DecisionInstance(pid, t0, t0, 10.0, t0 + 5 * k,
                                                8.0, 0.05, int(k == 0), 2.5 if k == 0 else 8.0)
                               for pid in ODD_IDS for k in range(41)], f)
        report, again = tmp_path / "report", tmp_path / "again"
        assert main(["evaluate", "--features", str(table), "--k", "2", "--allocations", "1",
                     "--out", str(report)]) == 0
        assert main(["report", "--summary", str(report / "summary.json"),
                     "--out", str(again)]) == 0
        for out in (report, again):
            for name in ("per_patient.csv", "missed_events.csv"):
                with open(out / name, newline="") as f:
                    header, *rows = csv.reader(f)
                assert all(len(row) == len(header) for row in rows), name
                assert [row[0] for row in rows] == sorted(ODD_IDS), name


class TestAnova:
    def test_prints_f_and_p(self, tmp_path, features_csv, cohort_dir, capsys):
        report = tmp_path / "report"
        assert main(["evaluate", "--features", str(features_csv), "--seed", "0",
                     "--cohort", str(cohort_dir / "cohort.json"),
                     "--out", str(report)]) == 0
        capsys.readouterr()
        code = main(["anova", "--report", str(report / "summary.json"),
                     "--metric", "sensitivity"])
        out = capsys.readouterr().out
        if code == 0:
            assert out.startswith("F=") and " p=" in out
            f_part, p_part = out.strip().split()
            assert float(f_part[2:]) >= 0.0
            assert 0.0 <= float(p_part[2:]) <= 1.0
        else:
            # tiny cohorts may hold a single dm_type; that is a data error
            assert code == 2

    def test_groups_that_differ_print_the_f_tail(self, tmp_path, capsys):
        groups = {"type2": [0.5, 0.75, 0.6], "other": [0.8, 1.0], "type1": [1.0, 0.9, 0.95, 1.0]}
        rows = [{"dm_type": k, "sensitivity": v} for k, values in groups.items() for v in values]
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({"per_patient": [
            *rows, {"dm_type": "type1", "sensitivity": None}]}))
        assert main(["anova", "--report", str(summary), "--metric", "sensitivity"]) == 0
        f_stat, p_value = one_way_anova([groups[k] for k in sorted(groups)])
        assert capsys.readouterr().out == f"F={f_stat} p={p_value}\n"
        assert f_stat > 0.0 and 0.0 < p_value < 1.0
        assert p_value == pytest.approx(f_upper_tail_by_quadrature(f_stat, 2, 6), abs=1e-6)

    def test_row_without_group_key_is_a_data_error(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({"per_patient": [
            {"dm_type": "type1", "sensitivity": 1.0},
            {"sensitivity": 0.5},
        ]}))
        assert main(["anova", "--report", str(summary)]) == 2
        assert "error[data]: " in capsys.readouterr().err

    def test_summary_not_an_object_is_a_data_error(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps([{"dm_type": "type1", "sensitivity": 1.0}]))
        assert main(["anova", "--report", str(summary)]) == 2
        assert "error[data]: " in capsys.readouterr().err

    @pytest.mark.parametrize("values", [(["type1"], "type2"), (1, "b")], ids=["list", "int"])
    def test_non_string_group_value_is_a_data_error(self, tmp_path, capsys, values):
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({"per_patient": [
            {"dm_type": "type2", "sensitivity": 0.5},
            {"dm_type": values[0], "sensitivity": 1.0},
            {"dm_type": values[1], "sensitivity": 0.8},
        ]}))
        assert main(["anova", "--report", str(summary)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]: ") and "per_patient[1]" in err

    @pytest.mark.parametrize("value", [[0.5], True, "0.5", math.nan, math.inf, -math.inf, 10**400,
                                       1e200, 10**300, 1.5, -0.5],
                             ids=["list", "bool", "string", "nan", "infinity", "-infinity",
                                  "int_past_float", "huge_float", "huge_int", "above_one",
                                  "below_zero"])
    def test_non_number_metric_is_a_data_error(self, tmp_path, capsys, value):
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({"per_patient": [
            {"dm_type": "type1", "sensitivity": 0.5},
            {"dm_type": "type1", "sensitivity": value},
            {"dm_type": "type2", "sensitivity": 0.8},
            {"dm_type": "type2", "sensitivity": None},
        ]}))
        assert main(["anova", "--report", str(summary)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]: ") and "per_patient[1]" in err


_OPENS: list[tuple[str, bool]] | None = None  # (path, for writing) of each file opened


def _audit_opens(event, args):
    if event == "open" and _OPENS is not None and isinstance(args[0], (str, os.PathLike)):
        mode, flags = args[1], args[2]
        writing = (any(c in mode for c in "wax+") if isinstance(mode, str)
                   else bool(flags & (os.O_WRONLY | os.O_RDWR)))
        _OPENS.append((os.fspath(args[0]), writing))


@pytest.fixture(scope="module")
def chain_opens(tmp_path_factory):
    """Each command of a small chain, by id: its manifest and the files it
    opened to read and to write, as seen by an audit hook (which cannot be
    removed; it stays idle after this fixture)."""
    global _OPENS
    root = tmp_path_factory.mktemp("chain")
    (root / "synth.json").write_text(json.dumps(SMALL_CONFIG))
    cohort, table, report = root / "cohort", root / "features.csv", root / "report"
    commands = {
        "synth_config": ["synth", "--config", str(root / "synth.json"), "--out", str(cohort)],
        "features_cohort": ["features", "--in", str(cohort), "--out", str(table)],
        "features_glob": ["features", "--in", str(root / "glob"), "--out", str(root / "g.csv")],
        "features_file": ["features", "--in", str(cohort / "p02.csv"),
                          "--out", str(root / "one.csv")],
        "train": ["train", "--features", str(table), "--out", str(root / "tree.json")],
        "evaluate_cohort": ["evaluate", "--features", str(table), "--seed", "3",
                            "--cohort", str(cohort / "cohort.json"), "--out", str(report)],
        "report": ["report", "--summary", str(report / "summary.json"),
                   "--out", str(root / "again")],
    }
    sys.addaudithook(_audit_opens)
    seen = {}
    for name, argv in commands.items():
        if name == "features_glob":
            (root / "glob").mkdir()
            for pid in ("p00", "p01"):
                (root / "glob" / f"{pid}.csv").write_bytes((cohort / f"{pid}.csv").read_bytes())
        _OPENS = []
        try:
            assert main(argv) == 0
            opened = _OPENS
        finally:
            _OPENS = None
        [manifest] = {Path(p) for p, writing in opened
                      if writing and p.endswith("manifest.json")}
        seen[name] = (manifest, {Path(p) for p, writing in opened if not writing},
                      {Path(p) for p, writing in opened if writing} - {manifest})
    return seen


class TestManifests:
    """A manifest lists exactly the files its command read, and every file it
    wrote but itself, each with the SHA-256 of its bytes."""

    @pytest.mark.parametrize("command", ["synth_config", "features_cohort", "features_glob",
                                         "features_file", "train", "evaluate_cohort", "report"])
    def test_lists_the_files_read_and_written(self, chain_opens, command):
        path, read, written = chain_opens[command]
        manifest = json.loads(path.read_text())
        assert read and {Path(name) for name in manifest["inputs"]} == read
        assert {p.parent for p in written} == {path.parent}
        assert set(manifest["outputs"]) == {p.name for p in written}
        for name, digest in manifest["inputs"].items():
            assert digest == hashlib.sha256(Path(name).read_bytes()).hexdigest(), name
        for name, digest in manifest["outputs"].items():
            assert digest == hashlib.sha256((path.parent / name).read_bytes()).hexdigest(), name


JSON_INPUTS = {
    "synth_config": lambda bad, tmp: ["synth", "--config", str(bad), "--out", str(tmp / "c")],
    "cohort_json": lambda bad, tmp: ["features", "--in", str(bad.parent),
                                     "--out", str(tmp / "f.csv")],
    "evaluate_cohort": lambda bad, tmp: ["evaluate", "--features", str(tmp / "features.csv"),
                                         "--cohort", str(bad), "--out", str(tmp / "r")],
    "summary": lambda bad, tmp: ["report", "--summary", str(bad), "--out", str(tmp / "r")],
    "anova_summary": lambda bad, tmp: ["anova", "--report", str(bad)],
    "tree": lambda bad, tmp: ["predict", "--tree", str(bad), "--xt", "1", "--rate", "0"],
}


class TestJsonInputs:
    @pytest.mark.parametrize("argv", JSON_INPUTS.values(), ids=JSON_INPUTS.keys())
    @pytest.mark.parametrize("text", [b'{"a": ', b'{"a": "\xff"}', b"[" * 5000 + b"]" * 5000],
                             ids=["syntax", "utf8", "deep"])
    def test_a_decode_error_names_the_file(self, tmp_path, features_csv, capsys, argv, text):
        bad = tmp_path / "bad" / "cohort.json"
        bad.parent.mkdir()
        bad.write_bytes(text)
        capsys.readouterr()
        assert main(argv(bad, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[data]: {bad}: not valid JSON (") and err.count("\n") == 1


RECORD_BYTES = ",".join(CSV_COLUMNS).encode() + b"\n0,7.Sep.15,9:22,.,5.0\xff\n"
FEATURE_BYTES = ",".join(FEATURE_COLUMNS).encode() + (
    b"\np,2015-09-07T09:00,2015-09-07T09:30,10.0,2015-09-07T11:00,8.0,0.05,8.0,0\xff\n")
TEXT_INPUTS = {
    "ingest": (RECORD_BYTES, lambda bad, tmp: ["ingest", "--in", str(bad)]),
    "features": (RECORD_BYTES, lambda bad, tmp: ["features", "--in", str(bad),
                                                 "--out", str(tmp / "f.csv")]),
    "train": (FEATURE_BYTES, lambda bad, tmp: ["train", "--features", str(bad),
                                               "--out", str(tmp / "t.json")]),
    "evaluate": (FEATURE_BYTES, lambda bad, tmp: ["evaluate", "--features", str(bad),
                                                  "--out", str(tmp / "r")]),
}


class TestTextInputs:
    @pytest.mark.parametrize("data, argv", TEXT_INPUTS.values(), ids=TEXT_INPUTS.keys())
    def test_a_byte_that_is_no_utf8_is_a_data_error(self, tmp_path, capsys, data, argv):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data)
        assert main(argv(bad, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]: 'utf-8' codec can't decode byte 0xff ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [bad]


class TestUsage:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["ingest", "--nope"]) == 1
        assert "error[usage]" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "hypoalarm.cli", "--help"],
                              capture_output=True, text=True, env=source_tree_env())
        assert proc.returncode == 0
        assert "synth" in proc.stdout and "evaluate" in proc.stdout

    def test_import_leaves_scipy_special_unloaded(self):
        code = "import sys, hypoalarm.cli; print('scipy.special' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=source_tree_env())
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    def test_every_command_runs_without_scipy(self, tmp_path):
        cohort, features, report = (str(tmp_path / name) for name in ("cohort", "f.csv", "report"))
        commands = [["synth", "--seed", "7", "--out", cohort],
                    ["features", "--in", cohort, "--out", features],
                    ["evaluate", "--features", features, "--cohort", cohort + "/cohort.json",
                     "--out", report],
                    ["anova", "--report", report + "/summary.json", "--metric", "accuracy"]]
        code = ("import sys\n"
                "sys.modules['scipy'] = None  # every import of scipy now fails\n"
                "from hypoalarm.cli import main\n"
                f"for argv in {commands!r}:\n"
                "    print('exit', main(argv), file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=source_tree_env())
        assert (proc.returncode, proc.stderr) == (0, "exit 0\n" * 4)
        f_part, p_part = proc.stdout.splitlines()[-1].split()
        assert f_part.startswith("F=") and 0.0 < float(p_part.removeprefix("p=")) < 1.0

    def test_a_surprise_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        def boom(cfg):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "generate_cohort", boom)
        assert main(["synth", "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err == "error[internal]: boom\n"
        assert not (tmp_path / "x").exists()

    def test_calls_in_one_process_share_no_state(self, tmp_path, capsys):
        record = tmp_path / "r.csv"  # 700 is a reading in mg/dL, and past BG_MAX in mmol/L
        record.write_text("Sample#,Date,Time,Meal,SensorBG\n0,7.Sep.15,9:22,.,700\n")
        assert main(["ingest", "--in", str(record), "--unit", "mg", "--nope"]) == 1
        assert main(["ingest", "--in", str(record), "--unit", "mg"]) == 0
        assert main(["ingest", "--in", str(record)]) == 2  # the default unit, not the last one
        out, err = capsys.readouterr()
        assert out == "patient=r samples=1 meals=0 missing=0\n"
        assert err.splitlines() == [
            "error[usage]: unrecognized arguments: --nope",
            "error[data]: row 2: SensorBG must be a number in (0, 40.0] mmol/L, got '700'"]
        assert cli._build_parser() is cli._build_parser()
