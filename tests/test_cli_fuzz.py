"""The CLI under one-value edits of its inputs.

`report` and `anova` read a seed-7 `summary.json` with one value inside
`per_run`, `per_patient` or `missed_events.rows` replaced by an arbitrary
JSON value; `train` reads the seed-7 feature table with one cell replaced.
Each exits 0, 1 or 2, never 3, and a failure prints exactly one
``error[...]`` line.
"""

import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoalarm import missed_event_analysis, read_feature_csv
from hypoalarm.cart import Leaf
from hypoalarm.cli import main

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**400)
           | st.floats() | st.text(max_size=8))  # floats include NaN and ±inf (1e999)
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                           max_leaves=4)
CELLS = (st.text(max_size=12) | st.floats().map(repr) | st.integers().map(str)
         | st.sampled_from(["", "nan", "-inf", "1e999", "1e308", "-1.7976931348623157e308",
                            "2", "-0", "9" * 5000, "0001-01-01T00:00", "9999-12-31T23:59",
                            "2015-02-29T10:00", '"', "\r", "\n"]))
SECTIONS = (("per_run",), ("per_patient",), ("missed_events", "rows"))


@pytest.fixture(scope="module")
def seed_7(tmp_path_factory):
    """The seed-7 feature table text, the summary of `evaluate --seed 7
    --cohort`, and every path to a value inside each of its row lists. The
    missed events are those of a tree that never alarms, so every patient
    with a low has a row."""
    root = tmp_path_factory.mktemp("seed7")
    cohort, table, report = root / "cohort", root / "features.csv", root / "report"
    for argv in (["synth", "--seed", "7", "--out", str(cohort)],
                 ["features", "--in", str(cohort), "--out", str(table)],
                 ["evaluate", "--features", str(table), "--seed", "7",
                  "--cohort", str(cohort / "cohort.json"), "--out", str(report)]):
        assert run(argv)[0] == 0
    summary = json.loads((report / "summary.json").read_text())
    severity = missed_event_analysis(Leaf("N", 1, 0), read_feature_csv(table))
    summary["missed_events"]["rows"] = json.loads(json.dumps([asdict(r) for r in severity.rows]))
    paths = {}
    for section in SECTIONS:
        rows = summary
        for key in section:
            rows = rows[key]
        paths[section] = [section + (k,) + tail for k, row in enumerate(rows)
                          for tail in [()] + [(key,) for key in row]
                          + [("lows", i) for i in range(len(row.get("lows", ())))]]
    return table.read_text(), summary, paths


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2), err
    if code:
        assert err.startswith("error[") and err.count("\n") == 1, err


@SETTINGS
@given(data=st.data(), value=JSON_VALUES)
def test_report_and_anova_on_an_edited_summary(seed_7, data, value):
    _, summary, paths = seed_7
    path = data.draw(st.sampled_from(SECTIONS).flatmap(lambda s: st.sampled_from(paths[s])))
    doc = json.loads(json.dumps(summary))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "summary.json").write_text(json.dumps(doc))
        summary_path = str(Path(tmp) / "summary.json")
        assert_clean_exit(*run(["report", "--summary", summary_path, "--out", tmp + "/out"]))
        assert_clean_exit(*run(["anova", "--report", summary_path]))


@SETTINGS
@given(data=st.data(), cell=CELLS)
def test_train_on_an_edited_feature_table(seed_7, data, cell):
    rows = list(csv.reader(io.StringIO(seed_7[0], newline="")))
    line = data.draw(st.integers(0, len(rows) - 1))
    rows[line][data.draw(st.integers(0, len(rows[line]) - 1))] = cell
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "features.csv"
        with open(table, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        assert_clean_exit(*run(["train", "--features", str(table),
                                "--out", str(Path(tmp) / "tree.json")]))
