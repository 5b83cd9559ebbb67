"""Round trips of the record CSV, feature CSV and tree JSON formats over
generated inputs."""

import io
import json
import math
import tempfile
from datetime import datetime
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoalarm import (
    DecisionInstance,
    PatientSeries,
    parse_cgm_file,
    parse_tree,
    read_feature_csv,
    serialize_tree,
    series_to_csv,
    write_feature_csv,
)
from hypoalarm.cart import FEATURES, Leaf, Split
from hypoalarm.cgm_data import DM_TYPES

from oracle_utils import minutes

SETTINGS = settings(max_examples=60, deadline=None)

BG = st.floats(min_value=0.0, max_value=40.0, exclude_min=True)
# record dates carry a two-digit year, so sample times stay within 2000-2098
LAST_START = 98 * 365 * 1440


@st.composite
def series(draw):
    """Whole-minute series with gaps of up to three days, missing readings
    and meal rows (which may themselves lack a reading)."""
    steps = draw(st.lists(st.integers(1, 3 * 1440), max_size=40))
    times = draw(st.integers(0, LAST_START)) + np.cumsum(steps, dtype=np.int64)
    rows = [(float(t), draw(st.just(math.nan) | BG), draw(st.just(math.nan) | BG))
            for t in times]
    return PatientSeries(draw(st.text()), np.array(rows).reshape(-1, 3),
                         draw(st.sampled_from(DM_TYPES)))


# whole minutes since the epoch whose time cells have four-digit years
WHOLE_MINUTE = st.datetimes(min_value=datetime(1000, 1, 1)).map(
    lambda t: minutes(t.replace(second=0, microsecond=0)))
FINITE = st.floats(allow_nan=False, allow_infinity=False)
IDS = st.text() | st.text(',"\r\n\t x')  # any text, and text dense in CSV syntax
INSTANCE = st.builds(
    DecisionInstance, patient_id=IDS, meal_time=WHOLE_MINUTE, peak_time=WHOLE_MINUTE,
    peak_value=FINITE, decision_time=WHOLE_MINUTE, x_t=FINITE, rate=FINITE,
    label=st.sampled_from((0, 1)), ph_min_bg=FINITE)


@SETTINGS
@given(series())
def test_record_csv_round_trip(s):
    assert parse_cgm_file(series_to_csv(s), patient_id=s.patient_id, dm_type=s.dm_type) == s


@SETTINGS
@given(st.lists(INSTANCE, max_size=4))
def test_feature_csv_round_trip(instances):
    buf = io.StringIO()
    write_feature_csv(instances, buf)
    assert read_feature_csv(buf.getvalue()) == instances
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.csv"
        with open(path, "w", newline="") as f:
            write_feature_csv(instances, f)
        assert read_feature_csv(path) == instances


# thresholds at the edges of the float range as well as arbitrary finite ones
THRESHOLD = st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                             1.7976931348623157e308]) | FINITE
COUNT = st.integers(0, 2**53) | st.integers(0, 10**30)


def trees(depth):
    """Any tree at most `depth` splits deep."""
    leaf = st.builds(Leaf, st.sampled_from(("N", "H")), COUNT, COUNT)
    if depth == 0:
        return leaf
    return leaf | st.builds(Split, st.sampled_from(FEATURES), THRESHOLD,
                            trees(depth - 1), trees(depth - 1))


@SETTINGS
@given(trees(4))
def test_tree_json_round_trip(tree):
    parsed = parse_tree(json.loads(json.dumps(serialize_tree(tree))))
    assert parsed == tree
    assert repr(parsed) == repr(tree)  # also tells -0.0 from 0.0
