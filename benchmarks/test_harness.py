"""Self-tests of the benchmark harness: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import harness  # noqa: E402
import hypoalarm  # noqa: E402
from hypoalarm import cli, evaluation, features  # noqa: E402
from spans import Span, self_times  # noqa: E402


def test_self_time_subtracts_children_and_hot_calls():
    spans = [
        Span("root", 0.0, 10.0, -1, 0, hot_s=0.5),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),        # overlaps a: the union 1..6 counts once
        Span("a.child", 2.0, 3.0, 1, 0, hot_s=0.25),
        Span("c", 8.0, 12.0, 0, 0),       # runs past its parent: clipped at 10
        Span("other", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2 - 0.5, 3 - 1, 3, 1 - 0.25, 4, 1])


def _round_reference(w) -> dict:
    files = [w.outcome(i, w.run_op(i))[0] for i in range(w.ops_per_round)]
    return harness.digests(w.round_files(files))


def _flip_last_label(write):
    def perturbed(instances, path):
        buf = io.StringIO()
        write(instances, buf)
        text = buf.getvalue()
        path.write(text[:-2] + ("1" if text[-2] == "0" else "0") + "\n")
    return perturbed


def test_output_check_rejects_a_perturbed_output(tmp_path, monkeypatch):
    w = harness.Records(7, 2, tmp_path)
    w.setup()
    reference = _round_reference(w)
    assert harness.measure(w, 0, reference, harness.Speed()).failed == 0

    monkeypatch.setattr(features, "write_feature_csv",
                        _flip_last_label(features.write_feature_csv))
    m = harness.measure(w, 0, reference, harness.Speed())
    assert m.attempted == 2 and m.failed == 2
    assert any("reference" in e for e in m.errors)


def test_repetitions_must_agree_without_a_reference(tmp_path, monkeypatch):
    w = harness.Records(8, 2, tmp_path)
    w.setup()
    write = features.write_feature_csv
    calls = []

    def drifting(instances, path):  # correct in the first round, perturbed later
        calls.append(1)
        (write if len(calls) <= 2 else _flip_last_label(write))(instances, path)

    monkeypatch.setattr(features, "write_feature_csv", drifting)
    m = harness.measure(w, 0.2, None, harness.Speed())
    assert len(m.round_counts) >= 2
    assert m.failed == m.attempted - 2


def test_evaluate_summary_matches_the_cli_bytes(tmp_path):
    (tmp_path / "cfg.json").write_text('{"n_patients": 3}')
    for argv in (["synth", "--config", str(tmp_path / "cfg.json"), "--seed", "11",
                  "--out", str(tmp_path / "c")],
                 ["features", "--in", str(tmp_path / "c"), "--out", str(tmp_path / "f.csv")],
                 ["evaluate", "--features", str(tmp_path / "f.csv"), "--seed", "11",
                  "--cohort", str(tmp_path / "c" / "cohort.json"), "--out", str(tmp_path / "r")]):
        assert cli.main(argv) == 0
    instances = features.read_feature_csv(tmp_path / "f.csv")
    cohort = json.loads((tmp_path / "c" / "cohort.json").read_text())
    dm_types = {p["id"]: p["dm_type"] for p in cohort["patients"]}
    report = evaluation.cross_validate(instances, harness.CFG, seed=11)
    best = evaluation.select_best_run(report)
    text = harness.evaluate_summary(
        instances, harness.CFG, 11, report, best,
        evaluation.evaluate_per_patient(best.tree, instances, dm_types),
        evaluation.missed_event_analysis(best.tree, instances))
    assert text == (tmp_path / "r" / "summary.json").read_text()


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_harness_reports():
    import run

    spec = _benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(harness.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_each_workload_completes_at_a_tiny_cohort(name, trace, tmp_path):
    # The chain's ANOVA needs two groups and one of them with two patients.
    patients = 3 if name == "cli33" else 2
    record = harness.run_workload(name, seed=7, seconds=0.05, trace=trace,
                                  n_patients=patients, out_dir=tmp_path)
    assert record["correct"], record["errors"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    line = harness.result_line(record)
    spec = _benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    # Tracing leaves the package as it found it.
    assert evaluation.grow_tree is hypoalarm.cart.grow_tree
    assert not hasattr(hypoalarm.cart.grow_tree, "__wrapped__")
    if trace and name != "records330":
        # Calls made through `from .cart import grow_tree` are seen: 4 x 5 folds.
        assert line["metrics"]["cart.grow_tree.calls"]["value"] >= 20


def test_failed_operations_are_counted_and_the_result_stays_valid_json(tmp_path, monkeypatch):
    def broken(series, cfg=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(features, "build_instances", broken)
    record = harness.run_workload("records330", seed=7, seconds=0, n_patients=2,
                                  out_dir=tmp_path)
    line = json.loads(json.dumps(harness.result_line(record), allow_nan=False))
    assert not line["correct"] and line["failed"] == line["attempted"] == 2
    assert line["metrics"]["ok_ratio"]["value"] == 0
    assert "RuntimeError: boom" in record["errors"][0]
