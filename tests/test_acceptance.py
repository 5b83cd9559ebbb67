"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. Each test also enforces its runtime budget.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from hypoalarm import (
    CostMatrix,
    allocate_folds,
    build_instances,
    cross_validate,
    grow_tree,
    leaf_class,
    metrics,
    missed_event_analysis,
    one_way_anova,
    predict,
    select_best_run,
)
from hypoalarm.cart import Leaf, Split, _gini_and_mass, tree_depth
from hypoalarm.cli import main
from hypoalarm.evaluation import ConfusionMatrix, f_upper_tail
from hypoalarm.features import DecisionInstance
from hypoalarm.synth import SynthConfig, generate_cohort

from conftest import WORKED_ROWS, WORKED_ANCHORS, WORKED_MEALS, series_from_anchors, ts_minutes
from oracle_utils import (best_split, brute_force_best_split, f_upper_tail_by_quadrature,
                          oracle_prune)

COSTS = CostMatrix(15.0, 1.0)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, f"runtime {elapsed:.2f}s over budget {self.seconds}s"


def test_c01_worked_example_rates_and_labels():
    """Six published rate values within 5e-4 and both labels, under 1 s."""
    with Budget(1.0):
        series = series_from_anchors(WORKED_ANCHORS, WORKED_MEALS)
        instances = {i.decision_time: i for i in build_instances(series)}
        printed = {"21:07": 0.081, "21:22": 0.064, "21:37": 0.058,
                   "10:42": 0.072, "10:57": 0.071, "11:12": 0.069}
        for hhmm, rate in printed.items():
            assert instances[ts_minutes(hhmm)].rate == pytest.approx(rate, abs=5e-4)
        assert instances[ts_minutes("21:07")].label == 0
        assert instances[ts_minutes("11:12")].label == 1
        for hhmm, x_t, _, label in WORKED_ROWS:
            assert instances[ts_minutes(hhmm)].x_t == x_t
            assert instances[ts_minutes(hhmm)].label == label


def test_c02_fold_sizes_and_partition_properties():
    """1867/5 gives sizes {373,373,373,374,374} for 100 seeds; random (n, k)
    plans stay disjoint, covering, and balanced over 1000 cases, under 5 s."""
    with Budget(5.0):
        for seed in range(100):
            plan = allocate_folds(1867, 5, seed)
            assert sorted(len(g) for g in plan.groups) == [373, 373, 373, 374, 374]
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            k = int(rng.integers(2, 10))
            n = int(rng.integers(k, 500))
            plan = allocate_folds(n, k, int(rng.integers(0, 1_000_000)))
            flat = [i for g in plan.groups for i in g]
            assert sorted(flat) == list(range(n))
            sizes = [len(g) for g in plan.groups]
            assert max(sizes) - min(sizes) <= 1


def test_c03_protocol_emits_twenty_vectors_and_trees(tmp_path):
    """`evaluate` with k=5, R=4 yields exactly 20 runs and 20 trees on a
    full-scale synthetic cohort, under 10 s."""
    cohort_dir = tmp_path / "cohort"
    features_csv = tmp_path / "features.csv"
    report_dir = tmp_path / "report"
    assert main(["synth", "--seed", "0", "--out", str(cohort_dir)]) == 0
    assert main(["features", "--in", str(cohort_dir), "--out", str(features_csv)]) == 0
    with Budget(10.0):
        assert main(["evaluate", "--features", str(features_csv), "--k", "5",
                     "--allocations", "4", "--seed", "0",
                     "--cohort", str(cohort_dir / "cohort.json"),
                     "--out", str(report_dir)]) == 0
    summary = json.loads((report_dir / "summary.json").read_text())
    assert len(summary["per_run"]) == 20
    assert sum(1 for run in summary["per_run"] if run["tree"]) == 20
    assert len((report_dir / "performance.csv").read_text().splitlines()) == 21
    assert 1500 <= summary["n_instances"] <= 2300


def test_c04_split_search_matches_brute_force_oracle():
    """best_split equals an exhaustive oracle on 500 random datasets and every
    leaf minimizes expected misclassification cost; zero mismatches, under 30 s."""
    with Budget(30.0):
        rng = np.random.default_rng(99)
        features = ("x_t", "rate")
        mismatches = 0
        for case in range(500):
            n = int(rng.integers(2, 201))
            X = np.column_stack([rng.uniform(2.0, 16.0, n), rng.uniform(-0.05, 0.12, n)])
            if case % 3 == 0:  # force duplicate values to exercise midpoints
                X = np.round(X, 1)
            y = (rng.random(n) < rng.uniform(0.05, 0.6)).astype(int)
            rows = [(float(a), float(b), int(c)) for (a, b), c in zip(X, y)]
            expected = brute_force_best_split(rows, COSTS.cost_fn, COSTS.cost_fp)
            got = best_split(X, y, COSTS)
            if expected is None:
                if got is not None:
                    mismatches += 1
            elif (got is None or got.feature != features[expected[0]]
                    or got.threshold != expected[1]
                    or abs(got.impurity_decrease - expected[2]) > 1e-9):
                mismatches += 1
            if case % 10 == 0:
                tree = grow_tree(X, y, COSTS)
                stack = [tree]
                while stack:
                    node = stack.pop()
                    if isinstance(node, Leaf):
                        cost_as_n = COSTS.cost_fn * node.n_h
                        cost_as_h = COSTS.cost_fp * node.n_n
                        incurred = cost_as_h if node.label == "H" else cost_as_n
                        assert incurred <= min(cost_as_n, cost_as_h)
                    else:
                        stack.append(node.left)
                        stack.append(node.right)
        assert mismatches == 0


def test_c05_gini_weighting_and_cost_monotonicity():
    """The cost-weighted Gini of (15, 1) is exactly 0.5; the alarm-leaf set grows with
    cost_fn in {1, 5, 15, 50} on 100 fitted trees, under 10 s."""
    with Budget(10.0):
        assert _gini_and_mass(15, 1, COSTS)[0] == 0.5
        rng = np.random.default_rng(55)
        for _ in range(100):
            n = int(rng.integers(10, 80))
            X = np.column_stack([rng.uniform(2.0, 16.0, n), rng.uniform(-0.05, 0.12, n)])
            y = (rng.random(n) < 0.3).astype(int)
            tree = grow_tree(X, y, COSTS)
            leaves = []
            stack = [tree]
            while stack:
                node = stack.pop()
                if isinstance(node, Leaf):
                    leaves.append(node)
                else:
                    stack.append(node.left)
                    stack.append(node.right)
            previous = None
            for cost_fn in (1.0, 5.0, 15.0, 50.0):
                costs = CostMatrix(cost_fn, 1.0)
                flagged = {i for i, leaf in enumerate(leaves)
                           if leaf_class(leaf.n_n, leaf.n_h, costs) == "H"}
                if previous is not None:
                    assert previous <= flagged
                previous = flagged


def test_c06_pruning_bounds_every_path_to_three_edges():
    """A tree grown to depth 3 has no root-to-leaf path over 3 edges and
    equals the fully grown tree pruned to depth 3, over 1000 random
    training sets, under 10 s."""
    with Budget(10.0):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(2, 50))
            X = np.column_stack([rng.uniform(2.0, 16.0, n), rng.uniform(-0.05, 0.12, n)])
            y = rng.integers(0, 2, size=n)
            tree = grow_tree(X, y, COSTS, 3)
            assert tree_depth(tree) <= 3
            assert tree == oracle_prune(grow_tree(X, y, COSTS), 3, COSTS)


def test_c07_synthetic_end_to_end_signal_recovery():
    """Ten generator seeds: alarm prevalence in [4%, 10%], cross-validated
    mean sensitivity and specificity both >= 0.70, and the best tree's root
    splits on x_t with its high-BG side predicting N, under 60 s."""
    with Budget(60.0):
        for seed in range(10):
            cohort = generate_cohort(SynthConfig(seed=seed))
            instances = []
            for series in cohort:
                instances.extend(build_instances(series))
            assert 1500 <= len(instances) <= 2300
            prevalence = sum(inst.label for inst in instances) / len(instances)
            assert 0.04 <= prevalence <= 0.10, f"seed {seed}: prevalence {prevalence:.3%}"
            report = cross_validate(instances, seed=seed)
            assert report.aggregate["sensitivity"] >= 0.70, f"seed {seed}"
            assert report.aggregate["specificity"] >= 0.70, f"seed {seed}"
            best = select_best_run(report).tree
            assert isinstance(best, Split) and best.feature == "x_t", f"seed {seed}"
            high_side = [inst for inst in instances if inst.x_t >= best.threshold]
            assert high_side, f"seed {seed}: empty high-BG side"
            assert all(predict(best, inst.x_t, inst.rate) == "N" for inst in high_side), \
                f"seed {seed}: alarm on the high-BG side"


def test_c08_metric_algebra_matches_rational_arithmetic():
    """Float metrics match exact rational values within 1e-12 over 1000
    random confusion matrices; the worked per-patient rows reproduce, under 5 s."""
    with Budget(5.0):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            tp, fn, fp, tn = (int(v) for v in rng.integers(0, 60, size=4))
            if tp + fn + fp + tn == 0:
                continue
            vec = metrics(ConfusionMatrix(tp, fn, fp, tn))
            assert abs(vec.accuracy - Fraction(tp + tn, tp + fn + fp + tn)) < 1e-12
            if tp + fn:
                assert abs(vec.sensitivity - Fraction(tp, tp + fn)) < 1e-12
            else:
                assert vec.sensitivity is None
            if tn + fp:
                assert abs(vec.specificity - Fraction(tn, tn + fp)) < 1e-12
            else:
                assert vec.specificity is None
        # one alarm out of five events is a 20% sensitivity
        assert metrics(ConfusionMatrix(1, 4, 17, 67)).sensitivity == 0.2
        perfect = metrics(ConfusionMatrix(2, 0, 0, 54))
        assert (perfect.accuracy, perfect.sensitivity, perfect.specificity) == (1.0, 1.0, 1.0)


def test_c09_anova_statistic_and_p_value():
    """F({1,2,3},{2,3,4}) = 1.5 within 1e-12; p matches density quadrature
    within 1e-6 over 100 random (F, d1, d2) triples; identical groups give
    (0, 1), under 10 s."""
    with Budget(10.0):
        f_stat, _ = one_way_anova([[1, 2, 3], [2, 3, 4]])
        assert abs(f_stat - 1.5) < 1e-12
        assert one_way_anova([[2.0, 2.0], [2.0, 2.0]]) == (0.0, 1.0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            d1 = int(rng.integers(1, 9))
            d2 = int(rng.integers(2, 41))
            f_value = float(rng.uniform(0.01, 8.0))
            p_lib = f_upper_tail(f_value, d1, d2)
            p_oracle = f_upper_tail_by_quadrature(f_value, d1, d2)
            assert abs(p_lib - p_oracle) < 1e-6
        # the full path: the worked groups' p agrees with quadrature too
        f_stat, p_value = one_way_anova([[1, 2, 3], [2, 3, 4]])
        assert abs(p_value - f_upper_tail_by_quadrature(f_stat, 1, 4)) < 1e-6


def test_c10_severity_flags_exactly_at_the_threshold():
    """Missed events are severe exactly when the horizon low is <= 2.8
    mmol/L, boundary included, under 5 s."""
    with Budget(5.0):
        base = ts_minutes("8:00")

        def inst(pid, low, minute):
            return DecisionInstance(
                patient_id=pid, meal_time=base,
                peak_time=base + 30, peak_value=12.0,
                decision_time=base + 120 + minute,
                x_t=9.0, rate=0.01, label=1, ph_min_bg=low)

        lows = {"pa": [2.8, 2.81, 3.9], "pb": [2.2, 3.0], "pc": [2.800000001]}
        instances = [inst(pid, low, i)
                     for pid, values in lows.items() for i, low in enumerate(values)]
        report = missed_event_analysis(Leaf("N", 1, 0), instances)
        by_id = {row.patient_id: row for row in report.rows}
        assert by_id["pa"].severe_count == 1   # 2.8 is severe, 2.81 is not
        assert by_id["pb"].severe_count == 1
        assert by_id["pc"].severe_count == 0   # strictly above the boundary
        assert report.total_missed == 6
        assert report.total_severe == 2


def test_c11_evaluate_is_byte_deterministic(tmp_path):
    """Two `evaluate` runs with the same seed and inputs write identical
    CSV and JSON reports, under 20 s."""
    with Budget(20.0):
        cohort_dir = tmp_path / "cohort"
        features_csv = tmp_path / "features.csv"
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"n_patients": 8, "seed": 13}))
        assert main(["synth", "--config", str(config), "--out", str(cohort_dir)]) == 0
        assert main(["features", "--in", str(cohort_dir), "--out", str(features_csv)]) == 0
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["evaluate", "--features", str(features_csv), "--k", "5",
                         "--allocations", "4", "--seed", "11", "--out", str(out)]) == 0
        for name in ("summary.json", "performance.csv", "per_patient.csv",
                     "missed_events.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
