import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import betainc
from scipy.stats import f_oneway

from hypoalarm import (
    CostMatrix,
    PipelineConfig,
    SynthConfig,
    alarms,
    allocate_folds,
    build_instances,
    cross_validate,
    evaluate_per_patient,
    generate_cohort,
    grow_tree,
    instances_to_arrays,
    metrics,
    missed_event_analysis,
    one_way_anova,
    predict,
    select_best_run,
    summary_document,
)
from hypoalarm import evaluation
from hypoalarm.cart import Leaf, Split
from hypoalarm.evaluation import (ConfusionMatrix, FoldPlan, PerformanceVector, RunEntry,
                                  RunReport, SeverityReport, _confusions, f_upper_tail)
from hypoalarm.features import DecisionInstance

from conftest import ts_minutes
from oracle_utils import (f_upper_tail_by_quadrature, loop_confusion, loop_predict,
                          loop_score_patients)


def make_instance(x_t, rate, label, patient_id="p00", ph_min_bg=None, minute=0):
    base = ts_minutes("8:00")
    return DecisionInstance(
        patient_id=patient_id,
        meal_time=base,
        peak_time=base + 30,
        peak_value=12.0,
        decision_time=base + 120 + minute,
        x_t=x_t,
        rate=rate,
        label=label,
        ph_min_bg=ph_min_bg if ph_min_bg is not None else (3.5 if label else 6.5),
    )


def one_group(alarm, labels):
    """`_confusions` of a single group: "H"/"N" alarms against 0/1 labels."""
    alarm = np.array(alarm) == "H"
    return _confusions(np.zeros(alarm.size, dtype=np.intp), 1, alarm, np.array(labels) == 1)


class TestConfusions:
    def test_direct_count(self):
        [cm] = one_group(["H", "N", "H", "N"], [1, 1, 0, 0])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)

    def test_all_correct(self):
        [cm] = one_group(["H", "N", "N"], [1, 0, 0])
        assert cm.fn == 0 and cm.fp == 0

    def test_one_of_five_events_caught(self):
        preds = ["H"] + ["N"] * 4
        [cm] = one_group(preds, [1] * 5)
        assert cm.tp == 1 and cm.fn == 4

    def test_groups_count_like_a_loop(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 7, 100):
            for k in (1, 3, 8):
                codes = rng.integers(0, k, size=n)
                preds = rng.choice(["H", "N"], size=n)
                labels = rng.integers(0, 2, size=n)
                got = _confusions(codes, k, preds == "H", labels == 1)
                assert len(got) == k
                for code, cm in enumerate(got):
                    group = codes == code
                    assert cm == loop_confusion(preds[group].tolist(), labels[group].tolist())

    def test_a_group_without_instances_counts_zero(self):
        got = _confusions(np.array([0, 2]), 4, np.array([True, False]), np.array([True, True]))
        assert got == [ConfusionMatrix(1, 0, 0, 0), ConfusionMatrix(0, 0, 0, 0),
                       ConfusionMatrix(0, 1, 0, 0), ConfusionMatrix(0, 0, 0, 0)]


class TestMetrics:
    def test_one_in_five_sensitivity(self):
        vec = metrics(ConfusionMatrix(tp=1, fn=4, fp=17, tn=67))
        assert vec.sensitivity == pytest.approx(0.20)

    def test_perfect_patient(self):
        vec = metrics(ConfusionMatrix(tp=2, fn=0, fp=0, tn=54))
        assert vec.accuracy == 1.0 and vec.sensitivity == 1.0 and vec.specificity == 1.0

    def test_zero_denominator_is_undefined(self):
        vec = metrics(ConfusionMatrix(tp=0, fn=0, fp=1, tn=9))
        assert vec.sensitivity is None
        assert vec.specificity == pytest.approx(0.9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    @pytest.mark.parametrize("field", range(4), ids=["tp", "fn", "fp", "tn"])
    def test_negative_count_rejected(self, field):
        counts = [0, 0, 0, 0]
        counts[field] = -1
        with pytest.raises(ValueError, match="^counts must be non-negative$"):
            ConfusionMatrix(*counts)

    def test_matches_rational_arithmetic(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            tp, fn, fp, tn = (int(v) for v in rng.integers(0, 40, size=4))
            if tp + fn + fp + tn == 0:
                continue
            vec = metrics(ConfusionMatrix(tp, fn, fp, tn))
            assert vec.accuracy == pytest.approx(
                float(Fraction(tp + tn, tp + fn + fp + tn)), abs=1e-12)
            if tp + fn:
                assert vec.sensitivity * (tp + fn) == pytest.approx(tp, abs=1e-9)
            if tn + fp:
                assert vec.specificity * (tn + fp) == pytest.approx(tn, abs=1e-9)


class TestAllocateFolds:
    def test_published_fold_sizes(self):
        plan = allocate_folds(1867, 5, seed=42)
        assert [len(g) for g in plan.groups] == [373, 373, 373, 374, 374]
        assert type(plan.groups) is tuple
        for g in plan.groups:
            assert type(g) is np.ndarray and g.dtype == np.intp and not g.flags.writeable
            with pytest.raises(ValueError):
                g[0] = 0

    def test_ten_into_five_pairs(self):
        plan = allocate_folds(10, 5, seed=0)
        assert all(len(g) == 2 for g in plan.groups)

    def test_deterministic(self):
        assert allocate_folds(100, 5, seed=7) == allocate_folds(100, 5, seed=7)

    def test_distinct_seeds_usually_differ(self):
        assert allocate_folds(100, 5, seed=7) != allocate_folds(100, 5, seed=8)

    def test_groups_are_views_of_one_permutation(self):
        plan = allocate_folds(23, 4, seed=3)
        base = plan.groups[0].base
        assert all(g.base is base for g in plan.groups)
        assert np.array_equal(np.concatenate(plan.groups), base)

    def test_plans_compare_by_value(self):
        plan = allocate_folds(20, 4, seed=1)
        assert plan == FoldPlan(tuple(g.copy() for g in plan.groups))
        assert plan != allocate_folds(20, 5, seed=1)
        assert plan != FoldPlan(tuple(g.copy() for g in plan.groups[::-1]))
        assert plan != tuple(plan.groups)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            allocate_folds(4, 5, seed=0)
        with pytest.raises(ValueError):
            allocate_folds(10, 1, seed=0)

    def test_disjoint_covering_balanced(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            k = int(rng.integers(2, 9))
            n = int(rng.integers(k, 300))
            plan = allocate_folds(n, k, seed=int(rng.integers(0, 10_000)))
            all_indices = [i for g in plan.groups for i in g]
            assert sorted(all_indices) == list(range(n))
            sizes = [len(g) for g in plan.groups]
            assert max(sizes) - min(sizes) <= 1


class TestInstancesToArrays:
    def test_rows_follow_instance_order(self):
        values = [(4.5, 0.05, 1), (12.0, -0.0, 0), (1.7e308, -5e-324, 0), (3.0, 0.0, 1)]
        X, y = instances_to_arrays([make_instance(*v) for v in values])
        assert (X.dtype, X.shape, y.dtype, y.shape) == (np.float64, (4, 2), np.int64, (4,))
        assert X.tobytes() == np.array([v[:2] for v in values]).tobytes()  # -0.0 kept
        assert y.tolist() == [1, 0, 0, 1]

    def test_empty_list(self):
        X, y = instances_to_arrays([])
        assert (X.dtype, X.shape, y.dtype, y.shape) == (np.float64, (0, 2), np.int64, (0,))


def separable_instances(n=40, prefix="p"):
    """Low x_t with high rate is hypoglycemic; everything else is not."""
    rng = np.random.default_rng(3)
    out = []
    for i in range(n):
        label = int(i % 4 == 0)
        x_t = rng.uniform(3.0, 5.0) if label else rng.uniform(7.0, 14.0)
        rate = rng.uniform(0.05, 0.09) if label else rng.uniform(0.0, 0.04)
        out.append(make_instance(x_t, rate, label, patient_id=f"{prefix}{i % 3}", minute=i))
    return out


def tie_heavy_instances(seed, n=120):
    """Random instances whose predictors often repeat, -0.0 and 0.0 among them."""
    rng = np.random.default_rng(seed)
    return [make_instance(float(rng.choice([6.0, -0.0, 0.0, rng.uniform(3.0, 9.0)])),
                          float(rng.choice([0.02, rng.uniform(-0.05, 0.1)])),
                          int(rng.random() < 0.3), minute=i) for i in range(n)]


CV_INSTANCES = {"separable": lambda: separable_instances(60),
                "tie_heavy": lambda: tie_heavy_instances(4)}


class TestCrossValidate:
    def test_twenty_runs(self):
        report = cross_validate(separable_instances(60), PipelineConfig(), seed=0)
        assert len(report.runs) == 20
        assert report.config == PipelineConfig()
        assert (report.k, report.allocations) == (5, 4)  # read through the config
        assert {(e.allocation, e.fold) for e in report.runs} == {
            (a, f) for a in range(4) for f in range(5)}

    def test_k2_on_four_instances(self):
        cfg_small = PipelineConfig(folds=2, allocations=4)
        instances = separable_instances(4)
        report = cross_validate(instances, cfg_small, seed=1)
        assert len(report.runs) == 8

    def test_single_class_training_fold_grows_a_leaf(self):
        cfg_small = PipelineConfig(folds=2, allocations=1)
        instances = [make_instance(8.0, 0.0, 0, minute=m) for m in range(4)]
        report = cross_validate(instances, cfg_small, seed=0)
        assert all(isinstance(e.tree, Leaf) for e in report.runs)

    def test_heldout_discipline(self):
        instances = separable_instances(30)
        cfg = PipelineConfig(folds=3, allocations=2)
        report = cross_validate(instances, cfg, seed=9)
        n = len(instances)
        for plan in report.fold_plans:
            for fold, test_group in enumerate(plan.groups):
                train = set(range(n)) - set(test_group)
                assert train.isdisjoint(test_group)
                assert len(train) + len(test_group) == n

    def test_each_tree_grows_from_its_training_rows(self):
        # the trees grow from one presort; each must equal a tree grown on
        # its fold's training rows alone
        instances = tie_heavy_instances(4)
        cfg = PipelineConfig(folds=3, allocations=2)
        report = cross_validate(instances, cfg, seed=3)
        X, y = instances_to_arrays(instances)
        runs = iter(report.runs)
        for plan in report.fold_plans:
            for test_group in plan.groups:
                train = np.ones(len(instances), dtype=bool)
                train[list(test_group)] = False
                assert next(runs).tree == grow_tree(X[train], y[train], cfg.costs,
                                                    cfg.prune_depth)

    @pytest.mark.parametrize("folds, allocations", [(2, 1), (3, 2), (4, 3), (5, 4)])
    @pytest.mark.parametrize("name", CV_INSTANCES)
    def test_each_fold_hands_grow_tree_a_sound_presort(self, name, folds, allocations,
                                                       monkeypatch):
        # grow_tree uses the presort and the rows unchecked: every row of the
        # presort must list the fold's training rows once each, row f sorted
        # by feature f, and X and y must be as grow_tree's own check leaves them
        handed = []

        def spy(X, y, costs, max_depth, *, _presort):
            assert np.isfinite(X).all() and not np.signbit(X[X == 0]).any()
            assert y.dtype == bool and y.shape == X.shape[:1]
            handed.append(_presort)
            return grow_tree(X, y, costs, max_depth, _presort=_presort)

        monkeypatch.setattr(evaluation, "grow_tree", spy)
        instances = CV_INSTANCES[name]()
        report = cross_validate(instances, PipelineConfig(folds, allocations), seed=8)
        X = instances_to_arrays(instances)[0]
        if name == "tie_heavy":  # -0.0 next to 0.0
            assert (np.signbit(X) & (X == 0.0)).any() and (~np.signbit(X) & (X == 0.0)).any()
        assert len(handed) == folds * allocations
        presorts = iter(handed)
        for plan in report.fold_plans:
            for test_group in plan.groups:
                presort = next(presorts)
                train = np.ones(len(instances), dtype=bool)
                train[list(test_group)] = False
                assert np.issubdtype(presort.dtype, np.integer)
                assert presort.shape == (2, np.count_nonzero(train))
                for f, rows in enumerate(presort):
                    # the fold's training rows, each once
                    assert np.array_equal(np.sort(rows), np.flatnonzero(train))
                    xs = X[rows, f]
                    assert (xs[:-1] <= xs[1:]).all()

    @pytest.mark.parametrize("allocations", [1, 2, 3])
    @pytest.mark.parametrize("folds", [2, 3, 4, 5])
    @pytest.mark.parametrize("make", CV_INSTANCES.values(), ids=CV_INSTANCES.keys())
    def test_out_of_fold_alarms(self, make, folds, allocations):
        instances = make()
        n = len(instances)
        report = cross_validate(instances, PipelineConfig(folds, allocations), seed=6)
        X, y = instances_to_arrays(instances)
        matrix = report.alarms
        assert (matrix.dtype, matrix.shape) == (np.bool_, (allocations, n))
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = True
        runs = iter(report.runs)
        for a, plan in enumerate(report.fold_plans):
            assert sorted(i for g in plan.groups for i in g) == list(range(n))
            for test_group in plan.groups:
                run, g = next(runs), list(test_group)
                assert run.allocation == a
                assert matrix[a, g].tolist() == alarms(run.tree, X[g]).tolist()
                assert run.cm == loop_confusion([predict(run.tree, *X[i]) for i in g], y[g])
        assert next(runs, None) is None

    def test_aggregate_is_mean_of_defined_values(self):
        report = cross_validate(separable_instances(60), PipelineConfig(), seed=2)
        for name in ("accuracy", "sensitivity", "specificity"):
            values = [getattr(e.vector, name) for e in report.runs
                      if getattr(e.vector, name) is not None]
            assert report.aggregate[name] == pytest.approx(
                sum(values) / len(values), abs=1e-12)

    def test_deterministic(self):
        instances = separable_instances(60)
        a = cross_validate(instances, PipelineConfig(), seed=5)
        b = cross_validate(instances, PipelineConfig(), seed=5)
        assert a == b
        assert np.array_equal(a.alarms, b.alarms)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^0 instances cannot fill 5 folds$"):
            cross_validate([], PipelineConfig(), seed=0)

    @pytest.mark.parametrize("n, message", [(3, "3 instances cannot fill 5 folds"),
                                            (10, "predictors must be finite")])
    def test_fold_errors_come_before_the_row_check(self, n, message):
        instances = separable_instances(n)
        instances[1] = instances[1]._replace(x_t=math.nan)
        with pytest.raises(ValueError, match=f"^{message}$"):
            cross_validate(instances, PipelineConfig(), seed=0)


def fake_entry(allocation, fold, sens, acc, spec):
    cm = ConfusionMatrix(1, 1, 1, 1)
    return RunEntry(allocation, fold, allocation, cm,
                    PerformanceVector(acc, sens, spec), Leaf("N", 1, 0))


def fake_report(entries):
    return RunReport(seed=0, config=PipelineConfig(), n_instances=4,
                     fold_plans=(), runs=tuple(entries),
                     aggregate={"accuracy": None, "sensitivity": None, "specificity": None},
                     alarms=np.zeros((4, 4), dtype=bool))


class TestSelectBest:
    def test_unique_max_sensitivity(self):
        report = fake_report([fake_entry(0, 0, 0.5, 0.9, 0.9),
                              fake_entry(0, 1, 0.8, 0.5, 0.5),
                              fake_entry(0, 2, 0.6, 0.99, 0.99)])
        assert select_best_run(report).fold == 1

    def test_sensitivity_tie_breaks_on_accuracy(self):
        report = fake_report([fake_entry(0, 0, 0.8, 0.7, 0.9),
                              fake_entry(0, 1, 0.8, 0.9, 0.5)])
        assert select_best_run(report).fold == 1

    def test_full_tie_keeps_earliest_run(self):
        report = fake_report([fake_entry(0, 0, 0.8, 0.9, 0.9),
                              fake_entry(1, 1, 0.8, 0.9, 0.9)])
        best = select_best_run(report)
        assert (best.allocation, best.fold) == (0, 0)

    def test_undefined_ranks_lowest(self):
        report = fake_report([fake_entry(0, 0, None, 1.0, 1.0),
                              fake_entry(0, 1, 0.1, 0.1, 0.1)])
        assert select_best_run(report).fold == 1

    def test_select_best_tree_returns_the_tree(self):
        report = fake_report([fake_entry(0, 0, 0.8, 0.9, 0.9)])
        assert select_best_run(report).tree == Leaf("N", 1, 0)


ALWAYS_N = Leaf("N", 1, 0)
SPLIT_AT_SIX = Split("x_t", 6.0, Leaf("H", 0, 1), Leaf("N", 1, 0))
DEPTH_TWO = Split("x_t", 6.0, Split("rate", 0.02, Leaf("N", 3, 0), Leaf("H", 0, 2)),
                  Leaf("N", 1, 0))


def random_cohort_instances(seed, n=300):
    rng = np.random.default_rng(seed)
    return [make_instance(float(rng.choice([6.0, rng.uniform(3.0, 9.0)])),
                          float(rng.choice([0.02, rng.uniform(-0.05, 0.1)])),
                          int(rng.random() < 0.3), f"p{int(rng.integers(0, 12)):02d}",
                          ph_min_bg=float(rng.uniform(2.0, 4.0)), minute=i)
            for i in range(n)]


class TestPerPatient:
    def test_counts_and_indices(self):
        instances = (
            [make_instance(4.0, 0.08, 1, "a", minute=i) for i in range(2)]
            + [make_instance(9.0, 0.01, 0, "a", minute=10 + i) for i in range(54)]
            + [make_instance(4.0, 0.08, 1, "b", minute=i) for i in range(2)]
            + [make_instance(4.5, 0.07, 0, "b", minute=10 + i) for i in range(3)]
        )
        rows = evaluate_per_patient(SPLIT_AT_SIX, instances, {"a": "type2"})
        by_id = {r.patient_id: r for r in rows}
        a = by_id["a"]
        assert (a.n_points, a.n_hypo, a.dm_type) == (56, 2, "type2")
        assert a.accuracy == 1.0 and a.sensitivity == 1.0 and a.specificity == 1.0
        b = by_id["b"]
        assert b.dm_type == "other"
        assert b.sensitivity == 1.0
        assert b.specificity == 0.0  # low-BG negatives all alarmed

    def test_no_hypo_points_has_undefined_sensitivity(self):
        instances = [make_instance(9.0, 0.0, 0, "c", minute=i) for i in range(5)]
        rows = evaluate_per_patient(ALWAYS_N, instances)
        assert rows[0].sensitivity is None
        assert rows[0].accuracy == 1.0

    def test_zero_of_two_caught(self):
        instances = [make_instance(9.0, 0.0, 1, "d", minute=i) for i in range(2)]
        rows = evaluate_per_patient(ALWAYS_N, instances)
        assert rows[0].sensitivity == 0.0

    def test_matches_per_row_scoring(self):
        instances = random_cohort_instances(12)
        rows = evaluate_per_patient(DEPTH_TWO, instances)
        assert [r.patient_id for r in rows] == sorted({i.patient_id for i in instances})
        for row in rows:
            group = [i for i in instances if i.patient_id == row.patient_id]
            preds = [loop_predict(DEPTH_TWO, i.x_t, i.rate) for i in group]
            vec = metrics(loop_confusion(preds, [i.label for i in group]))
            assert (row.n_points, row.n_hypo) == (len(group), sum(i.label for i in group))
            assert (row.accuracy, row.sensitivity, row.specificity) == \
                (vec.accuracy, vec.sensitivity, vec.specificity)


def shuffled_patient_instances(seed):
    """Shuffled instances of patients whose first-seen order is not their
    sorted order (p10 before p9, non-ASCII ids), one with a single instance
    and one without hypo instances."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(["p10", "p9", "p09", "é", "Z", "ß", "p1"], size=200)
    instances = [make_instance(float(rng.choice([6.0, rng.uniform(3.0, 9.0)])),
                               float(rng.choice([0.02, rng.uniform(-0.05, 0.1)])),
                               int(rng.random() < 0.4), str(pid),
                               ph_min_bg=float(rng.uniform(2.0, 4.0)), minute=i)
                 for i, pid in enumerate(ids)]
    instances += [make_instance(4.0, 0.08, 1, "solo", ph_min_bg=2.5),
                  *(make_instance(9.0, 0.01, 0, "calm", minute=i) for i in range(4))]
    return [instances[i] for i in rng.permutation(len(instances))]


class TestPatientScoringOracle:
    """Both patient reports against the same reports built on a scoring
    pass that sorts, groups and walks each instance alone."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reports_match_the_loop_scoring(self, seed, monkeypatch):
        instances = shuffled_patient_instances(seed)
        assert [i.patient_id for i in instances] != sorted(i.patient_id for i in instances)
        dm_types = {"p10": "type1", "é": "type2"}
        got = [(tree, evaluate_per_patient(tree, instances, dm_types),
                missed_event_analysis(tree, instances))
               for tree in (ALWAYS_N, SPLIT_AT_SIX, DEPTH_TWO)]
        monkeypatch.setattr(evaluation, "_score_patients", loop_score_patients)
        for tree, per_patient, severity in got:
            assert per_patient == evaluate_per_patient(tree, instances, dm_types)
            assert severity == missed_event_analysis(tree, instances)
        assert [r.patient_id for r in per_patient] == \
            ["Z", "calm", "p09", "p1", "p10", "p9", "solo", "ß", "é"]
        assert {r.patient_id: r.n_points for r in per_patient}["solo"] == 1
        assert {r.patient_id: r.sensitivity for r in per_patient}["calm"] is None


class TestSummaryDocument:
    @pytest.mark.parametrize("folds, allocations, seed", [(2, 1, 0), (3, 2, 5), (5, 4, 11)])
    def test_sections_follow_the_report(self, folds, allocations, seed):
        # the plan, the seed and the best run's sections come from the report
        # alone, so none of them can contradict it
        instances = random_cohort_instances(seed)
        report = cross_validate(instances, PipelineConfig(folds, allocations), seed=seed)
        dm_types = {"p00": "type1", "p03": "type2"}
        summary = summary_document(instances, report, dm_types)
        best = select_best_run(report)
        severity = missed_event_analysis(best.tree, instances)
        config = summary["config"]
        assert (config["folds"], config["allocations"], config["seed"]) == \
            (folds, allocations, seed)
        assert (summary["k"], summary["allocations"], summary["seed"]) == \
            (folds, allocations, seed)
        assert summary["seeds"] == [seed + r for r in range(allocations)]
        assert len(summary["per_run"]) == folds * allocations
        assert summary["best_run"] == {"allocation": best.allocation, "fold": best.fold}
        assert summary["per_patient"] == [
            asdict(row) for row in evaluate_per_patient(best.tree, instances, dm_types)]
        assert summary["missed_events"] == {
            "rows": [asdict(row) for row in severity.rows],
            "total_missed": severity.total_missed, "total_severe": severity.total_severe}

    def test_a_config_subclass_reads_back_as_run(self):
        # a 5:1 cost ratio and a horizon 30-40 min ahead, built into the
        # instances, run by the trees and written as the run's config
        cfg = dataclass(frozen=True)(type("Lead30", (PipelineConfig,), {
            "costs": CostMatrix(5.0, 1.0), "horizon_offsets_min": (30, 35, 40)}))(3, 2)
        instances = [inst for series in generate_cohort(SynthConfig(n_patients=6, seed=7))
                     for inst in build_instances(series, cfg)]
        report = cross_validate(instances, cfg, seed=3)
        assert report.config == cfg != PipelineConfig(3, 2)
        assert (report.k, report.allocations) == (3, 2)
        config = json.loads(json.dumps(summary_document(instances, report)))["config"]
        assert config == {
            "allocations": 2, "costs": {"cost_fn": 5.0, "cost_fp": 1.0},
            "daytime": ["07:00", "23:00"],
            "decision_offsets_min": [120, 135, 150, 165, 180, 195, 210], "folds": 3,
            "horizon_offsets_min": [30, 35, 40], "hypo_threshold": 3.9, "lead_time_min": 30,
            "peak_window_min": 120, "prune_depth": 3, "seed": 3, "snap_tolerance_min": 2.5}

    def test_patients_without_a_dm_type_are_other(self):
        instances = random_cohort_instances(1)
        summary = summary_document(instances, cross_validate(instances, PipelineConfig(2, 1)))
        assert {row["dm_type"] for row in summary["per_patient"]} == {"other"}

    def test_rows_hold_their_sections_columns(self):
        # seed 2's best tree misses events, so every section has rows
        instances = random_cohort_instances(2)
        summary = summary_document(instances, cross_validate(instances, PipelineConfig(3, 2), 2))
        for key, _, columns in evaluation.SECTIONS:
            rows = summary
            for name in key.split("."):
                rows = rows[name]
            assert rows, key
            extra = {"tree"} if key == "per_run" else set()
            assert all(row.keys() == columns.keys() | extra for row in rows), key


class TestMissedEvents:
    def test_worked_pattern(self):
        lows = [3.0, 3.8, 3.7, 2.8]
        instances = [make_instance(9.0, 0.0, 1, "p02", ph_min_bg=v, minute=i)
                     for i, v in enumerate(lows)]
        instances.append(make_instance(4.0, 0.08, 1, "p02", ph_min_bg=3.2, minute=50))
        report = missed_event_analysis(SPLIT_AT_SIX, instances)
        row = report.rows[0]
        assert row.missed_events == 4
        assert row.lows == (3.0, 3.8, 3.7, 2.8)
        assert row.severe_count == 1
        assert row.predicted_events == 1
        assert row.sensitivity == pytest.approx(0.2)
        assert report.total_missed == 4 and report.total_severe == 1

    @pytest.mark.parametrize("column", ["x_t", "rate"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_non_hypo_predictor_rejected(self, column, bad):
        # only hypo instances are scored, yet every row's predictors are checked
        instances = [make_instance(9.0, 0.0, 1, "p02"), make_instance(4.0, 0.08, 1, "p03"),
                     make_instance(8.0, 0.01, 0, "p04")]
        instances[2] = instances[2]._replace(**{column: bad})
        with pytest.raises(ValueError, match="^predictors must be finite$"):
            missed_event_analysis(SPLIT_AT_SIX, instances)

    def test_no_hypo_instances_no_rows(self):
        instances = [make_instance(9.0 - i, 0.01, 0, f"p{i}", minute=i) for i in range(4)]
        assert missed_event_analysis(SPLIT_AT_SIX, instances) == SeverityReport((), 0, 0)
        assert missed_event_analysis(SPLIT_AT_SIX, []) == SeverityReport((), 0, 0)

    def test_no_false_negatives_no_rows(self):
        instances = [make_instance(4.0, 0.08, 1, "q", minute=i) for i in range(3)]
        report = missed_event_analysis(SPLIT_AT_SIX, instances)
        assert report.rows == ()
        assert report.total_missed == 0 and report.total_severe == 0

    def test_cohort_totals(self):
        # sixteen patients with known missed lows: 22 missed, 5 at or under 2.8
        lows_by_patient = {
            "p02": [3.0, 3.8, 3.7, 2.8], "p03": [3.1, 2.2], "p07": [3.7],
            "p08": [3.4], "p10": [3.8], "p11": [3.8], "p12": [2.9],
            "p14": [3.8], "p15": [3.8], "p16": [2.7], "p17": [3.9, 2.4],
            "p19": [3.7], "p26": [3.0], "p27": [3.9], "p29": [3.4],
            "p31": [2.6, 3.2],
        }
        instances = []
        for pid, lows in lows_by_patient.items():
            for i, low in enumerate(lows):
                instances.append(make_instance(9.0, 0.0, 1, pid, ph_min_bg=low, minute=i))
        report = missed_event_analysis(ALWAYS_N, instances)
        assert report.total_missed == 22
        assert report.total_severe == 5
        assert len(report.rows) == 16

    def test_matches_per_row_scoring(self):
        instances = random_cohort_instances(13)
        report = missed_event_analysis(DEPTH_TWO, instances)
        expected = {}
        for inst in instances:
            alarm = loop_predict(DEPTH_TWO, inst.x_t, inst.rate) == "H"
            entry = expected.setdefault(inst.patient_id, [0, []])
            if inst.label == 1 and alarm:
                entry[0] += 1
            elif inst.label == 1:
                entry[1].append(inst.ph_min_bg)
        expected = {pid: v for pid, v in sorted(expected.items()) if v[1]}
        assert [r.patient_id for r in report.rows] == list(expected)
        for row in report.rows:
            caught, lows = expected[row.patient_id]
            assert (row.predicted_events, row.lows) == (caught, tuple(lows))
            assert row.severe_count == sum(low <= 2.8 for low in lows)
            assert row.sensitivity == caught / (caught + len(lows))
        assert report.total_missed == sum(len(v[1]) for v in expected.values())


class TestAnova:
    def test_identical_groups(self):
        f_stat, p = one_way_anova([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert f_stat == 0.0
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_worked_f_value(self):
        f_stat, p = one_way_anova([[1, 2, 3], [2, 3, 4]])
        assert f_stat == pytest.approx(1.5, abs=1e-12)
        assert 0.0 < p < 1.0

    def test_worked_three_group_f_value(self):
        # means 2, 3, 5 about 10/3: ss_between 14 over g - 1 = 2, ss_within 6 over n - g = 6
        f_stat, p = one_way_anova([[1, 2, 3], [2, 3, 4], [4, 5, 6]])
        assert f_stat == pytest.approx(7.0, rel=1e-12)
        assert p == pytest.approx(0.027, rel=1e-9)  # F(2, 6) tail: (1 + 2F/6) ** -3

    def test_matches_scipy_f_oneway(self):
        rng = np.random.default_rng(36)
        for _ in range(60):
            groups = [rng.normal(rng.uniform(-1.0, 1.0), 1.0, int(rng.integers(2, 9))).tolist()
                      for _ in range(int(rng.integers(3, 6)))]
            expected = f_oneway(*groups)
            f_stat, p = one_way_anova(groups)
            assert f_stat == pytest.approx(expected.statistic, rel=1e-9)
            assert p == pytest.approx(expected.pvalue, rel=1e-9)

    def test_p_matches_quadrature(self):
        f_stat, p = one_way_anova([[1, 2, 3], [2, 3, 4]])
        assert p == pytest.approx(f_upper_tail_by_quadrature(f_stat, 1, 4), abs=1e-6)

    def test_all_values_identical(self):
        assert one_way_anova([[2.0, 2.0], [2.0, 2.0]]) == (0.0, 1.0)

    def test_zero_within_variance_with_separation(self):
        f_stat, p = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
        assert math.isinf(f_stat) and p == 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        groups = [rng.normal(0, 1, 8).tolist(), rng.normal(0.5, 1, 6).tolist(),
                  rng.normal(1, 1, 7).tolist()]
        f_ref, _ = one_way_anova(groups)
        for a, b in ((2.0, 0.0), (1.0, 10.0), (-3.0, 4.0)):
            f_new, _ = one_way_anova([[a * v + b for v in g] for g in groups])
            assert f_new == pytest.approx(f_ref, rel=1e-9)

    def test_tail_function_boundaries(self):
        assert f_upper_tail(0.0, 1, 4) == 1.0
        assert f_upper_tail(math.inf, 1, 4) == 0.0
        assert f_upper_tail(1.7e308, 2, 1) == 0.0  # d2/(d2 + d1*F) rounds to 0
        assert f_upper_tail(5e-324, 3, 4) == 1.0  # d2/(d2 + d1*F) rounds to 1
        assert math.isnan(f_upper_tail(math.nan, 1, 4))
        assert 0.0 < f_upper_tail(1.5, 1, 4) < 1.0
        # past 10**6 degrees of freedom the tail drifts: the middle two gave 37.58 and 0.5000062
        for d1, d2, f_stat in [(0, 4, 1.0), (10**16, 10**16, 1.0000001), (10**10, 10**10, 1.0),
                               (10**6 + 1, 4, 1.0), (4, 10**6 + 1, 1.0)]:
            with pytest.raises(ValueError):
                f_upper_tail(f_stat, d1, d2)

    def test_tail_matches_scipy_betainc(self):
        def worst(d1s, d2s, f_values):
            return max(abs(f_upper_tail(f, d1, d2) - q) for d1 in d1s for d2 in d2s
                       for f, q in zip(f_values.tolist(),
                                       betainc(d2 / 2, d1 / 2, d2 / (d2 + d1 * f_values)).tolist()))
        assert worst(range(1, 101), range(1, 1001, 12), np.logspace(-8, 4)) < 1e-12
        near_one = np.concatenate([np.logspace(-8, 4), np.linspace(0.995, 1.005, 21)])
        assert worst([10**6], [10**6], near_one) < 1e-9

    def test_requires_two_groups(self):
        with pytest.raises(ValueError):
            one_way_anova([[1.0, 2.0]])

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            one_way_anova([[1.0], []])

    def test_rejects_all_singletons(self):
        with pytest.raises(ValueError):
            one_way_anova([[1.0], [2.0]])

    @pytest.mark.parametrize("groups", [[[1e200, 0.5], [0.7]], [[1e308, 1e308], [0.5]]],
                             ids=["square_overflows", "sum_overflows"])
    def test_rejects_sums_of_squares_past_the_float_range(self, groups):
        with pytest.raises(ValueError, match="not finite"):
            one_way_anova(groups)
