"""Evaluation protocol: confusion metrics, repeated k-fold cross-validation
over decision instances, best-tree selection, per-patient tables,
missed-event severity, one-way ANOVA across patient groups, and the
summary document that records them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import groupby

import numpy as np
from scipy.special import betainc

from .cart import CLASS_H, TreeNode, grow_tree, predict_batch, serialize_tree
from .cgm_data import SEVERE_THRESHOLD, PipelineConfig


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int  # alarmed, hypoglycemia followed
    fn: int  # silent, hypoglycemia followed
    fp: int  # alarmed, no hypoglycemia
    tn: int  # silent, no hypoglycemia

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class PerformanceVector:
    """The three indices; None marks a ratio whose denominator was 0."""

    accuracy: float | None
    sensitivity: float | None
    specificity: float | None


@dataclass(frozen=True)
class FoldPlan:
    """Disjoint covering groups of instance indices; sizes differ by <= 1."""

    groups: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RunEntry:
    allocation: int
    fold: int
    seed: int
    cm: ConfusionMatrix
    vector: PerformanceVector
    tree: TreeNode


@dataclass(frozen=True)
class RunReport:
    """k x allocations cross-validation runs plus their aggregate means."""

    seed: int
    k: int
    allocations: int
    n_instances: int
    fold_plans: tuple[FoldPlan, ...]
    runs: tuple[RunEntry, ...]
    aggregate: dict


@dataclass(frozen=True)
class PatientRow:
    patient_id: str
    dm_type: str
    n_points: int
    n_hypo: int
    accuracy: float | None
    sensitivity: float | None
    specificity: float | None


@dataclass(frozen=True)
class SeverityRow:
    patient_id: str
    sensitivity: float | None
    predicted_events: int
    missed_events: int
    lows: tuple[float, ...]  # lowest horizon BG of each missed event
    severe_count: int


@dataclass(frozen=True)
class SeverityReport:
    rows: tuple[SeverityRow, ...]
    total_missed: int
    total_severe: int


def confusion(predictions, labels) -> ConfusionMatrix:
    """Count (prediction, truth) pairs; predictions are "N"/"H", labels 0/1."""
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels differ in length")
    if len(predictions) == 0:
        raise ValueError("nothing to score")
    alarm = np.asarray(predictions) == CLASS_H
    hypo = np.asarray(labels) == 1
    tp = int(np.count_nonzero(alarm & hypo))
    fp = int(np.count_nonzero(alarm)) - tp
    fn = int(np.count_nonzero(hypo)) - tp
    return ConfusionMatrix(tp, fn, fp, len(alarm) - tp - fn - fp)


def metrics(cm: ConfusionMatrix) -> PerformanceVector:
    """Accuracy, sensitivity, specificity; zero-denominator ratios are None."""
    if cm.total < 1:
        raise ValueError("empty confusion matrix")
    return PerformanceVector(
        accuracy=(cm.tp + cm.tn) / cm.total,
        sensitivity=cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else None,
        specificity=cm.tn / (cm.tn + cm.fp) if cm.tn + cm.fp else None,
    )


def allocate_folds(n: int, k: int, seed) -> FoldPlan:
    """Shuffle indices with a seeded generator and cut into k contiguous chunks.

    The n mod k larger chunks go last, so n=1867, k=5 gives sizes
    (373, 373, 373, 374, 374).
    """
    if k < 2 or n < k:
        raise ValueError("need n >= k >= 2")
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    cuts = np.cumsum([base] * (k - extra) + [base + 1] * extra)[:-1]
    return FoldPlan(tuple(tuple(g.tolist()) for g in np.split(perm, cuts)))


def instances_to_arrays(instances):
    """(X, y) arrays for the tree: columns are x_t and rate."""
    X = np.array([[inst.x_t, inst.rate] for inst in instances], dtype=float).reshape(-1, 2)
    y = np.array([inst.label for inst in instances], dtype=int)
    return X, y


def _mean_defined(values):
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


def cross_validate(instances, cfg: PipelineConfig | None = None, seed: int = 0) -> RunReport:
    """Repeated k-fold CV: one depth-limited tree per (allocation, fold).

    Allocation r shuffles with seed `seed + r`. Aggregates are means over
    the defined (non-None) per-run values. A training split holding a
    single class just grows a single-leaf tree.
    """
    cfg = cfg or PipelineConfig()
    if not instances:
        raise ValueError("no instances to evaluate")
    X, y = instances_to_arrays(instances)
    n = len(instances)
    plans = []
    runs = []
    for allocation in range(cfg.allocations):
        alloc_seed = seed + allocation
        plan = allocate_folds(n, cfg.folds, alloc_seed)
        plans.append(plan)
        for fold, test_idx in enumerate(plan.groups):
            test = np.array(test_idx, dtype=int)
            train_mask = np.ones(n, dtype=bool)
            train_mask[test] = False
            tree = grow_tree(X[train_mask], y[train_mask], cfg.costs, cfg.prune_depth)
            cm = confusion(predict_batch(tree, X[test]), y[test])
            runs.append(RunEntry(allocation, fold, alloc_seed, cm, metrics(cm), tree))
    aggregate = {
        name: _mean_defined([getattr(entry.vector, name) for entry in runs])
        for name in ("accuracy", "sensitivity", "specificity")
    }
    return RunReport(seed=seed, k=cfg.folds, allocations=cfg.allocations,
                     n_instances=n, fold_plans=tuple(plans), runs=tuple(runs),
                     aggregate=aggregate)


def select_best_run(report: RunReport) -> RunEntry:
    """Lexicographic best by (sensitivity, accuracy, specificity).

    Undefined metrics rank lowest; ties keep the earliest (allocation, fold).
    """
    def key(entry):
        v = entry.vector
        return tuple(-math.inf if m is None else m
                     for m in (v.sensitivity, v.accuracy, v.specificity))

    return max(report.runs, key=key)  # the first of equal maxima


def _score_patients(tree: TreeNode, instances):
    """The scoring pass of both patient reports: per patient in id order,
    its id, confusion matrix under `tree` and missed-event (false negative)
    indices in instance order, with all instances routed in one batch."""
    X, y = instances_to_arrays(instances)
    preds = predict_batch(tree, X)
    missed = (preds != CLASS_H) & (y == 1)
    ids = [inst.patient_id for inst in instances]
    for pid, group in groupby(sorted(range(len(ids)), key=ids.__getitem__), ids.__getitem__):
        idx = np.array(list(group))
        yield pid, confusion(preds[idx], y[idx]), idx[missed[idx]].tolist()


def evaluate_per_patient(tree: TreeNode, instances, dm_types=None) -> list[PatientRow]:
    """One row per patient: counts plus the three indices under `tree`.

    `dm_types` maps patient_id to a diabetes-type string; unknown patients
    report "other".
    """
    dm_types = dm_types or {}
    return [PatientRow(patient_id=pid, dm_type=dm_types.get(pid, "other"), n_points=cm.total,
                       n_hypo=cm.tp + cm.fn, **vars(metrics(cm)))
            for pid, cm, _ in _score_patients(tree, instances)]


def missed_event_analysis(tree: TreeNode, instances,
                          severe_threshold: float = SEVERE_THRESHOLD) -> SeverityReport:
    """Lowest horizon BG of every false negative, grouped by patient.

    A missed event is severe when that low sits at or under the severe
    threshold. Patients without false negatives contribute no row.
    """
    rows = []
    for pid, cm, missed in _score_patients(tree, instances):
        if not cm.fn:
            continue
        lows = tuple(instances[i].ph_min_bg for i in missed)
        rows.append(SeverityRow(
            patient_id=pid,
            sensitivity=metrics(cm).sensitivity,
            predicted_events=cm.tp,
            missed_events=len(lows),
            lows=lows,
            severe_count=sum(1 for low in lows if low <= severe_threshold),
        ))
    return SeverityReport(rows=tuple(rows),
                          total_missed=sum(row.missed_events for row in rows),
                          total_severe=sum(row.severe_count for row in rows))


def summary_document(instances, cfg: PipelineConfig, seed: int, report: RunReport,
                     best: RunEntry, per_patient, severity: SeverityReport) -> dict:
    """The ``summary.json`` document of one evaluation, each section
    serialized from the type that holds it."""
    config = asdict(cfg) | {"lead_time_min": cfg.lead_time_min,
                            "peak_window_min": cfg.peak_window_min, "seed": seed}
    config["daytime"] = [f"{config.pop(key):%H:%M}" for key in ("daytime_start", "daytime_end")]
    n_hypo = int(sum(inst.label for inst in instances))
    return {
        "aggregate": report.aggregate,
        "allocations": report.allocations,
        "best_run": {"allocation": best.allocation, "fold": best.fold},
        "best_tree": serialize_tree(best.tree),
        "class_counts": {"hypo": n_hypo, "non_hypo": len(instances) - n_hypo},
        "config": config,
        "fold_sizes": [[len(g) for g in plan.groups] for plan in report.fold_plans],
        "k": report.k,
        "missed_events": {
            "rows": [asdict(row) for row in severity.rows],
            "total_missed": severity.total_missed,
            "total_severe": severity.total_severe,
        },
        "n_instances": report.n_instances,
        "per_patient": [asdict(row) for row in per_patient],
        "per_run": [{"allocation": e.allocation, "fold": e.fold, "seed": e.seed,
                     **asdict(e.cm), **asdict(e.vector), "tree": serialize_tree(e.tree)}
                    for e in report.runs],
        "seed": report.seed,
        "seeds": [report.seed + r for r in range(report.allocations)],
    }


def f_upper_tail(f_stat: float, d1: int, d2: int) -> float:
    """Upper-tail probability of the F(d1, d2) distribution, from the
    regularized incomplete beta function at d2/(d2 + d1*F)."""
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if math.isinf(f_stat):
        return 0.0
    if f_stat <= 0.0:
        return 1.0
    return float(betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f_stat)))


def one_way_anova(groups) -> tuple[float, float]:
    """F statistic and upper-tail p-value for equality of group means.

    Zero within-group variance uses the conventions (0, 1) when all
    values are identical and (inf, 0) otherwise.
    """
    groups = [[float(v) for v in g] for g in groups]
    g = len(groups)
    if g < 2 or any(len(values) == 0 for values in groups):
        raise ValueError("need at least two non-empty groups")
    n_total = sum(len(values) for values in groups)
    if n_total - g < 1:
        raise ValueError("need at least one group with two or more values")
    grand = sum(sum(values) for values in groups) / n_total
    means = [sum(values) / len(values) for values in groups]
    ss_between = sum(len(values) * (mean - grand) * (mean - grand)
                     for values, mean in zip(groups, means))
    ss_within = sum(sum((v - mean) * (v - mean) for v in values)
                    for values, mean in zip(groups, means))
    if not (math.isfinite(ss_between) and math.isfinite(ss_within)):
        raise ValueError("sums of squares are not finite")
    if ss_within == 0.0:
        return (0.0, 1.0) if ss_between == 0.0 else (math.inf, 0.0)
    d1 = g - 1
    d2 = n_total - g
    f_stat = (ss_between / d1) / (ss_within / d2)
    return f_stat, f_upper_tail(f_stat, d1, d2)
