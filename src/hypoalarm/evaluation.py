"""Evaluation protocol: confusion metrics, repeated k-fold cross-validation
over decision instances, best-tree selection, per-patient tables,
missed-event severity, one-way ANOVA across patient groups, and the
summary document that records them.
"""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass, field
from operator import attrgetter

import numpy as np

from .cart import (FEATURES, TreeNode, _checked_predictors, _checked_rows, _route, alarms,
                   grow_tree, serialize_tree)
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
    alarms: np.ndarray = field(compare=False)  # [allocation, instance]: out-of-fold, read-only


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


def _columns(*row_types, drop=()) -> dict:
    """Field name -> type of each field of the row dataclasses, in order, less `drop`."""
    return {name: kind for row_type in row_types
            for name, kind in typing.get_type_hints(row_type).items() if name not in drop}


# summary.json's row lists: the dotted key of each, the CSV table that
# `report` writes of it, and its columns with their field types
SECTIONS = (
    ("per_run", "performance.csv",
     _columns(RunEntry, ConfusionMatrix, PerformanceVector, drop=("cm", "vector", "tree"))),
    ("per_patient", "per_patient.csv", _columns(PatientRow)),
    ("missed_events.rows", "missed_events.csv", _columns(SeverityRow)),
)
# the one column that a report table heads by another name
CSV_HEADERS = {"lows": "lowest_bgs"}


def _confusions(codes, k, alarm, hypo) -> list[ConfusionMatrix]:
    """The confusion matrix of each group 0..k-1, from the group code,
    alarm and hypo flag of each instance: one count over (code, alarm,
    hypo) gives every group's cells."""
    cells = np.bincount(codes * 4 + alarm * 2 + hypo, minlength=4 * k)
    return [ConfusionMatrix(tp, fn, fp, tn) for tn, fn, fp, tp in cells.reshape(-1, 4).tolist()]


def metrics(cm: ConfusionMatrix) -> PerformanceVector:
    """Accuracy, sensitivity, specificity; zero-denominator ratios are None."""
    if cm.total < 1:
        raise ValueError("empty confusion matrix")
    return PerformanceVector(
        accuracy=(cm.tp + cm.tn) / cm.total,
        sensitivity=cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else None,
        specificity=cm.tn / (cm.tn + cm.fp) if cm.tn + cm.fp else None,
    )


def allocate_folds(n: int, k: int, seed) -> tuple[FoldPlan, list[np.ndarray]]:
    """Shuffle indices with a seeded generator and cut into k contiguous chunks.

    The n mod k larger chunks go last, so n=1867, k=5 gives sizes
    (373, 373, 373, 374, 374). Returns the plan and its groups as index arrays.
    """
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if n < k:
        raise ValueError(f"{n} instances cannot fill {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    cuts = np.cumsum([base] * (k - extra) + [base + 1] * extra)[:-1]
    chunks = np.split(perm, cuts)
    return FoldPlan(tuple(tuple(g.tolist()) for g in chunks)), chunks


def instances_to_arrays(instances):
    """(X, y) arrays for the tree: one column per name in FEATURES."""
    n = len(instances)
    X = np.column_stack([np.fromiter(map(attrgetter(name), instances), float, n)
                         for name in FEATURES])
    return X, np.fromiter(map(attrgetter("label"), instances), int, n)


def _mean_defined(values):
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


def cross_validate(instances, cfg: PipelineConfig | None = None, seed: int = 0) -> RunReport:
    """Repeated k-fold CV: one depth-limited tree per (allocation, fold).

    Allocation r shuffles with seed `seed + r`. Aggregates are means over
    the defined (non-None) per-run values. A training split holding a
    single class just grows a single-leaf tree. The rows are checked and
    both features sorted once; each fold's tree grows from that presort
    kept to its training rows. Each tree's alarms on its held-out rows fill
    its allocation's row of `alarms`, from which the runs are counted.
    """
    cfg = cfg or PipelineConfig()
    if not instances:
        raise ValueError("no instances to evaluate")
    X, y = instances_to_arrays(instances)
    n = len(instances)
    alarm = np.empty((cfg.allocations, n), dtype=bool)
    fold_of = np.empty(n, dtype=np.intp)
    plans = []
    runs = []
    for allocation in range(cfg.allocations):
        alloc_seed = seed + allocation
        plan, chunks = allocate_folds(n, cfg.folds, alloc_seed)
        plans.append(plan)
        if allocation == 0:  # one check for every fold, after the fold errors
            X, y = _checked_rows(X, y)
            presort = np.argsort(X.T, axis=1)  # C-contiguous: a fold's rows are one compress
        for fold, test in enumerate(chunks):
            fold_of[test] = fold
        sorted_fold = fold_of[presort]
        trees = []
        for fold, test in enumerate(chunks):
            order = np.compress((sorted_fold != fold).ravel(), presort).reshape(len(FEATURES), -1)
            trees.append(grow_tree(X, y, cfg.costs, cfg.prune_depth, _presort=order))
            _route(trees[-1], X, test, alarm[allocation])
        cms = _confusions(fold_of, cfg.folds, alarm[allocation], y)
        runs += [RunEntry(allocation, fold, alloc_seed, cm, metrics(cm), tree)
                 for fold, (cm, tree) in enumerate(zip(cms, trees))]
    alarm.flags.writeable = False
    aggregate = {
        name: _mean_defined([getattr(entry.vector, name) for entry in runs])
        for name in ("accuracy", "sensitivity", "specificity")
    }
    return RunReport(seed=seed, k=cfg.folds, allocations=cfg.allocations,
                     n_instances=n, fold_plans=tuple(plans), runs=tuple(runs),
                     aggregate=aggregate, alarms=alarm)


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
    indices in instance order. All instances are routed in one batch, and
    `_confusions` counts every patient's cells at once, patients as codes."""
    X, y = instances_to_arrays(instances)
    alarm = alarms(tree, X)
    hypo = y == 1
    ids = [inst.patient_id for inst in instances]
    names = sorted(set(ids))
    code_of = {pid: code for code, pid in enumerate(names)}
    codes = np.fromiter(map(code_of.__getitem__, ids), np.intp, len(ids))
    missed = np.flatnonzero(~alarm & hypo)
    missed = missed[np.argsort(codes[missed], kind="stable")].tolist()
    start = 0
    for pid, cm in zip(names, _confusions(codes, len(names), alarm, hypo)):
        yield pid, cm, missed[start:start + cm.fn]
        start += cm.fn


def evaluate_per_patient(tree: TreeNode, instances, dm_types=None) -> list[PatientRow]:
    """One row per patient: counts plus the three indices under `tree`.

    `dm_types` maps patient_id to a diabetes-type string; unknown patients
    report "other".
    """
    dm_types = dm_types or {}
    return [PatientRow(patient_id=pid, dm_type=dm_types.get(pid, "other"), n_points=cm.total,
                       n_hypo=cm.tp + cm.fn, **vars(metrics(cm)))
            for pid, cm, _ in _score_patients(tree, instances)]


def missed_event_analysis(tree: TreeNode, instances) -> SeverityReport:
    """Lowest horizon BG of every false negative, grouped by patient.

    A missed event is severe when that low sits at or under
    `SEVERE_THRESHOLD`. Patients without false negatives contribute no row.
    Only hypo instances can be missed, so only they are scored; every
    instance's predictors are still checked, as routing all of them would.
    """
    X, y = instances_to_arrays(instances)
    _checked_predictors(X)
    hypo = [instances[i] for i in np.flatnonzero(y == 1).tolist()]
    rows = []
    for pid, cm, missed in _score_patients(tree, hypo):
        if not cm.fn:
            continue
        lows = tuple(hypo[i].ph_min_bg for i in missed)
        rows.append(SeverityRow(
            patient_id=pid,
            sensitivity=metrics(cm).sensitivity,
            predicted_events=cm.tp,
            missed_events=len(lows),
            lows=lows,
            severe_count=sum(1 for low in lows if low <= SEVERE_THRESHOLD),
        ))
    return SeverityReport(rows=tuple(rows),
                          total_missed=sum(row.missed_events for row in rows),
                          total_severe=sum(row.severe_count for row in rows))


def summary_document(instances, report: RunReport, dm_types=None) -> dict:
    """The ``summary.json`` document of `report`, the cross-validation of
    `instances`: its best run's tree scores the patient and missed-event
    sections. Each section is serialized from the type that holds it."""
    cfg = PipelineConfig(folds=report.k, allocations=report.allocations)
    best = select_best_run(report)
    per_patient = evaluate_per_patient(best.tree, instances, dm_types)
    severity = missed_event_analysis(best.tree, instances)
    # every name PipelineConfig declares, its constants and its two fields
    config = {name: getattr(cfg, name) for name in PipelineConfig.__annotations__}
    config |= {"costs": asdict(cfg.costs), "seed": report.seed}
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
    if not (1 <= d1 <= 10**6 and 1 <= d2 <= 10**6):  # past 10**6 the tail drifts beyond 1e-9
        raise ValueError(f"degrees of freedom must be in [1, 10**6], got {d1} and {d2}")
    if f_stat <= 0.0:
        return 1.0
    return _betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f_stat))


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]
    or NaN: the continued fraction of Press et al., *Numerical Recipes*
    §6.4, by Lentz's method, on I_x(a, b) or 1 - I_{1-x}(b, a), whichever
    converges fast."""
    if not 0.0 < x < 1.0:
        return x  # I_0 = 0 and I_1 = 1; NaN stays NaN
    flip = x > (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x = b, a, 1.0 - x
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):  # O(sqrt(max(a, b))) terms: 419 at a = b = 5e5
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / ((1.0 + aa * d) or 1e-300)  # Lentz: a zero divisor becomes a tiny one
            c = (1.0 + aa / c) or 1e-300
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    else:
        raise ArithmeticError(f"incomplete beta did not converge at a={a}, b={b}")
    tail = h * math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                        + a * math.log(x) + b * math.log1p(-x)) / a
    return 1.0 - tail if flip else tail


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
