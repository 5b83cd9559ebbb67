"""Independent reference implementations used to cross-check the library.

Everything here is deliberately plain-Python and loop-based so it shares
no code path with the vectorized implementations under test. The split
kernels are the exception: `full_scan_best_cut` and
`boundary_scan_best_cut` are earlier vectorized searches that
`cart._best_cut` must match bit for bit, and `best_split` is a thin
wrapper that drives `cart._best_cut` on a whole row set.
"""

import csv
import io
import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import groupby

import numpy as np

from hypoalarm import CostMatrix, DecisionInstance, PatientSeries
from hypoalarm.cart import FEATURES, Leaf, Split, _best_cut, _checked_rows
from hypoalarm.cgm_data import (BG_MAX, CSV_COLUMNS, MG_PER_DL_PER_MMOL_L, SAMPLING_PERIOD_MIN,
                                DataValidationError)
from hypoalarm.evaluation import ConfusionMatrix
from hypoalarm.features import FEATURE_COLUMNS
from hypoalarm.synth import _COHORT_START_MIN, _SLOTS

EPOCH = datetime(2000, 1, 1)  # sample times are minutes since this instant


def minutes(t: datetime) -> float:
    """`t` in the time unit of `PatientSeries.samples` and `DecisionInstance`."""
    return (t - EPOCH) / timedelta(minutes=1)


def brute_force_best_split(rows, cost_fn, cost_fp):
    """Exhaustive (feature, midpoint) search over instance tuples.

    `rows` is a list of (x_t, rate, label). Returns (feature_index,
    threshold, decrease) or None, with the same tie policy as the library:
    earlier feature first, then lowest threshold, strictly-greater wins.
    """

    def gini(n_n, n_h):
        mass = cost_fp * n_n + cost_fn * n_h
        p_h = cost_fn * n_h / mass
        return 2.0 * p_h * (1.0 - p_h)

    n = len(rows)
    if n < 2:
        return None
    tot_h = sum(r[2] for r in rows)
    tot_n = n - tot_h
    if tot_h == 0 or tot_n == 0:
        return None
    parent = gini(tot_n, tot_h)
    parent_mass = cost_fp * tot_n + cost_fn * tot_h

    best = None
    for fi in range(2):
        values = sorted(set(r[fi] for r in rows))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            if not threshold > lo:
                threshold = hi
            left = [r for r in rows if r[fi] < threshold]
            right = [r for r in rows if r[fi] >= threshold]
            l_h = sum(r[2] for r in left)
            l_n = len(left) - l_h
            r_h = tot_h - l_h
            r_n = tot_n - l_n
            mass_l = cost_fp * l_n + cost_fn * l_h
            mass_r = cost_fp * r_n + cost_fn * r_h
            decrease = parent - (mass_l * gini(l_n, l_h) + mass_r * gini(r_n, r_h)) / parent_mass
            if decrease > 0.0 and (best is None or decrease > best[2]):
                best = (fi, threshold, decrease)
    return best


def brute_force_tree(rows, costs, max_depth, depth=0):
    """Recursive tree over (x_t, rate, label) rows: split by
    `brute_force_best_split` until a node is `max_depth` edges deep or has
    no improving split, then a leaf labeled H when
    ``cost_fn * n_H >= cost_fp * n_N``."""
    split = None if depth == max_depth else brute_force_best_split(
        rows, costs.cost_fn, costs.cost_fp)
    if split is None:
        n_h = sum(r[2] for r in rows)
        n_n = len(rows) - n_h
        return Leaf("H" if costs.cost_fn * n_h >= costs.cost_fp * n_n else "N", n_n, n_h)
    fi, threshold, _ = split
    return Split(("x_t", "rate")[fi], threshold,
                 brute_force_tree([r for r in rows if r[fi] < threshold], costs, max_depth,
                                  depth + 1),
                 brute_force_tree([r for r in rows if r[fi] >= threshold], costs, max_depth,
                                  depth + 1))


def _gini_and_mass(n_n, n_h, costs):
    # cart._gini_and_mass, the same operations in the same order
    mass = costs.cost_fp * n_n + costs.cost_fn * n_h
    p_h = costs.cost_fn * n_h / mass
    return 2.0 * p_h * (1.0 - p_h), mass


def full_scan_best_cut(X, y, order, costs):
    """The split kernel scoring every cut between distinct values, the
    search the boundary-cut kernel `cart._best_cut` must match bit for bit.
    Same arguments and result: row `order[f]` lists the rows sorted by
    feature f, with no `-0.0`; returns (feature index, rows left of the
    cut, threshold, decrease, H rows left of the cut) or None. Each
    decrease is computed with the library's operations in the library's
    order."""
    hs = y[order]
    tot_h = int(hs[0].sum())
    tot_n = order.shape[1] - tot_h
    if tot_h == 0 or tot_n == 0:
        return None
    parent_gini, parent_mass = _gini_and_mass(tot_n, tot_h, costs)
    best = None
    for fi, rows in enumerate(order):
        xs = X[rows, fi]
        cut = np.nonzero(xs[:-1] != xs[1:])[0]
        if cut.size == 0:
            continue
        left_h = np.cumsum(hs[fi])[cut]
        left_n = (cut + 1) - left_h
        g_l, m_l = _gini_and_mass(left_n, left_h, costs)
        g_r, m_r = _gini_and_mass(tot_n - left_n, tot_h - left_h, costs)
        decrease = parent_gini - (m_l * g_l + m_r * g_r) / parent_mass
        j = int(np.argmax(decrease))
        if decrease[j] > 0.0 and (best is None or decrease[j] > best[3]):
            lo, hi = xs[cut[j]], xs[cut[j] + 1]
            threshold = lo / 2.0 + hi / 2.0
            if not threshold > lo:
                threshold = hi
            best = (fi, int(cut[j]) + 1, float(threshold), float(decrease[j]),
                    int(left_h[j]))
    return best


def boundary_scan_best_cut(X, y, order, costs):
    """The boundary-cut kernel that scans every row of a node: it finds the
    value groups of each feature, then keeps each cut whose two neighbouring
    groups hold a class change. Same arguments and result as
    `cart._best_cut`, which finds the same cuts from the class changes alone
    and must match this search bit for bit at every cost ratio."""
    hs = y[order]
    n = order.shape[1]
    tot_h = int(hs[0].sum())
    tot_n = n - tot_h
    if tot_h == 0 or tot_n == 0:
        return None
    parent_gini, parent_mass = _gini_and_mass(tot_n, tot_h, costs)

    best = None
    changes = np.zeros(n, dtype=np.intp)
    for fi, rows in enumerate(order):
        xs = X[rows, fi]
        ends = np.flatnonzero(xs[:-1] != xs[1:])  # last row of each value group but the last
        if ends.size == 0:
            continue
        h = hs[fi]
        np.cumsum(h[:-1] != h[1:], out=changes[1:])  # class changes among rows 0..i
        edges = np.concatenate(([-1], ends, [n - 1]))
        # a cut is a boundary when its two groups, rows edges[j]+1 .. edges[j+2], hold a change
        cut = ends[changes[edges[2:]] != changes[edges[:-2] + 1]]
        left_h = np.cumsum(h)[cut]
        left_n = (cut + 1) - left_h
        g_l, m_l = _gini_and_mass(left_n, left_h, costs)
        g_r, m_r = _gini_and_mass(tot_n - left_n, tot_h - left_h, costs)
        decrease = parent_gini - (m_l * g_l + m_r * g_r) / parent_mass
        j = int(np.argmax(decrease))
        if decrease[j] > 0.0 and (best is None or decrease[j] > best[3]):
            lo, hi = xs[cut[j]], xs[cut[j] + 1]
            threshold = lo / 2.0 + hi / 2.0
            if not threshold > lo:
                threshold = hi
            best = (fi, int(cut[j]) + 1, float(threshold), float(decrease[j]),
                    int(left_h[j]))
    return best


@dataclass(frozen=True)
class SplitCandidate:
    feature: str
    threshold: float  # midpoint of two consecutive distinct observed values
    impurity_decrease: float


def best_split(X, y, costs: CostMatrix) -> SplitCandidate | None:
    """The split `grow_tree` makes at the root of a tree over (X, y):
    `cart._best_cut` over the whole row set, its input checked as in
    `grow_tree`. None when no cut has a strictly positive decrease."""
    X, y = _checked_rows(X, y)
    found = _best_cut(X, y, np.argsort(X, axis=0).T, costs)
    if found is None:
        return None
    fi, _, threshold, decrease, _ = found
    return SplitCandidate(FEATURES[fi], threshold, decrease)


def loop_leaf_counts(tree, X, y):
    """(leaf, n_N, n_H) for each leaf of `tree`, left to right, counting the
    rows of (X, y) that a one-row-at-a-time walk routes to it."""
    leaves = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            leaves.append(node)
        else:
            stack += [node.right, node.left]
    counts = {id(leaf): [0, 0] for leaf in leaves}
    for (x_t, rate), label in zip(X, y):
        node = tree
        while isinstance(node, Split):
            value = x_t if node.feature == "x_t" else rate
            node = node.left if value < node.threshold else node.right
        counts[id(node)][int(label)] += 1
    return [(leaf, *counts[id(leaf)]) for leaf in leaves]


def node_counts(node):
    """Training (n_N, n_H) routed through a node, summed over its leaves."""
    if isinstance(node, Leaf):
        return node.n_n, node.n_h
    (ln, lh), (rn, rh) = node_counts(node.left), node_counts(node.right)
    return ln + rn, lh + rh


def oracle_prune(tree, depth, costs):
    """Copy of a grown `tree` with at most `depth` splits on any
    root-to-leaf path: a split nested below the limit collapses into a leaf
    over the training counts of the leaves under it, labeled H when
    ``cost_fn * n_H >= cost_fp * n_N``. Everything shallower is copied."""
    if depth < 1:
        raise ValueError("depth must be >= 1")

    def build(node, level):
        if isinstance(node, Leaf):
            return Leaf(node.label, node.n_n, node.n_h)
        if level > depth:
            n_n, n_h = node_counts(node)
            label = "H" if costs.cost_fn * n_h >= costs.cost_fp * n_n else "N"
            return Leaf(label, n_n, n_h)
        return Split(node.feature, node.threshold,
                     build(node.left, level + 1), build(node.right, level + 1))

    return build(tree, 1)


def loop_predict(tree, x_t, rate):
    """Class label of one instance, by walking the tree one node at a time;
    ``feature >= threshold`` goes right."""
    node = tree
    while isinstance(node, Split):
        value = x_t if node.feature == "x_t" else rate
        node = node.left if value < node.threshold else node.right
    return node.label


def loop_confusion(predictions, labels):
    """`ConfusionMatrix` of "H"/"N" class labels against 0/1 truth labels,
    counted one pair at a time."""
    tp = fn = fp = tn = 0
    for predicted, label in zip(predictions, labels, strict=True):
        if predicted == "H" and label == 1:
            tp += 1
        elif label == 1:
            fn += 1
        elif predicted == "H":
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix(tp, fn, fp, tn)


def loop_score_patients(tree, instances):
    """The scoring pass of the patient reports by sort and group: per
    patient in id order, its id, `ConfusionMatrix` under `tree` and the
    indices of its missed events (label 1, no alarm) in instance order,
    each instance walked through the tree alone."""
    ids = [inst.patient_id for inst in instances]
    for pid, group in groupby(sorted(range(len(ids)), key=ids.__getitem__), ids.__getitem__):
        tp = fn = fp = tn = 0
        missed = []
        for i in group:
            inst = instances[i]
            alarm = loop_predict(tree, inst.x_t, inst.rate) == "H"
            if inst.label == 1 and alarm:
                tp += 1
            elif inst.label == 1:
                fn += 1
                missed.append(i)
            elif alarm:
                fp += 1
            else:
                tn += 1
        yield pid, ConfusionMatrix(tp, fn, fp, tn), missed


def f_upper_tail_by_quadrature(f_value, d1, d2):
    """Upper-tail probability of the F(d1, d2) distribution by numerical
    integration of its density (no incomplete-beta shortcut)."""
    from scipy.integrate import quad

    log_beta = math.lgamma(d1 / 2.0) + math.lgamma(d2 / 2.0) - math.lgamma((d1 + d2) / 2.0)

    def density(x):
        if x <= 0.0:
            return 0.0
        log_num = (d1 / 2.0) * math.log(d1 * x) + (d2 / 2.0) * math.log(d2) \
            - ((d1 + d2) / 2.0) * math.log(d1 * x + d2)
        return math.exp(log_num - log_beta) / x

    if f_value <= 0.0:
        return 1.0
    upper, _ = quad(density, f_value, math.inf, limit=200)
    return max(0.0, min(1.0, upper))


def timed_rows(series):
    """(timestamp, bg) per sample of `series`, its minute column converted
    to datetimes in exact `timedelta` arithmetic; the oracles below scan
    this list."""
    return [(EPOCH + timedelta(minutes=minute), bg)
            for minute, bg, _ in series.samples.tolist()]


def linear_sample_at(rows, nominal, tolerance_min):
    """Index of the present reading nearest to `nominal` within the
    tolerance, by a scan of every row of `timed_rows`; the earlier sample
    wins ties, None when nothing present is in reach."""
    tol = timedelta(minutes=tolerance_min)
    best = None
    best_delta = None
    for i, (timestamp, bg) in enumerate(rows):
        if math.isnan(bg):
            continue
        delta = abs(timestamp - nominal)
        if delta <= tol and (best is None or delta < best_delta):
            best, best_delta = i, delta
    return best


def linear_postprandial_peak(rows, meal_time, peak_window_min):
    """(timestamp, bg) of the highest present reading in [meal, meal +
    window] by a scan of every row of `timed_rows`; earliest on ties, None
    if empty."""
    window_end = meal_time + timedelta(minutes=peak_window_min)
    best = None
    for timestamp, bg in rows:
        if math.isnan(bg) or timestamp < meal_time or timestamp > window_end:
            continue
        if best is None or bg > best[1]:
            best = (timestamp, bg)
    return best


def loop_build_instances(series, cfg):
    """Decision instances of `series`, one decision at a time: per meal, the
    linear-scan peak; per grid time t before the next meal whose horizon
    lies within one day's daytime hours and that is at least a sampling
    period past the peak, the linear-scan readings at t and at each horizon
    offset, all in `datetime` arithmetic; each instance's times are then
    converted to minutes."""
    rows = timed_rows(series)
    meals = [EPOCH + timedelta(minutes=minute)
             for minute, _, meal_ref in series.samples.tolist() if not math.isnan(meal_ref)]
    tol = cfg.snap_tolerance_min
    instances = []
    for k, meal in enumerate(meals):
        peak = linear_postprandial_peak(rows, meal, cfg.peak_window_min)
        if peak is None:
            continue
        peak_time, peak_value = peak
        for offset in cfg.decision_offsets_min:
            t = meal + timedelta(minutes=offset)
            start = t + timedelta(minutes=cfg.horizon_offsets_min[0])
            end = t + timedelta(minutes=cfg.horizon_offsets_min[-1])
            if k + 1 < len(meals) and t >= meals[k + 1]:
                continue
            if (start.date() != end.date() or start.time() < cfg.daytime_start
                    or end.time() > cfg.daytime_end):
                continue
            if t - peak_time < timedelta(minutes=SAMPLING_PERIOD_MIN):
                continue
            current = linear_sample_at(rows, t, tol)
            if current is None:
                continue
            hits = (linear_sample_at(rows, t + timedelta(minutes=h), tol)
                    for h in cfg.horizon_offsets_min)
            readings = [rows[i][1] for i in hits if i is not None]
            if not readings:
                continue
            x_t, low = rows[current][1], min(readings)
            instances.append(DecisionInstance(
                patient_id=series.patient_id, meal_time=minutes(meal),
                peak_time=minutes(peak_time), peak_value=peak_value,
                decision_time=minutes(t), x_t=x_t,
                rate=(peak_value - x_t) / ((t - peak_time).total_seconds() / 60.0),
                label=1 if low <= cfg.hypo_threshold else 0, ph_min_bg=low))
    return instances


MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
TIME_CELL = re.compile(r"([01]?[0-9]|2[0-3]):([0-5][0-9])", re.ASCII)  # H:MM or HH:MM


def loop_minute(date_cell, time_cell, line):
    """Minutes since 2000-01-01 of one row's ``D.Mon.YY`` and ``H:MM`` cells."""
    try:
        day_s, month_s, year_s = date_cell.split(".")
        hour_minute = TIME_CELL.fullmatch(time_cell)
        if not (hour_minute and day_s.isascii() and day_s.isdigit() and len(day_s) <= 2
                and year_s.isascii() and year_s.isdigit() and len(year_s) == 2):
            raise ValueError("malformed")
        day = datetime(2000 + int(year_s), MONTHS.index(month_s) + 1, int(day_s))
    except ValueError:
        raise DataValidationError(
            f"malformed timestamp {date_cell!r} {time_cell!r}", row=line) from None
    hour, minute = map(int, hour_minute.groups())
    return (day - EPOCH).days * 1440 + 60 * hour + minute


def loop_bg(cell, column, unit, line):
    """One BG cell in mmol/L; it must parse as a finite positive number in
    its own unit, and lie at or under BG_MAX once converted."""
    try:
        raw = float(cell)
    except ValueError:
        raw = math.nan
    value = raw if unit == "mmol" else raw / MG_PER_DL_PER_MMOL_L
    if not (math.isfinite(raw) and raw > 0) or value > BG_MAX:
        raise DataValidationError(
            f"{column} must be a number in (0, {BG_MAX}] mmol/L, got {cell!r}", row=line)
    return value


def loop_parse_cgm_file(text, patient_id="unknown", dm_type="other", unit="mmol"):
    """`parse_cgm_file` one `csv.reader` row at a time: rows of blank cells
    are skipped, and the first bad row raises, with the first check it
    fails in the order column count, Sample#, timestamp, increase, Meal,
    SensorBG."""
    if unit not in ("mmol", "mg"):
        raise ValueError(f"unknown unit {unit!r}, expected 'mmol' or 'mg'")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows or tuple(cell.strip() for cell in rows[0]) != CSV_COLUMNS:
        raise DataValidationError(f"expected header {','.join(CSV_COLUMNS)!r}", row=1)
    samples = []
    for line, row in enumerate(rows[1:], start=2):
        if all(not cell.strip() for cell in row):
            continue
        if len(row) != 5:
            raise DataValidationError(f"expected 5 columns, got {len(row)}", row=line)
        sample_no, date_cell, time_cell, meal_cell, bg_cell = (c.strip() for c in row)
        if not (sample_no.isascii() and sample_no.isdigit()):
            raise DataValidationError(
                f"Sample# is not a non-negative integer: {sample_no!r}", row=line)
        minute = loop_minute(date_cell, time_cell, line)
        if samples and minute <= samples[-1][0]:
            raise DataValidationError(
                f"timestamps not strictly increasing at {date_cell} {time_cell}", row=line)
        meal_ref = math.nan if meal_cell == "." else loop_bg(meal_cell, "Meal", unit, line)
        bg = math.nan if bg_cell == "N/A" else loop_bg(bg_cell, "SensorBG", unit, line)
        samples.append((minute, bg, meal_ref))
    return PatientSeries(patient_id=patient_id, samples=samples, dm_type=dm_type)


TS_FORMAT = "%Y-%m-%dT%H:%M"  # feature-table time cells


def loop_csv_table(columns, rows):
    """`csv_table` through `csv.writer` one row at a time: minimal quoting,
    LF line ends, and every cell of a row that holds a CR quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    quote_all = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(columns)
    for row in rows:
        (quote_all if "\r" in "".join(row) else writer).writerow(row)
    return buf.getvalue()


def loop_time_cell(value, where):
    """The `TS_FORMAT` cell of a time in minutes, by `datetime` arithmetic;
    ValueError, its text led by `where`, for a time whose year is not in
    1000-9999, which `strptime` reads back, or that is not a whole minute."""
    try:
        when = EPOCH + timedelta(minutes=value)
    except (ValueError, OverflowError):  # NaN, ±inf, or past the years of `datetime`
        when = None
    if when is None or when.year < 1000:
        raise ValueError(f"{where} is outside the years 1000-9999")
    if math.floor(value) != value:
        raise ValueError(f"{where} is not a whole minute")
    return when.strftime(TS_FORMAT)


def loop_write_feature_csv(instances, stream):
    """`write_feature_csv` one row at a time: each time cell through
    `loop_time_cell`, and the table through `loop_csv_table`."""
    rows = []
    for k, inst in enumerate(instances):
        row = [inst.patient_id]
        for name in FEATURE_COLUMNS[1:]:
            value = getattr(inst, name)
            if name.endswith("_time"):
                where = f"instance {k} {name} at minute {float(value)!r}"
                row.append(loop_time_cell(value, where))
            else:
                row.append(str(int(value)) if name == "label" else repr(float(value)))
        rows.append(row)
    stream.write(loop_csv_table(FEATURE_COLUMNS, rows))


def loop_feature_time(cell):
    return (datetime.strptime(cell, TS_FORMAT) - EPOCH) / timedelta(minutes=1)


def loop_finite(cell, column):
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{column} must be a finite number, got {cell!r}")
    return value


def loop_read_feature_csv(text):
    """`read_feature_csv` of a table's text, one `csv.reader` row at a time:
    rows of blank cells are skipped, and the first bad row raises, with the
    first check it fails in the order column count, label, then the cells
    left to right."""
    rows = []
    try:
        rows.extend(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise DataValidationError(str(exc), row=len(rows) + 1) from None
    if not rows or tuple(c.strip() for c in rows[0]) != FEATURE_COLUMNS:
        raise DataValidationError(f"expected header {','.join(FEATURE_COLUMNS)!r}", row=1)
    instances = []
    for line, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(FEATURE_COLUMNS):
            raise DataValidationError(
                f"expected {len(FEATURE_COLUMNS)} columns, got {len(row)}", row=line)
        try:
            label = int(row[8])
            if label not in (0, 1):
                raise ValueError(f"label must be 0 or 1, got {label}")
            instances.append(DecisionInstance(
                patient_id=row[0],
                meal_time=loop_feature_time(row[1]),
                peak_time=loop_feature_time(row[2]),
                peak_value=loop_finite(row[3], "peak_value"),
                decision_time=loop_feature_time(row[4]),
                x_t=loop_finite(row[5], "x_t"),
                rate=loop_finite(row[6], "rate"),
                ph_min_bg=loop_finite(row[7], "ph_min_bg"),
                label=label,
            ))
        except ValueError as exc:
            raise DataValidationError(str(exc), row=line) from exc
    return instances


def loop_generate_cohort(cfg):
    """`synth.generate_cohort` one patient at a time, with the AR(1) noise
    and the rate and range clamp as scalar loops over that patient's samples."""
    return [loop_generate_patient(cfg, i) for i in range(cfg.n_patients)]


def loop_clamp(values, cfg):
    """The sensor clamp as one scalar loop: each reading to within the rate
    band of the clamped reading before it, then to [bg_floor, bg_ceil]; the
    first reading to the range alone."""
    max_down = cfg.max_drop_rate * SAMPLING_PERIOD_MIN
    max_up = cfg.max_rise_rate * SAMPLING_PERIOD_MIN
    prev = min(max(values[0], cfg.bg_floor), cfg.bg_ceil)
    bg = [prev]
    for v in values[1:]:
        v = min(max(v, prev - max_down), prev + max_up)
        v = min(max(v, cfg.bg_floor), cfg.bg_ceil)
        bg.append(v)
        prev = v
    return bg


def loop_generate_patient(cfg, pidx):
    rng_struct = np.random.default_rng([cfg.seed, pidx, 0])
    rng_dip = np.random.default_rng([cfg.seed, pidx, 1])
    rng_params = np.random.default_rng([cfg.seed, pidx, 2])
    rng_noise = np.random.default_rng([cfg.seed, pidx, 3])
    rng_miss = np.random.default_rng([cfg.seed, pidx, 4])

    n_days = int(rng_struct.integers(cfg.days_min, cfg.days_max + 1))
    baseline = float(rng_struct.uniform(cfg.baseline_min, cfg.baseline_max))
    u = rng_struct.random()
    dm_type = "type1" if u < 0.64 else ("type2" if u < 0.94 else "other")

    meal_minutes = []
    for day in range(n_days):
        n_meals = int(rng_struct.integers(cfg.meals_per_day_min, cfg.meals_per_day_max + 1))
        slots = [rng_struct.uniform(lo, hi) for lo, hi in _SLOTS]
        pick = sorted(rng_struct.permutation(len(_SLOTS))[:n_meals])
        meal_minutes += [day * 1440 + SAMPLING_PERIOD_MIN * round(slots[j] / SAMPLING_PERIOD_MIN)
                         for j in pick]
    meal_minutes.sort()

    total_min = n_days * 1440
    anchors_t = [0.0]
    anchors_v = [baseline]

    def push(t, v):
        if t > anchors_t[-1]:
            anchors_t.append(float(t))
            anchors_v.append(float(v))

    def relax(to_t):
        elapsed = to_t - anchors_t[-1]
        return baseline + (anchors_v[-1] - baseline) * math.exp(-elapsed / 240.0)

    for k, meal in enumerate(meal_minutes):
        next_meal = meal_minutes[k + 1] if k + 1 < len(meal_minutes) else total_min + 1440
        cap = next_meal - SAMPLING_PERIOD_MIN

        peak_delay = float(np.clip(rng_params.normal(cfg.peak_delay_mean, cfg.peak_delay_sd),
                                   15.0, 115.0))
        rise = float(rng_params.uniform(cfg.rise_min, cfg.rise_max))
        dip_rise = float(rng_params.uniform(1.0, 3.0))
        decay_rate = float(rng_params.uniform(cfg.decay_rate_min, cfg.decay_rate_max))
        post_level = baseline + float(rng_params.uniform(-0.3, 1.3))
        nadir = float(rng_params.uniform(cfg.nadir_min, cfg.nadir_max))
        nadir_delay = float(rng_params.uniform(cfg.nadir_delay_min, cfg.nadir_delay_max))
        plateau = float(rng_params.uniform(cfg.nadir_plateau_min, cfg.nadir_plateau_max))
        fall_rate = float(rng_params.uniform(cfg.dip_fall_rate_min, cfg.dip_fall_rate_max))
        recovery_rate = float(rng_params.uniform(cfg.recovery_rate_min, cfg.recovery_rate_max))

        dip = bool(rng_dip.random() < cfg.hypo_pressure)

        v_meal = relax(meal)
        push(meal, v_meal)

        points = []
        if dip:
            t_peak = meal + min(peak_delay, 50.0)
            t_nadir = meal + nadir_delay
            v_peak = min(v_meal + dip_rise, nadir + fall_rate * (t_nadir - t_peak))
            if v_peak > v_meal:
                points.append((t_peak, v_peak))
            points.append((t_nadir, nadir))
            points.append((t_nadir + plateau, nadir))
            points.append((t_nadir + plateau + (post_level - nadir) / recovery_rate, post_level))
        else:
            t_peak = meal + peak_delay
            v_peak = min(v_meal + rise, cfg.bg_ceil - 1.0)
            points.append((t_peak, v_peak))
            if v_peak > post_level:
                points.append((t_peak + (v_peak - post_level) / decay_rate, post_level))

        for t_pt, v_pt in points:
            t_prev, v_prev = anchors_t[-1], anchors_v[-1]
            if t_pt <= cap:
                push(t_pt, v_pt)
            else:
                if cap > t_prev:
                    frac = (cap - t_prev) / (t_pt - t_prev)
                    push(cap, v_prev + frac * (v_pt - v_prev))
                break

    push(total_min, relax(total_min))

    n_samples = total_min // SAMPLING_PERIOD_MIN
    grid = np.arange(n_samples) * SAMPLING_PERIOD_MIN
    curve = np.interp(grid, anchors_t, anchors_v)

    phi = 0.8
    eps_sd = cfg.noise_sd * math.sqrt(1.0 - phi * phi)
    eps = rng_noise.normal(0.0, eps_sd, n_samples) if cfg.noise_sd > 0 else np.zeros(n_samples)
    noise = np.empty(n_samples)
    level = rng_noise.normal(0.0, cfg.noise_sd) if cfg.noise_sd > 0 else 0.0
    for i in range(n_samples):
        level = phi * level + eps[i]
        noise[i] = level
    noise = np.clip(noise, -cfg.noise_clip, cfg.noise_clip)

    raw = curve + noise
    bg = loop_clamp(raw.tolist(), cfg)

    missing = rng_miss.random(n_samples) < cfg.missing_prob
    meal_idx = np.array(meal_minutes, dtype=np.int64) // SAMPLING_PERIOD_MIN
    ref_jitter = rng_params.normal(0.0, 0.25, len(meal_minutes))

    meal_ref = np.full(n_samples, np.nan)
    meal_ref[meal_idx] = np.maximum(cfg.bg_floor, curve[meal_idx] + ref_jitter)
    samples = np.column_stack([_COHORT_START_MIN + grid, np.where(missing, np.nan, bg), meal_ref])
    return PatientSeries(patient_id=f"p{pidx:02d}", samples=samples, dm_type=dm_type)
