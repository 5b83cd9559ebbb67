"""Independent reference implementations used to cross-check the library.

Everything here is deliberately plain-Python and loop-based so it shares
no code path with the vectorized implementations under test.
"""

import csv
import io
import math
import re
from datetime import datetime, timedelta

from hypoalarm import DataValidationError, DecisionInstance, Leaf, PatientSeries, Split
from hypoalarm.cgm_data import BG_MAX, CSV_COLUMNS, MG_PER_DL_PER_MMOL_L, SAMPLING_PERIOD_MIN

EPOCH = datetime(2000, 1, 1)  # sample times are minutes since this instant


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
    offset, all in `datetime` arithmetic."""
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
                patient_id=series.patient_id, meal_time=meal, peak_time=peak_time,
                peak_value=peak_value, decision_time=t, x_t=x_t,
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
