"""hypoalarm benchmark: workloads, output checks, end-to-end and per-layer metrics.

`run.py` is the entry point; README.md describes the workloads and metrics.
Only calls into the public functions of hypoalarm's layers are timed. Every
operation's output is checked: against reference SHA-256 digests for the
default seed and cohort size, and against the first repetition otherwise.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import hypoalarm
from hypoalarm import cart, cgm_data, cli, evaluation, features, synth

from spans import Tracer, totals_by_round

DEFAULT_SEED = 7
SETUP_REPEATS = 3
CFG = cgm_data.PipelineConfig()
REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: name -> (unit, better, bound); measured with tracing off, on every workload.
#: Times get the widest bound allowed, 0.25: on a shared 2-vCPU host their
#: speed-adjusted medians over ten seeds still spread by up to 0.15 (IQR over
#: median, cv330). README.md has the measurements.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_ms_p50": ("ms", "lower", 0.25),
    "samples_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "ok_ratio": ("ratio", "higher", 0.01),
}

_CLI_COMMANDS = ("synth", "features", "train", "evaluate", "report", "predict", "anova")

#: name -> (unit, better); measured in the traced run, per round with set-up
#: added once. Counts that define the workload (samples, instances...) must
#: not move at all; "higher" is nominal for them.
PER_LAYER = {
    "cgm_data.parse_cgm_file.calls": ("count", "lower"),
    "cgm_data.parse_cgm_file.busy_s": ("s", "lower"),
    "cgm_data.series_to_csv.busy_s": ("s", "lower"),
    "cgm_data.samples": ("count", "higher"),
    "cgm_data.gaps": ("count", "higher"),
    "cgm_data.meals": ("count", "higher"),
    "features.build_instances.calls": ("count", "lower"),
    "features.build_instances.busy_s": ("s", "lower"),
    "features.grid_candidates": ("count", "higher"),
    "features.instances": ("count", "higher"),
    "features.hypo_instances": ("count", "higher"),
    "features.yield": ("ratio", "higher"),
    "features.write_feature_csv.busy_s": ("s", "lower"),
    "features.write_feature_csv.bytes": ("bytes", "lower"),
    "features.read_feature_csv.busy_s": ("s", "lower"),
    "cart.grow_tree.calls": ("count", "lower"),
    "cart.grow_tree.busy_s": ("s", "lower"),
    "cart.grow_tree.nodes": ("count", "lower"),
    "cart.prune_to_depth.busy_s": ("s", "lower"),
    "cart.nodes_kept": ("count", "higher"),
    "cart.nodes_kept_ratio": ("ratio", "higher"),
    "cart.predict.calls": ("count", "lower"),
    "cart.predict.busy_s": ("s", "lower"),
    "evaluation.cross_validate.busy_s": ("s", "lower"),
    "evaluation.cross_validate.self_s": ("s", "lower"),
    "evaluation.evaluate_per_patient.busy_s": ("s", "lower"),
    "evaluation.missed_event_analysis.busy_s": ("s", "lower"),
    "synth.generate_cohort.busy_s": ("s", "lower"),
    **{f"cli.{cmd}.{kind}": ("s", "lower")
       for cmd in _CLI_COMMANDS for kind in ("busy_s", "self_s")},
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.span_coverage_min": ("ratio", "higher"),
}


# -- counts -----------------------------------------------------------------

def tree_nodes(tree) -> int:
    """Splits plus leaves of a tree."""
    stack, nodes = [tree], 0
    while stack:
        node = stack.pop()
        nodes += 1
        if isinstance(node, cart.Split):
            stack += (node.left, node.right)
    return nodes


def series_counts(series) -> dict:
    return {"cgm_data.samples": len(series.samples),
            "cgm_data.gaps": series.missing_count,
            "cgm_data.meals": len(series.meal_times)}


def instance_counts(series, instances, cfg=CFG) -> dict:
    return {"features.grid_candidates": len(series.meal_times) * len(cfg.decision_offsets_min),
            "features.instances": len(instances),
            "features.hypo_instances": sum(inst.label for inst in instances)}


def _written_bytes(args, kwargs, _result) -> dict:
    target = args[1] if len(args) > 1 else kwargs["path"]
    size = target.tell() if hasattr(target, "tell") else Path(target).stat().st_size
    return {"features.write_feature_csv.bytes": size}


#: Counts attached to spans in the traced run, read from each call's result.
INSPECTORS = {
    "cgm_data.parse_cgm_file": lambda args, kwargs, series: series_counts(series),
    "features.build_instances": lambda args, kwargs, instances: instance_counts(
        args[0], instances, args[1] if len(args) > 1 else kwargs.get("cfg") or CFG),
    "features.write_feature_csv": _written_bytes,
    "cart.grow_tree": lambda args, kwargs, tree: {"cart.grow_tree.nodes": tree_nodes(tree)},
    "cart.prune_to_depth": lambda args, kwargs, tree: {"cart.nodes_kept": tree_nodes(tree)},
}


# -- output serialisation ---------------------------------------------------

def evaluate_summary(instances, cfg, seed, report, best, per_patient, severity) -> str:
    """summary.json text exactly as `hypoalarm evaluate` writes it."""
    serialize = cart.serialize_tree
    summary = {
        "aggregate": report.aggregate,
        "allocations": report.allocations,
        "best_run": {"allocation": best.allocation, "fold": best.fold},
        "best_tree": serialize(best.tree),
        "class_counts": {
            "hypo": int(sum(inst.label for inst in instances)),
            "non_hypo": int(sum(1 - inst.label for inst in instances)),
        },
        "config": {
            "allocations": cfg.allocations,
            "costs": asdict(cfg.costs),
            "daytime": [f"{cfg.daytime_start:%H:%M}", f"{cfg.daytime_end:%H:%M}"],
            "decision_offsets_min": list(cfg.decision_offsets_min),
            "folds": cfg.folds,
            "horizon_offsets_min": list(cfg.horizon_offsets_min),
            "hypo_threshold": cfg.hypo_threshold,
            "lead_time_min": cfg.lead_time_min,
            "peak_window_min": cfg.peak_window_min,
            "prune_depth": cfg.prune_depth,
            "seed": seed,
            "snap_tolerance_min": cfg.snap_tolerance_min,
        },
        "fold_sizes": [[len(g) for g in plan.groups] for plan in report.fold_plans],
        "k": report.k,
        "missed_events": {
            "rows": [{
                "patient_id": row.patient_id,
                "sensitivity": row.sensitivity,
                "predicted_events": row.predicted_events,
                "missed_events": row.missed_events,
                "lows": list(row.lows),
                "severe_count": row.severe_count,
            } for row in severity.rows],
            "total_missed": severity.total_missed,
            "total_severe": severity.total_severe,
        },
        "n_instances": report.n_instances,
        "per_patient": [asdict(row) for row in per_patient],
        "per_run": [{
            "allocation": e.allocation,
            "fold": e.fold,
            "seed": e.seed,
            "tp": e.cm.tp, "fn": e.cm.fn, "fp": e.cm.fp, "tn": e.cm.tn,
            "accuracy": e.vector.accuracy,
            "sensitivity": e.vector.sensitivity,
            "specificity": e.vector.specificity,
            "tree": serialize(e.tree),
        } for e in report.runs],
        "seed": report.seed,
        "seeds": [report.seed + r for r in range(report.allocations)],
    }
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def digests(files: dict) -> dict:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in files.items()}


# -- workloads --------------------------------------------------------------

class Workload:
    """One set of inputs. `setup` builds them; a round is `ops_per_round`
    calls of `run_op`, whose results `outcome` turns into output files and
    deterministic counts outside the timed region."""

    name = ""
    patients = 0
    why = ""
    warmup_setup = False  # set-up runs the operation itself, so it is not traced

    def __init__(self, seed: int, n_patients: int, workdir: Path):
        self.seed = seed
        self.n_patients = n_patients
        self.workdir = workdir
        self.ops_per_round = 1
        self.setup_counts: dict = {}

    def synth_config(self):
        return synth.SynthConfig(seed=self.seed, n_patients=self.n_patients)

    def round_files(self, op_files: list) -> dict:
        return op_files[0]


class Records(Workload):
    name = "records330"
    patients = 330
    why = "record text to feature CSV per patient: parse and features dominate, the tree is idle"

    def setup(self):
        cohort = synth.generate_cohort(self.synth_config())
        self.records = [(s.patient_id, s.dm_type, cgm_data.series_to_csv(s)) for s in cohort]
        self.ops_per_round = len(self.records)

    def run_op(self, i):
        patient_id, dm_type, text = self.records[i]
        series = cgm_data.parse_cgm_file(text, patient_id=patient_id, dm_type=dm_type)
        instances = features.build_instances(series, CFG)
        out = io.StringIO()
        features.write_feature_csv(instances, out)
        return series, instances, out.getvalue()

    def outcome(self, i, result):
        series, instances, text = result
        return {"features.csv": text}, {**series_counts(series),
                                        **instance_counts(series, instances)}

    def round_files(self, op_files):
        # The cohort table `hypoalarm features` writes: one header, rows in patient order.
        parts = [files["features.csv"].partition("\n") for files in op_files]
        return {"features.csv": parts[0][0] + "\n" + "".join(body for _, _, body in parts)}


class CrossValidation(Workload):
    name = "cv330"
    patients = 330
    why = "in-memory instances to the 4x5 CV report: the tree and evaluation dominate, parsing is idle"

    def setup(self):
        self.instances = []
        self.dm_types = {}
        counts = Counter()
        for s in synth.generate_cohort(self.synth_config()):
            series = cgm_data.parse_cgm_file(cgm_data.series_to_csv(s),
                                             patient_id=s.patient_id, dm_type=s.dm_type)
            instances = features.build_instances(series, CFG)
            self.instances += instances
            self.dm_types[series.patient_id] = series.dm_type
            counts.update(series_counts(series))
            counts.update(instance_counts(series, instances))
        self.setup_counts = dict(counts)

    def run_op(self, i):
        report = evaluation.cross_validate(self.instances, CFG, seed=self.seed)
        best = evaluation.select_best_run(report)
        per_patient = evaluation.evaluate_per_patient(best.tree, self.instances, self.dm_types)
        severity = evaluation.missed_event_analysis(best.tree, self.instances)
        return report, best, per_patient, severity

    def outcome(self, i, result):
        summary = evaluate_summary(self.instances, CFG, self.seed, *result)
        kept = sum(tree_nodes(entry.tree) for entry in result[0].runs)
        return {"summary.json": summary}, {"cart.nodes_kept": kept}


class CliChain(Workload):
    name = "cli33"
    patients = 33
    why = "the whole CLI chain at 33 patients: file I/O, manifests and per-call costs weigh more"
    warmup_setup = True

    def setup(self):
        self.config = self.workdir / "synth.json"
        self.config.write_text(json.dumps({"n_patients": self.n_patients}))
        self.chains = 0
        # One untimed chain pays first-call costs before anything is measured.
        self.outcome(0, self.run_op(0))

    def run_op(self, i):
        self.chains += 1
        out = self.workdir / f"chain{self.chains:06d}"  # fixed width: manifests hold paths
        cohort, table, tree, report = (out / "cohort", out / "features.csv",
                                       out / "tree.json", out / "report")
        argvs = [
            ["synth", "--config", str(self.config), "--seed", str(self.seed), "--out", str(cohort)],
            ["features", "--in", str(cohort), "--out", str(table)],
            ["train", "--features", str(table), "--out", str(tree)],
            ["evaluate", "--features", str(table), "--seed", str(self.seed),
             "--cohort", str(cohort / "cohort.json"), "--out", str(report)],
            ["report", "--summary", str(report / "summary.json"), "--out", str(out / "report2")],
            ["predict", "--tree", str(tree), "--xt", "4.5", "--rate", "0.05"],
            ["anova", "--report", str(report / "summary.json")],
        ]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            codes = [cli.main(argv) for argv in argvs]
        return out, codes, log.getvalue()

    def outcome(self, i, result):
        out, codes, log = result
        try:
            if any(codes):
                raise RuntimeError(f"exit codes {codes}: {log.strip()[-500:]}")
            table = (out / "features.csv").read_text()
            summary = (out / "report" / "summary.json").read_text()
            class_counts = json.loads(summary)["class_counts"]
            samples = sum(len(f.read_text().splitlines()) - 1
                          for f in (out / "cohort").glob("*.csv"))
            written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
            counts = {"cgm_data.samples": samples,
                      "features.instances": len(table.splitlines()) - 1,
                      "features.hypo_instances": class_counts["hypo"],
                      "cli.bytes_written": written}
            return {"features.csv": table, "summary.json": summary}, counts
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Records, CrossValidation, CliChain)}


# -- machine speed ----------------------------------------------------------

#: Calibration kernel time on the reference machine (2 vCPUs, Python 3.11) when
#: it is not contended. Reported times are scaled to this speed.
CAL_REF_S = 0.0023
CAL_INTERVAL_S = 0.25
CAL_REPEATS = 5
CAL_WINDOW_S = 2.0
_CAL_WORDS = [f"{(i * 7919) % 20000 / 1000:.6f}" for i in range(4000)]


def calibration_kernel() -> dict:
    """Fixed interpreter-bound work with no hypoalarm code: parse floats,
    build and sort tuples, accumulate into a dict."""
    rows = [(float(word), i, word[:3]) for i, word in enumerate(_CAL_WORDS)]
    rows.sort()
    totals = {}
    for value, _, key in rows:
        totals[key] = totals.get(key, 0.0) + value
    return totals


class Speed:
    """Probes of the calibration kernel, taken next to the timed work.

    The machine this runs on is shared: its speed for interpreter-bound code
    swings by up to 2x over tens of seconds. A probe every `CAL_INTERVAL_S`
    tracks the swings, and `scale` converts a measured time to the time the
    same work would take at the reference speed.
    """

    def __init__(self):
        self.at: list[float] = []       # when each probe ended
        self.kernel_s: list[float] = []

    def probe(self) -> None:
        times = []
        for _ in range(CAL_REPEATS):
            start = perf_counter()
            calibration_kernel()
            times.append(perf_counter() - start)
        self.at.append(perf_counter())
        self.kernel_s.append(statistics.median(times))

    def probe_if_due(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= CAL_INTERVAL_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """CAL_REF_S over the median probe within `CAL_WINDOW_S` of the
        interval, or of the nearest probe on each side when none is."""
        lo = bisect_left(self.at, start - CAL_WINDOW_S)
        hi = bisect_right(self.at, end + CAL_WINDOW_S)
        if lo >= hi:
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return CAL_REF_S / statistics.median(self.kernel_s[lo:hi])


# -- measurement ------------------------------------------------------------

@dataclass
class Measurement:
    op_s: list = field(default_factory=list)           # untraced op times, inf if failed
    op_starts: list = field(default_factory=list)      # when each started
    op_rounds: list = field(default_factory=list)      # and its round
    round_counts: list = field(default_factory=list)   # outcome counts per round
    round_pairs: list = field(default_factory=list)    # (untraced s, traced s) per round
    op_walls: dict = field(default_factory=dict)       # traced op id -> (start, end)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    reference_checked: bool = False
    reference_mismatch: bool = False


def _attempt(w: Workload, i: int, tracer: Tracer | None, op_id):
    """One timed `run_op(i)`, then its untimed outcome; never raises."""
    if tracer is not None:
        tracer.install(op_id)
    start = perf_counter()
    try:
        result, error = w.run_op(i), None
    except Exception as exc:  # counted as a failed operation
        result, error = None, exc
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    files = counts = None
    if error is None:
        try:
            files, counts = w.outcome(i, result)
        except Exception as exc:
            error = exc
    return start, elapsed, files, counts, error


def measure(w: Workload, seconds: float, reference: dict | None, speed: Speed,
            tracer: Tracer | None = None) -> Measurement:
    """Run whole rounds until `seconds` have passed (at least one round).

    With a tracer, every operation runs twice, once traced and once not, in
    alternating order; the untraced half gives the timings, the difference
    gives the tracing overhead. Both halves must produce the same output.
    """
    m = Measurement()
    expected: dict = {}
    deadline = perf_counter() + seconds
    while not m.round_counts or perf_counter() < deadline:
        r = len(m.round_counts)
        gc.collect()
        op_files, counts, sums = [], Counter(), [0.0, 0.0]
        for i in range(w.ops_per_round):
            modes = (False,) if tracer is None else ((False, True), (True, False))[(r + i) % 2]
            for traced in modes:
                speed.probe_if_due()
                start, elapsed, files, op_counts, error = _attempt(
                    w, i, tracer if traced else None, (r, i))
                if traced:
                    m.op_walls[(r, i)] = (start, start + elapsed)
                sums[traced] += elapsed
                m.attempted += 1
                if error is None:
                    digest = digests(files)
                    if expected.setdefault(i, digest) != digest:
                        error = ValueError(f"op {i}: output differs from its first repetition")
                if error is not None:
                    m.failed += 1
                    if len(m.errors) < 5:
                        m.errors.append(f"round {r} op {i}: {type(error).__name__}: {error}\n"
                                        + "".join(traceback.format_exception(error))[-2000:])
                    elapsed = math.inf  # a failed operation misses any latency limit
                elif not traced:
                    op_files.append(files)
                    counts.update(op_counts)
                if not traced:
                    m.op_s.append(elapsed)
                    m.op_starts.append(start)
                    m.op_rounds.append(r)
        if reference is not None and len(op_files) == w.ops_per_round:
            m.reference_checked = True
            if digests(w.round_files(op_files)) != reference:
                m.reference_mismatch = True
                m.errors.append(f"round {r}: output digests differ from reference.json")
        m.round_counts.append(dict(counts))
        m.round_pairs.append(tuple(sums))
    speed.probe()
    if m.reference_mismatch:
        m.failed = m.attempted  # the repetitions agree with each other on a wrong output
    return m


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def supported_percentiles(n: int) -> list:
    """Upper percentiles with at least ten samples beyond them."""
    return [q for q in (90, 95, 99) if n * (100 - q) / 100 >= 10]


def machine() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "hypoalarm": hypoalarm.__version__}


def load_reference(name: str, seed: int, n_patients: int) -> dict | None:
    doc = json.loads(REFERENCE_FILE.read_text())
    entry = doc["workloads"].get(name)
    if seed != doc["seed"] or entry is None or entry["patients"] != n_patients:
        return None
    return entry["digests"]


def _counts_repeat(rounds: list) -> bool:
    return all(r == rounds[0] for r in rounds)


def _end_to_end(w, m, setups, speed):
    """End-to-end metrics at the reference speed, with the wall-clock values
    they come from."""
    samples = [rc.get("cgm_data.samples", w.setup_counts.get("cgm_data.samples", 0))
               for rc in m.round_counts]
    op_s = [t * speed.scale(start, start + t) for start, t in zip(m.op_starts, m.op_s)]
    round_s = [0.0] * len(m.round_counts)
    for r, t in zip(m.op_rounds, op_s):
        round_s[r] += t
    setup_s = [(end - start) * speed.scale(start, end) for start, end in setups]
    values = {
        "setup_s": statistics.median(setup_s),
        "op_ms_p50": statistics.median(op_s) * 1e3,
        # the median round, so that one slow stretch of a shared machine counts once
        "samples_per_s": statistics.median(n / t for n, t in zip(samples, round_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (m.attempted - m.failed) / m.attempted,
    }
    extra = {"op_count": len(op_s), "setup_count": len(setups),
             "failed_ratio": m.failed / m.attempted,
             "wall_setup_s": statistics.median(end - start for start, end in setups),
             "wall_op_ms_p50": statistics.median(m.op_s) * 1e3,
             "wall_samples_per_s": sum(samples) / sum(m.op_s),
             "calibration_ms_p50": statistics.median(speed.kernel_s) * 1e3,
             "calibration_count": len(speed.kernel_s)}
    for q in supported_percentiles(len(op_s)):
        extra[f"op_ms_p{q}"] = percentile(op_s, q) * 1e3
    return values, extra


def _per_layer(tracer, m):
    by_round = totals_by_round(tracer, lambda op: op if op == "setup" else op[0])
    setup = by_round.pop("setup", {})
    rounds = [by_round[r] for r in sorted(by_round)]
    keys = set(setup).union(*rounds)
    values = {}
    for k in keys:
        middle = statistics.median if k.endswith("_s") else statistics.median_low
        values[k] = setup.get(k, 0) + middle([r.get(k, 0) for r in rounds])
    counted = [{k: v for k, v in r.items() if not k.endswith("_s")} for r in rounds]
    values["features.yield"] = (values.get("features.instances", 0)
                                / values["features.grid_candidates"]
                                if values.get("features.grid_candidates") else 0.0)
    values["cart.nodes_kept_ratio"] = (values.get("cart.nodes_kept", 0)
                                       / values["cart.grow_tree.nodes"]
                                       if values.get("cart.grow_tree.nodes") else 0.0)
    # cli.bytes_written is read from the chain's files, not from a span.
    values["cli.bytes_written"] = statistics.median_low(
        rc.get("cli.bytes_written", 0) for rc in m.round_counts)
    values["trace.overhead_s"] = statistics.median(t - u for u, t in m.round_pairs)
    values["trace.overhead_ratio"] = statistics.median(t / u - 1 for u, t in m.round_pairs)
    top = Counter()
    for span in tracer.spans:
        if span.parent < 0 and span.op in m.op_walls:
            top[span.op] += span.end - span.start
    values["trace.span_coverage_min"] = min(
        top[op] / (end - start) for op, (start, end) in m.op_walls.items())
    return values, _counts_repeat(counted)


def run_workload(name: str, seed: int = DEFAULT_SEED, seconds: float = 20.0,
                 trace: bool = False, n_patients: int | None = None,
                 out_dir: Path = Path(".bench_out")) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    cls = WORKLOADS[name]
    n_patients = n_patients or cls.patients
    out_dir.mkdir(parents=True, exist_ok=True)
    # Relative, so the manifests the CLI writes (they record paths) have the
    # same size in every checkout.
    workdir = Path(os.path.relpath(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)))
    try:
        reference = load_reference(name, seed, n_patients)
        tracer = Tracer(INSPECTORS) if trace else None
        speed = Speed()
        setups = []
        w = None
        for _ in range(1 if trace else SETUP_REPEATS):
            w = None
            gc.collect()
            w = cls(seed, n_patients, workdir)
            trace_setup = trace and not cls.warmup_setup
            speed.probe()
            if trace_setup:
                tracer.install("setup")
            start = perf_counter()
            try:
                w.setup()
            finally:
                setups.append((start, perf_counter()))
                if trace_setup:
                    tracer.uninstall()
        m = measure(w, seconds, reference, speed, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end, extra = _end_to_end(w, m, setups, speed)
    counts = {**w.setup_counts, **m.round_counts[0]}
    repeat = _counts_repeat(m.round_counts)
    record = {
        "workload": name, "seed": seed, "patients": n_patients, "seconds": seconds,
        "trace": trace, "machine": machine(), "attempted": m.attempted, "failed": m.failed,
        "errors": m.errors, "reference_checked": m.reference_checked,
        "end_to_end": end_to_end, "extra": extra, "counts": counts, "counts_repeat": repeat,
        "counts_by_round": m.round_counts,
        "op_wall_s": [[start, t] for start, t in zip(m.op_starts, m.op_s)],
        "calibration": [[at, k] for at, k in zip(speed.at, speed.kernel_s)],
    }
    if trace:
        record["per_layer"], layer_repeat = _per_layer(tracer, m)
        record["counts_repeat"] = repeat and layer_repeat
        record["hot_calls"] = {f"{op}:{fn}": v for (op, fn), v in tracer.hot.items()}
        record["spans"] = [[s.name, s.start, s.end, s.parent, str(s.op), s.hot_s, s.counts]
                           for s in tracer.spans]
    record["correct"] = m.failed == 0 and record["counts_repeat"]
    return record


def result_line(record: dict) -> dict:
    """The final stdout line: end-to-end metrics untraced, per-layer traced."""
    if record["trace"]:
        metrics = {k: {"value": record["per_layer"].get(k, 0), "unit": spec[0]}
                   for k, spec in PER_LAYER.items()}
    else:
        # A time is infinite when most operations failed; JSON has no infinity.
        metrics = {k: {"value": min(record["end_to_end"][k], sys.float_info.max),
                       "unit": spec[0]}
                   for k, spec in END_TO_END.items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


_ALIASES = {  # the per-workload names the operation time is also known by
    "records330": ("patient_ms", 1.0),
    "cv330": ("evaluate_s", 1e-3),
    "cli33": ("chain_s", 1e-3),
}


def report_lines(record: dict) -> list[str]:
    """Human-readable table: every metric with its unit and sample count."""
    e2e, extra = record["end_to_end"], record["extra"]
    lines = [f"# {record['workload']} seed={record['seed']} patients={record['patients']} "
             f"seconds={record['seconds']} trace={int(record['trace'])}",
             "# machine " + " ".join(f"{k}={v}" for k, v in record["machine"].items())]
    n = extra["op_count"]
    alias, scale = _ALIASES[record["workload"]]
    unit = "ms" if scale == 1.0 else "s"
    rows = [("setup_s", e2e["setup_s"], "s", f"median of {extra['setup_count']}"),
            ("op_ms_p50", e2e["op_ms_p50"], "ms", f"n={n}"),
            (f"{alias}_p50", e2e["op_ms_p50"] * scale, unit, f"n={n}")]
    for q in supported_percentiles(n):
        rows.append((f"{alias}_p{q}", extra[f"op_ms_p{q}"] * scale, unit, f"n={n}"))
    rows += [("samples_per_s", e2e["samples_per_s"], "1/s",
              f"median of {len(record['counts_by_round'])} rounds"),
             ("wall_setup_s", extra["wall_setup_s"], "s", "wall clock, not speed-adjusted"),
             ("wall_op_ms_p50", extra["wall_op_ms_p50"], "ms", "wall clock, not speed-adjusted"),
             ("wall_samples_per_s", extra["wall_samples_per_s"], "1/s",
              "wall clock, not speed-adjusted"),
             ("calibration_ms_p50", extra["calibration_ms_p50"], "ms",
              f"n={extra['calibration_count']}, reference {CAL_REF_S * 1e3:g} ms"),
             ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "process high-water mark"),
             ("ok_ratio", e2e["ok_ratio"], "ratio", f"{record['attempted']} attempted"),
             ("failed_ratio", extra["failed_ratio"], "ratio",
              f"{record['failed']}/{record['attempted']}")]
    for key, (unit, _) in PER_LAYER.items() if record["trace"] else ():
        rows.append((key, record["per_layer"].get(key, 0), unit, "traced"))
    lines += [f"{key:<40} {value:>16.6g} {unit:<6} {note}" for key, value, unit, note in rows]
    lines.append("# counts " + " ".join(f"{k}={v}" for k, v in sorted(record["counts"].items()))
                 + f" repeat={record['counts_repeat']}")
    lines += [f"# error {e.splitlines()[0]}" for e in record["errors"]]
    return lines
