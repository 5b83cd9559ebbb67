"""Command-line pipeline: synthesize cohorts, ingest records, extract
features, train, evaluate, and report, with reproducible manifests.

Exit codes: 0 success, 1 usage error, 2 data validation error, 3 internal
invariant violation. Errors print a single ``error[kind]: message`` line
on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import sys
import typing
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .cart import finite_number, grow_tree, parse_tree, predict, serialize_tree, tree_depth
from .cgm_data import DM_TYPES, DataValidationError, PipelineConfig, parse_cgm_file, series_to_csv
from .evaluation import (
    ConfusionMatrix,
    PatientRow,
    PerformanceVector,
    RunEntry,
    SeverityRow,
    cross_validate,
    evaluate_per_patient,
    instances_to_arrays,
    missed_event_analysis,
    one_way_anova,
    select_best_run,
    summary_document,
)
from .features import build_instances, csv_table, read_feature_csv, write_feature_csv
from .synth import SynthConfig, generate_cohort

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Bad command line beyond what argparse catches itself."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for data errors
        raise UsageError(message)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Files:
    """One command's files: each read and write goes through here, keyed
    and digested as its manifest lists them."""

    def __init__(self):
        self.inputs: dict[str, str] = {}   # path as given -> SHA-256
        self.outputs: dict[str, str] = {}  # file name -> SHA-256

    def read(self, path) -> str:
        """The file as UTF-8 text, newlines untranslated: the bytes that are hashed."""
        data = Path(path).read_bytes()
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()
        return data.decode()

    def json(self, path):
        try:
            return json.loads(self.read(path))
        except ValueError as exc:  # bad syntax or UTF-8, or an int past the digit limit
            raise DataValidationError(f"{path}: not valid JSON ({exc})") from None

    def write(self, path: Path, text: str) -> None:
        data = text.encode()
        path.write_bytes(data)
        self.outputs[path.name] = hashlib.sha256(data).hexdigest()

    def manifest(self, path: Path, command: str, config, seeds: list) -> None:
        """Write the manifest of the files recorded so far; it lists no digest of itself."""
        self.write(path, _json_text({
            "command": command, "config": config, "inputs": self.inputs,
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "outputs": self.outputs, "seeds": seeds, "version": __version__}))


def _load_synth_config(args, files: _Files) -> SynthConfig:
    fields = {} if args.config is None else files.json(args.config)
    if not isinstance(fields, dict):
        raise DataValidationError("synth config must be a JSON object")
    if args.seed is not None:
        fields["seed"] = args.seed
    try:
        return SynthConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"bad synth config: {exc}")


def _cmd_synth(args, files: _Files) -> int:
    cfg = _load_synth_config(args, files)
    cohort = generate_cohort(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    patients = []
    for series in cohort:
        name = f"{series.patient_id}.csv"
        files.write(out / name, series_to_csv(series))
        patients.append({"id": series.patient_id, "dm_type": series.dm_type, "file": name})
    files.write(out / "cohort.json", _json_text(
        {"config": dataclasses.asdict(cfg), "patients": patients, "seed": cfg.seed}))
    files.manifest(out / "manifest.json", "synth", dataclasses.asdict(cfg), [cfg.seed])
    print(f"patients={len(cohort)} out={out}")
    return EXIT_OK


def _cmd_ingest(args, files: _Files) -> int:
    path = Path(args.infile)
    series = parse_cgm_file(files.read(path), patient_id=path.stem, unit=args.unit)
    print(f"patient={series.patient_id} samples={len(series.samples)} "
          f"meals={len(series.meal_times)} missing={series.missing_count}")
    return EXIT_OK


def _read_cohort_json(files: _Files, path) -> list[tuple[str, str, Path]]:
    """(id, dm_type, record file) for each patient entry of a cohort.json.

    Every entry needs a string ``id`` and a string ``file`` inside the cohort
    directory; an optional ``dm_type`` is one of `DM_TYPES` ("other" if absent).
    """
    doc = files.json(path)
    path = Path(path)
    patients = doc.get("patients", []) if isinstance(doc, dict) else None
    if not isinstance(patients, list):
        raise DataValidationError(f"{path}: 'patients' must be a list")
    root = path.parent.resolve()
    entries = []
    for k, pat in enumerate(patients):
        if not (isinstance(pat, dict) and isinstance(pat.get("id"), str)
                and isinstance(pat.get("file"), str) and pat.get("dm_type", "other") in DM_TYPES):
            raise DataValidationError(f"{path}: patients[{k}] needs a string 'id' and 'file'"
                                      f" and, if it has a 'dm_type', one of {DM_TYPES}")
        file = path.parent / pat["file"]
        if not file.resolve().is_relative_to(root):
            raise DataValidationError(
                f"{path}: patients[{k}] file {pat['file']!r} is outside {path.parent}")
        entries.append((pat["id"], pat.get("dm_type", "other"), file))
    return entries


def _load_cohort(files: _Files, path: Path, unit: str):
    """Parse a cohort directory (or a single CSV) into series."""
    if path.is_file():
        entries = [(path.stem, "other", path)]
    elif not path.is_dir():
        raise DataValidationError(f"no such file or directory: {path}")
    elif (path / "cohort.json").is_file():
        entries = _read_cohort_json(files, path / "cohort.json")
    else:
        entries = [(f.stem, "other", f) for f in sorted(path.glob("*.csv"))]
    if not entries:
        raise DataValidationError(f"no patient CSV files under {path}")
    return [parse_cgm_file(files.read(file), patient_id=pid, dm_type=dm_type, unit=unit)
            for pid, dm_type, file in entries]


def _cmd_features(args, files: _Files) -> int:
    cfg = PipelineConfig()
    instances = [inst for series in _load_cohort(files, Path(args.infile), args.unit)
                 for inst in build_instances(series, cfg)]
    out = Path(args.out)
    table = io.StringIO()
    write_feature_csv(instances, table)
    files.write(out, table.getvalue())
    files.manifest(out.with_suffix(".manifest.json"), "features", {"unit": args.unit}, [])
    hypo = sum(inst.label for inst in instances)
    print(f"instances={len(instances)} hypo={hypo} out={out}")
    return EXIT_OK


def _read_features(files: _Files, path: str):
    """The instances of a feature table, non-empty."""
    instances = read_feature_csv(files.read(path))
    if not instances:
        raise DataValidationError("feature table is empty")
    return instances


def _cmd_train(args, files: _Files) -> int:
    instances = _read_features(files, args.features)
    cfg = PipelineConfig()
    X, y = instances_to_arrays(instances)
    tree = grow_tree(X, y, cfg.costs, cfg.prune_depth)
    out = Path(args.out)
    files.write(out, _json_text(serialize_tree(tree)))
    files.manifest(out.with_suffix(".manifest.json"), "train",
                   {"costs": dataclasses.asdict(cfg.costs), "depth": cfg.prune_depth}, [])
    print(f"instances={len(instances)} depth={tree_depth(tree)} out={out}")
    return EXIT_OK


def _fmt(value) -> str:
    return "" if value is None else str(value)  # str of a float is its repr


def _fields(*row_types) -> dict:
    """Field name -> type of each field of the row dataclasses, in order."""
    return {name: kind for row_type in row_types
            for name, kind in typing.get_type_hints(row_type).items()}


# the summary.json row columns and their field types, in the order of the types that hold them
_PERFORMANCE_COLUMNS = ({k: t for k, t in _fields(RunEntry).items()
                         if k in ("allocation", "fold", "seed")}
                        | _fields(ConfusionMatrix, PerformanceVector))
_PER_PATIENT_COLUMNS = _fields(PatientRow)
_SEVERITY_COLUMNS = _fields(SeverityRow)
_MISSED_COLUMNS = tuple(c for c in _SEVERITY_COLUMNS if c not in ("lows", "severe_count"))

# what a summary.json cell must hold, by the type of its row field
_CELL_RULES = {
    int: (lambda v: type(v) is int, "an integer"),
    str: (lambda v: type(v) is str, "a string"),
    float | None: (lambda v: v is None or finite_number(v), "a finite number or null"),
    tuple[float, ...]: (lambda v: type(v) is list and all(map(finite_number, v)),
                        "a list of finite numbers"),
}


def _write_report_tables(files: _Files, out: Path, summary: dict) -> None:
    """The three CSV tables, derived from the summary document alone."""
    missed = [{**row, "lowest_bgs": ";".join(repr(float(v)) for v in row["lows"])}
              for row in summary["missed_events"]["rows"]]
    tables = {
        "performance.csv": (tuple(_PERFORMANCE_COLUMNS), summary["per_run"]),
        "per_patient.csv": (tuple(_PER_PATIENT_COLUMNS), summary["per_patient"]),
        "missed_events.csv": (_MISSED_COLUMNS + ("lowest_bgs", "severe_count"), missed),
    }
    for name, (columns, rows) in tables.items():
        files.write(out / name, csv_table(
            columns, ([_fmt(row[k]) for k in columns] for row in rows)))


def _read_summary(files: _Files, path: str, tables: dict) -> dict:
    """A summary.json document. A data error unless it is a JSON object in
    which each dotted key of `tables` names a list of objects that hold
    that key's columns, each cell fitting its column's `_CELL_RULES` type."""
    summary = files.json(path)
    for name, columns in tables.items():
        rows = summary
        for key in name.split("."):
            rows = rows.get(key) if isinstance(rows, dict) else None
        if not isinstance(rows, list):
            raise DataValidationError(f"summary has no {name} list")
        for k, row in enumerate(rows):
            for column, kind in columns.items():
                if not isinstance(row, dict) or column not in row:
                    raise DataValidationError(f"summary {name}[{k}] has no {column!r}")
                fits, what = _CELL_RULES[kind]
                if not fits(row[column]):
                    raise DataValidationError(f"summary {name}[{k}] {column!r} must be {what}")
    return summary


def _cmd_evaluate(args, files: _Files) -> int:
    instances = _read_features(files, args.features)
    try:
        cfg = dataclasses.replace(PipelineConfig(), folds=args.k, allocations=args.allocations)
    except ValueError as exc:
        raise UsageError(str(exc))

    dm_types = {} if args.cohort is None else {
        pid: dm_type for pid, dm_type, _ in _read_cohort_json(files, args.cohort)}

    report = cross_validate(instances, cfg, seed=args.seed)
    best = select_best_run(report)
    per_patient = evaluate_per_patient(best.tree, instances, dm_types)
    severity = missed_event_analysis(best.tree, instances)
    summary = summary_document(instances, cfg, args.seed, report, best, per_patient, severity)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files.write(out / "summary.json", _json_text(summary))
    _write_report_tables(files, out, summary)
    files.manifest(out / "manifest.json", "evaluate",
                   {"k": args.k, "allocations": args.allocations, "seed": args.seed},
                   summary["seeds"])
    agg = report.aggregate
    print(f"runs={len(report.runs)} accuracy={_fmt(agg['accuracy'])} "
          f"sensitivity={_fmt(agg['sensitivity'])} specificity={_fmt(agg['specificity'])}")
    return EXIT_OK


def _cmd_report(args, files: _Files) -> int:
    summary = _read_summary(files, args.summary, {
        "per_run": _PERFORMANCE_COLUMNS, "per_patient": _PER_PATIENT_COLUMNS,
        "missed_events.rows": _SEVERITY_COLUMNS})
    if not (type(seeds := summary.get("seeds")) is list and all(type(s) is int for s in seeds)):
        raise DataValidationError("summary 'seeds' must be a list of integers")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_report_tables(files, out, summary)
    print(f"tables={len(files.outputs)} out={out}")
    files.manifest(out / "manifest.json", "report", {}, seeds)
    return EXIT_OK


def _cmd_predict(args, files: _Files) -> int:
    tree = parse_tree(files.json(args.tree))
    print(predict(tree, args.xt, args.rate))
    return EXIT_OK


def _cmd_anova(args, files: _Files) -> int:
    rows = _read_summary(files, args.report, {"per_patient": {args.group_by: str}})["per_patient"]
    groups: dict[str, list[float]] = {}
    for k, row in enumerate(rows):
        value = row.get(args.metric)
        if value is None:
            continue
        if not (finite_number(value) and 0 <= value <= 1):  # a ratio; huge ones overflow
            raise DataValidationError(
                f"summary per_patient[{k}] {args.metric!r} must be a number in [0, 1] or null")
        groups.setdefault(row[args.group_by], []).append(float(value))
    if len(groups) < 2:
        raise DataValidationError(
            f"need at least two {args.group_by} groups with defined {args.metric}")
    f_stat, p_value = one_way_anova([groups[k] for k in sorted(groups)])
    print(f"F={f_stat} p={p_value}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypoalarm",
                     description="Daytime low-glucose alarm pipeline over CGM records.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic CGM cohort")
    p.add_argument("--config", help="SynthConfig JSON (defaults to the built-in cohort shape)")
    p.add_argument("--seed", type=int, help="overrides the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="validate a CGM CSV and print a summary")
    p.add_argument("--in", dest="infile", required=True, help="patient CSV file")
    p.add_argument("--unit", choices=("mmol", "mg"), default="mmol")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("features", help="extract decision instances to a CSV table")
    p.add_argument("--in", dest="infile", required=True,
                   help="cohort directory (or one patient CSV)")
    p.add_argument("--unit", choices=("mmol", "mg"), default="mmol")
    p.add_argument("--out", required=True, help="feature table CSV path")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train", help="fit a depth-limited cost-weighted tree")
    p.add_argument("--features", required=True, help="feature table CSV")
    p.add_argument("--out", required=True, help="tree JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="repeated k-fold cross-validation report")
    p.add_argument("--features", required=True, help="feature table CSV")
    p.add_argument("--k", type=int, default=PipelineConfig.folds, help="folds per allocation")
    p.add_argument("--allocations", type=int, default=PipelineConfig.allocations,
                   help="random allocations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cohort", help="cohort.json for patient dm_type metadata")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="regenerate CSV tables from a summary.json")
    p.add_argument("--summary", required=True, help="summary.json from evaluate")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("predict", help="classify one decision point")
    p.add_argument("--tree", required=True, help="tree JSON document")
    p.add_argument("--xt", type=float, required=True, help="current BG, mmol/L")
    p.add_argument("--rate", type=float, required=True,
                   help="rate of decrease from the peak, (mmol/L)/min")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("anova", help="one-way ANOVA of a per-patient metric")
    p.add_argument("--report", required=True, help="summary.json from evaluate")
    p.add_argument("--group-by", choices=("dm_type",), default="dm_type")
    p.add_argument("--metric", choices=("accuracy", "sensitivity", "specificity"),
                   default="sensitivity")
    p.set_defaults(func=_cmd_anova)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, _Files())
    except UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # incl. DataValidationError, TreeDocumentError
        print(f"error[data]: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # invariant violations and other surprises
        print(f"error[internal]: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
