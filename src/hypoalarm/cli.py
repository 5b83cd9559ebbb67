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
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .cart import (
    TreeDocumentError,
    grow_tree,
    parse_tree,
    predict,
    serialize_tree,
    tree_depth,
)
from .cgm_data import DM_TYPES, DataValidationError, PipelineConfig, parse_cgm_file, series_to_csv
from .evaluation import (
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


def _read_input(path: Path) -> tuple[io.TextIOWrapper, str]:
    """A UTF-8 text stream over a file's bytes, newlines untranslated, and
    their SHA-256: one read, and the parser sees the bytes that are hashed."""
    data = path.read_bytes()
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    return stream, hashlib.sha256(data).hexdigest()


def _write_output(path: Path, text: str) -> str:
    """Write `text` as UTF-8; returns the SHA-256 of the bytes written."""
    data = text.encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _write_json(path: Path, obj) -> str:
    return _write_output(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(path: Path, command: str, config, inputs: dict,
                    seeds: list, outputs: dict) -> None:
    _write_json(path, {
        "command": command,
        "config": config,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "inputs": inputs,
        "outputs": outputs,
        "seeds": seeds,
        "version": __version__,
    })


def _load_synth_config(args) -> SynthConfig:
    fields = {}
    if args.config is not None:
        try:
            fields = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"bad synth config JSON: {exc}")
        if not isinstance(fields, dict):
            raise DataValidationError("synth config must be a JSON object")
    if args.seed is not None:
        fields["seed"] = args.seed
    try:
        return SynthConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"bad synth config: {exc}")


def _cmd_synth(args) -> int:
    cfg = _load_synth_config(args)
    cohort = generate_cohort(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {}
    patients = []
    for series in cohort:
        name = f"{series.patient_id}.csv"
        outputs[name] = _write_output(out / name, series_to_csv(series))
        patients.append({"id": series.patient_id, "dm_type": series.dm_type, "file": name})
    cohort_doc = {"config": dataclasses.asdict(cfg), "patients": patients, "seed": cfg.seed}
    outputs["cohort.json"] = _write_json(out / "cohort.json", cohort_doc)
    _write_manifest(out / "manifest.json", "synth", dataclasses.asdict(cfg),
                    inputs={}, seeds=[cfg.seed], outputs=outputs)
    print(f"patients={len(cohort)} out={out}")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    path = Path(args.infile)
    series = parse_cgm_file(path.read_text(), patient_id=path.stem, unit=args.unit)
    print(f"patient={series.patient_id} samples={len(series.samples)} "
          f"meals={len(series.meal_times)} missing={series.missing_count}")
    return EXIT_OK


def _read_cohort_json(path: Path) -> tuple[list[tuple[str, str, Path]], str]:
    """(id, dm_type, record file) for each patient entry of a cohort.json,
    and the file's SHA-256.

    Every entry needs a string ``id`` and a string ``file`` inside the cohort
    directory; an optional ``dm_type`` is one of `DM_TYPES` ("other" if absent).
    """
    stream, digest = _read_input(path)
    doc = json.load(stream)
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
    return entries, digest


def _load_cohort(path: Path, unit: str):
    """Parse a cohort directory (or a single CSV) into series plus input digests."""
    if path.is_file():
        entries = [(path.stem, "other", path)]
    elif not path.is_dir():
        raise DataValidationError(f"no such file or directory: {path}")
    elif (path / "cohort.json").is_file():
        entries, _ = _read_cohort_json(path / "cohort.json")
    else:
        entries = [(f.stem, "other", f) for f in sorted(path.glob("*.csv"))]
    if not entries:
        raise DataValidationError(f"no patient CSV files under {path}")
    series_list = []
    inputs = {}
    for pid, dm_type, file in entries:
        stream, inputs[str(file)] = _read_input(file)
        series_list.append(parse_cgm_file(stream, patient_id=pid, dm_type=dm_type, unit=unit))
    return series_list, inputs


def _cmd_features(args) -> int:
    series_list, inputs = _load_cohort(Path(args.infile), args.unit)
    cfg = PipelineConfig()
    instances = []
    for series in series_list:
        instances.extend(build_instances(series, cfg))
    out = Path(args.out)
    table = io.StringIO()
    write_feature_csv(instances, table)
    _write_manifest(out.with_suffix(".manifest.json"), "features",
                    {"unit": args.unit}, inputs=inputs, seeds=[],
                    outputs={out.name: _write_output(out, table.getvalue())})
    hypo = sum(inst.label for inst in instances)
    print(f"instances={len(instances)} hypo={hypo} out={out}")
    return EXIT_OK


def _read_features(path: str):
    """The instances of a feature table, non-empty, and its SHA-256."""
    stream, digest = _read_input(Path(path))
    instances = read_feature_csv(stream)
    if not instances:
        raise DataValidationError("feature table is empty")
    return instances, digest


def _cmd_train(args) -> int:
    instances, digest = _read_features(args.features)
    cfg = PipelineConfig()
    X, y = instances_to_arrays(instances)
    tree = grow_tree(X, y, cfg.costs, cfg.prune_depth)
    out = Path(args.out)
    outputs = {out.name: _write_json(out, serialize_tree(tree))}
    _write_manifest(out.with_suffix(".manifest.json"), "train",
                    {"costs": dataclasses.asdict(cfg.costs), "depth": cfg.prune_depth},
                    inputs={args.features: digest}, seeds=[], outputs=outputs)
    print(f"instances={len(instances)} depth={tree_depth(tree)} out={out}")
    return EXIT_OK


def _fmt(value) -> str:
    return "" if value is None else str(value)  # str of a float is its repr


_PERFORMANCE_COLUMNS = ("allocation", "fold", "seed", "tp", "fn", "fp", "tn",
                        "accuracy", "sensitivity", "specificity")
_PER_PATIENT_COLUMNS = ("patient_id", "dm_type", "n_points", "n_hypo",
                        "accuracy", "sensitivity", "specificity")
_MISSED_COLUMNS = ("patient_id", "sensitivity", "predicted_events", "missed_events")


def _write_report_tables(out: Path, summary: dict) -> dict:
    """The three CSV tables, derived from the summary document alone."""
    missed = [{**row, "lowest_bgs": ";".join(repr(float(v)) for v in row["lows"])}
              for row in summary["missed_events"]["rows"]]
    tables = {
        "performance.csv": (_PERFORMANCE_COLUMNS, summary["per_run"]),
        "per_patient.csv": (_PER_PATIENT_COLUMNS, summary["per_patient"]),
        "missed_events.csv": (_MISSED_COLUMNS + ("lowest_bgs", "severe_count"), missed),
    }
    return {name: _write_output(out / name, csv_table(
                columns, ([_fmt(row[k]) for k in columns] for row in rows)))
            for name, (columns, rows) in tables.items()}


def _read_summary(path: Path, tables: dict) -> tuple[dict, str]:
    """A summary.json document and the file's SHA-256. A data error unless
    the document is a JSON object in which each dotted key of `tables`
    names a list of objects that hold that key's columns."""
    stream, digest = _read_input(path)
    summary = json.load(stream)
    for name, columns in tables.items():
        rows = summary
        for key in name.split("."):
            rows = rows.get(key) if isinstance(rows, dict) else None
        if not isinstance(rows, list):
            raise DataValidationError(f"summary has no {name} list")
        for k, row in enumerate(rows):
            absent = [c for c in columns if not isinstance(row, dict) or c not in row]
            if absent:
                raise DataValidationError(f"summary {name}[{k}] has no {absent[0]!r}")
    return summary, digest


def _cmd_evaluate(args) -> int:
    instances, digest = _read_features(args.features)
    try:
        cfg = dataclasses.replace(PipelineConfig(), folds=args.k, allocations=args.allocations)
    except ValueError as exc:
        raise UsageError(str(exc))

    dm_types = {}
    inputs = {args.features: digest}
    if args.cohort is not None:
        entries, inputs[args.cohort] = _read_cohort_json(Path(args.cohort))
        dm_types = {pid: dm_type for pid, dm_type, _ in entries}

    report = cross_validate(instances, cfg, seed=args.seed)
    best = select_best_run(report)
    per_patient = evaluate_per_patient(best.tree, instances, dm_types)
    severity = missed_event_analysis(best.tree, instances)
    summary = summary_document(instances, cfg, args.seed, report, best, per_patient, severity)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {"summary.json": _write_json(out / "summary.json", summary)}
    outputs.update(_write_report_tables(out, summary))
    _write_manifest(out / "manifest.json", "evaluate",
                    {"k": args.k, "allocations": args.allocations, "seed": args.seed},
                    inputs=inputs, seeds=summary["seeds"], outputs=outputs)
    agg = report.aggregate
    print(f"runs={len(report.runs)} accuracy={_fmt(agg['accuracy'])} "
          f"sensitivity={_fmt(agg['sensitivity'])} specificity={_fmt(agg['specificity'])}")
    return EXIT_OK


def _cmd_report(args) -> int:
    summary, digest = _read_summary(Path(args.summary), {
        "per_run": _PERFORMANCE_COLUMNS, "per_patient": _PER_PATIENT_COLUMNS,
        "missed_events.rows": _MISSED_COLUMNS + ("lows", "severe_count")})
    if not all(isinstance(row["lows"], list) for row in summary["missed_events"]["rows"]):
        raise DataValidationError("summary missed_events.rows 'lows' must be lists")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = _write_report_tables(out, summary)
    _write_manifest(out / "manifest.json", "report", {},
                    inputs={args.summary: digest},
                    seeds=summary.get("seeds", []), outputs=outputs)
    print(f"tables={len(outputs)} out={out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    try:
        doc = json.loads(Path(args.tree).read_text())
    except json.JSONDecodeError as exc:
        raise TreeDocumentError(f"$: not valid JSON ({exc})")
    tree = parse_tree(doc)
    print(predict(tree, args.xt, args.rate))
    return EXIT_OK


def _cmd_anova(args) -> int:
    rows = _read_summary(Path(args.report), {"per_patient": (args.group_by,)})[0]["per_patient"]
    groups: dict[str, list[float]] = {}
    for k, row in enumerate(rows):
        if not isinstance(row[args.group_by], str):
            raise DataValidationError(
                f"summary per_patient[{k}] {args.group_by!r} must be a string")
        value = row.get(args.metric)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not abs(value) <= sys.float_info.max:  # NaN, ±inf and huge ints fail
            raise DataValidationError(
                f"summary per_patient[{k}] {args.metric!r} must be a finite number or null")
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
    p.add_argument("--k", type=int, default=5, help="folds per allocation")
    p.add_argument("--allocations", type=int, default=4, help="random allocations")
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
        return args.func(args)
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
