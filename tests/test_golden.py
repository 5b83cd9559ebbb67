"""Output bytes pinned across versions: seeds 7 and 8, the default
33-patient cohort, and the 330-patient evaluation at seed 7.

The synth record files, the feature CSV, the trained tree.json and
summary.json must not change under a refactor. The seed-7 features and
summary digests equal the `cli33` reference digests of the benchmark
(benchmarks/reference.json); the 330-patient summary is checked against
that file's `cv330` digest.
"""

import hashlib
import json
from pathlib import Path

from hypoalarm import (
    PipelineConfig,
    SynthConfig,
    build_instances,
    cross_validate,
    evaluate_per_patient,
    generate_cohort,
    missed_event_analysis,
    parse_cgm_file,
    select_best_run,
    series_to_csv,
    summary_document,
)
from hypoalarm.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"

# seed: the SHA-256 of the synth manifest's outputs, features.csv, tree.json, summary.json
DIGESTS = {
    7: ("09ae57303c219f8d3c259d8dfa06c557ff174c5be421776acdaa0ce0922002ff",
        "b07bf65ed194118c2bfdef2bf14daf8ee35c0196960f8987552f0c14ab85cbfc",
        "3fe399c5568062eaff3d0ad30dbff64071d1e9829d5aa39a95d284cf55349758",
        "18ae847eee5e54d67481f39ed0af6f3c83c8c03e85e2984e4cd5ab91cf488cf8"),
    8: ("5f0fbf5790057baa38dcecf839c0324d34a83ad245af29fbde93d655729e74c4",
        "8939347e2867ae0bd61025cc9fe9dcde47c06e233c5b77081ce5217635e4496a",
        "2a459df45d0b196a646d1f1817de1d53988467e90cb0ef5fbffe1c2d56077dce",
        "e391c997b0858724bc0d5bc5089aad5722167b46cd4742178da6d0aa9ef09939"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_chain_bytes(tmp_path, seed: int) -> None:
    """synth, features, train and evaluate at `seed` reproduce its digests."""
    cohort, table, report = tmp_path / "cohort", tmp_path / "features.csv", tmp_path / "report"
    assert main(["synth", "--seed", str(seed), "--out", str(cohort)]) == 0
    assert main(["features", "--in", str(cohort), "--out", str(table)]) == 0
    assert main(["train", "--features", str(table), "--out", str(tmp_path / "tree.json")]) == 0
    assert main(["evaluate", "--features", str(table), "--seed", str(seed),
                 "--cohort", str(cohort / "cohort.json"), "--out", str(report)]) == 0

    outputs = json.loads((cohort / "manifest.json").read_text())["outputs"]
    assert len(outputs) == 34  # 33 record files plus cohort.json
    assert (sha256(json.dumps(outputs, sort_keys=True).encode()), sha256(table.read_bytes()),
            sha256((tmp_path / "tree.json").read_bytes()),
            sha256((report / "summary.json").read_bytes())) == DIGESTS[seed]


def test_seed_7_chain_bytes(tmp_path):
    check_chain_bytes(tmp_path, 7)


def test_seed_8_chain_bytes(tmp_path):
    check_chain_bytes(tmp_path, 8)


def test_seed_7_330_patient_summary_bytes():
    """The summary.json that `evaluate` writes for the 330-patient cohort
    of `synth --seed 7`, built in memory from each patient's record text."""
    cv330 = json.loads(REFERENCE.read_text())["workloads"]["cv330"]
    cfg = PipelineConfig()
    instances, dm_types = [], {}
    for synthetic in generate_cohort(SynthConfig(seed=7, n_patients=cv330["patients"])):
        series = parse_cgm_file(series_to_csv(synthetic), patient_id=synthetic.patient_id,
                                dm_type=synthetic.dm_type)
        instances += build_instances(series, cfg)
        dm_types[series.patient_id] = series.dm_type
    report = cross_validate(instances, cfg, seed=7)
    best = select_best_run(report)
    summary = summary_document(instances, cfg, 7, report, best,
                               evaluate_per_patient(best.tree, instances, dm_types),
                               missed_event_analysis(best.tree, instances))
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert sha256(text.encode()) == cv330["digests"]["summary.json"]
