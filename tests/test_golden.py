"""Output bytes pinned across versions: seed 7, the default 33-patient cohort.

The synth record files, the feature CSV, the trained tree.json and
summary.json must not change under a refactor. The features and summary
digests equal the `cli33` reference digests of the benchmark
(benchmarks/reference.json).
"""

import hashlib
import json

from hypoalarm.cli import main

SYNTH_OUTPUTS_SHA256 = "09ae57303c219f8d3c259d8dfa06c557ff174c5be421776acdaa0ce0922002ff"
FEATURES_SHA256 = "b07bf65ed194118c2bfdef2bf14daf8ee35c0196960f8987552f0c14ab85cbfc"
SUMMARY_SHA256 = "18ae847eee5e54d67481f39ed0af6f3c83c8c03e85e2984e4cd5ab91cf488cf8"
TREE_SHA256 = "3fe399c5568062eaff3d0ad30dbff64071d1e9829d5aa39a95d284cf55349758"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_seed_7_chain_bytes(tmp_path):
    cohort, table, report = tmp_path / "cohort", tmp_path / "features.csv", tmp_path / "report"
    assert main(["synth", "--seed", "7", "--out", str(cohort)]) == 0
    assert main(["features", "--in", str(cohort), "--out", str(table)]) == 0
    assert main(["train", "--features", str(table), "--out", str(tmp_path / "tree.json")]) == 0
    assert main(["evaluate", "--features", str(table), "--seed", "7",
                 "--cohort", str(cohort / "cohort.json"), "--out", str(report)]) == 0

    outputs = json.loads((cohort / "manifest.json").read_text())["outputs"]
    assert len(outputs) == 34  # 33 record files plus cohort.json
    assert sha256(json.dumps(outputs, sort_keys=True).encode()) == SYNTH_OUTPUTS_SHA256
    assert sha256(table.read_bytes()) == FEATURES_SHA256
    assert sha256((tmp_path / "tree.json").read_bytes()) == TREE_SHA256
    assert sha256((report / "summary.json").read_bytes()) == SUMMARY_SHA256
