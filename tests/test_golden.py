"""Output bytes pinned across versions: seeds 7 and 8, the default
33-patient cohort.

The synth record files, the feature CSV, the trained tree.json and
summary.json must not change under a refactor. The seed-7 features and
summary digests equal the `cli33` reference digests of the benchmark
(benchmarks/reference.json).
"""

import hashlib
import json

from hypoalarm.cli import main

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
