"""Output bytes pinned across versions: seeds 7 to 16 of the default
33-patient cohort, the seeds of the determinism contract, and the
330-patient evaluation at seed 7.

The synth record files, the feature CSV, the trained tree.json,
summary.json and its three report tables must not change under a refactor. The seed-7 features and
summary digests equal the `cli33` reference digests of the benchmark
(benchmarks/reference.json); the 330-patient summary is checked against
that file's `cv330` digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hypoalarm import (
    SynthConfig,
    build_instances,
    cross_validate,
    generate_cohort,
    parse_cgm_file,
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
    9: ("819904936726ef7c507eca5c36844b44d4ad37072910907923ee2b7c850919eb",
        "278c6c02eab488060c6ee6b74a15707e09d64160b99bb75655ce1ffc1ab0a69d",
        "5511c749182c8cee0c0e8a75476ca4a969518248d5d995fe0afee33b06e3f4c4",
        "907d043f4b20546f43016edec0dffd2af32a1af429d3541aad784ee9aac588b1"),
    10: ("9e48d8031a15bf0e32926aecb4e539fdd72c4ee0207bf451f146a87e5c97f009",
        "8782396b8ba4d707e6ca6e5b3f14abc0f1bac62a6092ec918ecf21e76f542590",
        "a3543ecccf469ab6ad84bec4336939639c61099e16cd84816aaf083279b8870d",
        "f78ef8d90d725ef19f10eb5e9707e0bf24ba3a240f7ac638caf6e46638eed193"),
    11: ("9806c1ba3cb542cec3e3b0efcc7c9dde8135fd551150d9b4655cf30dc987c66b",
        "2a7f2bd1277a2d75fac6cd8d12889e33bad2318891b2c7fbef6394760c0460fe",
        "15ef8e70dee0287119d4e4f2a1577d7bcd0dee366d38c4bfd187eb07596c75d8",
        "7c8e85a1a58382ff058a814464800f7d2cf08f730081297f567fc3c1b1d95916"),
    12: ("799cb83b3d4c041f5497cf1a2d686a2da5f74c8eb6cdfdd15f4bcb8d09d2f0a3",
        "7dc3478ac0b40ad41ba0ba0e9dc5dd18b81983c865c1bba76e5801e03d01636a",
        "2de5620c2a3ec0fb2bca887425dbe554bf529da4057be140db03635a67473006",
        "0f568d2df2bf0b8dcdab49ca7330a3dd35ace6c451993a61e360eaaf36e22dcc"),
    13: ("875a45196b78111467eb1baa542b0f52749996079c30c3f0f932f956c1ed1d0c",
        "a9b7cd4de193ca13f877746e1ded841e7c80626c9b90870eb5119f92411de41b",
        "3ddcf3d819d5a46e2ad54e9bd2fbeb5c6028660087d2c4d22f51d93a2554c18b",
        "bb5c8613a4f8c641887f9dd5521033c890b90aad2913e89e49c0d53f4460a268"),
    14: ("24b83693c7b03ccc6d94bcb3039c528665a64e0dd7f58a9dbc2d4398db37b6c3",
        "74b1783fc508c3dbe4e796b16885abd0fb4aeacb969f6dcc404999b30fb556d0",
        "7bc569af804998f8bcc46304d10f823a33f9dc7694a6b4a15b108e850e4b8942",
        "27a94d3093308d3138357b1dbacf768bf19d3d075f8ba908fb622eba5229a445"),
    15: ("34952dced1c2dbf14c512f68017451d971373079c3ae98c5801a042b013abc03",
        "1745027b052290a0ac50fc4e3475178b60fc81bd1181d5f9d31dc35323ae847a",
        "b942ac8c1a8e5f03cd43dfb734be41106a5de9bad43d58bd4f749e4065d13b63",
        "f97c265167d4721e94e777b6df1bc3c4db67e3adb4c4f7cbcdd65fdcab343e2a"),
    16: ("d99a963c7c36d66eee4c5cc16737b95e479b65d379ced1fa0d618bd7a1635928",
        "11b33f542ef2be9c7c6353ace3a1d9117aa55ede7c225e8a52a0393c77b695ee",
        "a640f2700bd87e84ac8aae153c1b3bd4e4ddc6081c95030360fc5144c8b81f84",
        "468d2954e3059a3fbd978e7f246c2e217fdf7da92cdeaf15dece895c8dc6ed0b"),
}


# the SHA-256 of missed_events.csv at every seed above: each best tree misses
# no event, so the table is its header line alone
MISSED_EVENTS_HEADER_ONLY = "10f9a29f4eb6cd46ff1dbdd6df3477ec61e28558cecfdbb48250286288eaebbc"
# seed: the SHA-256 of the performance.csv and per_patient.csv that evaluate writes
REPORT_DIGESTS = {
    7: ("9cdc7d875c8174b8ec05a12aec607be469bd8945493ef69c1e2a7418127796e0",
        "5c3bb8595f7a66303938e245af69901f70a2d94a31b943ce649773508a7d3d77"),
    8: ("4e15fd2cb03fab674b541d95d553dd805e0f6b50f406b34fdc3089aba73abf2c",
        "e3342d65cc3d259170e5b336c6cb5ddfb615d64a51a37f59a254c8626c15eba1"),
    9: ("82e3991e1138e84cb2eecbf67203aa595cb17ea7f3353279fd0b13fbadd8c3bc",
        "4dac1538da06415f22917de1f127be6ebe17d574fb3f0379d2f0f13cccfeef0a"),
    10: ("c59cd5fc3b5ea878a165124ef4ee43e9e3bc7dd6a876f8360890bd3d8aefef6e",
        "3c81011b2b41fd75d3b262e1ba8f40eb1218d051f420e4bcee41882dd5aa2770"),
    11: ("b606c0f84a653f52afa9a9ecc2e90d29663050890e1a39e38844a43568bdb13d",
        "15338ce333f98683342dd7a4f5fa340aeefb0cf0d0d0a23f759f623b1778fab4"),
    12: ("6966287d208674506994404475e9996b883be36609a0b30025591f50362b7468",
        "1e7d6351a56c54118d06258717a97a943db7a7f88a87b42debc03b39b8f6a8b6"),
    13: ("a7010e093959ddf2b00dbfc8258f61ba65fbb89c4b4b6c72adb024bf753c7c43",
        "08fdc8bfa3d4fda129f1d46283337661a5861a28128d84ef6076fe5f52ca34dd"),
    14: ("4fcf7fbf9b013013ed19248c44dcc632a00a884d7f8576027812bcff5f939412",
        "ee90cc49f2d31b0ff605a8fdcbf645dd983e5dfc8fbe1e82c1e82f1aae474660"),
    15: ("4ec15177f6ae72d7295514b93d8d92827a4dadb34fe6bf36ccf451fdf4f9426b",
        "ac28d530c2494711bd8da997defeb29d3a157582431d3062a03d9b72ef0c7b09"),
    16: ("562e7158026cd29b7c08f6ea3fc55ae633d5d8a4eb533c812d29c4aa8138be72",
        "7d26a38505e8ec68b0f78c17f40ff7c9a15b34f0079e17ea182a6f71376d9081"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_chain_bytes(tmp_path, seed: int) -> None:
    """synth, features, train and evaluate at `seed` reproduce its digests,
    summary.json's and its three report tables'."""
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
    assert tuple(sha256((report / name).read_bytes()) for name in (
        "performance.csv", "per_patient.csv", "missed_events.csv")) == (
        *REPORT_DIGESTS[seed], MISSED_EVENTS_HEADER_ONLY)


def test_seed_7_chain_bytes(tmp_path):
    check_chain_bytes(tmp_path, 7)


def test_seed_8_chain_bytes(tmp_path):
    check_chain_bytes(tmp_path, 8)


@pytest.mark.parametrize("seed", range(9, 17))
def test_contract_seed_chain_bytes(tmp_path, seed):
    check_chain_bytes(tmp_path, seed)


def test_seed_7_330_patient_summary_bytes():
    """The summary.json that `evaluate` writes for the 330-patient cohort
    of `synth --seed 7`, built in memory from each patient's record text."""
    cv330 = json.loads(REFERENCE.read_text())["workloads"]["cv330"]
    instances, dm_types = [], {}
    for synthetic in generate_cohort(SynthConfig(seed=7, n_patients=cv330["patients"])):
        series = parse_cgm_file(series_to_csv(synthetic), patient_id=synthetic.patient_id,
                                dm_type=synthetic.dm_type)
        instances += build_instances(series)
        dm_types[series.patient_id] = series.dm_type
    summary = summary_document(instances, cross_validate(instances, seed=7), dm_types)
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert sha256(text.encode()) == cv330["digests"]["summary.json"]
