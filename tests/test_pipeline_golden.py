"""Golden output bytes: the sha256 of what `pipeline` and the stepwise `rank`, `classify` and
`evaluate` write, on two small seeded corpora.

The other pipeline and CLI tests check behaviour within one version of the
code. These pin the reports, the ranking file and the prediction files across
versions, so a change to the task heads, the metrics or the output writers
that claims the same output must keep every hash below. The models are
small (5 rounds, depth 3), so many expected gains tie and ties break by
product id; the second corpus is noisy (noise 1) and reuses products across
queries, so its lists are imperfect.
"""

import contextlib
import hashlib
import io

import pytest

from shoprank.cli import main

CORPORA = {
    "seed7-q60": ["--seed", "7", "--queries", "60"],
    "reuse-seed11-q80-m3-noise1": ["--seed", "11", "--queries", "80", "--models", "3", "--noise", "1",
                                   "--product-reuse-rate", "0.5"],
}
PIPELINE = ["--seed", "3", "--rounds", "5", "--depth", "3", "--sweep-t3-threshold"]
PIPELINE_FILES = ("report_T1.txt", "report_T1.kv", "report_T2.txt", "report_T2.kv", "report_T3.txt",
                  "report_T3.kv", "ranking_T1.tsv", "predictions_T2.csv", "predictions_T3.csv")
STEPWISE_FILES = ("report_T1.txt", "report_T1.txt.kv", "report_T2.txt", "report_T2.txt.kv", "report_T3.txt",
                  "report_T3.txt.kv", "ranking_T1.tsv", "predictions_T2.csv", "predictions_T3.csv")

GOLDEN = {
    "reuse-seed11-q80-m3-noise1": {
        "pipeline": {
            "predictions_T2.csv": "0ae5411a95f45fd8ce94e916029d06a0fa503e8d8a329b39fa11675e38d1cb81",
            "predictions_T3.csv": "74f8a9c10691c609bb435774586fbf8df52e54b4754a14df630af2033f485ed4",
            "ranking_T1.tsv": "c67834dfccfa88a70c50c2617c03d1daca6965674f36a569b83441011fb80e38",
            "report_T1.kv": "fff8eec64e1892d14d51b98150ea2ff76fe2a0455591584b1b49bac3a9dcae11",
            "report_T1.txt": "7532628c57898c787cf53762868ac2188109f7514079b15f74a566944d8e8387",
            "report_T2.kv": "3db1d3ffad001d52607e111ca45f48af61391e8c7954c907e842d72436739d73",
            "report_T2.txt": "40ad15b8e42ea1c602a20a296e222ea441bb4f7b382941b47f2b952c8f62fc3b",
            "report_T3.kv": "3776da9dc398685d63a235abe5d9402e21e54042b040006fb75104d25de3bfa6",
            "report_T3.txt": "e81ebd776630663d33b9caaa8a3c77c80857ec126cad9e47aef39eced78658c5",
            "stdout": "0dc1cb9f7e92aae5722f57f6171263358cc84deed6ad29f3a991bfd73aa3852e",
        },
        "stepwise": {
            "classify predictions_T2.csv stdout": "5d8a043ca88318553079eeb20c290cfbe8e283a27b87cfa7608b5c435e7e224d",
            "classify predictions_T3.csv stdout": "b696b5b63c786e456153976e70d446d18e873c58b7331c2ba8d5cbca2a7a8ba3",
            "predictions_T2.csv": "f832617b9ae408ff236b498377eea60233635be9b7053b6219900bfcfd5754a5",
            "predictions_T3.csv": "02e549856ba270255c8c738febadb0b714f59d95a9339269722521da54ee9cd0",
            "rank ranking_T1.tsv stdout": "d6b1fe6bcc617618ade47819788528148d7a555a05bec73441840b52669fc150",
            "ranking_T1.tsv": "3cc10825a2da57a46c25ac29fbe4e6f4c635848a6e536e94597bb4e3f64d26dd",
            "report_T1.txt": "af4e233254783b7fbc7d61f9c94c7643acfa613e5dc83d5587cba2862a277340",
            "report_T1.txt.kv": "38eb7c2b1908e35db58f920d6fd60c2f64dc9b10811c69f18b2b39b97d33925c",
            "report_T2.txt": "6786dd64bcf933059844b9f6615f3e657ffb483ea83acfcbacd7ee580ba279d0",
            "report_T2.txt.kv": "ede6099b5d449b44a877ddbf807996df55840974f59aede9a1796c2e8af4031e",
            "report_T3.txt": "c9581ec417ab7a4062513577d5041aa2a7229bb8f0b0198348ea75522633849e",
            "report_T3.txt.kv": "911e2f8353f2a0eb84dc49711dd93deebda9e4c69d330b97fe2b634f88f59100",
        },
    },
    "seed7-q60": {
        "pipeline": {
            "predictions_T2.csv": "59acfc5d54ef4bfa2e3204beb0afcae89ad736ad296c1e810d0784ad3cc4c2e7",
            "predictions_T3.csv": "1b7d8f5f40975119e15a79dd54e82b78458f90acb831b23b243ac2c6d65bc11f",
            "ranking_T1.tsv": "165a1e6796bcca55fd036fd0d5634148df852abf75761df197e566a8203b80b4",
            "report_T1.kv": "869f09cebacc0d7b55a3f8f2fe73ba711508fcdc234547c1210672bfdcee9d2a",
            "report_T1.txt": "a43711e416f6cc3a5504b2e0d39a1ce095688efd100e03908bb40fa87ef9a095",
            "report_T2.kv": "291936fa759c69df128351f87aac0b05e6f9072d3346ad9dd3926a19c5b383f8",
            "report_T2.txt": "6fc2e0ccf1de3d472dd016a88db15421feb1b40f3dc0cc5177090b9ba5ee4698",
            "report_T3.kv": "23aa5178798f8661d179367d7d011b2176b1404e01ebcf385a8949124744b1a2",
            "report_T3.txt": "3f5da782fa04e51d6476d528b5a3f367174c498f52660f96fef9baf981f9f5e6",
            "stdout": "f264cdbfe450ebcb92f55b04e932ca599aba318705a41db02c202b972bc58052",
        },
        "stepwise": {
            "classify predictions_T2.csv stdout": "05c18fe493ddd573ef7b81cf735f34b9182686cdbe2c5d68ab5a72ba9550ad51",
            "classify predictions_T3.csv stdout": "abc06eb113f5641468298836e3d78ebbec0a0f6be1e24ada5b3b8fcf8b256431",
            "predictions_T2.csv": "d99ed6d4526ab8a09a88a3722cb0b9a4aa9b0e6b476cd69ae55d89d6c6f741a5",
            "predictions_T3.csv": "dad755433108480d379404b8a260d26389b1d3f12b16cd4eba5f2abb4ede8e85",
            "rank ranking_T1.tsv stdout": "d5d81d2d90f532a7a8e8bae76d7a3a9dcfb0e662e5d3fda219196acf81597571",
            "ranking_T1.tsv": "5de1f7bca8bb02e164075c5615ed0d3cc5e481ed7d335acb1dc2d5f4b035e0ec",
            "report_T1.txt": "0bb95f7e0126049f2727c28c4e561a9ecae9fca8ff3969b7cb58b2c75b97adf9",
            "report_T1.txt.kv": "57bf28a7e593402cbbfeaca49e881b8c0722164565987823ef6a2366bbe5848b",
            "report_T2.txt": "5c52c3e80f378e8f1f62b43c9a8a0321810dea68fa40da60af8b32b0c9c1d493",
            "report_T2.txt.kv": "5377b254d230798c5bea191321104571d7c069bd6bff661e4260859dde3390d5",
            "report_T3.txt": "446e757adfd2d4146c522090e2133b78e4644334659dd6aa15356d68450e3b13",
            "report_T3.txt.kv": "3bf3726fb3a55d9d3f8e1d33011e934ff866175e1971186919d0c3aefcdd9ba8",
        },
    },
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(argv):
    """main(argv) with stdout captured: its exit code and output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue()


@pytest.fixture(scope="module", params=sorted(CORPORA))
def outputs(request, tmp_path_factory):
    """Digests of the pipeline's and of the stepwise commands' outputs on one corpus."""
    root = tmp_path_factory.mktemp(request.param)
    c, pipe = root / "corpus", root / "pipeline"
    assert run(["synth", *CORPORA[request.param], "--out", c])[0] == 0
    corpus = [arg for name in ("catalog", "t1", "t2t3", "probs", "splits") for arg in (f"--{name}", c / f"{name}.csv")]
    code, stdout = run(["pipeline", *corpus, *PIPELINE, "--out", pipe])
    assert code == 0
    pipeline = {name: sha256(pipe / name) for name in PIPELINE_FILES}
    pipeline["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()

    step = root / "stepwise"
    step.mkdir()
    assert run(["features", "--catalog", c / "catalog.csv", "--examples", c / "t2t3.csv", "--probs",
                c / "probs.csv", "--t1", c / "t1.csv", "--out", step / "features.csv"])[0] == 0
    features = ["--features", step / "features.csv"]
    commands = [
        ["rank", "--model", pipe / "model_T1_fold0.json", *features, "--examples", c / "t1.csv",
         "--out", step / "ranking_T1.tsv"],
        ["classify", "--model", pipe / "model_T2_fold0.json", *features, "--task", "T2",
         "--out", step / "predictions_T2.csv"],
        ["classify", "--model", pipe / "model_T3_fold0.json", *features, "--task", "T3", "--threshold", "0.3",
         "--out", step / "predictions_T3.csv"],
    ]
    for task, truth, predictions in (("T1", "t1.csv", "ranking_T1.tsv"), ("T2", "t2t3.csv", "predictions_T2.csv"),
                                     ("T3", "t2t3.csv", "predictions_T3.csv")):
        commands.append(["evaluate", "--task", task, "--truth", c / truth, "--predictions", step / predictions,
                         "--out", step / f"report_{task}.txt"])
    stepwise = {}
    for argv in commands:
        code, stdout = run(argv)
        assert code == 0
        if argv[0] == "evaluate":  # its stdout is the report it writes
            assert stdout == argv[-1].read_text(encoding="utf-8")
        else:
            stepwise[f"{argv[0]} {argv[-1].name} stdout"] = hashlib.sha256(
                stdout.replace(str(step), "<out>").encode()
            ).hexdigest()
    for name in STEPWISE_FILES:
        stepwise[name] = sha256(step / name)
    return request.param, {"pipeline": pipeline, "stepwise": stepwise}


def test_pipeline_bytes_match_golden_hashes(outputs):
    name, digests = outputs
    assert digests["pipeline"] == GOLDEN[name]["pipeline"]


def test_stepwise_bytes_match_golden_hashes(outputs):
    name, digests = outputs
    assert digests["stepwise"] == GOLDEN[name]["stepwise"]
