"""Golden corpus bytes: the sha256 of every file `synth` writes, and its stdout, for three configs.

The other synth tests check determinism within one version of the code. These
pin the bytes across versions, so a change to the generator or the corpus
writers that claims the same output must keep every hash below. The third
config forces the ISBN, forced-Exact and one-member-group branches.
"""

import contextlib
import hashlib
import io

import pytest

from shoprank.cli import main

GOLDEN = {
    "default-seed7-q60": (
        ["--seed", "7", "--queries", "60"],
        "wrote 1558 products, 1584 pairs (792 in T1) to <out>\n",
        {
            "catalog.csv": "83bb8ab99252575c6580dc7c0785bd27db5b4088391d65094c5c58dbbb0375f9",
            "probs.csv": "459499b63722d7770849a5cf47659d675578ba47d1f102e4e91d8a0a6bd6ebd1",
            "splits.csv": "6b539fe703935e71c27229bf6b4884e6842c96cbec352cd398c1d54f173b7a2a",
            "synth_config.txt": "7d0ca838e1adb691de75c70040c33aa22edf14525ca8972490724d953f7e6582",
            "t1.csv": "37b23ca6fd86ea4f2c7e2b750dc1191e44c390d4458d65cd62057800371e4e8d",
            "t2t3.csv": "8413ce97f2430d78311f8068a3b7541e315834ea01ecbfe1e36f13c2ec360bb7",
        },
    ),
    "reuse-seed11-q300-m3": (
        ["--seed", "11", "--queries", "300", "--models", "3", "--noise", "0.5", "--product-reuse-rate", "0.5"],
        "wrote 3767 products, 7320 pairs (3936 in T1) to <out>\n",
        {
            "catalog.csv": "a029e6d46f3ce9a799d7f03eaec4b7acb0258a3f161574b5b8dcce5f8e5d515b",
            "probs.csv": "591df97c8b38f284257374e6074594bf8534bf0baca63596869f9f4c575dc021",
            "splits.csv": "ad2ef526eb47b96f5a247a4d9ea3df2bc08ef48f13d7adb827ad8954dbe03d8f",
            "synth_config.txt": "d35e7c8bae190ce09d13d0cf0854185a279d9e710caf652128d00891d9d03580",
            "t1.csv": "086cb9b1363b6fbd1c729f5b8d98d99c84ee80ab2d9e90971ac212da2ef2c25c",
            "t2t3.csv": "0674f9cc29735dd0c80cc01e03d214dfee1c1a4d506ed9f120b014e97d04537d",
        },
    ),
    "isbn-single-forced-exact": (
        ["--seed", "5", "--queries", "80", "--isbn-query-rate", "1", "--label-shares", "E:0.02,S:0.38,C:0.2,I:0.4",
         "--count-mixture", "1:0.5,16:0.5"],
        "wrote 622 products, 635 pairs (355 in T1) to <out>\n",
        {
            "catalog.csv": "53fd03802974c79fda68bf3548ea972314b17219bbfe71d7a188719415d85f41",
            "probs.csv": "5e8986718a572ed1cf846fb514286e2b92526b32ebf9a88c16a4b960db149aca",
            "splits.csv": "4bddae2b929e705578bee4ad1d7741ec9ad8f0783a0e81f48b9497383b42a607",
            "synth_config.txt": "e92e5bb55bd91412b493b8b07396d9a3aa1b0280644592b8541065d0544a07fa",
            "t1.csv": "7443393f2cd203f575cc53cf2e93b963967f630b79bf7e0459cca4c4a0218a77",
            "t2t3.csv": "c9ea89c085b17f0c42a3ccc20e5c7e99514f77bdf3ecb5be4becf4d8d6dfcb4e",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_corpus_bytes_match_golden_hashes(tmp_path, name):
    argv, stdout, digests = GOLDEN[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["synth", *argv, "--out", str(tmp_path)]) == 0
    assert out.getvalue().replace(str(tmp_path), "<out>") == stdout
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()} == digests
