"""Property tests: a corrupted input file ends as a clean CLI error.

Each example breaks one cell or one row of a small valid file (a corpus CSV,
a feature CSV, a ranking file or a `synth_config.txt`), or one value of a
saved model, runs the CLI in-process and requires exit code 1 (or, for a
model value that still describes a usable model, 0), stderr starting with
`error:` and no escaping exception. The runs are derandomised, so every run
draws the same examples.
"""

import contextlib
import csv
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprank.cli import main

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)

NOT_A_PROBABILITY = ["abc", "", "nan", "inf", "-0.5", "2"]

#: Cell values that make each checked column of a corpus file invalid.
CORPUS_BAD_CELLS = {
    "catalog.csv": {"product_id": [""], "locale": ["fr", "", "US"]},
    "t1.csv": {"product_id": ["NOPE"], "locale": ["fr", ""], "esci_label": ["X", "e", "EE"]},
    "t2t3.csv": {"product_id": ["NOPE"], "locale": ["fr", ""], "esci_label": ["X", "e", "EE"]},
    "probs.csv": {
        "model": ["x", "1.5", "-1", "9", ""],
        **{name: NOT_A_PROBABILITY for name in ("p_e", "p_s", "p_c", "p_i")},
    },
    "splits.csv": {"query_id": [""], "split": ["validation", "", "TRAIN"]},
}
ROW_FAULTS = ("short", "extra", "duplicate")
#: Corpus files whose every fault is reported with the file's path and data row.
ROW_NAMED = ("catalog.csv", "t1.csv", "t2t3.csv")


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def assert_clean_failure(argv):
    code, err = run_cli(argv)
    assert code == 1, err
    assert err.startswith("error:"), err
    return err


def corrupt(rows, data, bad_cells, row_faults):
    """Apply one drawn fault to rows: a bad value in one cell, or one bad row.

    bad_cells maps a column index to values that make that column invalid.
    """
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    fault = data.draw(st.sampled_from(("cell",) + row_faults), label="fault")
    if fault == "cell":
        column = data.draw(st.sampled_from(sorted(bad_cells)), label="column")
        rows[i][column] = data.draw(st.sampled_from(bad_cells[column]), label="value")
    elif fault == "short":
        rows[i] = rows[i][:-1]
    elif fault == "extra":
        rows[i] = rows[i] + ["1"]
    else:
        rows.insert(i, list(rows[i]))


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    c = root / "corpus"
    for argv in (
        ["synth", "--seed", "4", "--queries", "6", "--out", c],
        ["features", "--catalog", c / "catalog.csv", "--examples", c / "t2t3.csv",
         "--probs", c / "probs.csv", "--t1", c / "t1.csv", "--out", root / "features.csv"],
        ["train", "--features", root / "features.csv", "--examples", c / "t2t3.csv",
         "--rounds", "2", "--depth", "2", "--min-leaf", "5", "--out", root / "model.json"],
        ["rank", "--model", root / "model.json", "--features", root / "features.csv",
         "--examples", c / "t1.csv", "--out", root / "ranking.tsv"],
    ):
        assert run_cli(argv)[0] == 0
    return root


def pipeline_argv(corpus, out):
    return ["pipeline", "--catalog", corpus / "catalog.csv", "--t1", corpus / "t1.csv",
            "--t2t3", corpus / "t2t3.csv", "--probs", corpus / "probs.csv",
            "--splits", corpus / "splits.csv", "--tasks", "T2", "--seed", "0",
            "--rounds", "1", "--depth", "1", "--min-leaf", "1", "--out", out]


def test_intact_inputs_succeed(valid, tmp_path):
    assert run_cli(pipeline_argv(valid / "corpus", tmp_path / "run"))[0] == 0
    assert run_cli(["classify", "--model", valid / "model.json", "--features", valid / "features.csv",
                    "--out", tmp_path / "p.csv"])[0] == 0
    assert run_cli(["evaluate", "--task", "T1", "--truth", valid / "corpus" / "t1.csv",
                    "--predictions", valid / "ranking.tsv"])[0] == 0


@PROPERTY
@given(data=st.data())
def test_corrupt_corpus_file_fails_cleanly(valid, data):
    name = data.draw(st.sampled_from(sorted(CORPUS_BAD_CELLS)), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        shutil.copytree(valid / "corpus", corpus)
        with (corpus / name).open(encoding="utf-8", newline="") as handle:
            header, *rows = csv.reader(handle)
        bad_cells = {header.index(col): values for col, values in CORPUS_BAD_CELLS[name].items()}
        corrupt(rows, data, bad_cells, ROW_FAULTS)
        with (corpus / name).open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows([header, *rows])
        err = assert_clean_failure(pipeline_argv(corpus, Path(tmp) / "run"))
        if name in ROW_NAMED:
            assert err.startswith(f"error: [pipeline] {corpus / name}: row "), err


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("catalog.csv", (1, "locale", "fr"), "row 2: unknown locale 'fr' for product B000000001"),
        ("catalog.csv", (2, "product_id", ""), "row 3: product_id must be non-empty"),
        ("catalog.csv", (0, None, None), "row 2: duplicate product_id 'B000000000' in catalog"),
        ("t2t3.csv", (2, "locale", "fr"), "row 3: unknown locale 'fr' for pair (trn00000, B000000002)"),
        ("t2t3.csv", (1, "locale", "us"), "row 2: query 'trn00000' mixes locales ['es', 'us']"),
        ("t2t3.csv", (0, None, None), "row 2: duplicate pair ('trn00000', 'B000000000') in example set"),
        ("catalog.csv", (1, "title", "x" * 200_000), "row 2: field larger than field limit (131072)"),
    ],
)
def test_table_check_names_file_and_row(valid, tmp_path, name, edit, message):
    """One edited row (None: the row is duplicated) is reported with its path and 1-based row."""
    corpus = tmp_path / "corpus"
    shutil.copytree(valid / "corpus", corpus)
    with (corpus / name).open(encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    row, column, value = edit
    if column is None:
        rows.insert(row, list(rows[row]))
    else:
        rows[row][header.index(column)] = value
    with (corpus / name).open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows([header, *rows])
    code, err = run_cli(["batch-sim", "--catalog", corpus / "catalog.csv", "--examples", corpus / "t2t3.csv"])
    assert (code, err) == (1, f"error: [batch-sim] {corpus / name}: {message}\n")


@PROPERTY
@given(data=st.data())
def test_corrupt_feature_file_fails_cleanly(valid, data):
    header, *rows = (valid / "features.csv").read_text(encoding="utf-8").splitlines()
    rows = [row.split(",") for row in rows]
    # Rows hold query_id, product_id, then the feature values.
    corrupt(rows, data, {c: ["abc", "", "nan", "inf", "-inf"] for c in range(2, len(rows[0]))}, ("short", "extra"))
    with tempfile.TemporaryDirectory() as tmp:
        feats = Path(tmp) / "features.csv"
        feats.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")
        shutil.copy(valid / "features.csv.schema", Path(tmp) / "features.csv.schema")
        assert_clean_failure(["classify", "--model", valid / "model.json", "--features", feats,
                              "--out", Path(tmp) / "p.csv"])


@PROPERTY
@given(data=st.data())
def test_corrupt_ranking_file_fails_cleanly(valid, data):
    rows = [line.split("\t") for line in (valid / "ranking.tsv").read_text(encoding="utf-8").splitlines()]
    # Columns: query_id, rank, product_id, score.
    corrupt(rows, data, {1: ["x", "0", "1.5", ""], 3: ["abc", "", "nan", "inf", "-inf"]}, ROW_FAULTS)
    with tempfile.TemporaryDirectory() as tmp:
        ranking = Path(tmp) / "ranking.tsv"
        ranking.write_text("\n".join("\t".join(r) for r in rows) + "\n", encoding="utf-8")
        assert_clean_failure(["evaluate", "--task", "T1", "--truth", valid / "corpus" / "t1.csv",
                              "--predictions", ranking])


@pytest.mark.parametrize(
    "name, where, cell",
    [
        pytest.param("features.csv", "row 2", 2, id="features.csv-row 2"),
        # np.loadtxt has no field size limit, so the fast feature-file reader must check the ids itself.
        pytest.param("features.csv", "row 2", 1, id="features.csv-product_id-row 2"),
        pytest.param("ranking.tsv", "row 2", 2, id="ranking.tsv-row 2"),
        pytest.param("predictions.csv", "row 2", 2, id="predictions.csv-row 2"),
    ],
)
def test_oversized_cell_names_file_and_row(valid, tmp_path, name, where, cell):
    """A cell past the csv module's field size limit, in data row 2, is a clean error naming file and row."""
    shutil.copy(valid / "features.csv.schema", tmp_path / "features.csv.schema")
    predictions = tmp_path / "predictions.csv"
    assert run_cli(["classify", "--model", valid / "model.json", "--features", valid / "features.csv",
                    "--out", predictions])[0] == 0
    path = tmp_path / name
    if name != "predictions.csv":
        shutil.copy(valid / name, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    row = int(where.split()[1]) - (name == "ranking.tsv")  # its index in lines
    delimiter = "\t" if name == "ranking.tsv" else ","
    cells = lines[row].split(delimiter)
    cells[cell] = "1" * 200_000  # a product id, or a feature value (loadtxt reads it as inf)
    lines[row] = delimiter.join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if name == "features.csv":
        argv = ["classify", "--model", valid / "model.json", "--features", path, "--out", tmp_path / "p.csv"]
    else:
        task, truth = ("T1", "t1.csv") if name == "ranking.tsv" else ("T2", "t2t3.csv")
        argv = ["evaluate", "--task", task, "--truth", valid / "corpus" / truth, "--predictions", path]
    code, err = run_cli(argv)
    assert (code, err) == (1, f"error: [{argv[0]}] {path}: {where}: field larger than field limit (131072)\n")


def test_header_only_examples_rank_to_an_empty_file(valid, tmp_path):
    examples = tmp_path / "t1.csv"
    examples.write_text((valid / "corpus" / "t1.csv").read_text(encoding="utf-8").splitlines()[0] + "\n",
                        encoding="utf-8")
    out = tmp_path / "ranking.tsv"
    code, err = run_cli(["rank", "--model", valid / "model.json", "--features", valid / "features.csv",
                         "--examples", examples, "--out", out])
    assert (code, err, out.read_text(encoding="utf-8")) == (0, "", "")


@PROPERTY
@given(data=st.data())
def test_corrupt_synth_config_names_file_and_line(valid, data):
    lines = (valid / "corpus" / "synth_config.txt").read_text(encoding="utf-8").splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    key = lines[i].split(" = ")[0]
    lines[i] = f"{key} = {data.draw(st.sampled_from(['abc', '', '1:2:3']), label='value')}"
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "synth_config.txt"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, err = run_cli(["synth", "--config", cfg, "--out", Path(tmp) / "corpus"])
    assert code == 1, err
    assert err.startswith(f"error: [synth] {cfg}: line {i + 1}: {key}:"), err


MODEL_VALUES = ["x", "", "multiclass", "binary", 0, 1, -1, 3, 1.5, 2**40, 1e308,
                float("nan"), float("inf"), None, True, [], {}, [0.0], {"a": 1}]


@PROPERTY
@given(data=st.data())
def test_mutated_model_fails_cleanly_or_predicts(valid, data):
    node = payload = json.loads((valid / "model.json").read_text(encoding="utf-8"))
    while True:  # walk down from the top, so the few top-level values are not swamped by tree nodes
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))), label="key")
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans(), label="descend")):
            break
        node = child
    node[key] = data.draw(st.sampled_from(MODEL_VALUES), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        code, err = run_cli(["classify", "--model", model, "--features", valid / "features.csv",
                             "--out", Path(tmp) / "p.csv"])
    assert code == 0 or (code == 1 and err.startswith("error:")), (code, err)
