"""Catalog, example, split, prediction and ranking files: their loaders against a per-row reference reader.

The loaders read whole chunks of rows at a time. The reference below reads
the same file one row at a time with the csv module, with plain Python
checks made in the loaders' order: a row the csv module rejects, then a row
whose width differs from the header's, then the cells. Blank lines are
skipped. On any file the two must give the same columns, or the same error
type and message, which names the file and the row. Prediction files have a
fixed header; ranking files are tab-separated and have none, so their rows
are numbered from the first line.
"""

import csv
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprank import dataio
from shoprank.cli import _read_prediction_file, _read_ranking_file, _write_predictions, _write_ranking
from shoprank.dataio import CATALOG_COLUMNS, EXAMPLE_COLUMNS, SPLIT_COLUMNS, SPLIT_NAMES
from shoprank.dataio import load_catalog, load_examples, load_splits
from shoprank.errors import DuplicateKeyError, ParseError, ReferentialError, SchemaError, ValidationError
from shoprank.model import CLASS_ORDER, TASK_T2T3, Catalog, EsciLabel, ExampleSet
from shoprank.rank import rank_order

from helpers import coded
from test_feature_files import IDS as ROUND_TRIP_IDS

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

#: Cells with every character the CSV layer treats specially, and text numpy's parser might.
CELLS = st.text(alphabet=st.sampled_from(list('ab7,"# \n\r\té\ufeff')), max_size=4)
#: One character past the csv module's field size limit, on one line and over many short ones.
PAST_LIMIT = "x" * (csv.field_size_limit() + 1)
PAST_LIMIT_OVER_LINES = "x\n" * (csv.field_size_limit() // 2 + 1)
FAULTS = ("blank", "whitespace", "short", "extra", "long cell", "long cell over lines", "quoted line break")
LINE_ENDS = ("\r\n", "\n", "\r")
CHUNK_ROWS = st.sampled_from([1, 2, 3, dataio._CHUNK_ROWS])


def reference_rows(path, required, delimiter=",", names=()):
    """Header and non-blank rows of a file, checked one row at a time. required is the columns the
    header must hold, or a function that checks it; a file without a header row has names."""
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header, rows = list(names) or None, []
        try:
            header = header or next(reader, [])
            if callable(required):
                required(header)
            elif missing := [c for c in required if c not in header]:
                raise SchemaError(f"{path}: missing required column(s) {missing}")
            for row in reader:
                if row:
                    rows.append(row)
        except csv.Error as exc:
            where = "header" if header is None else f"row {len(rows) + 1}"
            raise ParseError(f"{path}: {where}: {exc}") from None
    for number, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ParseError(f"{path}: row {number}: {len(row)} fields, expected {len(header)}")
    # A column named twice holds the cells of its last occurrence.
    return {name: tuple(row[i] for row in rows) for i, name in enumerate(header)}


def reference_catalog(path):
    col = reference_rows(path, CATALOG_COLUMNS)
    try:
        catalog = Catalog(*(col[name] for name in CATALOG_COLUMNS))
    except (ValidationError, DuplicateKeyError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return tuple(getattr(catalog, name) for name in CATALOG_COLUMNS)


def reference_examples(path):
    col = reference_rows(path, EXAMPLE_COLUMNS)
    labels = []
    for number, code in enumerate(col.get("esci_label", ("",) * len(col["product_id"])), start=1):
        try:
            labels.append(-1 if code == "" else EsciLabel.from_code(code).index)
        except ValidationError as exc:
            raise ParseError(f"{path}: row {number}: {exc}") from None
    try:
        examples = ExampleSet(*(col[name] for name in EXAMPLE_COLUMNS), np.array(labels, dtype=np.int8), TASK_T2T3)
    except (ValidationError, DuplicateKeyError, ReferentialError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return tuple(examples)


def reference_splits(path):
    col = reference_rows(path, SPLIT_COLUMNS)
    splits = {}
    for number, (query_id, split) in enumerate(zip(col["query_id"], col["split"]), start=1):
        if split not in SPLIT_NAMES:
            raise ParseError(f"{path}: row {number}: unknown split {split!r}; expected one of {SPLIT_NAMES}")
        if query_id in splits:
            raise DuplicateKeyError(f"{path}: row {number}: duplicate query_id")
        splits[query_id] = split
    if not splits:
        raise SchemaError(f"{path}: no split rows")
    return splits


def new_catalog(path):
    catalog = load_catalog(path)
    return tuple(getattr(catalog, name) for name in CATALOG_COLUMNS)


def new_examples(path):
    return tuple(load_examples(path, TASK_T2T3))


def outcome(load, path):
    """What a loader makes of a file: its columns, or its error as (type, message)."""
    try:
        return load(path)
    except (ParseError, SchemaError, DuplicateKeyError, ValidationError, ReferentialError) as exc:
        return type(exc), str(exc)


@st.composite
def table_files(draw, header, cells):
    """Text of a file with `header` (maybe with an extra column) and rows of `cells`, with some
    faults applied, written with a drawn line end."""
    header = list(header)
    if draw(st.booleans(), label="extra column"):
        header.insert(draw(st.integers(0, len(header)), label="at"), "note")
    rows = draw(st.lists(st.tuples(*(cells.get(name, CELLS) for name in header)).map(list), max_size=6),
                label="rows")
    return draw(with_faults(header, rows))


@st.composite
def with_faults(draw, header, rows):
    """Lines of a file of `header` (None for a file without a header row) and `rows`, with some
    faults applied, and the line end they are written with."""
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3), label="faults"):
        i = draw(st.integers(0, len(rows)), label="row")
        if fault == "blank":
            rows.insert(i, [])
        elif fault == "whitespace":
            rows.insert(i, [draw(st.sampled_from([" ", "\t", "  "]), label="spaces")])
        elif i == len(rows) or not rows[i]:
            continue
        elif fault == "short":
            rows[i] = rows[i][:-1]
        elif fault == "extra":
            rows[i] = rows[i] + ["x"]
        else:
            cell = {"long cell": PAST_LIMIT, "long cell over lines": PAST_LIMIT_OVER_LINES}.get(
                fault, "line\nbreak, \"quoted\"")
            rows[i][draw(st.integers(0, len(rows[i]) - 1), label="column")] = cell
    if header is None:
        lines = rows
    else:
        if draw(st.integers(0, 9), label="drop a column from the header") == 7:
            del header[draw(st.integers(0, len(header) - 1), label="dropped")]
        lines = [header, *rows]
    end = draw(st.sampled_from(LINE_ENDS), label="line end")
    final = draw(st.booleans(), label="final line end")
    return lines, end, final


def write(path, file, delimiter=","):
    lines, end, final = file
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, delimiter=delimiter, lineterminator=end).writerows(lines)
    if not final:  # drop the last line end
        path.write_bytes(path.read_bytes()[: -len(end.encode())])


IDS = st.text(alphabet=st.sampled_from(list('abc,"\n')), min_size=1, max_size=3) | st.just("")
LOCALES = st.sampled_from(["us", "es", "jp", "xx"])
CATALOG_CELLS = {"product_id": IDS, "brand": st.sampled_from(["acme", "", 'a,"b']), "locale": LOCALES}
EXAMPLE_CELLS = {
    "query_id": st.sampled_from(["q1", "q2", "q,3"]),
    "query": st.sampled_from(["red shoes", 'say "hi"']),
    "product_id": IDS,
    "locale": LOCALES,
    "esci_label": st.sampled_from(["", "E", "S", "C", "I", "X", "e", " E"]),
}
SPLIT_CELLS = {"query_id": IDS, "split": st.sampled_from([*SPLIT_NAMES, "test", ""])}


@PROPERTY
@given(file=table_files(CATALOG_COLUMNS, CATALOG_CELLS), chunk_rows=CHUNK_ROWS)
def test_catalog_loader_agrees_with_the_per_row_reference(tmp_path_factory, file, chunk_rows):
    path = tmp_path_factory.mktemp("catalog") / "catalog.csv"
    write(path, file)
    with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
        assert outcome(new_catalog, path) == outcome(reference_catalog, path)


@PROPERTY
@given(
    file=st.booleans().flatmap(
        lambda labelled: table_files(EXAMPLE_COLUMNS + ("esci_label",) * labelled, EXAMPLE_CELLS)
    ),
    chunk_rows=CHUNK_ROWS,
)
def test_example_loader_agrees_with_the_per_row_reference(tmp_path_factory, file, chunk_rows):
    """With and without the optional esci_label column."""
    path = tmp_path_factory.mktemp("examples") / "examples.csv"
    write(path, file)
    with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
        assert outcome(new_examples, path) == outcome(reference_examples, path)


@PROPERTY
@given(file=table_files(SPLIT_COLUMNS, SPLIT_CELLS), chunk_rows=CHUNK_ROWS)
def test_split_loader_agrees_with_the_per_row_reference(tmp_path_factory, file, chunk_rows):
    path = tmp_path_factory.mktemp("splits") / "splits.csv"
    write(path, file)
    with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
        assert outcome(load_splits, path) == outcome(reference_splits, path)


PREDICTION_HEADER = ("query_id", "product_id", "prediction")
RANKING_COLUMNS = ("query_id", "rank", "product_id", "score")
#: The prediction cells of each task, and the value each reads as.
PREDICTION_CELLS = {"T2": {label.value: label.index for label in CLASS_ORDER}, "T3": {"0": False, "1": True}}
#: Ids of either file kind: CELLS, with tabs among them, and a few that repeat.
QUERY_IDS = st.sampled_from(["q1", "q2", 'q\t"3']) | CELLS
PRODUCT_IDS = st.sampled_from(["a", "b", "c\td"]) | CELLS
#: Rank and score cells that are bad, or that misrank a list or make its scores rise.
RANK_CELLS = st.sampled_from(["0", "4", "-1", " 2", "01", "+1", "x", "", "1.5"])
SCORE_CELLS = st.sampled_from(["9", "0.95", "1_0", " 0.25", "abc", "", "nan", "inf", "-inf", "NaN", "1e999"])


def parsed(path, number, parse, cell):
    try:
        return parse(cell)
    except ValueError as exc:
        raise ParseError(f"{path}: row {number}: {exc}") from None


def first_repeat(path, pairs, message):
    seen = set()
    for number, pair in enumerate(pairs, start=1):
        if pair in seen:
            raise DuplicateKeyError(f"{path}: row {number}: {message(*pair)}")
        seen.add(pair)


def reference_predictions(path, task):
    """Pairs and predictions in file order: the header, then each prediction cell, then a repeated pair."""

    def check(header):
        if header != list(PREDICTION_HEADER):
            raise ParseError(f"{path}: missing prediction header")

    col, cells = reference_rows(path, check), PREDICTION_CELLS[task]
    for number, cell in enumerate(col["prediction"], start=1):
        if cell not in cells:
            raise ParseError(f"{path}: row {number}: prediction {cell!r} is not one of {', '.join(cells)}")
    if not col["prediction"]:
        raise ParseError(f"{path}: no prediction rows")
    pairs = tuple(zip(col["query_id"], col["product_id"]))
    first_repeat(path, pairs, lambda query, product: f"pair {(query, product)} listed again")
    return pairs, [cells[cell] for cell in col["prediction"]]


def reference_ranking(path):
    """Ranked pairs and scores in list order: each rank, each score, each score's finiteness, a
    repeated pair, then per query in first-seen order its ranks and its first rising score."""
    rows = tuple(zip(*(reference_rows(path, (), "\t", RANKING_COLUMNS)[name] for name in RANKING_COLUMNS)))
    ranks = [parsed(path, number, int, row[1]) for number, row in enumerate(rows, start=1)]
    scores = [parsed(path, number, float, row[3]) for number, row in enumerate(rows, start=1)]
    for number, score in enumerate(scores, start=1):
        if not math.isfinite(score):
            raise ParseError(f"{path}: row {number}: score {score!r} is not finite")
    if not rows:
        raise ParseError(f"{path}: no ranking rows")
    first_repeat(path, [(row[0], row[2]) for row in rows],
                 lambda query, product: f"product {product!r} ranked again in query {query!r}")
    lists = {}
    for number, (row, rank, score) in enumerate(zip(rows, ranks, scores), start=1):
        lists.setdefault(row[0], []).append((rank, number, row[2], score))
    ranked = []
    for query, entries in lists.items():
        entries.sort()
        if [rank for rank, *_ in entries] != list(range(1, len(entries) + 1)):
            raise ParseError(f"{path}: query {query!r}: ranks are not 1..{len(entries)}")
        for (*_, before), (_, number, _, score) in zip(entries, entries[1:]):
            if score > before:
                raise ParseError(f"{path}: row {number}: query {query!r}: score above the one ranked before it")
        ranked += [((query, product), score) for _, _, product, score in entries]
    pairs, scores = zip(*ranked)
    return pairs, list(scores)


def new_predictions(path, task):
    pairs, predictions = _read_prediction_file(path, task)
    return pairs.pairs, predictions.tolist()


def new_ranking(path):
    ranked, scores = _read_ranking_file(path)
    return ranked.pairs, scores.tolist()


@st.composite
def prediction_files(draw, task):
    """A prediction file of the task's cells, some of them bad, with FAULTS applied."""
    good = list(PREDICTION_CELLS[task])
    other = list(PREDICTION_CELLS["T3" if task == "T2" else "T2"])[0]
    cell = st.sampled_from(good * (12 // len(good)) + ["x", " " + good[0], "", other])
    rows = draw(st.lists(st.tuples(QUERY_IDS, PRODUCT_IDS, cell).map(list), max_size=6), label="rows")
    return draw(with_faults(list(PREDICTION_HEADER), rows))


@st.composite
def ranking_files(draw):
    """A ranking file: the well-ranked lists of some queries with rows shuffled, then a rank or a
    score cell changed or a row repeated, then FAULTS applied."""
    rows = []
    for query in draw(st.lists(QUERY_IDS, unique=True, max_size=3), label="queries"):
        products = draw(st.lists(PRODUCT_IDS, unique=True, min_size=1, max_size=3), label="products")
        scores = draw(st.lists(st.sampled_from(["0.9", "0.5", "0.500000", "1e-3", "0"]), min_size=len(products),
                               max_size=len(products)), label="scores")
        scores.sort(key=float, reverse=True)
        rows += [[query, str(rank), product, score]
                 for rank, (product, score) in enumerate(zip(products, scores), start=1)]
    rows = draw(st.permutations(rows), label="file order")
    for fault in draw(st.lists(st.sampled_from(["rank", "score", "repeat"]), max_size=3), label="cell faults"):
        if rows:
            i = draw(st.integers(0, len(rows) - 1), label="row")
            if fault == "rank":
                rows[i][1] = draw(RANK_CELLS, label="rank")
            elif fault == "score":
                rows[i][3] = draw(SCORE_CELLS, label="score")
            else:
                rows.insert(draw(st.integers(0, len(rows)), label="at"), list(rows[i]))
    return draw(with_faults(None, rows))


@PROPERTY
@given(data=st.data(), task=st.sampled_from(["T2", "T3"]), chunk_rows=CHUNK_ROWS)
def test_prediction_reader_agrees_with_the_per_row_reference(tmp_path_factory, data, task, chunk_rows):
    path = tmp_path_factory.mktemp("predictions") / "predictions.csv"
    write(path, data.draw(prediction_files(task), label="file"))
    with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
        assert outcome(lambda p: new_predictions(p, task), path) == outcome(
            lambda p: reference_predictions(p, task), path)


@PROPERTY
@given(file=ranking_files(), chunk_rows=CHUNK_ROWS)
def test_ranking_reader_agrees_with_the_per_row_reference(tmp_path_factory, file, chunk_rows):
    path = tmp_path_factory.mktemp("ranking") / "ranking.tsv"
    write(path, file, delimiter="\t")
    with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
        assert outcome(new_ranking, path) == outcome(reference_ranking, path)


@PROPERTY
@given(
    pairs=st.lists(st.tuples(ROUND_TRIP_IDS, ROUND_TRIP_IDS), unique=True, min_size=1, max_size=8),
    data=st.data(),
)
def test_written_prediction_and_ranking_files_read_back(tmp_path_factory, pairs, data):
    """What the writers write reads back to the pairs, predictions and scores written (scores to
    the 6 decimals a ranking file holds)."""
    path, rows, n = tmp_path_factory.mktemp("written"), coded(pairs), len(pairs)
    labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="labels"))
    for task, predictions in (("T2", labels), ("T3", labels == EsciLabel.SUBSTITUTE.index)):
        _write_predictions(path / f"{task}.csv", rows, predictions)
        assert new_predictions(path / f"{task}.csv", task) == (tuple(pairs), predictions.tolist())
    scores = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n), label="scores"))
    order = rank_order(rows, scores)
    _write_ranking(path / "ranking.tsv", rows.take(order), scores[order])
    assert new_ranking(path / "ranking.tsv") == (rows.take(order).pairs, [float(f"{s:.6f}") for s in scores[order]])


def test_reference_sees_every_fault_kind(tmp_path):
    """The reference itself: one hand-made file per error the reader can name."""
    header = ",".join(SPLIT_COLUMNS)
    cases = {
        "q1,train\n\nq2,public\n": None,
        "q1,train\n \nq2,public\n": "row 2: 1 fields, expected 2",
        "q1,train\nq2\n": "row 2: 1 fields, expected 2",
        "q1,train,x\n": "row 1: 3 fields, expected 2",
        f"q1,train\nq2,{PAST_LIMIT}\n": "row 2: field larger than field limit (131072)",
        f"q1\nq2,{PAST_LIMIT}\n": "row 2: field larger than field limit (131072)",
        "q1,test\nq2\n": "row 2: 1 fields, expected 2",
        "q1,test\nq1,train\n": "row 1: unknown split 'test'; expected one of ('train', 'private', 'public')",
    }
    for body, message in cases.items():
        path = tmp_path / "splits.csv"
        path.write_text(header + "\n" + body, encoding="utf-8")
        if message is None:
            assert outcome(reference_splits, path) == {"q1": "train", "q2": "public"}
        else:
            assert outcome(reference_splits, path)[1] == f"{path}: {message}"
        assert outcome(load_splits, path) == outcome(reference_splits, path)


def test_ranking_faults_are_named_by_kind_across_the_file(tmp_path):
    """Hand-made ranking files, each with two faults: the earlier kind is named, whatever its row."""
    cases = {
        "q\t1\ta\tabc\nq\tx\tb\t0.5\n": "row 2: invalid literal for int() with base 10: 'x'",
        "q\t1\ta\tnan\nq\tx\tb\t0.5\n": "row 2: invalid literal for int() with base 10: 'x'",
        "q\t1\ta\tnan\nq\t2\tb\tabc\n": "row 2: could not convert string to float: 'abc'",
        "q\t1\ta\t0.5\nq\t1\ta\t0.5\nr\t1\tb\tinf\n": "row 3: score inf is not finite",
        "q\t2\ta\t0.5\nq\t1\ta\t0.9\n": "row 2: product 'a' ranked again in query 'q'",
        "q\t1\ta\t0.5\nq\t2\tb\t0.9\nr\t3\tc\t0.5\n": "row 2: query 'q': score above the one ranked before it",
    }
    for body, message in cases.items():
        path = tmp_path / "ranking.tsv"
        path.write_text(body, encoding="utf-8")
        assert outcome(reference_ranking, path)[1] == f"{path}: {message}"
        assert outcome(new_ranking, path) == outcome(reference_ranking, path)
