"""Catalog, example and split files: their loaders against a per-row reference reader.

The loaders read whole chunks of rows at a time. The reference below reads
the same file one row at a time with the csv module, with plain Python
checks made in the loaders' order: a row the csv module rejects, then a row
whose width differs from the header's, then the cells. Blank lines are
skipped. On any file the two must give the same columns, or the same error
type and message, which names the file and the row.
"""

import csv
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprank import dataio
from shoprank.dataio import CATALOG_COLUMNS, EXAMPLE_COLUMNS, SPLIT_COLUMNS, SPLIT_NAMES
from shoprank.dataio import load_catalog, load_examples, load_splits
from shoprank.errors import DuplicateKeyError, ParseError, ReferentialError, SchemaError, ValidationError
from shoprank.model import TASK_T2T3, Catalog, EsciLabel, ExampleSet

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

#: Cells with every character the CSV layer treats specially, and text numpy's parser might.
CELLS = st.text(alphabet=st.sampled_from(list('ab7,"# \n\r\té\ufeff')), max_size=4)
#: One character past the csv module's field size limit, on one line and over many short ones.
PAST_LIMIT = "x" * (csv.field_size_limit() + 1)
PAST_LIMIT_OVER_LINES = "x\n" * (csv.field_size_limit() // 2 + 1)
FAULTS = ("blank", "whitespace", "short", "extra", "long cell", "long cell over lines", "quoted line break")
LINE_ENDS = ("\r\n", "\n", "\r")
CHUNK_ROWS = st.sampled_from([1, 2, 3, dataio._CHUNK_ROWS])


def reference_rows(path, required):
    """Header and non-blank rows of a file, checked one row at a time."""
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header, rows = None, []
        try:
            header = next(reader, [])
            missing = [c for c in required if c not in header]
            if missing:
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
    if draw(st.integers(0, 9), label="drop a column from the header") == 7:
        del header[draw(st.integers(0, len(header) - 1), label="dropped")]
    lines = [header, *rows]
    end = draw(st.sampled_from(LINE_ENDS), label="line end")
    final = draw(st.booleans(), label="final line end")
    return lines, end, final


def write(path, file):
    lines, end, final = file
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator=end).writerows(lines)
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
