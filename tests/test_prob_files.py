"""Probability files: `load_probs` against a per-row reference reader.

`load_probs` parses whole columns and checks them with array operations. The
reference below reads the same file one row at a time, with plain Python
checks made in the loader's order (row widths, model cells, probability
cells, distributions, repeated (pair, model) rows, the model set of each pair,
dense model indices). On any file the two must give the same pairs and value
bits, or the same error type and message, which names the file and the row.
"""

import csv
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprank import dataio
from shoprank.dataio import PROB_COLUMNS, load_probs
from shoprank.errors import DuplicateKeyError, ParseError, SchemaError

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

#: Distributions whose four components sum to 1 exactly in float arithmetic.
VECTORS = [(0.25, 0.25, 0.25, 0.25), (1.0, 0.0, 0.0, 0.0), (0.5, 0.25, 0.125, 0.125),
           (0.1, 0.2, 0.3, 0.4), (0.0, 0.0, 0.0, 1.0), (0.7, 0.1, 0.1, 0.1)]
#: Probability cells that fail to parse, are no probability, or break a row's sum.
BAD_PROBABILITIES = ["", "abc", "nan", "NaN", "inf", "-inf", "-0.5", "-0.0", "1e500", "2", "0.3",
                     " 0.25 ", "0.2500001", "0.25000001", "1_0", "١", "0x1"]
BAD_MODELS = ["", "x", "1.5", "-1", "7", " 0", "1_0", "١"]
IDS = st.text(alphabet=st.sampled_from(list('ab7,"é ')), min_size=1, max_size=3)
FAULTS = ("probability", "model", "repeat", "repeat changed", "drop", "short", "extra", "blank")


def reference_load(path):
    """(pairs, values) of a probability file, checked one row at a time."""
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header, rows = None, []
        try:
            header = next(reader, [])
            missing = [c for c in PROB_COLUMNS if c not in header]
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
    cells = [dict(zip(header, row)) for row in rows]
    # Every model cell is checked before any probability cell, so a bad model cell in a
    # later row still wins over a bad probability cell in an earlier one.
    for names, cast in ((["model"], int), (PROB_COLUMNS[3:], float)):
        for number, row in enumerate(cells, start=1):
            try:
                [cast(row[name]) for name in names]
            except ValueError as exc:
                raise ParseError(f"{path}: row {number}: {exc}") from None
    vectors = {}
    for number, row in enumerate(cells, start=1):
        p = [float(row[name]) for name in PROB_COLUMNS[3:]]
        for name, value in zip(PROB_COLUMNS[3:], p):
            if not (math.isfinite(value) and value >= 0.0):
                raise ParseError(f"{path}: row {number}: {name}={value!r} is not a probability")
        total = p[0] + p[1] + p[2] + p[3]
        if abs(total - 1.0) > 1e-6:
            raise ParseError(f"{path}: row {number}: probabilities sum to {total!r}, expected 1 within 1e-6")
    for number, row in enumerate(cells, start=1):
        pair, model = (row["query_id"], row["product_id"]), int(row["model"])
        per_model = vectors.setdefault(pair, {})
        if model in per_model:
            raise DuplicateKeyError(f"{path}: row {number}: duplicate (pair, model) {pair}, {model}")
        per_model[model] = [float(row[name]) for name in PROB_COLUMNS[3:]]
    models = sorted({model for per_model in vectors.values() for model in per_model})
    if any(len(per_model) != len(models) for per_model in vectors.values()):
        raise SchemaError(f"{path}: pairs disagree on model indices")
    if models != list(range(len(models))):
        raise SchemaError(f"{path}: model indices {models} are not 0..{len(models) - 1}")
    values = [[per_model[model] for model in models] for per_model in vectors.values()]
    return tuple(vectors), np.array(values, dtype=np.float64).reshape(len(vectors), len(models), 4)


def outcome(load, path):
    """What a loader makes of a file: its pairs and value bits, or its error."""
    try:
        pairs, values = load(path)
    except (ParseError, SchemaError, DuplicateKeyError) as exc:
        return type(exc), str(exc)
    return pairs, values.shape, values.view(np.int64).tolist()


def new_load(path):
    table = load_probs(path)
    return table.pairs, table.values


@st.composite
def probability_files(draw):
    """Rows (header first) of a valid file with some faults applied, in a drawn order."""
    pairs = draw(st.lists(st.tuples(IDS, IDS), min_size=1, max_size=5, unique=True), label="pairs")
    n_models = draw(st.integers(1, 3), label="models")
    rows = [[q, p, str(m), *map(repr, draw(st.sampled_from(VECTORS), label="vector"))]
            for q, p in pairs for m in range(n_models)]
    rows = draw(st.permutations(rows), label="order")
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3), label="faults"):
        i = draw(st.integers(0, len(rows) - 1), label="row")
        if len(rows[i]) < 4:  # a blank line inserted by an earlier fault
            continue
        if fault == "probability":
            column = draw(st.integers(3, len(rows[i]) - 1), label="column")
            rows[i][column] = draw(st.sampled_from(BAD_PROBABILITIES), label="value")
        elif fault == "model":
            rows[i][2] = draw(st.sampled_from(BAD_MODELS), label="model")
        elif fault.startswith("repeat"):
            copy = list(rows[i])
            if fault == "repeat changed":
                copy[3:] = map(repr, draw(st.sampled_from(VECTORS), label="vector"))
            rows.insert(draw(st.integers(0, len(rows)), label="at"), copy)
        elif fault == "drop" and len(rows) > 1:
            del rows[i]
        elif fault == "short":
            rows[i] = rows[i][:-1]
        elif fault == "extra":
            rows[i] = rows[i] + ["0"]
        elif fault == "blank":
            rows.insert(i, [])
    return [list(PROB_COLUMNS), *rows]


@PROPERTY
@given(rows=probability_files(), chunk_rows=st.sampled_from([1, 2, 3, dataio._CHUNK_ROWS]))
def test_loader_agrees_with_the_per_row_reference(tmp_path_factory, rows, chunk_rows):
    """Also with the reader's chunks cut down to a few rows, so that rows span several chunks."""
    path = tmp_path_factory.mktemp("probs") / "probs.csv"
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)
    with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
        assert outcome(new_load, path) == outcome(reference_load, path)


def test_reference_sees_every_fault_kind(tmp_path):
    """The reference itself: one hand-made file per error it can name."""
    header = ",".join(PROB_COLUMNS)
    cases = {
        "q,p,0,0.25,0.25,0.25,0.25\nq,p,0,0.25,0.25,0.25,0.25\n": "row 2: duplicate (pair, model) ('q', 'p'), 0",
        "q,p,0,0.25,0.25,0.25,0.3\n": "row 1: probabilities sum to 1.05, expected 1 within 1e-6",
        "q,p,0,0.25,nan,0.25,0.5\n": "row 1: p_s=nan is not a probability",
        "q,p,x,0.25,0.25,0.25,0.25\n": "row 1: invalid literal for int() with base 10: 'x'",
        "q,p,0,0.25,abc,0.25,0.25\nq,r,x,0.25,0.25,0.25,0.25\n": "row 2: invalid literal for int() with base 10: 'x'",
        "q,p,0,0.25,abc,0.25,0.25\nq,r,0,0.25,0.25,0.25\n": "row 2: 6 fields, expected 7",
        "q,p,0,0.25,0.25,0.25\n": "row 1: 6 fields, expected 7",
        "q,p,0,1,0,0,0\nq,p,1,1,0,0,0\nq,r,0,1,0,0,0\n": "pairs disagree on model indices",
        "q,p,1,1,0,0,0\n": "model indices [1] are not 0..0",
    }
    for body, message in cases.items():
        path = tmp_path / "probs.csv"
        path.write_text(header + "\n" + body, encoding="utf-8")
        assert outcome(reference_load, path)[1] == f"{path}: {message}"
        assert outcome(new_load, path) == outcome(reference_load, path)
