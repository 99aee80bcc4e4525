"""Feature files: `FeatureMatrix.save`/`load` against the per-cell writer and
per-row reader they replaced.

`save` writes chunks of rows and formats each distinct float of a chunk
once; `load` parses a well-formed file in one np.loadtxt call and sends
anything else to the per-row reader. The references below are those earlier implementations,
kept verbatim: the written bytes must match, a loaded matrix must match bit
for bit, and a corrupt file must fail with the same exception and message.
"""

import contextlib
import csv
import gc
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprank import features
from shoprank.errors import FormatError, ParseError, SchemaError
from shoprank.features import FeatureMatrix, _line_stats, _load_rows, _load_well_formed
from shoprank.model import Pairs

from helpers import coded

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 0.1, 1 / 3,
                  1e16, 1e22, 123456789.0, 1.7976931348623157e308, -1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
#: Ids with every character the CSV layer treats specially, plus text loadtxt might.
IDS = st.text(alphabet=st.sampled_from(list('ab7,"# \n\r\té ')), max_size=6)

#: Cell values that each reader may take differently from the other.
BAD_CELLS = ["", "abc", "nan", "inf", "-inf", "1e500", " 1.5 ", "1_0", "0x10", "١", "+1.5", "1e5 ",
             "\xa02", "1.5\x0c", '"2.5"', "1 5", "1,5"]

#: Finite values of exactly the csv module's field size limit, and one character past it.
AT_LIMIT = "0." + "0" * (csv.field_size_limit() - 3) + "1"
PAST_LIMIT = AT_LIMIT[:2] + "0" + AT_LIMIT[2:]
#: Any text a cell of a feature file might hold.
CELLS = st.one_of(st.sampled_from([AT_LIMIT, PAST_LIMIT]), st.sampled_from(BAD_CELLS), IDS, FLOATS.map(repr))


def reference_save(matrix, path):
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("query_id", "product_id") + matrix.columns)
        for (qid, pid), row in zip(matrix.pairs.pairs, matrix.values):
            writer.writerow([qid, pid] + [repr(float(v)) for v in row])


def reference_load(path):
    """(columns, values, pairs) of a feature file whose sidecar names `columns`."""
    names = [line.split("\t")[0] for line in
             (path.parent / (path.name + ".schema")).read_text(encoding="utf-8").splitlines() if line]
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header[:2] != ["query_id", "product_id"]:
            raise FormatError(f"{path}: header must start with query_id, product_id")
        if list(header[2:]) != names:
            raise SchemaError(f"{path}: columns disagree with sidecar schema")
        width = len(header)
        pairs = []
        rows = []
        for rownum, row in enumerate(reader, start=1):
            if len(row) != width:
                raise ParseError(f"{path}: row {rownum}: {len(row)} fields, expected {width}")
            try:
                rows.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise ParseError(f"{path}: row {rownum}: {exc}") from None
            pairs.append((row[0], row[1]))
    values = np.array(rows, dtype=np.float64).reshape(len(pairs), len(names))
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, column = bad[0]
        raise ParseError(f"{path}: row {row + 1}: non-finite value in column {names[column]!r}")
    return tuple(names), values, tuple(pairs)


def outcome(load, path):
    """What a loader makes of a file: its (columns, value bits, pairs), or its error."""
    try:
        columns, values, pairs = load(path)
    except (FormatError, ParseError, SchemaError) as exc:
        return type(exc), str(exc)
    return columns, values.view(np.int64).tolist(), pairs


def new_load(path):
    matrix = FeatureMatrix.load(path)
    return matrix.columns, matrix.values, matrix.pairs.pairs


@st.composite
def matrices(draw, min_rows=0):
    n_rows = draw(st.integers(min_rows, 6), label="rows")
    n_cols = draw(st.integers(1, 4), label="columns")
    pairs = draw(st.lists(st.tuples(IDS, IDS), min_size=n_rows, max_size=n_rows), label="pairs")
    cells = draw(st.lists(FLOATS, min_size=n_rows * n_cols, max_size=n_rows * n_cols), label="values")
    values = np.array(cells, dtype=np.float64).reshape(n_rows, n_cols)
    return FeatureMatrix(tuple(f"c{j}" for j in range(n_cols)), values, coded(pairs))


@PROPERTY
@given(matrix=matrices())
def test_save_writes_reference_bytes_and_load_round_trips(tmp_path_factory, matrix):
    tmp = tmp_path_factory.mktemp("parity")
    matrix.save(tmp / "new.csv")
    reference_save(matrix, tmp / "old.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
    loaded = FeatureMatrix.load(tmp / "new.csv")
    assert loaded.columns == matrix.columns
    assert loaded.pairs.pairs == matrix.pairs.pairs
    assert loaded.values.view(np.int64).tolist() == matrix.values.view(np.int64).tolist()


def test_save_works_in_chunks_with_one_text_per_bit_pattern(tmp_path):
    """More rows than one write chunk, and -0.0 next to 0.0."""
    rng = np.random.default_rng(0)
    values = rng.choice([0.0, -0.0, 0.5, 1e16, 5e-324], size=(5000, 3))
    values[:, 2] = rng.normal(size=5000)
    matrix = FeatureMatrix(("a", "b", "c"), values, coded([(f"q{i // 7}", f"p{i}") for i in range(5000)]))
    matrix.save(tmp_path / "new.csv")
    reference_save(matrix, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert outcome(new_load, tmp_path / "new.csv") == outcome(reference_load, tmp_path / "new.csv")


@pytest.mark.parametrize("fault", ["blank line", "short row", "extra cell", *BAD_CELLS])
@settings(PROPERTY, max_examples=25)
@given(matrix=matrices(min_rows=1), data=st.data())
def test_corrupt_file_fails_like_the_reference(tmp_path_factory, fault, matrix, data):
    """A blank line, a short row or an extra cell at a drawn row, or a drawn cell set to `fault`."""
    tmp = tmp_path_factory.mktemp("corrupt")
    path = tmp / "f.csv"
    matrix.save(path)
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    i = data.draw(st.integers(1, len(rows) - (fault != "blank line")), label="row")
    if fault == "blank line":
        rows.insert(i, [])
    elif fault == "short row":
        rows[i] = rows[i][:-1]
    elif fault == "extra cell":
        rows[i] = rows[i] + ["1.0"]
    else:
        rows[i][data.draw(st.integers(2, len(rows[i]) - 1), label="column")] = fault
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    path.write_text(text.getvalue(), encoding="utf-8", newline="")
    assert outcome(new_load, path) == outcome(reference_load, path)


def row_reader_load(path, names):
    """Values and pairs through the per-row reader alone; its ParseError as (type, message)."""
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        try:
            values, query_id, product_id = _load_rows(path, reader, names)
        except ParseError as exc:
            return ParseError, str(exc)
    return values.view(np.int64).tolist(), tuple(zip(query_id, product_id))


@PROPERTY
@given(matrix=matrices(min_rows=1), data=st.data())
def test_fast_reader_loads_only_what_the_row_reader_loads(tmp_path_factory, matrix, data):
    """Every feature file loads to the same values and pairs through np.loadtxt and the
    per-row reader, or the fast path declines it and the per-row reader decides."""
    tmp = tmp_path_factory.mktemp("differential")
    path = tmp / "f.csv"
    matrix.save(path)
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    for _ in range(data.draw(st.integers(0, 2), label="faults")):
        cell = data.draw(CELLS, label="cell")
        i = data.draw(st.integers(1, len(rows) - 1), label="row")
        rows[i][data.draw(st.sampled_from(range(len(rows[i]))), label="column")] = cell
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    path.write_text(text.getvalue(), encoding="utf-8", newline="")

    fast = _load_well_formed(path, len(matrix.columns))
    slow = row_reader_load(path, matrix.columns)
    if fast is not None:
        values, query_id, product_id = fast
        assert slow == (values.view(np.int64).tolist(), tuple(zip(query_id, product_id)))
    loaded = outcome(new_load, path)
    assert (loaded == slow) if slow[0] is ParseError else (loaded[1:] == slow)


@pytest.mark.parametrize("where", [1, 2, 3, 4])
def test_blank_line_anywhere_names_file_and_row(tmp_path, where):
    path = tmp_path / "f.csv"
    FeatureMatrix(("a", "b"), np.arange(6.0).reshape(3, 2), Pairs(("q", "q", "q"), ("p1", "p2", "p3"))).save(path)
    lines = path.read_bytes().split(b"\r\n")
    lines.insert(where, b"")
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ParseError, match=f"row {where}: 0 fields, expected 4") as err:
        FeatureMatrix.load(path)
    assert str(path) in str(err.value)


def test_gc_is_enabled_again_after_a_failed_load(tmp_path):
    path = tmp_path / "f.csv"
    FeatureMatrix(("a",), np.ones((2, 1)), Pairs(("q", "q"), ("p1", "p2"))).save(path)
    path.write_text(path.read_text(encoding="utf-8").replace("1.0", "abc", 1), encoding="utf-8")
    assert gc.isenabled()
    with pytest.raises(ParseError, match="row 1"):
        FeatureMatrix.load(path)
    assert gc.isenabled()


def reference_line_stats(path):
    """The three-count line scan that _line_stats replaced, with its jump scan for long rows."""
    data, limit, start = path.read_bytes(), csv.field_size_limit(), 0
    ends = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
    while len(data) - start > limit and (end := data.rfind(b"\n", start, start + limit + 1)) >= 0:
        start = end + 1
    return ends + (not data.endswith((b"\n", b"\r"))), len(data) - start > limit


@contextlib.contextmanager
def field_size_limit(limit):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("final", [True, False], ids=["final line end", "no final line end"])
@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_line_stats_count_each_line_end_kind(tmp_path, end, final):
    path = tmp_path / "f.csv"
    path.write_bytes(end.join([b"query_id,product_id,a", b"q,p,1.0", b"", b"q,r,2.0"]) + (end if final else b""))
    assert _line_stats(path) == reference_line_stats(path) == (4, False)


@PROPERTY
@given(
    text=st.binary(max_size=40).map(lambda b: bytes(b"a,\n\r\t"[x % 5] for x in b)),
    limit=st.integers(1, 8),
    block=st.sampled_from([1, 2, 3, 5, 8, features._SCAN_BYTES]),
)
def test_line_stats_match_the_three_count_scan(tmp_path_factory, text, limit, block):
    """Mixed line ends, empty lines and rows longer or shorter than a (lowered) field size limit,
    read in blocks that split rows and \\r\\n pairs."""
    path = tmp_path_factory.mktemp("lines") / "f.csv"
    path.write_bytes(text)
    with field_size_limit(limit), mock.patch.object(features, "_SCAN_BYTES", block):
        assert _line_stats(path) == reference_line_stats(path)
