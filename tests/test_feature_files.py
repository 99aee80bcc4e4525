"""Feature files: `FeatureMatrix.save`/`load` against the per-cell writer and
per-row reader they replaced, and the binary cache against the CSV path.

`save` writes chunks of rows and formats each distinct float of a chunk
once; `load` goes through dataio.read_table, which parses a well-formed file
in np.loadtxt chunks and sends anything else to the per-row reader. The
references below are those earlier implementations, kept verbatim: the
written bytes must match, a loaded matrix must match bit for bit, and a
corrupt file must fail with the same exception and message. `save` also
writes `<file>.cache`, which `load` reads instead when it matches the file
and its schema; a load through it must equal a load through the CSV path,
and a damaged file or cache must give exactly the CSV path's result. Tests
that rewrite a saved file to compare the two readers delete the cache
first, since a rewrite may leave the bytes as they were.
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

from shoprank import dataio, features
from shoprank.dataio import _line_stats
from shoprank.errors import FormatError, ParseError, SchemaError
from shoprank.features import FeatureMatrix
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


def cache_of(path):
    return path.parent / (path.name + ".cache")


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


def coded_outcome(load, path):
    """What a loader makes of a file, with its pairs as the id tables and codes they hold."""
    try:
        matrix = load(path)
    except (FormatError, ParseError, SchemaError) as exc:
        return type(exc), str(exc)
    pairs = matrix.pairs
    return (matrix.columns, matrix.values.view(np.int64).tolist(), pairs.queries, pairs.products,
            pairs.query_code.tolist(), pairs.product_code.tolist())


def cache_load(path):
    """FeatureMatrix.load through the cache alone: the CSV path is not called."""
    with mock.patch.object(features, "read_table", side_effect=AssertionError("CSV path taken")):
        return FeatureMatrix.load(path)


def csv_path_outcome(path):
    """What `load` makes of a file through the CSV path: its cache is deleted first."""
    cache_of(path).unlink(missing_ok=True)
    return coded_outcome(FeatureMatrix.load, path)


@PROPERTY
@given(matrix=matrices(), data=st.data(), chunk_rows=st.sampled_from([1, 2, 3]))
def test_cache_loads_what_the_csv_path_loads(tmp_path_factory, matrix, data, chunk_rows):
    """Rows drawn from a matrix (repeats, gaps and any order, so its codes are not first-seen and
    its tables hold ids no row uses), saved a few rows per chunk: the same bytes as the per-cell
    writer, and the same names, value bits, id tables and codes through the cache as through
    the CSV path."""
    rows = data.draw(st.lists(st.integers(0, max(matrix.n_rows - 1, 0)), max_size=8 * (matrix.n_rows > 0)))
    matrix = matrix.restrict_rows(np.array(rows, dtype=np.int64))
    tmp = tmp_path_factory.mktemp("cache")
    with mock.patch.object(features, "_SAVE_CHUNK_ROWS", chunk_rows):
        matrix.save(tmp / "new.csv")
    reference_save(matrix, tmp / "old.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
    cached = coded_outcome(cache_load, tmp / "new.csv")
    assert cached[1] == matrix.values.view(np.int64).tolist()
    assert cached == csv_path_outcome(tmp / "new.csv")


def test_save_writes_the_same_cache_bytes_each_time(tmp_path):
    matrix = FeatureMatrix(("a", "b"), np.arange(6.0).reshape(3, 2), Pairs(("q2", "q1", "q2"), ("p1", "p2", "p3")))
    matrix.save(tmp_path / "one.csv")
    matrix.save(tmp_path / "two.csv")
    matrix.save(tmp_path / "two.csv")
    assert cache_of(tmp_path / "one.csv").read_bytes() == cache_of(tmp_path / "two.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "one.csv", "one.csv.cache", "one.csv.schema", "two.csv", "two.csv.cache", "two.csv.schema"]


HEADER = features._CACHE_HEADER


def set_header(field, value):
    """A damage that sets the header field at index `field` of a cache (see features._CACHE_HEADER)."""
    def damage(path):
        data = bytearray(cache_of(path).read_bytes())
        fields = list(HEADER.unpack_from(data))
        fields[field] = value(fields[field])
        HEADER.pack_into(data, 0, *fields)
        cache_of(path).write_bytes(bytes(data))
    return damage


def edit_bytes(file, edit):
    """A damage that rewrites the bytes of the feature file ("csv"), its cache or its schema."""
    def damage(path):
        target = {"csv": path, "cache": cache_of(path), "schema": path.parent / (path.name + ".schema")}[file]
        target.write_bytes(edit(target.read_bytes()))
    return damage


def flip(at):
    return lambda data: data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


DAMAGES = {
    # A digit of the last value: the file keeps its size.
    "csv byte changed": edit_bytes("csv", lambda data: data[:-3] + bytes([data[-3] ^ 1]) + data[-2:]),
    "csv truncated": edit_bytes("csv", lambda data: data[: len(data) // 2]),
    "csv row appended": edit_bytes("csv", lambda data: data + b"q9,p9,1.0,2.0,3.0\r\n"),
    "cache truncated": edit_bytes("cache", lambda data: data[:-1]),
    "cache cut in the header": edit_bytes("cache", lambda data: data[: HEADER.size - 1]),
    "cache empty": edit_bytes("cache", lambda data: b""),
    "payload byte flipped": edit_bytes("cache", flip(HEADER.size + 3)),
    "payload hash flipped": edit_bytes("cache", flip(-1)),
    "wrong magic": set_header(0, lambda magic: b"SRTC"),
    "wrong version": set_header(1, lambda version: version + 1),
    "csv size off": set_header(2, lambda size: size + 1),
    "csv hash off": set_header(3, lambda digest: bytes(32)),
    "one row too many": set_header(4, lambda rows: rows + 1),
    # Far more rows than memory holds: the length check must come before any allocation.
    "rows past memory": set_header(4, lambda rows: 1 << 60),
    "columns past memory": set_header(5, lambda columns: 1 << 60),
    "names differ from the schema": edit_bytes("schema", lambda data: data.replace(b"b\t", b"x\t")),
    "schema types differ": edit_bytes("schema", lambda data: data.replace(b"real", b"binary")),
    "schema missing": lambda path: (path.parent / (path.name + ".schema")).unlink(),
    "csv missing": lambda path: path.unlink(),
}


@pytest.mark.parametrize("damage", sorted(DAMAGES))
def test_damaged_file_or_cache_loads_as_the_csv_path_does(tmp_path, damage):
    """Each damage gives exactly what the CSV path makes of the same files: the same matrix, or
    the same exception and message."""
    path = tmp_path / "f.csv"
    ids = (("q,1", "p\n1"), ("q2", 'p"2'), ("q,1", "p3"))
    values = np.array([[0.5, -0.0, 1e16], [5e-324, 2.0, 1 / 3], [3.0, 4.0, 7.0]])
    FeatureMatrix(("a", "b", "c"), values, coded(ids)).save(path)
    DAMAGES[damage](path)
    if damage == "csv missing":
        with pytest.raises(FileNotFoundError):
            FeatureMatrix.load(path)
        cache_of(path).unlink()
        with pytest.raises(FileNotFoundError):
            FeatureMatrix.load(path)
        return
    with mock.patch.object(features, "read_table", wraps=features.read_table) as reader:
        loaded = coded_outcome(FeatureMatrix.load, path)
    # Only a changed type column leaves the cache in use; a missing schema fails before either path.
    assert reader.called == (damage not in ("schema types differ", "schema missing"))
    assert loaded == csv_path_outcome(path)


@pytest.mark.parametrize("with_cache", [True, False], ids=["cache", "csv"])
def test_a_column_named_twice_is_a_schema_error(tmp_path, with_cache):
    """A schema and header that list a column a second time (that copy all zeros)."""
    path = tmp_path / "f.csv"
    values = np.column_stack([np.arange(3.0), np.ones(3), np.zeros(3)])
    FeatureMatrix(("p_e_m0", "p_s_m0", "p_e_m0"), values, coded([("q", "p1"), ("q", "p2"), ("q", "p3")])).save(path)
    if not with_cache:
        cache_of(path).unlink()
    with pytest.raises(SchemaError, match="column 'p_e_m0' is listed twice") as err:
        FeatureMatrix.load(path)
    assert str(path) in str(err.value)


def test_an_id_past_the_field_size_limit_gets_no_cache(tmp_path):
    """The CSV path rejects such an id, so a cache would load what the file does not."""
    path = tmp_path / "f.csv"
    FeatureMatrix(("a",), np.ones((1, 1)), coded([("q", "p")])).save(path)
    assert cache_of(path).exists()
    FeatureMatrix(("a",), np.ones((1, 1)), coded([("q", "p" * (csv.field_size_limit() + 1))])).save(path)
    assert not cache_of(path).exists()
    with pytest.raises(ParseError, match="row 1: field larger than field limit"):
        FeatureMatrix.load(path)


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
    cache_of(path).unlink()
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


class Declined(Exception):
    """The fast path handed the file to the per-row reader."""


def fast_load(path):
    """What `load` makes of a file through np.loadtxt alone, or None if the fast path declines it."""
    with mock.patch.object(dataio, "_csv_chunks", side_effect=Declined):
        try:
            return outcome(new_load, path)
        except Declined:
            return None


def row_reader_load(path):
    """What `load` makes of a file through the per-row reader alone."""
    with mock.patch.object(dataio, "_loadtxt_chunks", side_effect=ValueError):
        return outcome(new_load, path)


@PROPERTY
@given(matrix=matrices(min_rows=1), data=st.data(), chunk_rows=st.sampled_from([1, 2, 3, dataio._CHUNK_ROWS]))
def test_fast_reader_loads_only_what_the_row_reader_loads(tmp_path_factory, matrix, data, chunk_rows):
    """Every feature file loads to the same values and pairs, or fails with the same error, through
    np.loadtxt and the per-row reader, or the fast path declines it and the per-row reader decides;
    also with chunks of a few rows."""
    tmp = tmp_path_factory.mktemp("differential")
    path = tmp / "f.csv"
    matrix.save(path)
    cache_of(path).unlink()
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    for _ in range(data.draw(st.integers(0, 2), label="faults")):
        cell = data.draw(CELLS, label="cell")
        i = data.draw(st.integers(1, len(rows) - 1), label="row")
        rows[i][data.draw(st.sampled_from(range(len(rows[i]))), label="column")] = cell
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    path.write_text(text.getvalue(), encoding="utf-8", newline="")

    with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
        fast, slow, loaded = fast_load(path), row_reader_load(path), outcome(new_load, path)
    assert fast in (None, slow)
    assert loaded == slow


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
    block=st.sampled_from([1, 2, 3, 5, 8, dataio._SCAN_BYTES]),
)
def test_line_stats_match_the_three_count_scan(tmp_path_factory, text, limit, block):
    """Mixed line ends, empty lines and rows longer or shorter than a (lowered) field size limit,
    read in blocks that split rows and \\r\\n pairs."""
    path = tmp_path_factory.mktemp("lines") / "f.csv"
    path.write_bytes(text)
    with field_size_limit(limit), mock.patch.object(dataio, "_SCAN_BYTES", block):
        assert _line_stats(path) == reference_line_stats(path)
