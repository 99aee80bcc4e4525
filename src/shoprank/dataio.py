"""Delimiter-separated ingestion and emission for catalogs, examples, probabilities, and splits.

All files are UTF-8 text with a header row (read_table also reads a file
without one, given its column names). Loading is strict: missing columns,
duplicate keys, and malformed values raise typed errors instead of being
coerced. Rows are moved into columns a chunk at a time; example and
probability files end as integer-coded pairs (see model.Pairs), with product
codes that are catalog rows when a catalog is given.
"""

from __future__ import annotations

import codecs
import csv
import os
import stat
import warnings
from itertools import chain, islice
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import (
    ConfigurationError,
    DuplicateKeyError,
    ParseError,
    ReferentialError,
    SchemaError,
    ValidationError,
)
from .model import (
    CLASS_ORDER,
    N_CLASSES,
    Catalog,
    EsciLabel,
    ExampleSet,
    FoldAssignment,
    Pairs,
    ProbTable,
    first_repeat_row,
    first_seen_key_codes,
    gc_paused,
)

DELIMITER = ","

CATALOG_COLUMNS = ("product_id", "title", "brand", "color", "locale")
EXAMPLE_COLUMNS = ("query_id", "query", "product_id", "locale")
PROB_COLUMNS = ("query_id", "product_id", "model", "p_e", "p_s", "p_c", "p_i")
SPLIT_COLUMNS = ("query_id", "split")
#: esci_label cell of each class index, and "" at index -1 (unlabelled).
_CODE_AT = (*(label.value for label in CLASS_ORDER), "")

#: Corpus roles a query can play; only "train" rows ever reach a training matrix.
SPLIT_NAMES = ("train", "private", "public")


#: Rows per chunk of either reader; bounds the per-row objects alive at once.
_CHUNK_ROWS = 1 << 11
#: Bytes per block of the line scan in _line_stats; its arrays are about this size.
_SCAN_BYTES = 1 << 18


def regular_file(path: str | Path) -> Path:
    """path, once os.stat shows that it names a regular file: reading a device or a FIFO may block
    or never end. A path that names nothing is the OSError os.stat raises."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ConfigurationError(f"{path}: not a regular file")
    return Path(path)


def read_text(path: str | Path) -> str:
    """The text of a small UTF-8 file that regular_file accepts; a byte that is not UTF-8 is a
    ParseError naming its 1-based line, as str.splitlines numbers the text before it."""
    data = regular_file(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None


def _line_stats(path: str | Path, header: bool = True) -> tuple[int, bool]:
    """Lines as universal newlines split them (at \\n, \\r or \\r\\n), and whether more bytes in a
    row than the csv field size limit hold no \\n; one scan, a block of the file's bytes at a time.
    run carries the bytes after a block's last \\n into the next, and last its last byte.

    The blocks also pass through an incremental UTF-8 decoder, whose text is dropped: a byte that
    is not UTF-8 is a ParseError naming its 1-based row, counted from the line after the header
    when the file has one (header), before any parse. The scan then stops at that byte, so ends
    counts the line ends before it."""
    limit, ends, run, long_line, last = csv.field_size_limit(), 0, 0, False, b""
    decoder, bad = codecs.getincrementaldecoder("utf-8")(), None
    with regular_file(path).open("rb") as handle:
        while block := handle.read(_SCAN_BYTES):
            pending = len(decoder.getstate()[0])  # the bytes of a character the last block cut
            try:
                decoder.decode(block)
            except UnicodeDecodeError as exc:
                block, bad = block[: max(exc.start - pending, 0)], exc.reason
            codes = np.frombuffer(block, dtype=np.uint8)
            low = np.flatnonzero(codes <= 13)  # \n is 10 and \r 13; the other control bytes are dropped next
            newline, cr = low[codes[low] == 10], low[codes[low] == 13]
            crlf = np.count_nonzero(codes[cr[cr + 1 < codes.size] + 1] == 10) + (last + block[:1] == b"\r\n")
            ends += int(newline.size + cr.size - crlf)
            stretches = np.diff(newline, prepend=-1 - run, append=codes.size) - 1  # bytes between \n's
            long_line |= bool(stretches[:-1].max(initial=0) > limit)
            run, last = int(stretches[-1]), block[-1:]
            if bad is not None:
                break
        else:
            try:
                decoder.decode(b"", final=True)
            except UnicodeDecodeError as exc:
                bad = exc.reason
    if bad is not None:
        row = ends + 1 - header
        raise ParseError(f"{path}: {f'row {row}' if row else 'header'}: not UTF-8 text ({bad})")
    return ends + (last not in (b"\n", b"\r")), long_line or run > limit


def _loadtxt_chunks(handle: TextIO, header: Sequence[str], at: Sequence[int], delimiter: str) -> Iterator[list]:
    """The cells of the rest of handle per column, np.loadtxt chunk by chunk: a float64 array for a
    column in at, else a list of strings. loadtxt skips blank lines, raises ValueError on a
    whitespace-only line, a row of another width or a float cell it cannot parse, and passes no
    float cell that float() rejects."""
    dtype = np.dtype([(f"f{i}", float if i in at else object) for i in range(len(header))])
    while True:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a chunk of no rows, or blank lines skipped
            chunk = np.loadtxt(handle, dtype, delimiter=delimiter, quotechar='"', comments=None,
                               max_rows=_CHUNK_ROWS, ndmin=1)
        yield [chunk[name] if i in at else chunk[name].tolist() for i, name in enumerate(dtype.names)]
        if len(chunk) < _CHUNK_ROWS:
            return


def _csv_chunks(
    path: str | Path, reader: Iterator[list[str]], width: int, at: Sequence[int], blank_rows: bool
) -> Iterator[list]:
    """The cells of the csv module's rows per column, a chunk at a time (a float64 array for a
    column in at), then a ParseError naming the 1-based data row of a fault: a row the csv module
    rejects (a cell past its field size limit, say), a row of another width than the header's, or
    a float cell float() rejects. With blank_rows the first faulty row is named, else the first row
    with the first of those kinds that occurs."""
    rows, done, first = reader if blank_rows else filter(None, reader), 0, {}
    while True:
        chunk, clean = [], not first
        try:
            chunk.extend(islice(rows, _CHUNK_ROWS))  # on a csv.Error, chunk holds the rows before it
        except csv.Error as exc:
            first[0] = (done + len(chunk) + 1, str(exc))
        cut = next((row for row, cells in enumerate(chunk) if len(cells) != width), len(chunk))
        if cut < len(chunk):
            first.setdefault(1, (done + cut + 1, f"{len(chunk[cut])} fields, expected {width}"))
        good = chunk[:cut]
        floats = []
        try:
            floats.extend(float(cells[i]) for cells in (good if clean else ()) for i in at)  # row-major
        except ValueError as exc:  # floats holds the cells before it
            first[2] = (done + len(floats) // len(at) + 1, str(exc))
        if clean and good and 2 not in first:
            columns, block = list(zip(*good)), np.reshape(floats, (len(good), len(at)))
            yield [block[:, at.index(i)] if i in at else cells for i, cells in enumerate(columns)]
        done += len(chunk)
        if len(chunk) < _CHUNK_ROWS:
            break
    if first:
        row, message = min(first.values()) if blank_rows else first[min(first)]
        raise ParseError(f"{path}: row {row}: {message}")


def _fill(
    chunks: Iterator[list], header: list[str], at: Sequence[int], repeated: Sequence[str], capacity: int
) -> tuple[dict[str, tuple[str, ...]], np.ndarray]:
    """The text columns by name (a name given twice is its last column; one string per distinct
    cell in a `repeated` one) and one (rows, len(at)) array of the float columns at, from chunks
    of cells per column."""
    values, rows = np.empty((capacity, len(at))), 0
    text = {i: [] for i in range(len(header)) if i not in at}
    distinct = {i: {} for i in text if header[i] in repeated}
    for columns in chunks:
        for j, i in enumerate(at):
            values[rows : rows + len(columns[0]), j] = columns[i]
        for i, part in text.items():
            part.append(tuple(map(distinct[i].setdefault, columns[i], columns[i])) if i in distinct else columns[i])
        rows += len(columns[0])
    return {header[i]: tuple(chain.from_iterable(part)) for i, part in text.items()}, values[:rows]


@gc_paused()
def read_table(
    path: str | Path,
    float_columns: Callable[[list[str]], Sequence[int]],
    repeated: Sequence[str] = (),
    blank_rows: bool = False,
    delimiter: str = DELIMITER,
    names: Sequence[str] = (),
) -> tuple[dict[str, tuple[str, ...]], np.ndarray]:
    """The cells of each text column of a delimited file by header name, and its float columns as
    one (rows, columns) array.

    float_columns(header) checks the header row and gives the positions of the float columns.
    A file without a header row is read with its column names given as names.
    Blank lines are skipped, or with blank_rows are rows of 0 fields. The rows go through
    np.loadtxt a chunk at a time. A file loadtxt rejects, or with a line past the csv field
    size limit or more lines than any header plus rows (a blank line, or a line break inside
    quotes, so a cell may pass the limit), is read again by the csv module's per-row reader,
    which names any faulty row.
    """
    lines, long_line = _line_stats(path, not names)
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = list(names) or next(reader, [])
        except csv.Error as exc:
            raise ParseError(f"{path}: header: {exc}") from None
        at, capacity = float_columns(header), max(lines - (not names), 0)
        try:
            chunks = _loadtxt_chunks(handle, header, at, delimiter)
            table = None if long_line else _fill(chunks, header, at, repeated, capacity)
        except ValueError:
            table = None
        if table is None or len(table[1]) != capacity:
            handle.seek(0)
            if not names:
                next(reader)
            table = _fill(_csv_chunks(path, reader, len(header), at, blank_rows), header, at, repeated, capacity)
    return table


def _read_columns(
    path: str | Path, required: Sequence[str], repeated: Sequence[str] = (), floats: Sequence[str] = ()
) -> tuple[dict[str, tuple[str, ...]], np.ndarray]:
    """read_table with the required columns checked, and the `floats` columns in that order (a
    name given twice is its last column)."""

    def float_columns(header: list[str]) -> list[int]:
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column(s) {missing}")
        position = {name: i for i, name in enumerate(header)}
        return [position[name] for name in floats]

    return read_table(path, float_columns, repeated)


def _cell_codes(path: str | Path, cells: Sequence[str], code: Callable[[str], object]) -> Iterator:
    """An iterator over code(cell) of each cell, called once per distinct cell; the first cell code
    rejects is a ParseError naming its 1-based row."""
    code_of = {}
    for cell in dict.fromkeys(cells):
        try:
            code_of[cell] = code(cell)
        except (ValueError, ValidationError) as exc:
            raise ParseError(f"{path}: row {cells.index(cell) + 1}: {exc}") from None
    return map(code_of.__getitem__, cells)


@gc_paused()
def load_catalog(path: str | Path) -> Catalog:
    """Read a product catalog; a product's row is its position in the file."""
    col, _ = _read_columns(path, CATALOG_COLUMNS, repeated=("brand", "color", "locale"))
    try:
        return Catalog(*(col[name] for name in CATALOG_COLUMNS))
    except (ValidationError, DuplicateKeyError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_rows(path: str | Path, rows: Iterable[Sequence], **dialect) -> None:
    """Rows to a UTF-8 file through csv.writer, with DELIMITER and "\\r\\n" line ends unless dialect
    names others; a cell holding the delimiter, a quote, \\n or \\r is quoted. csv.writer quotes \\r
    only when its line end holds one, so another line end is cut from its "\\r\\n" ones."""
    end = dialect.pop("lineterminator", "\r\n")
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        out = handle if end == "\r\n" else SimpleNamespace(write=lambda line: handle.write(line[:-2] + end))
        csv.writer(out, **{"delimiter": DELIMITER, **dialect}).writerows(rows)


def write_catalog(catalog: Catalog, path: str | Path) -> None:
    write_rows(path, chain([CATALOG_COLUMNS], zip(*(getattr(catalog, name) for name in CATALOG_COLUMNS))))


@gc_paused()
def load_examples(path: str | Path, task: str, catalog: Catalog | None = None) -> ExampleSet:
    """Read query-product pairs of the given task.

    The esci_label column is optional; when present, empty cells mean
    unlabeled. Rows failing label parsing report their 1-based data row
    number. With a catalog given, every product_id must resolve in it.
    """
    col, _ = _read_columns(path, EXAMPLE_COLUMNS, repeated=("query_id", "query", "locale", "esci_label"))
    codes = col.get("esci_label", ("",) * len(col["product_id"]))
    labels = _cell_codes(path, codes, lambda code: -1 if code == "" else EsciLabel.from_code(code).index)
    label_index = np.fromiter(labels, dtype=np.int8, count=len(codes))
    try:
        return ExampleSet(*(col[name] for name in EXAMPLE_COLUMNS), label_index, task, catalog)
    except (ValidationError, DuplicateKeyError, ReferentialError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_examples(examples: ExampleSet, path: str | Path) -> None:
    columns = (examples.query_id, examples.query_text, examples.product_id, examples.locale)
    codes = map(_CODE_AT.__getitem__, examples.label_index.tolist())
    write_rows(path, chain([EXAMPLE_COLUMNS + ("esci_label",)], zip(*columns, codes)))


@gc_paused()
def load_probs(path: str | Path) -> ProbTable:
    """Read per-pair, per-model probability vectors.

    Each pair must carry the same set of model indices 0..M-1; a (pair, model)
    combination may appear only once. Every row must hold a distribution:
    finite, nonnegative components summing to 1 within 1e-6.
    """
    try:
        col, p = _read_columns(path, PROB_COLUMNS, ("query_id", "model"), PROB_COLUMNS[3:])
    except ParseError:  # a bad model cell in any row is named before a bad probability cell
        _cell_codes(path, _read_columns(path, PROB_COLUMNS, ("model",))[0]["model"], int)
        raise
    model = list(_cell_codes(path, col["model"], int))
    not_prob = ~(np.isfinite(p) & (p >= 0.0))
    total = p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3]
    bad = np.flatnonzero(not_prob.any(axis=1) | (abs(total - 1.0) > 1e-6))
    if bad.size:
        row = bad[0]
        if not_prob[row].any():
            c = int(np.argmax(not_prob[row]))
            why = f"{PROB_COLUMNS[3 + c]}={float(p[row, c])!r} is not a probability"
        else:
            why = f"probabilities sum to {float(total[row])!r}, expected 1 within 1e-6"
        raise ParseError(f"{path}: row {row + 1}: {why}")

    rows = Pairs(col["query_id"], col["product_id"])
    pair_code, first_rows = first_seen_key_codes(rows.keys())
    models = sorted(set(model))
    code_of = {m: i for i, m in enumerate(models)}
    model_code = np.fromiter(map(code_of.__getitem__, model), dtype=np.int64, count=len(model))
    row = first_repeat_row(pair_code * len(models) + model_code)
    if row >= 0:
        raise DuplicateKeyError(
            f"{path}: row {row + 1}: duplicate (pair, model) {rows.take([row]).pairs[0]}, {model[row]}"
        )
    if (np.bincount(pair_code) != len(models)).any():
        raise SchemaError(f"{path}: pairs disagree on model indices")
    if models != list(range(len(models))):
        raise SchemaError(f"{path}: model indices {models} are not 0..{len(models) - 1}")
    values = np.empty((len(first_rows), len(models), N_CLASSES))
    values[pair_code, model_code] = p
    return ProbTable(rows.take(first_rows), values)


def write_probs(probs: ProbTable, path: str | Path) -> None:
    """Emit probabilities with full float precision (repr round-trips exactly)."""
    n_models = probs.values.shape[1]
    pairs = zip(probs.query_id, probs.product_id)
    keys = ((query_id, product_id, model) for query_id, product_id in pairs for model in range(n_models))
    vectors = probs.values.reshape(-1, N_CLASSES).tolist()
    write_rows(path, chain([PROB_COLUMNS], ((*key, *map(repr, v)) for key, v in zip(keys, vectors))))


def split_folds(examples: ExampleSet, k: int, seed: int) -> FoldAssignment:
    """Partition queries into k folds, sizes differing by at most one.

    Query-wise: all examples of one query share a fold. Deterministic for a
    fixed seed; queries are shuffled, then dealt round-robin.
    """
    if len(examples) == 0:
        raise ConfigurationError("cannot split an empty example set")
    if k < 2:
        raise ConfigurationError(f"fold count must be at least 2, got {k}")
    queries = list(examples.query_ids())
    if k > len(queries):
        raise ConfigurationError(f"fold count {k} exceeds distinct query count {len(queries)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(queries))
    by_query = {queries[int(idx)]: pos % k for pos, idx in enumerate(order)}
    return FoldAssignment(n_folds=k, by_query=by_query)


def write_splits(splits: Mapping[str, str], path: str | Path) -> None:
    """Query-to-split mapping, one row per query, in mapping order."""
    write_rows(path, chain([SPLIT_COLUMNS], splits.items()))


def load_splits(path: str | Path) -> dict[str, str]:
    col, _ = _read_columns(path, SPLIT_COLUMNS)
    splits: dict[str, str] = {}
    for row, (query_id, split) in enumerate(zip(col["query_id"], col["split"]), start=1):
        if split not in SPLIT_NAMES:
            raise ParseError(
                f"{path}: row {row}: unknown split {split!r}; expected one of {SPLIT_NAMES}"
            )
        if query_id in splits:
            raise DuplicateKeyError(f"{path}: row {row}: duplicate query_id")
        splits[query_id] = split
    if not splits:
        raise SchemaError(f"{path}: no split rows")
    return splits
