"""Feature families computed per query-product pair.

Five engineered families plus raw probability passthrough:

- leakage: fraction of the group's products that appear in the T1 product list;
- product_count: number of candidate products of the query;
- isbn: digit-leading product id flag, and whether the group has any;
- brand: distinct brand count in the group, most-frequent-brand flag;
- group_stats: min/median/max of each class probability over the group, per model.

Column order is canonical and fixed: the six scalar features above, then the
four class probabilities per model, then the twelve group statistics per
model. Group-level values are broadcast to every row of their group. A
matrix's rows are coded Pairs (see model.Pairs): an assembled matrix holds
its example set, and a loaded one codes the file's two id columns once.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dataio import read_table, read_text, regular_file
from .errors import FormatError, ParseError, SchemaError, ValidationError
from .model import (
    CLASS_ORDER,
    Catalog,
    ExampleSet,
    Pairs,
    ProbTable,
    first_repeat_row,
    first_seen_codes,
    first_seen_key_codes,
    gc_paused,
)

#: Family names accepted by ablation runs and CLI feature toggles.
FEATURE_FAMILIES = ("leakage", "product_count", "isbn", "brand", "group_stats")

_SCALAR_COLUMNS = (
    "t1_membership_ratio",
    "query_product_count",
    "is_isbn",
    "group_has_isbn",
    "brand_unique_count",
    "is_most_frequent_brand",
)
_CLASS_CODES = tuple(lab.value.lower() for lab in CLASS_ORDER)  # e, s, c, i
_STATS = ("min", "med", "max")

_FAMILY_OF_SCALAR = {
    "t1_membership_ratio": "leakage",
    "query_product_count": "product_count",
    "is_isbn": "isbn",
    "group_has_isbn": "isbn",
    "brand_unique_count": "brand",
    "is_most_frequent_brand": "brand",
}


def canonical_columns(n_models: int) -> tuple[str, ...]:
    cols = list(_SCALAR_COLUMNS)
    for m in range(n_models):
        cols.extend(f"p_{c}_m{m}" for c in _CLASS_CODES)
    for m in range(n_models):
        for c in _CLASS_CODES:
            cols.extend(f"g_{c}_{stat}_m{m}" for stat in _STATS)
    return tuple(cols)


def column_family(name: str) -> str | None:
    """Family owning a column; None for raw probability passthrough."""
    if name in _FAMILY_OF_SCALAR:
        return _FAMILY_OF_SCALAR[name]
    if name.startswith("g_"):
        return "group_stats"
    return None


def column_type(name: str) -> str:
    if name in ("is_isbn", "group_has_isbn", "is_most_frequent_brand"):
        return "binary"
    if name in ("query_product_count", "brand_unique_count"):
        return "integer"
    return "real"


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense feature rows aligned to coded (query_id, product_id) pairs, row i to pair i.

    A matrix must only ever meet a model trained on the same column list;
    select/restrict_rows produce derived matrices that keep the pair alignment.
    """

    columns: tuple[str, ...]
    values: np.ndarray  # (n_rows, n_columns) float64
    pairs: Pairs

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape != (len(self.pairs), len(self.columns)):
            raise ValidationError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.pairs)} pairs x {len(self.columns)} columns"
            )
        if not np.isfinite(self.values).all():
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise ValidationError(
                f"non-finite feature value at row {bad[0]}, column {self.columns[bad[1]]!r}"
            )

    @property
    def n_rows(self) -> int:
        return len(self.pairs)

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise SchemaError(f"no column named {name!r}") from None
        return self.values[:, idx]

    def select(self, names: Sequence[str]) -> "FeatureMatrix":
        """Sub-matrix with the given columns, in the given order."""
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise SchemaError(f"cannot select missing column(s) {missing}")
        idx = [self.columns.index(n) for n in names]
        return FeatureMatrix(tuple(names), self.values[:, idx], self.pairs)

    def drop_family(self, family: str) -> "FeatureMatrix":
        if family not in FEATURE_FAMILIES:
            raise SchemaError(f"unknown feature family {family!r}; expected one of {FEATURE_FAMILIES}")
        keep = [c for c in self.columns if column_family(c) != family]
        return self.select(keep)

    def restrict_rows(self, rows: np.ndarray) -> "FeatureMatrix":
        """The rows a boolean mask selects, or the given row indices in their order."""
        rows = np.asarray(rows)
        return FeatureMatrix(self.columns, self.values[rows], self.pairs.take(rows))

    @gc_paused()
    def save(self, path: str | Path) -> None:
        """Write rows plus a sidecar `<path>.schema` naming column types, and a binary copy
        `<path>.cache` that `load` reads in place of the rows while it matches them.

        Each cell is `repr` of its float. Rows go out in chunks, and a chunk
        formats each distinct bit pattern once (so -0.0 keeps its sign).
        """
        path = Path(path)
        csv_hash, csv_size = _sha256(), 0
        with path.open("wb") as handle:
            for text in self._csv_text():
                data = text.encode("utf-8")
                csv_hash.update(data)
                csv_size += handle.write(data)
        schema = Path(str(path) + ".schema")
        with schema.open("w", encoding="utf-8") as handle:
            for name in self.columns:
                handle.write(f"{name}\t{column_type(name)}\n")
        self._save_cache(path, csv_size, csv_hash.digest())

    def _csv_text(self) -> Iterator[str]:
        """The text of the feature file: its header, then a chunk of rows at a time. csv.writer
        writes the header and each row's two ids; a row's cells, float reprs that never need
        quoting, are joined on with str.join."""
        lines: list[str] = []
        writer = csv.writer(SimpleNamespace(write=lines.append))
        writer.writerow(("query_id", "product_id") + self.columns)
        yield lines.pop()
        for start in range(0, self.n_rows, _SAVE_CHUNK_ROWS):
            stop = start + _SAVE_CHUNK_ROWS
            chunk = self.values[start:stop]
            distinct, codes = np.unique(chunk.view(np.int64), return_inverse=True)
            text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
            pairs = self.pairs.take(slice(start, stop))
            writer.writerows(zip(pairs.query_id, pairs.product_id))
            # Each line is a row's two ids and "\r\n".
            rows = zip(lines, text[codes.reshape(chunk.shape)].tolist())
            yield "".join([",".join((ids[:-2], *cells)) + "\r\n" for ids, cells in rows])
            lines.clear()

    def _save_cache(self, path: Path, csv_size: int, csv_sha256: bytes) -> None:
        """Write `<path>.cache` (see _CACHE_HEADER) to a temporary file, then rename it into place.

        The ids are coded as the CSV path codes them: each table holds the distinct ids of the
        rows in first-seen order (the pairs' tables hold distinct ids, so codes compare as ids
        do). A matrix with an id or a name past the csv field size limit, which the CSV path
        rejects, gets no cache.
        """
        cache = Path(f"{path}.cache")
        query_code, queries = _first_seen(self.pairs.query_code, self.pairs.queries)
        product_code, products = _first_seen(self.pairs.product_code, self.pairs.products)
        if max(map(len, chain(queries, products, self.columns)), default=0) > csv.field_size_limit():
            cache.unlink(missing_ok=True)
            return
        tables = (self.columns, queries, products)
        texts = ["".join(table).encode("utf-8") for table in tables]
        payload = [
            np.ascontiguousarray(self.values, dtype="<f8"),
            query_code.astype("<i8"),
            product_code.astype("<i8"),
            *(np.cumsum(list(map(len, table)), dtype="<i8") for table in tables),
            *texts,
        ]
        header = _CACHE_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, csv_size, csv_sha256, self.n_rows,
                                    *map(len, tables), *map(len, texts))
        payload_hash = _sha256()
        temporary = Path(f"{cache}.tmp")
        try:
            with temporary.open("wb") as handle:
                handle.write(header)
                for part in map(memoryview, payload):
                    payload_hash.update(part)
                    handle.write(part)
                handle.write(payload_hash.digest())
            os.replace(temporary, cache)
        finally:
            temporary.unlink(missing_ok=True)

    @classmethod
    @gc_paused()
    def load(cls, path: str | Path) -> "FeatureMatrix":
        """Read a file written by `save`: from its cache when that matches the file and its schema
        (see _load_cache), else through dataio.read_table, where a blank line is a faulty row."""
        schema_path = Path(str(path) + ".schema")
        if not schema_path.exists():
            raise FormatError(f"missing sidecar schema file {schema_path}")
        regular_file(path)  # with a matching cache, read_table never opens it
        lines = [line for line in read_text(schema_path).split("\n") if line]
        malformed = [line for line in lines if line.count("\t") != 1]
        if malformed:
            raise FormatError(f"{schema_path}: malformed line {malformed[0]!r}")
        names = [line.split("\t")[0] for line in lines]
        repeat = first_repeat_row(first_seen_codes(names)[0])
        if repeat >= 0:
            raise SchemaError(f"{path}: column {names[repeat]!r} is listed twice")
        cached = _load_cache(path, names)
        if cached is not None:
            return cls(tuple(names), *cached)

        def value_columns(header: list[str]) -> range:
            if header[:2] != ["query_id", "product_id"]:
                raise FormatError(f"{path}: header must start with query_id, product_id")
            if header[2:] != names:
                raise SchemaError(f"{path}: columns disagree with sidecar schema")
            return range(2, len(header))

        ids, values = read_table(path, value_columns, repeated=("query_id",), blank_rows=True)
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            row, column = bad[0]
            raise ParseError(f"{path}: row {row + 1}: non-finite value in column {names[column]!r}")
        return cls(tuple(names), values, Pairs(ids["query_id"], ids["product_id"]))


#: Rows per chunk in FeatureMatrix.save; bounds the cells held as text at once.
_SAVE_CHUNK_ROWS = 2048

#: A feature file's cache starts with: magic, version, the feature file's size and SHA-256,
#: the counts of rows, columns, queries and products, and the UTF-8 bytes of the column names,
#: the query ids and the product ids. Then come, all little-endian: the float64 values (rows x
#: columns), the int64 query and product codes of the rows, the int64 character end of each
#: name, query id and product id in its table's joined text, and the three joined texts in
#: UTF-8. The SHA-256 of all that after the header ends the file.
_CACHE_HEADER = struct.Struct("<4sIQ32s7Q")
_CACHE_MAGIC = b"SRFM"
_CACHE_VERSION = 1
#: Bytes per read while a feature file is hashed.
_HASH_BLOCK = 1 << 20


def _first_seen(codes: np.ndarray, table: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """codes recoded densely in first-seen order, and the ids of table they now index."""
    recoded, firsts = first_seen_key_codes(codes)
    return recoded, tuple(map(table.__getitem__, codes[firsts].tolist()))


def _load_cache(path: str | Path, names: list[str]) -> tuple[np.ndarray, Pairs] | None:
    """The values and pairs `<path>.cache` holds, or None unless every check holds: the header's
    counts give the cache's length (checked before its payload is read), the payload's hash
    matches, its names are `names`, and the size and SHA-256 of the feature file at path are
    the ones it was written from. The values and codes stay in the buffer they are read into."""
    try:
        with regular_file(f"{path}.cache").open("rb") as handle:
            head = handle.read(_CACHE_HEADER.size)
            if len(head) != _CACHE_HEADER.size:
                return None
            magic, version, csv_size, csv_sha256, rows, columns, n_queries, n_products, *text_bytes = (
                _CACHE_HEADER.unpack(head))
            n_ends = columns + n_queries + n_products
            arrays, tail = 8 * (rows * columns + 2 * rows), 8 * n_ends + sum(text_bytes) + 32
            if (magic, version) != (_CACHE_MAGIC, _CACHE_VERSION) or csv_size != os.stat(path).st_size:
                return None
            if os.fstat(handle.fileno()).st_size != _CACHE_HEADER.size + arrays + tail:
                return None
            buffer = bytearray(arrays)
            if handle.readinto(buffer) != arrays or len(rest := handle.read()) != tail:
                return None
        digest = _sha256(buffer)
        digest.update(memoryview(rest)[:-32])
        if digest.digest() != rest[-32:]:
            return None
        at, tables = 8 * n_ends, []
        for ends, n_bytes in zip(np.split(np.frombuffer(rest, "<i8", n_ends), [columns, columns + n_queries]),
                                 text_bytes):
            text = rest[at : at + n_bytes].decode("utf-8")
            bounds = [0, *ends.tolist()]
            if bounds[-1] != len(text) or bounds != sorted(bounds):
                return None
            tables.append(tuple(map(text.__getitem__, map(slice, bounds[:-1], bounds[1:]))))
            at += n_bytes
        if list(tables[0]) != names or _file_sha256(path) != csv_sha256:
            return None
    except (OSError, UnicodeDecodeError):
        return None
    values = np.frombuffer(buffer, "<f8", rows * columns).reshape(rows, columns)
    query_code, product_code = np.frombuffer(buffer, "<i8", 2 * rows, 8 * rows * columns).reshape(2, rows)
    if not all(0 <= code.min(initial=0) and code.max(initial=-1) < n
               for code, n in ((query_code, n_queries), (product_code, n_products))):
        return None
    return values, Pairs.of_codes(query_code, tables[1], product_code, tables[2])


def _sha256(data=b""):
    """A SHA-256 hash object of data. hashlib is imported on first use: it loads OpenSSL, which
    adds about 3.5 MB to the RSS of a process, so only feature-file I/O pays for it."""
    import hashlib

    return hashlib.sha256(data)


def _file_sha256(path: str | Path) -> bytes:
    """SHA-256 of a file's bytes, read a block at a time."""
    digest = _sha256()
    with open(path, "rb") as handle:
        while block := handle.read(_HASH_BLOCK):
            digest.update(block)
    return digest.digest()


@gc_paused()
def assemble_features(
    examples: ExampleSet,
    catalog: Catalog,
    probs: ProbTable,
    t1_products: Iterable[str],
) -> FeatureMatrix:
    """One row per example, in example order, canonical column order.

    Raises an input-incompleteness error naming pairs without probability
    vectors; group-level features are identical across a group's rows.
    Per-query values are segment reductions over the rows in query order.
    """
    if len(examples) == 0:
        raise ValidationError("cannot assemble features for an empty example set")
    p = probs.align(examples)  # (n, M, 4)
    n, n_models = p.shape[:2]
    rows, query = examples.order, examples.query_code
    starts, sizes = examples.offsets[:-1], np.diff(examples.offsets)

    product_id = examples.product_id
    catalog_rows = examples.product_code if examples.catalog is catalog else catalog.rows(product_id)
    brand_code, brands = first_seen_codes(list(map(catalog.brand.__getitem__, catalog_rows.tolist())))
    t1_set = frozenset(t1_products)
    in_t1 = np.fromiter(map(t1_set.__contains__, product_id), dtype=np.int64, count=n)
    first_chars = map(itemgetter(0), product_id)
    is_isbn = np.fromiter(map(str.isdigit, first_chars), dtype=bool, count=n)
    # One code per (query, brand); its row count is the brand's frequency in the query.
    query_brands, brand_of_row, brand_freq = np.unique(
        query * len(brands) + brand_code, return_inverse=True, return_counts=True
    )
    brand_freq = brand_freq[brand_of_row]
    scalars = [
        (np.add.reduceat(in_t1[rows], starts) / sizes)[query],
        sizes[query],
        is_isbn,
        np.maximum.reduceat(is_isbn[rows], starts)[query],
        np.bincount(query_brands // len(brands), minlength=len(sizes))[query],
        brand_freq == np.maximum.reduceat(brand_freq[rows], starts)[query],
    ]
    # Filled a column at a time, so no (rows x columns) temporary is made besides the matrix.
    names = canonical_columns(n_models)
    values = np.empty((n, len(names)))
    per_query = (column[query] for column in _group_stats(p, rows, starts, sizes, query).T)
    for j, column in enumerate(chain(scalars, p.reshape(n, -1).T, per_query)):
        values[:, j] = column
    return FeatureMatrix(names, values, examples)


def _group_stats(
    p: np.ndarray, rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray, query: np.ndarray
) -> np.ndarray:
    """Per query, (min, median, max) of each model's class probabilities: (queries, models x 4 x 3)."""
    grouped = p[rows]
    low = np.minimum.reduceat(grouped, starts, axis=0)
    high = np.maximum.reduceat(grouped, starts, axis=0)
    # Median: sort every (model, class) column within its query, then take the
    # central order statistic, or the midpoint of the two for even sizes.
    flat = grouped.reshape(len(rows), -1)
    segment = query[rows]
    in_order = np.column_stack([col[np.lexsort((col, segment))] for col in flat.T])
    below, above = in_order[starts + (sizes - 1) // 2], in_order[starts + sizes // 2]
    median = np.where((sizes % 2 == 1)[:, None], above, (below + above) / 2.0).reshape(low.shape)
    return np.stack([low, median, high], axis=-1).reshape(len(sizes), -1)
