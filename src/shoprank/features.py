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
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataio import read_table
from .errors import FormatError, ParseError, SchemaError, ValidationError
from .model import CLASS_ORDER, Catalog, ExampleSet, Pairs, ProbTable, first_seen_codes, gc_paused

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
        """Write rows plus a sidecar `<path>.schema` naming column types.

        Each cell is `repr` of its float. Rows go out in chunks, and a chunk
        formats each distinct bit pattern once (so -0.0 keeps its sign).
        """
        path = Path(path)
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("query_id", "product_id") + self.columns)
            for start in range(0, self.n_rows, _SAVE_CHUNK_ROWS):
                stop = start + _SAVE_CHUNK_ROWS
                chunk = self.values[start:stop]
                distinct, codes = np.unique(chunk.view(np.int64), return_inverse=True)
                text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
                cells = text[codes.reshape(chunk.shape)].tolist()
                pairs = self.pairs.take(slice(start, stop)).pairs
                writer.writerows((qid, pid, *row) for (qid, pid), row in zip(pairs, cells))
        schema = Path(str(path) + ".schema")
        with schema.open("w", encoding="utf-8") as handle:
            for name in self.columns:
                handle.write(f"{name}\t{column_type(name)}\n")

    @classmethod
    @gc_paused()
    def load(cls, path: str | Path) -> "FeatureMatrix":
        """Read a file written by `save` (see dataio.read_table); a blank line is a faulty row."""
        schema_path = Path(str(path) + ".schema")
        if not schema_path.exists():
            raise FormatError(f"missing sidecar schema file {schema_path}")
        lines = [line for line in schema_path.read_text(encoding="utf-8").split("\n") if line]
        malformed = [line for line in lines if line.count("\t") != 1]
        if malformed:
            raise FormatError(f"{schema_path}: malformed line {malformed[0]!r}")
        names = [line.split("\t")[0] for line in lines]

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
