"""Feature families computed per query-product pair.

Five engineered families plus raw probability passthrough:

- leakage: fraction of the group's products that appear in the T1 product list;
- product_count: number of candidate products of the query;
- isbn: digit-leading product id flag, and whether the group has any;
- brand: distinct brand count in the group, most-frequent-brand flag;
- group_stats: min/median/max of each class probability over the group, per model.

Column order is canonical and fixed: the six scalar features above, then the
four class probabilities per model, then the twelve group statistics per
model. Group-level values are broadcast to every row of their group.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Iterable, Mapping, Sequence

import numpy as np

from .errors import FormatError, IncompleteInputError, ParseError, SchemaError, ValidationError
from .model import (
    CLASS_ORDER,
    Catalog,
    ExampleSet,
    PairKey,
    ProbVector,
    QueryGroup,
    build_groups,
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


def t1_membership_ratio(group: QueryGroup, t1_products: AbstractSet[str]) -> float:
    """Share of the group's members found in the Task 1 product set."""
    hits = sum(1 for m in group.members if m.product_id in t1_products)
    return hits / group.size


def query_product_count(group: QueryGroup) -> int:
    return group.size


def isbn_flags(group: QueryGroup) -> list[tuple[int, int]]:
    """Per member: (digit-leading id flag, any-member-digit-leading flag)."""
    flags = [1 if m.product_id[0].isdigit() else 0 for m in group.members]
    has = 1 if any(flags) else 0
    return [(f, has) for f in flags]


def brand_features(group: QueryGroup, catalog: Catalog) -> list[tuple[int, int]]:
    """Per member: (distinct brand count in group, most-frequent-brand flag).

    Empty brand strings count as a brand of their own; frequency ties flag
    every tied brand's members.
    """
    brands = [catalog.get(m.product_id).brand for m in group.members]
    freq: dict[str, int] = {}
    for b in brands:
        freq[b] = freq.get(b, 0) + 1
    top = max(freq.values())
    unique = len(freq)
    return [(unique, 1 if freq[b] == top else 0) for b in brands]


def group_prob_stats(group: QueryGroup, model_index: int) -> dict[str, float]:
    """min/median/max of each class probability over the group for one model.

    Even member counts take the midpoint of the two central order statistics.
    """
    if not group.prob_vectors or model_index >= group.n_models:
        raise IncompleteInputError(
            f"group {group.query_id!r} lacks probability vectors for model {model_index}"
        )
    arr = np.array(
        [vecs[model_index].as_array() for vecs in group.prob_vectors], dtype=np.float64
    )
    out: dict[str, float] = {}
    for ci, code in enumerate(_CLASS_CODES):
        col = np.sort(arr[:, ci])
        n = len(col)
        if n % 2:
            med = float(col[n // 2])
        else:
            med = float((col[n // 2 - 1] + col[n // 2]) / 2.0)
        out[f"g_{code}_min_m{model_index}"] = float(col[0])
        out[f"g_{code}_med_m{model_index}"] = med
        out[f"g_{code}_max_m{model_index}"] = float(col[-1])
    return out


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense feature rows aligned to (query_id, product_id) pairs.

    A matrix must only ever meet a model trained on the same column list;
    select/permute produce derived matrices that keep the pair alignment.
    """

    columns: tuple[str, ...]
    values: np.ndarray  # (n_rows, n_columns) float64
    pairs: tuple[PairKey, ...]

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
        return FeatureMatrix(tuple(names), self.values[:, idx].copy(), self.pairs)

    def drop_family(self, family: str) -> "FeatureMatrix":
        if family not in FEATURE_FAMILIES:
            raise SchemaError(f"unknown feature family {family!r}; expected one of {FEATURE_FAMILIES}")
        keep = [c for c in self.columns if column_family(c) != family]
        return self.select(keep)

    def restrict_rows(self, mask: np.ndarray) -> "FeatureMatrix":
        mask = np.asarray(mask, dtype=bool)
        pairs = tuple(p for p, keep in zip(self.pairs, mask) if keep)
        return FeatureMatrix(self.columns, self.values[mask].copy(), pairs)

    def save(self, path: str | Path) -> None:
        """Write rows plus a sidecar `<path>.schema` naming column types."""
        path = Path(path)
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("query_id", "product_id") + self.columns)
            for (qid, pid), row in zip(self.pairs, self.values):
                writer.writerow([qid, pid] + [repr(float(v)) for v in row])
        schema = Path(str(path) + ".schema")
        with schema.open("w", encoding="utf-8") as handle:
            for name in self.columns:
                handle.write(f"{name}\t{column_type(name)}\n")

    @classmethod
    def load(cls, path: str | Path) -> "FeatureMatrix":
        path = Path(path)
        schema_path = Path(str(path) + ".schema")
        if not schema_path.exists():
            raise FormatError(f"missing sidecar schema file {schema_path}")
        names: list[str] = []
        with schema_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise FormatError(f"{schema_path}: malformed line {line!r}")
                names.append(parts[0])
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
        return cls(tuple(names), values, tuple(pairs))


def assemble_features(
    examples: ExampleSet,
    catalog: Catalog,
    probs: Mapping[PairKey, Sequence[ProbVector]],
    t1_products: Iterable[str],
) -> FeatureMatrix:
    """One row per example, in example order, canonical column order.

    Raises an input-incompleteness error naming pairs without probability
    vectors; group-level features are identical across a group's rows.
    """
    groups = build_groups(examples, probs)
    if not groups:
        raise ValidationError("cannot assemble features for an empty example set")
    n_models = groups[0].n_models
    for g in groups:
        if g.n_models != n_models:
            raise SchemaError(
                f"group {g.query_id!r} has {g.n_models} models, expected {n_models}"
            )
    columns = canonical_columns(n_models)
    col_index = {name: i for i, name in enumerate(columns)}
    row_index = {pair: i for i, pair in enumerate(examples.pairs)}
    t1_set = set(t1_products)

    values = np.empty((len(examples), len(columns)), dtype=np.float64)
    for group in groups:
        ratio = t1_membership_ratio(group, t1_set)
        count = float(query_product_count(group))
        isbn = isbn_flags(group)
        brand = brand_features(group, catalog)
        stats: dict[str, float] = {}
        for m in range(n_models):
            stats.update(group_prob_stats(group, m))
        for mi, member in enumerate(group.members):
            row = values[row_index[(group.query_id, member.product_id)]]
            row[col_index["t1_membership_ratio"]] = ratio
            row[col_index["query_product_count"]] = count
            row[col_index["is_isbn"]] = isbn[mi][0]
            row[col_index["group_has_isbn"]] = isbn[mi][1]
            row[col_index["brand_unique_count"]] = brand[mi][0]
            row[col_index["is_most_frequent_brand"]] = brand[mi][1]
            for m in range(n_models):
                vec = group.prob_vectors[mi][m]
                row[col_index[f"p_e_m{m}"]] = vec.p_e
                row[col_index[f"p_s_m{m}"]] = vec.p_s
                row[col_index[f"p_c_m{m}"]] = vec.p_c
                row[col_index[f"p_i_m{m}"]] = vec.p_i
            for name, value in stats.items():
                row[col_index[name]] = value

    return FeatureMatrix(columns, values, examples.pairs)
