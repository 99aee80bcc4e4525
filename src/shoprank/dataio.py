"""Delimiter-separated ingestion and emission for catalogs, examples, probabilities, and splits.

All files are UTF-8 text with a header row. Loading is strict: missing
columns, duplicate keys, and malformed values raise typed errors instead of
being coerced.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Sequence

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
    Catalog,
    EsciLabel,
    Example,
    ExampleSet,
    FoldAssignment,
    PairKey,
    Product,
    ProbVector,
)

DELIMITER = ","

CATALOG_COLUMNS = ("product_id", "title", "brand", "color", "locale")
EXAMPLE_COLUMNS = ("query_id", "query", "product_id", "locale")
PROB_COLUMNS = ("query_id", "product_id", "model", "p_e", "p_s", "p_c", "p_i")
SPLIT_COLUMNS = ("query_id", "split")

#: Corpus roles a query can play; only "train" rows ever reach a training matrix.
SPLIT_NAMES = ("train", "private", "public")


def _open_reader(path: str | Path, required: Sequence[str]) -> tuple[csv.DictReader, object]:
    path = Path(path)
    handle = path.open("r", encoding="utf-8", newline="")
    reader = csv.DictReader(handle, delimiter=DELIMITER)
    header = reader.fieldnames or []
    missing = [c for c in required if c not in header]
    if missing:
        handle.close()
        raise SchemaError(f"{path}: missing required column(s) {missing}")
    return reader, handle


def load_catalog(path: str | Path) -> Catalog:
    """Read a product catalog; catalog_index is assigned by file order from 0."""
    reader, handle = _open_reader(path, CATALOG_COLUMNS)
    products = []
    with handle:
        for pos, row in enumerate(reader):
            products.append(
                Product(
                    product_id=row["product_id"],
                    title=row["title"] or "",
                    brand=row["brand"] or "",
                    color=row["color"] or "",
                    locale=row["locale"],
                    catalog_index=pos,
                )
            )
    return Catalog(products)


def write_catalog(catalog: Catalog, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=DELIMITER)
        writer.writerow(CATALOG_COLUMNS)
        for p in catalog:
            writer.writerow([p.product_id, p.title, p.brand, p.color, p.locale])


def load_examples(path: str | Path, task: str, catalog: Catalog | None = None) -> ExampleSet:
    """Read query-product pairs, tagging each with the given task.

    The esci_label column is optional; when present, empty cells mean
    unlabeled. Rows failing label parsing report their 1-based data row
    number. With a catalog given, every product_id must resolve in it.
    """
    reader, handle = _open_reader(path, EXAMPLE_COLUMNS)
    has_label = "esci_label" in (reader.fieldnames or [])
    examples = []
    with handle:
        for rownum, row in enumerate(reader, start=1):
            label = None
            if has_label and row["esci_label"]:
                try:
                    label = EsciLabel.from_code(row["esci_label"])
                except ValidationError as exc:
                    raise ParseError(f"{path}: row {rownum}: {exc}") from None
            if catalog is not None and row["product_id"] not in catalog:
                raise ReferentialError(
                    f"{path}: row {rownum}: product_id {row['product_id']!r} not in catalog"
                )
            examples.append(
                Example(
                    query_id=row["query_id"],
                    query_text=row["query"],
                    product_id=row["product_id"],
                    locale=row["locale"],
                    label=label,
                    task_membership=frozenset({task}),
                )
            )
    return ExampleSet(examples)


def write_examples(examples: ExampleSet, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=DELIMITER)
        writer.writerow(EXAMPLE_COLUMNS + ("esci_label",))
        for ex in examples:
            writer.writerow(
                [
                    ex.query_id,
                    ex.query_text,
                    ex.product_id,
                    ex.locale,
                    ex.label.value if ex.label is not None else "",
                ]
            )


def load_probs(path: str | Path) -> dict[PairKey, tuple[ProbVector, ...]]:
    """Read per-pair, per-model probability vectors.

    Each pair must carry the same set of model indices 0..M-1; a (pair, model)
    combination may appear only once.
    """
    reader, handle = _open_reader(path, PROB_COLUMNS)
    raw: dict[PairKey, dict[int, ProbVector]] = {}
    with handle:
        for rownum, row in enumerate(reader, start=1):
            pair = (row["query_id"], row["product_id"])
            try:
                model = int(row["model"])
                vec = ProbVector(
                    float(row["p_e"]), float(row["p_s"]), float(row["p_c"]), float(row["p_i"])
                )
            except (ValueError, ValidationError) as exc:
                raise ParseError(f"{path}: row {rownum}: {exc}") from None
            per_pair = raw.setdefault(pair, {})
            if model in per_pair:
                raise DuplicateKeyError(f"{path}: row {rownum}: duplicate (pair, model) {pair}, {model}")
            per_pair[model] = vec
    counts = {frozenset(models) for models in raw.values()}
    if len(counts) > 1:
        raise SchemaError(f"{path}: pairs disagree on model indices")
    if counts:
        (indices,) = counts
        expected = set(range(len(indices)))
        if set(indices) != expected:
            raise SchemaError(f"{path}: model indices {sorted(indices)} are not 0..{len(indices) - 1}")
    return {pair: tuple(models[i] for i in range(len(models))) for pair, models in raw.items()}


def write_probs(probs: Mapping[PairKey, Sequence[ProbVector]], path: str | Path) -> None:
    """Emit probabilities with full float precision (repr round-trips exactly)."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=DELIMITER)
        writer.writerow(PROB_COLUMNS)
        for (query_id, product_id), vectors in probs.items():
            for model, v in enumerate(vectors):
                writer.writerow(
                    [query_id, product_id, model, repr(v.p_e), repr(v.p_s), repr(v.p_c), repr(v.p_i)]
                )


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
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=DELIMITER)
        writer.writerow(SPLIT_COLUMNS)
        for query_id, split in splits.items():
            writer.writerow([query_id, split])


def load_splits(path: str | Path) -> dict[str, str]:
    reader, handle = _open_reader(path, SPLIT_COLUMNS)
    splits: dict[str, str] = {}
    with handle:
        for rownum, row in enumerate(reader, start=1):
            if row["split"] not in SPLIT_NAMES:
                raise ParseError(
                    f"{path}: row {rownum}: unknown split {row['split']!r}; "
                    f"expected one of {SPLIT_NAMES}"
                )
            if row["query_id"] in splits:
                raise DuplicateKeyError(f"{path}: row {rownum}: duplicate query_id")
            splits[row["query_id"]] = row["split"]
    if not splits:
        raise SchemaError(f"{path}: no split rows")
    return splits
