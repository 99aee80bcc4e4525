"""Delimiter-separated ingestion and emission for catalogs, examples, probabilities, and splits.

All files are UTF-8 text with a header row. Loading is strict: missing
columns, duplicate keys, and malformed values raise typed errors instead of
being coerced.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Mapping, Sequence

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
    ProbTable,
    first_seen_codes,
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


@gc_paused()
def _read_columns(path: str | Path, required: Sequence[str]) -> dict[str, tuple[str, ...]]:
    """Cells of a delimited file by header name; blank lines are skipped.

    A row whose width differs from the header's, or that the csv module
    rejects (a cell past its field size limit, say), is a ParseError naming
    its 1-based data row.
    """
    header, rows = None, []
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=DELIMITER)
        try:
            header = next(reader, [])
            missing = [c for c in required if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing required column(s) {missing}")
            rows.extend(filter(None, reader))
        except csv.Error as exc:
            where = "header" if header is None else f"row {len(rows) + 1}"
            raise ParseError(f"{path}: {where}: {exc}") from None
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    bad = np.flatnonzero(widths != len(header))
    if bad.size:
        row = bad[0]
        raise ParseError(f"{path}: row {row + 1}: {widths[row]} fields, expected {len(header)}")
    return dict(zip(header, zip(*rows))) if rows else {name: () for name in header}


def _parse_cells(path: str | Path, columns: Sequence[Sequence[str]], cast: Callable) -> list[list]:
    """cast applied to every cell of each column.

    A cell cast rejects is a ParseError naming its 1-based row.
    """
    try:
        return [list(map(cast, cells)) for cells in columns]
    except ValueError:
        for row, cells in enumerate(zip(*columns), start=1):
            for cell in cells:
                try:
                    cast(cell)
                except ValueError as exc:
                    raise ParseError(f"{path}: row {row}: {exc}") from None
        raise


@gc_paused()
def load_catalog(path: str | Path) -> Catalog:
    """Read a product catalog; a product's row is its position in the file."""
    col = _read_columns(path, CATALOG_COLUMNS)
    try:
        return Catalog(*(col[name] for name in CATALOG_COLUMNS))
    except (ValidationError, DuplicateKeyError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_catalog(catalog: Catalog, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=DELIMITER)
        writer.writerow(CATALOG_COLUMNS)
        writer.writerows(zip(*(getattr(catalog, name) for name in CATALOG_COLUMNS)))


@gc_paused()
def load_examples(path: str | Path, task: str, catalog: Catalog | None = None) -> ExampleSet:
    """Read query-product pairs of the given task.

    The esci_label column is optional; when present, empty cells mean
    unlabeled. Rows failing label parsing report their 1-based data row
    number. With a catalog given, every product_id must resolve in it.
    """
    col = _read_columns(path, EXAMPLE_COLUMNS)
    product_id = col["product_id"]
    codes = col.get("esci_label", ("",) * len(product_id))
    index_of = {"": -1}
    for code in dict.fromkeys(codes):
        if code not in index_of:
            try:
                index_of[code] = EsciLabel.from_code(code).index
            except ValidationError as exc:
                raise ParseError(f"{path}: row {codes.index(code) + 1}: {exc}") from None
    if catalog is not None:
        known = np.fromiter(map(catalog.row_of.__contains__, product_id), dtype=bool)
        if not known.all():
            row = int(np.argmin(known))
            raise ReferentialError(
                f"{path}: row {row + 1}: product_id {product_id[row]!r} not in catalog"
            )
    label_index = np.fromiter(map(index_of.__getitem__, codes), dtype=np.int8, count=len(codes))
    try:
        return ExampleSet(col["query_id"], col["query"], product_id, col["locale"], label_index, task)
    except (ValidationError, DuplicateKeyError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_examples(examples: ExampleSet, path: str | Path) -> None:
    columns = (examples.query_id, examples.query_text, examples.product_id, examples.locale)
    codes = map(_CODE_AT.__getitem__, examples.label_index.tolist())
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=DELIMITER)
        writer.writerow(EXAMPLE_COLUMNS + ("esci_label",))
        writer.writerows(zip(*columns, codes))


@gc_paused()
def load_probs(path: str | Path) -> ProbTable:
    """Read per-pair, per-model probability vectors.

    Each pair must carry the same set of model indices 0..M-1; a (pair, model)
    combination may appear only once. Every row must hold a distribution:
    finite, nonnegative components summing to 1 within 1e-6.
    """
    col = _read_columns(path, PROB_COLUMNS)
    (model,) = _parse_cells(path, [col["model"]], int)
    p = np.array(_parse_cells(path, [col[name] for name in PROB_COLUMNS[3:]], float)).T
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

    pairs = tuple(zip(col["query_id"], col["product_id"]))
    pair_code, distinct_pairs = first_seen_codes(pairs)
    models = sorted(set(model))
    code_of = {m: i for i, m in enumerate(models)}
    model_code = np.fromiter(map(code_of.__getitem__, model), dtype=np.int64, count=len(model))
    key = pair_code * len(models) + model_code
    first = np.zeros(len(key), dtype=bool)
    first[np.unique(key, return_index=True)[1]] = True
    if not first.all():
        row = int(np.argmin(first))
        raise DuplicateKeyError(
            f"{path}: row {row + 1}: duplicate (pair, model) {pairs[row]}, {model[row]}"
        )
    if (np.bincount(pair_code) != len(models)).any():
        raise SchemaError(f"{path}: pairs disagree on model indices")
    if models != list(range(len(models))):
        raise SchemaError(f"{path}: model indices {models} are not 0..{len(models) - 1}")
    values = np.empty((len(distinct_pairs), len(models), N_CLASSES))
    values[pair_code, model_code] = p
    return ProbTable(distinct_pairs, values)


def write_probs(probs: ProbTable, path: str | Path) -> None:
    """Emit probabilities with full float precision (repr round-trips exactly)."""
    n_models = probs.values.shape[1]
    keys = ((query_id, product_id, model) for query_id, product_id in probs.pairs for model in range(n_models))
    vectors = probs.values.reshape(-1, N_CLASSES).tolist()
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=DELIMITER)
        writer.writerow(PROB_COLUMNS)
        writer.writerows((*key, *map(repr, v)) for key, v in zip(keys, vectors))


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
    col = _read_columns(path, SPLIT_COLUMNS)
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
