"""Delimiter-separated ingestion and emission for catalogs, examples, probabilities, and splits.

All files are UTF-8 text with a header row. Loading is strict: missing
columns, duplicate keys, and malformed values raise typed errors instead of
being coerced. Rows are moved into columns a chunk at a time; example and
probability files end as integer-coded pairs (see model.Pairs), with product
codes that are catalog rows when a catalog is given.
"""

from __future__ import annotations

import csv
from itertools import chain, islice
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


#: Rows read before they are moved into columns; bounds the per-row lists alive at once.
_CHUNK_ROWS = 1 << 11


@gc_paused()
def _read_columns(
    path: str | Path, required: Sequence[str], repeated: Sequence[str] = (), floats: Sequence[str] = ()
) -> dict[str, tuple[str, ...] | np.ndarray]:
    """Cells of a delimited file by header name; blank lines are skipped.

    Rows are moved into columns a chunk at a time. A column in `repeated`
    keeps one string object per distinct cell. A column in `floats` becomes a
    float64 array, and the first cell that float() rejects raises ValueError,
    so the caller can read the file again as text to name the row. A row
    whose width differs from the header's, or that the csv module rejects (a
    cell past its field size limit, say), is a ParseError naming its 1-based
    data row.
    """
    header, done, chunk, wrong = None, 0, [], None
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=DELIMITER)
        try:
            header = next(reader, [])
            missing = [c for c in required if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing required column(s) {missing}")
            rows, parts, distinct = filter(None, reader), [[] for _ in header], {name: {} for name in repeated}
            while True:
                chunk = []
                chunk.extend(islice(rows, _CHUNK_ROWS))  # on a csv.Error, chunk holds the rows before it
                if not chunk:
                    break
                widths = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk))
                bad = np.flatnonzero(widths != len(header))
                if bad.size and wrong is None:
                    wrong = (done + bad[0], widths[bad[0]])
                for name, part, cells in zip(header, parts, zip(*chunk) if wrong is None else ()):
                    if name in floats:
                        cells = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
                    elif name in distinct:
                        cells = tuple(map(distinct[name].setdefault, cells, cells))
                    part.append(cells)
                done += len(chunk)
        except csv.Error as exc:
            where = "header" if header is None else f"row {done + len(chunk) + 1}"
            raise ParseError(f"{path}: {where}: {exc}") from None
    if wrong is not None:
        raise ParseError(f"{path}: row {wrong[0] + 1}: {wrong[1]} fields, expected {len(header)}")
    return {
        name: np.concatenate([np.empty(0), *part]) if name in floats else tuple(chain.from_iterable(part))
        for name, part in zip(header, parts)
    }


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
    col = _read_columns(path, CATALOG_COLUMNS, repeated=("brand", "color", "locale"))
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
    col = _read_columns(path, EXAMPLE_COLUMNS, repeated=("query_id", "query", "locale"))
    product_id = col["product_id"]
    codes = col.get("esci_label", ("",) * len(product_id))
    index_of = {"": -1}
    for code in dict.fromkeys(codes):
        if code not in index_of:
            try:
                index_of[code] = EsciLabel.from_code(code).index
            except ValidationError as exc:
                raise ParseError(f"{path}: row {codes.index(code) + 1}: {exc}") from None
    label_index = np.fromiter(map(index_of.__getitem__, codes), dtype=np.int8, count=len(codes))
    try:
        return ExampleSet(col["query_id"], col["query"], product_id, col["locale"], label_index, task, catalog)
    except (ValidationError, DuplicateKeyError, ReferentialError) as exc:
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
    try:
        col, as_text = _read_columns(path, PROB_COLUMNS, ("query_id",), PROB_COLUMNS[3:]), False
    except ValueError:  # a cell float() rejects: read the file as text, so that its row is named below
        col, as_text = _read_columns(path, PROB_COLUMNS), True
    (model,) = _parse_cells(path, [col["model"]], int)
    columns = [col[name] for name in PROB_COLUMNS[3:]]
    p = np.column_stack(_parse_cells(path, columns, float) if as_text else columns)
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
