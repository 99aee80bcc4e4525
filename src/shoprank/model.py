"""Domain types: relevance labels, the catalog, and (query, product) pairs as integer code columns.

Pairs are the one representation of a set of (query, product) pairs: the
example and probability tables are Pairs, and so are a feature matrix's rows.
Each holds a query code and a product code per row, into tables that hold
each distinct id once. Joins between them sort int64 keys and search them;
string views are built only on request.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, repeat
from operator import ne
from typing import Hashable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DuplicateKeyError, IncompleteInputError, ReferentialError, ValidationError

LOCALES = ("us", "es", "jp")

#: Tasks a pair can belong to. T2 and T3 share one dataset, hence a single tag.
TASK_T1 = "T1"
TASK_T2T3 = "T2T3"

PairKey = tuple[str, str]  # (query_id, product_id)


class EsciLabel(Enum):
    """Four-way relevance label; GAINS[label.index] is its ranking gain."""

    EXACT = "E"
    SUBSTITUTE = "S"
    COMPLEMENT = "C"
    IRRELEVANT = "I"

    @property
    def index(self) -> int:
        """Canonical class index used for training targets (E=0, S=1, C=2, I=3)."""
        return _INDEX[self]

    @classmethod
    def from_code(cls, code: str) -> "EsciLabel":
        try:
            return cls(code)
        except ValueError:
            raise ValidationError(f"unknown label code {code!r}; expected one of E, S, C, I") from None


#: Class order used everywhere probabilities appear as vectors.
CLASS_ORDER = (EsciLabel.EXACT, EsciLabel.SUBSTITUTE, EsciLabel.COMPLEMENT, EsciLabel.IRRELEVANT)
N_CLASSES = len(CLASS_ORDER)
_INDEX = {lab: i for i, lab in enumerate(CLASS_ORDER)}

#: Competition ranking gain per class, aligned with CLASS_ORDER (E, S, C, I).
GAINS = np.array([1.0, 0.1, 0.01, 0.0])
GAINS.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Catalog:
    """Products as columns, one row per product in file order, and each id's row.

    Ids are non-empty and unique, and every locale is one of LOCALES.
    """

    product_id: tuple[str, ...]
    title: tuple[str, ...]
    brand: tuple[str, ...]
    color: tuple[str, ...]
    locale: tuple[str, ...]
    row_of: dict[str, int] = field(init=False)

    def __post_init__(self):
        n = len(self.product_id)
        if {len(self.title), len(self.brand), len(self.color), len(self.locale)} != {n}:
            raise ValidationError("catalog columns differ in length")
        if "" in self.product_id:
            raise ValidationError(f"row {self.product_id.index('') + 1}: product_id must be non-empty")
        row = _unknown_locale_row(self.locale)
        if row >= 0:
            raise ValidationError(
                f"row {row + 1}: unknown locale {self.locale[row]!r} for product {self.product_id[row]}"
            )
        row_of = dict(zip(self.product_id, range(n)))
        if len(row_of) != n:
            row = first_repeat_row(first_seen_codes(self.product_id)[0])
            raise DuplicateKeyError(
                f"row {row + 1}: duplicate product_id {self.product_id[row]!r} in catalog"
            )
        object.__setattr__(self, "row_of", row_of)

    def __len__(self) -> int:
        return len(self.product_id)

    def rows(self, product_ids: Sequence[str]) -> np.ndarray:
        """Row of each id, in order; a ReferentialError names the first id not in the catalog."""
        rows = np.fromiter(map(self.row_of.get, product_ids, repeat(-1)), dtype=np.int64)
        if (rows < 0).any():
            raise ReferentialError(f"product_id {product_ids[int(np.argmin(rows))]!r} not in catalog")
        return rows


class Example(NamedTuple):
    """Row view of one (query, product) pair; label is None for unlabelled rows."""

    query_id: str
    query_text: str
    product_id: str
    locale: str
    label: EsciLabel | None

    @property
    def pair(self) -> PairKey:
        return (self.query_id, self.product_id)


#: Label at each class index, and None at index -1 (unlabelled).
_LABEL_AT = (*CLASS_ORDER, None)


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic GC while a loader builds one container per row.

    Those containers form no cycles, yet each allocation burst would set off
    collections over everything alive; the previous state is restored on exit.
    Used as a decorator, it covers the whole call.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def first_seen_codes(values: Sequence[Hashable]) -> tuple[np.ndarray, tuple]:
    """Dense integer code of each value, and the distinct values in first-seen (code) order.

    One dict pass finds the row where each value is first seen; ranking those rows codes them.
    """
    first_row: dict = {}
    first_rows = map(first_row.setdefault, values, range(len(values)))
    firsts, codes = np.unique(np.fromiter(first_rows, dtype=np.int64, count=len(values)), return_inverse=True)
    return codes, tuple(map(values.__getitem__, firsts.tolist()))


def first_seen_key_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense code of each integer key in first-seen order, and the row where each code is first seen."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    firsts, codes = np.unique(first[inverse], return_inverse=True)
    return codes, firsts


def first_repeat_row(keys: np.ndarray) -> int:
    """Row of the first key equal to an earlier one, -1 when the keys are distinct."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    return int(repeats.min()) if repeats.size else -1


def _unknown_locale_row(locales: Sequence[str]) -> int:
    """Row of the first locale not in LOCALES, -1 when all are known."""
    if set(locales) <= set(LOCALES):
        return -1
    return next(row for row, locale in enumerate(locales) if locale not in LOCALES)


def _take(table: Sequence[str], codes: np.ndarray) -> tuple[str, ...]:
    return tuple(map(table.__getitem__, codes.tolist()))


def _codes_in(ids: Sequence[str], table: Sequence[str], code_of: Mapping[str, int] | None = None) -> np.ndarray:
    """Position of each id in table, -1 where absent; code_of, when given, maps table's ids to positions."""
    if ids is table:
        return np.arange(len(ids), dtype=np.int64)
    if code_of is None:
        code_of = dict(zip(table, range(len(table))))
    return np.fromiter(map(code_of.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))


def _read_only(array: np.ndarray, dtype=np.int64) -> np.ndarray:
    array = np.asarray(array, dtype=dtype)
    array.flags.writeable = False
    return array


class Pairs:
    """(query_id, product_id) pairs as two integer code columns.

    query_code[i] indexes `queries`, the distinct query ids in first-seen
    order. product_code[i] indexes `products`: with a catalog, its product_id
    column (so a code is the catalog row, and every id must be there), else
    the distinct product ids in first-seen order. The ids of a row are looked
    up only when a view (`pairs`, `query_id`, `product_id`) is asked for, and
    each view is built anew.
    """

    def __init__(self, query_id: Sequence[str], product_id: Sequence[str], catalog: Catalog | None = None):
        if catalog is None:
            product_code, products = first_seen_codes(product_id)
        else:
            product_code, products = _codes_in(product_id, catalog.product_id, catalog.row_of), catalog.product_id
            if (product_code < 0).any():
                row = int(np.argmin(product_code))
                raise ReferentialError(f"row {row + 1}: product_id {product_id[row]!r} not in catalog")
        self._set_codes(*first_seen_codes(query_id), product_code, products, catalog)

    def _set_codes(self, query_code, queries, product_code, products, catalog: Catalog | None = None) -> None:
        self.query_code, self.product_code = _read_only(query_code), _read_only(product_code)
        self.queries, self.products, self.catalog = queries, products, catalog

    def __len__(self) -> int:
        return len(self.query_code)

    @property
    def query_id(self) -> tuple[str, ...]:
        return _take(self.queries, self.query_code)

    @property
    def product_id(self) -> tuple[str, ...]:
        return _take(self.products, self.product_code)

    @property
    @gc_paused()
    def pairs(self) -> tuple[PairKey, ...]:
        return tuple(zip(self.query_id, self.product_id))

    @classmethod
    def of_codes(cls, query_code, queries, product_code, products, catalog: Catalog | None = None) -> "Pairs":
        """The pairs the codes give in tables of distinct ids (a catalog's product ids, with one)."""
        pairs = object.__new__(cls)
        pairs._set_codes(query_code, queries, product_code, products, catalog)
        return pairs

    def take(self, rows: Sequence[int] | np.ndarray | slice) -> "Pairs":
        """The pairs at rows (indices, a mask or a slice), coded in the same tables."""
        return Pairs.of_codes(self.query_code[rows], self.queries, self.product_code[rows], self.products, self.catalog)

    def keys(self) -> np.ndarray:
        """One int64 key per row, equal exactly where the pairs are."""
        return self.query_code * len(self.products) + self.product_code


def _keys_in(pairs: Pairs, coded: Pairs) -> np.ndarray:
    """Keys of pairs in coded's tables (those of coded.keys()); -1 where coded lacks the query or product.

    The distinct ids of pairs are looked up once, in coded's catalog id map when it has one.
    """
    code_of = None if coded.catalog is None else coded.catalog.row_of
    query = _codes_in(pairs.queries, coded.queries)[pairs.query_code]
    product = _codes_in(pairs.products, coded.products, code_of)[pairs.product_code]
    return np.where((query >= 0) & (product >= 0), query * len(coded.products) + product, -1)


def pair_rows(pairs: Pairs, wanted: Pairs) -> np.ndarray:
    """Row of each wanted pair in pairs (the last one if repeated), -1 where absent.

    Both sides are keyed in the tables of one of them (one with a catalog if
    there is one); the keys of pairs are sorted once and each wanted key is
    found by binary search.
    """
    coded = wanted if pairs.catalog is None and wanted.catalog is not None else pairs
    keys, wanted_keys = (coded.keys() if side is coded else _keys_in(side, coded) for side in (pairs, wanted))
    if keys.size == 0:
        return np.full(wanted_keys.shape, -1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    at = np.searchsorted(ordered, wanted_keys, side="right") - 1
    found = (wanted_keys >= 0) & (at >= 0) & (ordered[at] == wanted_keys)
    return np.where(found, order[at], -1)


class ExampleSet(Pairs):
    """Query-product pairs of one task as code columns (see Pairs), one row per pair in file order.

    label_index is the class index of each row, -1 when unlabelled. Queries are
    coded 0..Q-1 in first-seen order, and each query's text and locale are
    held once (query_texts, query_locales). `order` lists the rows grouped by
    query, in file order within a query, and query q owns
    order[offsets[q]:offsets[q + 1]]. Pairs are unique, and all rows of a
    query hold one text and one locale.
    """

    def __init__(
        self,
        query_id: Sequence[str],
        query_text: Sequence[str],
        product_id: Sequence[str],
        locale: Sequence[str],
        label_index: np.ndarray,
        task: str,
        catalog: Catalog | None = None,
    ):
        label_index = np.asarray(label_index, dtype=np.int8)
        if {len(query_text), len(product_id), len(locale), len(label_index)} != {len(query_id)}:
            raise ValidationError("example columns differ in length")
        super().__init__(query_id, product_id, catalog)
        row = _unknown_locale_row(locale)
        if row >= 0:
            raise ValidationError(
                f"row {row + 1}: unknown locale {locale[row]!r} for pair ({query_id[row]}, {product_id[row]})"
            )
        row = first_repeat_row(self.keys())
        if row >= 0:
            raise DuplicateKeyError(f"row {row + 1}: duplicate pair {self.take([row]).pairs[0]} in example set")
        order, offsets = _grouped(self.query_code)
        first_rows = order[offsets[:-1]].tolist()
        locales, texts = (
            _per_query(name, column, query_id, self.query_code, first_rows)
            for name, column in (("locales", locale), ("texts", query_text))
        )
        self._set_rows(label_index, task, texts, locales, order, offsets)

    def _set_rows(self, label_index, task, query_texts, query_locales, order, offsets) -> None:
        self.label_index = _read_only(label_index, np.int8)
        self.order, self.offsets = _read_only(order), _read_only(offsets)
        self.task, self.query_texts, self.query_locales = task, query_texts, query_locales

    @property
    def query_text(self) -> tuple[str, ...]:
        return _take(self.query_texts, self.query_code)

    @property
    def locale(self) -> tuple[str, ...]:
        return _take(self.query_locales, self.query_code)

    def __iter__(self) -> Iterator[Example]:
        labels = map(_LABEL_AT.__getitem__, self.label_index.tolist())
        rows = zip(self.query_id, self.query_text, self.product_id, self.locale, labels)
        return map(Example._make, rows)

    def query_ids(self) -> tuple[str, ...]:
        """Distinct query ids in first-seen order."""
        return self.queries

    def subset(self, mask: np.ndarray) -> "ExampleSet":
        """The rows where mask is true, in file order, with the same product table."""
        keep = np.asarray(mask, dtype=bool)
        query_code, first = first_seen_key_codes(self.query_code[keep])
        kept = self.query_code[keep][first]
        per_query = (self.queries, self.query_texts, self.query_locales)
        queries, texts, locales = (_take(table, kept) for table in per_query)
        subset = object.__new__(ExampleSet)
        subset._set_codes(query_code, queries, self.product_code[keep], self.products, self.catalog)
        subset._set_rows(self.label_index[keep], self.task, texts, locales, *_grouped(query_code))
        return subset

    def labeled(self) -> "ExampleSet":
        return self.subset(self.label_index >= 0)


def _grouped(query_code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows grouped by query code (stable), and each query's start in that order, plus the end."""
    order = np.argsort(query_code, kind="stable")
    return order, np.concatenate(([0], np.cumsum(np.bincount(query_code)))).astype(np.int64)


def _per_query(
    name: str, column: Sequence[str], query_id: Sequence[str], query_code: np.ndarray, first_rows: list[int]
) -> tuple[str, ...]:
    """Each query's cell of column, the one in its first row; a query whose rows differ there is an error."""
    first = tuple(map(column.__getitem__, first_rows))
    in_first = map(first.__getitem__, query_code.tolist())
    differs = np.fromiter(map(ne, column, in_first), dtype=bool, count=len(column))
    if differs.any():
        row = int(np.argmax(differs))
        values = sorted(set(compress(column, (query_code == query_code[row]).tolist())))
        raise ValidationError(f"row {row + 1}: query {query_id[row]!r} mixes {name} {values}")
    return first


class ProbTable(Pairs):
    """Upstream class probabilities: values[i, m] is model m's (E, S, C, I) vector for pair i."""

    def __init__(self, pairs: Pairs, values: np.ndarray):
        self._set_codes(pairs.query_code, pairs.queries, pairs.product_code, pairs.products, pairs.catalog)
        if values.ndim != 3 or values.shape[0] != len(self) or values.shape[2] != N_CLASSES:
            raise ValidationError(
                f"probability values of shape {values.shape} do not fit "
                f"{len(self)} pairs x models x {N_CLASSES} classes"
            )
        self.values = values  # (n_pairs, n_models, 4) float64

    def align(self, pairs: Pairs) -> np.ndarray:
        """The (len(pairs), n_models, 4) probabilities of the given pairs, in their order."""
        rows = pair_rows(self, pairs)
        absent = np.flatnonzero(rows < 0)
        if absent.size:
            missing = sorted(pairs.take(absent).pairs)
            raise IncompleteInputError(
                f"missing probability vectors for pairs: {missing[:5]}" + ("..." if len(missing) > 5 else "")
            )
        return self.values[rows]


@dataclass(frozen=True)
class FoldAssignment:
    """Query-wise fold mapping; every example of a query shares its fold."""

    n_folds: int
    by_query: Mapping[str, int] = field(default_factory=dict)
