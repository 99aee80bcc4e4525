"""Domain types: relevance labels, catalog entries, example and probability tables."""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import compress, repeat
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DuplicateKeyError, IncompleteInputError, ReferentialError, ValidationError

LOCALES = ("us", "es", "jp")

#: Tasks a pair can belong to. T2 and T3 share one dataset, hence a single tag.
TASK_T1 = "T1"
TASK_T2T3 = "T2T3"

PairKey = tuple[str, str]  # (query_id, product_id)


class EsciLabel(Enum):
    """Four-way relevance label with its fixed ranking gain."""

    EXACT = "E"
    SUBSTITUTE = "S"
    COMPLEMENT = "C"
    IRRELEVANT = "I"

    @property
    def gain(self) -> float:
        return float(GAINS[self.index])

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

    @classmethod
    def from_index(cls, index: int) -> "EsciLabel":
        try:
            return _BY_INDEX[index]
        except KeyError:
            raise ValidationError(f"class index {index!r} out of range 0..3") from None


#: Class order used everywhere probabilities appear as vectors.
CLASS_ORDER = (EsciLabel.EXACT, EsciLabel.SUBSTITUTE, EsciLabel.COMPLEMENT, EsciLabel.IRRELEVANT)
N_CLASSES = len(CLASS_ORDER)
_BY_INDEX = dict(enumerate(CLASS_ORDER))
_INDEX = {lab: i for i, lab in _BY_INDEX.items()}

#: Competition ranking gain per class, aligned with CLASS_ORDER (E, S, C, I).
GAINS = np.array([1.0, 0.1, 0.01, 0.0])
GAINS.flags.writeable = False


@dataclass(frozen=True)
class Product:
    """One catalog entry; catalog_index is the 0-based position in the file."""

    product_id: str
    title: str
    brand: str
    color: str
    locale: str
    catalog_index: int

    def __post_init__(self):
        if not self.product_id:
            raise ValidationError("product_id must be non-empty")
        if self.locale not in LOCALES:
            raise ValidationError(f"unknown locale {self.locale!r} for product {self.product_id}")
        if self.catalog_index < 0:
            raise ValidationError(f"catalog_index must be nonnegative for product {self.product_id}")


class Catalog:
    """Products in file order, with id lookup. Indices are dense 0..N-1."""

    def __init__(self, products: Sequence[Product]):
        self.products = tuple(products)
        self._by_id: dict[str, Product] = {}
        for pos, prod in enumerate(self.products):
            if prod.catalog_index != pos:
                raise ValidationError(
                    f"catalog_index {prod.catalog_index} of product {prod.product_id} "
                    f"does not match file position {pos}"
                )
            if prod.product_id in self._by_id:
                raise DuplicateKeyError(f"duplicate product_id {prod.product_id!r} in catalog")
            self._by_id[prod.product_id] = prod

    def __len__(self) -> int:
        return len(self.products)

    def __iter__(self):
        return iter(self.products)

    def __contains__(self, product_id: str) -> bool:
        return product_id in self._by_id

    def get(self, product_id: str) -> Product:
        try:
            return self._by_id[product_id]
        except KeyError:
            raise ReferentialError(f"product_id {product_id!r} not in catalog") from None


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
    """Dense integer code of each value, and the distinct values in first-seen (code) order."""
    distinct = tuple(dict.fromkeys(values))
    code_of = dict(zip(distinct, range(len(distinct))))
    codes = np.fromiter(map(code_of.__getitem__, values), dtype=np.int64, count=len(values))
    return codes, distinct


def pair_rows(pairs: Sequence[PairKey], wanted: Iterable[PairKey]) -> np.ndarray:
    """Row of each wanted pair in pairs (the last one if repeated), -1 where absent."""
    row_of = dict(zip(pairs, range(len(pairs))))
    return np.fromiter(map(row_of.get, wanted, repeat(-1)), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class ExampleSet:
    """Query-product pairs of one task as columns, one row per pair in file order.

    label_index is the class index of each row, -1 when unlabelled. Queries are
    coded 0..Q-1 in first-seen order (query_code); `order` lists the rows
    grouped by query, in file order within a query, and query q owns
    order[offsets[q]:offsets[q + 1]]. Pairs are unique and each query has
    one locale.
    """

    query_id: tuple[str, ...]
    query_text: tuple[str, ...]
    product_id: tuple[str, ...]
    locale: tuple[str, ...]
    label_index: np.ndarray
    task: str
    query_code: np.ndarray = field(init=False)
    order: np.ndarray = field(init=False)
    offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        n = len(self.query_id)
        label_index = np.asarray(self.label_index, dtype=np.int8)
        if {len(self.query_text), len(self.product_id), len(self.locale), len(label_index)} != {n}:
            raise ValidationError("example columns differ in length")
        known = np.fromiter(map(LOCALES.__contains__, self.locale), dtype=bool, count=n)
        if not known.all():
            i = int(np.argmin(known))
            raise ValidationError(
                f"unknown locale {self.locale[i]!r} "
                f"for pair ({self.query_id[i]}, {self.product_id[i]})"
            )
        if len(set(self.pairs)) != n:
            count = Counter(self.pairs)
            duplicate = next(pair for pair in self.pairs if count[pair] > 1)
            raise DuplicateKeyError(f"duplicate pair {duplicate} in example set")
        query_code, queries = first_seen_codes(self.query_id)
        query_locales = tuple(dict.fromkeys(zip(self.query_id, self.locale)))
        if len(query_locales) != len(queries):
            count = Counter(query for query, _ in query_locales)
            mixed = next(query for query, _ in query_locales if count[query] > 1)
            locales = sorted(loc for query, loc in query_locales if query == mixed)
            raise ValidationError(f"query {mixed!r} mixes locales {locales}")
        order = np.argsort(query_code, kind="stable")
        offsets = np.concatenate(([0], np.cumsum(np.bincount(query_code))))
        columns = {"label_index": label_index, "query_code": query_code, "order": order, "offsets": offsets}
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def from_rows(cls, rows: Iterable[Example], task: str) -> "ExampleSet":
        query_id, query_text, product_id, locale, labels = tuple(zip(*rows)) or ((),) * 5
        label_index = np.array([-1 if label is None else label.index for label in labels], dtype=np.int8)
        return cls(query_id, query_text, product_id, locale, label_index, task)

    def __len__(self) -> int:
        return len(self.query_id)

    def __iter__(self) -> Iterator[Example]:
        labels = map(_LABEL_AT.__getitem__, self.label_index.tolist())
        rows = zip(self.query_id, self.query_text, self.product_id, self.locale, labels)
        return map(Example._make, rows)

    @cached_property
    def pairs(self) -> tuple[PairKey, ...]:
        return tuple(zip(self.query_id, self.product_id))

    def query_ids(self) -> tuple[str, ...]:
        """Distinct query ids in first-seen order."""
        return tuple(dict.fromkeys(self.query_id))

    def groups(self) -> list[np.ndarray]:
        """Row indices of each query, in query-code order."""
        return np.split(self.order, self.offsets[1:-1])

    def subset(self, mask: np.ndarray) -> "ExampleSet":
        """The rows where mask is true, in file order."""
        keep = np.asarray(mask, dtype=bool)
        text = (self.query_id, self.query_text, self.product_id, self.locale)
        text = [tuple(compress(column, keep.tolist())) for column in text]
        return ExampleSet(*text, self.label_index[keep], self.task)

    def labeled(self) -> "ExampleSet":
        return self.subset(self.label_index >= 0)


@dataclass(frozen=True, eq=False)
class ProbTable:
    """Upstream class probabilities: values[i, m] is model m's (E, S, C, I) vector for pairs[i]."""

    pairs: tuple[PairKey, ...]
    values: np.ndarray  # (n_pairs, n_models, 4) float64

    def __post_init__(self):
        shape = self.values.shape
        if len(shape) != 3 or shape[0] != len(self.pairs) or shape[2] != N_CLASSES:
            raise ValidationError(
                f"probability values of shape {self.values.shape} do not fit "
                f"{len(self.pairs)} pairs x models x {N_CLASSES} classes"
            )

    def __len__(self) -> int:
        return len(self.pairs)

    def align(self, pairs: Sequence[PairKey]) -> np.ndarray:
        """The (len(pairs), n_models, 4) probabilities of the given pairs, in their order."""
        rows = pair_rows(self.pairs, pairs)
        if (rows < 0).any():
            missing = sorted(pair for pair, row in zip(pairs, rows) if row < 0)
            raise IncompleteInputError(
                f"missing probability vectors for pairs: {missing[:5]}"
                + ("..." if len(missing) > 5 else "")
            )
        return self.values[rows]


@dataclass(frozen=True)
class FoldAssignment:
    """Query-wise fold mapping; every example of a query shares its fold."""

    n_folds: int
    by_query: Mapping[str, int] = field(default_factory=dict)
