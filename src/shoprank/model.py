"""Domain types: relevance labels, and the catalog, example and probability tables."""

from __future__ import annotations

import gc
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
            row = _first_repeat(self.product_id)
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
    """Dense integer code of each value, and the distinct values in first-seen (code) order."""
    distinct = tuple(dict.fromkeys(values))
    code_of = dict(zip(distinct, range(len(distinct))))
    codes = np.fromiter(map(code_of.__getitem__, values), dtype=np.int64, count=len(values))
    return codes, distinct


def _first_repeat(values: Sequence[Hashable]) -> int:
    """Row of the first value equal to an earlier one; values must hold one."""
    first_row: dict = {}
    return next(row for row, value in enumerate(values) if first_row.setdefault(value, row) != row)


def _unknown_locale_row(locales: Sequence[str]) -> int:
    """Row of the first locale not in LOCALES, -1 when all are known."""
    if set(locales) <= set(LOCALES):
        return -1
    return next(row for row, locale in enumerate(locales) if locale not in LOCALES)


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
        row = _unknown_locale_row(self.locale)
        if row >= 0:
            raise ValidationError(
                f"row {row + 1}: unknown locale {self.locale[row]!r} "
                f"for pair ({self.query_id[row]}, {self.product_id[row]})"
            )
        if len(set(self.pairs)) != n:
            row = _first_repeat(self.pairs)
            raise DuplicateKeyError(f"row {row + 1}: duplicate pair {self.pairs[row]} in example set")
        query_code, _ = first_seen_codes(self.query_id)
        order = np.argsort(query_code, kind="stable")
        offsets = np.concatenate(([0], np.cumsum(np.bincount(query_code))))
        locale_code, _ = first_seen_codes(self.locale)
        differs = locale_code != locale_code[order[offsets[:-1]]][query_code]  # from the query's first row
        if differs.any():
            row = int(np.argmax(differs))
            locales = sorted(set(compress(self.locale, (query_code == query_code[row]).tolist())))
            raise ValidationError(f"row {row + 1}: query {self.query_id[row]!r} mixes locales {locales}")
        columns = {"label_index": label_index, "query_code": query_code, "order": order, "offsets": offsets}
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

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
        """Row indices of each query, in query-code order; none for an empty set."""
        bounds = self.offsets.tolist()
        return [self.order[start:end] for start, end in zip(bounds, bounds[1:])]

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
