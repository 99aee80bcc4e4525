"""Domain types: relevance labels, catalog entries, examples, and query groups."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class Example:
    """One (query, product) pair; label is None for test rows."""

    query_id: str
    query_text: str
    product_id: str
    locale: str
    label: EsciLabel | None
    task_membership: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.locale not in LOCALES:
            raise ValidationError(
                f"unknown locale {self.locale!r} for pair ({self.query_id}, {self.product_id})"
            )

    @property
    def pair(self) -> PairKey:
        return (self.query_id, self.product_id)


class ExampleSet:
    """Ordered collection of examples with unique (query_id, product_id) pairs."""

    def __init__(self, examples: Iterable[Example]):
        self.examples = tuple(examples)
        self._by_pair: dict[PairKey, Example] = {}
        for ex in self.examples:
            if ex.pair in self._by_pair:
                raise DuplicateKeyError(f"duplicate pair {ex.pair} in example set")
            self._by_pair[ex.pair] = ex

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def get(self, pair: PairKey) -> Example:
        return self._by_pair[pair]

    def __contains__(self, pair: PairKey) -> bool:
        return pair in self._by_pair

    @property
    def pairs(self) -> tuple[PairKey, ...]:
        return tuple(ex.pair for ex in self.examples)

    def query_ids(self) -> tuple[str, ...]:
        """Distinct query ids in first-seen order."""
        seen: dict[str, None] = {}
        for ex in self.examples:
            seen.setdefault(ex.query_id, None)
        return tuple(seen)

    def product_ids(self) -> frozenset[str]:
        return frozenset(ex.product_id for ex in self.examples)

    def labeled(self) -> "ExampleSet":
        return ExampleSet(ex for ex in self.examples if ex.label is not None)


@dataclass(frozen=True)
class ProbVector:
    """Class probabilities in (E, S, C, I) order; must be a valid distribution."""

    p_e: float
    p_s: float
    p_c: float
    p_i: float

    SUM_TOLERANCE = 1e-6

    def __post_init__(self):
        comps = (self.p_e, self.p_s, self.p_c, self.p_i)
        for name, value in zip(("p_e", "p_s", "p_c", "p_i"), comps):
            if not math.isfinite(value) or value < 0.0:
                raise ValidationError(f"{name}={value!r} is not a probability")
        total = sum(comps)
        if abs(total - 1.0) > self.SUM_TOLERANCE:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1 within 1e-6")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_e, self.p_s, self.p_c, self.p_i], dtype=np.float64)

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "ProbVector":
        if len(values) != N_CLASSES:
            raise ValidationError(f"expected {N_CLASSES} components, got {len(values)}")
        return cls(float(values[0]), float(values[1]), float(values[2]), float(values[3]))


@dataclass(frozen=True)
class GroupMember:
    product_id: str
    label: EsciLabel | None


@dataclass(frozen=True)
class QueryGroup:
    """All candidate products of one query, with optional per-model probabilities.

    prob_vectors, when present, is indexed [member][model].
    """

    query_id: str
    locale: str
    members: tuple[GroupMember, ...]
    prob_vectors: tuple[tuple[ProbVector, ...], ...] = ()

    def __post_init__(self):
        if not self.members:
            raise ValidationError(f"query group {self.query_id!r} has no members")
        if self.prob_vectors:
            if len(self.prob_vectors) != len(self.members):
                raise ValidationError(
                    f"group {self.query_id!r}: {len(self.prob_vectors)} probability rows "
                    f"for {len(self.members)} members"
                )
            n_models = {len(per_member) for per_member in self.prob_vectors}
            if len(n_models) != 1:
                raise ValidationError(f"group {self.query_id!r}: members disagree on model count")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def n_models(self) -> int:
        return len(self.prob_vectors[0]) if self.prob_vectors else 0


def build_groups(
    examples: ExampleSet,
    probs: Mapping[PairKey, Sequence[ProbVector]] | None = None,
) -> list[QueryGroup]:
    """Group examples by query_id (first-seen order, members in file order).

    When a probability store is given, every pair must be present in it and
    all pairs must report the same number of models.
    """
    order: dict[str, list[Example]] = {}
    for ex in examples:
        order.setdefault(ex.query_id, []).append(ex)
    groups: list[QueryGroup] = []
    for query_id, exs in order.items():
        locales = {e.locale for e in exs}
        if len(locales) != 1:
            raise ValidationError(f"query {query_id!r} mixes locales {sorted(locales)}")
        members = tuple(GroupMember(e.product_id, e.label) for e in exs)
        vectors: tuple[tuple[ProbVector, ...], ...] = ()
        if probs is not None:
            missing = [e.pair for e in exs if e.pair not in probs]
            if missing:
                raise IncompleteInputError(
                    f"missing probability vectors for pairs: {sorted(missing)[:5]}"
                    + ("..." if len(missing) > 5 else "")
                )
            vectors = tuple(tuple(probs[e.pair]) for e in exs)
        groups.append(QueryGroup(query_id, exs[0].locale, members, vectors))
    return groups


@dataclass(frozen=True)
class FoldAssignment:
    """Query-wise fold mapping; every example of a query shares its fold."""

    n_folds: int
    by_query: Mapping[str, int] = field(default_factory=dict)
