"""Synthetic corpus generator.

Produces a catalog, T1/T2T3 example sets, and label-correlated probability
vectors with the structural quirks the pipeline's features exploit:

- catalog laid out in blocks by first use: train, then private, then public;
- most products used by exactly one query;
- a T1 subset of queries whose label mix is shifted toward Exact;
- per-query product counts drawn from a two-point mixture (16/40 by default);
- book queries whose product ids are digit-leading (ISBN-like);
- per-group brand pools smaller than the group;
- every labeled group containing at least one Exact member.

Probability noise has a group-shared component: each group draws a nuisance
distribution that contaminates all of its members, so group-level statistics
of the probabilities carry denoising signal.

Time is linear in the corpus: every product costs O(1) draws. A seed's corpus
bytes hold only while the stream is consumed in the same order: per query, its
text and brand pool, then per member the reuse, id, brand, title and colour
draws, then the labels, the group noise and one Dirichlet call for every
(member, model) row in C order. Per-product draws interleave kinds, so batching
them would change the stream. A reuse draw is `rng.integers(0, n)`, the draw
`Generator.choice` makes on a length-n sequence without weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import (
    CLASS_ORDER,
    LOCALES,
    N_CLASSES,
    TASK_T1,
    TASK_T2T3,
    Catalog,
    EsciLabel,
    ExampleSet,
    ProbTable,
)

SPLIT_TRAIN = "trn"
SPLIT_PRIVATE = "prv"
SPLIT_PUBLIC = "pub"
SPLIT_ORDER = (SPLIT_TRAIN, SPLIT_PRIVATE, SPLIT_PUBLIC)

_TITLE_WORDS = (
    "classic", "portable", "wireless", "steel", "cotton", "kids", "pro", "mini",
    "deluxe", "travel", "kitchen", "garden", "sport", "vintage", "smart", "eco",
    "heavy", "light", "compact", "premium", "basic", "outdoor", "indoor", "gift",
    "set", "pack", "case", "stand", "holder", "lamp", "chair", "table", "bottle",
    "mug", "shirt", "jacket", "shoes", "watch", "speaker", "cable", "charger",
    "notebook", "novel", "guide", "atlas", "manual", "toy", "puzzle", "blanket",
)
_QUERY_WORDS = (
    "red", "blue", "large", "small", "cheap", "best", "new", "used", "original",
    "replacement", "waterproof", "wooden", "leather", "ceramic", "glass", "metal",
)
_COLORS = ("black", "white", "red", "blue", "green", "silver", "")
_ONEHOT = np.eye(N_CLASSES)


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs. Defaults give a noisy but learnable 500-query corpus.

    The default noise level (0.9) is deliberately high: per-pair probabilities
    alone leave substantial ambiguity, so group statistics and the T1-membership
    prior carry measurable signal. Lower noise saturates classification accuracy
    and hides feature ablation effects; noise=0 reduces every vector to a one-hot
    at the true label.
    """

    n_queries: int = 500
    t1_fraction: float = 0.5
    train_fraction: float = 0.6
    private_fraction: float = 0.2
    count_mixture: tuple[tuple[int, float], ...] = ((16, 0.6), (40, 0.4))
    label_shares: tuple[tuple[str, float], ...] = (
        ("E", 0.40),
        ("S", 0.30),
        ("C", 0.10),
        ("I", 0.20),
    )
    t1_exact_offset: float = 0.25
    force_exact: bool = True
    isbn_query_rate: float = 0.10
    isbn_member_rate: float = 0.80
    brand_pool_size: int = 5
    dominant_brand_share: float = 0.40
    product_reuse_rate: float = 0.02
    noise: float = 0.9
    group_noise_share: float = 0.6
    n_models: int = 1
    locale_weights: tuple[tuple[str, float], ...] = (("us", 0.6), ("es", 0.2), ("jp", 0.2))

    def __post_init__(self):
        if self.n_queries < 1:
            raise ConfigurationError("n_queries must be at least 1")
        for name in ("t1_fraction", "train_fraction", "private_fraction", "isbn_query_rate",
                     "isbn_member_rate", "dominant_brand_share", "noise", "group_noise_share"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name}={value} outside [0, 1]")
        if self.train_fraction + self.private_fraction > 1.0 + 1e-12:
            raise ConfigurationError("train_fraction + private_fraction exceeds 1")
        if not 0.0 <= self.product_reuse_rate < 1.0:
            raise ConfigurationError("product_reuse_rate must be in [0, 1)")
        if self.brand_pool_size < 1:
            raise ConfigurationError("brand_pool_size must be at least 1")
        if self.n_models < 1:
            raise ConfigurationError("n_models must be at least 1")
        if not self.count_mixture:
            raise ConfigurationError("count_mixture must be non-empty")
        counts, count_ps = zip(*self.count_mixture)
        if any(c < 1 for c in counts):
            raise ConfigurationError("product counts must be at least 1")
        if any(p < 0 for p in count_ps) or abs(sum(count_ps) - 1.0) > 1e-9:
            raise ConfigurationError("count_mixture probabilities must be nonnegative and sum to 1")
        shares = dict(self.label_shares)
        if set(shares) != {"E", "S", "C", "I"}:
            raise ConfigurationError("label_shares must name exactly E, S, C, I")
        if any(v < 0 for v in shares.values()) or abs(sum(shares.values()) - 1.0) > 1e-9:
            raise ConfigurationError("label_shares must be nonnegative and sum to 1")
        if self.force_exact and shares["E"] <= 0.0:
            raise ConfigurationError("Exact share must be positive when force_exact is on")
        if shares["E"] + self.t1_exact_offset > 1.0 + 1e-12:
            raise ConfigurationError("t1_exact_offset pushes the Exact share above 1")
        if shares["S"] - self.t1_exact_offset < -1e-12:
            raise ConfigurationError("t1_exact_offset pushes the Substitute share below 0")
        loc_names = [name for name, _ in self.locale_weights]
        if any(name not in LOCALES for name in loc_names):
            raise ConfigurationError(f"locale_weights names must be among {LOCALES}")
        weights = [w for _, w in self.locale_weights]
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigurationError("locale_weights must be nonnegative and sum to 1")

    def base_label_dist(self) -> np.ndarray:
        shares = dict(self.label_shares)
        return np.array([shares[lab.value] for lab in CLASS_ORDER], dtype=np.float64)

    def t1_label_dist(self) -> np.ndarray:
        dist = self.base_label_dist().copy()
        dist[EsciLabel.EXACT.index] += self.t1_exact_offset
        dist[EsciLabel.SUBSTITUTE.index] -= self.t1_exact_offset
        return np.clip(dist, 0.0, None) / np.clip(dist, 0.0, None).sum()


@dataclass(frozen=True)
class SynthResult:
    catalog: Catalog
    t1_examples: ExampleSet
    t2t3_examples: ExampleSet
    probs: ProbTable


def _split_sizes(config: SynthConfig) -> dict[str, int]:
    n = config.n_queries
    n_train = int(round(n * config.train_fraction))
    n_private = int(round(n * config.private_fraction))
    n_train = min(n_train, n)
    n_private = min(n_private, n - n_train)
    return {
        SPLIT_TRAIN: n_train,
        SPLIT_PRIVATE: n_private,
        SPLIT_PUBLIC: n - n_train - n_private,
    }


def _words(rng: np.random.Generator, vocab: tuple[str, ...], low: int, high: int) -> str:
    n = int(rng.integers(low, high + 1))
    return " ".join(map(vocab.__getitem__, rng.integers(0, len(vocab), size=n).tolist()))


def synth_generate(config: SynthConfig, seed: int) -> SynthResult:
    """Generate a corpus. Pure function of (config, seed)."""
    rng = np.random.default_rng(seed)

    sizes = _split_sizes(config)
    splits = [s for s in SPLIT_ORDER for _ in range(sizes[s])]
    n = len(splits)

    # Query-level draws happen up front in one pass so the later per-member
    # stream is insensitive to split boundaries.
    t1_count = int(round(n * config.t1_fraction))
    t1_flags = np.zeros(n, dtype=bool)
    t1_flags[rng.permutation(n)[:t1_count]] = True

    loc_names = [name for name, _ in config.locale_weights]
    loc_weights = np.array([w for _, w in config.locale_weights], dtype=np.float64)
    loc_weights = loc_weights / loc_weights.sum()
    locales = [loc_names[int(i)] for i in rng.choice(len(loc_names), size=n, p=loc_weights)]

    counts_vals = np.array([c for c, _ in config.count_mixture], dtype=np.int64)
    counts_ps = np.array([p for _, p in config.count_mixture], dtype=np.float64)
    counts_ps = counts_ps / counts_ps.sum()
    counts = counts_vals[rng.choice(len(counts_vals), size=n, p=counts_ps)]

    book_flags = rng.random(n) < config.isbn_query_rate

    base_dist = config.base_label_dist()
    t1_dist = config.t1_label_dist()

    brand_pool_total = max(config.brand_pool_size * 8, 16)
    brands_global = tuple(f"brand{i:03d}" for i in range(brand_pool_total))

    product_ids: list[str] = []
    titles: list[str] = []
    brands: list[str] = []
    colors: list[str] = []
    product_locales: list[str] = []
    used_by_locale: dict[str, list[int]] = {loc: [] for loc in LOCALES}
    isbn_counter = 0
    asin_counter = 0

    # Example columns of each task (query_id, query_text, product_id, locale, label_index).
    t2t3_columns: tuple[list, ...] = ([], [], [], [], [])
    t1_columns: tuple[list, ...] = ([], [], [], [], [])
    probs: list[np.ndarray] = []  # (size, n_models, 4) per query

    gamma = config.group_noise_share
    noise = config.noise

    split_counters = {s: 0 for s in SPLIT_ORDER}
    for qi in range(n):
        split = splits[qi]
        query_id = f"{split}{split_counters[split]:05d}"
        split_counters[split] += 1
        locale = locales[qi]
        size = int(counts[qi])
        query_text = _words(rng, _QUERY_WORDS, 2, 5)

        pool_idx = rng.choice(len(brands_global), size=config.brand_pool_size, replace=False)
        brand_pool = [brands_global[int(i)] for i in pool_idx]
        dominant = brand_pool[0]

        used = used_by_locale[locale]
        member_ids: list[str] = []
        member_set: set[str] = set()
        for _ in range(size):
            reused = False
            if used and rng.random() < config.product_reuse_rate:
                # A handful of bounded retries keeps reuse inside the group-unique rule.
                for _ in range(4):
                    cand = product_ids[used[int(rng.integers(0, len(used)))]]
                    if cand not in member_set:
                        member_ids.append(cand)
                        member_set.add(cand)
                        reused = True
                        break
            if reused:
                continue
            if book_flags[qi] and rng.random() < config.isbn_member_rate:
                product_id = f"{9780000000000 + isbn_counter}"
                isbn_counter += 1
            else:
                product_id = f"B{asin_counter:09d}"
                asin_counter += 1
            brand = dominant if rng.random() < config.dominant_brand_share else brand_pool[
                int(rng.integers(0, len(brand_pool)))
            ]
            used.append(len(product_ids))
            product_ids.append(product_id)
            titles.append(_words(rng, _TITLE_WORDS, 3, 11))
            brands.append(brand)
            colors.append(_COLORS[int(rng.integers(0, len(_COLORS)))])
            product_locales.append(locale)
            member_ids.append(product_id)
            member_set.add(product_id)

        dist = t1_dist if t1_flags[qi] else base_dist
        labels = rng.choice(N_CLASSES, size=size, p=dist)
        if config.force_exact and not (labels == EsciLabel.EXACT.index).any():
            labels[int(rng.integers(0, size))] = EsciLabel.EXACT.index

        rows = ([query_id] * size, [query_text] * size, member_ids, [locale] * size, labels.tolist())
        for columns in (t2t3_columns, t1_columns) if t1_flags[qi] else (t2t3_columns,):
            for column, values in zip(columns, rows):
                column.extend(values)

        group_noise = rng.dirichlet(np.ones(N_CLASSES), size=config.n_models)
        row_noise = rng.dirichlet(np.ones(N_CLASSES), size=(size, config.n_models))
        mixed = gamma * group_noise + (1.0 - gamma) * row_noise
        p = (1.0 - noise) * _ONEHOT[labels][:, None, :] + noise * mixed
        probs.append(p / p.sum(axis=-1, keepdims=True))

    catalog = Catalog(*map(tuple, (product_ids, titles, brands, colors, product_locales)))
    t1, t2t3 = (
        ExampleSet(*columns[:4], np.array(columns[4], dtype=np.int8), task, catalog)
        for columns, task in ((t1_columns, TASK_T1), (t2t3_columns, TASK_T2T3))
    )
    values = np.concatenate(probs)
    return SynthResult(catalog=catalog, t1_examples=t1, t2t3_examples=t2t3, probs=ProbTable(t2t3, values))


def query_split(query_id: str) -> str:
    """Map a generated query_id back to its split by prefix."""
    for split in SPLIT_ORDER:
        if query_id.startswith(split):
            return split
    raise ConfigurationError(f"query_id {query_id!r} does not carry a split prefix")
