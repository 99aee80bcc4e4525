"""Inference batching: token cache, length-presorted batch plans, waste accounting.

Scoring a batch costs its padded token cells (batch size times the longest
member), so grouping similar lengths shrinks the zero-padding overhead.
Token ids come from a surrogate tokenizer: it splits the concatenated product
fields on whitespace and hashes each token with crc32, which is stable across
processes (unlike the builtin string hash). The cache and the plans are
column arrays: every product's token ids in one flat array, and a plan's
lengths and order as integer arrays; records and batches are built on request.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .dataio import regular_file
from .errors import FormatError, MissingKeyError, ValidationError
from .model import Catalog, PairKey, gc_paused

DEFAULT_BATCH_SIZE = 4

_MAGIC = b"SRTC"
_VERSION = 1


class _TokenIds(dict):
    """Memo of each token's crc32 id: a catalog repeats few distinct tokens.

    An id depends on its token alone, so sharing the memo changes no result;
    it is emptied at 65,536 entries to bound its memory.
    """

    def __missing__(self, token: str) -> int:
        if len(self) >= 1 << 16:
            self.clear()
        token_id = self[token] = zlib.crc32(token.encode("utf-8")) & 0x7FFFFFFF
        return token_id


_token_ids = _TokenIds()


def surrogate_tokenizer(title: str, brand: str, color: str) -> list[int]:
    """Whitespace tokens over a product's title, brand and color, crc32 token ids.

    A product with no text at all still yields one sentinel token, so every
    record has positive length.
    """
    tokens = " ".join((title, brand, color)).split()  # split() drops the space an empty part leaves
    return list(map(_token_ids.__getitem__, tokens)) if tokens else [0]


@dataclass(frozen=True)
class TokenRecord:
    product_id: str
    token_ids: tuple[int, ...]

    def __post_init__(self):
        if not self.token_ids:
            raise ValidationError(f"token record for {self.product_id!r} has no tokens")

    @property
    def token_length(self) -> int:
        return len(self.token_ids)


class TokenCache:
    """Token ids of products as columns: the ids of row r are ids[offsets[r] : offsets[r + 1]].

    row_of maps each product id to its row; TokenRecords are built on request.
    """

    def __init__(self, row_of: Mapping[str, int], ids: np.ndarray, offsets: np.ndarray):
        self.row_of, self.ids, self.offsets = row_of, ids, offsets
        self.lengths = np.diff(offsets)

    @classmethod
    def of_records(cls, records: Mapping[str, TokenRecord]) -> "TokenCache":
        """The records of a mapping, each under its key."""
        token_ids = [rec.token_ids for rec in records.values()]
        offsets = np.cumsum([0, *map(len, token_ids)], dtype=np.int64)
        ids = np.fromiter(chain.from_iterable(token_ids), dtype=np.int64, count=offsets[-1])
        return cls(dict(zip(records, range(len(token_ids)))), ids, offsets)

    def __len__(self) -> int:
        return len(self.row_of)

    def __contains__(self, product_id: str) -> bool:
        return product_id in self.row_of

    def get(self, product_id: str) -> TokenRecord:
        try:
            row = self.row_of[product_id]
        except KeyError:
            raise MissingKeyError(f"no token record for product {product_id!r}") from None
        return TokenRecord(product_id, tuple(self.ids[self.offsets[row] : self.offsets[row + 1]].tolist()))

    def records(self) -> tuple[TokenRecord, ...]:
        return tuple(map(self.get, self.row_of))


@gc_paused()
def build_token_cache(catalog: Catalog, path: str | Path | None = None) -> TokenCache:
    """Tokenize every product once, into one flat id array; optionally persist the result."""
    ids, offsets = array("I"), array("q", [0])
    for tokens in map(surrogate_tokenizer, catalog.title, catalog.brand, catalog.color):
        ids.extend(tokens)
        offsets.append(len(ids))
    cache = TokenCache(catalog.row_of, np.frombuffer(ids, dtype=np.uintc), np.frombuffer(offsets, dtype=np.int64))
    if path is not None:
        save_token_cache(cache, path)
    return cache


def save_token_cache(cache: TokenCache, path: str | Path) -> None:
    """Binary layout: magic, version, record count; then per record a
    length-prefixed utf-8 product_id, a token count, and uint32 token ids."""
    ids, offsets = memoryview(cache.ids.astype("<u4", copy=False)).cast("B"), cache.offsets.tolist()
    with Path(path).open("wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<IQ", _VERSION, len(cache)))
        for product_id, row in cache.row_of.items():
            pid = product_id.encode("utf-8")
            handle.write(struct.pack("<H", len(pid)))
            handle.write(pid)
            handle.write(struct.pack("<I", offsets[row + 1] - offsets[row]))
            handle.write(ids[4 * offsets[row] : 4 * offsets[row + 1]])


def load_token_cache(path: str | Path) -> TokenCache:
    """A cache file's records; a product listed twice resolves to its later record."""
    data = regular_file(path).read_bytes()
    if len(data) < 16 or data[:4] != _MAGIC:
        raise FormatError(f"{path}: not a token cache file")
    version, count = struct.unpack_from("<IQ", data, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported cache version {version}, expected {_VERSION}")
    view, offset, row_of, ids, offsets = memoryview(data), 16, {}, bytearray(), array("q", [0])
    try:
        for row in range(count):
            (pid_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            if len(data) < offset + pid_len:
                raise FormatError(f"{path}: truncated record")
            try:
                pid = data[offset : offset + pid_len].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: record {row + 1}: product_id is not UTF-8 ({exc})") from None
            offset += pid_len
            (n_tokens,) = struct.unpack_from("<I", data, offset)
            offset += 4
            struct.unpack_from(f"<{4 * n_tokens}x", data, offset)  # the bounds check of unpacking the ids
            if not n_tokens:
                raise FormatError(f"{path}: record {row + 1}: product {pid!r} has no tokens")
            row_of[pid] = row
            ids += view[offset : offset + 4 * n_tokens]
            offsets.append(offsets[-1] + n_tokens)
            offset += 4 * n_tokens
    except struct.error as exc:
        raise FormatError(f"{path}: truncated cache file ({exc})") from None
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes")
    return TokenCache(row_of, np.frombuffer(ids, dtype="<u4"), np.frombuffer(offsets, dtype=np.int64))


@dataclass(frozen=True)
class Batch:
    pairs: tuple[PairKey, ...]
    lengths: tuple[int, ...]
    original_indices: tuple[int, ...]

    @property
    def padded_length(self) -> int:
        return max(self.lengths)


@dataclass(frozen=True, eq=False)
class BatchPlan:
    """Input pairs and their token lengths, and the plan order: batch b holds
    the pairs at order[b * batch_size : (b + 1) * batch_size]."""

    pairs: Sequence[PairKey]
    lengths: np.ndarray
    order: np.ndarray
    batch_size: int

    @property
    def n_items(self) -> int:
        return len(self.order)

    @property
    def batches(self) -> tuple[Batch, ...]:
        order, lengths, size = self.order.tolist(), self.lengths.tolist(), self.batch_size
        chunks = (order[start : start + size] for start in range(0, len(order), size))
        return tuple(
            Batch(tuple(map(self.pairs.__getitem__, chunk)), tuple(map(lengths.__getitem__, chunk)), tuple(chunk))
            for chunk in chunks
        )


def _check_plan(n_items: int, batch_size: int) -> None:
    if batch_size < 1:
        raise ValidationError(f"batch_size must be at least 1, got {batch_size}")
    if not n_items:
        raise ValidationError("cannot build a batch plan over zero pairs")


def sequential_batches(
    pairs_with_lengths: Sequence[tuple[PairKey, int]], batch_size: int = DEFAULT_BATCH_SIZE
) -> BatchPlan:
    """Original-order chunking; the unsorted baseline the presort is measured against."""
    _check_plan(len(pairs_with_lengths), batch_size)
    pairs, lengths = zip(*pairs_with_lengths)
    stated = np.array(lengths, dtype=np.int64)
    bad = np.flatnonzero(stated < 1)
    if bad.size:
        pair, length = pairs_with_lengths[bad[0]]
        raise ValidationError(f"pair {pair}: token length must be positive, got {length}")
    return BatchPlan(pairs, stated, np.arange(len(pairs)), batch_size)


def presort_batches(
    pairs_with_lengths: Sequence[tuple[PairKey, int]], batch_size: int = DEFAULT_BATCH_SIZE
) -> BatchPlan:
    """Sort by length ascending (ties by pair key, then input order), then chunk consecutively."""
    plan = sequential_batches(pairs_with_lengths, batch_size)
    by_length = np.argsort(plan.lengths, kind="stable")
    runs = np.split(by_length, np.flatnonzero(np.diff(plan.lengths[by_length])) + 1)
    by_pair = chain.from_iterable(sorted(run.tolist(), key=plan.pairs.__getitem__) for run in runs)
    order = np.fromiter(by_pair, dtype=np.int64, count=plan.n_items)
    return BatchPlan(plan.pairs, plan.lengths, order, batch_size)


class Cells(NamedTuple):
    """Token cells of a plan: processed ones (padding included) and used ones."""

    padded: int
    used: int

    @property
    def waste(self) -> float:
        """Zero-padding cells as a share of all processed cells, in [0, 1)."""
        return (self.padded - self.used) / self.padded


def batch_cells(ordered_lengths: np.ndarray, batch_size: int) -> Cells:
    """Cells of consecutive batches of batch_size over token lengths in plan order."""
    _check_plan(len(ordered_lengths), batch_size)
    starts = np.arange(0, len(ordered_lengths), batch_size)
    widths = np.maximum.reduceat(ordered_lengths, starts)
    sizes = np.diff(starts, append=len(ordered_lengths))
    return Cells(int(widths @ sizes), int(ordered_lengths.sum()))


def padding_waste(plan: BatchPlan) -> float:
    """Zero-padding cells as a share of all processed cells, in [0, 1)."""
    return batch_cells(plan.lengths[plan.order], plan.batch_size).waste


def padded_cells(plan: BatchPlan) -> int:
    """Cost proxy: total token cells processed, padding included."""
    return batch_cells(plan.lengths[plan.order], plan.batch_size).padded


BatchScorer = Callable[[np.ndarray, np.ndarray, Sequence[PairKey]], np.ndarray]


def run_inference(
    plan: BatchPlan,
    cache: TokenCache | Mapping[str, TokenRecord],
    scorer: BatchScorer,
) -> np.ndarray:
    """Score every batch, restoring original input order in the output.

    The scorer receives (padded_tokens, lengths, pairs) where padded_tokens
    is an int64 array of shape (batch, padded_length) zero-padded on the
    right, and must return one probability row per pair. Any scorer failure
    aborts the whole run, naming the batch; there are no partial results.
    A product without a record is a MissingKeyError raised at its batch.
    """
    order = plan.order
    product_ids = [plan.pairs[i][1] for i in order.tolist()]
    if not isinstance(cache, TokenCache):
        cache = TokenCache.of_records({pid: cache[pid] for pid in dict.fromkeys(product_ids) if pid in cache})
    rows = np.fromiter(map(cache.row_of.get, product_ids, repeat(-1)), dtype=np.int64, count=len(product_ids))
    stated = plan.lengths[order]
    out: np.ndarray | None = None
    for batch_index, start in enumerate(range(0, len(order), plan.batch_size)):
        at = slice(start, start + plan.batch_size)
        missing = np.flatnonzero(rows[at] < 0)
        if missing.size:
            raise MissingKeyError(f"no token record for product {product_ids[start + missing[0]]!r}")
        lengths, cached = stated[at], cache.lengths[rows[at]]
        wrong = np.flatnonzero(cached != lengths)
        if wrong.size:
            i = wrong[0]
            raise ValidationError(
                f"batch {batch_index}: cached length {cached[i]} for product "
                f"{product_ids[start + i]!r} disagrees with planned length {lengths[i]}"
            )
        columns = np.arange(lengths.max())
        tokens = cache.ids.take(cache.offsets[rows[at], None] + columns, mode="clip").astype(np.int64)
        tokens[columns >= lengths[:, None]] = 0
        batch_pairs = tuple(map(plan.pairs.__getitem__, order[at].tolist()))
        try:
            scores = np.asarray(scorer(tokens, lengths, batch_pairs), dtype=np.float64)
        except Exception as exc:
            raise ValidationError(f"scorer failed on batch {batch_index}: {exc}") from exc
        if scores.ndim == 1:
            scores = scores.reshape(-1, 1)
        if scores.shape[0] != len(lengths):
            raise ValidationError(
                f"scorer returned {scores.shape[0]} rows for batch {batch_index} "
                f"of {len(lengths)} pairs"
            )
        if out is None:
            out = np.empty((plan.n_items, scores.shape[1]), dtype=np.float64)
        out[order[at]] = scores
    assert out is not None  # plans are non-empty by construction
    return out
