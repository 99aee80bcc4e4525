"""Inference batching: token cache, length-presorted batch plans, waste accounting.

Scoring a batch costs its padded token cells (batch size times the longest
member), so grouping similar lengths shrinks the zero-padding overhead.
Token ids come from a surrogate tokenizer: it splits the concatenated product
fields on whitespace and hashes each token with crc32, which is stable across
processes (unlike the builtin string hash).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

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
    text = " ".join(part for part in (title, brand, color) if part)
    tokens = text.split()
    if not tokens:
        return [0]
    return list(map(_token_ids.__getitem__, tokens))


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
    """In-memory token records keyed by product_id."""

    def __init__(self, records: Iterable[TokenRecord]):
        self._by_id = {rec.product_id: rec for rec in records}

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, product_id: str) -> bool:
        return product_id in self._by_id

    def get(self, product_id: str) -> TokenRecord:
        try:
            return self._by_id[product_id]
        except KeyError:
            raise MissingKeyError(f"no token record for product {product_id!r}") from None

    def records(self) -> tuple[TokenRecord, ...]:
        return tuple(self._by_id.values())


@gc_paused()
def build_token_cache(catalog: Catalog, path: str | Path | None = None) -> TokenCache:
    """Tokenize every product once; optionally persist the result."""
    tokens = map(surrogate_tokenizer, catalog.title, catalog.brand, catalog.color)
    cache = TokenCache(map(TokenRecord, catalog.product_id, map(tuple, tokens)))
    if path is not None:
        save_token_cache(cache, path)
    return cache


def save_token_cache(cache: TokenCache, path: str | Path) -> None:
    """Binary layout: magic, version, record count; then per record a
    length-prefixed utf-8 product_id, a token count, and uint32 token ids."""
    with Path(path).open("wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<IQ", _VERSION, len(cache)))
        for rec in cache.records():
            pid = rec.product_id.encode("utf-8")
            handle.write(struct.pack("<H", len(pid)))
            handle.write(pid)
            handle.write(struct.pack("<I", rec.token_length))
            handle.write(struct.pack(f"<{rec.token_length}I", *rec.token_ids))


def load_token_cache(path: str | Path) -> TokenCache:
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != _MAGIC:
        raise FormatError(f"{path}: not a token cache file")
    version, count = struct.unpack_from("<IQ", data, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported cache version {version}, expected {_VERSION}")
    offset = 16
    records = []
    try:
        for _ in range(count):
            (pid_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            if len(data) < offset + pid_len:
                raise FormatError(f"{path}: truncated record")
            pid = data[offset : offset + pid_len].decode("utf-8")
            offset += pid_len
            (n_tokens,) = struct.unpack_from("<I", data, offset)
            offset += 4
            ids = struct.unpack_from(f"<{n_tokens}I", data, offset)
            offset += 4 * n_tokens
            records.append(TokenRecord(pid, tuple(ids)))
    except struct.error as exc:
        raise FormatError(f"{path}: truncated cache file ({exc})") from None
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes")
    return TokenCache(records)


@dataclass(frozen=True)
class Batch:
    pairs: tuple[PairKey, ...]
    lengths: tuple[int, ...]
    original_indices: tuple[int, ...]

    @property
    def padded_length(self) -> int:
        return max(self.lengths)

    @property
    def padded_cells(self) -> int:
        return len(self.pairs) * self.padded_length


@dataclass(frozen=True)
class BatchPlan:
    batches: tuple[Batch, ...]
    batch_size: int

    @property
    def n_items(self) -> int:
        return sum(len(b.pairs) for b in self.batches)


def _chunk(
    ordered: Sequence[tuple[PairKey, int, int]], batch_size: int
) -> tuple[Batch, ...]:
    batches = []
    for start in range(0, len(ordered), batch_size):
        chunk = ordered[start : start + batch_size]
        batches.append(
            Batch(
                pairs=tuple(item[0] for item in chunk),
                lengths=tuple(item[1] for item in chunk),
                original_indices=tuple(item[2] for item in chunk),
            )
        )
    return tuple(batches)


def _validated_items(pairs_with_lengths: Sequence[tuple[PairKey, int]]) -> list[tuple[PairKey, int, int]]:
    if not pairs_with_lengths:
        raise ValidationError("cannot build a batch plan over zero pairs")
    items = []
    for idx, (pair, length) in enumerate(pairs_with_lengths):
        if length < 1:
            raise ValidationError(f"pair {pair}: token length must be positive, got {length}")
        items.append((pair, int(length), idx))
    return items


def presort_batches(
    pairs_with_lengths: Sequence[tuple[PairKey, int]], batch_size: int = DEFAULT_BATCH_SIZE
) -> BatchPlan:
    """Sort by length ascending (ties by pair key), then chunk consecutively."""
    if batch_size < 1:
        raise ValidationError(f"batch_size must be at least 1, got {batch_size}")
    items = _validated_items(pairs_with_lengths)
    items.sort(key=lambda item: (item[1], item[0]))
    return BatchPlan(_chunk(items, batch_size), batch_size)


def sequential_batches(
    pairs_with_lengths: Sequence[tuple[PairKey, int]], batch_size: int = DEFAULT_BATCH_SIZE
) -> BatchPlan:
    """Original-order chunking; the unsorted baseline the presort is measured against."""
    if batch_size < 1:
        raise ValidationError(f"batch_size must be at least 1, got {batch_size}")
    return BatchPlan(_chunk(_validated_items(pairs_with_lengths), batch_size), batch_size)


def padding_waste(plan: BatchPlan) -> float:
    """Zero-padding cells as a share of all processed cells, in [0, 1)."""
    if not plan.batches:
        raise ValidationError("padding waste of an empty plan is undefined")
    padded = sum(b.padded_cells for b in plan.batches)
    used = sum(sum(b.lengths) for b in plan.batches)
    return (padded - used) / padded


def padded_cells(plan: BatchPlan) -> int:
    """Cost proxy: total token cells processed, padding included."""
    return sum(b.padded_cells for b in plan.batches)


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
    """
    get = cache.get if isinstance(cache, TokenCache) else cache.__getitem__
    out: np.ndarray | None = None
    for batch_index, batch in enumerate(plan.batches):
        records = [get(pid) for _, pid in batch.pairs]
        for rec, stated in zip(records, batch.lengths):
            if rec.token_length != stated:
                raise ValidationError(
                    f"batch {batch_index}: cached length {rec.token_length} for product "
                    f"{rec.product_id!r} disagrees with planned length {stated}"
                )
        width = batch.padded_length
        tokens = np.zeros((len(records), width), dtype=np.int64)
        for i, rec in enumerate(records):
            tokens[i, : rec.token_length] = rec.token_ids
        lengths = np.array(batch.lengths, dtype=np.int64)
        try:
            scores = np.asarray(scorer(tokens, lengths, batch.pairs), dtype=np.float64)
        except Exception as exc:
            raise ValidationError(f"scorer failed on batch {batch_index}: {exc}") from exc
        if scores.ndim == 1:
            scores = scores.reshape(-1, 1)
        if scores.shape[0] != len(records):
            raise ValidationError(
                f"scorer returned {scores.shape[0]} rows for batch {batch_index} "
                f"of {len(records)} pairs"
            )
        if out is None:
            out = np.empty((plan.n_items, scores.shape[1]), dtype=np.float64)
        out[list(batch.original_indices)] = scores
    assert out is not None  # plans are non-empty by construction
    return out
