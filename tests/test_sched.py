"""Inference batching: token cache, presorted plans, padding accounting."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprank.errors import FormatError, MissingKeyError, ValidationError
from shoprank.model import Catalog
from shoprank.sched import (
    DEFAULT_BATCH_SIZE,
    TokenCache,
    TokenRecord,
    build_token_cache,
    load_token_cache,
    padded_cells,
    padding_waste,
    presort_batches,
    run_inference,
    save_token_cache,
    sequential_batches,
    surrogate_tokenizer,
)


def catalog_of(titles, brand="", color="", ids=None):
    """One product per title, ids B0, B1, ... unless given."""
    n = len(titles)
    ids = tuple(ids or (f"B{i}" for i in range(n)))
    return Catalog(ids, tuple(titles), (brand,) * n, (color,) * n, ("us",) * n)


class TestTokenizer:
    def test_whitespace_token_count(self):
        assert len(surrogate_tokenizer("red running shoes", "acme", "")) == 4

    def test_empty_text_gets_sentinel(self):
        assert surrogate_tokenizer("", "", "") == [0]

    def test_deterministic_and_nonnegative(self):
        a = surrogate_tokenizer("widget deluxe", "acme", "red")
        assert a == surrogate_tokenizer("widget deluxe", "acme", "red")
        assert all(0 <= t <= 0x7FFFFFFF for t in a)

    def test_same_word_same_token(self):
        a = surrogate_tokenizer("red red", "", "")
        assert a[0] == a[1]

    def test_memoised_ids_are_crc32_of_utf8(self):
        cat = catalog_of(["red shoe", "shoe rot 赤い", "赤い shoe café", "café red red"], "acme", "rot")
        cache = build_token_cache(cat)
        for pid, title, brand, color in zip(cat.product_id, cat.title, cat.brand, cat.color):
            tokens = f"{title} {brand} {color}".split()
            assert cache.get(pid).token_ids == tuple(
                zlib.crc32(tok.encode("utf-8")) & 0x7FFFFFFF for tok in tokens
            )


class TestTokenCache:
    def catalog(self, n=12):
        titles = [f"item number {i} " + "pad " * (i % 5) for i in range(n)]
        return catalog_of(titles, "b", ids=[f"B{i:09d}" for i in range(n)])

    def test_build_covers_catalog(self):
        cat = self.catalog()
        cache = build_token_cache(cat)
        assert len(cache) == len(cat)
        for pid, title, brand, color in zip(cat.product_id, cat.title, cat.brand, cat.color):
            assert pid in cache
            assert cache.get(pid).token_ids == tuple(surrogate_tokenizer(title, brand, color))

    def test_missing_product(self):
        cache = build_token_cache(self.catalog())
        with pytest.raises(MissingKeyError):
            cache.get("B999999999")

    def test_roundtrip_bit_exact(self, tmp_path):
        cache = build_token_cache(self.catalog(50))
        path = tmp_path / "tokens.bin"
        save_token_cache(cache, path)
        loaded = load_token_cache(path)
        assert len(loaded) == len(cache)
        for rec in cache.records():
            assert loaded.get(rec.product_id).token_ids == rec.token_ids
        # a second save produces identical bytes
        path2 = tmp_path / "tokens2.bin"
        save_token_cache(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_build_with_persist(self, tmp_path):
        path = tmp_path / "tokens.bin"
        cache = build_token_cache(self.catalog(), path=path)
        assert path.exists()
        assert len(load_token_cache(path)) == len(cache)

    def test_load_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_token_cache(path)

    def test_load_rejects_truncation(self, tmp_path):
        cache = build_token_cache(self.catalog())
        path = tmp_path / "tokens.bin"
        save_token_cache(cache, path)
        data = path.read_bytes()
        truncated = tmp_path / "trunc.bin"
        truncated.write_bytes(data[: len(data) - 3])
        with pytest.raises(FormatError):
            load_token_cache(truncated)

    def test_load_rejects_trailing_bytes(self, tmp_path):
        cache = build_token_cache(self.catalog())
        path = tmp_path / "tokens.bin"
        save_token_cache(cache, path)
        padded = tmp_path / "padded.bin"
        padded.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_token_cache(padded)

    def test_empty_record_rejected(self):
        with pytest.raises(ValidationError):
            TokenRecord("B1", ())

    @staticmethod
    def cache_file(path, records):
        """A cache file of (product_id bytes, token ids) records, written by hand."""
        parts = [b"SRTC", struct.pack("<IQ", 1, len(records))]
        for pid, ids in records:
            parts += [struct.pack("<H", len(pid)), pid, struct.pack(f"<I{len(ids)}I", len(ids), *ids)]
        path.write_bytes(b"".join(parts))
        return path

    def test_load_rejects_non_utf8_product_id(self, tmp_path):
        path = self.cache_file(tmp_path / "tokens.bin", [(b"B1", [5]), (b"B\xff", [7, 8])])
        with pytest.raises(FormatError, match="record 2: product_id is not UTF-8") as err:
            load_token_cache(path)
        assert str(path) in str(err.value)

    def test_load_rejects_record_without_tokens(self, tmp_path):
        path = self.cache_file(tmp_path / "tokens.bin", [(b"B1", [5]), (b"B2", [6]), (b"B3", [])])
        with pytest.raises(FormatError, match="record 3: product 'B3' has no tokens") as err:
            load_token_cache(path)
        assert str(path) in str(err.value)

    def test_repeated_product_resolves_to_its_later_record(self, tmp_path):
        path = self.cache_file(tmp_path / "tokens.bin", [(b"B1", [5]), (b"B2", [6]), (b"B1", [7, 8])])
        cache = load_token_cache(path)
        assert len(cache) == 2
        assert cache.get("B1").token_ids == (7, 8)
        assert [rec.product_id for rec in cache.records()] == ["B1", "B2"]
        again = tmp_path / "again.bin"
        save_token_cache(cache, again)
        assert again.read_bytes() == self.cache_file(tmp_path / "ref.bin", [(b"B1", [7, 8]), (b"B2", [6])]).read_bytes()


def items(lengths, prefix="p"):
    return [(("q", f"{prefix}{i}"), ln) for i, ln in enumerate(lengths)]


class TestBatchPlans:
    def test_presort_hand_case(self):
        # lengths 10,2,8,4 at batch size 2: sorted pairs (2,4) and (8,10)
        plan = presort_batches(items([10, 2, 8, 4]), batch_size=2)
        assert [b.lengths for b in plan.batches] == [(2, 4), (8, 10)]
        assert [b.padded_length for b in plan.batches] == [4, 10]
        assert padding_waste(plan) == pytest.approx(4 / 28)

    def test_sequential_hand_case(self):
        plan = sequential_batches(items([10, 2, 8, 4]), batch_size=2)
        assert [b.lengths for b in plan.batches] == [(10, 2), (8, 4)]
        assert padding_waste(plan) == pytest.approx(12 / 36)

    def test_presort_idempotent_on_sorted_input(self):
        sorted_items = items([1, 2, 3, 4, 5, 6])
        a = presort_batches(sorted_items, batch_size=2)
        b = sequential_batches(sorted_items, batch_size=2)
        assert [x.pairs for x in a.batches] == [x.pairs for x in b.batches]

    def test_presorted_never_wastes_more(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            lengths = rng.integers(1, 128, size=n).tolist()
            bs = int(rng.choice([1, 2, 4, 8, 32]))
            pre = presort_batches(items(lengths), batch_size=bs)
            seq = sequential_batches(items(lengths), batch_size=bs)
            assert padded_cells(pre) <= padded_cells(seq)
            if padded_cells(seq) > 0:
                assert padding_waste(pre) <= padding_waste(seq)

    def test_batch_size_one_has_zero_waste(self):
        plan = presort_batches(items([7, 3, 12]), batch_size=1)
        assert padding_waste(plan) == 0.0

    def test_last_batch_may_be_short(self):
        plan = presort_batches(items([5, 5, 5, 5, 5]), batch_size=4)
        assert [len(b.pairs) for b in plan.batches] == [4, 1]

    def test_validation(self):
        with pytest.raises(ValidationError):
            presort_batches(items([3]), batch_size=0)
        with pytest.raises(ValidationError):
            presort_batches(items([0]))
        with pytest.raises(ValidationError):
            padding_waste(presort_batches([], batch_size=2))


class TestRunInference:
    def setup_method(self):
        self.catalog = catalog_of(["one", "one two", "one two three", "one two three four five"])
        self.cache = build_token_cache(self.catalog)
        self.pairs = [(("q", f"B{i}"), self.cache.get(f"B{i}").token_length) for i in range(4)]

    def test_scores_restore_original_order(self):
        plan = presort_batches(self.pairs, batch_size=2)

        def scorer(tokens, lengths, pairs):
            # score = token count, recoverable from the padded input
            return np.array([[float(l), 0.0, 0.0, 1.0 - float(l)] for l in lengths])

        out = run_inference(plan, self.cache, scorer)
        # row i corresponds to self.pairs[i] regardless of batch order
        np.testing.assert_allclose(out[:, 0], [1, 2, 3, 5])

    def test_transparency_across_batch_sizes(self):
        """A per-item scorer returns identical results whatever the batching."""

        def scorer(tokens, lengths, pairs):
            return np.array([[tokens[i, : lengths[i]].sum() % 97, 0.0, 0.0, 0.0] for i in range(len(lengths))])

        results = []
        for bs in (1, 4, 32):
            for planner in (presort_batches, sequential_batches):
                out = run_inference(planner(self.pairs, batch_size=bs), self.cache, scorer)
                results.append(out)
        for other in results[1:]:
            np.testing.assert_array_equal(results[0], other)

    def test_padding_is_zero_and_lengths_trustworthy(self):
        plan = presort_batches(self.pairs, batch_size=4)

        def scorer(tokens, lengths, pairs):
            for i, ln in enumerate(lengths):
                assert (tokens[i, ln:] == 0).all()
            return np.zeros((len(lengths), 4))

        run_inference(plan, self.cache, scorer)

    def test_scorer_failure_names_batch(self):
        plan = presort_batches(self.pairs, batch_size=2)

        def scorer(tokens, lengths, pairs):
            raise RuntimeError("backend down")

        with pytest.raises(ValidationError, match="batch 0"):
            run_inference(plan, self.cache, scorer)

    def test_mapping_without_product_raises_missing_key(self):
        records = {pid: self.cache.get(pid) for pid in ("B0", "B1", "B3")}
        plan = presort_batches(self.pairs, batch_size=2)
        with pytest.raises(MissingKeyError, match="'B2'"):
            run_inference(plan, records, lambda t, l, p: np.zeros((len(l), 4)))

    def test_stale_cache_length_rejected(self):
        plan = presort_batches([(("q", "B2"), 99)], batch_size=1)
        with pytest.raises(ValidationError, match="B2"):
            run_inference(plan, self.cache, lambda t, l, p: np.zeros((1, 4)))


class TestCostModel:
    def test_presort_saves_on_mixed_lengths(self):
        """The 16/40-style bimodal length mix is where presorting pays off."""
        rng = np.random.default_rng(9)
        lengths = rng.choice([16, 40], size=200, p=[0.6, 0.4]).tolist()
        pre = presort_batches(items(lengths), batch_size=DEFAULT_BATCH_SIZE)
        seq = sequential_batches(items(lengths), batch_size=DEFAULT_BATCH_SIZE)
        assert padded_cells(pre) < padded_cells(seq)


def reference_batches(pairs_with_lengths, batch_size, presort):
    """The tuple plan: (pair, length, index) items, sorted by (length, pair) when presorted."""
    items = [(pair, int(length), idx) for idx, (pair, length) in enumerate(pairs_with_lengths)]
    if presort:
        items.sort(key=lambda item: (item[1], item[0]))
    chunks = [items[start : start + batch_size] for start in range(0, len(items), batch_size)]
    return [tuple(map(tuple, zip(*chunk))) for chunk in chunks]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    pairs_with_lengths=st.lists(
        st.tuples(st.tuples(st.sampled_from(["q", "q1", "r"]), st.sampled_from(["", "B", "B1", "b", "é"])),
                  st.integers(1, 4)),
        min_size=1, max_size=40,
    ),
    batch_size=st.integers(1, 9),
)
def test_plans_match_the_tuple_sort(pairs_with_lengths, batch_size):
    """Tied lengths break by pair and repeated pairs keep their input order, as the tuple sort does."""
    for planner, presort in ((presort_batches, True), (sequential_batches, False)):
        plan = planner(pairs_with_lengths, batch_size)
        got = [(b.pairs, b.lengths, b.original_indices) for b in plan.batches]
        assert got == reference_batches(pairs_with_lengths, batch_size, presort)
        cells = sum(len(b.pairs) * max(b.lengths) for b in plan.batches)
        assert padded_cells(plan) == cells
        assert padding_waste(plan) == (cells - sum(length for _, length in pairs_with_lengths)) / cells
