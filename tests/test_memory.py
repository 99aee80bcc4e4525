"""Memory the loaders and the scheduler keep: bytes retained per pair, measured with tracemalloc.

A loaded example set, probability table or feature matrix keeps two integer
codes per pair and each distinct id once, not a string per cell or a tuple
per pair; an assembled feature matrix keeps the example set it was given.
A token cache keeps its products' token ids in one flat array, and a batch
plan a length and a position per pair. The retained bytes per added pair (per
added product for a token cache) are measured between a 150-query and a
600-query corpus, so the fixed cost of a table cancels out; a feature
matrix's values and a token cache's ids (4 bytes each, as in its file) are
not counted. Each bound is about 1.5 times the measured value (Python 3.11,
numpy 2.4); per-row strings, tuples or records cost several times that. A
feature file is loaded twice, through its cache and through the CSV path
(a copy of the file without a cache), and both loads keep the same bounds.
"""

import gc
import shutil
import tracemalloc
from unittest import mock

import pytest

from shoprank import dataio
from shoprank.cli import main
from shoprank.dataio import load_catalog, load_examples, load_probs
from shoprank.features import FeatureMatrix, assemble_features
from shoprank.model import TASK_T1, TASK_T2T3
from shoprank.sched import BatchPlan, TokenCache, build_token_cache, presort_batches

#: Measured bytes kept per added T2T3 pair: 33 with a catalog (whose ids the codes point
#: into), 99 without one (the distinct product ids are kept too), and 116 for probabilities
#: (32 of them the one model's four float64 values). Each per-row string cost about 60 more,
#: and each pair tuple 64. Beyond its values, an assembled matrix keeps 0 bytes per added pair
#: (it holds the example set; a (query_id, product_id) tuple per row kept 64), and a loaded
#: one 78: two codes and the distinct ids of the file (a tuple per row kept 174; measured
#: again beside its cache, 84 through the cache and 84 through the CSV path). Beyond its
#: ids, a token cache keeps 17 bytes per added product (a TokenRecord, its tuple and a dict
#: entry kept 191), and a presorted plan 24 per added pair (its batches' tuples kept 59).
BOUNDS = {
    "examples with catalog": 50,
    "examples": 150,
    "probs": 175,
    "assembled matrix": 16,
    "loaded matrix": 120,
    "loaded matrix, CSV path": 120,
    "token cache": 25,
    "presorted plan": 36,
}


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    for queries in (150, 600):
        corpus = root / str(queries)
        assert main(["synth", "--seed", "7", "--queries", str(queries), "--out", str(corpus)]) == 0
        inputs = [f"--{name}={corpus / name}.csv" for name in ("catalog", "probs", "t1")]
        assert main(["features", *inputs, f"--examples={corpus / 't2t3.csv'}", f"--out={corpus / 'f.csv'}"]) == 0
        assert (corpus / "f.csv.cache").exists()
        for name in ("no_cache.csv", "no_cache.csv.schema"):
            shutil.copy(corpus / name.replace("no_cache", "f"), corpus / name)
    return root


def retained(load):
    """What load returns, the bytes still allocated for it once it returned, and the most bytes
    allocated at once while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = load()
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0] - before, peak - before
    finally:
        tracemalloc.stop()


def loaders(corpus):
    catalog = load_catalog(corpus / "catalog.csv")
    examples = load_examples(corpus / "t2t3.csv", TASK_T2T3, catalog)
    probs, t1 = load_probs(corpus / "probs.csv"), load_examples(corpus / "t1.csv", TASK_T1)
    cache = build_token_cache(catalog)
    items = [(pair, cache.get(pid).token_length) for pair, pid in zip(examples.pairs, examples.product_id)]
    return {
        "examples with catalog": lambda: load_examples(corpus / "t2t3.csv", TASK_T2T3, catalog),
        "examples": lambda: load_examples(corpus / "t2t3.csv", TASK_T2T3),
        "probs": lambda: load_probs(corpus / "probs.csv"),
        "assembled matrix": lambda: assemble_features(examples, catalog, probs, t1.product_id),
        "loaded matrix": lambda: FeatureMatrix.load(corpus / "f.csv"),
        "loaded matrix, CSV path": lambda: FeatureMatrix.load(corpus / "no_cache.csv"),
        "token cache": lambda: build_token_cache(catalog),
        "presorted plan": lambda: presort_batches(items, 32),
    }


def pairs_and_bytes(kept, kept_bytes):
    """The pairs (products of a token cache) kept, and the bytes kept beyond a feature
    matrix's values or a token cache's ids."""
    if isinstance(kept, FeatureMatrix):
        return kept.n_rows, kept_bytes - kept.values.nbytes
    if isinstance(kept, TokenCache):
        return len(kept), kept_bytes - 4 * sum(rec.token_length for rec in kept.records())
    if isinstance(kept, BatchPlan):
        return kept.n_items, kept_bytes
    return len(kept), kept_bytes


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_bytes_retained_per_added_pair(corpora, name):
    (small, small_bytes), (large, large_bytes) = (
        pairs_and_bytes(*retained(loaders(corpora / queries)[name])[:2]) for queries in ("150", "600")
    )
    per_pair = (large_bytes - small_bytes) / (large - small)
    assert large > 3 * small
    assert per_pair <= BOUNDS[name], f"{name}: {per_pair:.1f} bytes per added pair (product)"


def loaded_matrix_peak(corpora, name):
    """Per added pair, the most bytes allocated at once while FeatureMatrix.load read the feature
    file `name` of each corpus, and the bytes it kept, values included."""
    with mock.patch.object(dataio, "_CHUNK_ROWS", 64):
        (small, small_kept, small_peak), (large, large_kept, large_peak) = (
            retained(lambda: FeatureMatrix.load(corpora / queries / name)) for queries in ("150", "600")
        )
    added = large.n_rows - small.n_rows
    assert large.n_rows > 3 * small.n_rows
    return (large_peak - small_peak) / added, (large_kept - small_kept) / added


def test_loaded_matrix_peak(corpora):
    """Through the cache, FeatureMatrix.load reads the values and codes into the one buffer they
    keep, so per added pair its peak is at most 1.5 times what it keeps, values included."""
    peak, kept = loaded_matrix_peak(corpora, "f.csv")
    assert peak <= 1.5 * kept, f"peak {peak:.1f} against {kept:.1f} bytes kept per added pair"


def test_loaded_matrix_peak_through_the_csv_path(corpora):
    """Without a cache, FeatureMatrix.load fills one values array a chunk of rows at a time, so
    the same bound holds (a second copy of the values, made from a whole-file structured table,
    took it to 1.97)."""
    peak, kept = loaded_matrix_peak(corpora, "no_cache.csv")
    assert peak <= 1.5 * kept, f"peak {peak:.1f} against {kept:.1f} bytes kept per added pair"
