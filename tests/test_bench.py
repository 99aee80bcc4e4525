"""bench/bench.py on its six tiny shapes: the record's key paths, its ratios and its medians."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TINY = ("tiny", "synth-tiny", "pipeline-tiny", "load-tiny", "batch-sim-tiny", "matrix-io-tiny")
#: Per layer: the fields an entry states, the metric paths under each source tree, and the ratio keys.
ENTRIES = {
    "tree_build": (
        ["shape", "rows", "columns", "depth", "trees_per_run",
         *(f"settings/{key}" for key in ("queries", "seed", "rows", "depth", "min_samples_leaf", "passes",
                                         "target_ms"))],
        ["ms_per_tree", "minor_faults_per_tree"],
        ["ms_per_tree_ratio"],
    ),
    "synth": (
        ["shape", "queries", "seed", "pairs", "products"],
        ["seconds", "generate_s", "write_s", "ms_per_query"],
        ["seconds_ratio"],
    ),
    "pipeline": (
        ["shape", "queries", "rounds", "seed"],
        [f"{mode}/{metric}" for mode in ("unpinned", "pinned")
         for metric in ("seconds", "cpu_s", "peak_rss_mb", "children_peak_rss_mb")],
        ["unpinned_seconds_ratio", "unpinned_cpu_s_ratio", "pinned_seconds_ratio", "pinned_cpu_s_ratio"],
    ),
    "load": (
        ["shape", "queries", "seed", "pairs", "products"],
        ["seconds", "peak_rss_mb", *(f"stages/{stage}/{metric}"
                                     for stage in ("catalog", "t1_examples", "t2t3_examples", "probs", "features")
                                     for metric in ("seconds", "peak_rss_mb"))],
        ["seconds_ratio", "peak_rss_mb_ratio"],
    ),
    "batch_sim": (
        ["shape", "queries", "seed", "batch_size", "pairs"],
        ["seconds", "peak_rss_mb"],
        ["seconds_ratio", "peak_rss_mb_ratio"],
    ),
    "matrix_io": (
        ["shape", "queries", "seed", "pairs", "columns", "csv_bytes"],
        [f"{step}/{metric}" for step in ("save", "load_cache", "load_csv") for metric in ("seconds", "peak_rss_mb")],
        ["save_seconds_ratio", "load_cache_seconds_ratio", "load_csv_seconds_ratio"],
    ),
}
SUMMARY = ("median", "q1", "q3", "runs")
#: Metrics that may read 0: a warmed-up tree build may fault no page, and a pinned pipeline forks no worker.
MAY_BE_ZERO = ("minor_faults_per_tree", "pinned/children_peak_rss_mb")
#: The record's `method` at one run, which stays byte for byte so that old BENCH files stay comparable.
METHOD = (
    "1 runs per source tree, each in a fresh process, alternating order when a baseline is given; tree_build:"
    " 2 warm-up passes over the four class trees of the first multiclass round, then the timed passes; synth:"
    " one synth_generate call and the corpus writers after the imports; pipeline: one `shoprank pipeline` "
    "command after the imports, unpinned and pinned to one CPU, with CPU seconds and peak RSS of the worker "
    "and of its forked children; load: the features data path (catalog, both example files, probabilities, "
    "T2T3 matrix) after the imports, with wall seconds and peak RSS after each stage (load-50000: one run); "
    "batch_sim: one `shoprank batch-sim --batch-size 32` command after the imports, with wall seconds and "
    "peak RSS; matrix_io: after an untimed load of the shape's feature file, FeatureMatrix.save, load through"
    " the cache and load with the cache deleted, with wall seconds and peak RSS after each; medians and "
    "quartiles over runs"
)


def key_paths(node, prefix=""):
    """Every leaf path of a record's dicts; a `runs` list is one path."""
    if not isinstance(node, dict):
        return {prefix}
    return {path for key, value in node.items() for path in key_paths(value, f"{prefix}{key}/")}


def bench(tmp_path, *argv):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "bench.py"), *argv, "--runs", "1", "--out", str(out)],
                   cwd=ROOT, check=True, capture_output=True, text=True, timeout=300)
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("bench"), "--shapes", *TINY, "--baseline", str(ROOT / "src"))


@pytest.mark.parametrize("layer", ENTRIES)
def test_entry_key_paths(record, layer):
    fields, metrics, ratios = ENTRIES[layer]
    (entry,) = record["layers"][layer]
    sides = {f"{side}/{metric}/{part}" for side in ("change", "baseline") for metric in metrics for part in SUMMARY}
    assert {path.rstrip("/") for path in key_paths(entry)} == {*fields, *ratios} | sides


@pytest.mark.parametrize("layer", ENTRIES)
def test_ratios_and_medians_are_positive(record, layer):
    _, metrics, ratios = ENTRIES[layer]
    (entry,) = record["layers"][layer]
    assert all(entry[ratio] > 0 for ratio in ratios), entry
    for side in ("change", "baseline"):
        for metric in metrics:
            summary = entry[side]
            for key in metric.split("/"):
                summary = summary[key]
            assert summary["median"] >= 0 if metric in MAY_BE_ZERO else summary["median"] > 0, entry


def test_record_header(record):
    assert list(record["layers"]) == list(ENTRIES)
    assert record["baseline"] is not None and record["machine"]["numpy"]
    assert record["method"] == METHOD


def test_a_repeated_shape_runs_once(tmp_path):
    (entry,) = bench(tmp_path, "--shapes", "synth-tiny", "synth-tiny")["layers"]["synth"]
    assert len(entry["change"]["seconds"]["runs"]) == 1
