"""The repository's own benchmark trajectory; so far six layers: the tree builder, synth, pipeline, load, batch-sim
and feature-matrix I/O.

Run from the root of a source checkout:

    python3 bench/bench.py
    python3 bench/bench.py --baseline ../parent/src --runs 7
    python3 bench/bench.py --shapes synth-500 synth-5000
    python3 bench/bench.py --shapes pipeline-500 --runs 3
    python3 bench/bench.py --shapes load-5000 load-50000 --baseline ../parent/src
    python3 bench/bench.py --shapes batch-sim-5000 --baseline ../parent/src
    python3 bench/bench.py --shapes matrix-io-5000 --baseline ../parent/src

Tree-build shapes: for each one it generates a seeded synthetic corpus in
process, assembles its feature matrix and keeps the rows the shape names, with
the T2 labels and the gradients and hessians of the first multiclass round. A
fresh worker process per run and shape imports `shoprank` from a source tree,
builds the four class trees twice to warm up, then times further builds on the
same presorted matrix. It reports wall time per tree and the minor page faults
per tree from `getrusage`, so faults are those of the warmed-up, steady state.

Synth shapes (`synth-<queries>`): a fresh worker process per run imports
`shoprank`, then times `synth_generate` on the default config at seed 7 and
the corpus writers `synth` calls (catalog, both example files, probabilities
and splits) into a temporary directory. It reports the total, its two parts
and the time per query, with the pairs and products of the corpus.

Pipeline shapes (`pipeline-<queries>`): the seed-7 corpus of that size is
written once; a fresh worker process per run imports `shoprank` and times one
`shoprank pipeline` command on it (`--seed 7 --sweep-t3-threshold` at the
shape's rounds: loading, training, heads and writing). Each run is made twice,
unpinned and pinned to one CPU as `taskset -c 0` pins it (so the folds train
in the worker's own process). It reports wall seconds, the CPU seconds of the
worker and its forked children, and the peak RSS of each.

Load shapes (`load-<queries>`): the seed-7 corpus of that size is written
once; a fresh worker process per run imports `shoprank` and times the data
path of `shoprank features` stage by stage: the catalog, the T1 and the T2T3
example files (both resolved against the catalog), the probabilities and the
T2T3 feature matrix. It reports each stage's wall seconds and the process's
peak RSS after it, and the totals. `load-50000` makes one run whatever
`--runs` says.

Batch-sim shapes (`batch-sim-<queries>`): the seed-7 corpus of that size is
written once; a fresh worker process per run imports `shoprank` and times one
`shoprank batch-sim --batch-size 32` command on it (catalog and T2T3 examples:
loading, the token cache and both plans' cells). It reports wall seconds and
the process's peak RSS.

Matrix-I/O shapes (`matrix-io-<queries>`): the seed-7 corpus of that size and
its T2T3 feature file are written once, and the file's cache is deleted. A
fresh worker process per run imports `shoprank`, loads that file (untimed),
then times three steps: `FeatureMatrix.save` to a new path, `load` of what it
wrote (through the cache where the source tree writes one), and `load` again
after deleting the cache (the CSV path). It reports each step's wall seconds
and the process's peak RSS after it. A source tree that writes no cache
loads the CSV in both load steps.

With `--baseline SRC`, every run is a pair of workers, one on each source
tree, in alternating order, and both see the same inputs.

The result is written to `BENCH_<short commit>.json` at the checkout root
(`-dirty` when the source tree differs from that commit) or to `--out`. It
holds the CPU count, the Python and numpy versions, rows x columns x depth of
each tree-build shape, and the median and quartiles over the runs. Only numpy
and the standard library are used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WARMUP_PASSES = 2


@dataclass(frozen=True)
class Shape:
    queries: int
    seed: int
    rows: str  # "all" pairs of the corpus, or "fold0": the training rows of T2's fold 0
    depth: int
    min_samples_leaf: int
    passes: int  # timed passes over the four class trees per run
    target_ms: float | None = None  # a per-tree goal from ROADMAP item 3


SHAPES = {
    # One fold model of `pipeline` on a 500-query corpus (the `crossfit` workload).
    "crossfit-fold": Shape(500, 7, "fold0", 6, 20, passes=6),
    # Every pair of `synth --seed 7`, the full-corpus shape of ROADMAP item 3.
    "full-500": Shape(500, 7, "all", 6, 20, passes=2, target_ms=62.0),
    # Every pair of a 150-query corpus at the depth of the `ablate` workload.
    "full-150-depth4": Shape(150, 7, "all", 4, 20, passes=6, target_ms=11.1),
    # A few seconds in all; for smoke tests of this script.
    "tiny": Shape(40, 7, "all", 3, 5, passes=2),
}
#: Queries of each synth shape; "synth-tiny" is for smoke tests of this script.
SYNTH_SHAPES = {"synth-150": 150, "synth-500": 500, "synth-5000": 5000, "synth-tiny": 40}
SYNTH_SEED = 7
#: (queries, rounds) of each pipeline shape; 500 x 15 is the perfbench `crossfit` size.
PIPELINE_SHAPES = {"pipeline-500": (500, 15), "pipeline-tiny": (40, 3)}
PIPELINE_METRICS = ("seconds", "cpu_s", "peak_rss_mb", "children_peak_rss_mb")
#: (queries, most runs) of each load shape; None keeps --runs.
LOAD_SHAPES = {"load-5000": (5000, None), "load-50000": (50000, 1), "load-tiny": (40, None)}
LOAD_STAGES = ("catalog", "t1_examples", "t2t3_examples", "probs", "features")
LOAD_METRICS = ("seconds", "peak_rss_mb")
#: Queries of each batch-sim shape, and the batch size its command plans with.
BATCH_SIM_SHAPES = {"batch-sim-5000": 5000, "batch-sim-tiny": 40}
BATCH_SIM_SIZE = 32
#: Queries of each matrix-I/O shape, and its timed steps.
MATRIX_IO_SHAPES = {"matrix-io-5000": 5000, "matrix-io-tiny": 40}
MATRIX_IO_STEPS = ("save", "load_cache", "load_csv")


def build_inputs(name: str, shape: Shape, directory: Path) -> Path:
    """The shape's matrix, labels and first-round g and h, saved as one .npz file."""
    sys.path.insert(0, str(ROOT / "src"))
    from shoprank import dataio, gbdt
    from shoprank.features import assemble_features
    from shoprank.synth import SPLIT_TRAIN, SynthConfig, query_split, synth_generate

    corpus = synth_generate(SynthConfig(n_queries=shape.queries), shape.seed)
    examples = corpus.t2t3_examples
    matrix = assemble_features(examples, corpus.catalog, corpus.probs, corpus.t1_examples.product_id)
    keep = examples.label_index >= 0
    if shape.rows == "fold0":
        # The rows pipeline trains its first T2 fold model on: labeled training queries outside fold 0.
        keep &= np.array([query_split(q) == SPLIT_TRAIN for q in examples.query_id])
        folds = dataio.split_folds(examples.subset(keep), 2, shape.seed)
        query_fold = np.array([folds.by_query.get(q, -1) for q in examples.query_ids()])
        keep &= query_fold[examples.query_code] == 1
    X = np.ascontiguousarray(matrix.values[keep])
    y = examples.label_index[keep].astype(np.int64)
    priors = np.bincount(y, minlength=4) / y.size
    margins = np.tile(np.log(np.clip(priors, 1e-12, None)), (y.size, 1))
    g, h = gbdt.multiclass_grad_hess(margins, y)
    path = directory / f"{name}.npz"
    np.savez(path, X=X, g=g, h=h)
    return path


def worker(src: str, name: str, path: str) -> dict:
    """Time the tree builder of the source tree src on one shape's inputs.

    One shape per process: the allocator's state, and so the page faults,
    depend on what the process did before.
    """
    sys.path.insert(0, src)
    from shoprank import gbdt

    shape = SHAPES[name]
    data = np.load(path)
    X = data["X"]
    gh = [(np.ascontiguousarray(data["g"][:, k]), np.ascontiguousarray(data["h"][:, k])) for k in range(4)]
    params = gbdt.GbdtParams(max_depth=shape.depth, min_samples_leaf=shape.min_samples_leaf)
    presorted = gbdt._Presorted(X)

    def one_pass():
        for g, h in gh:
            gbdt._build_tree(presorted, g, h, params)

    for _ in range(WARMUP_PASSES):
        one_pass()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for _ in range(shape.passes):
        one_pass()
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    trees = shape.passes * len(gh)
    return {"ms_per_tree": 1000.0 * seconds / trees, "minor_faults_per_tree": faults / trees}


def synth_worker(src: str, name: str) -> dict:
    """Time synth_generate and the corpus writers of the source tree src on one synth shape."""
    sys.path.insert(0, src)
    from shoprank import dataio
    from shoprank.synth import SPLIT_ORDER, SynthConfig, query_split, synth_generate

    start = time.perf_counter()
    corpus = synth_generate(SynthConfig(n_queries=SYNTH_SHAPES[name]), SYNTH_SEED)
    generated = time.perf_counter()
    split_name = dict(zip(SPLIT_ORDER, dataio.SPLIT_NAMES))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        dataio.write_catalog(corpus.catalog, out / "catalog.csv")
        dataio.write_examples(corpus.t1_examples, out / "t1.csv")
        dataio.write_examples(corpus.t2t3_examples, out / "t2t3.csv")
        dataio.write_probs(corpus.probs, out / "probs.csv")
        splits = {q: split_name[query_split(q)] for q in corpus.t2t3_examples.query_ids()}
        dataio.write_splits(splits, out / "splits.csv")
        written = time.perf_counter()
    return {
        "seconds": written - start,
        "generate_s": generated - start,
        "write_s": written - generated,
        "ms_per_query": 1000.0 * (written - start) / SYNTH_SHAPES[name],
        "pairs": len(corpus.t2t3_examples),
        "products": len(corpus.catalog),
    }


def write_corpus(name: str, directory: Path) -> Path:
    """The seed-7 synth corpus of a pipeline, load or batch-sim shape, written by this checkout's `shoprank synth`."""
    corpus = directory / name
    queries = (BATCH_SIM_SHAPES.get(name) or MATRIX_IO_SHAPES.get(name)
               or (PIPELINE_SHAPES.get(name) or LOAD_SHAPES[name])[0])
    argv = ["synth", "--seed", str(SYNTH_SEED), "--queries", str(queries), "--out", str(corpus)]
    shoprank(argv)
    return corpus


def shoprank(argv: list[str]) -> None:
    """One command of this checkout's `shoprank`, in a child process, its stdout dropped."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "shoprank.cli", *argv], env=env, check=True, stdout=subprocess.DEVNULL)


def write_feature_file(name: str, directory: Path) -> Path:
    """The T2T3 feature file of a matrix-I/O shape's corpus, written by this checkout's `shoprank features`,
    with no cache beside it."""
    corpus = write_corpus(name, directory)
    inputs = [arg for part in ("catalog", "t1", "probs") for arg in (f"--{part}", str(corpus / f"{part}.csv"))]
    features = corpus / "features.csv"
    shoprank(["features", *inputs, "--examples", str(corpus / "t2t3.csv"), "--out", str(features)])
    Path(f"{features}.cache").unlink(missing_ok=True)
    return features


def pipeline_worker(src: str, name: str, corpus: str) -> dict:
    """Time one `shoprank pipeline` command of the source tree src on a pipeline shape's corpus."""
    sys.path.insert(0, src)
    import contextlib
    import io

    from shoprank import cli

    inputs = [arg for part in ("catalog", "t1", "t2t3", "probs", "splits")
              for arg in (f"--{part}", str(Path(corpus) / f"{part}.csv"))]
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        argv = ["pipeline", *inputs, "--seed", str(SYNTH_SEED), "--rounds", str(PIPELINE_SHAPES[name][1]),
                "--sweep-t3-threshold", "--out", out]
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        if cli.main(argv) != 0:
            raise SystemExit(f"pipeline failed on {corpus}")
        seconds = time.perf_counter() - start
        cpu_s = cpu_seconds() - cpu_start
    return {
        "seconds": seconds,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def load_worker(src: str, corpus: str) -> dict:
    """Time each stage of the `features` data path of the source tree src on a load shape's corpus."""
    sys.path.insert(0, src)
    from shoprank import dataio
    from shoprank.features import assemble_features
    from shoprank.model import TASK_T1, TASK_T2T3

    files = Path(corpus)
    stages: dict = {}
    loaded: dict = {}
    steps = {
        "catalog": lambda: dataio.load_catalog(files / "catalog.csv"),
        "t1_examples": lambda: dataio.load_examples(files / "t1.csv", TASK_T1, loaded["catalog"]),
        "t2t3_examples": lambda: dataio.load_examples(files / "t2t3.csv", TASK_T2T3, loaded["catalog"]),
        "probs": lambda: dataio.load_probs(files / "probs.csv"),
        "features": lambda: assemble_features(
            loaded["t2t3_examples"], loaded["catalog"], loaded["probs"], loaded["t1_examples"].product_id
        ),
    }
    for stage in LOAD_STAGES:
        start = time.perf_counter()
        loaded[stage] = steps[stage]()
        stages[stage] = {"seconds": time.perf_counter() - start, "peak_rss_mb": peak_rss_mb()}
    return {
        "seconds": sum(stage["seconds"] for stage in stages.values()),
        "peak_rss_mb": peak_rss_mb(),
        "pairs": len(loaded["t2t3_examples"]),
        "products": len(loaded["catalog"]),
        "stages": stages,
    }


def batch_sim_worker(src: str, corpus: str) -> dict:
    """Time one `shoprank batch-sim` command of the source tree src on a batch-sim shape's corpus."""
    sys.path.insert(0, src)
    import contextlib
    import io

    from shoprank import cli

    files = Path(corpus)
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        argv = ["batch-sim", "--catalog", str(files / "catalog.csv"), "--examples", str(files / "t2t3.csv"),
                "--batch-size", str(BATCH_SIM_SIZE), "--out", str(Path(out) / "batch_sim.txt")]
        start = time.perf_counter()
        if cli.main(argv) != 0:
            raise SystemExit(f"batch-sim failed on {corpus}")
        seconds = time.perf_counter() - start
        report = (Path(out) / "batch_sim.txt").read_text(encoding="utf-8")
    pairs = int(report.split("\n", 1)[0].removeprefix("pairs: "))
    return {"seconds": seconds, "peak_rss_mb": peak_rss_mb(), "pairs": pairs}


def matrix_io_worker(src: str, features: str) -> dict:
    """Time FeatureMatrix.save and load, with and without the cache, of the source tree src on a matrix-I/O shape."""
    sys.path.insert(0, src)
    from shoprank.features import FeatureMatrix

    matrix = FeatureMatrix.load(features)
    steps: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.csv"

        def load_csv():
            Path(f"{path}.cache").unlink(missing_ok=True)
            return FeatureMatrix.load(path)

        for step, run in zip(MATRIX_IO_STEPS, (lambda: matrix.save(path), lambda: FeatureMatrix.load(path), load_csv)):
            start = time.perf_counter()
            run()
            steps[step] = {"seconds": time.perf_counter() - start, "peak_rss_mb": peak_rss_mb()}
        return {"pairs": matrix.n_rows, "columns": len(matrix.columns), "csv_bytes": path.stat().st_size,
                "steps": steps}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and of its waited-for children."""
    usages = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(usage.ru_utime + usage.ru_stime for usage in usages)


def run_worker(src: Path, name: str, path: str, pinned: bool = False) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(src), name, path]
    # Pinned runs get one CPU, the lowest this process may use, as `taskset -c 0` gives CPU 0.
    pin = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if pinned else None
    proc = subprocess.run(argv, capture_output=True, text=True, check=False, preexec_fn=pin)
    if proc.returncode != 0:
        raise SystemExit(f"worker on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def commit_stamp(root: Path) -> tuple[str | None, bool]:
    """(short commit, whether src/ or bench/ differs from it) of the checkout at root; (None, True) outside git."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=False)

    head = git("rev-parse", "--short=7", "HEAD")
    if head.returncode != 0:
        return None, True
    dirty = git("status", "--porcelain", "--", "src", "bench").stdout.strip() != ""
    return head.stdout.strip(), dirty


def tree_entry(name: str, shape_of: tuple[int, int], runs: dict[str, list[dict]]) -> dict:
    shape = SHAPES[name]
    entry = {
        "shape": name,
        "rows": shape_of[0],
        "columns": shape_of[1],
        "depth": shape.depth,
        "settings": asdict(shape),
        "trees_per_run": 4 * shape.passes,
    }
    for side, results in runs.items():
        entry[side] = {metric: summary([r[metric] for r in results])
                       for metric in ("ms_per_tree", "minor_faults_per_tree")}
    if shape.target_ms is not None:
        entry["target_ms_per_tree"] = shape.target_ms
        entry["target_met"] = entry["change"]["ms_per_tree"]["median"] <= shape.target_ms
    if "baseline" in runs:
        change, baseline = (entry[side]["ms_per_tree"]["median"] for side in ("change", "baseline"))
        entry["ms_per_tree_ratio"] = change / baseline
    line = f"{name:16s} {entry['rows']:6d} x {entry['columns']} depth {entry['depth']}"
    for side in runs:
        ms, faults = entry[side]["ms_per_tree"]["median"], entry[side]["minor_faults_per_tree"]["median"]
        line += f"  {side} {ms:8.2f} ms/tree {faults:8.1f} faults/tree"
    print(line)
    return entry


def synth_entry(name: str, runs: dict[str, list[dict]]) -> dict:
    first = runs["change"][0]
    entry = {"shape": name, "queries": SYNTH_SHAPES[name], "seed": SYNTH_SEED,
             "pairs": first["pairs"], "products": first["products"]}
    for side, results in runs.items():
        entry[side] = {metric: summary([r[metric] for r in results])
                       for metric in ("seconds", "generate_s", "write_s", "ms_per_query")}
    if "baseline" in runs:
        change, baseline = (entry[side]["seconds"]["median"] for side in ("change", "baseline"))
        entry["seconds_ratio"] = change / baseline
    line = f"{name:16s} {entry['pairs']:7d} pairs {entry['products']:7d} products"
    for side in runs:
        seconds, ms = entry[side]["seconds"]["median"], entry[side]["ms_per_query"]["median"]
        line += f"  {side} {seconds:8.3f} s {ms:6.3f} ms/query"
    print(line)
    return entry


def pipeline_entry(name: str, runs: dict[str, list[dict]]) -> dict:
    queries, rounds = PIPELINE_SHAPES[name]
    entry = {"shape": name, "queries": queries, "rounds": rounds, "seed": SYNTH_SEED}
    for side, results in runs.items():
        entry[side] = {mode: {metric: summary([r[mode][metric] for r in results]) for metric in PIPELINE_METRICS}
                       for mode in ("unpinned", "pinned")}
    if "baseline" in runs:
        for mode in ("unpinned", "pinned"):
            for metric in ("seconds", "cpu_s"):
                change, baseline = (entry[side][mode][metric]["median"] for side in ("change", "baseline"))
                entry[f"{mode}_{metric}_ratio"] = change / baseline
    line = f"{name:16s} {queries:5d} queries {rounds:3d} rounds"
    for side in runs:
        unpinned, pinned = (entry[side][mode] for mode in ("unpinned", "pinned"))
        line += (f"  {side} {unpinned['seconds']['median']:7.3f} s ({unpinned['cpu_s']['median']:7.3f} cpu s)"
                 f" pinned {pinned['seconds']['median']:7.3f} s")
    print(line)
    return entry


def load_entry(name: str, runs: dict[str, list[dict]]) -> dict:
    first = runs["change"][0]
    entry = {"shape": name, "queries": LOAD_SHAPES[name][0], "seed": SYNTH_SEED,
             "pairs": first["pairs"], "products": first["products"]}
    for side, results in runs.items():
        entry[side] = {metric: summary([r[metric] for r in results]) for metric in LOAD_METRICS}
        entry[side]["stages"] = {
            stage: {metric: summary([r["stages"][stage][metric] for r in results]) for metric in LOAD_METRICS}
            for stage in LOAD_STAGES
        }
    if "baseline" in runs:
        for metric in LOAD_METRICS:
            change, baseline = (entry[side][metric]["median"] for side in ("change", "baseline"))
            entry[f"{metric}_ratio"] = change / baseline
    line = f"{name:16s} {entry['pairs']:7d} pairs {entry['products']:7d} products"
    for side in runs:
        seconds, peak = (entry[side][metric]["median"] for metric in LOAD_METRICS)
        line += f"  {side} {seconds:8.3f} s {peak:8.1f} MB peak"
    print(line)
    return entry


def batch_sim_entry(name: str, runs: dict[str, list[dict]]) -> dict:
    entry = {"shape": name, "queries": BATCH_SIM_SHAPES[name], "seed": SYNTH_SEED,
             "batch_size": BATCH_SIM_SIZE, "pairs": runs["change"][0]["pairs"]}
    for side, results in runs.items():
        entry[side] = {metric: summary([r[metric] for r in results]) for metric in LOAD_METRICS}
    if "baseline" in runs:
        for metric in LOAD_METRICS:
            change, baseline = (entry[side][metric]["median"] for side in ("change", "baseline"))
            entry[f"{metric}_ratio"] = change / baseline
    line = f"{name:16s} {entry['pairs']:7d} pairs batch size {BATCH_SIM_SIZE}"
    for side in runs:
        seconds, peak = (entry[side][metric]["median"] for metric in LOAD_METRICS)
        line += f"  {side} {seconds:8.3f} s {peak:8.1f} MB peak"
    print(line)
    return entry


def matrix_io_entry(name: str, runs: dict[str, list[dict]]) -> dict:
    first = runs["change"][0]
    entry = {"shape": name, "queries": MATRIX_IO_SHAPES[name], "seed": SYNTH_SEED,
             "pairs": first["pairs"], "columns": first["columns"], "csv_bytes": first["csv_bytes"]}
    for side, results in runs.items():
        entry[side] = {step: {metric: summary([r["steps"][step][metric] for r in results]) for metric in LOAD_METRICS}
                       for step in MATRIX_IO_STEPS}
    if "baseline" in runs:
        for step in MATRIX_IO_STEPS:
            change, baseline = (entry[side][step]["seconds"]["median"] for side in ("change", "baseline"))
            entry[f"{step}_seconds_ratio"] = change / baseline
    line = f"{name:16s} {entry['pairs']:7d} pairs {entry['columns']:3d} columns"
    for side in runs:
        line += f"  {side}" + "".join(f" {step} {entry[side][step]['seconds']['median']:6.3f} s" for step in MATRIX_IO_STEPS)
    print(line)
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    shapes = sorted([*SHAPES, *SYNTH_SHAPES, *PIPELINE_SHAPES, *LOAD_SHAPES, *BATCH_SIM_SHAPES, *MATRIX_IO_SHAPES])
    parser.add_argument("--shapes", nargs="+", choices=shapes,
                        default=["crossfit-fold", "full-500", "full-150-depth4",
                                 "synth-150", "synth-500", "synth-5000", "pipeline-500", "load-5000"])
    parser.add_argument("--runs", type=int, default=5, help="worker runs per source tree (default 5)")
    parser.add_argument("--baseline", type=Path, help="another source tree (its src directory) to measure too")
    parser.add_argument("--out", type=Path, help="result file (default BENCH_<short commit>.json at the root)")
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        src, name, path = args.worker
        if name in PIPELINE_SHAPES:
            print(json.dumps(pipeline_worker(src, name, path)))
        elif name in LOAD_SHAPES:
            print(json.dumps(load_worker(src, path)))
        elif name in BATCH_SIM_SHAPES:
            print(json.dumps(batch_sim_worker(src, path)))
        elif name in MATRIX_IO_SHAPES:
            print(json.dumps(matrix_io_worker(src, path)))
        else:
            print(json.dumps(synth_worker(src, name) if name in SYNTH_SHAPES else worker(src, name, path)))
        return 0
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    sources = {"change": ROOT / "src"}
    if args.baseline is not None:
        if not (args.baseline / "shoprank" / "gbdt.py").is_file():
            parser.error(f"--baseline {args.baseline}: no shoprank source tree there")
        sources["baseline"] = args.baseline.resolve()
    samples = {name: {side: [] for side in sources} for name in args.shapes}
    with tempfile.TemporaryDirectory() as tmp:
        def inputs_of(name: str) -> str:
            if name in PIPELINE_SHAPES or name in LOAD_SHAPES or name in BATCH_SIM_SHAPES:
                return str(write_corpus(name, Path(tmp)))
            if name in MATRIX_IO_SHAPES:
                return str(write_feature_file(name, Path(tmp)))
            return "" if name in SYNTH_SHAPES else str(build_inputs(name, SHAPES[name], Path(tmp)))

        inputs = [(name, inputs_of(name)) for name in args.shapes]
        shapes = {name: np.load(path)["X"].shape for name, path in inputs if name in SHAPES}
        for run in range(args.runs):
            order = list(sources) if run % 2 == 0 else list(reversed(sources))
            for name, path in inputs:
                if name in LOAD_SHAPES and run >= (LOAD_SHAPES[name][1] or args.runs):
                    continue
                for side in order:
                    if name in PIPELINE_SHAPES:
                        sample = {mode: run_worker(sources[side], name, path, pinned=mode == "pinned")
                                  for mode in ("unpinned", "pinned")}
                    else:
                        sample = run_worker(sources[side], name, path)
                    samples[name][side].append(sample)

    commit, dirty = commit_stamp(ROOT)
    layers = {
        "tree_build": [tree_entry(name, shapes[name], samples[name]) for name in args.shapes if name in SHAPES],
        "synth": [synth_entry(name, samples[name]) for name in args.shapes if name in SYNTH_SHAPES],
        "pipeline": [pipeline_entry(name, samples[name]) for name in args.shapes if name in PIPELINE_SHAPES],
        "load": [load_entry(name, samples[name]) for name in args.shapes if name in LOAD_SHAPES],
        "batch_sim": [batch_sim_entry(name, samples[name]) for name in args.shapes if name in BATCH_SIM_SHAPES],
        "matrix_io": [matrix_io_entry(name, samples[name]) for name in args.shapes if name in MATRIX_IO_SHAPES],
    }
    record = {
        "commit": commit,
        "dirty": dirty,
        "baseline": dict(zip(("commit", "dirty"), commit_stamp(sources["baseline"].parent)))
        if "baseline" in sources else None,
        "machine": {
            "cpus": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "method": (
            f"{args.runs} runs per source tree, each in a fresh process, alternating order when a baseline "
            f"is given; tree_build: {WARMUP_PASSES} warm-up passes over the four class trees of the first "
            "multiclass round, then the timed passes; synth: one synth_generate call and the corpus writers "
            "after the imports; pipeline: one `shoprank pipeline` command after the imports, unpinned and "
            "pinned to one CPU, with CPU seconds and peak RSS of the worker and of its forked children; "
            "load: the features data path (catalog, both example files, probabilities, T2T3 matrix) after the "
            "imports, with wall seconds and peak RSS after each stage (load-50000: one run); batch_sim: one "
            f"`shoprank batch-sim --batch-size {BATCH_SIM_SIZE}` command after the imports, with wall seconds "
            "and peak RSS; matrix_io: after an untimed load of the shape's feature file, FeatureMatrix.save, "
            "load through the cache and load with the cache deleted, with wall seconds and peak RSS after each; "
            "medians and quartiles over runs"
        ),
        "layers": {layer: entries for layer, entries in layers.items() if entries},
    }
    out = args.out or ROOT / f"BENCH_{commit or 'nogit'}{'-dirty' if dirty else ''}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
