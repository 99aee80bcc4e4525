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

Each run of a shape is a fresh worker process, which imports `shoprank` from
a source tree before it starts a clock. The pipeline, load, batch-sim and
matrix-I/O shapes (`<layer>-<queries>`) run on the seed-7 synth corpus of
that size, written once by this checkout's `shoprank synth`. A shape of
50,000 queries or more (`load-50000`) makes one run whatever `--runs` says.

Tree-build shapes: for each one it generates a seeded synthetic corpus in
process, assembles its feature matrix and keeps the rows the shape names, with
the T2 labels and the gradients and hessians of the first multiclass round.
The worker builds the four class trees twice to warm up, then times further
builds on the same presorted matrix. It reports wall time per tree and the
minor page faults per tree from `getrusage`, so faults are those of the
warmed-up, steady state.

Synth shapes (`synth-<queries>`): the worker times `synth_generate` on the
default config at seed 7 and the corpus writers `synth` calls (catalog, both
example files, probabilities and splits) into a temporary directory. It
reports the total, its two parts and the time per query, with the pairs and
products of the corpus.

Pipeline shapes: the worker times one `shoprank pipeline` command on the
corpus (`--seed 7 --sweep-t3-threshold` at the shape's rounds: loading,
training, heads and writing). Each run is made twice, unpinned and pinned to
one CPU as `taskset -c 0` pins it (so the folds train in the worker's own
process). It reports wall seconds, the CPU seconds of the worker and its
forked children, and the peak RSS of each.

Load shapes: the worker times the data path of `shoprank features` stage by
stage: the catalog, the T1 and the T2T3 example files (both resolved against
the catalog), the probabilities and the T2T3 feature matrix. It reports each
stage's wall seconds and the process's peak RSS after it, and the totals.

Batch-sim shapes: the worker times one `shoprank batch-sim --batch-size 32`
command on the corpus (catalog and T2T3 examples: loading, the token cache
and both plans' cells). It reports wall seconds and the process's peak RSS.

Matrix-I/O shapes: the corpus's T2T3 feature file is written once too, and
its cache is deleted. The worker loads that file (untimed), then times three
steps: `FeatureMatrix.save` to a new path, `load` of what it wrote (through
the cache where the source tree writes one), and `load` again after deleting
the cache (the CSV path). It reports each step's wall seconds and the
process's peak RSS after it. A source tree that writes no cache loads the
CSV in both load steps.

With `--baseline SRC`, every run is a pair of workers, one on each source
tree, in alternating order, and both see the same inputs.

The result is written to `BENCH_<short commit>.json` at the checkout root
(`-dirty` when the source tree differs from that commit) or to `--out`. It
holds the CPU count, the Python and numpy versions, rows x columns x depth of
each tree-build shape, and the median and quartiles over the runs. Only numpy
and the standard library are used.

Each layer is one `Layer` in `LAYERS` (see its fields), and one path runs
them all. To add a shape, add its name and the fields its entry states to its
layer's `shapes`. To add a layer, add one `Layer` and its worker; its entries
go under its name in the record's `layers`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
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
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WARMUP_PASSES = 2
SYNTH_SEED = 7
BATCH_SIM_SIZE = 32
#: A shape of at least this many queries makes one run whatever --runs says.
ONE_RUN_QUERIES = 50_000


@dataclass(frozen=True)
class Shape:
    """A tree-build shape's settings."""

    queries: int
    seed: int
    rows: str  # "all" pairs of the corpus, or "fold0": the training rows of T2's fold 0
    depth: int
    min_samples_leaf: int
    passes: int  # timed passes over the four class trees per run
    target_ms: float | None = None  # a per-tree goal from ROADMAP item 3

    def stated(self) -> dict:
        """The fields the shape's entry states; its rows and columns come from the worker."""
        fields = {"depth": self.depth, "settings": asdict(self), "trees_per_run": 4 * self.passes}
        if self.target_ms is not None:
            fields["target_ms_per_tree"] = self.target_ms
        return fields


def seeded(queries: int, **fields) -> dict:
    """The fields stated by a shape on the seed-7 synth corpus of that many queries."""
    return {"queries": queries, "seed": SYNTH_SEED, **fields}


def build_inputs(name: str, fields: dict, directory: Path) -> str:
    """A tree-build shape's matrix, labels and first-round g and h, saved as one .npz file."""
    sys.path.insert(0, str(ROOT / "src"))
    from shoprank import dataio, gbdt
    from shoprank.features import assemble_features
    from shoprank.synth import SPLIT_TRAIN, SynthConfig, query_split, synth_generate

    shape = Shape(**fields["settings"])
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
    return str(path)


def write_corpus(name: str, fields: dict, directory: Path) -> str:
    """The seed-7 synth corpus of a shape, written by this checkout's `shoprank synth`."""
    corpus = directory / name
    shoprank(["synth", "--seed", str(fields["seed"]), "--queries", str(fields["queries"]), "--out", str(corpus)])
    return str(corpus)


def shoprank(argv: list[str]) -> None:
    """One command of this checkout's `shoprank`, in a child process, its stdout dropped."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "shoprank.cli", *argv], env=env, check=True, stdout=subprocess.DEVNULL)


def write_feature_file(name: str, fields: dict, directory: Path) -> str:
    """The T2T3 feature file of a matrix-I/O shape's corpus, written by this checkout's `shoprank features`,
    with no cache beside it."""
    corpus = Path(write_corpus(name, fields, directory))
    inputs = [arg for part in ("catalog", "t1", "probs") for arg in (f"--{part}", str(corpus / f"{part}.csv"))]
    features = corpus / "features.csv"
    shoprank(["features", *inputs, "--examples", str(corpus / "t2t3.csv"), "--out", str(features)])
    Path(f"{features}.cache").unlink(missing_ok=True)
    return str(features)


def tree_worker(src: str, fields: dict, path: str) -> tuple[dict, dict]:
    """Time the tree builder of the source tree src on one shape's inputs.

    One shape per process: the allocator's state, and so the page faults,
    depend on what the process did before.
    """
    sys.path.insert(0, src)
    from shoprank import gbdt

    shape = Shape(**fields["settings"])
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
    return ({"rows": X.shape[0], "columns": X.shape[1]},
            {"ms_per_tree": 1000.0 * seconds / trees, "minor_faults_per_tree": faults / trees})


def synth_worker(src: str, fields: dict, path: str) -> tuple[dict, dict]:
    """Time synth_generate and the corpus writers of the source tree src on one synth shape."""
    sys.path.insert(0, src)
    from shoprank import dataio
    from shoprank.synth import SPLIT_ORDER, SynthConfig, query_split, synth_generate

    start = time.perf_counter()
    corpus = synth_generate(SynthConfig(n_queries=fields["queries"]), fields["seed"])
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
    return {"pairs": len(corpus.t2t3_examples), "products": len(corpus.catalog)}, {
        "seconds": written - start,
        "generate_s": generated - start,
        "write_s": written - generated,
        "ms_per_query": 1000.0 * (written - start) / fields["queries"],
    }


def timed_command(src: str, argv: list[str]) -> tuple[float, float]:
    """Wall and CPU seconds of one `shoprank` command of the source tree src, run in this process with its
    stdout dropped. `shoprank.cli` is imported before either clock starts."""
    sys.path.insert(0, src)
    from shoprank import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        if cli.main(argv) != 0:
            raise SystemExit(f"shoprank {' '.join(argv)} failed")
        seconds = time.perf_counter() - start
        cpu_s = cpu_seconds() - cpu_start
    return seconds, cpu_s


def pipeline_worker(src: str, fields: dict, corpus: str) -> tuple[dict, dict]:
    """Time one `shoprank pipeline` command of the source tree src on a pipeline shape's corpus."""
    inputs = [arg for part in ("catalog", "t1", "t2t3", "probs", "splits")
              for arg in (f"--{part}", str(Path(corpus) / f"{part}.csv"))]
    with tempfile.TemporaryDirectory() as out:
        seconds, cpu_s = timed_command(src, ["pipeline", *inputs, "--seed", str(fields["seed"]), "--rounds",
                                             str(fields["rounds"]), "--sweep-t3-threshold", "--out", out])
    return {}, {
        "seconds": seconds,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def load_worker(src: str, fields: dict, corpus: str) -> tuple[dict, dict]:
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
    for stage, step in steps.items():
        start = time.perf_counter()
        loaded[stage] = step()
        stages[stage] = {"seconds": time.perf_counter() - start, "peak_rss_mb": peak_rss_mb()}
    return {"pairs": len(loaded["t2t3_examples"]), "products": len(loaded["catalog"])}, {
        "seconds": sum(stage["seconds"] for stage in stages.values()),
        "peak_rss_mb": peak_rss_mb(),
        "stages": stages,
    }


def batch_sim_worker(src: str, fields: dict, corpus: str) -> tuple[dict, dict]:
    """Time one `shoprank batch-sim` command of the source tree src on a batch-sim shape's corpus."""
    files = Path(corpus)
    with tempfile.TemporaryDirectory() as out:
        report = Path(out) / "batch_sim.txt"
        seconds, _ = timed_command(src, ["batch-sim", "--catalog", str(files / "catalog.csv"), "--examples",
                                         str(files / "t2t3.csv"), "--batch-size", str(fields["batch_size"]),
                                         "--out", str(report)])
        pairs = int(report.read_text(encoding="utf-8").split("\n", 1)[0].removeprefix("pairs: "))
    return {"pairs": pairs}, {"seconds": seconds, "peak_rss_mb": peak_rss_mb()}


def matrix_io_worker(src: str, fields: dict, features: str) -> tuple[dict, dict]:
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

        for step, run in {"save": lambda: matrix.save(path), "load_cache": lambda: FeatureMatrix.load(path),
                          "load_csv": load_csv}.items():
            start = time.perf_counter()
            run()
            steps[step] = {"seconds": time.perf_counter() - start, "peak_rss_mb": peak_rss_mb()}
        return {"pairs": matrix.n_rows, "columns": len(matrix.columns), "csv_bytes": path.stat().st_size}, steps


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and of its waited-for children."""
    usages = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(usage.ru_utime + usage.ru_stime for usage in usages)


@dataclass(frozen=True)
class Layer:
    """One benchmark layer: everything the one path that samples, summarises and writes layers needs."""

    name: str  # its key under the record's `layers`
    shapes: dict[str, dict]  # shape name -> the fields its entry states, which its input and worker read
    prepare: Callable[[str, dict, Path], str]  # (name, fields, directory) -> the input every worker gets
    worker: Callable[[str, dict, str], tuple[dict, dict]]  # (src, fields, input) -> (counts, metrics)
    ratios: tuple[str, ...]  # metric paths printed, and each given a `<path>_ratio` against a baseline
    method: str  # how it times, for the record's `method`
    pinned: bool = False  # each run is an unpinned and a pinned worker, their metrics nested under those names


LAYERS = (
    Layer(
        "tree_build",
        {
            # One fold model of `pipeline` on a 500-query corpus (the `crossfit` workload).
            "crossfit-fold": Shape(500, 7, "fold0", 6, 20, passes=6).stated(),
            # Every pair of `synth --seed 7`, the full-corpus shape of ROADMAP item 3.
            "full-500": Shape(500, 7, "all", 6, 20, passes=2, target_ms=62.0).stated(),
            # Every pair of a 150-query corpus at the depth of the `ablate` workload.
            "full-150-depth4": Shape(150, 7, "all", 4, 20, passes=6, target_ms=11.1).stated(),
            # A few seconds in all; for smoke tests of this script.
            "tiny": Shape(40, 7, "all", 3, 5, passes=2).stated(),
        },
        build_inputs, tree_worker, ("ms_per_tree",),
        f"{WARMUP_PASSES} warm-up passes over the four class trees of the first multiclass round, then the timed "
        "passes",
    ),
    Layer(
        "synth",
        {"synth-150": seeded(150), "synth-500": seeded(500), "synth-5000": seeded(5000), "synth-tiny": seeded(40)},
        lambda name, fields, directory: "", synth_worker, ("seconds",),
        "one synth_generate call and the corpus writers after the imports",
    ),
    Layer(
        "pipeline",
        # 500 x 15 is the perfbench `crossfit` size.
        {"pipeline-500": seeded(500, rounds=15), "pipeline-tiny": seeded(40, rounds=3)},
        write_corpus, pipeline_worker, ("unpinned/seconds", "unpinned/cpu_s", "pinned/seconds", "pinned/cpu_s"),
        "one `shoprank pipeline` command after the imports, unpinned and pinned to one CPU, with CPU seconds and "
        "peak RSS of the worker and of its forked children",
        pinned=True,
    ),
    Layer(
        "load",
        {"load-5000": seeded(5000), "load-50000": seeded(50000), "load-tiny": seeded(40)},
        write_corpus, load_worker, ("seconds", "peak_rss_mb"),
        "the features data path (catalog, both example files, probabilities, T2T3 matrix) after the imports, with "
        "wall seconds and peak RSS after each stage (load-50000: one run)",
    ),
    Layer(
        "batch_sim",
        {"batch-sim-5000": seeded(5000, batch_size=BATCH_SIM_SIZE),
         "batch-sim-tiny": seeded(40, batch_size=BATCH_SIM_SIZE)},
        write_corpus, batch_sim_worker, ("seconds", "peak_rss_mb"),
        f"one `shoprank batch-sim --batch-size {BATCH_SIM_SIZE}` command after the imports, with wall seconds and "
        "peak RSS",
    ),
    Layer(
        "matrix_io",
        {"matrix-io-5000": seeded(5000), "matrix-io-tiny": seeded(40)},
        write_feature_file, matrix_io_worker, ("save/seconds", "load_cache/seconds", "load_csv/seconds"),
        "after an untimed load of the shape's feature file, FeatureMatrix.save, load through the cache and load "
        "with the cache deleted, with wall seconds and peak RSS after each",
    ),
)
#: The layer of each shape name.
LAYER_OF = {name: layer for layer in LAYERS for name in layer.shapes}


def run_worker(src: Path, name: str, path: str, pinned: bool = False) -> tuple[dict, dict]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(src), name, path]
    # Pinned runs get one CPU, the lowest this process may use, as `taskset -c 0` gives CPU 0.
    pin = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if pinned else None
    proc = subprocess.run(argv, capture_output=True, text=True, check=False, preexec_fn=pin)
    if proc.returncode != 0:
        raise SystemExit(f"worker on {src} failed:\n{proc.stderr}")
    counts, metrics = json.loads(proc.stdout.splitlines()[-1])
    return counts, metrics


def sample(src: Path, name: str, path: str) -> tuple[dict, dict]:
    """One run of a shape on the source tree src: one worker's (counts, metrics), or for a pinned layer
    an unpinned and a pinned worker's, with the first's counts."""
    if not LAYER_OF[name].pinned:
        return run_worker(src, name, path)
    runs = {mode: run_worker(src, name, path, pinned=mode == "pinned") for mode in ("unpinned", "pinned")}
    return runs["unpinned"][0], {mode: metrics for mode, (_, metrics) in runs.items()}


def summary(runs: list) -> dict:
    """The median and quartiles over runs of each metric, nested as the workers nest them."""
    if isinstance(runs[0], dict):
        return {key: summary([run[key] for run in runs]) for key in runs[0]}
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def entry(name: str, samples: dict[str, list[tuple[dict, dict]]]) -> dict:
    """A shape's entry: its fields, the counts of its first run and each source tree's summary; with a
    baseline, the change-to-baseline ratio of the medians of each of its layer's ratio paths."""
    layer = LAYER_OF[name]
    counts = samples["change"][0][0]
    result = {"shape": name, **layer.shapes[name], **counts}
    for side, runs in samples.items():
        result[side] = summary([metrics for _, metrics in runs])

    def median(side: str, path: str) -> float:
        node = result[side]
        for key in path.split("/"):
            node = node[key]
        return node["median"]

    if "target_ms_per_tree" in result:
        result["target_met"] = median("change", "ms_per_tree") <= result["target_ms_per_tree"]
    if "baseline" in samples:
        for path in layer.ratios:
            result[f"{path.replace('/', '_')}_ratio"] = median("change", path) / median("baseline", path)
    line = f"{name:16s}" + "".join(f" {value} {key}" for key, value in counts.items())
    for side in samples:
        line += f"  {side}" + "".join(f" {path} {median(side, path):.4g}" for path in layer.ratios)
    print(line)
    return result


def commit_stamp(root: Path) -> tuple[str | None, bool]:
    """(short commit, whether src/ or bench/ differs from it) of the checkout at root; (None, True) outside git."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=False)

    head = git("rev-parse", "--short=7", "HEAD")
    if head.returncode != 0:
        return None, True
    dirty = git("status", "--porcelain", "--", "src", "bench").stdout.strip() != ""
    return head.stdout.strip(), dirty


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shapes", nargs="+", choices=sorted(LAYER_OF),
                        default=["crossfit-fold", "full-500", "full-150-depth4",
                                 "synth-150", "synth-500", "synth-5000", "pipeline-500", "load-5000"])
    parser.add_argument("--runs", type=int, default=5, help="worker runs per source tree (default 5)")
    parser.add_argument("--baseline", type=Path, help="another source tree (its src directory) to measure too")
    parser.add_argument("--out", type=Path, help="result file (default BENCH_<short commit>.json at the root)")
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        src, name, path = args.worker
        print(json.dumps(LAYER_OF[name].worker(src, LAYER_OF[name].shapes[name], path)))
        return 0
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    sources = {"change": ROOT / "src"}
    if args.baseline is not None:
        if not (args.baseline / "shoprank" / "gbdt.py").is_file():
            parser.error(f"--baseline {args.baseline}: no shoprank source tree there")
        sources["baseline"] = args.baseline.resolve()
    shapes = list(dict.fromkeys(args.shapes))  # a repeated name runs once
    samples = {name: {side: [] for side in sources} for name in shapes}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {name: LAYER_OF[name].prepare(name, LAYER_OF[name].shapes[name], Path(tmp)) for name in shapes}
        for run in range(args.runs):
            order = list(sources) if run % 2 == 0 else list(reversed(sources))
            for name, path in inputs.items():
                if run > 0 and LAYER_OF[name].shapes[name].get("queries", 0) >= ONE_RUN_QUERIES:
                    continue
                for side in order:
                    samples[name][side].append(sample(sources[side], name, path))

    commit, dirty = commit_stamp(ROOT)
    layers = {layer.name: [entry(name, samples[name]) for name in shapes if LAYER_OF[name] is layer]
              for layer in LAYERS}
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
            "is given; " + "".join(f"{layer.name}: {layer.method}; " for layer in LAYERS)
            + "medians and quartiles over runs"
        ),
        "layers": {name: entries for name, entries in layers.items() if entries},
    }
    out = args.out or ROOT / f"BENCH_{commit or 'nogit'}{'-dirty' if dirty else ''}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
