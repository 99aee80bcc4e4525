"""Outside-in tracer: wraps shoprank's public functions and records spans.

A span is (id, parent, name, start, end, error, counts). Spans stay in
memory and are written out once, when the traced run ends. Wrapping happens
from outside the program: every public function of the traced modules is
replaced by a timing wrapper in *every* shoprank module global bound to it,
because `pipeline` and `cli` import `assemble_features`, `evaluate_*` and the
`rank` heads by name. Counts (rows, trees, batches, ...) are taken from the
arguments and return values after the span's end time is read, so deriving
them costs trace overhead, not layer time.

`layer_metrics` turns a span list into the per-layer metrics named in
`BENCHMARK.json`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from typing import Callable

import numpy as np

LAYERS = ("dataio", "features", "gbdt", "pipeline", "rank", "metrics", "sched", "synth")

# Span name of the benchmark's own stand-in scorer; sched.inference_s excludes it.
SCORER_SPAN = "bench.scorer"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._seen_inputs: set[int] = set()

    def wrap(self, name: str, func: Callable, counter: Callable | None = None) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "name": name,
                "error": False,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span["end"] = time.perf_counter()
                span["error"] = True
                raise
            else:
                span["end"] = time.perf_counter()
                if counter is not None:
                    try:
                        span["counts"] = counter(self, args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        # The program's interface moved on; leave the counts out
                        # rather than fail the traced run.
                        span["counts"] = {}
                return result
            finally:
                self._stack.pop()

        return traced

    def first_time_seen(self, key: int) -> bool:
        if key in self._seen_inputs:
            return False
        self._seen_inputs.add(key)
        return True


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_train(tracer, args, kwargs, model):
    matrix = _arg(args, kwargs, 0, "matrix")
    params = _arg(args, kwargs, 3, "params")
    return {
        "rows": matrix.n_rows,
        "cols": len(matrix.columns),
        "depth": params.max_depth,
        "trees": len(model.trees),
        "nodes": sum(len(tree.feature) for tree in model.trees),
    }


def _count_predict(tracer, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    matrix = _arg(args, kwargs, 1, "matrix")
    return {"row_trees": matrix.n_rows * len(model.trees)}


def _count_assemble(tracer, args, kwargs, matrix):
    examples = _arg(args, kwargs, 0, "examples")
    t1_products = frozenset(_arg(args, kwargs, 3, "t1_products"))
    key = hash((examples.pairs, t1_products, id(_arg(args, kwargs, 1, "catalog"))))
    return {"rows": matrix.n_rows, "repeat": 0 if tracer.first_time_seen(key) else 1}


def _count_len(tracer, args, kwargs, result):
    return {"rows": len(result)}


def _count_threshold(tracer, args, kwargs, result):
    probs = np.unique(np.asarray(_arg(args, kwargs, 0, "probs"), dtype=np.float64))
    return {"candidates": int(((probs > 0.0) & (probs < 1.0)).sum())}


def _count_report(tracer, args, kwargs, report):
    return {"queries": report.n_queries}


def _count_inference(tracer, args, kwargs, result):
    plan = _arg(args, kwargs, 0, "plan")
    padded = sum(len(b.pairs) * max(b.lengths) for b in plan.batches)
    used = sum(sum(b.lengths) for b in plan.batches)
    return {"batches": len(plan.batches), "padded_cells": padded, "used_cells": used}


_COUNTERS = {
    "gbdt.train": _count_train,
    "gbdt.predict_margins": _count_predict,
    "features.assemble_features": _count_assemble,
    "dataio.load_catalog": _count_len,
    "dataio.load_examples": _count_len,
    "dataio.load_probs": _count_len,
    "dataio.load_splits": _count_len,
    "rank.best_threshold": _count_threshold,
    "metrics.evaluate_ranking": _count_report,
    "metrics.evaluate_classification": _count_report,
    "sched.run_inference": _count_inference,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of LAYERS wherever a shoprank global names them."""
    importlib.import_module("shoprank.cli")  # loads every module the CLI reaches
    wrappers: dict[Callable, Callable] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"shoprank.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                span = f"{layer}.{name}"
                wrappers[obj] = tracer.wrap(span, obj, _COUNTERS.get(span))
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "shoprank" or module_name.startswith("shoprank.")):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])
    # Feature-matrix file I/O lives on the class, so wrap its methods in place.
    matrix_cls = getattr(importlib.import_module("shoprank.features"), "FeatureMatrix", None)
    if matrix_cls is not None:
        matrix_cls.save = tracer.wrap("features.FeatureMatrix.save", matrix_cls.save)
        load = tracer.wrap("features.FeatureMatrix.load", matrix_cls.load.__func__)
        matrix_cls.load = classmethod(load)


# ---------------------------------------------------------------------------
# Span analysis


def _outermost(spans: list[dict], names: set[str]) -> list[dict]:
    """Spans named in `names` that have no ancestor also named in `names`."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for span in spans:
        if span["name"] not in names:
            continue
        parent = span["parent"]
        while parent is not None and by_id[parent]["name"] not in names:
            parent = by_id[parent]["parent"]
        if parent is None:
            out.append(span)
    return out


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _busy(spans: list[dict], names: set[str]) -> float:
    return sum(_duration(s) for s in _outermost(spans, names))


def _count(spans: list[dict], name: str, key: str) -> int:
    return sum(s.get("counts", {}).get(key, 0) for s in spans if s["name"] == name)


def _self_time(spans: list[dict], name: str, exclude_children: set[str] | None = None) -> float:
    """Duration of each `name` span minus its direct children (or only the
    children named in `exclude_children`)."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None and (exclude_children is None or span["name"] in exclude_children):
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + _duration(span)
    return sum(_duration(s) - child_time.get(s["id"], 0.0) for s in spans if s["name"] == name)


_COUNTS = (
    "gbdt.train_calls", "gbdt.trees_built", "gbdt.nodes_built", "gbdt.train_rows", "gbdt.train_cols",
    "gbdt.max_depth", "gbdt.predict_row_trees", "features.assemble_calls", "features.assemble_repeat_calls",
    "features.rows_assembled", "dataio.rows_loaded", "pipeline.run_task_calls", "rank.groups_ranked",
    "rank.threshold_candidates", "metrics.queries_evaluated", "sched.batches", "sched.padded_cells",
    "trace.spans", *(f"{layer}.errors" for layer in LAYERS),
)
_TIMES = (
    "gbdt.train_s", "gbdt.predict_s", "gbdt.model_io_s", "features.assemble_s", "features.matrix_io_s",
    "dataio.load_s", "dataio.write_s", "pipeline.self_s", "rank.rank_s", "rank.threshold_sweep_s",
    "metrics.evaluate_s", "sched.token_cache_s", "sched.plan_s", "sched.inference_s", "synth.generate_s",
    "other_s", "trace.overhead_s", "trace.wall_s",
)
#: Unit of every per-layer metric, as listed in BENCHMARK.json.
UNITS = {
    **{name: "s" for name in _TIMES},
    "gbdt.ms_per_tree": "ms",
    "gbdt.predict_ns_per_row_tree": "ns",
    "sched.padding_waste": "ratio",
    **{name: "count" for name in _COUNTS},
}


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration whose wall time is wall_s."""
    m: dict[str, float] = {}
    trains = [s for s in spans if s["name"] == "gbdt.train"]
    train_s = _busy(spans, {"gbdt.train"})
    trees = _count(spans, "gbdt.train", "trees")
    m["gbdt.train_s"] = train_s
    m["gbdt.train_calls"] = len(trains)
    m["gbdt.trees_built"] = trees
    m["gbdt.nodes_built"] = _count(spans, "gbdt.train", "nodes")
    m["gbdt.ms_per_tree"] = 1000.0 * train_s / trees if trees else 0.0
    m["gbdt.train_rows"] = statistics.fmean(s["counts"]["rows"] for s in trains) if trains else 0.0
    m["gbdt.train_cols"] = max((s["counts"]["cols"] for s in trains), default=0)
    m["gbdt.max_depth"] = max((s["counts"]["depth"] for s in trains), default=0)

    predict_s = _busy(spans, {"gbdt.predict_proba", "gbdt.predict_margins"})
    row_trees = _count(spans, "gbdt.predict_margins", "row_trees")
    m["gbdt.predict_s"] = predict_s
    m["gbdt.predict_row_trees"] = row_trees
    m["gbdt.predict_ns_per_row_tree"] = 1e9 * predict_s / row_trees if row_trees else 0.0
    m["gbdt.model_io_s"] = _busy(spans, {"gbdt.save_model", "gbdt.load_model"})

    assembles = [s for s in spans if s["name"] == "features.assemble_features"]
    m["features.assemble_s"] = _busy(spans, {"features.assemble_features"})
    m["features.assemble_calls"] = len(assembles)
    m["features.assemble_repeat_calls"] = _count(spans, "features.assemble_features", "repeat")
    m["features.rows_assembled"] = _count(spans, "features.assemble_features", "rows")
    m["features.matrix_io_s"] = _busy(spans, {"features.FeatureMatrix.save", "features.FeatureMatrix.load"})

    loads = {s["name"] for s in spans if s["name"].startswith("dataio.load_")}
    m["dataio.load_s"] = _busy(spans, loads)
    m["dataio.rows_loaded"] = sum(_count(spans, name, "rows") for name in loads)
    writes = {s["name"] for s in spans if s["name"].startswith("dataio.write_")}
    m["dataio.write_s"] = _busy(spans, writes)

    m["pipeline.self_s"] = _self_time(spans, "pipeline.run_task")
    m["pipeline.run_task_calls"] = sum(1 for s in spans if s["name"] == "pipeline.run_task")

    rank_names = {s["name"] for s in spans if s["name"].startswith("rank.")} - {"rank.best_threshold"}
    m["rank.rank_s"] = _busy(spans, rank_names)
    m["rank.groups_ranked"] = sum(1 for s in spans if s["name"] == "rank.rank_group")
    m["rank.threshold_sweep_s"] = _busy(spans, {"rank.best_threshold"})
    m["rank.threshold_candidates"] = _count(spans, "rank.best_threshold", "candidates")

    m["metrics.evaluate_s"] = _busy(spans, {"metrics.evaluate_ranking", "metrics.evaluate_classification"})
    m["metrics.queries_evaluated"] = _count(spans, "metrics.evaluate_ranking", "queries") + _count(
        spans, "metrics.evaluate_classification", "queries"
    )

    m["sched.token_cache_s"] = _busy(
        spans, {"sched.build_token_cache", "sched.load_token_cache", "sched.save_token_cache"}
    )
    m["sched.plan_s"] = _busy(
        spans, {"sched.presort_batches", "sched.sequential_batches", "sched.padded_cells", "sched.padding_waste"}
    )
    m["sched.inference_s"] = _self_time(spans, "sched.run_inference", {SCORER_SPAN})
    padded = _count(spans, "sched.run_inference", "padded_cells")
    used = _count(spans, "sched.run_inference", "used_cells")
    m["sched.batches"] = _count(spans, "sched.run_inference", "batches")
    m["sched.padded_cells"] = padded
    m["sched.padding_waste"] = (padded - used) / padded if padded else 0.0

    m["synth.generate_s"] = _busy(spans, {"synth.synth_generate"})
    m["other_s"] = wall_s - sum(_duration(s) for s in spans if s["parent"] is None)
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = len(spans)
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(1 for s in spans if s["error"] and s["name"].startswith(layer + "."))
    return m
