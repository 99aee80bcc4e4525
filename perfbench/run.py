"""Seeded shoprank benchmark. Run from the root of a source checkout:

    python3 perfbench/run.py --workload crossfit --seed 1 --seconds 20 --trace 0

Set-up builds the workload's inputs with the `shoprank` CLI (three times;
the median is `setup_s`). The timed part then runs the workload in a fresh
worker process per iteration, closed loop, until `--seconds` is spent (at
least MIN_ITERATIONS times), and checks every iteration's outputs. With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it traces
one set-up and alternates untraced and traced iterations to report the
per-layer metrics. The last stdout line is the JSON result; the full record,
stamped with the commit, CPU count, versions and seeds, is written to
`.perfbench_work/<workload>/result.json`.

`--corrupt ranking|prediction` damages each iteration's outputs before
they are checked, to show that the checks catch it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import TRAIN_SEED_OFFSET, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_ITERATIONS = 2
DEADLINE_S = 170.0  # the whole run, set-up included, ends well inside 180 s
WORK_DIR = ".perfbench_work"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "t2_micro_f1": "ratio"}


class Ledger:
    """Counts operations (commands and output checks) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}".rstrip(": "))


class Runner:
    def __init__(self, root: Path, workload, seed: int, deadline: float, ledger: Ledger):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.ledger = ledger
        self.work = root / WORK_DIR / workload.name
        self.setup_dir = self.work / "setup"
        self.blas_threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.blas_threads)

    def _run(self, argv: list[str], name: str) -> bool:
        timeout = max(1.0, self.deadline - time.perf_counter())
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            self.ledger.record(name, False, "timed out")
            return False
        self.ledger.record(name, proc.returncode == 0, proc.stderr.strip()[-300:])
        return proc.returncode == 0

    def setup(self) -> float:
        """One set-up through separate CLI processes; returns its wall time."""
        shutil.rmtree(self.setup_dir, ignore_errors=True)
        self.setup_dir.mkdir(parents=True)
        start = time.perf_counter()
        for argv in self.workload.setup(self.setup_dir, self.seed):
            self._run([sys.executable, "-m", "shoprank.cli", *argv], f"setup: shoprank {argv[0]}")
        return time.perf_counter() - start

    def worker(self, label: str, commands: list[list[str]], out_dir: Path, trace: bool,
               inference: dict | None = None) -> dict | None:
        shutil.rmtree(out_dir, ignore_errors=True)
        spec = {
            "src": str(self.root / "src"),
            "commands": commands,
            "inference": inference,
            "out_dir": str(out_dir),
            "trace": trace,
            "run_id": f"{self.workload.name}-{self.seed}-{label}",
            "result": str(self.work / f"{label}.result.json"),
            "spans": str(self.work / f"{label}.spans.json"),
        }
        spec_path = self.work / f"{label}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        if not self._run([sys.executable, str(HERE / "worker.py"), str(spec_path)], f"{label}: worker"):
            return None
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        for argv, code, error in zip(commands + [["inference"]], result["codes"], result["errors"]):
            self.ledger.record(f"{label}: shoprank {argv[0]}", code == 0, error or f"exit {code}")
        if trace:
            result["spans"] = json.loads(Path(spec["spans"]).read_text(encoding="utf-8"))
        return result

    def traced_setup(self) -> list[dict]:
        commands = self.workload.setup(self.setup_dir, self.seed)
        result = self.worker("setup-traced", commands, self.setup_dir, True)
        return result["spans"] if result else []

    def iteration(self, label: str, trace: bool, corrupt: str | None) -> dict | None:
        out = self.work / label
        corpus = self.setup_dir / "corpus"
        inference = None
        if self.workload.inference:
            inference = {"catalog": str(corpus / "catalog.csv"), "examples": str(corpus / "t2t3.csv")}
        commands = self.workload.commands(self.setup_dir, out, self.seed)
        result = self.worker(label, commands, out, trace, inference)
        if result is None:
            return None
        if corrupt:
            corrupt_outputs(out, corrupt)
        try:
            for name, ok, detail in self.workload.check(self.setup_dir, out):
                self.ledger.record(f"{label}: {name}", ok, detail)
            result["quality"] = self.workload.quality(self.setup_dir, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.ledger.record(f"{label}: outputs readable", False, repr(exc))
            return None
        return result


def corrupt_outputs(out: Path, mode: str) -> None:
    """Damage one output file in place: reorder a ranking or drop a prediction row."""
    if mode == "ranking":
        path = out / "ranking_T1.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[0], lines[1] = lines[1], lines[0]
    else:
        path = out / "predictions_T2.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]
    path.write_text("".join(lines), encoding="utf-8")


def _loop(seconds: float, deadline: float, step) -> None:
    """Call step() until the next call would overrun `seconds` (at least MIN_ITERATIONS times)."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        if not step():
            return
        durations.append(time.perf_counter() - t0)
        next_end = time.perf_counter() + statistics.median(durations)
        if len(durations) >= MIN_ITERATIONS and (next_end - start > seconds or next_end > deadline):
            return


def stamp(root: Path, args, runner: Runner) -> dict:
    import numpy

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "blas_threads": runner.blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seeds": {
            "corpus": args.seed,
            "train_corpus": args.seed + TRAIN_SEED_OFFSET if args.workload == "score" else None,
        },
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(runner: Runner, seconds: float, corrupt: str | None) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(runner.setup())
    iterations: list[dict] = []

    def step() -> bool:
        result = runner.iteration(f"iter{len(iterations)}", False, corrupt)
        if result is not None:
            iterations.append(result)
        return result is not None

    _loop(seconds, runner.deadline, step)
    digests = {r["digest"] for r in iterations}
    runner.ledger.record("iterations give identical outputs", len(digests) <= 1, f"{len(digests)} digests")
    quality = iterations[0]["quality"] if iterations else {}
    metrics = {
        "wall_s": _median(r["wall_s"] for r in iterations),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in iterations),
        "t2_micro_f1": quality.get("t2_micro_f1", float("nan")),
    }
    samples = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in iterations],
        "peak_rss_mb": [r["peak_rss_mb"] for r in iterations],
        "quality": quality,
    }
    return metrics, samples


def measure_traced(runner: Runner, seconds: float, corrupt: str | None) -> tuple[dict, dict]:
    setup_spans = tracer.layer_metrics(runner.traced_setup(), 0.0)
    plain: list[dict] = []
    traced: list[dict] = []

    def step() -> bool:
        # Alternate which side runs first, so that order effects cancel in trace.overhead_s.
        k = len(plain)
        order = (True, False) if k % 2 else (False, True)
        runs = {t: runner.iteration(f"iter{k}-{'traced' if t else 'plain'}", t, corrupt) for t in order}
        a, b = runs[False], runs[True]
        if a is None or b is None:
            return False
        runner.ledger.record("traced and untraced outputs are identical", a["digest"] == b["digest"], "")
        plain.append(a)
        traced.append(b)
        return True

    _loop(seconds, runner.deadline, step)
    per_iteration = [tracer.layer_metrics(r["spans"], r["wall_s"]) for r in traced]
    names = per_iteration[0] if per_iteration else {}
    metrics = {name: _median(m[name] for m in per_iteration) for name in names}
    # Set-up is where the corpora are generated and written.
    metrics["synth.generate_s"] = setup_spans["synth.generate_s"]
    metrics["dataio.write_s"] = setup_spans["dataio.write_s"]
    metrics["trace.overhead_s"] = _median(r["wall_s"] for r in traced) - _median(r["wall_s"] for r in plain)
    samples = {
        "untraced_wall_s": [r["wall_s"] for r in plain],
        "traced_wall_s": [r["wall_s"] for r in traced],
    }
    return metrics, samples


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")  # NaN: nothing was measured


def _number(value: float) -> float | None:
    return None if value != value else value  # NaN is not JSON


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt", choices=("ranking", "prediction"),
                        help="damage each iteration's outputs before the checks (checks self-test)")
    args = parser.parse_args(argv)
    if args.corrupt and args.workload == "ablate":
        parser.error("--corrupt needs a workload that writes rankings and predictions")
    start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "shoprank" / "cli.py").is_file():
        print(f"error: no shoprank source tree under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    runner = Runner(root, workload, args.seed, start + DEADLINE_S, ledger)
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir(parents=True)
    if args.trace:
        metrics, samples = measure_traced(runner, args.seconds, args.corrupt)
        units = tracer.UNITS
    else:
        metrics, samples = measure(runner, args.seconds, args.corrupt)
        units = END_TO_END_UNITS

    info = stamp(root, args, runner)
    error_rate = len(ledger.failures) / ledger.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("stamp " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units.get(name, '')}")
    for name, value in samples.get("quality", {}).items():
        if name not in metrics:
            print(f"  {name:32s} {value:14.6f} ratio")
    print(f"  {'error_rate':32s} {error_rate:14.6f} ratio "
          f"({len(ledger.failures)} of {ledger.attempted} operations failed)")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {
            name: {"value": _number(metrics.get(name, float("nan"))), "unit": unit}
            for name, unit in units.items()
        },
    }
    record = dict(result, stamp=info, samples=samples, failures=ledger.failures, error_rate=error_rate)
    (runner.work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
