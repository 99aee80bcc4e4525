"""One benchmark iteration in a fresh process: `python3 worker.py SPEC.json`.

The spec names the shoprank source tree, the CLI commands to run in order,
an optional `inference` step (sched.run_inference over a presorted plan, with
the benchmark's stand-in scorer), the output directory, and whether to trace.
The worker imports shoprank before the clock starts, runs every command
through `shoprank.cli.main` in this process, and writes a JSON result with
the wall time, each command's exit code, a digest of the output files and
the process's peak resident memory. Traced runs also write their spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BATCH_SIZE = 32
SCORER_MODULUS = 9973


def stand_in_scorer(tokens, lengths, pairs):
    """Deterministic scorer whose cost grows with padded cells.

    Padding cells are zero and add nothing, so each pair's score is the sum
    of its own token ids modulo SCORER_MODULUS, whatever batch it lands in.
    """
    return (tokens % SCORER_MODULUS).sum(axis=1).astype("float64")


def output_digest(out_dir: Path) -> str:
    """sha256 over every output file's name and bytes; the stdout log is not an output."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file() and p.name != "stdout.txt"):
        digest.update(str(path.relative_to(out_dir)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _run_command(main, argv: list[str]) -> tuple[int, str | None]:
    try:
        return int(main(argv) or 0), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), f"exit {exc.code}"
    except Exception:
        return -1, traceback.format_exc(limit=3)


def _run_inference(spec: dict, out_dir: Path, scorer) -> None:
    from shoprank import dataio, sched
    from shoprank.model import TASK_T2T3

    catalog = dataio.load_catalog(spec["catalog"])
    examples = dataio.load_examples(spec["examples"], TASK_T2T3)
    cache = sched.build_token_cache(catalog)
    pairs = [(ex.pair, cache.get(ex.product_id).token_length) for ex in examples]
    plan = sched.presort_batches(pairs, BATCH_SIZE)
    scores = sched.run_inference(plan, cache, scorer)
    lines = ["query_id,product_id,score"]
    lines += [f"{q},{p},{int(s)}" for ((q, p), _), s in zip(pairs, scores[:, 0])]
    (out_dir / "inference_scores.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from shoprank import cli

    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    scorer = stand_in_scorer
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)
        scorer = tracer.wrap(tracing.SCORER_SPAN, stand_in_scorer)

    codes, errors = [], []
    with (out_dir / "stdout.txt").open("w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        start = time.perf_counter()
        for argv in spec["commands"]:
            code, error = _run_command(cli.main, argv)
            codes.append(code)
            errors.append(error)
        if spec.get("inference"):
            try:
                _run_inference(spec["inference"], out_dir, scorer)
                codes.append(0)
                errors.append(None)
            except Exception:
                codes.append(-1)
                errors.append(traceback.format_exc(limit=3))
        wall_s = time.perf_counter() - start

    result = {
        "wall_s": wall_s,
        "codes": codes,
        "errors": errors,
        "digest": output_digest(out_dir),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        Path(spec["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
