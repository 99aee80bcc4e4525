"""Output checks with the benchmark's own references (no shoprank imports).

Each check returns (name, ok, detail). The checks recompute the reported
quality numbers from the files the program wrote and the truth labels, so
they hold on any seed and do not pin today's values.
"""

from __future__ import annotations

import csv
import math
import zlib
from pathlib import Path

GAINS = {"E": 1.0, "S": 0.1, "C": 0.01, "I": 0.0}
FAMILIES = ("leakage", "product_count", "isbn", "brand", "group_stats")
# Reports print six decimals; allow half a unit in the last place plus float slack.
PRINTED_TOLERANCE = 5e-7 + 1e-12

Check = tuple[str, bool, str]


def read_labels(examples_csv: Path, queries: set[str] | None = None) -> dict[tuple[str, str], str]:
    with examples_csv.open(encoding="utf-8", newline="") as handle:
        return {
            (row["query_id"], row["product_id"]): row["esci_label"]
            for row in csv.DictReader(handle)
            if row["esci_label"] and (queries is None or row["query_id"] in queries)
        }


def eval_queries(splits_csv: Path) -> set[str]:
    with splits_csv.open(encoding="utf-8", newline="") as handle:
        return {row["query_id"] for row in csv.DictReader(handle) if row["split"] != "train"}


def report_value(report_txt: Path, key: str) -> float:
    for line in report_txt.read_text(encoding="utf-8").splitlines():
        name, _, value = line.partition(": ")
        if name == key:
            return float(value)
    raise ValueError(f"{report_txt.name} has no {key!r} line")


def _ndcg(labels: list[str]) -> float:
    def dcg(seq):
        return sum(GAINS[lab] / math.log2(i + 2) for i, lab in enumerate(seq))

    ideal = dcg(sorted(labels, key=lambda lab: -GAINS[lab]))
    return 1.0 if ideal == 0.0 else dcg(labels) / ideal


def check_ranking(ranking_tsv: Path, truth: dict[tuple[str, str], str], report_txt: Path) -> list[Check]:
    """Ranks 1..n per query, scores non-increasing, each truth pair ranked
    exactly once, and mean nDCG equal to the report at its printed precision."""
    rows: dict[str, list[tuple[int, str, float]]] = {}
    for line in ranking_tsv.read_text(encoding="utf-8").splitlines():
        qid, rank, pid, score = line.split("\t")
        rows.setdefault(qid, []).append((int(rank), pid, float(score)))
    ranked_pairs = [(q, pid) for q, members in rows.items() for _, pid, _ in members]
    order_ok = all(
        [r for r, _, _ in members] == list(range(1, len(members) + 1))
        and all(a[2] >= b[2] for a, b in zip(members, members[1:]))
        for members in rows.values()
    )
    coverage_ok = len(ranked_pairs) == len(set(ranked_pairs)) and set(ranked_pairs) == set(truth)
    checks = [
        ("ranking order: ranks 1..n, scores non-increasing", order_ok, ""),
        ("ranking coverage: every evaluation pair ranked once", coverage_ok,
         f"{len(ranked_pairs)} ranked rows, {len(truth)} evaluation pairs"),
    ]
    if not coverage_ok:
        return checks + [("T1 nDCG matches the reference", False, "coverage failed")]
    mean = sum(_ndcg([truth[(q, pid)] for _, pid, _ in members]) for q, members in rows.items()) / len(rows)
    reported = report_value(report_txt, "mean_ndcg")
    checks.append(("T1 nDCG matches the reference", abs(mean - reported) <= PRINTED_TOLERANCE,
                   f"reference {mean:.9f}, report {reported:.6f}"))
    return checks


def check_predictions(task: str, predictions_csv: Path, truth: dict[tuple[str, str], str],
                      report_txt: Path) -> list[Check]:
    """Every evaluation pair predicted exactly once, and micro-F1 equal to the
    report at its printed precision. T3 predicts 1 iff the label is S."""
    with predictions_csv.open(encoding="utf-8", newline="") as handle:
        preds = [((r["query_id"], r["product_id"]), r["prediction"]) for r in csv.DictReader(handle)]
    pairs = [pair for pair, _ in preds]
    coverage_ok = len(pairs) == len(set(pairs)) and set(pairs) == set(truth)
    checks = [(f"{task} coverage: every evaluation pair predicted once", coverage_ok,
               f"{len(pairs)} predictions, {len(truth)} evaluation pairs")]
    if not coverage_ok:
        return checks + [(f"{task} micro-F1 matches the reference", False, "coverage failed")]
    if task == "T2":
        hits = sum(pred == truth[pair] for pair, pred in preds)
    else:
        hits = sum((pred == "1") == (truth[pair] == "S") for pair, pred in preds)
    f1 = hits / len(preds)
    reported = report_value(report_txt, "micro_f1")
    checks.append((f"{task} micro-F1 matches the reference", abs(f1 - reported) <= PRINTED_TOLERANCE,
                   f"reference {f1:.9f}, report {reported:.6f}"))
    return checks


def check_ablation(table_tsv: Path) -> list[Check]:
    """All five families present, one shared metric_on in [0, 1], and each
    delta equal to on - off at printed precision."""
    lines = table_tsv.read_text(encoding="utf-8").splitlines()
    rows = [line.split("\t") for line in lines[1:]]
    families = [r[0] for r in rows]
    on = {float(r[1]) for r in rows}
    deltas_ok = all(abs(float(r[3]) - (float(r[1]) - float(r[2]))) <= 3 * PRINTED_TOLERANCE for r in rows)
    in_range = all(0.0 <= float(v) <= 1.0 for r in rows for v in r[1:3])
    return [
        ("ablation lists all five families once", sorted(families) == sorted(FAMILIES), ",".join(families)),
        ("ablation has one shared metric_on in [0, 1]", len(on) == 1 and in_range, f"metric_on {sorted(on)}"),
        ("ablation deltas equal on - off", deltas_ok, ""),
    ]


def check_batch_sim(report_txt: Path, n_pairs: int) -> list[Check]:
    values = {}
    for line in report_txt.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(": ")
        values[key] = float(value)
    ok = (
        values["pairs"] == n_pairs
        and values["padded_cells_presorted"] <= values["padded_cells_unsorted"]
        and values["cells_saved_by_presort"] == values["padded_cells_unsorted"] - values["padded_cells_presorted"]
        and 0.0 <= values["padding_waste_presorted"] <= values["padding_waste_unsorted"] < 1.0
    )
    return [("batch-sim: presorted padding never exceeds unsorted", ok, str(values))]


def _token_sum(title: str, brand: str, color: str, modulus: int) -> int:
    """Reference for the stand-in scorer over shoprank's surrogate tokens
    (whitespace tokens, crc32 ids); a product without text scores 0."""
    text = " ".join(part for part in (title, brand, color) if part)
    return sum((zlib.crc32(tok.encode("utf-8")) & 0x7FFFFFFF) % modulus for tok in text.split())


def check_inference(scores_csv: Path, catalog_csv: Path, truth: dict[tuple[str, str], str],
                    modulus: int) -> list[Check]:
    """Every pair scored once, in input order, with the score its own tokens give."""
    with catalog_csv.open(encoding="utf-8", newline="") as handle:
        expected = {r["product_id"]: _token_sum(r["title"], r["brand"], r["color"], modulus)
                    for r in csv.DictReader(handle)}
    with scores_csv.open(encoding="utf-8", newline="") as handle:
        rows = [((r["query_id"], r["product_id"]), int(r["score"])) for r in csv.DictReader(handle)]
    pairs = [pair for pair, _ in rows]
    coverage_ok = len(pairs) == len(set(pairs)) and set(pairs) == set(truth)
    scores_ok = coverage_ok and all(expected[pid] == score for (_, pid), score in rows)
    return [
        ("inference coverage: every pair scored once", coverage_ok, f"{len(rows)} scores"),
        ("inference scores follow their own pair", scores_ok, ""),
    ]
