"""The CLI calls each workload makes, and the checks on what they write.

Every job runs with the job directory as its working directory and reads
its generated inputs from ``../inputs``. A step is one ``fusekit`` call:
its arguments, the file piped to its stdin (or None) and the files it
writes. ``check(workload, job, inputs, meta, seed)`` returns, per step, the
list of failed checks on that step's outputs.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import oracle

CUTOFFS = (10, 20, 100)
ABLATION_KEEPS = (1, 5, 10, "all")
ABLATION_SEEDS = (0, 1, 2, 3, 4)
FILTER_THRESHOLD = 0.5
SAMPLE = 8  # queries compared against the brute-force fusion per check
EVAL_SAMPLE = 200  # queries compared against the independent evaluator


def _step(name, argv, outputs, stdin=None):
    return {"name": name, "argv": argv, "outputs": outputs, "stdin": stdin}


STEPS = {
    "pipeline": [
        _step("decompose", ["decompose", "--queries", "../inputs/queries.jsonl",
                            "--replay", "../inputs/decomposer_replay.jsonl", "--out", "subquery_map.jsonl"],
              ["subquery_map.jsonl"]),
        _step("pipeline", ["pipeline", "--config", "../inputs/config.json", "--out-dir", "out"],
              ["out/subqueries.run", "out/fused.run", "out/reranked.run", "out/manifest.json"]),
        _step("eval", ["eval", "--run", "out/reranked.run", "--qrels", "../inputs/qrels.txt",
                       "--cutoffs", "10,20,100", "--json", "report.json"],
              ["report.json"]),
    ],
    "ablation": [
        _step("ablate", ["ablate", "--map", "../inputs/subquery_map.jsonl", "--runs", "../inputs/subqueries.run",
                         "--qrels", "../inputs/qrels.txt", "--strategy", "max_sim", "--keep", "1,5,10,all",
                         "--seeds", "0,1,2,3,4", "--cutoffs", "10,20,100", "--json", "ablation.json"],
              ["ablation.json"]),
    ],
    "eval": [
        _step("eval", ["eval", "--run", "../inputs/run.txt", "--qrels", "../inputs/qrels.txt",
                       "--cutoffs", "10,20,100", "--json", "report.json"],
              ["report.json"]),
    ],
    "evidence-memory": [
        _step("claims-attach", ["claims", "attach", "--artifacts", "../inputs/artifacts.jsonl",
                                "--predictions", "../inputs/predictions.jsonl", "--out", "attached.jsonl",
                                "--unmatched", "unmatched.json"],
              ["attached.jsonl", "unmatched.json"]),
        _step("claims-filter", ["claims", "filter", "--in", "attached.jsonl", "--threshold", str(FILTER_THRESHOLD),
                                "--kept", "kept.jsonl", "--dropped", "dropped.jsonl"],
              ["kept.jsonl", "dropped.jsonl"]),
        _step("memory", ["memory", "--init", "--bank", "bank.json"], ["bank.json"],
              stdin="../inputs/memory_ops.txt"),
    ],
}


def check(workload: str, job: Path, inputs: Path, meta: dict, seed: int) -> dict[str, list[str]]:
    rng = random.Random(f"check:{workload}:{seed}")
    errors = {step["name"]: [] for step in STEPS[workload]}
    if workload == "pipeline":
        _check_pipeline(job, inputs, meta, rng, errors)
    elif workload == "ablation":
        _check_ablation(job, inputs, errors)
    elif workload == "eval":
        _check_eval(job, inputs, rng, errors)
    else:
        _check_evidence_memory(job, meta, errors)
    return errors


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _same_list(got, want, tol: float) -> bool:
    return [d for d, _ in got] == [d for d, _ in want] and all(
        _close(g, w, tol) for (_, g), (_, w) in zip(got, want)
    )


def _read_output_run(path: Path, wanted: set[str]) -> dict[str, list[tuple[str, float]]]:
    """Output run lists in file order, checking the rank column counts from 1."""
    lists: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            qid, _, doc, rank, score, _ = line.split()
            if qid in wanted:
                entries = lists.setdefault(qid, [])
                entries.append((doc, float(score)))
                if int(rank) != len(entries):
                    raise ValueError(f"{path.name}: rank {rank} at position {len(entries)} for {qid}")
    return lists


def _check_report(report_path: Path, expected: dict[str, dict[str, float]], n_queries: int, errs: list[str]) -> None:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    per_query = report["per_query"]
    if len(per_query) != n_queries:
        errs.append(f"report has {len(per_query)} queries, expected {n_queries}")
        return
    for qid, row in expected.items():
        for name, value in row.items():
            if not _close(per_query[qid][name], value, 1e-6):
                errs.append(f"{qid} {name}: report {per_query[qid][name]} vs reference {value}")
    for name, value in report["aggregate"].items():
        mean = math.fsum(row[name] for row in per_query.values()) / len(per_query)
        if not _close(value, mean, 1e-9):
            errs.append(f"aggregate {name} {value} is not the per-query mean {mean}")


def _check_pipeline(job: Path, inputs: Path, meta: dict, rng: random.Random, errors) -> None:
    groups = meta["groups"]
    got_map = {}
    for line in (job / "subquery_map.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        got_map[record["query_id"]] = [s["id"] for s in record["sub_queries"]]
    if got_map != groups:
        errors["decompose"].append("sub-query map differs from the generated decompositions")
        return
    config = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
    depth, head, k = config["first_stage_depth"], config["rerank_depth"], config["strategy"]["k"]
    sampled = sorted(rng.sample(sorted(groups), min(SAMPLE, len(groups))))
    sub_ids = {s for q in sampled for s in groups[q]}
    subs = oracle.read_run(inputs / "subqueries.run", sub_ids)
    external = oracle.read_run(inputs / "rerank.run", set(sampled))
    out = job / "out"
    got_subs = _read_output_run(out / "subqueries.run", sub_ids)
    got_fused = _read_output_run(out / "fused.run", set(sampled))
    got_reranked = _read_output_run(out / "reranked.run", set(sampled))
    reranked = {}
    errs = errors["pipeline"]
    for qid in sampled:
        lists = [subs[s][:depth] for s in groups[qid]]
        for s, want in zip(groups[qid], lists):
            if got_subs.get(s) != want:
                errs.append(f"subqueries.run list {s} differs from the sorted input")
        fused = oracle.fuse(lists, "rrf", k)[:depth]
        if not _same_list(got_fused.get(qid, []), fused, 1e-12):
            errs.append(f"fused.run {qid} differs from brute-force rrf (tolerance 1e-12)")
        reranked[qid] = oracle.rerank(fused, dict(external.get(qid, [])), head)
        if not _same_list(got_reranked.get(qid, []), reranked[qid], 1e-12):
            errs.append(f"reranked.run {qid} differs from the reference rerank injection")
    json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    judged = oracle.read_qrels(inputs / "qrels.txt", set(sampled))
    expected = {q: oracle.metrics_row([d for d, _ in reranked[q]], judged[q], CUTOFFS) for q in sampled}
    _check_report(job / "report.json", expected, len(groups), errors["eval"])


def _check_ablation(job: Path, inputs: Path, errors) -> None:
    groups = {}
    for line in (inputs / "subquery_map.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        groups[record["query_id"]] = [s["id"] for s in record["sub_queries"]]
    runs = oracle.read_run(inputs / "subqueries.run")
    judged = oracle.read_qrels(inputs / "qrels.txt")
    want = oracle.ablation_rows(groups, runs, judged, "max_sim", ABLATION_KEEPS, ABLATION_SEEDS, CUTOFFS)
    got = json.loads((job / "ablation.json").read_text(encoding="utf-8"))
    errs = errors["ablate"]
    if set(got) != set(want):
        errs.append(f"ablation rows {sorted(got)} != {sorted(want)}")
        return
    for keep, row in want.items():
        for name, (mean, std) in row.items():
            cell = got[keep][name]
            if not (_close(cell["mean"], mean, 1e-6) and _close(cell["std"], std, 1e-6)):
                errs.append(f"keep {keep} {name}: {cell} vs reference mean {mean} std {std}")


def _check_eval(job: Path, inputs: Path, rng: random.Random, errors) -> None:
    qids = []
    with open(inputs / "run.txt", encoding="utf-8") as f:
        for line in f:
            qid = line.split(None, 1)[0]
            if not qids or qids[-1] != qid:
                qids.append(qid)
    sampled = set(rng.sample(qids, min(EVAL_SAMPLE, len(qids))))
    runs = oracle.read_run(inputs / "run.txt", sampled)
    judged = oracle.read_qrels(inputs / "qrels.txt", sampled)
    expected = {q: oracle.metrics_row([d for d, _ in runs[q]], judged[q], CUTOFFS) for q in sorted(sampled)}
    _check_report(job / "report.json", expected, len(qids), errors["eval"])


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _check_evidence_memory(job: Path, meta: dict, errors) -> None:
    probs = meta["probs"]
    attached = _jsonl(job / "attached.jsonl")
    unmatched = json.loads((job / "unmatched.json").read_text(encoding="utf-8"))
    errs = errors["claims-attach"]
    n_unmatched = len(unmatched["unmatched_artifacts"])
    if len(attached) + n_unmatched != meta["artifacts"]:
        errs.append(f"attached {len(attached)} + unmatched {n_unmatched} != artifacts {meta['artifacts']}")
    if len(attached) != len(probs) or len(unmatched["orphan_predictions"]) != meta["orphans"]:
        errs.append(f"attached {len(attached)} of {len(probs)} planned, "
                    f"{len(unmatched['orphan_predictions'])} of {meta['orphans']} orphans")
    for record in attached:
        aid = record.get("note_id") or record.get("claim_id")
        if record["calibration"]["unli"]["prob"] != probs.get(aid):
            errs.append(f"artifact {aid} carries the wrong prediction")
            break
    kept, dropped = _jsonl(job / "kept.jsonl"), _jsonl(job / "dropped.jsonl")
    want_kept = sum(1 for p in probs.values() if p >= FILTER_THRESHOLD)
    if len(kept) + len(dropped) != len(attached) or len(kept) != want_kept:
        errors["claims-filter"].append(
            f"kept {len(kept)} + dropped {len(dropped)} vs attached {len(attached)}, expected {want_kept} kept")
    bank = json.loads((job / "bank.json").read_text(encoding="utf-8"))
    facts = sum(len(v) for v in bank["fact_table"].values())
    out = (job / "memory.stdout").read_text(encoding="utf-8").splitlines()
    added = sum(1 for line in out if line.startswith("added fact "))
    bad = [line for line in out if line.startswith(("error:", "unknown command"))]
    if facts != meta["add_facts"] or added != meta["add_facts"] or bad:
        errors["memory"].append(
            f"bank holds {facts} facts, {added} add-fact replies, {meta['add_facts']} sent; {len(bad)} errors")


if __name__ == "__main__":
    # workloads.py <workload> <job dir> <meta.json> <seed> <errors.json>: run as a child of
    # run.py so that run.py stays small (a child's ru_maxrss starts at its parent's RSS)
    workload, job, meta_path, seed, out_path = sys.argv[1:]
    job = Path(job)
    try:
        found = check(workload, job, job / "../inputs", json.loads(Path(meta_path).read_text()), int(seed))
    except Exception as e:  # a missing or malformed output fails every step's check
        found = {step["name"]: [f"{type(e).__name__}: {e}"] for step in STEPS[workload]}
    Path(out_path).write_text(json.dumps(found), encoding="utf-8")
