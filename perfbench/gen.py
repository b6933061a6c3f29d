"""Seeded input generator for the benchmark workloads (standard library only).

``generate(workload, seed, out_dir, scale)`` writes the workload's input
files into ``out_dir`` and returns a metadata dict: the item count the
workload is sized by, the ground truth the output checks need, and the
sha256 of every file written. The same (workload, seed, scale) always
gives byte-identical files; the program under test sees only these files.

Sizes at scale 1 (``scale`` multiplies the query, artifact and operation
counts, never the depths):

  pipeline         100 queries x 10 sub-queries x depth 1000, pool 3000 docs
  ablation         200 queries x 20 sub-queries x depth 200, pool 600 docs
  eval             10000 queries x depth 50, 30 judgments per query
  evidence-memory  50000 artifacts, ~46000 predictions, 6000 memory operations
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

WORKLOADS = ("pipeline", "ablation", "eval", "evidence-memory")

PIPELINE_CONFIG = {
    "strategy": {"kind": "rrf", "k": 60},
    "first_stage_depth": 1000,
    "rerank_depth": 100,
    "inputs": {
        "subquery_map": "../job/subquery_map.jsonl",
        "subquery_runs": "subqueries.run",
        "rerank": "rerank.run",
    },
}
FALLBACK_RESPONSE = "Sorry, I cannot decompose this query."
KEYWORDS = tuple(f"kw{n:04d}" for n in range(400))  # fixed width: none is a prefix of another
SAVE_EVERY = 1500


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generate(workload: str, seed: int, out_dir: Path, scale: float = 1.0) -> dict:
    """Write the inputs; return the item count, input digests and the checks' ground truth."""
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "pipeline":
        meta = _pipeline(rng, out_dir, max(2, round(100 * scale)))
    elif workload == "ablation":
        meta = _ablation(rng, out_dir, max(2, round(200 * scale)))
    elif workload == "eval":
        meta = _eval(rng, out_dir, max(8, round(10000 * scale)))
    elif workload == "evidence-memory":
        meta = _evidence_memory(rng, out_dir, max(100, round(50000 * scale)), max(100, round(6000 * scale)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    meta["inputs_sha256"] = {p.name: sha256_file(p) for p in sorted(out_dir.iterdir())}
    return meta


def _pool(rng: random.Random, size: int) -> tuple[list[str], list[float]]:
    """Doc ids drawn from a 10M-video collection, with a latent relevance each."""
    docs = [f"v{n:07d}" for n in rng.sample(range(10_000_000), size)]
    return docs, [rng.random() ** 2 for _ in docs]


def _ranked(rng: random.Random, docs: list[str], latent: list[float], depth: int) -> list[tuple[str, str]]:
    """``depth`` pool docs ranked by latent relevance plus noise, scores as text."""
    chosen = rng.sample(range(len(docs)), depth)
    scored = sorted(((latent[j] + 0.5 * rng.random()) / 1.5, docs[j]) for j in chosen)
    scored.reverse()
    return [(doc, f"{score:.6f}") for score, doc in scored]


def _run_lines(sub_id: str, ranked: list[tuple[str, str]], tag: str) -> str:
    return "".join(f"{sub_id} Q0 {doc} {rank} {score} {tag}\n" for rank, (doc, score) in enumerate(ranked, 1))


def _qrels_lines(rng: random.Random, qid: str, docs: list[str], latent: list[float]) -> str:
    """30 judgments: the 20 most relevant pool docs graded 1-3, 10 others graded 0."""
    order = sorted(range(len(docs)), key=lambda j: -latent[j])
    graded = [(docs[j], 3 if latent[j] > 0.8 else 2 if latent[j] > 0.5 else 1) for j in order[:20]]
    zeros = [(docs[j], 0) for j in rng.sample(order[20:], 10)]
    return "".join(f"{qid} 0 {doc} {grade}\n" for doc, grade in graded + zeros)


def _plan(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """``n`` labels in exact proportions, shuffled, so input sizes do not vary with the seed."""
    labels = [label for label, share in shares.items() for _ in range(round(n * share))]
    labels += [next(iter(shares))] * (n - len(labels))
    rng.shuffle(labels)
    return labels[:n]


def _write(path: Path, chunks: list[str]) -> None:
    path.write_text("".join(chunks), encoding="utf-8")


def _pipeline(rng: random.Random, out: Path, n_queries: int) -> dict:
    subs_per_query, depth, pool_size = 10, 1000, 3000
    queries, replay, runs, rerank, qrels = [], [], [], [], []
    groups = {}
    fallback = _plan(rng, n_queries, {"ok": 0.97, "fallback": 0.03})
    for i in range(n_queries):
        qid = f"q{i:04d}"
        record = {
            "query_id": qid,
            "title": f"event {i}",
            "language": "en",
            "persona": "analyst",
            "background": f"background for event {i}",
            "query": f"what happened during event {i}",
        }
        queries.append(json.dumps(record) + "\n")
        if fallback[i] == "fallback":
            response, texts = FALLBACK_RESPONSE, [record["query"]]
        else:
            texts = [f"event {i} aspect {k}" for k in range(subs_per_query)]
            response = json.dumps(texts)
        replay.append(json.dumps({"query_id": qid, "response": response}) + "\n")
        docs, latent = _pool(rng, pool_size)
        sub_ids = [f"{qid}-s{k:03d}" for k in range(len(texts))]
        groups[qid] = sub_ids
        head_docs = set()
        for sub_id in sub_ids:
            ranked = _ranked(rng, docs, latent, depth)
            runs.append(_run_lines(sub_id, ranked, "bm25"))
            head_docs.update(doc for doc, _ in ranked[:8])
        ext = sorted(((rng.random(), doc) for doc in sorted(head_docs)), reverse=True)
        rerank.append("".join(f"{qid} Q0 {doc} {r} {s:.4f} rerank\n" for r, (s, doc) in enumerate(ext, 1)))
        qrels.append(_qrels_lines(rng, qid, docs, latent))
    _write(out / "queries.jsonl", queries)
    _write(out / "decomposer_replay.jsonl", replay)
    _write(out / "subqueries.run", runs)
    _write(out / "rerank.run", rerank)
    _write(out / "qrels.txt", qrels)
    (out / "config.json").write_text(json.dumps(PIPELINE_CONFIG, indent=2) + "\n", encoding="utf-8")
    lines = sum(len(ids) for ids in groups.values()) * depth
    return {"items": lines, "groups": groups}


def _ablation(rng: random.Random, out: Path, n_queries: int) -> dict:
    subs_per_query, depth, pool_size = 20, 200, 600
    mapping, runs, qrels = [], [], []
    for i in range(n_queries):
        qid = f"q{i:04d}"
        subs = [{"id": f"{qid}-s{k:03d}", "text": f"topic {i} facet {k}"} for k in range(subs_per_query)]
        mapping.append(json.dumps({"query_id": qid, "sub_queries": subs}) + "\n")
        docs, latent = _pool(rng, pool_size)
        for sub in subs:
            runs.append(_run_lines(sub["id"], _ranked(rng, docs, latent, depth), "bm25"))
        qrels.append(_qrels_lines(rng, qid, docs, latent))
    _write(out / "subquery_map.jsonl", mapping)
    _write(out / "subqueries.run", runs)
    _write(out / "qrels.txt", qrels)
    return {"items": n_queries * subs_per_query * depth}


def _eval(rng: random.Random, out: Path, n_queries: int) -> dict:
    depth, pool_size = 50, 150
    runs, qrels = [], []
    for i in range(n_queries):
        qid = f"q{i:05d}"
        docs, latent = _pool(rng, pool_size)
        runs.append(_run_lines(qid, _ranked(rng, docs, latent, depth), "bm25"))
        qrels.append(_qrels_lines(rng, qid, docs, latent))
    _write(out / "run.txt", runs)
    _write(out / "qrels.txt", qrels)
    return {"items": n_queries * depth}


def _evidence_memory(rng: random.Random, out: Path, n_artifacts: int, n_ops: int) -> dict:
    videos = [f"vid{n:05d}" for n in range(max(10, n_artifacts // 25))]
    artifacts, predictions = [], []
    probs: dict[str, float] = {}
    kinds = _plan(rng, n_artifacts, {"note": 0.5, "claim": 0.5})
    joins = _plan(rng, n_artifacts, {"id": 0.6, "key": 0.15, "stale": 0.15, "none": 0.1})
    for i in range(n_artifacts):
        vid = rng.choice(videos)
        span = [float(rng.randrange(600)), 0.0]
        span[1] = span[0] + rng.randrange(1, 30)
        if kinds[i] == "note":
            aid, text = f"n{i:06d}", f"{rng.choice(KEYWORDS)} visible in frame {i}"
            record = {"note_id": aid, "video_id": vid, "topic": f"topic {i % 97}", "text": text,
                      "modality": rng.choice(("visual", "ocr", "audio"))}
            record["timestamp"] = span if rng.random() < 0.5 else f"{span[0]:g}s-{span[1]:g}s"
        else:
            aid, text = f"c{i:06d}", f"claim {i} about {rng.choice(KEYWORDS)}"
            record = {"claim_id": aid, "query_id": f"q{i % 300:03d}", "video_id": vid,
                      "topic": f"topic {i % 97}", "claim": text,
                      "confidence": round(rng.random(), 3),
                      "source": rng.choice(("video_visual", "video_text", "transcript")),
                      "timestamp": span}
        artifacts.append(json.dumps(record) + "\n")
        if joins[i] == "none":
            continue  # left without a prediction
        prob = round(rng.random(), 4)
        probs[aid] = prob
        if joins[i] == "id":
            pred = {"prob": prob, "artifact_id": aid}
        elif joins[i] == "key":
            pred = {"prob": prob, "video_id": vid, "text": text}
        else:  # stale id: the join falls back to (video_id, text)
            pred = {"prob": prob, "artifact_id": f"stale{i:06d}", "video_id": vid, "text": text}
        pred["raw_output"] = f"<answer>{prob}</answer>"
        predictions.append(pred)
    n_orphans = round(0.02 * len(predictions))
    for i in range(n_orphans):
        predictions.append({"prob": round(rng.random(), 4), "artifact_id": f"ghost{i:06d}",
                            "video_id": rng.choice(videos), "text": f"ghost text {i}"})
    rng.shuffle(predictions)
    _write(out / "artifacts.jsonl", artifacts)
    _write(out / "predictions.jsonl", [json.dumps(p) + "\n" for p in predictions])
    ops, add_facts = _memory_ops(rng, videos[: max(10, len(videos) // 7)], n_ops)
    _write(out / "memory_ops.txt", [op + "\n" for op in ops])
    return {
        "items": n_artifacts + len(predictions) + len(ops),
        "artifacts": n_artifacts,
        "probs": probs,
        "orphans": n_orphans,
        "add_facts": add_facts,
    }


def _memory_ops(rng: random.Random, videos: list[str], n_ops: int) -> tuple[list[str], int]:
    """A REPL session mixing writes and reads; every operation is valid.

    It saves every SAVE_EVERY operations and at the end. Each save rewrites
    the whole bank in place, and on a disk-backed work directory it waits
    for the previous save's writeback (about 60 ms on ext4), so frequent
    saves would measure the disk rather than the program.
    """
    facts: dict[str, int] = {}
    ops = []
    kinds = _plan(rng, n_ops, {"add-fact": 0.45, "select": 0.08, "add-keyword": 0.15,
                               "mark-processed": 0.09, "search": 0.2, "summary": 0.03})
    for i in range(1, n_ops):
        kind = kinds[i] if facts or kinds[i] != "select" else "add-fact"
        vid = rng.choice(videos)
        if i % SAVE_EVERY == 0:
            ops.append("save")
        elif kind == "select":
            refs = [rng.choice(sorted(facts)) for _ in range(rng.randrange(1, 4))]
            ops.append("select " + " ".join(f"{v}:{rng.randrange(facts[v])}" for v in refs))
        elif kind == "add-fact":
            op = f"add-fact {vid} seen {rng.choice(KEYWORDS)} at marker {i}"
            if rng.random() < 0.5:
                op += f" --tool tool{rng.randrange(5)} --span {i % 50}s-{i % 50 + 3}s --confidence {rng.random():.2f}"
            ops.append(op)
            facts[vid] = facts.get(vid, 0) + 1
        elif kind == "add-keyword":
            ops.append(f"add-keyword {vid} {rng.choice(KEYWORDS)}")
        elif kind == "mark-processed":
            ops.append(f"mark-processed {vid} tool{rng.randrange(5)}")
        elif kind == "search":
            ops.append(f"search {rng.choice(KEYWORDS)}")
        else:
            ops.append("summary")
    ops.append("save")
    return ops, sum(facts.values())


if __name__ == "__main__":
    # gen.py <workload> <seed> <inputs dir> <scale> <meta.json>: run as a child of run.py
    # so that run.py stays small (a child's ru_maxrss starts at its parent's RSS)
    workload, seed, out_dir, scale, meta_path = sys.argv[1:]
    meta = generate(workload, int(seed), Path(out_dir), float(scale))
    Path(meta_path).write_text(json.dumps(meta), encoding="utf-8")
