"""Independent reference implementations the output checks compare against.

Written from the documented semantics only, sharing no code with
``fusekit``: plain loops, ``math.fsum`` and ``math.log2``.
"""

from __future__ import annotations

import math
import random
import statistics
from pathlib import Path


def read_run(path: Path, wanted: set[str] | None = None) -> dict[str, list[tuple[str, float]]]:
    """TREC run -> {qid: [(doc, score)]} ordered by score desc, doc asc."""
    lists: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            qid, _, doc, _, score, _ = line.split()
            if wanted is None or qid in wanted:
                lists.setdefault(qid, []).append((doc, float(score)))
    for entries in lists.values():
        entries.sort(key=lambda e: (-e[1], e[0]))
    return lists


def read_qrels(path: Path, wanted: set[str] | None = None) -> dict[str, dict[str, int]]:
    judged: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            qid, _, doc, grade = line.split()
            if wanted is None or qid in wanted:
                judged.setdefault(qid, {})[doc] = int(grade)
    return judged


def fuse(sub_lists: list[list[tuple[str, float]]], kind: str, k: int = 60) -> list[tuple[str, float]]:
    """Brute-force rrf or max_sim: for every doc, look it up in every list."""
    positions = [{doc: (rank, score) for rank, (doc, score) in enumerate(sub, 1)} for sub in sub_lists]
    docs = sorted({doc for sub in sub_lists for doc, _ in sub})
    fused = []
    for doc in docs:
        hits = [pos[doc] for pos in positions if doc in pos]
        if kind == "rrf":
            value = math.fsum(1.0 / (k + rank) for rank, _ in hits)
        elif kind == "max_sim":
            value = max(score for _, score in hits)
        else:
            raise ValueError(f"no reference for {kind!r}")
        fused.append((doc, value))
    fused.sort(key=lambda e: (-e[1], e[0]))
    return fused


def rerank(fused: list[tuple[str, float]], external: dict[str, float], depth: int) -> list[tuple[str, float]]:
    """Head reordered by external score (scored first), tail kept; scores become 1/rank."""
    if not external:
        return fused
    head, tail = fused[:depth], fused[depth:]
    scored = sorted((e for e in head if e[0] in external), key=lambda e: (-external[e[0]], e[0]))
    unscored = [e for e in head if e[0] not in external]
    return [(doc, 1.0 / rank) for rank, (doc, _) in enumerate(scored + unscored + tail, 1)]


def ndcg(docs: list[str], judged: dict[str, int], k: int) -> float:
    def dcg(grades):
        return sum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(grades))

    ideal = dcg(sorted(judged.values(), reverse=True)[:k])
    return 0.0 if ideal == 0 else dcg([judged.get(d, 0) for d in docs[:k]]) / ideal


def recall(docs: list[str], judged: dict[str, int], k: int) -> float:
    relevant = {d for d, g in judged.items() if g > 0}
    return 0.0 if not relevant else len(relevant & set(docs[:k])) / len(relevant)


def metrics_row(docs: list[str], judged: dict[str, int], cutoffs=(10, 20, 100)) -> dict[str, float]:
    row = {f"nDCG@{k}": ndcg(docs, judged, k) for k in cutoffs}
    row.update({f"R@{k}": recall(docs, judged, k) for k in cutoffs})
    return row


def subsample_ids(sub_ids: list[str], keep: int, seed: int, qid: str) -> list[str]:
    """The documented draw: uniform without replacement, seeded by (seed, query id)."""
    if len(sub_ids) <= keep:
        return sub_ids
    picked = sorted(random.Random(f"{seed}:{qid}").sample(range(len(sub_ids)), keep))
    return [sub_ids[i] for i in picked]


def ablation_rows(groups, runs, judged, kind, keeps, seeds, cutoffs=(10, 20, 100)) -> dict[str, dict[str, tuple[float, float]]]:
    """(mean, population std) per metric and keep count, recomputed independently."""
    rows = {}
    for keep in keeps:
        per_seed = []
        for seed in ([None] if keep == "all" else seeds):
            per_query = []
            for qid, sub_ids in groups.items():
                chosen = sub_ids if keep == "all" else subsample_ids(sub_ids, keep, seed, qid)
                fused = fuse([runs[s] for s in chosen], kind)
                per_query.append(metrics_row([d for d, _ in fused], judged[qid], cutoffs))
            per_seed.append({name: sum(r[name] for r in per_query) / len(per_query) for name in per_query[0]})
        rows[str(keep)] = {
            name: (statistics.fmean(s[name] for s in per_seed), statistics.pstdev([s[name] for s in per_seed]))
            for name in per_seed[0]
        }
    return rows
