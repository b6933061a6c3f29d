"""Independent reference evaluator used as the metrics oracle.

Deliberately naive: plain loops and math.log2, no shared code with the
library. nDCG uses exponential gain (2^grade - 1) with a log2(i + 1)
discount; recall counts grade > 0 documents.
"""

from __future__ import annotations

import math


def ref_dcg(grades: list[int]) -> float:
    return sum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(grades))


def ref_ndcg(ranked_docs: list[str], judged: dict[str, int], k: int) -> float:
    ideal = sorted(judged.values(), reverse=True)[:k]
    idcg = ref_dcg(ideal)
    if idcg == 0:
        return 0.0
    gains = [judged.get(doc, 0) for doc in ranked_docs[:k]]
    return ref_dcg(gains) / idcg


def ref_recall(ranked_docs: list[str], judged: dict[str, int], k: int) -> float:
    relevant = {doc for doc, grade in judged.items() if grade > 0}
    if not relevant:
        return 0.0
    return len(set(ranked_docs[:k]) & relevant) / len(relevant)


def dense_fsum_metrics(
    ranked_docs: list[str], judged: dict[str, int], cutoffs: tuple[int, ...]
) -> tuple[list[float], list[float]]:
    """nDCG and recall at each cutoff as the library once computed them: one term per rank.

    Every document in the top ranks, and every grade of the ideal ranking,
    zeros included, gets its term ``(2.0**g - 1) / math.log2(i + 2)``, and
    each cutoff sums its prefix with ``math.fsum``. The library's sparse
    computation must give the same doubles. A gain beyond the float range
    raises OverflowError.
    """
    depth = max(cutoffs)

    def terms(grades: list[int]) -> list[float]:
        return [(2.0**g - 1) / math.log2(i + 2) for i, g in enumerate(grades)]

    ideal = terms(sorted(judged.values(), reverse=True)[:depth])
    top = ranked_docs[:depth]
    gains = terms([judged.get(doc, 0) for doc in top])
    relevant = {doc for doc, grade in judged.items() if grade > 0}
    hits = [0]
    for doc in top:
        hits.append(hits[-1] + (doc in relevant))
    ndcg, recall = [], []
    for k in cutoffs:
        idcg = math.fsum(ideal[:k])
        ndcg.append(0.0 if idcg == 0.0 else math.fsum(gains[:k]) / idcg)
        recall.append(hits[min(k, len(top))] / len(relevant) if relevant else 0.0)
    return ndcg, recall


# ---------------------------------------------------------------------------
# Five-query graded fixture. q1..q3 are short enough to verify by hand;
# q4/q5 run 25 deep so the 10/20/100 cutoffs actually differ.
# ---------------------------------------------------------------------------

FIXTURE_RANKINGS: dict[str, list[str]] = {
    "q1": [f"a{i}" for i in range(1, 9)],
    "q2": ["b1", "b2", "b3", "b4"],
    "q3": ["c1", "c2", "c3"],
    "q4": [f"e{i:02d}" for i in range(1, 26)],
    "q5": [f"f{i:02d}" for i in range(1, 26)],
}

FIXTURE_JUDGMENTS: dict[str, dict[str, int]] = {
    # graded, one relevant doc never retrieved (a9)
    "q1": {"a1": 0, "a2": 3, "a5": 1, "a9": 2},
    # ideal ordering: grades descend with rank
    "q2": {"b1": 2, "b2": 1},
    # judged but nothing relevant
    "q3": {"c1": 0, "c2": 0},
    # relevant mass deep in the list
    "q4": {"e03": 1, "e12": 2, "e15": 1, "e22": 3, "e25": 1},
    # mix of early and unretrieved relevance
    "q5": {"f01": 3, "f02": 0, "f07": 2, "f19": 1, "f99": 2},
}

CUTOFF_VALUES = (10, 20, 100)


def fixture_expected() -> dict[str, dict[str, float]]:
    expected = {}
    for qid, ranked in FIXTURE_RANKINGS.items():
        judged = FIXTURE_JUDGMENTS[qid]
        row = {}
        for k in CUTOFF_VALUES:
            row[f"nDCG@{k}"] = ref_ndcg(ranked, judged, k)
        for k in CUTOFF_VALUES:
            row[f"R@{k}"] = ref_recall(ranked, judged, k)
        expected[qid] = row
    return expected
