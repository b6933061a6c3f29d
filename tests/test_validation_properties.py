"""Lists the library derives must pass the validating constructors unchanged.

Parsers, fusion, truncation and rerank injection build their outputs from
data that is already valid. Whatever construction path they use, each
output must be accepted as-is by ``ScoredList(entries)`` and be in the
canonical order ``ScoredList.from_pairs`` gives, and parsed qrels must
answer every lookup the way ``Qrels(judgments)`` does. ``evaluate`` must
reproduce the documented per-cutoff formulas bit for bit.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from fusekit import (
    Cutoffs,
    FusionInput,
    FusionStrategy,
    Qrels,
    RunSet,
    ScoredList,
    evaluate,
    fuse,
    parse_qrels,
    parse_run,
    truncate,
)
from fusekit.fusion import STRATEGY_KINDS
from fusekit.pipeline import inject_rerank

# str.split() separates on each of these (all str.isspace()); none ends a line for splitlines()
SEPARATORS = st.sampled_from([" ", "\t", "  ", "\x1f", "\xa0", "\u2003", "\u3000"])

tokens = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
).filter(lambda s: s.split() == [s])

scores = st.one_of(
    st.sampled_from([-1.0, 0.0, -0.0, 0.25, 0.5, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)

# bounded so that summing five lists stays finite; test_fusion covers the overflow
fusion_scores = st.one_of(
    st.sampled_from([-1.0, 0.0, -0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=-1e300, max_value=1e300),
)

small_docs = st.sampled_from([f"d{i}" for i in range(12)])


def assert_canonical(ranking: ScoredList) -> None:
    """Plain tuples of (str, float), valid, and in from_pairs order."""
    assert type(ranking.entries) is tuple
    for entry in ranking.entries:
        assert type(entry) is tuple and len(entry) == 2
        assert type(entry[0]) is str and type(entry[1]) is float
    assert ScoredList(ranking.entries).entries == ranking.entries
    assert ScoredList.from_pairs(ranking.entries).entries == ranking.entries


@st.composite
def pair_lists(draw, docs=small_docs, values=fusion_scores, min_size=0, max_size=12):
    return draw(st.dictionaries(docs, values, min_size=min_size, max_size=max_size))


@st.composite
def run_files(draw):
    """(text, per-query pairs) for a run file with arbitrary separators and line order."""
    per_query = draw(st.dictionaries(tokens, pair_lists(docs=tokens, values=scores, min_size=1), max_size=5))
    lines = []
    for qid, pairs in per_query.items():
        for rank, (doc, score) in enumerate(pairs.items(), start=1):
            fields = [qid, "Q0", doc, str(rank), repr(score), "tag"]
            seps = [draw(SEPARATORS) for _ in range(5)]
            lines.append("".join(f + s for f, s in zip(fields, seps + [""])))
    lines = draw(st.permutations(lines))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"])), per_query


@settings(max_examples=100, deadline=None)
@given(run_files())
def test_parse_run_lists_are_canonical(case):
    text, per_query = case
    run = parse_run(text.encode("utf-8"))
    assert set(run.lists) == set(per_query)
    for qid, ranking in run.lists.items():
        assert_canonical(ranking)
        assert ranking == ScoredList.from_pairs(per_query[qid].items())


@st.composite
def fusion_inputs(draw):
    subs = draw(st.lists(pair_lists(), min_size=1, max_size=5))
    return FusionInput("q", tuple(ScoredList.from_pairs(p.items()) for p in subs))


@settings(max_examples=100, deadline=None)
@given(
    fusion_inputs(),
    st.sampled_from(STRATEGY_KINDS),
    st.integers(1, 100),
    st.one_of(st.none(), st.integers(0, 15)),
)
def test_fused_and_truncated_lists_are_canonical(inp, kind, k, depth):
    fused = fuse(inp, FusionStrategy(kind, k), depth)
    assert_canonical(fused)
    assert_canonical(truncate(fused, 3))
    for sub in inp.sub_lists:
        assert_canonical(truncate(sub, 2))


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from(["q1", "q2", "q3"]), pair_lists(), max_size=3),
    st.dictionaries(st.sampled_from(["q1", "q2", "q4"]), pair_lists(), max_size=3),
    st.integers(0, 15),
)
def test_reranked_lists_are_canonical(fused_pairs, rerank_pairs, depth):
    fused = RunSet({q: ScoredList.from_pairs(p.items()) for q, p in fused_pairs.items()})
    rerank = RunSet({q: ScoredList.from_pairs(p.items()) for q, p in rerank_pairs.items()})
    reranked = inject_rerank(fused, rerank, depth)
    assert set(reranked.lists) == set(fused.lists)
    for ranking in reranked.lists.values():
        assert_canonical(ranking)


@st.composite
def qrels_files(draw):
    judgments = draw(
        st.dictionaries(st.tuples(tokens, tokens), st.integers(0, 4), max_size=20)
    )
    lines = [
        f"{qid}{draw(SEPARATORS)}0{draw(SEPARATORS)}{doc}{draw(SEPARATORS)}{grade}"
        for (qid, doc), grade in judgments.items()
    ]
    return "\n".join(draw(st.permutations(lines))), judgments


@settings(max_examples=100, deadline=None)
@given(qrels_files())
def test_parse_qrels_answers_like_validating_qrels(case):
    text, judgments = case
    parsed = parse_qrels(text.encode("utf-8"))
    reference = Qrels(judgments)
    assert parsed.judgments == reference.judgments
    assert parsed.queries() == reference.queries()
    for qid in reference.queries() | {"unjudged"}:
        assert parsed.for_query(qid) == reference.for_query(qid)
        assert parsed.relevant_docs(qid) == reference.relevant_docs(qid)
    for (qid, doc) in judgments:
        assert parsed.grade(qid, doc) == reference.grade(qid, doc)


def formula_ndcg(ranked: list[str], judged: dict[str, int], k: int) -> float:
    def dcg(grades):
        return math.fsum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(grades))

    idcg = dcg(sorted(judged.values(), reverse=True)[:k])
    if idcg == 0.0:
        return 0.0
    return dcg([judged.get(doc, 0) for doc in ranked[:k]]) / idcg


def formula_recall(ranked: list[str], judged: dict[str, int], k: int) -> float:
    relevant = {doc for doc, grade in judged.items() if grade > 0}
    if not relevant:
        return 0.0
    return len(set(ranked[:k]) & relevant) / len(relevant)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["q1", "q2", "q3", "q4"]), pair_lists(max_size=30), min_size=1, max_size=4
    ),
    st.dictionaries(
        st.tuples(st.sampled_from(["q1", "q2", "q3", "q4"]), small_docs),
        st.integers(0, 5),
        max_size=40,
    ),
    st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True),
)
def test_evaluate_reproduces_per_cutoff_formulas_exactly(run_pairs, judgments, cutoff_values):
    run = RunSet({q: ScoredList.from_pairs(p.items()) for q, p in run_pairs.items()})
    cutoffs = Cutoffs(tuple(sorted(cutoff_values)))
    qrels = Qrels(judgments)
    judged_queries = [q for q in run.lists if q in qrels.queries()]
    if not judged_queries:
        return
    report = evaluate(run, qrels, cutoffs, on_missing="skip")
    expected = {}
    for qid in sorted(judged_queries):
        ranked = list(run.lists[qid].docs())
        judged = qrels.for_query(qid)
        row = {f"nDCG@{k}": formula_ndcg(ranked, judged, k) for k in cutoffs.values}
        row.update({f"R@{k}": formula_recall(ranked, judged, k) for k in cutoffs.values})
        expected[qid] = row
    assert report.per_query == expected
    for name in cutoffs.metric_names():
        assert report.aggregate[name] == sum(r[name] for r in expected.values()) / len(expected)
