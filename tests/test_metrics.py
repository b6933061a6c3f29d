from __future__ import annotations

import json
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusekit import (
    Cutoffs,
    DeltaReport,
    EvalReport,
    ParseError,
    Qrels,
    RunSet,
    ScoredList,
    ValidationError,
    delta_report,
    evaluate,
    ndcg_at_k,
    recall_at_k,
)
from fusekit.metrics import (
    _query_metrics,
    format_delta,
    render_delta,
    render_report,
    report_from_json,
    report_json_chunks,
    report_records,
    report_to_json,
)

from conftest import make_list
from reference_eval import (
    CUTOFF_VALUES,
    FIXTURE_JUDGMENTS,
    FIXTURE_RANKINGS,
    dense_fsum_metrics,
    ref_ndcg,
    ref_recall,
)


def qrels_from(judged_by_query: dict[str, dict[str, int]]) -> Qrels:
    return Qrels(
        {
            (qid, doc): grade
            for qid, judged in judged_by_query.items()
            for doc, grade in judged.items()
        }
    )


def run_from(rankings: dict[str, list[str]], tag="fixture") -> RunSet:
    return RunSet(
        lists={
            qid: ScoredList(tuple((doc, float(len(docs) - i)) for i, doc in enumerate(docs)))
            for qid, docs in rankings.items()
        },
        tag=tag,
    )


# ---------------------------------------------------------------------------
# ndcg / recall
# ---------------------------------------------------------------------------


def test_ndcg_perfect_single_relevant():
    qrels = qrels_from({"q": {"dA": 1}})
    ranking = make_list(("dA", 0.9), ("dB", 0.1))
    assert ndcg_at_k(ranking, qrels, "q", 10) == 1.0


def test_ndcg_relevant_at_rank_two():
    qrels = qrels_from({"q": {"dA": 1}})
    ranking = make_list(("dB", 0.9), ("dA", 0.1))
    # hand value: (1/log2(3)) / 1
    assert ndcg_at_k(ranking, qrels, "q", 10) == pytest.approx(0.6309297535714574, abs=1e-12)


def test_ndcg_no_relevant_docs_is_zero():
    qrels = qrels_from({"q": {"dA": 0}})
    assert ndcg_at_k(make_list(("dA", 1.0)), qrels, "q", 10) == 0.0


def test_ndcg_unjudged_docs_count_as_grade_zero():
    qrels = qrels_from({"q": {"dA": 1}})
    ranking = make_list(("zz", 0.9), ("dA", 0.1))
    assert ndcg_at_k(ranking, qrels, "q", 10) == pytest.approx(0.6309297535714574, abs=1e-12)


def test_ndcg_rejects_bad_cutoff():
    qrels = qrels_from({"q": {"dA": 1}})
    for k in [0, -1, 2.5, "3", None, True, False]:  # as Cutoffs does: a bool is no integer here
        for metric in (ndcg_at_k, recall_at_k):
            with pytest.raises(ValidationError, match="cutoff must be"):
                metric(make_list(("dA", 1.0)), qrels, "q", k)


def test_recall_fractions():
    judged = {f"d{i}": 1 for i in range(5)}
    qrels = qrels_from({"q": judged})
    ranking = make_list(("d0", 0.9), ("d1", 0.8), ("d2", 0.7), ("x1", 0.6), ("x2", 0.5))
    assert recall_at_k(ranking, qrels, "q", 10) == pytest.approx(0.6)


def test_recall_all_found():
    qrels = qrels_from({"q": {"d0": 1, "d1": 2}})
    ranking = make_list(("d0", 0.9), ("d1", 0.8))
    assert recall_at_k(ranking, qrels, "q", 10) == 1.0


def test_recall_zero_when_relevant_below_cutoff():
    qrels = qrels_from({"q": {"d9": 1}})
    ranking = make_list(("d0", 0.9), ("d1", 0.8), ("d9", 0.1))
    assert recall_at_k(ranking, qrels, "q", 2) == 0.0


# ---------------------------------------------------------------------------
# evaluate against the independent reference evaluator
# ---------------------------------------------------------------------------


def test_evaluate_perfect_ranking(perfect_run, simple_qrels):
    report = evaluate(perfect_run, simple_qrels, Cutoffs((10,)))
    assert report.aggregate == {"nDCG@10": 1.0, "R@10": 1.0}


def test_evaluate_three_query_fixture_matches_reference():
    rankings = {q: FIXTURE_RANKINGS[q] for q in ("q1", "q2", "q3")}
    judged = {q: FIXTURE_JUDGMENTS[q] for q in ("q1", "q2", "q3")}
    report = evaluate(run_from(rankings), qrels_from(judged), Cutoffs(CUTOFF_VALUES))
    for qid, ranked in rankings.items():
        for k in CUTOFF_VALUES:
            assert report.per_query[qid][f"nDCG@{k}"] == pytest.approx(
                ref_ndcg(ranked, judged[qid], k), abs=1e-6
            )
            assert report.per_query[qid][f"R@{k}"] == pytest.approx(
                ref_recall(ranked, judged[qid], k), abs=1e-6
            )
    # frozen oracle values for the hand-checkable queries
    assert report.per_query["q1"]["nDCG@10"] == pytest.approx(0.5113881456198478, abs=1e-9)
    assert report.per_query["q1"]["R@10"] == pytest.approx(2 / 3, abs=1e-9)
    assert report.per_query["q2"]["nDCG@20"] == 1.0
    assert report.per_query["q3"]["nDCG@100"] == 0.0


def test_evaluate_empty_run_is_error():
    with pytest.raises(ValidationError):
        evaluate(RunSet(lists={}, tag="t"), Qrels({}), Cutoffs((10,)))


def test_evaluate_missing_query_errors_by_default(simple_qrels):
    run = RunSet(lists={"zz": make_list(("dA", 1.0))}, tag="t")
    with pytest.raises(ValidationError):
        evaluate(run, simple_qrels, Cutoffs((10,)))


def test_evaluate_missing_query_skip_mode(simple_qrels, perfect_run):
    lists = dict(perfect_run.lists)
    lists["zz"] = make_list(("dA", 1.0))
    report = evaluate(RunSet(lists=lists, tag="t"), simple_qrels, Cutoffs((10,)), on_missing="skip")
    assert set(report.per_query) == {"q1"}


def test_evaluate_exclude_no_relevant_flag():
    rankings = {"q2": FIXTURE_RANKINGS["q2"], "q3": FIXTURE_RANKINGS["q3"]}
    judged = {"q2": FIXTURE_JUDGMENTS["q2"], "q3": FIXTURE_JUDGMENTS["q3"]}
    cutoffs = Cutoffs((10,))
    with_all = evaluate(run_from(rankings), qrels_from(judged), cutoffs)
    assert with_all.aggregate["nDCG@10"] == pytest.approx(0.5)
    excluded = evaluate(run_from(rankings), qrels_from(judged), cutoffs, exclude_no_relevant=True)
    assert set(excluded.per_query) == {"q2"}
    assert excluded.aggregate["nDCG@10"] == 1.0


def test_evaluate_aggregate_is_exact_mean():
    report = evaluate(
        run_from(FIXTURE_RANKINGS), qrels_from(FIXTURE_JUDGMENTS), Cutoffs(CUTOFF_VALUES)
    )
    for name, value in report.aggregate.items():
        assert value == sum(r[name] for r in report.per_query.values()) / len(report.per_query)


def test_recall_monotone_in_k_and_ndcg_bounded():
    # recall@k never decreases with k; nDCG@k stays in [0, 1] but is not
    # monotone in k under the standard same-cutoff-IDCG definition
    report_rankings = run_from(FIXTURE_RANKINGS)
    qrels = qrels_from(FIXTURE_JUDGMENTS)
    for qid, ranking in report_rankings.lists.items():
        previous_recall = 0.0
        for k in (1, 2, 3, 5, 8, 13, 21, 50):
            n = ndcg_at_k(ranking, qrels, qid, k)
            r = recall_at_k(ranking, qrels, qid, k)
            assert 0.0 <= n <= 1.0 + 1e-12
            assert r >= previous_recall
            previous_recall = r


def test_ndcg_can_legitimately_decrease_with_k():
    # grade-1 docs at ranks 1 and 3: perfect at k=1, below 1 at k=2
    qrels = qrels_from({"q": {"d0": 1, "d2": 1}})
    ranking = make_list(("d0", 0.9), ("d1", 0.8), ("d2", 0.7))
    assert ndcg_at_k(ranking, qrels, "q", 1) == 1.0
    assert ndcg_at_k(ranking, qrels, "q", 2) < 1.0


def test_swapping_in_a_lower_grade_never_helps():
    rng = random.Random(5)
    judged = {f"d{i}": rng.choice([0, 0, 1, 2, 3]) for i in range(8)}
    qrels = qrels_from({"q": judged})
    docs = list(judged)
    for _ in range(50):
        rng.shuffle(docs)
        ranking = ScoredList(tuple((d, float(len(docs) - i)) for i, d in enumerate(docs)))
        base = ndcg_at_k(ranking, qrels, "q", 8)
        i, j = sorted(rng.sample(range(len(docs)), 2))
        if judged[docs[i]] <= judged[docs[j]]:
            continue  # only swaps that move a lower grade up
        swapped = docs[:]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        worse = ScoredList(tuple((d, float(len(docs) - i)) for i, d in enumerate(swapped)))
        assert ndcg_at_k(worse, qrels, "q", 8) <= base + 1e-12


def test_recall_invariant_to_permutation_within_top_k():
    qrels = qrels_from({"q": {"d0": 1, "d2": 2}})
    a = make_list(("d0", 0.9), ("d1", 0.8), ("d2", 0.7))
    b = make_list(("d2", 0.9), ("d0", 0.8), ("d1", 0.7))
    assert recall_at_k(a, qrels, "q", 3) == recall_at_k(b, qrels, "q", 3)


def test_ndcg_one_iff_ideal_prefix():
    qrels = qrels_from({"q": {"d0": 3, "d1": 1, "d2": 1}})
    ideal = make_list(("d0", 0.9), ("d2", 0.8), ("d1", 0.7))  # equal grades may reorder
    assert ndcg_at_k(ideal, qrels, "q", 3) == pytest.approx(1.0, abs=1e-12)
    not_ideal = make_list(("d1", 0.9), ("d0", 0.8), ("d2", 0.7))
    assert ndcg_at_k(not_ideal, qrels, "q", 3) < 1.0


# ---------------------------------------------------------------------------
# delta reports
# ---------------------------------------------------------------------------


def _report(values: dict[str, float], tag: str) -> EvalReport:
    return EvalReport(per_query={}, aggregate=values, tag=tag)


def test_delta_large_improvement_row():
    baseline = _report({"nDCG@10": 0.195}, "first-stage")
    candidate = _report({"nDCG@10": 0.542}, "reranked")
    result = delta_report(baseline, candidate)
    assert format_delta(result.deltas["nDCG@10"]) == "177.95"


def test_delta_small_improvement_row():
    result = delta_report(_report({"nDCG@10": 0.700}, "a"), _report({"nDCG@10": 0.759}, "b"))
    assert format_delta(result.deltas["nDCG@10"]) == "8.43"


def test_delta_degradation_row():
    result = delta_report(_report({"nDCG@10": 0.722}, "a"), _report({"nDCG@10": 0.399}, "b"))
    assert format_delta(result.deltas["nDCG@10"]) == "-44.74"


def test_delta_identical_reports_all_na():
    report = _report({"nDCG@10": 0.7, "R@100": 0.494}, "same")
    result = delta_report(report, report)
    assert all(v is None for v in result.deltas.values())
    rendered = render_delta(result)
    assert rendered.count("N/A") == 2


def test_delta_zero_baseline_is_na():
    result = delta_report(_report({"R@10": 0.0}, "a"), _report({"R@10": 0.3}, "b"))
    assert result.deltas["R@10"] is None


def test_delta_metric_mismatch_is_error():
    with pytest.raises(ValidationError):
        delta_report(_report({"nDCG@10": 0.5}, "a"), _report({"R@10": 0.5}, "b"))


@pytest.mark.parametrize(
    "baseline, candidate, deltas, message",
    [
        ({}, {}, {1: None}, r"deltas must name the metrics \[\], got \[1\]"),
        ({"m": 0.5}, {"m": 0.6}, {}, r"deltas must name the metrics \['m'\], got \[\]"),
        ({"m": 0.5}, {"m": 0.6}, {"m": 1.0, "n": None}, r"deltas must name the metrics \['m'\], got \['m', 'n'\]"),
        ({"m": 0.5}, {"n": 0.6}, {"m": None}, r"reports disagree on metrics: \['m'\] vs \['n'\]"),
        ({"m": 0.5}, {"m": 0.6}, {"m": True}, "delta of m must be an int, a float or None, got True"),
        ({"m": 0.5}, {"m": 0.6}, {"m": "20"}, "delta of m must be an int, a float or None, got '20'"),
        (None, {}, {}, "a delta report compares EvalReports, got None"),
    ],
    ids=["int-key", "missing-key", "extra-key", "other-metrics", "bool", "string", "not-a-report"],
)
def test_a_delta_report_holds_only_what_render_delta_can_show(baseline, candidate, deltas, message):
    if baseline is not None:
        baseline = _report(baseline, "a")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        DeltaReport(baseline, _report(candidate, "b"), deltas)


def test_delta_report_of_reports_on_fewer_metrics_is_the_mismatch_error():
    with pytest.raises(ValidationError, match=r"^reports disagree on metrics: \['m', 'n'\] vs \['n'\]$"):
        delta_report(_report({"m": 0.5, "n": 0.1}, "a"), _report({"n": 0.5}, "b"))
    assert render_delta(DeltaReport(_report({"m": 0.5}, "a"), _report({"m": 0.6}, "b"), {"m": 20})).endswith(
        "20.00"
    )


def _rows(scores: dict[str, float], tag: str) -> EvalReport:
    """A report on nDCG@10 with one per-query row for each of ``scores``."""
    mean = sum(scores[qid] for qid in sorted(scores)) / len(scores)
    per_query = {qid: {"nDCG@10": v} for qid, v in scores.items()}
    return EvalReport(per_query=per_query, aggregate={"nDCG@10": mean}, tag=tag)


def _mismatch(base: int, cand: int, from_cand: list[str], from_base: list[str]) -> str:
    return (
        f"reports cover different queries: {base} in the baseline, {cand} in the candidate; "
        f"missing from the candidate: {from_cand}, missing from the baseline: {from_base}"
    )


# two reports' query scores, and the errors of the delta of the first against the second and back
QUERY_SET_MISMATCHES = {
    # the candidate holds the baseline's q1, unchanged, and one more query
    "one-extra": ({"q1": 0.5}, {"q1": 0.5, "q2": 1.0}, _mismatch(1, 2, [], ["q2"]), _mismatch(2, 1, ["q2"], [])),
    "disjoint": (
        {"q1": 0.5, "q2": 0.25}, {"q3": 0.5},
        _mismatch(2, 1, ["q1", "q2"], ["q3"]), _mismatch(1, 2, ["q3"], ["q1", "q2"]),
    ),
    "first-five-named": (
        {f"q{i}": 0.5 for i in range(10)}, {"q0": 0.5},
        _mismatch(10, 1, ["q1", "q2", "q3", "q4", "q5"], []), _mismatch(1, 10, [], ["q1", "q2", "q3", "q4", "q5"]),
    ),
}


@pytest.mark.parametrize("read_back", [False, True], ids=["built", "read-back"])
@pytest.mark.parametrize("name", sorted(QUERY_SET_MISMATCHES))
def test_a_delta_of_reports_on_other_queries_is_a_validation_error_in_both_orders(name, read_back):
    first, second, forward, backward = QUERY_SET_MISMATCHES[name]
    a, b = _rows(first, "a"), _rows(second, "b")
    if read_back:
        a, b = report_from_json(report_to_json(a)), report_from_json(report_to_json(b))
    for baseline, candidate, message in ((a, b, forward), (b, a, backward)):
        with pytest.raises(ValidationError) as excinfo:
            delta_report(baseline, candidate)
        assert str(excinfo.value) == message


def test_a_summary_only_report_compares_with_one_that_has_rows():
    rows, summary = _rows({"q1": 0.5, "q2": 1.0}, "b"), _report({"nDCG@10": 0.5}, "a")
    deltas = [delta_report(base, cand).deltas["nDCG@10"] for base, cand in ((summary, rows), (rows, summary))]
    assert list(map(format_delta, deltas)) == ["50.00", "-33.33"]
    assert delta_report(rows, _rows({"q2": 1.0, "q1": 0.5}, "c")).deltas == {"nDCG@10": None}


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_validates_value_range():
    with pytest.raises(ValidationError):
        EvalReport(per_query={}, aggregate={"nDCG@10": 1.5})


def test_report_validates_aggregate_consistency():
    with pytest.raises(ValidationError):
        EvalReport(per_query={"q1": {"R@10": 0.4}}, aggregate={"R@10": 0.9})


def test_report_json_round_trip():
    report = evaluate(
        run_from(FIXTURE_RANKINGS), qrels_from(FIXTURE_JUDGMENTS), Cutoffs(CUTOFF_VALUES)
    )
    loaded = report_from_json(report_to_json(report))
    assert loaded == report


def test_report_json_streams_the_indented_dump_in_batches():
    per_query = {f"q{i:04d}": {"nDCG@10": i / 2000, "R@10": 0.5} for i in range(2000)}
    aggregate = {name: sum(m[name] for m in per_query.values()) / 2000 for name in ("nDCG@10", "R@10")}
    report = EvalReport(per_query=per_query, aggregate=aggregate, tag="big")
    chunks = list(report_json_chunks(report))
    payload = {"tag": "big", "aggregate": aggregate, "per_query": per_query}
    assert b"".join(chunks) == report_to_json(report)
    assert report_to_json(report) == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    # ~140 kB of text in a few writes of about 64 KiB, not one per encoder piece
    assert 2 <= len(chunks) <= 4
    assert all(len(chunk) < (1 << 16) + 100 for chunk in chunks)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ('{"aggregate": {"nDCG@10": 0.5}, "per_query": []}', ValidationError, "per_query must be"),
        ('{"aggregate": {"nDCG@10": 0.5}, "per_query": {"q1": 0.5}}', ValidationError, "per_query must"),
        ('{"aggregate": {"nDCG@10": 0.5}, "per_query": {"q1": {"R@10": 0.5}}}', ValidationError, "differ"),
        ('{"aggregate": {"nDCG@10": "a"}}', ValidationError, "not a number"),
        ('{"aggregate": {"nDCG@10": true}}', ValidationError, "not a number"),
        ('{"aggregate": []}', ValidationError, "aggregate must be"),
        ('{"aggregate": {}, "tag": 5}', ValidationError, "tag must be a string"),
        ('{"aggregate": ', ParseError, "invalid JSON"),
        (b'\xff', ParseError, "UTF-8"),
        ("[" * 100_000, ParseError, "recursion depth"),
    ],
    ids=[
        "per_query-array", "per_query-row-number", "per_query-other-metrics", "metric-string",
        "metric-bool", "aggregate-array", "tag-number", "truncated", "invalid-utf8", "nested-too-deeply",
    ],
)
def test_report_from_json_rejects_malformed_reports(text, error, message):
    with pytest.raises(error, match=message):
        report_from_json(text)


def test_report_records_cover_queries_and_aggregate():
    report = evaluate(run_from(FIXTURE_RANKINGS), qrels_from(FIXTURE_JUDGMENTS), Cutoffs((10,)))
    records = report_records(report)
    assert {r["query"] for r in records} == set(FIXTURE_RANKINGS) | {"all"}
    assert all(r["metric"] in ("nDCG@10", "R@10") for r in records)


def test_render_report_formats_three_decimals(perfect_run, simple_qrels):
    text = render_report(evaluate(perfect_run, simple_qrels, Cutoffs((10,))))
    assert "nDCG@10" in text and "1.000" in text


@pytest.mark.parametrize("grades", [[2000], [1023, 1023, 1023]], ids=["one-grade", "fsum"])
def test_gains_beyond_the_float_range_name_the_query(grades):
    docs = [f"d{i}" for i in range(len(grades))]
    qrels = Qrels({("q1", doc): grade for doc, grade in zip(docs, grades)})
    ranking = make_list(*((doc, 1.0 - i / 10) for i, doc in enumerate(docs)))
    with pytest.raises(ValidationError, match="query 'q1'"):
        evaluate(RunSet(lists={"q1": ranking}), qrels, Cutoffs((10,)))
    with pytest.raises(ValidationError, match="query 'q1'"):
        ndcg_at_k(ranking, qrels, "q1", 10)


# ---------------------------------------------------------------------------
# the sparse per-query metrics and the templated report give the old bytes
# ---------------------------------------------------------------------------

DOC_POOL = [f"d{i}" for i in range(30)]
GRADES = st.one_of(st.integers(0, 4), st.integers(1020, 1030))  # 1023 is the largest finite gain
CUTOFF_TUPLES = st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True).map(sorted).map(tuple)


def bits(values: list[float]) -> list[bytes]:
    return [struct.pack("d", value) for value in values]


@settings(max_examples=400, deadline=None)
@given(
    ranked=st.lists(st.sampled_from(DOC_POOL), max_size=25, unique=True),
    judged=st.dictionaries(st.sampled_from(DOC_POOL), GRADES, max_size=20),
    cutoffs=CUTOFF_TUPLES,
)
@example(ranked=["d0", "d1", "d2"], judged={"d0": 0, "d1": 2, "d9": 1}, cutoffs=(1,))  # grade 0 ranked, d9 unretrieved
@example(ranked=["d0"], judged={"d0": 0}, cutoffs=(5, 10))  # nothing relevant, list shorter than the cutoffs
@example(ranked=["d0", "d1"], judged={"d0": 1023, "d1": 1023}, cutoffs=(2,))  # fsum overflows
@example(ranked=[], judged={"d0": 3}, cutoffs=(1, 40))
def test_sparse_query_metrics_are_the_dense_sums_bit_for_bit(ranked, judged, cutoffs):
    ranking = make_list(*((doc, 1.0 - i / 100) for i, doc in enumerate(ranked)))
    try:
        expected = dense_fsum_metrics(ranked, judged, cutoffs)
    except OverflowError:
        with pytest.raises(ValidationError, match="exceeds the float range"):
            _query_metrics("q", ranking, judged, cutoffs)
        return
    ndcg, recall = _query_metrics("q", ranking, judged, cutoffs)
    assert (bits(ndcg), bits(recall)) == (bits(expected[0]), bits(expected[1]))


NAMES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\n\t", "%r", "%s%%", "é", "\U0001f600", "nDCG@10", "R@10"]
)
TEXTS = st.text(max_size=8) | st.sampled_from(['a"b', "\\", "\x1f\x7f", "ü€", "\U0001d11e"])
VALUES = st.floats(0.0, 1.0) | st.sampled_from([0, 1])


@st.composite
def reports(draw) -> EvalReport:
    names = draw(st.lists(NAMES, max_size=4, unique=True))
    if draw(st.booleans()):  # a summary report, as report_from_json reads one, with no per-query rows
        aggregate = {name: draw(VALUES) for name in names}
        return report_from_json(json.dumps({"aggregate": aggregate, "tag": draw(TEXTS)}))
    qids = draw(st.lists(TEXTS, min_size=1, max_size=5, unique=True))
    per_query = {qid: {name: draw(VALUES) for name in draw(st.permutations(names))} for qid in qids}
    aggregate = {name: sum(per_query[qid][name] for qid in sorted(qids)) / len(qids) for name in names}
    return EvalReport(per_query=per_query, aggregate=aggregate, tag=draw(TEXTS))


@settings(max_examples=300, deadline=None)
@given(report=reports())
def test_report_json_is_the_indented_sorted_dump(report):
    payload = {"tag": report.tag, "aggregate": report.aggregate, "per_query": report.per_query}
    assert report_to_json(report) == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


class Share(float):
    def __repr__(self):
        return f"Share({float(self)!r})"


# summed in this order the values make 0.6; in sorted query order, as the file holds them, 0.6000000000000001
SHUFFLED = {"b": {"R@1": 0.2}, "c": {"R@1": 0.3}, "a": {"R@1": 0.1}}


def test_reports_their_json_cannot_hold_are_rejected():
    # each would be written as another report, or as a file that does not read back
    for per_query, aggregate, message in [
        ({2: {"R@1": 0.5}, "q1": {"R@1": 1}}, {"R@1": 0.75}, "query id must be a string, got 2"),
        ({}, {1: 0.5}, "metric name must be a string, got 1"),
        ({"q1": {("R", 1): 0.5}}, {("R", 1): 0.5}, r"metric name must be a string, got \('R', 1\)"),
        ({}, {"R@1": True}, r"metric R@1 value True is not a number in \[0, 1\]"),
        ({"q1": {"R@1": Share(0.25)}}, {"R@1": 0.25}, r"metric R@1 value Share\(0.25\) is a Share, not int or float"),
        ({}, {"R@1": Share(0.25)}, r"metric R@1 value Share\(0.25\) is a Share, not int or float"),
        (SHUFFLED, {"R@1": 0.6 / 3},
         "aggregate R@1=0.19999999999999998 is not the per-query mean 0.20000000000000004"),
        ({"\ud800": {"R@1": 0.5}}, {"R@1": 0.5}, r"query id '\\ud800' holds a lone surrogate"),
        ({}, {"\udfff": 0.5}, r"metric name '\\udfff' holds a lone surrogate"),
    ]:
        with pytest.raises(ValidationError, match=message):
            EvalReport(per_query=per_query, aggregate=aggregate)
    with pytest.raises(ValidationError, match=r"tag '\\ud800' holds a lone surrogate"):
        EvalReport(tag="\ud800")
    # the mean in sorted query order is accepted
    assert EvalReport(per_query=SHUFFLED, aggregate={"R@1": 0.20000000000000004}).per_query == SHUFFLED


LOOSE_KEYS = TEXTS | st.integers(0, 2) | st.sampled_from(["\ud800", ("a",)])
LOOSE_VALUES = VALUES | st.booleans() | st.floats(0.0, 1.0).map(Share) | st.floats()


@st.composite
def report_parts(draw) -> tuple[dict, dict, str]:
    """Fields for ``EvalReport``, some of which it rejects: other key and value types, a mean out of sorted order."""
    loose = draw(st.booleans())
    names = draw(st.lists(LOOSE_KEYS if loose else NAMES, max_size=3, unique=True))
    qids = draw(st.lists(LOOSE_KEYS if loose else TEXTS, max_size=5, unique=True))
    per_query = {qid: {name: draw(LOOSE_VALUES if loose else VALUES) for name in names} for qid in qids}
    if draw(st.booleans()) and all(type(qid) is str for qid in qids):
        qids = sorted(qids)
    if qids:
        aggregate = {name: sum(per_query[qid][name] for qid in qids) / len(qids) for name in names}
    else:
        aggregate = {name: draw(LOOSE_VALUES if loose else VALUES) for name in names}
    return per_query, aggregate, draw(TEXTS | st.just("\ud800") if loose else TEXTS)


@settings(max_examples=400, deadline=None)
@given(parts=report_parts())
@example(parts=({2: {"R@1": 0.5}, "q1": {"R@1": 1}}, {"R@1": 0.75}, "run"))
@example(parts=({"q1": {"R@1": Share(0.25)}}, {"R@1": Share(0.25)}, "run"))
@example(parts=(SHUFFLED, {"R@1": 0.6 / 3}, "run"))
@example(parts=({}, {1: 0.5}, "run"))
def test_every_report_the_constructor_accepts_is_written_and_read_back_equal(parts):
    per_query, aggregate, tag = parts
    try:
        report = EvalReport(per_query=per_query, aggregate=aggregate, tag=tag)
    except ValidationError:
        return
    payload = {"tag": tag, "aggregate": aggregate, "per_query": per_query}
    data = report_to_json(report)
    assert data == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    assert report_from_json(data) == report
    render_report(report, per_query=True)
    render_delta(delta_report(report, report))


def test_evaluate_builds_the_report_the_checked_constructor_accepts():
    report = evaluate(run_from(FIXTURE_RANKINGS), qrels_from(FIXTURE_JUDGMENTS), Cutoffs(CUTOFF_VALUES))
    assert EvalReport(per_query=report.per_query, aggregate=report.aggregate, tag=report.tag) == report
