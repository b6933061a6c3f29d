from __future__ import annotations

import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusekit import (
    ParseError,
    Qrels,
    RunSet,
    ScoredList,
    SubQueryMap,
    ValidationError,
    expansion_stats,
    parse_qrels,
    parse_run,
    parse_subquery_map,
    truncate,
    write_run,
    write_subquery_map,
)

from fusekit import core
from fusekit.core import _decode, _iter_lines, atomic_write, iter_jsonl

from conftest import make_list


# ---------------------------------------------------------------------------
# ScoredList / truncate
# ---------------------------------------------------------------------------


def test_scored_list_rejects_increasing_scores():
    with pytest.raises(ValidationError):
        ScoredList((("dA", 0.1), ("dB", 0.9)))


def test_scored_list_rejects_duplicate_docs():
    with pytest.raises(ValidationError):
        ScoredList((("dA", 0.9), ("dA", 0.8)))


def test_scored_list_rejects_whitespace_doc_ids():
    with pytest.raises(ValidationError):
        ScoredList((("d A", 0.9),))


@pytest.mark.parametrize("score", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("build", [ScoredList, ScoredList.from_pairs], ids=["init", "from_pairs"])
def test_scored_list_rejects_non_finite_scores_naming_the_doc(build, score):
    # parse_run rejects such a score, so a list holding one could be written but not read back
    with pytest.raises(ValidationError, match="non-finite score .* for doc 'dB'"):
        build((("dA", 0.9), ("dB", score)))


@pytest.mark.parametrize(
    "score, message",
    [
        (True, "score must be an int or float, got True for doc 'dB'"),
        ("0.5", "score must be an int or float, got '0.5' for doc 'dB'"),
        (None, "score must be an int or float, got None for doc 'dB'"),
        ("abc", "score must be an int or float, got 'abc' for doc 'dB'"),
        (10**400, "score beyond the float range for doc 'dB'"),
        (-(10**5000), "score beyond the float range for doc 'dB'"),  # too long for str() as well
    ],
    ids=["bool", "numeric-string", "none", "string", "huge-int", "huger-int"],
)
@pytest.mark.parametrize("build", [ScoredList, ScoredList.from_pairs], ids=["init", "from_pairs"])
def test_scored_list_takes_only_int_and_float_scores(build, score, message):
    # a JSON number's rule (core._json_float): never a bool, never a string
    with pytest.raises(ValidationError) as excinfo:
        build((("dA", 0.9), ("dB", score)))
    assert str(excinfo.value) == message
    assert build((("dA", 2), ("dB", 0.5))).entries == (("dA", 2.0), ("dB", 0.5))


@pytest.mark.parametrize(
    "pairs, message",
    [
        (((None, 0.5), ("a", 0.5)), "doc id must be a non-empty string, got None"),
        ((("a", 0.5), (3, 0.5)), "doc id must be a non-empty string, got 3"),
        ((("a", 0.5), ("", 0.5)), "doc id must be a non-empty string, got ''"),
        (((None, "x"), ("a", 0.5)), "score must be an int or float, got 'x' for doc None"),
    ],
    ids=["none-tied", "int-tied", "empty", "score-before-doc-id"],
)
@pytest.mark.parametrize("build", [ScoredList, ScoredList.from_pairs], ids=["init", "from_pairs"])
def test_scored_list_checks_doc_ids_before_from_pairs_sorts(build, pairs, message):
    # the sort compares tied doc ids, which a None or an int id made a raw TypeError
    with pytest.raises(ValidationError) as excinfo:
        build(pairs)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("value", [" ", "d A", "dA\t", "\u3000dA", "d\x1cA", "dA\u2028"])
def test_check_token_rejects_whitespace(value):
    with pytest.raises(ValidationError, match="must not contain whitespace"):
        core._check_token(value, "doc id")


@pytest.mark.parametrize("value", ["", None, 5])
def test_check_token_rejects_empty_and_non_strings(value):
    with pytest.raises(ValidationError, match="must be a non-empty string"):
        core._check_token(value, "doc id")


@pytest.mark.parametrize("value", ["\ud800", "d\udfffA", "\u00e9\udc80"])
def test_check_text_and_check_token_reject_a_lone_surrogate(value):
    # the one str character UTF-8 cannot encode, so no writer could write it
    message = rf"^doc id {re.escape(repr(value))} holds a lone surrogate$"
    for check in (core._check_text, core._check_token):
        with pytest.raises(ValidationError, match=message):
            check(value, "doc id")


@pytest.mark.parametrize("value", ["dA", "d\u00e9", "\U0001f600"])
def test_check_text_returns_what_utf8_encodes(value):
    assert core._check_text(value, "doc id") is value


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ScoredList([("d\ud800", 1.0)]), "doc id 'd\\ud800'"),
        (lambda: ScoredList.from_pairs([("d\ud800", 1.0)]), "doc id 'd\\ud800'"),
        (lambda: RunSet({"q\ud800": make_list(("dA", 1.0))}), "query id 'q\\ud800'"),
        (lambda: write_run(RunSet({"q1": make_list(("dA", 1.0))}, tag="t\ud800"), 10), "run tag 't\\ud800'"),
        (lambda: Qrels({("q1", "d\udc00"): 1}), "doc id 'd\\udc00'"),
        (lambda: SubQueryMap({"q1": (("q1-s\ud800", "a"),)}), "sub-query id 'q1-s\\ud800'"),
        (lambda: SubQueryMap({"q1": (("q1-s0", "a\ud800"),)}), "sub-query 'q1-s0' text 'a\\ud800'"),
    ],
    ids=["scored-list", "from-pairs", "run-query", "run-tag", "qrels-doc", "map-sub-id", "map-text"],
)
def test_a_lone_surrogate_is_a_validation_error_where_the_value_enters(build, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)} holds a lone surrogate$"):
        build()


def test_split_drops_exactly_the_characters_isspace_accepts():
    # _check_token tests a token with str.split() instead of scanning it with str.isspace()
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        assert ch.isspace() == (not ch.split()), hex(code)


def test_from_pairs_breaks_ties_by_doc_id():
    sl = ScoredList.from_pairs([("dB", 0.5), ("dA", 0.5)])
    assert sl.docs() == ("dA", "dB")


def test_truncate_depth_zero_is_empty():
    assert len(truncate(make_list(("dA", 1.0)), 0)) == 0


def test_truncate_beyond_length_is_identity():
    sl = make_list(("dA", 1.0), ("dB", 0.5))
    assert truncate(sl, 99) == sl


def test_truncate_keeps_head():
    sl = ScoredList.from_pairs([(f"d{i:04d}", 1000.0 - i) for i in range(1000)])
    assert len(truncate(sl, 100)) == 100
    assert truncate(sl, 100).docs() == sl.docs()[:100]


def test_truncate_rejects_negative_depth():
    with pytest.raises(ValueError):
        truncate(make_list(("dA", 1.0)), -1)


@pytest.mark.parametrize("depth", [2.5, True, "3", None], ids=["float", "bool", "string", "none"])
def test_truncate_and_write_run_take_only_an_int_depth(depth):
    ranking = make_list(("dA", 1.0), ("dB", 0.5))
    with pytest.raises(ValidationError, match=rf"^depth must be an integer, got {re.escape(repr(depth))}$"):
        truncate(ranking, depth)
    with pytest.raises(ValidationError, match=rf"^depth must be a positive integer, got {re.escape(repr(depth))}$"):
        write_run(RunSet(lists={"q1": ranking}, tag="t"), depth)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=8))
def test_truncate_idempotent(n, depth):
    sl = ScoredList(tuple((f"d{i}", float(n - i)) for i in range(n)))
    once = truncate(sl, depth)
    assert truncate(once, depth) == once


# ---------------------------------------------------------------------------
# run files
# ---------------------------------------------------------------------------


def test_parse_run_single_line():
    run = parse_run(b"q1 Q0 dA 1 0.9 t\n")
    assert run.tag == "t"
    assert run.lists["q1"].entries == (("dA", 0.9),)


def test_parse_run_sorts_by_descending_score():
    run = parse_run(b"q1 Q0 d1 1 0.3 t\nq1 Q0 d2 2 0.9 t\n")
    assert run.lists["q1"].entries == (("d2", 0.9), ("d1", 0.3))


def test_parse_run_ignores_rank_column():
    # ranks deliberately contradict the scores
    run = parse_run(b"q1 Q0 d1 1 0.3 t\nq1 Q0 d2 99 0.9 t\n")
    assert run.lists["q1"].docs() == ("d2", "d1")


def test_parse_run_duplicate_doc_is_error():
    with pytest.raises(ParseError) as excinfo:
        parse_run(b"q1 Q0 dA 1 0.9 t\nq1 Q0 dA 2 0.5 t\n")
    assert "q1" in str(excinfo.value) and "dA" in str(excinfo.value)
    assert excinfo.value.line == 2


def test_parse_run_query_that_comes_back_equals_the_contiguous_file():
    split = parse_run(b"q1 Q0 d1 1 0.3 t\nq2 Q0 d9 1 0.7 t\nq1 Q0 d2 2 0.9 t\nq1 Q0 d0 3 0.3 t\n")
    contiguous = parse_run(b"q1 Q0 d1 1 0.3 t\nq1 Q0 d2 2 0.9 t\nq1 Q0 d0 3 0.3 t\nq2 Q0 d9 1 0.7 t\n")
    assert split == contiguous
    assert list(split.lists) == ["q1", "q2"]
    assert split.lists["q1"].entries == (("d2", 0.9), ("d0", 0.3), ("d1", 0.3))


def test_parse_run_duplicate_doc_across_a_gap_is_error():
    with pytest.raises(ParseError) as excinfo:
        parse_run(b"q1 Q0 dA 1 0.9 t\nq2 Q0 dA 1 0.5 t\nq1 Q0 dA 2 0.5 t\n")
    assert "q1" in str(excinfo.value) and "dA" in str(excinfo.value)
    assert excinfo.value.line == 3


INTERLEAVED = [f"q{i % 7} Q0 d{i} 1 {i % 13 / 8} t\n" for i in range(700)]


def test_parse_run_ranks_an_interleaved_query_at_most_twice():
    # a query is ranked when its lines first end, and once more at the end of the input if they came back
    calls = []
    real_ranked = core._ranked

    def ranked(scores):
        calls.append(next(iter(scores)))
        return real_ranked(scores)

    data = "".join(INTERLEAVED).encode()
    with mock.patch.object(core, "_ranked", ranked):
        run = parse_run(data)
    assert len(calls) == 14
    assert run == parse_run("".join(sorted(INTERLEAVED, key=lambda line: line.split()[0])))
    assert list(run.lists) == [f"q{i}" for i in range(7)]


def test_parse_run_duplicate_doc_in_a_query_re_opened_twice_names_its_line():
    lines = INTERLEAVED[:30] + [INTERLEAVED[2]] + INTERLEAVED[30:]
    with pytest.raises(ParseError) as excinfo:
        parse_run("".join(lines))
    assert excinfo.value.line == 31
    assert "'q2'" in str(excinfo.value) and "'d2'" in str(excinfo.value)


def test_parse_run_wrong_field_count_reports_line():
    with pytest.raises(ParseError) as excinfo:
        parse_run(b"q1 Q0 dA 1 0.9 t\nq1 Q0 dA 0.5 t\n")
    assert excinfo.value.line == 2


def test_parse_run_non_numeric_score_reports_line():
    with pytest.raises(ParseError) as excinfo:
        parse_run(b"q1 Q0 dA 1 high t\n")
    assert excinfo.value.line == 1


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_parse_run_rejects_non_finite_score(score):
    data = f"q1 Q0 a 1 0.5 t\nq1 Q0 b 2 {score} t\nq1 Q0 c 3 0.7 t\n"
    with pytest.raises(ParseError) as excinfo:
        parse_run(data)
    assert excinfo.value.line == 2


@pytest.mark.parametrize("score", ["1_0", "0.2_5", "١.٥", "٣", "\uff11"])
def test_parse_run_rejects_a_score_that_is_no_plain_ascii_number(score):
    # float() takes each of these: underscores between digits, Arabic-Indic and full-width digits
    with pytest.raises(ParseError) as excinfo:
        parse_run(f"q Q0 d 1 0.5 t\nq Q0 e 2 {score} t\n")
    assert (str(excinfo.value), excinfo.value.line) == (f"line 2: non-numeric score {score!r}", 2)


def test_parse_run_skips_blank_lines():
    run = parse_run(b"\nq1 Q0 dA 1 0.9 t\n\n")
    assert len(run.lists["q1"]) == 1


def test_write_run_single_line_ends_with_tag():
    run = RunSet(lists={"q1": make_list(("dA", 0.9))}, tag="mytag")
    lines = write_run(run, 10).decode().splitlines()
    assert len(lines) == 1
    assert lines[0].endswith(" mytag")


def test_write_run_truncates_to_depth():
    sl = ScoredList.from_pairs([(f"d{i:04d}", 200.0 - i) for i in range(200)])
    run = RunSet(lists={"q1": sl}, tag="t")
    assert len(write_run(run, 100).decode().splitlines()) == 100


def test_write_run_rejects_nonpositive_depth():
    run = RunSet(lists={"q1": make_list(("dA", 0.9))}, tag="t")
    with pytest.raises(ValueError):
        write_run(run, 0)


def test_write_then_parse_round_trip():
    run = RunSet(
        lists={
            "q2": make_list(("dA", 0.25), ("dB", 0.125)),
            "q1": make_list(("dC", 1.0 / 3.0), ("dD", 1e-9)),
        },
        tag="round",
    )
    assert parse_run(write_run(run, 1000)) == run


@settings(max_examples=100)
@given(
    st.dictionaries(
        st.from_regex(r"q[0-9]{1,3}", fullmatch=True),
        st.lists(
            st.tuples(st.from_regex(r"d[0-9]{1,3}", fullmatch=True), st.floats(0, 1, allow_nan=False)),
            min_size=1,
            max_size=8,
            unique_by=lambda p: p[0],
        ),
        min_size=1,
        max_size=4,
    )
)
def test_round_trip_property(per_query):
    run = RunSet(
        lists={qid: ScoredList.from_pairs(pairs) for qid, pairs in per_query.items()},
        tag="t",
    )
    parsed = parse_run(write_run(run, 1000))
    assert parsed.lists.keys() == run.lists.keys()
    for qid in run.lists:
        got, want = parsed.lists[qid].entries, run.lists[qid].entries
        assert [d for d, _ in got] == [d for d, _ in want]
        assert all(abs(g - w) <= 1e-9 for (_, g), (_, w) in zip(got, want))


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["q1", "q2", "q3"]),
            st.sampled_from([f"d{i}" for i in range(6)]),
            st.one_of(st.sampled_from([1.0, 0.5, 0.0, -0.0]), st.floats(-1e3, 1e3)),
        ),
        min_size=1,
        max_size=20,
        unique_by=lambda line: line[:2],
    ),
    st.data(),
)
def test_parse_run_ignores_the_order_of_lines(lines, data):
    text = [f"{qid} Q0 {doc} 1 {score!r} t\n" for qid, doc, score in lines]
    run = parse_run("".join(text))
    shuffled = parse_run("".join(data.draw(st.permutations(text))))
    assert shuffled == run
    for qid, ranking in run.lists.items():  # == takes -0.0 for 0.0, repr does not
        assert list(map(repr, shuffled.lists[qid]._scores)) == list(map(repr, ranking._scores))


def test_parse_recomputes_contiguous_ranks():
    run = parse_run(b"q1 Q0 d1 5 0.3 t\nq1 Q0 d2 17 0.9 t\nq1 Q0 d3 2 0.5 t\n")
    assert run.lists["q1"].docs() == ("d2", "d3", "d1")
    scores = [s for _, s in run.lists["q1"].entries]
    assert scores == sorted(scores, reverse=True)


# ---------------------------------------------------------------------------
# qrels
# ---------------------------------------------------------------------------


def test_parse_qrels_basic():
    qrels = parse_qrels(b"q1 0 dA 1\n")
    assert qrels.judgments == {("q1", "dA"): 1}


def test_parse_qrels_retains_grade_zero():
    qrels = parse_qrels(b"q1 0 dA 0\n")
    assert qrels.judgments == {("q1", "dA"): 0}
    assert qrels.for_query("q1") == {"dA": 0}


def test_parse_qrels_duplicate_is_error():
    with pytest.raises(ParseError) as excinfo:
        parse_qrels(b"q1 0 dA 1\nq1 0 dA 1\n")
    assert excinfo.value.line == 2


def test_parse_qrels_empty_file():
    assert parse_qrels(b"") == Qrels({})


def test_parse_qrels_malformed_line_number():
    with pytest.raises(ParseError) as excinfo:
        parse_qrels(b"q1 0 dA 1\nq1 0 dB x\n")
    assert excinfo.value.line == 2


@pytest.mark.parametrize("grade", ["1_0", "٣", "\uff11"])
def test_parse_qrels_rejects_a_grade_that_is_no_plain_ascii_number(grade):
    with pytest.raises(ParseError) as excinfo:
        parse_qrels(f"q 0 c 1\nq 0 d {grade}\n")
    assert (str(excinfo.value), excinfo.value.line) == (f"line 2: non-integer grade {grade!r}", 2)


@pytest.mark.parametrize("grade", [True, False, 1.0])
def test_qrels_rejects_a_grade_that_is_no_int(grade):
    # bool is a subclass of int, but True is no relevance grade
    with pytest.raises(ValidationError, match="relevance grade must be a non-negative integer"):
        Qrels({("q", "d"): grade})


def test_parse_qrels_negative_grade_rejected():
    with pytest.raises(ParseError):
        parse_qrels(b"q1 0 dA -1\n")


def test_qrels_grade_defaults_to_zero():
    qrels = parse_qrels(b"q1 0 dA 2\n")
    assert qrels.for_query("q1").get("unjudged", 0) == 0
    assert qrels.for_query("q1").get("dA", 0) == 2


# ---------------------------------------------------------------------------
# sub-query map + expansion stats
# ---------------------------------------------------------------------------


def _map_record(qid: str, n: int) -> str:
    subs = [{"id": f"{qid}-s{i}", "text": f"sub {i} of {qid}"} for i in range(n)]
    import json

    return json.dumps({"query_id": qid, "sub_queries": subs})


def test_parse_subquery_map_preserves_order():
    data = _map_record("q1", 3)
    mapping = parse_subquery_map(data)
    assert mapping.sub_query_ids("q1") == ["q1-s0", "q1-s1", "q1-s2"]


def test_parse_subquery_map_empty_group_is_error():
    with pytest.raises(ParseError) as excinfo:
        parse_subquery_map(_map_record("q1", 0))
    assert excinfo.value.line == 1


def test_parse_subquery_map_duplicate_sub_id_is_error():
    import json

    record = json.dumps(
        {"query_id": "q1", "sub_queries": [{"id": "s0", "text": "a"}, {"id": "s0", "text": "b"}]}
    )
    with pytest.raises(ParseError) as excinfo:
        parse_subquery_map(record)
    assert excinfo.value.line == 1


@pytest.mark.parametrize(
    "record",
    [
        {"query_id": "q2", "sub_queries": [{"id": "a b", "text": "x"}]},
        {"query_id": "q2", "sub_queries": [{"id": 7, "text": "x"}]},
        {"query_id": "q 2", "sub_queries": [{"id": "q2-s0", "text": "x"}]},
        {"query_id": "q2", "sub_queries": [{"id": "q2-s0", "text": ["x"]}]},
        {"query_id": "q2", "sub_queries": [{"id": "q1-s1", "text": "x"}]},
        {"query_id": "q1", "sub_queries": [{"id": "q2-s0", "text": "x"}]},
    ],
    ids=["sub-id-whitespace", "sub-id-number", "query-id-whitespace", "text-not-string",
         "sub-id-of-line-1", "query-id-of-line-1"],
)
def test_parse_subquery_map_bad_group_reports_its_line(record):
    import json

    with pytest.raises(ParseError) as excinfo:
        parse_subquery_map(_map_record("q1", 2) + "\n" + json.dumps(record) + "\n")
    assert excinfo.value.line == 2


def test_parse_subquery_map_bad_json_reports_line():
    data = _map_record("q1", 2) + "\n{not json\n"
    with pytest.raises(ParseError) as excinfo:
        parse_subquery_map(data)
    assert excinfo.value.line == 2


def test_subquery_map_round_trip():
    data = "\n".join(_map_record(f"q{i}", i + 1) for i in range(3))
    mapping = parse_subquery_map(data)
    assert parse_subquery_map(write_subquery_map(mapping)) == mapping


# Group sizes for the expansion-statistics regression: 19 queries and
# 430 sub-queries overall (one degenerate single-probe group), 18 clean
# decompositions totalling 429.
FULL_GROUP_SIZES = [1, 22] + [23] * 9 + [25] * 8
CLEAN_GROUP_SIZES = FULL_GROUP_SIZES[1:]


def _sized_map(sizes) -> SubQueryMap:
    return SubQueryMap(
        {
            f"q{i:02d}": tuple((f"q{i:02d}-s{j:02d}", f"text {j}") for j in range(size))
            for i, size in enumerate(sizes)
        }
    )


def test_expansion_stats_full_fixture():
    stats = expansion_stats(_sized_map(FULL_GROUP_SIZES))
    assert (stats.count, stats.min_size, stats.max_size) == (430, 1, 25)
    assert f"{stats.mean_size:.2f}" == "22.63"


def test_expansion_stats_clean_subset():
    stats = expansion_stats(_sized_map(CLEAN_GROUP_SIZES))
    assert (stats.count, stats.min_size, stats.max_size) == (429, 22, 25)
    assert f"{stats.mean_size:.2f}" == "23.83"


def test_expansion_stats_single_group():
    stats = expansion_stats(_sized_map([5]))
    assert stats == (5, 5, 5.0, 5)


def test_expansion_stats_empty_map_is_error():
    with pytest.raises(ValueError):
        expansion_stats(SubQueryMap({}))


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=25))
def test_expansion_stats_mean_consistency(sizes):
    stats = expansion_stats(_sized_map(sizes))
    displayed = float(f"{stats.mean_size:.2f}")
    assert abs(displayed * len(sizes) - stats.count) <= 0.005 * len(sizes) + 1e-9


# ---------------------------------------------------------------------------
# iter_jsonl / atomic_write
# ---------------------------------------------------------------------------


def test_iter_jsonl_numbers_lines_and_skips_blanks():
    data = b'{"a": 1}\n\n  \n[2, 3]\n"x"\n'
    assert list(iter_jsonl(data)) == [(1, {"a": 1}), (4, [2, 3]), (5, "x")]


def test_iter_jsonl_bad_json_reports_line():
    with pytest.raises(ParseError) as excinfo:
        list(iter_jsonl('{"a": 1}\n\n{oops\n'))
    assert excinfo.value.line == 3


@pytest.mark.parametrize(
    "line, message",
    [("[" * 100_000 + "]" * 100_000, "recursion depth"), ("1" * 5000, "4300 digits")],
    ids=["nested-too-deeply", "integer-too-long"],
)
def test_iter_jsonl_rejects_json_that_python_cannot_hold(line, message):
    with pytest.raises(ParseError, match=message) as excinfo:
        list(iter_jsonl('{"a": 1}\n' + line + "\n"))
    assert excinfo.value.line == 2


def test_iter_jsonl_rejects_invalid_utf8():
    with pytest.raises(ParseError):
        list(iter_jsonl(b"\xff\n"))


# ---------------------------------------------------------------------------
# _iter_lines: inputs read one chunk at a time
# ---------------------------------------------------------------------------

# every str.splitlines() boundary, plus text pieces with multibyte UTF-8
LINE_PIECES = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "a", "q1 Q0 d1 1 0.5 t", " ", "\t", "é", "€", "\U0001f600", "\u3000",
]

line_texts = st.lists(st.sampled_from(LINE_PIECES), max_size=40).map("".join)


@settings(max_examples=300)
@given(text=line_texts, chunk=st.integers(min_value=1, max_value=16), as_bytes=st.booleans())
def test_iter_lines_matches_splitlines_across_chunk_boundaries(text, chunk, as_bytes):
    data = text.encode("utf-8") if as_bytes else text
    with mock.patch.object(core, "_CHUNK", chunk):
        assert list(_iter_lines(data)) == _decode(data).splitlines()


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_parse_errors_past_a_chunk_boundary_report_the_whole_input_line(chunk):
    run = b"".join(b"q1 Q0 d%d 1 0.5 t\n" % i for i in range(9)) + b"q1 Q0 dX 1 high t\n"
    qrels = b"".join(b"q1 0 d%d 1\n" % i for i in range(9)) + b"q1 0 dX x\n"
    jsonl = b'{"a": 1}\n\n' * 5 + b"{oops\n"
    with mock.patch.object(core, "_CHUNK", chunk):
        with pytest.raises(ParseError) as run_error:
            parse_run(run)
        with pytest.raises(ParseError) as qrels_error:
            parse_qrels(qrels)
        with pytest.raises(ParseError) as jsonl_error:
            list(iter_jsonl(jsonl))
    assert (run_error.value.line, qrels_error.value.line, jsonl_error.value.line) == (10, 10, 11)


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 20])
@pytest.mark.parametrize("bad", [b"\xff", b"\xc3(", b"\xe2\x82"], ids=["start-byte", "continuation", "truncated"])
def test_invalid_utf8_reports_the_offset_in_the_whole_input(chunk, bad):
    # lines of multibyte whitespace, which every parser skips, then the bad bytes
    data = "\u3000 \u2003\n".encode("utf-8") * 9 + b"  " + bad + b"\n"
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    with mock.patch.object(core, "_CHUNK", chunk):
        for parse in (parse_run, parse_qrels, lambda d: list(iter_jsonl(d))):
            with pytest.raises(ParseError, match="not valid UTF-8") as excinfo:
                parse(data)
            assert str(excinfo.value) == f"input is not valid UTF-8: {whole.value}"


def test_iter_lines_reads_an_open_file_like_its_bytes(tmp_path):
    # a \r\n pair and a 3-byte character each straddle a 4-byte read; the last line has no newline
    data = "abc\r\nx€d\ne\u2028f\rlast".encode("utf-8")
    assert data[3:5] == b"\r\n" and data[6:9] == "€".encode("utf-8")
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    for chunk in (1, 2, 3, 4, 5, 64):
        with mock.patch.object(core, "_CHUNK", chunk), open(path, "rb") as fh:
            assert list(_iter_lines(fh)) == list(_iter_lines(data)) == _decode(data).splitlines()


@pytest.mark.parametrize("chunk", [1, 4, 16])
def test_iter_lines_reports_an_invalid_byte_in_a_file_at_its_offset_in_the_whole_input(tmp_path, chunk):
    data = b"q1 Q0 d1 1 0.5 t\n" * 5 + b"q1 Q0 d\xff 1 0.5 t\n"
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    assert whole.value.start == 92  # past the first chunk for every size above
    path = tmp_path / "bad.run"
    path.write_bytes(data)
    with mock.patch.object(core, "_CHUNK", chunk), open(path, "rb") as fh:
        with pytest.raises(ParseError) as excinfo:
            list(_iter_lines(fh))
    assert str(excinfo.value) == f"input is not valid UTF-8: {whole.value}"


def test_atomic_write_replaces_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.run"
    target.write_bytes(b"old")
    atomic_write(target, b"new")
    assert target.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.run"]


def test_atomic_write_failed_rename_keeps_old_file(tmp_path, monkeypatch):
    target = tmp_path / "out.run"
    target.write_bytes(b"old")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(core.os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        atomic_write(target, b"new")
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.run"]


def test_atomic_write_streams_the_chunks_of_an_iterable(tmp_path):
    target = tmp_path / "out.run"
    atomic_write(target, (line + b"\n" for line in (b"a", b"b", b"c")))
    assert target.read_bytes() == b"a\nb\nc\n"


def test_atomic_write_of_an_empty_iterable_writes_an_empty_file(tmp_path):
    target = tmp_path / "out.run"
    target.write_bytes(b"old")
    atomic_write(target, iter(()))
    assert target.read_bytes() == b""
    assert [p.name for p in tmp_path.iterdir()] == ["out.run"]


def test_atomic_write_failing_midway_keeps_old_file_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.run"
    target.write_bytes(b"old")

    def chunks():
        yield b"new, "
        raise ValidationError("bad record")

    with pytest.raises(ValidationError, match="bad record"):
        atomic_write(target, chunks())
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.run"]


def _bad_argument_calls():
    from fusekit.ablation import subsample
    from fusekit.evidence import filter_by_threshold
    from fusekit.fusion import FusionInput, rrf
    from fusekit.memory import MemoryBank
    from fusekit.metrics import evaluate, ndcg_at_k
    from fusekit.pipeline import inject_rerank

    ranking = make_list(("dA", 1.0))
    run = RunSet(lists={"q1": ranking}, tag="t")
    qrels = Qrels({("q1", "dA"): 1})
    return {
        "subsample-keep": lambda: subsample(SubQueryMap({"q1": (("q1-s0", "a"),)}), 0, seed=0),
        "filter-threshold": lambda: filter_by_threshold([], 2.0),
        "rrf-k": lambda: rrf(FusionInput("q1", (ranking,)), 0),
        "ndcg-cutoff": lambda: ndcg_at_k(ranking, qrels, "q1", 0),
        "evaluate-on-missing": lambda: evaluate(run, qrels, on_missing="drop"),
        "truncate-depth": lambda: truncate(ranking, -1),
        "write-run-depth": lambda: write_run(run, 0),
        "expansion-stats-empty": lambda: expansion_stats(SubQueryMap({})),
        "keyword-empty": lambda: MemoryBank().add_keyword("v1", ""),
        "tool-empty": lambda: MemoryBank().mark_processed("v1", ""),
        "dump-slot": lambda: MemoryBank().dump("nope"),
        "rerank-depth": lambda: inject_rerank(run, run, -1),
    }


@pytest.mark.parametrize("case", list(_bad_argument_calls()))
def test_bad_argument_values_are_validation_errors(case):
    # a ValidationError is a FusekitError, so the CLI reports it, and a ValueError, so older callers still catch it
    with pytest.raises(ValidationError) as excinfo:
        _bad_argument_calls()[case]()
    assert isinstance(excinfo.value, ValueError)
