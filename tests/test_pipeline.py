from __future__ import annotations

import json
import logging
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusekit import (
    FusionStrategy,
    ParseError,
    PipelineStageError,
    RunSet,
    TransportError,
    ValidationError,
)
from fusekit.clients import ReplayDecomposer
from fusekit.pipeline import (
    DecompositionResult,
    MAX_SUB_QUERIES,
    PipelineConfig,
    decompose,
    decompose_all,
    inject_rerank,
    read_query_records,
    run_pipeline,
    write_run_file,
)

from conftest import DEEP_JSON, LONG_INT_JSON, make_list

FIXTURES = Path(__file__).parent / "fixtures" / "pipeline"

QUERY_RECORD = {
    "query_id": "7",
    "title": "t",
    "persona": "p",
    "background": "b",
    "query": "what happened during the storm",
}


class CannedDecomposer:
    def __init__(self, raw: str):
        self.raw = raw

    def decompose_raw(self, record):
        return self.raw


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_valid_array():
    raw = json.dumps([f"facet {i}" for i in range(25)])
    result = decompose(QUERY_RECORD, CannedDecomposer(raw))
    assert len(result.sub_queries) == 25
    assert result.fallback_used is False


def test_decompose_non_array_falls_back():
    result = decompose(QUERY_RECORD, CannedDecomposer("I cannot answer that."))
    assert result.sub_queries == (QUERY_RECORD["query"],)
    assert result.fallback_used is True


def test_decompose_truncates_beyond_limit():
    raw = json.dumps([f"facet {i}" for i in range(30)])
    result = decompose(QUERY_RECORD, CannedDecomposer(raw))
    assert len(result.sub_queries) == MAX_SUB_QUERIES
    assert result.sub_queries[-1] == "facet 24"


@pytest.mark.parametrize("count, warnings", [(30, ["query 7: decomposition gave 30 sub-queries, cut to 25"]), (25, [])])
def test_a_decomposition_cut_at_the_limit_logs_one_warning(caplog, count, warnings):
    raw = json.dumps([f"facet {i}" for i in range(count)])
    with caplog.at_level(logging.WARNING, logger="fusekit.pipeline"):
        result = decompose(QUERY_RECORD, CannedDecomposer(raw))
    assert result.fallback_used is False
    assert [record.getMessage() for record in caplog.records] == warnings


def test_decompose_empty_array_falls_back():
    result = decompose(QUERY_RECORD, CannedDecomposer("[]"))
    assert result.fallback_used is True


def test_decompose_non_string_entries_fall_back():
    result = decompose(QUERY_RECORD, CannedDecomposer("[1, 2, 3]"))
    assert result.fallback_used is True


def test_decompose_never_returns_zero_sub_queries():
    for raw in ("[]", "null", "{}", "\"just text\"", "[\"\"]"):
        result = decompose(QUERY_RECORD, CannedDecomposer(raw))
        assert len(result.sub_queries) >= 1


def test_decompose_requires_query_fields():
    with pytest.raises(ValidationError):
        decompose({"query_id": "9"}, CannedDecomposer("[]"))


def test_decompose_transport_failure_propagates():
    replay = ReplayDecomposer({})
    with pytest.raises(TransportError):
        decompose(QUERY_RECORD, replay)


def test_decompose_all_assigns_stable_ids():
    replay = ReplayDecomposer(
        {"1": json.dumps(["a", "b"]), "2": "oops"}
    )
    records = [
        {"query_id": "1", "query": "first query"},
        {"query_id": "2", "query": "second query"},
    ]
    mapping, results = decompose_all(records, replay)
    assert mapping.sub_query_ids("1") == ["1-s000", "1-s001"]
    assert mapping.groups["2"] == (("2-s000", "second query"),)
    assert [r.fallback_used for r in results] == [False, True]


def test_decompose_all_names_the_failing_query():
    replay = ReplayDecomposer({"1": json.dumps(["a"])})
    records = [{"query_id": "1", "query": "first"}, {"query_id": "2", "query": "second"}]
    with pytest.raises(PipelineStageError) as excinfo:
        decompose_all(records, replay)
    assert excinfo.value.stage == "decompose"
    assert excinfo.value.query_id == "2"
    assert isinstance(excinfo.value.cause, TransportError)


def test_read_query_records_reports_line():
    good = '{"query_id": "1", "query": "q"}\n'
    assert read_query_records(good.encode() + b"\n") == [{"query_id": "1", "query": "q"}]
    for bad in (good + '["not", "an", "object"]\n', good + "{oops\n"):
        with pytest.raises(ParseError) as excinfo:
            read_query_records(bad)
        assert excinfo.value.line == 2


@pytest.mark.parametrize(
    "record",
    [{"query_id": ["1"], "query": "x"}, {"query_id": "a b", "query": "x"}, {"query_id": "1"},
     {"query_id": "1", "query": ""}, {"query_id": "1", "query": 5}],
    ids=["list-id", "whitespace-id", "no-query", "empty-query", "number-query"],
)
def test_read_query_records_rejects_a_bad_query_id_or_text(record):
    data = json.dumps({"query_id": "0", "query": "q"}) + "\n" + json.dumps(record) + "\n"
    with pytest.raises(ParseError, match="'query(_id)?' must") as excinfo:
        read_query_records(data)
    assert excinfo.value.line == 2


def test_read_query_records_rejects_a_repeated_query_id():
    data = "".join(json.dumps({"query_id": "1", "query": q}) + "\n" for q in ("first", "second"))
    with pytest.raises(ParseError, match="query '1' appears in two query records") as excinfo:
        read_query_records(data)
    assert excinfo.value.line == 2


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(raw=st.text() | JSON_VALUES.map(json.dumps))
@example(raw=DEEP_JSON)
@example(raw=LONG_INT_JSON)
@example(raw="[" + LONG_INT_JSON + "]")
def test_decompose_returns_for_any_reply(raw):
    result = decompose(QUERY_RECORD, CannedDecomposer(raw))
    assert 1 <= len(result.sub_queries) <= MAX_SUB_QUERIES
    if result.fallback_used:
        assert result.sub_queries == (QUERY_RECORD["query"],)


def test_decomposition_result_rejects_empty():
    with pytest.raises(ValidationError):
        DecompositionResult(query_id="1", sub_queries=())


# ---------------------------------------------------------------------------
# inject_rerank
# ---------------------------------------------------------------------------


def fused_run() -> RunSet:
    return RunSet(
        lists={
            "q1": make_list(("dA", 0.9), ("dB", 0.8), ("dC", 0.7), ("dD", 0.6), ("dE", 0.5)),
        },
        tag="fused",
    )


def test_inject_rerank_reverses_head():
    scores = RunSet(lists={"q1": make_list(("dC", 3.0), ("dB", 2.0), ("dA", 1.0))}, tag="rr")
    out = inject_rerank(fused_run(), scores, 3)
    assert out.lists["q1"].docs() == ("dC", "dB", "dA", "dD", "dE")


def test_inject_rerank_empty_scores_is_noop():
    out = inject_rerank(fused_run(), RunSet(lists={}, tag="rr"), 3)
    assert out.lists == fused_run().lists


def test_inject_rerank_partial_coverage():
    # only dB and dD scored within a head of 4: they lead, others follow fused order
    scores = RunSet(lists={"q1": make_list(("dD", 5.0), ("dB", 4.0))}, tag="rr")
    out = inject_rerank(fused_run(), scores, 4)
    assert out.lists["q1"].docs() == ("dD", "dB", "dA", "dC", "dE")


def test_inject_rerank_scores_outside_head_ignored(caplog):
    scores = RunSet(lists={"q1": make_list(("dE", 9.0), ("dB", 1.0))}, tag="rr")
    with caplog.at_level("WARNING"):
        out = inject_rerank(fused_run(), scores, 2)
    assert out.lists["q1"].docs() == ("dB", "dA", "dC", "dD", "dE")
    assert any("outside the fused top" in m for m in caplog.messages)


def test_inject_rerank_unknown_query_ignored(caplog):
    scores = RunSet(lists={"zz": make_list(("dA", 1.0))}, tag="rr")
    with caplog.at_level("WARNING"):
        out = inject_rerank(fused_run(), scores, 3)
    assert out.lists["q1"] == fused_run().lists["q1"]


def test_inject_rerank_only_permutes():
    scores = RunSet(lists={"q1": make_list(("dC", 3.0), ("dA", 2.0))}, tag="rr")
    out = inject_rerank(fused_run(), scores, 5)
    assert sorted(out.lists["q1"].docs()) == sorted(fused_run().lists["q1"].docs())


def test_inject_rerank_tail_untouched():
    scores = RunSet(lists={"q1": make_list(("dB", 1.0))}, tag="rr")
    out = inject_rerank(fused_run(), scores, 2)
    assert out.lists["q1"].docs()[2:] == ("dC", "dD", "dE")


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_depth_ordering_enforced():
    with pytest.raises(ValidationError):
        PipelineConfig(strategy=FusionStrategy("rrf", 10), first_stage_depth=50, rerank_depth=100)


def test_config_round_trip():
    config = PipelineConfig(
        strategy=FusionStrategy("max_sim"),
        first_stage_depth=200,
        rerank_depth=20,
        endpoints={"decomposer": "http://example/d", "retriever": "http://example/r"},
        inputs={"queries": Path("q.jsonl")},
    )
    # the manifest lists the inputs apart, so to_dict leaves them out
    assert PipelineConfig.from_dict({**config.to_dict(), "inputs": {"queries": "q.jsonl"}}) == config


def test_config_rejects_unknown_endpoint():
    with pytest.raises(ValidationError):
        PipelineConfig(strategy=FusionStrategy("rrf", 10), endpoints={"oracle": "http://x"})


def test_config_rejects_reranker_endpoint():
    with pytest.raises(ValidationError):
        PipelineConfig(strategy=FusionStrategy("rrf", 10), endpoints={"reranker": "http://x"})


@pytest.mark.parametrize(
    "data, key",
    [
        ({"rerank_dpeth": 5}, "rerank_dpeth"),
        ({"cutoffs": [10, 20]}, "cutoffs"),
        ({"strategy": {"kind": "rrf", "K": 10}}, "K"),
        ({"inputs": {"rerank_run": "rerank.run"}}, "rerank_run"),
        ({"seeds": [0, 1, 2, 3, 4]}, "seeds"),
    ],
)
def test_config_rejects_unknown_keys(data, key):
    with pytest.raises(ValidationError, match=key):
        PipelineConfig.from_dict(data)


@pytest.mark.parametrize(
    "data, key",
    [
        ({"seeds": 5}, "seeds"),
        ({"seeds": [1, "2"]}, "seeds"),
        ({"seeds": [0.5]}, "seeds"),
        ({"seeds": [True]}, "seeds"),
        ({"endpoints": 5}, "endpoints"),
        ({"endpoints": {"decomposer": 5}}, "endpoints"),
        ({"inputs": {"rerank": 5}}, "inputs"),
        ({"inputs": []}, "inputs"),
        ({"strategy": {"kind": "rrf", "k": 1.5}}, "k"),
        ({"strategy": {"kind": "rrf", "k": True}}, "k"),
        ({"first_stage_depth": True, "rerank_depth": 1}, "first_stage_depth"),
        ({"first_stage_depth": "500"}, "first_stage_depth"),
        ({"rerank_depth": 5.0}, "rerank_depth"),
        ({"inputs": {"rerank": "re\0rank.run"}}, "rerank"),
        ({"inputs": {"rerank": "\ud800.run"}}, "rerank"),
    ],
)
def test_config_rejects_values_of_the_wrong_type(data, key):
    # "seeds" is no longer a config key, so a value of any type is rejected as an unknown key
    match = r"unknown config keys \['seeds'\]" if key == "seeds" else f"{key} must"
    with pytest.raises(ValidationError, match=match):
        PipelineConfig.from_dict(data)


def test_config_rejects_non_object():
    with pytest.raises(ValidationError):
        PipelineConfig.from_dict([])
    with pytest.raises(ValidationError):
        PipelineConfig.from_dict({"strategy": "rrf"})


@pytest.mark.parametrize(
    "data, sources",
    [
        ({"inputs": {"subquery_map": "m", "queries": "q"}}, ("inputs.subquery_map", "inputs.queries")),
        (
            {"inputs": {"subquery_map": "m"}, "endpoints": {"decomposer": "http://d"}},
            ("inputs.subquery_map", "endpoints.decomposer"),
        ),
        (
            {"inputs": {"subquery_runs": "r"}, "endpoints": {"retriever": "http://r"}},
            ("inputs.subquery_runs", "endpoints.retriever"),
        ),
    ],
    ids=["map-and-queries", "map-and-decomposer", "runs-and-retriever"],
)
def test_config_rejects_a_stage_with_two_sources(data, sources):
    with pytest.raises(ValidationError, match="two sources") as excinfo:
        PipelineConfig.from_dict(data)
    for source in sources:
        assert source in str(excinfo.value)


@pytest.mark.parametrize(
    "data, stage",
    [
        ({"inputs": {"subquery_runs": "r"}}, "decompose"),
        ({"inputs": {"queries": "q", "subquery_runs": "r"}}, "decompose"),
        ({"inputs": {"subquery_runs": "r"}, "endpoints": {"decomposer": "http://d"}}, "decompose"),
        ({"inputs": {"subquery_map": "m", "rerank": "k"}}, "retrieve"),
    ],
    ids=["nothing", "queries-without-decomposer", "decomposer-without-queries", "no-retriever"],
)
def test_config_rejects_a_stage_with_no_source(data, stage):
    with pytest.raises(ValidationError, match=f"stage '{stage}' has no source"):
        PipelineConfig.from_dict(data)


def test_config_names_two_sources_before_a_missing_one():
    data = {"inputs": {"subquery_runs": "r"}, "endpoints": {"retriever": "http://r"}}
    with pytest.raises(ValidationError, match="stage 'retrieve' has two sources"):
        PipelineConfig.from_dict(data)


def test_config_takes_queries_with_a_decomposer_and_a_run_file_with_no_retriever():
    config = PipelineConfig.from_dict(
        {"inputs": {"queries": "q", "subquery_runs": "r"}, "endpoints": {"decomposer": "http://d"}}
    )
    assert config.inputs == {"queries": Path("q"), "subquery_runs": Path("r")}


def test_config_rejects_an_unknown_input_given_directly():
    with pytest.raises(ValidationError, match="rerank_run"):
        PipelineConfig(strategy=FusionStrategy("rrf", 10), inputs={"rerank_run": Path("r")})


def test_config_load_resolves_inputs_against_the_file(tmp_path):
    config = PipelineConfig.load(FIXTURES / "config.json")
    assert config.inputs == {
        "subquery_map": FIXTURES / "subquery_map.jsonl",
        "subquery_runs": FIXTURES / "subqueries.run",
        "rerank": FIXTURES / "rerank.run",
    }
    path = tmp_path / "config.json"
    inputs = {"queries": str(FIXTURES / "queries.jsonl"), "subquery_runs": "subqueries.run"}
    path.write_text(json.dumps({"inputs": inputs, "endpoints": {"decomposer": "http://d"}}))
    assert PipelineConfig.load(path).inputs == {
        "queries": FIXTURES / "queries.jsonl",
        "subquery_runs": tmp_path / "subqueries.run",
    }


def test_config_load_takes_an_endpoint_from_the_environment(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"inputs": {"queries": "queries.jsonl", "subquery_runs": "subqueries.run"}}))
    monkeypatch.delenv("FUSEKIT_RETRIEVER_URL", raising=False)
    monkeypatch.setenv("FUSEKIT_DECOMPOSER_URL", "http://env-host/decompose")
    assert PipelineConfig.load(path).to_dict()["endpoints"] == {"decomposer": "http://env-host/decompose"}
    # an empty variable sets nothing, which leaves the queries without a decomposer
    monkeypatch.setenv("FUSEKIT_DECOMPOSER_URL", "")
    with pytest.raises(ValidationError, match="stage 'decompose' has no source"):
        PipelineConfig.load(path)


def test_config_load_checks_an_environment_endpoint_like_the_files(monkeypatch):
    monkeypatch.setenv("FUSEKIT_RETRIEVER_URL", "http://env-host/retrieve")
    with pytest.raises(ValidationError, match="inputs.subquery_runs and endpoints.retriever"):
        PipelineConfig.load(FIXTURES / "config.json")


# ---------------------------------------------------------------------------
# run_pipeline on the shipped fixtures
# ---------------------------------------------------------------------------


def fixture_config(endpoints: dict[str, str] | None = None, **inputs: Path) -> PipelineConfig:
    """The shipped fixture config; ``endpoints`` and the keyword inputs, when given, replace its own."""
    config = PipelineConfig.load(FIXTURES / "config.json")
    return replace(config, inputs=inputs or config.inputs, endpoints=endpoints or config.endpoints)


MAP_AND_RUNS = dict(subquery_map=FIXTURES / "subquery_map.jsonl", subquery_runs=FIXTURES / "subqueries.run")


def test_pipeline_emits_stage_files_and_manifest(tmp_path):
    result = run_pipeline(fixture_config(), tmp_path)
    for name in ("subqueries.run", "fused.run", "reranked.run"):
        assert (tmp_path / name).exists()
        assert (tmp_path / name).stat().st_size > 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["strategy"] == {"kind": "rrf", "k": 10}
    assert set(manifest["inputs"]) == {"subquery_map", "subquery_runs", "rerank"}
    for entry in manifest["inputs"].values():
        assert len(entry["sha256"]) == 64
    assert set(result.final.lists) == {"1", "2", "3"}


def test_pipeline_manifest_config_has_no_seeds(tmp_path):
    manifest = run_pipeline(fixture_config(**MAP_AND_RUNS), tmp_path).manifest
    assert manifest["config"] == {
        "strategy": {"kind": "rrf", "k": 10},
        "first_stage_depth": 50,
        "rerank_depth": 5,
        "endpoints": {},
    }


def test_pipeline_rerun_is_byte_identical(tmp_path):
    run_pipeline(fixture_config(), tmp_path / "a")
    run_pipeline(fixture_config(), tmp_path / "b")
    for name in ("subqueries.run", "fused.run", "reranked.run", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_pipeline_manifest_digest_tracks_input_changes(tmp_path):
    src = tmp_path / "inputs"
    src.mkdir()
    for name in ("config.json", "subquery_map.jsonl", "subqueries.run", "rerank.run"):
        (src / name).write_bytes((FIXTURES / name).read_bytes())
    config = PipelineConfig.load(src / "config.json")
    first = run_pipeline(config, tmp_path / "a").manifest
    second = run_pipeline(config, tmp_path / "b").manifest
    assert first == second
    # touching an input changes exactly that digest
    with open(src / "rerank.run", "ab") as fh:
        fh.write(b"3 Q0 v999 99 0.0001 rerank\n")
    third = run_pipeline(config, tmp_path / "c").manifest
    assert third["inputs"]["rerank"]["sha256"] != first["inputs"]["rerank"]["sha256"]
    assert third["inputs"]["subquery_map"] == first["inputs"]["subquery_map"]


def test_pipeline_with_replay_decomposer_and_retriever(tmp_path, stub_server):
    from fusekit.core import parse_run

    # live clients: the stub's "/replay" answers from the decomposer replay file
    endpoints = {"decomposer": f"{stub_server}/replay", "retriever": f"{stub_server}/retrieve"}
    config = fixture_config(endpoints, queries=FIXTURES / "queries.jsonl")
    result = run_pipeline(config, tmp_path)
    # query 3's decomposition is malformed in the replay file -> fallback single probe
    sub_run = parse_run((tmp_path / "subqueries.run").read_bytes())
    assert "3-s000" in sub_run.lists
    assert "3-s001" not in sub_run.lists
    assert set(result.final.lists) == {"1", "2", "3"}
    assert result.manifest["config"]["endpoints"] == endpoints


def test_pipeline_missing_sub_query_list_names_stage_and_query(tmp_path):
    bad_map = tmp_path / "map.jsonl"
    record = {"query_id": "1", "sub_queries": [{"id": "1-s999", "text": "ghost"}]}
    bad_map.write_text(json.dumps(record) + "\n")
    with pytest.raises(PipelineStageError) as excinfo:
        run_pipeline(
            fixture_config(subquery_map=bad_map, subquery_runs=FIXTURES / "subqueries.run"), tmp_path / "out"
        )
    assert excinfo.value.stage == "retrieve"
    assert "1-s999" in str(excinfo.value)


@pytest.mark.parametrize("path", ["/duplicate-hits", "/whitespace-hits"], ids=["duplicate", "whitespace"])
def test_pipeline_names_stage_and_query_of_a_bad_retriever_list(tmp_path, stub_server, path):
    config = fixture_config({"retriever": f"{stub_server}{path}"}, subquery_map=FIXTURES / "subquery_map.jsonl")
    with pytest.raises(PipelineStageError) as excinfo:
        run_pipeline(config, tmp_path)
    assert (excinfo.value.stage, excinfo.value.query_id) == ("retrieve", "1")
    assert isinstance(excinfo.value.cause, ValidationError)


def test_pipeline_does_not_load_the_http_stack_without_a_live_client(tmp_path):
    # the HTTP stack is imported by a live request only, so an offline run stays smaller
    code = f"""
import sys
import fusekit.cli
from fusekit.pipeline import PipelineConfig, run_pipeline
run_pipeline(PipelineConfig.load({str(FIXTURES / "config.json")!r}), {str(tmp_path)!r})
assert "urllib.request" not in sys.modules, "urllib.request was imported"
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "reranked.run").exists()


def test_pipeline_requires_some_input(tmp_path):
    with pytest.raises(ValidationError, match="stage 'decompose' has no source"):
        replace(fixture_config(), inputs={})


def test_pipeline_without_rerank_file_still_emits_three_stages(tmp_path):
    run_pipeline(fixture_config(**MAP_AND_RUNS), tmp_path)
    from fusekit.core import parse_run

    fused = parse_run((tmp_path / "fused.run").read_bytes())
    reranked = parse_run((tmp_path / "reranked.run").read_bytes())
    assert fused.lists == reranked.lists


def test_pipeline_writes_past_a_stale_temp_directory(tmp_path):
    # the old writer always used "<name>.tmp" and failed when that name was taken
    (tmp_path / "fused.run.tmp").mkdir()
    run_pipeline(fixture_config(**MAP_AND_RUNS), tmp_path)
    assert (tmp_path / "fused.run").stat().st_size > 0


def test_pipeline_bad_query_records_name_stage_and_line(tmp_path, stub_server):
    queries = tmp_path / "queries.jsonl"
    queries.write_text('{"query_id": "1", "query": "q"}\n{oops\n')
    config = fixture_config(
        {"decomposer": f"{stub_server}/replay"}, queries=queries, subquery_runs=FIXTURES / "subqueries.run"
    )
    with pytest.raises(PipelineStageError) as excinfo:
        run_pipeline(config, tmp_path / "out")
    assert excinfo.value.stage == "decompose"
    assert excinfo.value.cause.line == 2


@pytest.mark.parametrize(
    "tag, depth, error", [("t", 0, ValueError), ("a b", 10, ValidationError)], ids=["depth", "tag"]
)
@pytest.mark.parametrize("lists", [{}, {"q1": make_list(("d1", 0.5))}], ids=["no-queries", "one-query"])
def test_write_run_file_rejects_a_bad_depth_or_tag_and_keeps_the_old_file(tmp_path, lists, tag, depth, error):
    target = tmp_path / "out.run"
    target.write_bytes(b"old")
    with pytest.raises(error):
        write_run_file(target, RunSet(lists=lists, tag=tag), depth)
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.run"]


def test_pipeline_missing_input_file_is_an_os_error_not_a_stage_error(tmp_path):
    config = PipelineConfig(
        strategy=FusionStrategy("rrf", 60),
        inputs={"subquery_map": tmp_path / "missing.jsonl", "subquery_runs": FIXTURES / "subqueries.run"},
    )
    with pytest.raises(FileNotFoundError):
        run_pipeline(config, tmp_path / "out")
