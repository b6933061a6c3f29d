from __future__ import annotations

import json
from pathlib import Path

import pytest

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

from conftest import make_list

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
    assert read_query_records(b'{"query_id": "1"}\n\n') == [{"query_id": "1"}]
    for bad in ('{"query_id": "1"}\n["not", "an", "object"]\n', '{"query_id": "1"}\n{oops\n'):
        with pytest.raises(ParseError) as excinfo:
            read_query_records(bad)
        assert excinfo.value.line == 2


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
        seeds=(1, 2),
        endpoints={"decomposer": "http://example/d"},
    )
    assert PipelineConfig.from_dict(config.to_dict()) == config


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
    ],
)
def test_config_rejects_values_of_the_wrong_type(data, key):
    with pytest.raises(ValidationError, match=f"{key} must"):
        PipelineConfig.from_dict(data)


def test_config_rejects_non_object():
    with pytest.raises(ValidationError):
        PipelineConfig.from_dict([])
    with pytest.raises(ValidationError):
        PipelineConfig.from_dict({"strategy": "rrf"})


# ---------------------------------------------------------------------------
# run_pipeline on the shipped fixtures
# ---------------------------------------------------------------------------


def fixture_config() -> PipelineConfig:
    return PipelineConfig.from_dict(json.loads((FIXTURES / "config.json").read_text()))


def test_pipeline_emits_stage_files_and_manifest(tmp_path):
    result = run_pipeline(
        fixture_config(),
        tmp_path,
        subquery_map_path=FIXTURES / "subquery_map.jsonl",
        subquery_runs_path=FIXTURES / "subqueries.run",
        rerank_path=FIXTURES / "rerank.run",
    )
    for name in ("subqueries.run", "fused.run", "reranked.run"):
        assert (tmp_path / name).exists()
        assert (tmp_path / name).stat().st_size > 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["strategy"] == {"kind": "rrf", "k": 10}
    assert set(manifest["inputs"]) == {"subquery_map", "subquery_runs", "rerank"}
    for entry in manifest["inputs"].values():
        assert len(entry["sha256"]) == 64
    assert set(result.final.lists) == {"1", "2", "3"}


def test_pipeline_manifest_lists_seeds_once(tmp_path):
    manifest = run_pipeline(
        fixture_config(),
        tmp_path,
        subquery_map_path=FIXTURES / "subquery_map.jsonl",
        subquery_runs_path=FIXTURES / "subqueries.run",
    ).manifest
    assert "seeds" not in manifest
    assert manifest["config"]["seeds"] == [0, 1, 2, 3, 4]


def test_pipeline_rerun_is_byte_identical(tmp_path):
    kwargs = dict(
        subquery_map_path=FIXTURES / "subquery_map.jsonl",
        subquery_runs_path=FIXTURES / "subqueries.run",
        rerank_path=FIXTURES / "rerank.run",
    )
    run_pipeline(fixture_config(), tmp_path / "a", **kwargs)
    run_pipeline(fixture_config(), tmp_path / "b", **kwargs)
    for name in ("subqueries.run", "fused.run", "reranked.run", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_pipeline_manifest_digest_tracks_input_changes(tmp_path):
    src = tmp_path / "inputs"
    src.mkdir()
    for name in ("subquery_map.jsonl", "subqueries.run", "rerank.run"):
        (src / name).write_bytes((FIXTURES / name).read_bytes())
    kwargs = dict(
        subquery_map_path=src / "subquery_map.jsonl",
        subquery_runs_path=src / "subqueries.run",
        rerank_path=src / "rerank.run",
    )
    first = run_pipeline(fixture_config(), tmp_path / "a", **kwargs).manifest
    second = run_pipeline(fixture_config(), tmp_path / "b", **kwargs).manifest
    assert first == second
    # touching an input changes exactly that digest
    with open(src / "rerank.run", "ab") as fh:
        fh.write(b"3 Q0 v999 99 0.0001 rerank\n")
    third = run_pipeline(fixture_config(), tmp_path / "c", **kwargs).manifest
    assert third["inputs"]["rerank"]["sha256"] != first["inputs"]["rerank"]["sha256"]
    assert third["inputs"]["subquery_map"] == first["inputs"]["subquery_map"]


def test_pipeline_with_replay_decomposer_and_retriever(tmp_path):
    from fusekit.core import parse_run

    replay = ReplayDecomposer.from_jsonl((FIXTURES / "decomposer_replay.jsonl").read_bytes())
    # retriever keyed by generated sub-query ids: reuse fixture lists by position
    raw = parse_run((FIXTURES / "subqueries.run").read_bytes())

    class PositionalRetriever:
        def retrieve(self, sub_id, text, depth):
            qid, _, pos = sub_id.partition("-s")
            fixture_id = f"{qid}-s{int(pos):03d}"
            if fixture_id in raw.lists:
                return list(raw.lists[fixture_id].entries[:depth])
            return [(f"v{int(pos):03d}", 0.5)]

    result = run_pipeline(
        fixture_config(),
        tmp_path,
        queries_path=FIXTURES / "queries.jsonl",
        decomposer=replay,
        retriever=PositionalRetriever(),
    )
    # query 3's decomposition is malformed in the replay file -> fallback single probe
    sub_run = parse_run((tmp_path / "subqueries.run").read_bytes())
    assert "3-s000" in sub_run.lists
    assert "3-s001" not in sub_run.lists
    assert set(result.final.lists) == {"1", "2", "3"}


def test_pipeline_missing_sub_query_list_names_stage_and_query(tmp_path):
    bad_map = tmp_path / "map.jsonl"
    record = {"query_id": "1", "sub_queries": [{"id": "1-s999", "text": "ghost"}]}
    bad_map.write_text(json.dumps(record) + "\n")
    with pytest.raises(PipelineStageError) as excinfo:
        run_pipeline(
            fixture_config(),
            tmp_path / "out",
            subquery_map_path=bad_map,
            subquery_runs_path=FIXTURES / "subqueries.run",
        )
    assert excinfo.value.stage == "retrieve"
    assert "1-s999" in str(excinfo.value)


def test_pipeline_requires_some_input(tmp_path):
    with pytest.raises(ValidationError):
        run_pipeline(fixture_config(), tmp_path)


def test_pipeline_without_rerank_file_still_emits_three_stages(tmp_path):
    run_pipeline(
        fixture_config(),
        tmp_path,
        subquery_map_path=FIXTURES / "subquery_map.jsonl",
        subquery_runs_path=FIXTURES / "subqueries.run",
    )
    from fusekit.core import parse_run

    fused = parse_run((tmp_path / "fused.run").read_bytes())
    reranked = parse_run((tmp_path / "reranked.run").read_bytes())
    assert fused.lists == reranked.lists


def test_pipeline_writes_past_a_stale_temp_directory(tmp_path):
    # the old writer always used "<name>.tmp" and failed when that name was taken
    (tmp_path / "fused.run.tmp").mkdir()
    run_pipeline(
        fixture_config(),
        tmp_path,
        subquery_map_path=FIXTURES / "subquery_map.jsonl",
        subquery_runs_path=FIXTURES / "subqueries.run",
    )
    assert (tmp_path / "fused.run").stat().st_size > 0


def test_pipeline_bad_query_records_name_stage_and_line(tmp_path):
    queries = tmp_path / "queries.jsonl"
    queries.write_text('{"query_id": "1", "query": "q"}\n{oops\n')
    with pytest.raises(PipelineStageError) as excinfo:
        run_pipeline(
            fixture_config(),
            tmp_path / "out",
            queries_path=queries,
            decomposer=ReplayDecomposer({}),
            retriever=None,
        )
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
    config = PipelineConfig(strategy=FusionStrategy("rrf", 60))
    with pytest.raises(FileNotFoundError):
        run_pipeline(config, tmp_path / "out", subquery_map_path=tmp_path / "missing.jsonl")
