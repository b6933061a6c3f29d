from __future__ import annotations

import json

import pytest

from fusekit import ParseError, ScoredList, RunSet, TransportError
from fusekit.clients import (
    HttpDecomposer,
    HttpRetriever,
    HttpTextClient,
    ReplayDecomposer,
    ReplayRetriever,
)

from conftest import DEEP_JSON, LONG_INT_JSON, StubHandler


def test_http_decomposer_round_trip(stub_server):
    client = HttpDecomposer(f"{stub_server}/decompose")
    raw = client.decompose_raw({"query_id": "1", "query": "storm damage"})
    assert json.loads(raw) == ["storm damage facet 0", "storm damage facet 1", "storm damage facet 2"]


def test_http_retriever_round_trip(stub_server):
    client = HttpRetriever(f"{stub_server}/retrieve")
    hits = client.retrieve("s1", "storm damage", 4)
    assert hits.entries[0] == ("v0", 1.0)
    assert len(hits) == 4


def test_http_client_retries_then_succeeds(stub_server):
    StubHandler.failures_left = 2
    client = HttpTextClient(f"{stub_server}/flaky", retries=3, backoff=0.01)
    body = client.request({"query": "x"})
    assert json.loads(body)
    assert StubHandler.failures_left == 0


def test_http_client_gives_up_after_retries(stub_server):
    StubHandler.failures_left = 99
    client = HttpTextClient(f"{stub_server}/flaky", retries=2, backoff=0.01)
    with pytest.raises(TransportError):
        client.request({"query": "x"})
    StubHandler.failures_left = 0


def test_http_client_does_not_retry_client_errors(stub_server):
    StubHandler.posts = 0
    client = HttpTextClient(f"{stub_server}/missing", retries=3, backoff=0.01)
    with pytest.raises(TransportError, match="404"):
        client.request({"query": "x"})
    assert StubHandler.posts == 1


def test_http_client_rejects_a_reply_that_is_not_utf8(stub_server):
    StubHandler.posts = 0
    client = HttpTextClient(f"{stub_server}/latin1", retries=3, backoff=0.01)
    with pytest.raises(TransportError, match="not valid UTF-8"):
        client.request({"query": "x"})
    assert StubHandler.posts == 1


@pytest.mark.parametrize(
    "endpoint", ["file:///etc/hostname", "127.0.0.1:9/none", "", "http://[::1", "http://127.0.0.1:9/\u00e9"]
)
def test_http_client_rejects_an_endpoint_that_is_not_http(endpoint):
    with pytest.raises(TransportError, match="request failed"):
        HttpTextClient(endpoint, retries=1).request({})


def test_http_client_unreachable_endpoint():
    client = HttpTextClient("http://127.0.0.1:9/none", retries=2, backoff=0.01, timeout=0.5)
    with pytest.raises(TransportError):
        client.request({})


def test_http_retriever_rejects_garbage(stub_server):
    # "/deep" and "/long-int" send JSON that json.loads itself cannot read
    for path in ("/garbage", "/deep", "/long-int"):
        client = HttpRetriever(f"{stub_server}{path}")
        with pytest.raises(TransportError, match="retriever returned invalid JSON"):
            client.retrieve("s1", "anything", 3)


@pytest.mark.parametrize(
    "body", ['[{"doc_id": "v0", "score": NaN}]', '[{"doc_id": "v0", "score": -Infinity}]',
             '[{"doc_id": "v0", "score": "high"}]', '[{"doc_id": "v0", "score": null}]']
)
def test_http_retriever_rejects_non_finite_or_non_numeric_score(body):
    client = HttpRetriever("http://127.0.0.1:9/unused")
    client._client.request = lambda payload: body
    with pytest.raises(TransportError, match="finite number"):
        client.retrieve("s1", "anything", 3)


@pytest.mark.parametrize("score", ['"0.9"', "true", "1" + "0" * 400])
def test_http_retriever_takes_only_json_numbers_as_scores(score):
    client = HttpRetriever("http://127.0.0.1:9/unused")
    client._client.request = lambda payload: '[{"doc_id": "v0", "score": %s}]' % score
    with pytest.raises(TransportError, match="finite number"):
        client.retrieve("s1", "anything", 3)


@pytest.mark.parametrize("score", [DEEP_JSON, LONG_INT_JSON], ids=["deep", "long-int"])
def test_http_retriever_rejects_a_score_json_cannot_read(score):
    client = HttpRetriever("http://127.0.0.1:9/unused")
    client._client.request = lambda payload: '[{"doc_id": "v0", "score": %s}]' % score
    with pytest.raises(TransportError, match="retriever returned invalid JSON"):
        client.retrieve("s1", "anything", 3)


@pytest.mark.parametrize("doc_id", ["7", "null", '["v0"]'])
def test_http_retriever_rejects_a_doc_id_that_is_not_a_string(doc_id):
    client = HttpRetriever("http://127.0.0.1:9/unused")
    client._client.request = lambda payload: '[{"doc_id": %s, "score": 0.5}]' % doc_id
    with pytest.raises(TransportError, match="doc_id must be a string"):
        client.retrieve("s1", "anything", 3)


def test_http_retriever_sorts_the_hits_before_the_depth_cut():
    # the best hit comes last in the reply; cutting before sorting would keep v0
    client = HttpRetriever("http://127.0.0.1:9/unused")
    client._client.request = lambda payload: '[{"doc_id": "v0", "score": 0.1}, {"doc_id": "v1", "score": 0.9}]'
    assert client.retrieve("s1", "anything", 1).entries == (("v1", 0.9),)
    replay = ReplayRetriever(RunSet({"s1": ScoredList.from_pairs([("v0", 0.1), ("v1", 0.9)])}))
    assert replay.retrieve("s1", "anything", 1).entries == (("v1", 0.9),)


def test_replay_decomposer_from_jsonl():
    data = json.dumps({"query_id": "1", "response": "[\"a\", \"b\"]"})
    replay = ReplayDecomposer.from_jsonl(data)
    assert replay.decompose_raw({"query_id": "1"}) == '["a", "b"]'
    with pytest.raises(TransportError):
        replay.decompose_raw({"query_id": "2"})


def test_replay_retriever_reads_run():
    runs = RunSet(lists={"s1": ScoredList((("vA", 0.9), ("vB", 0.5)))}, tag="t")
    replay = ReplayRetriever(runs)
    assert replay.retrieve("s1", "ignored", 1).entries == (("vA", 0.9),)


@pytest.mark.parametrize(
    "line", ['{"query_id": "1", "response": "[]"', '{"query_id": "1"}', '["1", "[]"]']
)
def test_replay_decomposer_bad_record_reports_line(line):
    data = json.dumps({"query_id": "0", "response": "[]"}) + "\n\n" + line + "\n"
    with pytest.raises(ParseError) as excinfo:
        ReplayDecomposer.from_jsonl(data)
    assert excinfo.value.line == 3


def test_replay_decomposer_rejects_a_repeated_query_id():
    data = "".join(json.dumps({"query_id": "1", "response": r}) + "\n" for r in ('["a"]', '["b"]'))
    with pytest.raises(ParseError, match="query '1' appears in two replay records") as excinfo:
        ReplayDecomposer.from_jsonl(data)
    assert excinfo.value.line == 2


@pytest.mark.parametrize(
    "line", ['{"query_id": ["1"], "response": "[]"}', '{"query_id": 1, "response": "[]"}',
             '{"query_id": "1", "response": ["a"]}', '{"query_id": "1", "response": null}']
)
def test_replay_decomposer_rejects_records_that_are_not_strings(line):
    data = json.dumps({"query_id": "0", "response": "[]"}) + "\n" + line + "\n"
    with pytest.raises(ParseError, match="must be a JSON string") as excinfo:
        ReplayDecomposer.from_jsonl(data)
    assert excinfo.value.line == 2
