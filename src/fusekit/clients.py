"""Clients for the external decomposition and retrieval services.

The service contract is deliberately narrow: one JSON payload posted to
an endpoint, one structured response back. Every live client has a replay
twin backed by fixture files so the whole pipeline runs offline.

A retriever returns a checked ``ScoredList`` cut to the asked depth:
``HttpRetriever`` builds it with ``ScoredList.from_pairs`` from all of the
service's hits, so the cut keeps the best ones, and ``ReplayRetriever``
serves the already parsed lists of a run file, which is how the pipeline
reads a per-sub-query run file.

Replies are decoded like files, by ``core._json_value``: one it cannot read
is a malformed decomposition, or a retriever ``TransportError``.

Wire formats:
  decomposer  POST {"query_id", "title", "language", "persona",
                    "background", "query"}  ->  raw text body (expected to
                    be a JSON array of sub-query strings)
  retriever   POST {"query_id", "query", "depth"}  ->  JSON array of
                    {"doc_id": ..., "score": ...}
"""

from __future__ import annotations

import json
import logging
import math
import time

from .core import RunSet, ScoredList, Source, _expect, _json_float, _json_value, load_unique_records, truncate
from .errors import ParseError, TransportError, ValidationError

logger = logging.getLogger(__name__)


class HttpTextClient:
    """POST a JSON payload, return the body.

    Only connect errors, timeouts, resets, 5xx and 429 are retried: they may pass on a later attempt.
    """

    def __init__(self, endpoint: str, retries: int = 3, backoff: float = 0.25, timeout: float = 30.0):
        if retries < 1:
            raise ValidationError("retries must be >= 1")
        self.endpoint = endpoint
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout

    def request(self, payload: dict) -> str:
        # imported here, so only a live request pays the HTTP stack's memory and import time
        import http.client
        import urllib.error
        import urllib.parse
        import urllib.request

        body = json.dumps(payload).encode("utf-8")
        for attempt in range(self.retries):
            try:
                if urllib.parse.urlsplit(self.endpoint).scheme not in ("http", "https"):
                    raise TransportError(f"{self.endpoint} request failed: not an http or https URL")
                request = urllib.request.Request(self.endpoint, body, {"Content-Type": "application/json"})
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    return response.read().decode("utf-8")
            except UnicodeDecodeError as e:
                raise TransportError(f"{self.endpoint} reply is not valid UTF-8: {e}") from None
            except ValueError as e:  # a URL urllib cannot parse or send, e.g. "http://[::1" or a non-ASCII path
                raise TransportError(f"{self.endpoint} request failed: {e}") from None
            except (OSError, http.client.HTTPException) as e:  # URLError and HTTPError are OSErrors
                if isinstance(e, urllib.error.HTTPError) and e.code < 500 and e.code != 429:
                    raise TransportError(f"{self.endpoint} request failed: {e}") from e
                if attempt + 1 == self.retries:
                    raise TransportError(
                        f"{self.endpoint} unreachable after {self.retries} attempts: {e}"
                    ) from e
                delay = self.backoff * (2**attempt)
                logger.warning(
                    "request to %s failed (attempt %d/%d): %s; retrying in %.2fs",
                    self.endpoint, attempt + 1, self.retries, e, delay,
                )
                time.sleep(delay)


class HttpDecomposer:
    def __init__(self, endpoint: str):
        self._client = HttpTextClient(endpoint)

    def decompose_raw(self, record: dict) -> str:
        return self._client.request(record)


class ReplayDecomposer:
    """Fixture decomposer: canned raw responses keyed by query id."""

    def __init__(self, responses: dict[str, str]):
        self.responses = dict(responses)

    @classmethod
    def from_jsonl(cls, data: Source) -> "ReplayDecomposer":
        """Load ``{"query_id", "response"}`` records of strings, one per JSON line and query id."""
        return cls(load_unique_records(data, _replay_entry, "replay"))

    def decompose_raw(self, record: dict) -> str:
        query_id = record.get("query_id")
        if query_id not in self.responses:
            raise TransportError(f"no recorded decomposition for query {query_id!r}")
        return self.responses[query_id]


def _replay_entry(record) -> tuple[str, str]:
    record = _expect(record, dict, "replay record")
    query_id = _expect(record.get("query_id"), str, "'query_id'")
    return query_id, _expect(record.get("response"), str, "'response'")


class HttpRetriever:
    def __init__(self, endpoint: str):
        self._client = HttpTextClient(endpoint)

    def retrieve(self, query_id: str, query_text: str, depth: int) -> ScoredList:
        body = self._client.request({"query_id": query_id, "query": query_text, "depth": depth})
        try:
            hits = _json_value(body)
        except ParseError as e:
            raise TransportError(f"retriever returned {e}") from None
        if not isinstance(hits, list):
            raise TransportError("retriever response must be a JSON array")
        pairs = []
        for hit in hits:
            if not isinstance(hit, dict) or "doc_id" not in hit or "score" not in hit:
                raise TransportError("retriever hits need 'doc_id' and 'score'")
            try:
                score = _json_float(hit["score"])
            except (TypeError, OverflowError):
                score = math.nan
            if not math.isfinite(score):
                raise TransportError(f"retriever hit score must be a finite number, got {hit['score']!r}")
            if not isinstance(hit["doc_id"], str):
                raise TransportError(f"retriever hit doc_id must be a string, got {hit['doc_id']!r}")
            pairs.append((hit["doc_id"], score))
        return truncate(ScoredList.from_pairs(pairs), depth)


class ReplayRetriever:
    """Fixture retriever: ranked lists read from a run file, keyed by sub-query id."""

    def __init__(self, runs: RunSet):
        self.runs = runs

    def retrieve(self, query_id: str, query_text: str, depth: int) -> ScoredList:
        if query_id not in self.runs.lists:
            raise ValidationError(f"no recorded ranked list for sub-query {query_id!r}")
        return truncate(self.runs.lists[query_id], depth)
