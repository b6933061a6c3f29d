"""Clients for the external decomposition and retrieval services.

The service contract is deliberately narrow: one JSON payload posted to
an endpoint, one structured response back. Every live client has a replay
twin backed by fixture files so the whole pipeline runs offline.

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

import requests

from .core import RunSet, Source, iter_jsonl, truncate
from .errors import ParseError, TransportError, ValidationError

logger = logging.getLogger(__name__)


def _retryable(error: requests.RequestException) -> bool:
    """Connect errors, timeouts, 5xx and 429 may pass on a later attempt; others will not."""
    if isinstance(error, requests.HTTPError):
        status = error.response.status_code
        return status >= 500 or status == 429
    return isinstance(error, (requests.ConnectionError, requests.Timeout))


class HttpTextClient:
    """POST a JSON payload, return the body; only ``_retryable`` failures are retried."""

    def __init__(self, endpoint: str, retries: int = 3, backoff: float = 0.25, timeout: float = 30.0):
        if retries < 1:
            raise ValueError("retries must be >= 1")
        self.endpoint = endpoint
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout

    def request(self, payload: dict) -> str:
        for attempt in range(self.retries):
            try:
                response = requests.post(self.endpoint, json=payload, timeout=self.timeout)
                response.raise_for_status()
                return response.text
            except requests.RequestException as e:
                if not _retryable(e):
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
    def __init__(self, endpoint: str, **kwargs):
        self._client = HttpTextClient(endpoint, **kwargs)

    def decompose_raw(self, record: dict) -> str:
        return self._client.request(record)


class ReplayDecomposer:
    """Fixture decomposer: canned raw responses keyed by query id."""

    def __init__(self, responses: dict[str, str]):
        self.responses = dict(responses)

    @classmethod
    def from_jsonl(cls, data: Source) -> "ReplayDecomposer":
        """Load ``{"query_id", "response"}`` records, one per JSON line."""
        responses = {}
        for line_no, record in iter_jsonl(data):
            if not isinstance(record, dict) or "query_id" not in record or "response" not in record:
                raise ParseError(
                    "replay record must be an object with 'query_id' and 'response'", line=line_no
                )
            responses[record["query_id"]] = record["response"]
        return cls(responses)

    def decompose_raw(self, record: dict) -> str:
        query_id = record.get("query_id")
        if query_id not in self.responses:
            raise TransportError(f"no recorded decomposition for query {query_id!r}")
        return self.responses[query_id]


class HttpRetriever:
    def __init__(self, endpoint: str, **kwargs):
        self._client = HttpTextClient(endpoint, **kwargs)

    def retrieve(self, query_id: str, query_text: str, depth: int) -> list[tuple[str, float]]:
        body = self._client.request({"query_id": query_id, "query": query_text, "depth": depth})
        try:
            hits = json.loads(body)
        except json.JSONDecodeError as e:
            raise TransportError(f"retriever returned invalid JSON: {e.msg}") from None
        if not isinstance(hits, list):
            raise TransportError("retriever response must be a JSON array")
        pairs = []
        for hit in hits[:depth]:
            if not isinstance(hit, dict) or "doc_id" not in hit or "score" not in hit:
                raise TransportError("retriever hits need 'doc_id' and 'score'")
            try:
                score = float(hit["score"])
            except (TypeError, ValueError, OverflowError):
                score = math.nan
            if not math.isfinite(score):
                raise TransportError(f"retriever hit score must be a finite number, got {hit['score']!r}")
            pairs.append((str(hit["doc_id"]), score))
        return pairs


class ReplayRetriever:
    """Fixture retriever: ranked lists read from a run file, keyed by sub-query id."""

    def __init__(self, runs: RunSet):
        self.runs = runs

    def retrieve(self, query_id: str, query_text: str, depth: int) -> list[tuple[str, float]]:
        if query_id not in self.runs.lists:
            raise ValidationError(f"no recorded ranked list for sub-query {query_id!r}")
        return list(truncate(self.runs.lists[query_id], depth))
