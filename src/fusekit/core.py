"""Canonical data model and file I/O for ranked retrieval results.

Covers ranked lists and run files (TREC 6-column format), relevance
judgments (qrels), and the sub-query map that ties each original query to
its expansion. Ranks are always recomputed from score order: input rank
columns are never trusted, and score ties are broken by ascending doc id
so every downstream computation is deterministic.

Formats:
  run file:      ``qid Q0 docid rank score tag`` (whitespace-delimited, UTF-8)
  qrels file:    ``qid 0 docid grade``
  sub-query map: JSON lines, one object per query:
                 ``{"query_id": ..., "sub_queries": [{"id": ..., "text": ...}]}``
"""

from __future__ import annotations

import json
import math
import os
import secrets
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import ParseError, ValidationError

QueryId = str
DocId = str


def _check_token(value: str, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{what} must be a non-empty string, got {value!r}")
    if any(ch.isspace() for ch in value):
        raise ValidationError(f"{what} must not contain whitespace: {value!r}")
    return value


def _decode(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not valid UTF-8: {e}") from e


def iter_jsonl(data: bytes | str) -> Iterator[tuple[int, object]]:
    """Yield ``(line_no, value)`` per non-blank JSON line; bad JSON raises ParseError(line=...)."""
    for line_no, raw in enumerate(_decode(data).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", line=line_no) from None
        yield line_no, value


def atomic_write(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data``: readers see the old file or the new one.

    The bytes go to a uniquely named temp file beside the target, created
    exclusively and with the mode a plain write gives, are fsynced, and are
    renamed over the target; the temp file is removed if any step fails.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "xb")  # outside the try: a failed open must not unlink a file it did not create
    try:
        with fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class ScoredList:
    """One query's ranked (doc id, score) sequence.

    Entries are ordered by non-increasing score; the rank of entry ``i``
    is ``i + 1``. Doc ids are unique within a list.

    ``ScoredList(entries)`` and ``from_pairs`` validate every entry; use
    them for data from outside the library. ``_trusted`` and
    ``_trusted_sorted`` are internal and check nothing: they build the
    lists the library derives from data it has already validated (parsed
    runs, truncations, fused and reranked lists).
    """

    entries: tuple[tuple[DocId, float], ...] = ()

    def __post_init__(self):
        entries = tuple((doc, float(score)) for doc, score in self.entries)
        object.__setattr__(self, "entries", entries)
        seen: set[str] = set()
        prev = None
        for doc, score in entries:
            _check_token(doc, "doc id")
            if doc in seen:
                raise ValidationError(f"duplicate doc id {doc!r} in scored list")
            seen.add(doc)
            if prev is not None and score > prev:
                raise ValidationError(
                    f"scores must be non-increasing: {score} follows {prev}"
                )
            prev = score

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[DocId, float]]) -> "ScoredList":
        """Build the canonical list: score descending, doc id ascending on ties."""
        ordered = sorted(pairs, key=lambda p: (-float(p[1]), p[0]))
        return cls(tuple(ordered))

    @classmethod
    def _trusted(cls, entries: tuple[tuple[DocId, float], ...]) -> "ScoredList":
        """Wrap a tuple of ``(doc id, float)`` tuples that already meets every invariant."""
        ranking = object.__new__(cls)
        object.__setattr__(ranking, "entries", entries)
        return ranking

    @classmethod
    def _trusted_sorted(cls, pairs: Iterable[tuple[DocId, float]]) -> "ScoredList":
        """The canonical order of ``(doc id, float)`` pairs with unique, valid doc ids."""
        ordered = sorted(pairs, key=itemgetter(0))
        # the sort is stable, so docs with equal scores stay in ascending id order
        ordered.sort(key=itemgetter(1), reverse=True)
        return cls._trusted(tuple(ordered))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[DocId, float]]:
        return iter(self.entries)

    def docs(self) -> tuple[DocId, ...]:
        return tuple(doc for doc, _ in self.entries)

    def ranks(self) -> dict[DocId, int]:
        """Doc id -> 1-based rank."""
        return {doc: i + 1 for i, (doc, _) in enumerate(self.entries)}

    def scores(self) -> dict[DocId, float]:
        return {doc: score for doc, score in self.entries}


def truncate(ranking: ScoredList, depth: int) -> ScoredList:
    """First ``min(depth, len)`` entries, order preserved. Idempotent."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return ScoredList._trusted(ranking.entries[:depth])


@dataclass(frozen=True)
class RunSet:
    """Per-query ranked lists plus the run's tag."""

    lists: dict[QueryId, ScoredList] = field(default_factory=dict)
    tag: str = "run"

    def __post_init__(self):
        for qid in self.lists:
            _check_token(qid, "query id")

    def queries(self) -> list[QueryId]:
        return sorted(self.lists)


def parse_run(data: bytes | str) -> RunSet:
    """Parse a TREC-style run file.

    The rank column is ignored; per-query lists are rebuilt by descending
    score with doc-id ascending tie-break. Duplicate (qid, docid) pairs are
    rejected.
    """
    text = _decode(data)
    # str.split() separates on exactly the characters str.isspace() accepts, so every
    # field is a valid token; with finite scores and unique docs the lists need no re-check
    per_query: dict[str, dict[str, float]] = {}
    tag = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise ParseError(
                f"expected 6 fields 'qid Q0 docid rank score tag', got {len(parts)}",
                line=line_no,
            )
        qid, _, docid, _, score_str, line_tag = parts
        try:
            score = float(score_str)
        except ValueError:
            raise ParseError(f"non-numeric score {score_str!r}", line=line_no) from None
        if not math.isfinite(score):
            raise ParseError(f"non-finite score {score_str!r}", line=line_no)
        scores = per_query.get(qid)
        if scores is None:
            scores = per_query[qid] = {}
        elif docid in scores:
            raise ValidationError(f"duplicate entry for query {qid!r}, doc {docid!r}")
        scores[docid] = score
        if tag is None:
            tag = line_tag
    lists = {qid: ScoredList._trusted_sorted(scores.items()) for qid, scores in per_query.items()}
    return RunSet(lists=lists, tag=tag if tag is not None else "run")


def write_run(run: RunSet, depth: int) -> bytes:
    """Serialize a run, at most ``depth`` entries per query, in rank order.

    Scores are written with ``repr`` so a parse round-trip reproduces them
    exactly. Queries are emitted in ascending id order.
    """
    if depth < 1:
        raise ValueError(f"depth must be a positive integer, got {depth}")
    _check_token(run.tag, "run tag")
    lines = []
    for qid in run.queries():
        for rank, (doc, score) in enumerate(run.lists[qid].entries[:depth], start=1):
            lines.append(f"{qid} Q0 {doc} {rank} {score!r} {run.tag}\n")
    return "".join(lines).encode("utf-8")


@dataclass(frozen=True)
class Qrels:
    """Graded relevance judgments keyed by (query id, doc id).

    ``Qrels(judgments)`` validates every key and grade; use it for data
    from outside the library. ``_trusted`` is internal and checks nothing:
    ``parse_qrels`` uses it after checking each line itself.
    """

    judgments: dict[tuple[QueryId, DocId], int] = field(default_factory=dict)

    def __post_init__(self):
        by_query: dict[str, dict[str, int]] = {}
        for (qid, docid), grade in self.judgments.items():
            _check_token(qid, "query id")
            _check_token(docid, "doc id")
            if not isinstance(grade, int) or grade < 0:
                raise ValidationError(
                    f"relevance grade must be a non-negative integer, got {grade!r}"
                )
            by_query.setdefault(qid, {})[docid] = grade
        object.__setattr__(self, "_by_query", by_query)

    @classmethod
    def _trusted(
        cls,
        judgments: dict[tuple[QueryId, DocId], int],
        by_query: dict[QueryId, dict[DocId, int]],
    ) -> "Qrels":
        """Wrap valid judgments and the same judgments grouped by query."""
        qrels = object.__new__(cls)
        object.__setattr__(qrels, "judgments", judgments)
        object.__setattr__(qrels, "_by_query", by_query)
        return qrels

    def queries(self) -> set[QueryId]:
        return set(self._by_query)

    def for_query(self, qid: QueryId) -> dict[DocId, int]:
        return dict(self._by_query.get(qid, {}))

    def grade(self, qid: QueryId, docid: DocId) -> int:
        """Judged grade, or 0 for unjudged documents."""
        return self._by_query.get(qid, {}).get(docid, 0)

    def relevant_docs(self, qid: QueryId) -> set[DocId]:
        return {d for d, g in self._by_query.get(qid, {}).items() if g > 0}


def parse_qrels(data: bytes | str) -> Qrels:
    """Parse ``qid 0 docid grade`` lines; grade-0 lines are retained."""
    text = _decode(data)
    judgments: dict[tuple[str, str], int] = {}
    by_query: dict[str, dict[str, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ParseError(
                f"expected 4 fields 'qid 0 docid grade', got {len(parts)}",
                line=line_no,
            )
        qid, _, docid, grade_str = parts
        try:
            grade = int(grade_str)
        except ValueError:
            raise ParseError(f"non-integer grade {grade_str!r}", line=line_no) from None
        if grade < 0:
            raise ParseError(f"negative grade {grade}", line=line_no)
        if (qid, docid) in judgments:
            raise ValidationError(f"duplicate judgment for query {qid!r}, doc {docid!r}")
        judgments[(qid, docid)] = grade
        by_query.setdefault(qid, {})[docid] = grade
    # tokens come from str.split() and grades are checked above, as Qrels() would
    return Qrels._trusted(judgments, by_query)


def write_qrels(qrels: Qrels) -> bytes:
    lines = [
        f"{qid} 0 {docid} {grade}\n"
        for (qid, docid), grade in sorted(qrels.judgments.items())
    ]
    return "".join(lines).encode("utf-8")


@dataclass(frozen=True)
class SubQueryMap:
    """Ordered sub-queries per original query.

    Sub-query ids are globally unique tokens; every group is non-empty.
    """

    groups: dict[QueryId, tuple[tuple[QueryId, str], ...]] = field(default_factory=dict)

    def __post_init__(self):
        groups = {qid: tuple(subs) for qid, subs in self.groups.items()}
        object.__setattr__(self, "groups", groups)
        seen_sub: set[str] = set()
        for qid, subs in groups.items():
            _check_token(qid, "query id")
            if not subs:
                raise ValidationError(f"query {qid!r} has an empty sub-query group")
            for sub_id, text in subs:
                _check_token(sub_id, "sub-query id")
                if not isinstance(text, str):
                    raise ValidationError(f"sub-query {sub_id!r} text must be a string")
                if sub_id in seen_sub:
                    raise ValidationError(f"sub-query id {sub_id!r} appears twice")
                seen_sub.add(sub_id)

    def group_sizes(self) -> list[int]:
        return [len(subs) for subs in self.groups.values()]

    def total_sub_queries(self) -> int:
        return sum(self.group_sizes())

    def sub_query_ids(self, qid: QueryId) -> list[QueryId]:
        return [sub_id for sub_id, _ in self.groups[qid]]


def parse_subquery_map(data: bytes | str) -> SubQueryMap:
    """Parse the JSON-lines sub-query map, preserving sub-query order."""
    groups: dict[str, tuple[tuple[str, str], ...]] = {}
    for line_no, record in iter_jsonl(data):
        if not isinstance(record, dict) or "query_id" not in record or "sub_queries" not in record:
            raise ParseError(
                "record must be an object with 'query_id' and 'sub_queries'",
                line=line_no,
            )
        qid = record["query_id"]
        subs = record["sub_queries"]
        if not isinstance(subs, list):
            raise ParseError("'sub_queries' must be an array", line=line_no)
        if qid in groups:
            raise ValidationError(f"query {qid!r} appears in two map records")
        entries = []
        for sub in subs:
            if not isinstance(sub, dict) or "id" not in sub or "text" not in sub:
                raise ParseError(
                    "each sub-query needs 'id' and 'text'", line=line_no
                )
            entries.append((sub["id"], sub["text"]))
        groups[qid] = tuple(entries)
    return SubQueryMap(groups)


def write_subquery_map(mapping: SubQueryMap) -> bytes:
    lines = []
    for qid, subs in mapping.groups.items():
        record = {
            "query_id": qid,
            "sub_queries": [{"id": sub_id, "text": text} for sub_id, text in subs],
        }
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    return "".join(lines).encode("utf-8")


class ExpansionStats(NamedTuple):
    """Sub-query expansion statistics over a map's groups."""

    count: int
    min_size: int
    mean_size: float
    max_size: int

    def formatted(self) -> str:
        return (
            f"total {self.count} / min {self.min_size} / "
            f"avg {self.mean_size:.2f} / max {self.max_size}"
        )


def expansion_stats(mapping: SubQueryMap) -> ExpansionStats:
    """Total sub-query count plus min/mean/max group size (mean shown at 2 dp)."""
    sizes = mapping.group_sizes()
    if not sizes:
        raise ValueError("expansion stats require a non-empty sub-query map")
    return ExpansionStats(
        count=sum(sizes),
        min_size=min(sizes),
        mean_size=sum(sizes) / len(sizes),
        max_size=max(sizes),
    )
