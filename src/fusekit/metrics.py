"""Ranking quality metrics and comparison reports.

nDCG@k uses exponential gain (2^grade - 1) with a log2(i + 1) discount,
the default of the community trec-eval family; recall@k counts judged
relevant (grade > 0) documents. Queries without any relevant document
score 0 and are included in means unless explicitly excluded.

Reports render as aligned plain text and as flat records (one row per
query x metric) for machine consumption. Percentage deltas between two
reports follow the convention of the comparison tables: a delta is
undefined (rendered N/A) when the metric is unchanged or the baseline is
non-positive.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Iterator

from .core import Qrels, QueryId, RunSet, ScoredList, _expect, _is_json, _loads, from_json_object, json_record
from .errors import ValidationError

logger = logging.getLogger(__name__)

METRIC_DISPLAY_DECIMALS = 3
DELTA_DISPLAY_DECIMALS = 2


@dataclass(frozen=True)
class Cutoffs:
    """Strictly increasing rank cutoffs, e.g. (10, 20, 100)."""

    values: tuple[int, ...] = (10, 20, 100)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValidationError("cutoffs must be non-empty")
        prev = 0
        for v in self.values:
            if not _is_json(v, int) or v <= prev:
                raise ValidationError(
                    f"cutoffs must be strictly increasing positive integers, got {self.values}"
                )
            prev = v

    def metric_names(self) -> list[str]:
        return [f"nDCG@{k}" for k in self.values] + [f"R@{k}" for k in self.values]


DEFAULT_CUTOFFS = Cutoffs((10, 20, 100))


def ndcg_at_k(ranking: ScoredList, qrels: Qrels, query: QueryId, k: int) -> float:
    """Normalized DCG at cutoff k; 0.0 when the query has no relevant docs."""
    _check_cutoff(k)
    return _query_metrics(query, ranking, qrels.for_query(query), (k,))[0][0]


def recall_at_k(ranking: ScoredList, qrels: Qrels, query: QueryId, k: int) -> float:
    """Fraction of the query's relevant docs found in the top k."""
    _check_cutoff(k)
    return _query_metrics(query, ranking, qrels.for_query(query), (k,))[1][0]


def _check_cutoff(k: int) -> None:
    if k < 1:
        raise ValidationError(f"cutoff must be >= 1, got {k}")


def _query_metrics(
    query: QueryId, ranking: ScoredList, judged: dict[str, int], cutoffs: tuple[int, ...]
) -> tuple[list[float], list[float]]:
    """nDCG and recall at each cutoff from one pass over the judgments and top ranks.

    The DCG terms are built once up to the largest cutoff; each cutoff sums
    its prefix with ``math.fsum``, the same terms a per-cutoff sum would use.
    Grades whose gains exceed the float range are a ValidationError naming the query.
    """
    depth = max(cutoffs)
    try:
        ideal = _dcg_terms(sorted(judged.values(), reverse=True)[:depth])
        top = ranking._docs[:depth]
        gains = _dcg_terms([judged.get(doc, 0) for doc in top])
        relevant = {doc for doc, grade in judged.items() if grade > 0}
        # hits[k] = relevant docs among the top k
        hits = [0]
        for doc in top:
            hits.append(hits[-1] + (doc in relevant))
        ndcg, recall = [], []
        for k in cutoffs:
            idcg = math.fsum(ideal[:k])
            ndcg.append(0.0 if idcg == 0.0 else math.fsum(gains[:k]) / idcg)
            recall.append(hits[min(k, len(top))] / len(relevant) if relevant else 0.0)
        return ndcg, recall
    except OverflowError:
        raise ValidationError(f"query {query!r}: its DCG exceeds the float range") from None


def _dcg_terms(grades: list[int]) -> list[float]:
    # a float power overflows at once for g >= 1024, where the exact 2**g would be built first;
    # below that the two give the same double
    return [(2.0**g - 1) / math.log2(i + 2) for i, g in enumerate(grades)]


@json_record
@dataclass(frozen=True)
class EvalReport:
    """Per-query metric values plus their arithmetic means.

    ``per_query`` may be empty for externally supplied summary reports
    (e.g. result tables from other systems); when it is non-empty the aggregate must
    equal the per-query mean exactly.
    """

    per_query: dict[QueryId, dict[str, float]] = field(default_factory=dict)
    aggregate: dict[str, float] = field(default_factory=dict)
    tag: str = "run"

    def __post_init__(self):
        per_query = _expect(self.per_query, dict, "per_query", item=dict)
        for metrics in list(per_query.values()) + [_expect(self.aggregate, dict, "aggregate")]:
            for name, value in metrics.items():
                if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
                    raise ValidationError(f"metric {name} value {value!r} is not a number in [0, 1]")
            if per_query and metrics.keys() != self.aggregate.keys():
                raise ValidationError(
                    f"per-query metrics {sorted(metrics)} differ from the aggregate's {sorted(self.aggregate)}"
                )
        if per_query:
            for name, value in self.aggregate.items():
                mean = sum(m[name] for m in self.per_query.values()) / len(self.per_query)
                if value != mean:
                    raise ValidationError(
                        f"aggregate {name}={value} is not the per-query mean {mean}"
                    )


def evaluate(
    run: RunSet,
    qrels: Qrels,
    cutoffs: Cutoffs = DEFAULT_CUTOFFS,
    on_missing: str = "error",
    exclude_no_relevant: bool = False,
) -> EvalReport:
    """nDCG@k and R@k per query and averaged over queries.

    Run queries absent from the qrels raise by default; pass
    ``on_missing="skip"`` to drop them with a warning. Queries judged but
    wholly non-relevant score 0 everywhere and stay in the mean unless
    ``exclude_no_relevant`` is set.
    """
    if on_missing not in ("error", "skip"):
        raise ValidationError(f"on_missing must be 'error' or 'skip', got {on_missing!r}")
    if not run.lists:
        raise ValidationError("cannot evaluate an empty run")
    judged_queries = qrels.queries()
    names = cutoffs.metric_names()
    per_query: dict[str, dict[str, float]] = {}
    for qid in run.queries():
        if qid not in judged_queries:
            if on_missing == "error":
                raise ValidationError(f"run query {qid!r} has no relevance judgments")
            logger.warning("skipping query %r: no relevance judgments", qid)
            continue
        judged = qrels.for_query(qid)
        if exclude_no_relevant and not any(grade > 0 for grade in judged.values()):
            continue
        ndcg, recall = _query_metrics(qid, run.lists[qid], judged, cutoffs.values)
        per_query[qid] = dict(zip(names, ndcg + recall))
    if not per_query:
        raise ValidationError("no evaluable queries (all skipped or excluded)")
    aggregate = {
        name: sum(row[name] for row in per_query.values()) / len(per_query) for name in names
    }
    return EvalReport(per_query=per_query, aggregate=aggregate, tag=run.tag)


@dataclass(frozen=True)
class DeltaReport:
    """Percentage change of each metric relative to a baseline report.

    ``deltas[name]`` is None where the change is undefined: metric value
    unchanged, or baseline non-positive.
    """

    baseline: EvalReport
    candidate: EvalReport
    deltas: dict[str, float | None] = field(default_factory=dict)


def delta_report(baseline: EvalReport, candidate: EvalReport) -> DeltaReport:
    """Compare two reports metric by metric on their aggregates."""
    if set(baseline.aggregate) != set(candidate.aggregate):
        raise ValidationError(
            "reports disagree on metrics: "
            f"{sorted(baseline.aggregate)} vs {sorted(candidate.aggregate)}"
        )
    deltas: dict[str, float | None] = {}
    for name, base in baseline.aggregate.items():
        cand = candidate.aggregate[name]
        if cand == base or base <= 0.0:
            deltas[name] = None
        else:
            deltas[name] = 100.0 * (cand - base) / base
    return DeltaReport(baseline=baseline, candidate=candidate, deltas=deltas)


def format_delta(value: float | None) -> str:
    return "N/A" if value is None else f"{value:.{DELTA_DISPLAY_DECIMALS}f}"


def render_report(report: EvalReport, per_query: bool = False) -> str:
    """Aligned plain-text view of a report."""
    names = list(report.aggregate)
    width = max((len(n) for n in names), default=6)
    lines = [f"run: {report.tag}"]
    if report.per_query:
        lines.append(f"queries: {len(report.per_query)}")
    for name in names:
        lines.append(f"{name.ljust(width)} = {report.aggregate[name]:.{METRIC_DISPLAY_DECIMALS}f}")
    if per_query:
        for qid in sorted(report.per_query):
            lines.append(f"query {qid}:")
            for name in names:
                value = report.per_query[qid][name]
                lines.append(f"  {name.ljust(width)} = {value:.{METRIC_DISPLAY_DECIMALS}f}")
    return "\n".join(lines)


def render_delta(report: DeltaReport) -> str:
    names = list(report.deltas)
    width = max((len(n) for n in names), default=6)
    lines = [
        f"baseline: {report.baseline.tag}",
        f"candidate: {report.candidate.tag}",
        f"{'metric'.ljust(width)}  {'baseline':>9}  {'candidate':>9}  {'delta%':>8}",
    ]
    for name in names:
        base = report.baseline.aggregate[name]
        cand = report.candidate.aggregate[name]
        lines.append(
            f"{name.ljust(width)}  {base:>9.3f}  {cand:>9.3f}  {format_delta(report.deltas[name]):>8}"
        )
    return "\n".join(lines)


def report_records(report: EvalReport) -> list[dict]:
    """Flat records, one per (query, metric) plus one aggregate row per metric."""
    records = []
    for qid in sorted(report.per_query):
        for name, value in report.per_query[qid].items():
            records.append({"run": report.tag, "query": qid, "metric": name, "value": value})
    for name, value in report.aggregate.items():
        records.append({"run": report.tag, "query": "all", "metric": name, "value": value})
    return records


_REPORT_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)  # what json.dumps(indent=2, sort_keys=True) uses
_BATCH = 1 << 16  # characters of encoder output joined into one chunk


def report_json_chunks(report: EvalReport) -> Iterator[bytes]:
    """``report_to_json(report)`` as UTF-8 chunks of about 64 KiB, made as they are written.

    The encoder's own pieces are a few characters each; joining them into
    batches keeps the writes few without ever holding the whole report text.
    """
    payload = {
        "tag": report.tag,
        "aggregate": report.aggregate,
        "per_query": report.per_query,
    }
    batch, size = [], 0
    for piece in _REPORT_ENCODER.iterencode(payload):
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            yield "".join(batch).encode("utf-8")
            batch, size = [], 0
    batch.append("\n")
    yield "".join(batch).encode("utf-8")


def report_to_json(report: EvalReport) -> bytes:
    return b"".join(report_json_chunks(report))


def report_from_json(data: bytes | str) -> EvalReport:
    payload = _loads(data)
    if not isinstance(payload, dict) or "aggregate" not in payload:
        raise ValidationError("report JSON must be an object with an 'aggregate' key")
    return from_json_object(EvalReport, payload)
