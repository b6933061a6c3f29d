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

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .core import (
    _JSON_NUMBERS,
    Qrels,
    QueryId,
    RunSet,
    ScoredList,
    _expect,
    _is_json,
    _loads,
    from_json_object,
    json_record,
)
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
    if not _is_json(k, int):
        raise ValidationError(f"cutoff must be an integer, got {k!r}")
    if k < 1:
        raise ValidationError(f"cutoff must be >= 1, got {k}")


def _query_metrics(
    query: QueryId, ranking: ScoredList, judged: dict[str, int], cutoffs: tuple[int, ...]
) -> tuple[list[float], list[float]]:
    """nDCG and recall at each cutoff from the relevant documents alone.

    Grades are never negative, so an unjudged or grade-0 document adds a
    term of exactly 0.0, and ``math.fsum``, being correctly rounded, gives
    the same sum without those terms: only the relevant documents in the top
    ranks and the positive grades of the ideal ranking are summed, each term
    ``(2.0**g - 1) / log2(rank + 2)``. Grades whose gains exceed the float
    range are a ValidationError naming the query.
    """
    depth = max(cutoffs)
    top = ranking._docs[:depth]
    relevant = sorted([grade for grade in judged.values() if grade > 0], reverse=True)
    # (rank, grade) of each relevant document in the top ranks, best rank first
    found = sorted([(top.index(doc), grade) for doc in judged.keys() & top if (grade := judged[doc]) > 0])
    ranks = [rank for rank, _ in found]
    try:
        idcgs = _ideal_dcgs(tuple(relevant[:depth]), cutoffs)
        log2 = _log2_table(ranks[-1] + 1 if ranks else 0)
        gains = [(2.0**g - 1) / log2[i] for i, g in found]
        ndcg, recall = [], []
        for k, idcg in zip(cutoffs, idcgs):
            hits = bisect_left(ranks, k)
            ndcg.append(0.0 if idcg == 0.0 else math.fsum(gains[:hits]) / idcg)
            recall.append(hits / len(relevant) if relevant else 0.0)
        return ndcg, recall
    except OverflowError:
        raise ValidationError(f"query {query!r}: its DCG exceeds the float range") from None


@lru_cache(maxsize=1024)
def _ideal_dcgs(grades: tuple[int, ...], cutoffs: tuple[int, ...]) -> tuple[float, ...]:
    """The ideal DCG at each cutoff of the positive ``grades``, best first.

    Cached, because judgments on a small grade scale repeat across queries:
    10,000 synthetic queries with 20 relevant documents graded 1 to 3 have 18
    distinct ideal rankings, and an ablation evaluates the same queries once per cell.
    """
    log2 = _log2_table(len(grades))
    # a float power overflows at once for g >= 1024, where the exact 2**g would be built first;
    # below that the two give the same double
    ideal = [(2.0**g - 1) / log2[i] for i, g in enumerate(grades)]
    return tuple(math.fsum(ideal[:k]) for k in cutoffs)


_LOG2: list[float] = []  # _LOG2[i] is math.log2(i + 2), the discount at 0-based rank i


def _log2_table(size: int) -> list[float]:
    """``_LOG2``, grown to at least ``size`` entries.

    The discounts are kept, never their reciprocals: a product with a
    reciprocal may differ from the quotient in its last bit.
    """
    if len(_LOG2) < size:
        _LOG2.extend(math.log2(i + 2) for i in range(len(_LOG2), size))
    return _LOG2


@json_record
@dataclass(frozen=True)
class EvalReport:
    """Per-query metric values plus their arithmetic means.

    ``per_query`` may be empty for externally supplied summary reports
    (e.g. result tables from other systems); when it is non-empty the aggregate must
    equal the per-query mean exactly, summed in sorted query order. Query
    ids, metric names and the tag are strings UTF-8 can encode, and values
    are ``int`` or ``float`` by exact type: what ``report_to_json`` writes
    ``report_from_json`` reads back equal.
    """

    per_query: dict[QueryId, dict[str, float]] = field(default_factory=dict)
    aggregate: dict[str, float] = field(default_factory=dict)
    tag: str = "run"

    def __post_init__(self):
        per_query = _expect(self.per_query, dict, "per_query", item=dict)
        _check_text(self.tag, "tag")
        for qid in per_query:
            _check_text(qid, "query id")
        for metrics in list(per_query.values()) + [_expect(self.aggregate, dict, "aggregate")]:
            for name, value in metrics.items():
                _check_text(name, "metric name")
                if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
                    raise ValidationError(f"metric {name} value {value!r} is not a number in [0, 1]")
                if (kind := type(value)) not in _JSON_NUMBERS:
                    raise ValidationError(f"metric {name} value {value!r} is a {kind.__name__}, not int or float")
            if per_query and metrics.keys() != self.aggregate.keys():
                raise ValidationError(
                    f"per-query metrics {sorted(metrics)} differ from the aggregate's {sorted(self.aggregate)}"
                )
        if per_query:
            rows = [per_query[qid] for qid in sorted(per_query)]  # the file's order, and evaluate's
            for name, value in self.aggregate.items():
                mean = sum(row[name] for row in rows) / len(rows)
                if value != mean:
                    raise ValidationError(
                        f"aggregate {name}={value} is not the per-query mean {mean}"
                    )

    @classmethod
    def _trusted(
        cls, per_query: dict[QueryId, dict[str, float]], aggregate: dict[str, float], tag: str
    ) -> "EvalReport":
        """Wrap values that already meet every invariant: ``evaluate``'s, just computed."""
        report = object.__new__(cls)
        object.__setattr__(report, "per_query", per_query)
        object.__setattr__(report, "aggregate", aggregate)
        object.__setattr__(report, "tag", tag)
        return report


def _check_text(value, what: str) -> None:
    """A ValidationError naming ``what`` unless ``value`` is a str that UTF-8 encodes, as every JSON string read is."""
    if type(value) is not str:
        raise ValidationError(f"{what} must be a string, got {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"{what} {value!r} holds a lone surrogate") from None


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
    judgments = qrels._by_query  # read only
    names = cutoffs.metric_names()
    per_query: dict[str, dict[str, float]] = {}
    for qid in run.queries():
        judged = judgments.get(qid)
        if judged is None:
            if on_missing == "error":
                raise ValidationError(f"run query {qid!r} has no relevance judgments")
            logger.warning("skipping query %r: no relevance judgments", qid)
            continue
        if exclude_no_relevant and not any(grade > 0 for grade in judged.values()):
            continue
        ndcg, recall = _query_metrics(qid, run.lists[qid], judged, cutoffs.values)
        per_query[qid] = dict(zip(names, ndcg + recall))
    if not per_query:
        raise ValidationError("no evaluable queries (all skipped or excluded)")
    aggregate = {
        name: sum(row[name] for row in per_query.values()) / len(per_query) for name in names
    }
    return EvalReport._trusted(per_query, aggregate, run.tag)


@dataclass(frozen=True)
class DeltaReport:
    """Percentage change of each metric relative to a baseline report.

    ``deltas[name]`` is None where the change is undefined: metric value
    unchanged, or baseline non-positive. Both reports name the same
    metrics, and ``deltas`` holds one int, float or None for each of them.
    """

    baseline: EvalReport
    candidate: EvalReport
    deltas: dict[str, float | None] = field(default_factory=dict)

    def __post_init__(self):
        for report in (self.baseline, self.candidate):
            if not isinstance(report, EvalReport):
                raise ValidationError(f"a delta report compares EvalReports, got {report!r}")
        names = set(self.baseline.aggregate)
        if names != set(self.candidate.aggregate):
            raise ValidationError(
                "reports disagree on metrics: "
                f"{sorted(self.baseline.aggregate)} vs {sorted(self.candidate.aggregate)}"
            )
        if set(self.deltas) != names:
            raise ValidationError(f"deltas must name the metrics {sorted(names)}, got {list(self.deltas)}")
        for name, delta in self.deltas.items():
            if delta is not None and type(delta) not in _JSON_NUMBERS:
                raise ValidationError(f"delta of {name} must be an int, a float or None, got {delta!r}")


def delta_report(baseline: EvalReport, candidate: EvalReport) -> DeltaReport:
    """Compare two reports metric by metric on their aggregates; reports on other metrics are a ValidationError."""
    deltas: dict[str, float | None] = {}
    for name, base in baseline.aggregate.items():
        cand = candidate.aggregate.get(name, base)  # DeltaReport rejects a metric the candidate lacks
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


_BATCH = 1 << 16  # characters of report text joined into one chunk


def report_json_chunks(report: EvalReport) -> Iterator[bytes]:
    """``report_to_json(report)`` as UTF-8 chunks of about 64 KiB, made as they are written.

    The text is ``json.dumps(payload, indent=2, sort_keys=True) + "\n"``,
    written from templates (``_report_pieces``) in batches of pieces, so
    the writes are few and the whole report text is never held.
    """
    batch, size = [], 0
    for piece in _report_pieces(report):
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            yield "".join(batch).encode("utf-8")
            batch, size = [], 0
    yield "".join(batch).encode("utf-8")


def _report_pieces(report: EvalReport) -> Iterator[str]:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True) + "\n"``, a piece per query.

    Every per-query row has the aggregate's metrics, so one row template,
    made once from the sorted metric names, is filled per query in sorted
    query order. ``%r`` writes an int or a float as ``json.dumps`` does.
    """
    names = sorted(report.aggregate)
    aggregate = _object_template(names, "  ") % tuple(map(report.aggregate.__getitem__, names))
    yield f'{{\n  "aggregate": {aggregate},\n  "per_query": '
    per_query = report.per_query
    if per_query:
        row = "%s    %s: " + _object_template(names, "    ")  # a separator, the query id, the values
        separator = "{\n"
        for qid in sorted(per_query):
            yield row % (separator, encode_basestring_ascii(qid), *map(per_query[qid].__getitem__, names))
            separator = ",\n"
        yield "\n  }"
    else:
        yield "{}"
    yield f',\n  "tag": {encode_basestring_ascii(report.tag)}\n}}\n'


def _object_template(names: list[str], indent: str) -> str:
    """An indented JSON object of ``names`` with ``%r`` fields for values; ``indent`` is that of its own line."""
    if not names:
        return "{}"
    keys = (encode_basestring_ascii(name).replace("%", "%%") for name in names)  # a literal % is written %%
    return "{\n" + ",\n".join(f"{indent}  {key}: %r" for key in keys) + f"\n{indent}}}"


def report_to_json(report: EvalReport) -> bytes:
    return b"".join(report_json_chunks(report))


def report_from_json(data: bytes | str) -> EvalReport:
    payload = _loads(data)
    if not isinstance(payload, dict) or "aggregate" not in payload:
        raise ValidationError("report JSON must be an object with an 'aggregate' key")
    return from_json_object(EvalReport, payload)
