"""Two-stage retrieval orchestration: decompose, retrieve, fuse, rerank.

A run reads its inputs either from fixture files (sub-query map plus
per-sub-query run file plus optional rerank-score run file) or from live
decomposer/retriever clients, and always emits three stage run files

  subqueries.run  one ranked list per sub-query
  fused.run       one fused list per original query
  reranked.run    fused lists with external scores injected in the head

plus ``manifest.json`` recording the toolkit version, the configuration
(seed list included), and a sha256 digest of every input file, which makes
a run reproducible: identical inputs and config yield byte-identical
outputs. Every output goes through ``core.atomic_write``.
"""

from __future__ import annotations

import hashlib
import json
import logging
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .core import (
    RunSet,
    ScoredList,
    Source,
    SubQueryMap,
    _expect,
    atomic_write,
    iter_jsonl,
    parse_run,
    parse_subquery_map,
    truncate,
    write_run,
)
from .ablation import fuse_runs
from .errors import ParseError, PipelineStageError, ValidationError
from .fusion import FusionStrategy

logger = logging.getLogger(__name__)

MAX_SUB_QUERIES = 25

# service endpoints honoured in a config file; there is no live reranker,
# rerank scores always arrive as a run file
ENDPOINT_NAMES = ("decomposer", "retriever")

# a config file may hold only these keys; "inputs" holds paths the CLI reads
CONFIG_KEYS = ("strategy", "first_stage_depth", "rerank_depth", "seeds", "endpoints", "inputs")

# the names "inputs" may give a path for, in the order run_pipeline takes them
INPUT_NAMES = ("queries", "subquery_map", "subquery_runs", "rerank")

STAGE_FILES = ("subqueries.run", "fused.run", "reranked.run")


@dataclass(frozen=True)
class PipelineConfig:
    strategy: FusionStrategy
    first_stage_depth: int = 1000
    rerank_depth: int = 100
    seeds: tuple[int, ...] = ()
    endpoints: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.first_stage_depth < 1:
            raise ValidationError("first_stage_depth must be positive")
        if self.rerank_depth < 1:
            raise ValidationError("rerank_depth must be positive")
        if self.rerank_depth > self.first_stage_depth:
            raise ValidationError(
                f"rerank_depth {self.rerank_depth} exceeds first_stage_depth {self.first_stage_depth}"
            )
        for name in self.endpoints:
            if name not in ENDPOINT_NAMES:
                raise ValidationError(
                    f"unknown endpoint {name!r}; expected one of {ENDPOINT_NAMES}"
                )

    def to_dict(self) -> dict:
        return {
            "strategy": {"kind": self.strategy.kind, "k": self.strategy.k_constant},
            "first_stage_depth": self.first_stage_depth,
            "rerank_depth": self.rerank_depth,
            "seeds": list(self.seeds),
            "endpoints": dict(self.endpoints),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """Build a config; unknown top-level, strategy or input keys raise ValidationError."""
        _check_keys(data, CONFIG_KEYS, "config")
        strategy = _check_keys(data.get("strategy", {}), ("kind", "k"), "strategy")
        _expect(_check_keys(data.get("inputs", {}), INPUT_NAMES, "inputs"), dict, "inputs", item=str)
        return cls(
            strategy=FusionStrategy(
                kind=strategy.get("kind", "rrf"), k_constant=_expect(strategy.get("k", 60), int, "k")
            ),
            first_stage_depth=_expect(data.get("first_stage_depth", 1000), int, "first_stage_depth"),
            rerank_depth=_expect(data.get("rerank_depth", 100), int, "rerank_depth"),
            seeds=tuple(_expect(data.get("seeds", []), list, "seeds", item=int)),
            endpoints=dict(_expect(data.get("endpoints", {}), dict, "endpoints", item=str)),
        )


def _check_keys(data, known: tuple[str, ...], what: str) -> dict:
    unknown = sorted(set(_expect(data, dict, what)) - set(known))
    if unknown:
        raise ValidationError(f"unknown {what} keys {unknown}; expected some of {known}")
    return data


@dataclass(frozen=True)
class DecompositionResult:
    query_id: str
    sub_queries: tuple[str, ...]
    fallback_used: bool = False

    def __post_init__(self):
        if not self.sub_queries:
            raise ValidationError(f"query {self.query_id!r} decomposed to nothing")


def decompose(record: dict, decomposer) -> DecompositionResult:
    """Ask the decomposer for sub-queries; fall back to the query itself.

    Any malformed response (not a JSON array of non-empty strings) is not
    an error: the original query text becomes the sole sub-query and
    ``fallback_used`` is set. Arrays longer than 25 are truncated. Only a
    transport failure propagates.
    """
    for name in ("query_id", "query"):
        if not record.get(name):
            raise ValidationError(f"query record is missing {name!r}")
    sub_queries = _parse_sub_queries(decomposer.decompose_raw(record))
    fallback_used = sub_queries is None
    if fallback_used:
        logger.warning(
            "query %s: malformed decomposition output, falling back to the query text",
            record["query_id"],
        )
        sub_queries = [record["query"]]
    return DecompositionResult(
        query_id=record["query_id"],
        sub_queries=tuple(sub_queries[:MAX_SUB_QUERIES]),
        fallback_used=fallback_used,
    )


def _parse_sub_queries(raw: str) -> list[str] | None:
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError:
        return None
    if not isinstance(parsed, list) or not parsed:
        return None
    out = []
    for item in parsed:
        if not isinstance(item, str) or not item.strip():
            return None
        out.append(item.strip())
    return out


def sub_query_id(query_id: str, position: int) -> str:
    return f"{query_id}-s{position:03d}"


def read_query_records(data: Source) -> list[dict]:
    """Query records from JSON lines, one object per line."""
    records = []
    for line_no, record in iter_jsonl(data):
        if not isinstance(record, dict):
            raise ParseError("query record must be a JSON object", line=line_no)
        records.append(record)
    return records


def decompose_all(records: list[dict], decomposer) -> tuple[SubQueryMap, list[DecompositionResult]]:
    """Decompose every query record and assemble the sub-query map.

    Sub-query ids are ``<query_id>-s<NNN>`` in sub-query order. A failure
    raises PipelineStageError naming the "decompose" stage and the query.
    """
    groups = {}
    results = []
    for record in records:
        result = _stage("decompose", record.get("query_id"), decompose, record, decomposer)
        results.append(result)
        groups[result.query_id] = tuple(
            (sub_query_id(result.query_id, i), text)
            for i, text in enumerate(result.sub_queries)
        )
    return SubQueryMap(groups), results


def inject_rerank(fused: RunSet, rerank: RunSet, rerank_depth: int) -> RunSet:
    """Reorder each query's top ``rerank_depth`` by external scores.

    Scored documents sort by external score (doc-id ascending on ties) and
    move ahead of unscored ones, which keep their fused order; everything
    below the head is untouched. External scores for documents outside the
    head are ignored with a warning. Reordered lists carry positional
    scores (1/rank), since external and fused scores do not share a scale;
    queries without any external score are passed through unchanged. The
    output tag gains a ``-reranked`` suffix.
    """
    if rerank_depth < 0:
        raise ValueError("rerank_depth must be >= 0")
    lists = {}
    for qid, fused_list in fused.lists.items():
        external = rerank.lists.get(qid)
        if external is None or not external:
            lists[qid] = fused_list
            continue
        head = fused_list._docs[:rerank_depth]
        tail = fused_list._docs[rerank_depth:]
        scores = external.scores()
        outside = sorted(set(scores).difference(head))
        if outside:
            logger.warning(
                "query %s: ignoring rerank scores for %d documents outside the fused top %d: %s",
                qid, len(outside), rerank_depth, ", ".join(outside[:5]),
            )
        scored = sorted((doc for doc in head if doc in scores), key=lambda doc: (-scores[doc], doc))
        unscored = [doc for doc in head if doc not in scores]
        lists[qid] = _positional(tuple(scored) + tuple(unscored) + tail)
    for qid in rerank.lists:
        if qid not in fused.lists:
            logger.warning("rerank scores for unknown query %s ignored", qid)
    return RunSet(lists=lists, tag=f"{fused.tag}-reranked")


def _positional(docs: tuple[str, ...]) -> ScoredList:
    # a reordering of one valid list, with strictly decreasing scores
    return ScoredList._trusted(docs, array("d", [1.0 / rank for rank in range(1, len(docs) + 1)]))


@dataclass(frozen=True)
class PipelineResult:
    final: RunSet
    stage_paths: dict[str, Path]
    manifest_path: Path
    manifest: dict


def run_pipeline(
    config: PipelineConfig,
    out_dir: str | Path,
    *,
    queries_path: str | Path | None = None,
    subquery_map_path: str | Path | None = None,
    subquery_runs_path: str | Path | None = None,
    rerank_path: str | Path | None = None,
    decomposer=None,
    retriever=None,
) -> PipelineResult:
    """Execute decomposition -> retrieval -> fusion -> rerank injection.

    Each stage takes either a fixture file or a live client; any stage
    failure aborts with the stage name and the query id being processed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs: dict[str, Path] = {}
    for name, path in zip(INPUT_NAMES, (queries_path, subquery_map_path, subquery_runs_path, rerank_path)):
        if path is not None:
            inputs[name] = Path(path)

    # stage 1: sub-query map
    if "subquery_map" in inputs:
        mapping = _parse_input("decompose", parse_subquery_map, inputs["subquery_map"])
    elif "queries" in inputs and decomposer is not None:
        records = _parse_input("decompose", read_query_records, inputs["queries"])
        mapping, _ = decompose_all(records, decomposer)
    else:
        raise ValidationError("pipeline needs a sub-query map file or queries plus a decomposer")

    # stage 2: per-sub-query ranked lists
    if "subquery_runs" in inputs:
        raw_runs = _parse_input("retrieve", parse_run, inputs["subquery_runs"])
        sub_runs = _collect_sub_lists(mapping, raw_runs, config.first_stage_depth)
    elif retriever is not None:
        sub_runs = _retrieve_all(mapping, retriever, config.first_stage_depth)
    else:
        raise ValidationError("pipeline needs a per-sub-query run file or a retriever client")

    # stage 3: fusion
    fused = _stage(
        "fuse", None, fuse_runs, mapping, sub_runs, config.strategy, config.first_stage_depth
    )

    # stage 4: rerank injection (empty scores when no rerank file was given)
    rerank_scores = (
        _parse_input("rerank", parse_run, inputs["rerank"])
        if "rerank" in inputs
        else RunSet(lists={}, tag="rerank")
    )
    reranked = _stage("rerank", None, inject_rerank, fused, rerank_scores, config.rerank_depth)

    stage_paths = {name: out_dir / name for name in STAGE_FILES}
    for name, run in zip(STAGE_FILES, (sub_runs, fused, reranked)):
        write_run_file(stage_paths[name], run, config.first_stage_depth)

    manifest = {
        "toolkit_version": __version__,
        "config": config.to_dict(),
        "inputs": {
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in sorted(inputs.items())
        },
    }
    manifest_path = out_dir / "manifest.json"
    atomic_write(manifest_path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return PipelineResult(
        final=reranked, stage_paths=stage_paths, manifest_path=manifest_path, manifest=manifest
    )


def write_run_file(path: str | Path, run: RunSet, depth: int) -> None:
    """Write ``write_run(run, depth)`` to ``path``, one query at a time.

    ``atomic_write`` gets the bytes of one ``write_run`` call per query, so
    only one query's lines are held at once. The depth and the tag are
    checked before the file is opened, even for a run with no queries.
    """
    write_run(RunSet(tag=run.tag), depth)
    atomic_write(
        path, (write_run(RunSet({qid: run.lists[qid]}, run.tag), depth) for qid in run.queries())
    )


def _parse_input(stage: str, parse, path: Path):
    """``parse`` of the open file at ``path`` as stage ``stage``.

    The file is opened outside ``_stage``, so a missing input stays an OSError.
    """
    with open(path, "rb") as fh:
        return _stage(stage, None, parse, fh)


def _stage(stage: str, query_id, fn, *args):
    try:
        return fn(*args)
    except PipelineStageError:
        raise
    except Exception as e:
        raise PipelineStageError(stage, query_id, e) from e


def _collect_sub_lists(mapping: SubQueryMap, raw: RunSet, depth: int) -> RunSet:
    lists = {}
    for qid, subs in mapping.groups.items():
        for sub_id, _ in subs:
            if sub_id not in raw.lists:
                raise PipelineStageError(
                    "retrieve", qid, ValidationError(f"no ranked list for sub-query {sub_id!r}")
                )
            lists[sub_id] = truncate(raw.lists[sub_id], depth)
    return RunSet(lists=lists, tag="subqueries")


def _retrieve_all(mapping: SubQueryMap, retriever, depth: int) -> RunSet:
    lists = {}
    for qid, subs in mapping.groups.items():
        for sub_id, text in subs:
            pairs = _stage("retrieve", qid, retriever.retrieve, sub_id, text, depth)
            lists[sub_id] = ScoredList.from_pairs(pairs)
    return RunSet(lists=lists, tag="subqueries")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()
