"""Two-stage retrieval orchestration: decompose, retrieve, fuse, rerank.

A run reads its inputs either from fixture files (sub-query map plus
per-sub-query run file plus optional rerank-score run file) or from live
decomposer/retriever clients, and always emits three stage run files

  subqueries.run  one ranked list per sub-query
  fused.run       one fused list per original query
  reranked.run    fused lists with external scores injected in the head

plus ``manifest.json`` recording the toolkit version, the configuration
(the endpoints that served the run included), and a sha256 digest of every
input file, which makes a run reproducible: identical inputs and config
yield byte-identical outputs. Every output goes through ``core.atomic_write``.

A large ``subqueries.run`` (``_ASIDE_MIN`` entries or more) is formatted in
a forked child, into an unnamed file in the system temp directory, while
this process fuses, reads the rerank file and injects its scores, when the
process may use two CPUs (see ``core._in_two``). The files, their bytes
and every error, with its stage, are those of the sequential run: a failed
child makes this process write the file itself, without running a stage
again, and a failed stage kills the child, so no ``out_dir`` is left
behind.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from . import __version__
from .core import (
    RunSet,
    ScoredList,
    Source,
    SubQueryMap,
    _check_token,
    _expect,
    _in_two,
    _is_json,
    _json_value,
    _loads,
    atomic_write,
    load_unique_records,
    parse_run,
    parse_subquery_map,
    write_run,
)
from .ablation import fuse_runs
from .clients import HttpDecomposer, HttpRetriever, ReplayRetriever
from .errors import FusekitError, ParseError, PipelineStageError, ValidationError
from .fusion import FusionStrategy

logger = logging.getLogger(__name__)

MAX_SUB_QUERIES = 25

# service endpoints honoured in a config file; there is no live reranker,
# rerank scores always arrive as a run file
ENDPOINT_NAMES = ("decomposer", "retriever")

# a config file may hold only these keys
CONFIG_KEYS = ("strategy", "first_stage_depth", "rerank_depth", "endpoints", "inputs")

# the names "inputs" may give a path for
INPUT_NAMES = ("queries", "subquery_map", "subquery_runs", "rerank")

# per stage: its file source, and the config entries that together make its live source
STAGE_SOURCES = (
    ("decompose", "inputs.subquery_map", ("inputs.queries", "endpoints.decomposer")),
    ("retrieve", "inputs.subquery_runs", ("endpoints.retriever",)),
)

STAGE_FILES = ("subqueries.run", "fused.run", "reranked.run")


@dataclass(frozen=True)
class PipelineConfig:
    """One pipeline run: fusion settings, service endpoints and input files.

    Each stage takes exactly one source: a sub-query map file, or queries
    plus a decomposer; a per-sub-query run file, or a retriever.
    """

    strategy: FusionStrategy
    first_stage_depth: int = 1000
    rerank_depth: int = 100
    endpoints: dict[str, str] = field(default_factory=dict)
    inputs: dict[str, Path] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("first_stage_depth", "rerank_depth"):
            depth = getattr(self, name)
            if not _is_json(depth, int) or depth < 1:
                raise ValidationError(f"{name} must be a positive integer, got {depth!r}")
        if self.rerank_depth > self.first_stage_depth:
            raise ValidationError(
                f"rerank_depth {self.rerank_depth} exceeds first_stage_depth {self.first_stage_depth}"
            )
        for kind, names, known in (
            ("endpoint", self.endpoints, ENDPOINT_NAMES),
            ("input", self.inputs, INPUT_NAMES),
        ):
            for name in names:
                if name not in known:
                    raise ValidationError(f"unknown {kind} {name!r}; expected one of {known}")
        given = {f"endpoints.{name}" for name in self.endpoints} | {f"inputs.{name}" for name in self.inputs}
        for stage, file_source, live in STAGE_SOURCES:
            for other in live:
                if {file_source, other} <= given:
                    raise ValidationError(f"stage {stage!r} has two sources: {file_source} and {other}")
        for stage, file_source, live in STAGE_SOURCES:
            if file_source not in given and not given.issuperset(live):
                raise ValidationError(
                    f"stage {stage!r} has no source: give {file_source}, or {' and '.join(live)}"
                )

    def to_dict(self) -> dict:
        """The config as the manifest records it; the manifest lists the inputs apart, with digests."""
        return {
            "strategy": {"kind": self.strategy.kind, "k": self.strategy.k_constant},
            "first_stage_depth": self.first_stage_depth,
            "rerank_depth": self.rerank_depth,
            "endpoints": dict(self.endpoints),
        }

    @classmethod
    def from_dict(cls, data: dict, base: str | Path = ".") -> "PipelineConfig":
        """Build a config, input paths resolved against ``base``; unknown keys raise ValidationError."""
        _check_keys(data, CONFIG_KEYS, "config")
        strategy = _check_keys(data.get("strategy", {}), ("kind", "k"), "strategy")
        inputs = _expect(data.get("inputs", {}), dict, "inputs", item=str)
        for name, path in inputs.items():
            # open() raises ValueError for a NUL or a lone surrogate, which no file name holds
            if "\0" in path or any("\ud800" <= ch <= "\udfff" for ch in path):
                raise ValidationError(f"inputs.{name} must name a file, got {path!r}")
        return cls(
            strategy=FusionStrategy(
                kind=strategy.get("kind", "rrf"), k_constant=_expect(strategy.get("k", 60), int, "k")
            ),
            first_stage_depth=_expect(data.get("first_stage_depth", 1000), int, "first_stage_depth"),
            rerank_depth=_expect(data.get("rerank_depth", 100), int, "rerank_depth"),
            endpoints=dict(_expect(data.get("endpoints", {}), dict, "endpoints", item=str)),
            inputs={name: Path(base) / path for name, path in inputs.items()},
        )

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        """The config file at ``path``, input paths resolved against its directory.

        A non-empty ``FUSEKIT_<NAME>_URL`` environment variable sets endpoint
        ``<name>``, over the file's, so it is checked and recorded like one.
        """
        path = Path(path)
        data = _expect(_loads(path.read_bytes()), dict, "config")
        endpoints = dict(_expect(data.get("endpoints", {}), dict, "endpoints", item=str))
        for name in ENDPOINT_NAMES:
            if url := os.environ.get(f"FUSEKIT_{name.upper()}_URL"):
                endpoints[name] = url
        return cls.from_dict({**data, "endpoints": endpoints}, base=path.parent)


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
    ``fallback_used`` is set. Arrays longer than 25 are cut to their first
    25, with a warning. Only a transport failure propagates.
    """
    _check_query_record(record)
    sub_queries = _parse_sub_queries(decomposer.decompose_raw(record))
    fallback_used = sub_queries is None
    if fallback_used:
        logger.warning(
            "query %s: malformed decomposition output, falling back to the query text",
            record["query_id"],
        )
        sub_queries = [record["query"]]
    elif len(sub_queries) > MAX_SUB_QUERIES:
        logger.warning(
            "query %s: decomposition gave %d sub-queries, cut to %d",
            record["query_id"], len(sub_queries), MAX_SUB_QUERIES,
        )
    return DecompositionResult(
        query_id=record["query_id"],
        sub_queries=tuple(sub_queries[:MAX_SUB_QUERIES]),
        fallback_used=fallback_used,
    )


def _parse_sub_queries(raw: str) -> list[str] | None:
    try:
        parsed = _json_value(raw)
    except ParseError:
        return None
    if not isinstance(parsed, list) or not parsed:
        return None
    if not all(isinstance(item, str) and item.strip() for item in parsed):
        return None
    return [item.strip() for item in parsed]


def sub_query_id(query_id: str, position: int) -> str:
    return f"{query_id}-s{position:03d}"


def read_query_records(data: Source) -> list[dict]:
    """Query records from JSON lines, one per line and query id, each checked by ``_check_query_record``."""
    return list(load_unique_records(data, _check_query_record, "query").values())


def _check_query_record(record) -> tuple[str, dict]:
    """``(query_id, record)`` of a JSON object with a token ``query_id`` and a non-empty string ``query``."""
    record = _expect(record, dict, "query record")
    _check_token(record.get("query_id"), "'query_id'")
    query = record.get("query")
    if not isinstance(query, str) or not query:
        raise ValidationError(f"'query' must be a non-empty string, got {query!r}")
    return record["query_id"], record


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


def _check_rerank_depth(rerank_depth: int) -> None:
    if not _is_json(rerank_depth, int):
        raise ValidationError(f"rerank_depth must be an integer, got {rerank_depth!r}")
    if rerank_depth < 0:
        raise ValidationError("rerank_depth must be >= 0")


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
    _check_rerank_depth(rerank_depth)
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


def run_pipeline(config: PipelineConfig, out_dir: str | Path) -> PipelineResult:
    """Execute decomposition -> retrieval -> fusion -> rerank injection.

    Each stage reads the input file named in ``config.inputs`` or asks the
    service at ``config.endpoints``; the config gives it exactly one of the
    two. Any stage failure aborts with the stage name and the query id
    being processed. ``out_dir`` is made only once every stage has run, so
    a failed run leaves none behind. An existing ``manifest.json`` is removed
    before the first stage file is replaced and the new one is written last,
    so a directory that holds a manifest holds that one run's stage files.
    """
    inputs = config.inputs
    depth = config.first_stage_depth

    # stage 1: sub-query map
    if "subquery_map" in inputs:
        mapping = _parse_input("decompose", parse_subquery_map, inputs["subquery_map"])
    else:
        records = _parse_input("decompose", read_query_records, inputs["queries"])
        mapping, _ = decompose_all(records, HttpDecomposer(config.endpoints["decomposer"]))

    # stage 2: per-sub-query ranked lists
    if "subquery_runs" in inputs:
        retriever = ReplayRetriever(_parse_input("retrieve", parse_run, inputs["subquery_runs"]))
    else:
        retriever = HttpRetriever(config.endpoints["retriever"])
    sub_runs = _retrieve_all(mapping, retriever, depth)

    out_dir = Path(out_dir)
    stage_paths = {name: out_dir / name for name in STAGE_FILES}
    manifest_path = out_dir / "manifest.json"
    done = []  # mine()'s result, which alone() reuses where the child failed after mine() returned

    def mine() -> tuple[RunSet, dict]:
        # stage 3: fusion
        fused = _stage("fuse", None, fuse_runs, mapping, sub_runs, config.strategy, depth)

        # stage 4: rerank injection (empty scores when no rerank file was given)
        rerank_scores = (
            _parse_input("rerank", parse_run, inputs["rerank"])
            if "rerank" in inputs
            else RunSet(lists={}, tag="rerank")
        )
        reranked = _stage("rerank", None, inject_rerank, fused, rerank_scores, config.rerank_depth)

        manifest = {
            "toolkit_version": __version__,
            "config": config.to_dict(),
            "inputs": {
                name: {"path": str(path), "sha256": _sha256(path)}
                for name, path in sorted(inputs.items())
            },
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest_path.unlink(missing_ok=True)
        write_run_file(stage_paths["fused.run"], fused, depth)
        write_run_file(stage_paths["reranked.run"], reranked, depth)
        done.append((reranked, manifest))
        return done[0]

    def alone() -> tuple[RunSet, dict]:
        result = done[0] if done else mine()
        write_run_file(stage_paths["subqueries.run"], sub_runs, depth)
        return result

    def theirs() -> Iterator[bool]:
        tmp.writelines(_run_chunks(sub_runs, depth))
        tmp.flush()  # the child ends by os._exit, which flushes nothing
        yield True

    def join(result: tuple[RunSet, dict], records: Iterator) -> tuple[RunSet, dict] | None:
        if next(records, None) is None:  # the child failed
            return None
        # this process never read or wrote tmp, so its buffer is empty and the seek
        # moves the file offset, which it shares with the child, from where the child left it
        tmp.seek(0)
        atomic_write(stage_paths["subqueries.run"], iter(lambda: tmp.read(1 << 20), b""))
        return result

    # a large subqueries.run is formatted in a forked child while this process fuses and reranks
    tmp = _aside_file(sub_runs)
    if tmp is None:
        reranked, manifest = alone()
    else:
        with tmp:
            reranked, manifest = _in_two(mine, theirs, join, alone)
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
    atomic_write(path, _run_chunks(run, depth))


def _run_chunks(run: RunSet, depth: int) -> Iterator[bytes]:
    """The bytes of ``write_run(run, depth)``, one ``write_run`` call per query."""
    return (write_run(RunSet({qid: run.lists[qid]}, run.tag), depth) for qid in run.queries())


# a run of at least this many entries is formatted in a forked child (see run_pipeline);
# run_pipeline on perfbench's pipeline inputs, scaled down, on a 2-CPU VM with Python 3.11:
# the child lost in 23 of 24 alternating pairs at 80,000 entries and 18 of 24 at 100,000,
# and won in 22 of 24 at 120,000 and 23 of 24 at 140,000 (medians 0.43 -> 0.31 s)
_ASIDE_MIN = 120_000


def _aside_file(run: RunSet):
    """An unnamed temp file for the child to format ``run`` into, or None for a run under ``_ASIDE_MIN`` entries."""
    if sum(map(len, run.lists.values())) < _ASIDE_MIN:
        return None
    import tempfile  # imported on use, like the other modules only this path needs

    try:
        return tempfile.TemporaryFile()
    except OSError:
        return None


def _parse_input(stage: str, parse, path: Path):
    """``parse`` of the open file at ``path`` as stage ``stage``.

    The file is opened outside ``_stage``, so a missing input stays an OSError.
    """
    with open(path, "rb") as fh:
        return _stage(stage, None, parse, fh)


def _stage(stage: str, query_id, fn, *args):
    """``fn(*args)``, a FusekitError or OSError wrapped as PipelineStageError; any other exception is a bug."""
    try:
        return fn(*args)
    except (FusekitError, OSError) as e:
        raise PipelineStageError(stage, query_id, e) from e


def _retrieve_all(mapping: SubQueryMap, retriever, depth: int) -> RunSet:
    lists = {}
    for qid, subs in mapping.groups.items():
        for sub_id, text in subs:
            lists[sub_id] = _stage("retrieve", qid, retriever.retrieve, sub_id, text, depth)
    return RunSet(lists=lists, tag="subqueries")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()
