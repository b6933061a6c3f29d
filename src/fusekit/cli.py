"""Command-line front end.

Subcommands: fuse, rerank-inject, eval, delta, ablate,
claims (validate | attach | filter), memory, pipeline, decompose.

Exit codes: 0 success, 1 validation or parse error, 2 I/O or transport
error. Errors are additionally written to stderr as one JSON record.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from pathlib import Path
from typing import Iterator

from . import __version__
from .ablation import KEEP_ALL, AblationConfig, fuse_runs, render_ablation, run_ablation
from .core import (
    RunSet,
    _loads,
    atomic_write,
    parse_qrels,
    parse_run,
    parse_subquery_map,
    expansion_stats,
    write_subquery_map,
)
from .errors import FusekitError, ParseError, PipelineStageError, TransportError, ValidationError
from .evidence import (
    DEFAULT_BACKEND,
    attach,
    calibrated_to_dict,
    filter_by_threshold,
    load_calibrated,
    load_evidence,
    load_predictions,
    record_to_dict,
    serialize,
    serialize_calibrated,
)
from .fusion import STRATEGY_KINDS, FusionStrategy
from .memory import FactEntry, MemoryBank
from .metrics import (
    Cutoffs,
    delta_report,
    evaluate,
    render_delta,
    render_report,
    report_from_json,
    report_json_chunks,
    report_records,
    report_to_json,  # unused here, but perfbench's traced mode rebinds fusekit.cli.report_to_json
)
from .pipeline import (
    ENDPOINT_NAMES,
    PipelineConfig,
    decompose_all,
    inject_rerank,
    read_query_records,
    run_pipeline,
    write_run_file,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValidationError, ValueError, KeyError, IndexError) as e:
        _emit_error(e)
        return 1
    except PipelineStageError as e:
        _emit_error(e)
        return 2 if isinstance(e.cause, (TransportError, OSError)) else 1
    except (TransportError, OSError) as e:
        _emit_error(e)
        return 2


def _emit_error(e: Exception) -> None:
    record = {"error": type(e).__name__, "message": str(e)}
    cause = e.cause if isinstance(e, PipelineStageError) else e
    if isinstance(cause, ParseError) and cause.line is not None:
        record["line"] = cause.line
    print(json.dumps(record), file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fusekit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fusekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="fuse per-sub-query runs into one run per query")
    p.add_argument("--runs", required=True, type=Path, help="per-sub-query run file")
    p.add_argument("--map", dest="map_path", required=True, type=Path, help="sub-query map (JSONL)")
    p.add_argument("--strategy", required=True, choices=STRATEGY_KINDS)
    p.add_argument("--k", type=int, default=60, help="rrf smoothing constant (default 60)")
    p.add_argument("--depth", type=int, default=1000, help="fused output depth (default 1000)")
    p.add_argument("--tag", default=None, help="run tag (default: strategy label)")
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(handler=_cmd_fuse)

    p = sub.add_parser("rerank-inject", help="reorder each fused head by external scores")
    p.add_argument("--fused", required=True, type=Path)
    p.add_argument("--scores", required=True, type=Path, help="external rerank scores (run file)")
    p.add_argument("--depth", type=int, default=100, help="rerank head depth (default 100)")
    p.add_argument("--out-depth", type=int, default=1000, help="entries per query to write")
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(handler=_cmd_rerank_inject)

    p = sub.add_parser("eval", help="nDCG@k / R@k for a run against qrels")
    p.add_argument("--run", required=True, type=Path)
    p.add_argument("--qrels", required=True, type=Path)
    p.add_argument("--cutoffs", default="10,20,100", help="comma-separated cutoffs")
    p.add_argument("--on-missing", choices=("error", "skip"), default="error",
                   help="what to do with run queries missing from the qrels")
    p.add_argument("--exclude-no-relevant", action="store_true",
                   help="drop queries without relevant docs from the means")
    p.add_argument("--per-query", action="store_true")
    p.add_argument("--json", type=Path, default=None, help="write the report as JSON")
    p.add_argument("--records", type=Path, default=None, help="write flat metric records (JSONL)")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("delta", help="percentage deltas between two eval reports")
    p.add_argument("--baseline", required=True, type=Path, help="report JSON from `eval --json`")
    p.add_argument("--candidate", required=True, type=Path)
    p.add_argument("--json", type=Path, default=None)
    p.set_defaults(handler=_cmd_delta)

    p = sub.add_parser("ablate", help="sub-query retention ablation (mean ± std over seeds)")
    p.add_argument("--map", dest="map_path", required=True, type=Path)
    p.add_argument("--runs", required=True, type=Path)
    p.add_argument("--qrels", required=True, type=Path)
    p.add_argument("--strategy", required=True, choices=STRATEGY_KINDS)
    p.add_argument("--k", type=int, default=60)
    p.add_argument("--keep", default="1,5,10,all", help="keep counts, e.g. '1,5,10,all'")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    p.add_argument("--cutoffs", default="10,20,100")
    p.add_argument("--depth", type=int, default=None, help="fused output depth")
    p.add_argument("--json", type=Path, default=None)
    p.set_defaults(handler=_cmd_ablate)

    claims = sub.add_parser("claims", help="evidence-record operations")
    claims_sub = claims.add_subparsers(dest="claims_command", required=True)

    p = claims_sub.add_parser("validate", help="validate an evidence JSONL file")
    p.add_argument("--in", dest="in_path", required=True, type=Path)
    p.add_argument("--out", type=Path, default=None, help="write normalized records")
    p.set_defaults(handler=_cmd_claims_validate)

    p = claims_sub.add_parser("attach", help="join calibration predictions onto artifacts")
    p.add_argument("--artifacts", required=True, type=Path)
    p.add_argument("--predictions", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--unmatched", type=Path, default=None, help="write the unmatched/orphan report")
    p.set_defaults(handler=_cmd_claims_attach)

    p = claims_sub.add_parser("filter", help="threshold-filter calibrated artifacts")
    p.add_argument("--in", dest="in_path", required=True, type=Path)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--backend", default=DEFAULT_BACKEND)
    p.add_argument("--kept", required=True, type=Path)
    p.add_argument("--dropped", type=Path, default=None, help="audit file of dropped records")
    p.set_defaults(handler=_cmd_claims_filter)

    p = sub.add_parser("memory", help="operator REPL over a memory-bank file")
    p.add_argument("--bank", required=True, type=Path)
    p.add_argument("--init", action="store_true", help="start from an empty bank if the file is missing")
    p.set_defaults(handler=_cmd_memory)

    p = sub.add_parser("pipeline", help="manifest-driven retrieval pipeline run")
    p.add_argument("--config", required=True, type=Path, help="pipeline config (JSON)")
    p.add_argument("--out-dir", required=True, type=Path)
    p.set_defaults(handler=_cmd_pipeline)

    p = sub.add_parser("decompose", help="decompose queries into a sub-query map")
    p.add_argument("--queries", required=True, type=Path, help="query records (JSONL)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--endpoint", default=None, help="live decomposer URL")
    group.add_argument("--replay", type=Path, default=None, help="recorded responses (JSONL)")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--stats", action="store_true", help="print expansion statistics")
    p.set_defaults(handler=_cmd_decompose)

    return parser


def _parse_cutoffs(text: str) -> Cutoffs:
    return Cutoffs(tuple(int(v) for v in text.split(",") if v.strip()))


def _read(parse, path: Path, *args):
    """``parse(file, *args)`` of the file at ``path``, opened for binary reading and closed after."""
    with open(path, "rb") as fh:
        return parse(fh, *args)


def _lines(items) -> Iterator[bytes]:
    """Each of ``items``, serialized bytes, followed by a newline: the chunks of a JSON-lines file."""
    return (item + b"\n" for item in items)


def _cmd_fuse(args) -> int:
    runs = _read(parse_run, args.runs)
    mapping = _read(parse_subquery_map, args.map_path)
    strategy = FusionStrategy(kind=args.strategy, k_constant=args.k)
    fused = fuse_runs(mapping, runs, strategy, args.depth)
    if args.tag is not None:
        fused = RunSet(lists=fused.lists, tag=args.tag)
    write_run_file(args.out, fused, args.depth)
    print(f"fused {len(fused.lists)} queries -> {args.out}")
    return 0


def _cmd_rerank_inject(args) -> int:
    fused = _read(parse_run, args.fused)
    scores = _read(parse_run, args.scores)
    reranked = inject_rerank(fused, scores, args.depth)
    write_run_file(args.out, reranked, args.out_depth)
    print(f"reranked {len(reranked.lists)} queries -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    run = _read(parse_run, args.run)
    qrels = _read(parse_qrels, args.qrels)
    report = evaluate(
        run,
        qrels,
        _parse_cutoffs(args.cutoffs),
        on_missing=args.on_missing,
        exclude_no_relevant=args.exclude_no_relevant,
    )
    print(render_report(report, per_query=args.per_query))
    if args.json is not None:
        atomic_write(args.json, report_json_chunks(report))
    if args.records is not None:
        atomic_write(args.records, _lines(json.dumps(r).encode("utf-8") for r in report_records(report)))
    return 0


def _cmd_delta(args) -> int:
    baseline = report_from_json(args.baseline.read_bytes())
    candidate = report_from_json(args.candidate.read_bytes())
    report = delta_report(baseline, candidate)
    print(render_delta(report))
    if args.json is not None:
        payload = {
            "baseline": baseline.tag,
            "candidate": candidate.tag,
            "deltas": report.deltas,
        }
        atomic_write(args.json, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
    return 0


def _parse_keep(text: str) -> tuple:
    keeps = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        keeps.append(KEEP_ALL if item == KEEP_ALL else int(item))
    return tuple(keeps)


def _cmd_ablate(args) -> int:
    mapping = _read(parse_subquery_map, args.map_path)
    runs = _read(parse_run, args.runs)
    qrels = _read(parse_qrels, args.qrels)
    config = AblationConfig(
        keep_counts=_parse_keep(args.keep),
        seeds=tuple(int(s) for s in args.seeds.split(",") if s.strip()),
        strategy=FusionStrategy(kind=args.strategy, k_constant=args.k),
    )
    report = run_ablation(mapping, runs, qrels, config, _parse_cutoffs(args.cutoffs), args.depth)
    print(render_ablation(report))
    if args.json is not None:
        payload = {
            str(keep): {name: {"mean": m, "std": s} for name, (m, s) in row.items()}
            for keep, row in report.rows.items()
        }
        atomic_write(args.json, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
    return 0


def _cmd_claims_validate(args) -> int:
    records = _read(load_evidence, args.in_path)
    if args.out is not None:
        atomic_write(args.out, _lines(serialize(r) for r in records))
    notes = sum(1 for r in records if hasattr(r, "note_id"))
    print(f"ok: {len(records)} records ({notes} notes, {len(records) - notes} claims)")
    return 0


def _cmd_claims_attach(args) -> int:
    artifacts = _read(load_evidence, args.artifacts)
    predictions = _read(load_predictions, args.predictions)
    calibrated, report = attach(artifacts, predictions)
    atomic_write(args.out, _lines(serialize_calibrated(c) for c in calibrated))
    if args.unmatched is not None:
        payload = {
            "unmatched_artifacts": [record_to_dict(a) for a in report.unmatched_artifacts],
            "orphan_predictions": [
                {
                    "prob": p.prob,
                    "backend": p.backend,
                    "artifact_id": p.artifact_id,
                    "video_id": p.video_id,
                    "text": p.text,
                }
                for p in report.orphan_predictions
            ],
        }
        atomic_write(args.unmatched, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
    print(
        f"attached {len(calibrated)} of {len(artifacts)} artifacts "
        f"({len(report.unmatched_artifacts)} unmatched, {len(report.orphan_predictions)} orphan predictions)"
    )
    return 0


def _cmd_claims_filter(args) -> int:
    calibrated = _read(load_calibrated, args.in_path, args.backend)
    kept, dropped = filter_by_threshold(calibrated, args.threshold)
    atomic_write(args.kept, _lines(serialize_calibrated(c) for c in kept))
    if args.dropped is not None:
        audit = (
            {"prob": c.prob, "threshold": args.threshold, "record": calibrated_to_dict(c)}
            for c in dropped
        )
        atomic_write(args.dropped, _lines(json.dumps(a, ensure_ascii=False).encode("utf-8") for a in audit))
    print(f"kept {len(kept)} / dropped {len(dropped)} at threshold {args.threshold}")
    return 0


MEMORY_REPL_HELP = """commands:
  summary                         print the compact digest
  dump [slot]                     full JSON dump, or one slot
  add-fact <vid> <text> [--tool T] [--span S] [--confidence C]
  add-keyword <vid> <keyword>
  search <keyword>
  remove-fact <vid> <index>
  clear [vid]                     clear one video's facts, or all
  select <vid:index> ...          replace selected_facts
  set-findings <text> [| <text>]  whole-slot replace, '|'-separated
  mark-processed <vid> <tool>
  save | quit | help
"""


def _cmd_memory(args) -> int:
    if args.bank.exists():
        bank = MemoryBank.load(args.bank.read_bytes())
    elif args.init:
        bank = MemoryBank()
    else:
        raise ValidationError(f"bank file {args.bank} does not exist (use --init to create it)")
    interactive = sys.stdin.isatty()
    if interactive:
        print(f"memory bank: {args.bank} (type 'help' for commands)")
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        try:
            if _memory_command(bank, line, args.bank) == "quit":
                break
        except (FusekitError, ValueError, KeyError, IndexError) as e:
            print(f"error: {e}")
    atomic_write(args.bank, bank.dump())
    print(f"saved {args.bank}")
    return 0


def _memory_command(bank: MemoryBank, line: str, bank_path: Path) -> str | None:
    parts = shlex.split(line)
    command, rest = parts[0], parts[1:]
    if command == "quit":
        return "quit"
    if command == "help":
        print(MEMORY_REPL_HELP)
    elif command == "summary":
        print(bank.memory_summary())
    elif command == "dump":
        print(bank.dump(rest[0] if rest else None).decode("utf-8"), end="")
    elif command == "add-fact":
        vid, remaining = rest[0], rest[1:]
        tool, span, confidence, words = "repl", None, None, []
        i = 0
        while i < len(remaining):
            if remaining[i] == "--tool":
                tool, i = remaining[i + 1], i + 2
            elif remaining[i] == "--span":
                span, i = remaining[i + 1], i + 2
            elif remaining[i] == "--confidence":
                confidence, i = float(remaining[i + 1]), i + 2
            else:
                words.append(remaining[i])
                i += 1
        index = bank.add_fact(
            vid, FactEntry(fact=" ".join(words), source_tool=tool, timestamp=span, confidence=confidence)
        )
        print(f"added fact {vid}:{index}")
    elif command == "add-keyword":
        bank.add_keyword(rest[0], rest[1])
        print(f"tagged {rest[0]} with {rest[1]!r}")
    elif command == "search":
        matches = bank.search_by_keyword(rest[0])
        for vid in matches.videos:
            print(f"video {vid}")
        for vid, idx, entry in matches.facts:
            print(f"fact {vid}:{idx} {entry.fact}")
        if not matches.videos and not matches.facts:
            print("no matches")
    elif command == "remove-fact":
        bank.remove_fact(rest[0], int(rest[1]))
        print(f"removed fact {rest[0]}:{rest[1]}")
    elif command == "clear":
        bank.clear_facts(rest[0] if rest else None)
        print("cleared")
    elif command == "select":
        references = []
        for ref in rest:
            vid, _, idx = ref.rpartition(":")
            references.append((vid, int(idx)))
        bank.select_facts(references)
        print(f"selected {len(references)} facts")
    elif command == "set-findings":
        text = " ".join(rest)
        bank.set_findings([part.strip() for part in text.split("|") if part.strip()])
        print(f"findings: {len(bank.findings)}")
    elif command == "mark-processed":
        bank.mark_processed(rest[0], rest[1])
        print(f"{rest[0]} processed via {rest[1]}")
    elif command == "save":
        atomic_write(bank_path, bank.dump())
        print(f"saved {bank_path}")
    else:
        print(f"unknown command {command!r} (type 'help')")
    return None


def _cmd_pipeline(args) -> int:
    raw = _loads(args.config.read_bytes())
    config = PipelineConfig.from_dict(raw)
    base = args.config.parent
    inputs = raw.get("inputs", {})

    def _resolve(name):
        return (base / inputs[name]) if name in inputs else None

    decomposer = retriever = None
    endpoints = _endpoints_with_env(config.endpoints)
    if "decomposer" in endpoints:
        from .clients import HttpDecomposer

        decomposer = HttpDecomposer(endpoints["decomposer"])
    if "retriever" in endpoints:
        from .clients import HttpRetriever

        retriever = HttpRetriever(endpoints["retriever"])
    result = run_pipeline(
        config,
        args.out_dir,
        queries_path=_resolve("queries"),
        subquery_map_path=_resolve("subquery_map"),
        subquery_runs_path=_resolve("subquery_runs"),
        rerank_path=_resolve("rerank"),
        decomposer=decomposer,
        retriever=retriever,
    )
    for name, path in result.stage_paths.items():
        print(f"wrote {path}")
    print(f"wrote {result.manifest_path}")
    return 0


def _endpoints_with_env(endpoints: dict) -> dict:
    import os

    merged = dict(endpoints)
    for name in ENDPOINT_NAMES:
        value = os.environ.get(f"FUSEKIT_{name.upper()}_URL")
        if value:
            merged[name] = value
    return merged


def _cmd_decompose(args) -> int:
    records = _read(read_query_records, args.queries)
    if args.replay is not None:
        from .clients import ReplayDecomposer

        decomposer = _read(ReplayDecomposer.from_jsonl, args.replay)
    else:
        from .clients import HttpDecomposer

        decomposer = HttpDecomposer(args.endpoint)
    mapping, results = decompose_all(records, decomposer)
    atomic_write(args.out, write_subquery_map(mapping))
    fallbacks = sum(1 for r in results if r.fallback_used)
    print(f"decomposed {len(results)} queries ({fallbacks} fallbacks) -> {args.out}")
    if args.stats:
        stats = expansion_stats(mapping)
        print(stats.formatted())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
