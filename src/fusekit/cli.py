"""Command-line front end.

Subcommands: fuse, rerank-inject, eval, delta, ablate,
claims (validate | attach | filter), memory, pipeline, decompose.

Exit codes: 0 success; 1 for a ParseError or ValidationError, bad argument
values included; 2 for a TransportError or OSError, or a pipeline stage
error caused by one. Each of these is also written to stderr as one JSON
record. Any other exception is a bug and propagates with its traceback.
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
from .clients import HttpDecomposer, ReplayDecomposer
from .core import (
    RunSet,
    _iter_lines,
    _parse_in_halves,
    _plain_number,
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
    _check_threshold,
    attach,
    calibrated_to_dict,  # unused here, but perfbench's traced mode rebinds fusekit.cli.calibrated_to_dict
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
    except (FusekitError, OSError) as e:
        cause = e.cause if isinstance(e, PipelineStageError) else e
        record = {"error": type(e).__name__, "message": str(e)}
        if isinstance(cause, ParseError) and cause.line is not None:
            record["line"] = cause.line
        print(json.dumps(record), file=sys.stderr)
        return 2 if isinstance(cause, (TransportError, OSError)) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fusekit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fusekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="fuse per-sub-query runs into one run per query")
    p.add_argument("--runs", required=True, type=Path, help="per-sub-query run file")
    p.add_argument("--map", dest="map_path", required=True, type=Path, help="sub-query map (JSONL)")
    p.add_argument("--strategy", required=True, choices=STRATEGY_KINDS)
    p.add_argument("--k", default="60", help="rrf smoothing constant (default 60)")
    p.add_argument("--depth", default="1000", help="fused output depth (default 1000)")
    p.add_argument("--tag", default=None, help="run tag (default: strategy label)")
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(handler=_cmd_fuse)

    p = sub.add_parser("rerank-inject", help="reorder each fused head by external scores")
    p.add_argument("--fused", required=True, type=Path)
    p.add_argument("--scores", required=True, type=Path, help="external rerank scores (run file)")
    p.add_argument("--depth", default="100", help="rerank head depth (default 100)")
    p.add_argument("--out-depth", default="1000", help="entries per query to write")
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
    p.add_argument("--k", default="60")
    p.add_argument("--keep", default="1,5,10,all", help="keep counts, e.g. '1,5,10,all'")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    p.add_argument("--cutoffs", default="10,20,100")
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
    p.add_argument("--threshold", default="0.5")
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


def _number(text: str, option: str, kind: type = int):
    """The plain ASCII number (see ``core._plain_number``) ``text`` given to ``option``; else a ValidationError."""
    try:
        return _plain_number(text, kind)
    except ValueError:
        raise ValidationError(f"{option} takes {'an integer' if kind is int else 'a number'}, got {text!r}") from None


def _int_list(text: str, option: str, words: tuple[str, ...] = ()) -> tuple:
    """The comma-separated integers (or ``words``) of ``option``; any other item is a ValidationError."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    try:
        return tuple(item if item in words else _plain_number(item) for item in items)
    except ValueError:
        allowed = " or ".join(("integers", *map(repr, words)))
        raise ValidationError(f"{option} takes comma-separated {allowed}, got {text!r}") from None


def _read(parse, path: Path, *args):
    """``parse(file, *args)`` of the file at ``path``, opened for binary reading and closed after."""
    with open(path, "rb") as fh:
        return parse(fh, *args)


def _write_json(path: Path, payload) -> None:
    """Write ``payload`` to ``path`` as indented JSON and a final newline."""
    atomic_write(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def _lines(items) -> Iterator[bytes]:
    """Each of ``items``, serialized bytes, followed by a newline: the chunks of a JSON-lines file."""
    return (item + b"\n" for item in items)


def _cmd_fuse(args) -> int:
    k, depth = _number(args.k, "--k"), _number(args.depth, "--depth")
    runs = _read(parse_run, args.runs)
    mapping = _read(parse_subquery_map, args.map_path)
    strategy = FusionStrategy(kind=args.strategy, k_constant=k)
    fused = fuse_runs(mapping, runs, strategy, depth)
    if args.tag is not None:
        fused = RunSet(lists=fused.lists, tag=args.tag)
    write_run_file(args.out, fused, depth)
    print(f"fused {len(fused.lists)} queries -> {args.out}")
    return 0


def _cmd_rerank_inject(args) -> int:
    depth, out_depth = _number(args.depth, "--depth"), _number(args.out_depth, "--out-depth")
    fused = _read(parse_run, args.fused)
    scores = _read(parse_run, args.scores)
    reranked = inject_rerank(fused, scores, depth)
    write_run_file(args.out, reranked, out_depth)
    print(f"reranked {len(reranked.lists)} queries -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    run = _read(parse_run, args.run)
    qrels = _read(parse_qrels, args.qrels)
    report = evaluate(
        run,
        qrels,
        Cutoffs(_int_list(args.cutoffs, "--cutoffs")),
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
        _write_json(args.json, payload)
    return 0


def _cmd_ablate(args) -> int:
    k = _number(args.k, "--k")
    mapping = _read(parse_subquery_map, args.map_path)
    runs = _read(parse_run, args.runs)
    qrels = _read(parse_qrels, args.qrels)
    config = AblationConfig(
        keep_counts=_int_list(args.keep, "--keep", (KEEP_ALL,)),
        seeds=_int_list(args.seeds, "--seeds"),
        strategy=FusionStrategy(kind=args.strategy, k_constant=k),
    )
    report = run_ablation(mapping, runs, qrels, config, Cutoffs(_int_list(args.cutoffs, "--cutoffs")))
    print(render_ablation(report))
    if args.json is not None:
        payload = {
            str(keep): {name: {"mean": m, "std": s} for name, (m, s) in row.items()}
            for keep, row in report.rows.items()
        }
        _write_json(args.json, payload)
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
        _write_json(args.unmatched, payload)
    print(
        f"attached {len(calibrated)} of {len(artifacts)} artifacts "
        f"({len(report.unmatched_artifacts)} unmatched, {len(report.orphan_predictions)} orphan predictions)"
    )
    return 0


def _cmd_claims_filter(args) -> int:
    threshold = _number(args.threshold, "--threshold", float)
    _check_threshold(threshold)  # before the input is opened, so its error comes before any of the file's
    halves = _read(_parse_in_halves, args.in_path, lambda source: _filtered(source, args, threshold), iter, _joined)
    kept, audit, kept_counts, dropped_counts = zip(*halves)
    atomic_write(args.kept, kept)
    if args.dropped is not None:
        atomic_write(args.dropped, audit)
    print(f"kept {sum(kept_counts)} / dropped {sum(dropped_counts)} at threshold {threshold}")
    return 0


def _filtered(source, args, threshold: float) -> list[tuple[bytes, bytes, int, int]]:
    """One half of ``claims filter``: the kept lines and audit lines of ``source``, and how many records each holds.

    Every record is checked as ``load_calibrated`` reads it, and is written
    as the stripped line it was read from: a kept record as that line, a
    dropped one as the ``record`` of its audit line. So a record keeps its
    other backends' payloads and any keys the library does not know.
    """
    data = source.read()
    items = load_calibrated(data, args.backend)
    # the lines load_calibrated read, one per record; it found them valid UTF-8 and JSON
    line_of = dict(zip(map(id, items), (line for line in map(str.strip, _iter_lines(data)) if line)))
    kept, dropped = filter_by_threshold(items, threshold)
    kept_lines = "".join(line_of[id(c)] + "\n" for c in kept).encode("utf-8")
    audit_lines = b""
    if args.dropped is not None:
        # json.dumps({"prob": ..., "threshold": ..., "record": ...}, ensure_ascii=False), the record as read
        threshold_json = json.dumps(threshold)
        audit_lines = "".join(
            f'{{"prob": {json.dumps(c.prob)}, "threshold": {threshold_json}, "record": {line_of[id(c)]}}}\n'
            for c in dropped
        ).encode("utf-8")
    return [(kept_lines, audit_lines, len(kept), len(dropped))]


def _joined(first: list, records: Iterator) -> list:
    """The first half's output and the second half's, in file order."""
    return first + list(records)


def _cmd_memory(args) -> int:
    if args.bank.exists():
        bank = MemoryBank.load(args.bank.read_bytes())
    elif args.init:
        bank = MemoryBank()
    else:
        raise ValidationError(f"bank file {args.bank} does not exist (use --init to create it)")
    if sys.stdin.isatty():
        print(f"memory bank: {args.bank} (type 'help' for commands)")
    for line in map(str.strip, sys.stdin):
        try:
            if line and _memory_command(bank, args.bank, line):
                break
        except FusekitError as e:
            print(f"error: {e}")
    _memory_command(bank, args.bank, "save")
    return 0


def _memory_command(bank: MemoryBank, path: Path, line: str) -> bool:
    """Run one REPL line as its ``MEMORY_COMMANDS`` entry declares; True if it ends the session."""
    try:
        line.encode("utf-8")  # stdin turns a byte it cannot decode into a lone surrogate
        command, *words = shlex.split(line)
    except ValueError as e:  # that surrogate, an unclosed quote or a trailing backslash
        raise ValidationError(f"cannot read the line: {e}") from None
    if command not in MEMORY_COMMANDS:
        print(f"unknown command {command!r} (type 'help')")
        return False
    usage, _, action = MEMORY_COMMANDS[command]
    head, *option_usages = usage.split(" [--")  # a usage declares its options last
    specs, option_names = head.split()[1:], {option.split()[0] for option in option_usages}
    options, positional, words = {}, [], iter(words)
    for word in words:
        if word.startswith("--") and word[2:] in option_names:
            options[word[2:]] = next(words, None)
        else:
            positional.append(word)
    fewest = sum(spec.startswith("<") for spec in specs)
    most = len(positional) if "..." in usage else len(specs)  # only the last spec may be variadic
    if not fewest <= len(positional) <= most or None in options.values():
        raise ValidationError(f"{command}: expected {usage}")
    arguments = []
    for i, spec in enumerate(specs):
        name = spec.strip("<>[].")
        if spec.endswith("..."):
            arguments.append([_typed(command, name, word) for word in positional[i:]])
        else:
            arguments.append(_typed(command, name, positional[i]) if i < len(positional) else None)
    options = {name: _typed(command, name, word) for name, word in options.items()}
    reply = action(bank, path, *arguments, **options)
    if reply is not None:
        print(reply)
    return command == "quit"


def _typed(command: str, name: str, word: str):
    """``word`` converted as ``_MEMORY_TYPES`` says for the placeholder ``name``, or as it is."""
    try:
        return _MEMORY_TYPES.get(name, str)(word)
    except ValueError:
        raise ValidationError(f"{command}: {word!r} is not a valid <{name}>") from None


def _reference(word: str) -> tuple[str, int]:
    vid, index = word.rsplit(":", 1)
    return vid, _plain_number(index)


def _memory_add_fact(bank: MemoryBank, _, vid: str, words: list, tool="repl", span=None, confidence=None) -> str:
    entry = FactEntry(fact=" ".join(words), source_tool=tool, timestamp=span, confidence=confidence)
    return f"added fact {vid}:{bank.add_fact(vid, entry)}"


def _memory_add_keyword(bank: MemoryBank, _, vid: str, keyword: str) -> str:
    bank.add_keyword(vid, keyword)
    return f"tagged {vid} with {keyword!r}"


def _memory_search(bank: MemoryBank, _, keyword: str) -> str:
    matches = bank.search_by_keyword(keyword)
    lines = [f"video {vid}" for vid in matches.videos]
    lines += [f"fact {vid}:{idx} {entry.fact}" for vid, idx, entry in matches.facts]
    return "\n".join(lines or ["no matches"])


def _memory_remove_fact(bank: MemoryBank, _, vid: str, index: int) -> str:
    bank.remove_fact(vid, index)
    return f"removed fact {vid}:{index}"


def _memory_clear(bank: MemoryBank, _, vid: str | None) -> str:
    bank.clear_facts(vid)
    return "cleared"


def _memory_select(bank: MemoryBank, _, references: list) -> str:
    bank.select_facts(references)
    return f"selected {len(references)} facts"


def _memory_set_findings(bank: MemoryBank, _, words: list) -> str:
    bank.set_findings([f for f in map(str.strip, " ".join(words).split("|")) if f])
    return f"findings: {len(bank.findings)}"


def _memory_mark_processed(bank: MemoryBank, _, vid: str, tool: str) -> str:
    bank.mark_processed(vid, tool)
    return f"{vid} processed via {tool}"


def _memory_save(bank: MemoryBank, path: Path) -> str:
    atomic_write(path, bank.dump())
    return f"saved {path}"


def _memory_help(*_) -> str:
    return "\n".join(["commands:", *(f"  {usage:<30} {note}" for usage, note, _ in MEMORY_COMMANDS.values())])


_MEMORY_TYPES = {"index": _plain_number, "confidence": lambda word: _plain_number(word, float), "vid:index": _reference}
# Each REPL command once: its usage, which is its grammar (<a> takes one word, [a] at most one, <a>...
# one or more, [a]... any number, [--name <a>] an option anywhere), a help note and its action, which
# returns the reply to print. Actions call the bank through the instance: a traced benchmark run
# rebinds MemoryBank's methods on the class.
MEMORY_COMMANDS = {usage.split()[0]: (usage, note, action) for usage, note, action in [
    ("summary", "print the compact digest", lambda bank, _: bank.memory_summary()),
    ("dump [slot]", "full JSON dump, or one slot",
     lambda bank, _, slot: bank.dump(slot).decode().removesuffix("\n")),
    ("add-fact <vid> <text>... [--tool <tool>] [--span <span>] [--confidence <confidence>]",
     "append a fact (source tool 'repl' by default)", _memory_add_fact),
    ("add-keyword <vid> <keyword>", "tag a video with a keyword", _memory_add_keyword),
    ("search <keyword>", "tagged videos and facts containing the keyword", _memory_search),
    ("remove-fact <vid> <index>", "delete one fact; later ones shift down", _memory_remove_fact),
    ("clear [vid]", "clear one video's facts, or all", _memory_clear),
    ("select [vid:index]...", "replace selected_facts", _memory_select),
    ("set-findings [text]...", "whole-slot replace, '|'-separated", _memory_set_findings),
    ("mark-processed <vid> <tool>", "record a tool run; the video is processed", _memory_mark_processed),
    ("save", "write the bank file now", _memory_save),
    ("quit", "save and leave, as the end of input does", lambda *_: None),  # _memory_command ends the session
    ("help", "print this list", _memory_help),
]}


def _cmd_pipeline(args) -> int:
    result = run_pipeline(PipelineConfig.load(args.config), args.out_dir)
    for path in result.stage_paths.values():
        print(f"wrote {path}")
    print(f"wrote {result.manifest_path}")
    return 0


def _cmd_decompose(args) -> int:
    records = _read(read_query_records, args.queries)
    if args.replay is not None:
        decomposer = _read(ReplayDecomposer.from_jsonl, args.replay)
    else:
        decomposer = HttpDecomposer(args.endpoint)
    mapping, results = decompose_all(records, decomposer)
    stats = expansion_stats(mapping) if args.stats else None  # before the write: an empty map fails here
    atomic_write(args.out, write_subquery_map(mapping))
    fallbacks = sum(1 for r in results if r.fallback_used)
    print(f"decomposed {len(results)} queries ({fallbacks} fallbacks) -> {args.out}")
    if stats is not None:
        print(stats.formatted())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
