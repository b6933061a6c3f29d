"""Mutated and random input is either accepted or rejected cleanly.

Every parser and loader is fed the shipped fixtures after a few random
byte edits, or after one node of their JSON replaced by a random JSON
value. A library call either returns or raises ParseError/ValidationError.
An in-process CLI call either exits 0 with every JSON or JSON-lines file
it writes free of NaN/Infinity tokens, or exits 1
with exactly one JSON error record on stderr and no output file (a
pipeline config may also name an input path that cannot be read, and a
replay file may lose a query's recorded response, each of which exits 2
with one record). The example budgets are small so the suite
stays a quick tier-1 check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fusekit import FactEntry, MemoryBank, ParseError, ValidationError, errors
from fusekit.ablation import fuse_runs
from fusekit.cli import MEMORY_COMMANDS, main
from fusekit.clients import ReplayDecomposer
from fusekit.core import iter_jsonl, parse_qrels, parse_run, parse_subquery_map
from fusekit.evidence import (
    attach,
    load_calibrated,
    load_evidence,
    load_predictions,
    serialize_calibrated,
)
from fusekit.fusion import STRATEGY_KINDS, FusionStrategy
from fusekit.metrics import evaluate, report_from_json, report_to_json
from fusekit.pipeline import PipelineConfig, read_query_records

FIXTURES = Path(__file__).parent / "fixtures"
PIPE = FIXTURES / "pipeline"
EVID = FIXTURES / "evidence"


def _calibrated_fixture() -> bytes:
    artifacts = load_evidence((EVID / "artifacts.jsonl").read_bytes())
    predictions = load_predictions((EVID / "predictions.jsonl").read_bytes())
    calibrated, _ = attach(artifacts, predictions)
    return b"".join(serialize_calibrated(c) + b"\n" for c in calibrated)


def _bank_fixture() -> bytes:
    bank = MemoryBank()
    bank.add_fact("vidA", FactEntry(fact="crowd gathers", source_tool="caption", timestamp="2-3s"))
    bank.add_fact("vidB", FactEntry(fact="rescue shown", confidence=0.9))
    bank.add_keyword("vidA", "election")
    bank.set_findings(["sources disagree"])
    bank.select_facts([("vidB", 0)])
    bank.mark_processed("vidA", "caption", path="a.mp4", caption="news")
    return bank.dump()


def _report_fixture() -> bytes:
    mapping = parse_subquery_map((PIPE / "subquery_map.jsonl").read_bytes())
    runs = parse_run((PIPE / "subqueries.run").read_bytes())
    fused = fuse_runs(mapping, runs, FusionStrategy("rrf", 10), 50)
    return report_to_json(evaluate(fused, parse_qrels((PIPE / "qrels.txt").read_bytes())))


def _config_fixture() -> bytes:
    config = json.loads((PIPE / "config.json").read_text())
    config["inputs"] = {name: str(PIPE / path) for name, path in config["inputs"].items()}
    return json.dumps(config).encode()


INPUTS = {
    "run": (PIPE / "subqueries.run").read_bytes(),
    "qrels": (PIPE / "qrels.txt").read_bytes(),
    "map": (PIPE / "subquery_map.jsonl").read_bytes(),
    "queries": (PIPE / "queries.jsonl").read_bytes(),
    "replay": (PIPE / "decomposer_replay.jsonl").read_bytes(),
    "artifacts": (EVID / "artifacts.jsonl").read_bytes(),
    "predictions": (EVID / "predictions.jsonl").read_bytes(),
    "calibrated": _calibrated_fixture(),
    "bank": _bank_fixture(),
    "report": _report_fixture(),
    "config": _config_fixture(),
}

# JSON values of every kind, including numbers no float holds and the NaN/Infinity
# tokens json.loads accepts
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, 1, -1, 10**400])
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["", " ", "x y", "pending", "processed", "rrf", "unli", "10s-15s"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# bytes that delimit or end tokens in the run, qrels and JSON formats, plus invalid UTF-8
SPECIAL_BYTES = b' \t\n\r{}[]",:0-.eE\x00\xff\xc3'


@st.composite
def mutated_json(draw, value):
    """``value`` with one node, at a random depth, replaced by a random JSON value or removed."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
        copy = dict(value) if isinstance(value, dict) else list(value)
        if draw(st.integers(0, 5)) == 0:
            del copy[key]
        else:
            copy[key] = draw(mutated_json(value[key]))
        return copy
    return draw(JSON_VALUES)


@st.composite
def mutated_bytes(draw, data: bytes):
    """``data`` after one to four byte edits: overwrite, insert, delete, cut or repeat a line."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(out)))
        byte = draw(st.sampled_from(SPECIAL_BYTES) | st.integers(0, 255))
        edit = draw(st.sampled_from(("set", "insert", "delete", "cut", "repeat")))
        if edit == "set" and pos < len(out):
            out[pos] = byte
        elif edit == "insert":
            out.insert(pos, byte)
        elif edit == "delete":
            del out[pos:pos + draw(st.integers(1, 8))]
        elif edit == "cut":
            del out[pos:]
        elif edit == "repeat":
            start = out.rfind(b"\n", 0, pos) + 1
            end = out.find(b"\n", pos)
            out[start:start] = out[start:len(out) if end < 0 else end + 1]
    return bytes(out)


@st.composite
def mutated_lines(draw, data: bytes):
    """A JSON-lines file with one line's value mutated as ``mutated_json`` does."""
    lines = data.decode().splitlines()
    index = draw(st.integers(0, len(lines) - 1))
    lines[index] = json.dumps(draw(mutated_json(json.loads(lines[index]))))
    return "\n".join(lines).encode() + b"\n"


def mutated(name: str):
    data = INPUTS[name]
    if name in ("run", "qrels"):
        return mutated_bytes(data)
    if name in ("bank", "report", "config"):
        return mutated_bytes(data) | mutated_json(json.loads(data)).map(lambda v: json.dumps(v).encode())
    return mutated_bytes(data) | mutated_lines(data)


# parser -> (strategy for its input, the call)
PARSERS = {
    "parse_run": (mutated("run"), parse_run),
    "parse_qrels": (mutated("qrels"), parse_qrels),
    "parse_subquery_map": (mutated("map"), parse_subquery_map),
    "iter_jsonl": (mutated("artifacts"), lambda data: list(iter_jsonl(data))),
    "read_query_records": (mutated("queries"), read_query_records),
    "ReplayDecomposer.from_jsonl": (mutated("replay"), ReplayDecomposer.from_jsonl),
    "load_evidence": (mutated("artifacts"), load_evidence),
    "load_predictions": (mutated("predictions"), load_predictions),
    "load_calibrated": (mutated("calibrated"), load_calibrated),
    "MemoryBank.load": (mutated("bank"), MemoryBank.load),
    "report_from_json": (mutated("report"), report_from_json),
    "PipelineConfig.from_dict": (mutated_json(json.loads(INPUTS["config"])), PipelineConfig.from_dict),
}


@pytest.mark.parametrize("name", list(PARSERS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_library_parsers_accept_or_reject_cleanly(name, data):
    inputs, parse = PARSERS[name]
    try:
        parse(data.draw(inputs))
    except (ParseError, ValidationError):
        pass


def _strict_json(text: str):
    def reject(token):
        raise AssertionError(f"non-JSON token {token} in output")

    return json.loads(text, parse_constant=reject)


def _run_cli(argv: list, stdin: str = "", out: io.StringIO | None = None) -> tuple[int, str]:
    """Run the CLI in this process; its stdout goes to ``out`` if given."""
    err = io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out or io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    finally:
        sys.stdin = old_stdin
    return code, err.getvalue()


def _check_exit(code: int, err: str, out_dir: Path, allow_io_error: bool = False) -> None:
    """Exit 0 with strict JSON in every JSON output, or one JSON error record and nothing written."""
    outputs = sorted(out_dir.iterdir()) if out_dir.exists() else []
    if code == 0:
        assert err == ""
        for path in outputs:
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".jsonl":
                # only "\n" ends a JSON line: str.splitlines would also split inside a string
                # at a raw U+0085 or U+2028, which JSON lets through unescaped; a blank line
                # inside the file still fails, as only the final newline is dropped
                for line in text.removesuffix("\n").split("\n") if text else ():
                    _strict_json(line)
            elif path.suffix == ".json":
                _strict_json(text)
        return
    [line] = err.splitlines()
    record = json.loads(line)
    assert set(record) <= {"error", "message", "line"} and "message" in record
    if code == 2 and allow_io_error:
        assert record["error"] in ("FileNotFoundError", "IsADirectoryError", "NotADirectoryError", "OSError")
    else:
        assert code == 1
        # only bad input exits 1: any other exception is a bug and leaves main with its traceback
        assert issubclass(getattr(errors, record["error"]), errors.FusekitError)
    assert outputs == []


# command -> (fixture mutated into its input, its argv given the input path and the output dir)
CLI_CASES = {
    "claims-validate": ("artifacts", lambda i, o: ["claims", "validate", "--in", i, "--out", o / "out.jsonl"]),
    "claims-attach-artifacts": ("artifacts", lambda i, o: [
        "claims", "attach", "--artifacts", i, "--predictions", EVID / "predictions.jsonl",
        "--out", o / "out.jsonl", "--unmatched", o / "unmatched.json",
    ]),
    "claims-attach-predictions": ("predictions", lambda i, o: [
        "claims", "attach", "--artifacts", EVID / "artifacts.jsonl", "--predictions", i,
        "--out", o / "out.jsonl", "--unmatched", o / "unmatched.json",
    ]),
    "claims-filter": ("calibrated", lambda i, o: [
        "claims", "filter", "--in", i, "--kept", o / "kept.jsonl", "--dropped", o / "dropped.jsonl",
    ]),
    "delta": ("report", lambda i, o: [
        "delta", "--baseline", i.with_name("baseline.json"), "--candidate", i, "--json", o / "delta.json",
    ]),
}


@pytest.mark.parametrize("case", list(CLI_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cli_file_commands_exit_cleanly(case, data):
    name, argv = CLI_CASES[case]
    raw = data.draw(mutated(name))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "baseline.json").write_bytes(INPUTS["report"])
        (tmp / "input").write_bytes(raw)
        out_dir = tmp / "out"
        out_dir.mkdir()
        code, err = _run_cli(argv(tmp / "input", out_dir))
        _check_exit(code, err, out_dir)


@settings(max_examples=25, deadline=None)
@given(raw=mutated("replay"))
def test_cli_decompose_replay_exits_cleanly(raw):
    with tempfile.TemporaryDirectory() as tmp:
        replay = Path(tmp) / "replay.jsonl"
        replay.write_bytes(raw)
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        argv = ["decompose", "--queries", PIPE / "queries.jsonl", "--replay", replay, "--out", out_dir / "map.jsonl"]
        code, err = _run_cli(argv)
        if code == 2:  # the mutation removed a query's recorded response
            [line] = err.splitlines()
            record = json.loads(line)
            assert record["error"] == "PipelineStageError" and "no recorded decomposition" in record["message"]
            assert list(out_dir.iterdir()) == []
        else:
            _check_exit(code, err, out_dir)


@settings(max_examples=25, deadline=None)
@given(raw=mutated("bank"))
def test_cli_memory_exits_cleanly(raw):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        bank = out_dir / "bank.json"
        bank.write_bytes(raw)
        code, err = _run_cli(["memory", "--bank", bank], stdin="summary\nsearch rescue\ndump\nsave\nquit\n")
        if code != 0:
            assert bank.read_bytes() == raw  # a rejected bank is left as it was
            bank.unlink()
        _check_exit(code, err, out_dir)


# words a REPL line may carry after its command: numbers, references, the add-fact options,
# stray quotes, short texts and the lone surrogate stdin makes of a byte it cannot decode
REPL_WORDS = (
    st.integers(-2, 3).map(str)
    | st.builds("{}:{}".format, st.sampled_from(["vidA", "vidB", "v1", ""]), st.integers(-1, 2))
    | st.sampled_from(["--tool", "--span", "--confidence", "0.5", "nan", "'", '"', "|", "findings", "\udcff"])
    | st.text(alphabet="ab:|-'\"", min_size=1, max_size=4)
)
REPL_LINES = st.builds(
    lambda command, words: " ".join([command, *words]),
    st.sampled_from(list(MEMORY_COMMANDS)),
    st.lists(REPL_WORDS, max_size=5),
)
RAW_PYTHON_MESSAGES = ("list index out of range", "invalid literal", "unpack", "has no attribute")


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(REPL_LINES, min_size=1, max_size=8))
def test_cli_memory_repl_lines_exit_cleanly(lines):
    with tempfile.TemporaryDirectory() as tmp:
        bank = Path(tmp) / "bank.json"
        bank.write_bytes(INPUTS["bank"])
        out = io.StringIO()
        assert _run_cli(["memory", "--bank", bank], stdin="\n".join(lines) + "\n", out=out) == (0, "")
        MemoryBank.load(bank.read_bytes())
        for line in out.getvalue().splitlines():
            assert not any(message in line for message in RAW_PYTHON_MESSAGES), line


def test_cli_memory_help_lists_each_command_once_in_table_order():
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        code, err = _run_cli(["memory", "--bank", Path(tmp) / "bank.json", "--init"], stdin="help\n", out=out)
    assert (code, err) == (0, "")
    header, *commands, saved = out.getvalue().splitlines()
    assert header == "commands:" and saved.startswith("saved ")
    assert [line.split()[0] for line in commands] == list(MEMORY_COMMANDS)


@settings(max_examples=25, deadline=None)
@given(raw=mutated("config"))
def test_cli_pipeline_config_exits_cleanly(raw):
    try:
        endpoints = json.loads(raw).get("endpoints")
    except (ValueError, AttributeError):
        endpoints = None
    # a config naming a service endpoint would start a network client
    assume(not (isinstance(endpoints, dict) and any(isinstance(url, str) for url in endpoints.values())))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_bytes(raw)
        out_dir = Path(tmp) / "out"
        code, err = _run_cli(["pipeline", "--config", config, "--out-dir", out_dir])
        _check_exit(code, err, out_dir, allow_io_error=True)
        if code == 0:
            assert (out_dir / "manifest.json").is_file()
        else:
            assert not out_dir.exists()


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(STRATEGY_KINDS), depth=st.integers(max_value=-1))
def test_cli_fuse_negative_depth_is_one_validation_error(kind, depth):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        code, err = _run_cli([
            "fuse", "--runs", PIPE / "subqueries.run", "--map", PIPE / "subquery_map.jsonl",
            "--strategy", kind, "--depth", depth, "--out", out_dir / "fused.run",
        ])
        assert code == 1
        message = f"depth must be a positive integer, got {depth}"
        assert json.loads(err) == {"error": "ValidationError", "message": message}
        assert list(out_dir.iterdir()) == []
