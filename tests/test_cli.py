from __future__ import annotations

import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusekit import parse_run, write_run
from fusekit.ablation import fuse_runs
from fusekit.cli import main
from fusekit.core import parse_subquery_map
from fusekit.fusion import FusionStrategy
from fusekit.memory import FactEntry, MemoryBank
from fusekit.pipeline import PipelineConfig

from conftest import DEEP_JSON

FIXTURES = Path(__file__).parent / "fixtures"
PIPE = FIXTURES / "pipeline"
EVID = FIXTURES / "evidence"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# fuse / rerank-inject
# ---------------------------------------------------------------------------


def test_fuse_cli_matches_library_bytes(tmp_path, capsys):
    out = tmp_path / "fused.run"
    code = run_cli(
        "fuse",
        "--runs", PIPE / "subqueries.run",
        "--map", PIPE / "subquery_map.jsonl",
        "--strategy", "rrf", "--k", "10", "--depth", "100",
        "--out", out,
    )
    assert code == 0
    runs = parse_run((PIPE / "subqueries.run").read_bytes())
    mapping = parse_subquery_map((PIPE / "subquery_map.jsonl").read_bytes())
    expected = write_run(fuse_runs(mapping, runs, FusionStrategy("rrf", 10), 100), 100)
    assert out.read_bytes() == expected


def test_rerank_inject_cli(tmp_path):
    fused = tmp_path / "fused.run"
    run_cli(
        "fuse", "--runs", PIPE / "subqueries.run", "--map", PIPE / "subquery_map.jsonl",
        "--strategy", "rrf", "--k", "10", "--depth", "50", "--out", fused,
    )
    out = tmp_path / "reranked.run"
    code = run_cli(
        "rerank-inject", "--fused", fused, "--scores", PIPE / "rerank.run",
        "--depth", "5", "--out", out,
    )
    assert code == 0
    reranked = parse_run(out.read_bytes())
    original = parse_run(fused.read_bytes())
    for qid in original.lists:
        assert sorted(reranked.lists[qid].docs()) == sorted(original.lists[qid].docs())
        assert reranked.lists[qid].docs()[:5] != original.lists[qid].docs()[:5]


# ---------------------------------------------------------------------------
# eval / delta
# ---------------------------------------------------------------------------


def _write_perfect_fixture(tmp_path: Path):
    run = tmp_path / "run.txt"
    qrels = tmp_path / "qrels.txt"
    run.write_text("q1 Q0 dA 1 0.9 perfect\nq1 Q0 dB 2 0.5 perfect\n")
    qrels.write_text("q1 0 dA 1\nq1 0 dB 0\n")
    return run, qrels


def test_eval_cli_prints_perfect_scores(tmp_path, capsys):
    run, qrels = _write_perfect_fixture(tmp_path)
    code = run_cli("eval", "--run", run, "--qrels", qrels, "--cutoffs", "10")
    assert code == 0
    out = capsys.readouterr().out
    assert re.search(r"nDCG@10\s*=\s*1\.000", out)
    assert re.search(r"R@10\s*=\s*1\.000", out)


def test_eval_cli_writes_report_and_records(tmp_path):
    run, qrels = _write_perfect_fixture(tmp_path)
    report_path = tmp_path / "report.json"
    records_path = tmp_path / "records.jsonl"
    run_cli(
        "eval", "--run", run, "--qrels", qrels, "--cutoffs", "10,20",
        "--json", report_path, "--records", records_path,
    )
    payload = json.loads(report_path.read_text())
    assert payload["aggregate"]["nDCG@10"] == 1.0
    records = [json.loads(line) for line in records_path.read_text().splitlines()]
    assert {r["metric"] for r in records} == {"nDCG@10", "nDCG@20", "R@10", "R@20"}


def _report_file(tmp_path: Path, name: str, aggregate: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps({"tag": name, "aggregate": aggregate, "per_query": {}}))
    return path


def test_delta_cli_prints_expected_value(tmp_path, capsys):
    baseline = _report_file(tmp_path, "base.json", {"nDCG@10": 0.195, "R@100": 0.494})
    candidate = _report_file(tmp_path, "cand.json", {"nDCG@10": 0.542, "R@100": 0.494})
    code = run_cli("delta", "--baseline", baseline, "--candidate", candidate)
    assert code == 0
    out = capsys.readouterr().out
    assert "177.95" in out
    assert "N/A" in out


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"aggregate": {"nDCG@10": 0.5}, "per_query": []}', "ValidationError"),
        ('{"aggregate": {"nDCG@10": "a"}}', "ValidationError"),
        ('{"aggregate": []}', "ValidationError"),
        ('{"aggregate": ', "ParseError"),
    ],
    ids=["per_query-array", "metric-string", "aggregate-array", "truncated"],
)
def test_delta_cli_rejects_malformed_reports(tmp_path, capsys, text, error):
    baseline = _report_file(tmp_path, "base.json", {"nDCG@10": 0.5})
    candidate = tmp_path / "cand.json"
    candidate.write_text(text)
    out = tmp_path / "delta.json"
    assert run_cli("delta", "--baseline", baseline, "--candidate", candidate, "--json", out) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == error
    assert not out.exists()


def test_delta_cli_of_reports_on_other_queries_exits_1_with_one_error(tmp_path, capsys):
    reports = []
    for name, rows in (("base.json", {"q1": 0.5}), ("cand.json", {"q1": 0.5, "q2": 1.0})):
        path = tmp_path / name
        aggregate = {"nDCG@10": sum(rows.values()) / len(rows)}
        per_query = {q: {"nDCG@10": v} for q, v in rows.items()}
        path.write_text(json.dumps({"tag": name, "aggregate": aggregate, "per_query": per_query}))
        reports.append(path)
    out = tmp_path / "delta.json"
    assert run_cli("delta", "--baseline", reports[0], "--candidate", reports[1], "--json", out) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert json.loads(line) == {
        "error": "ValidationError",
        "message": "reports cover different queries: 1 in the baseline, 2 in the candidate; "
        "missing from the candidate: [], missing from the baseline: ['q2']",
    }
    assert captured.out == "" and not out.exists()


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def test_ablate_cli(tmp_path, capsys):
    out_json = tmp_path / "ablation.json"
    code = run_cli(
        "ablate",
        "--map", PIPE / "subquery_map.jsonl",
        "--runs", PIPE / "subqueries.run",
        "--qrels", PIPE / "qrels.txt",
        "--strategy", "max_sim",
        "--keep", "1,2,all",
        "--seeds", "0,1,2",
        "--cutoffs", "5,10",
        "--json", out_json,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1 random" in out and "All" in out
    payload = json.loads(out_json.read_text())
    assert payload["all"]["nDCG@5"]["std"] == 0.0


@pytest.mark.parametrize("flag, value", [("--seeds", "0,0,1"), ("--keep", "1,1")])
def test_ablate_cli_rejects_a_repeated_seed_or_keep_count(tmp_path, capsys, flag, value):
    argv = {"--keep": "1,all", "--seeds": "0,1", flag: value}
    code = run_cli(
        "ablate",
        "--map", PIPE / "subquery_map.jsonl",
        "--runs", PIPE / "subqueries.run",
        "--qrels", PIPE / "qrels.txt",
        "--strategy", "rrf",
        "--cutoffs", "5",
        *[item for pair in argv.items() for item in pair],
        "--json", tmp_path / "ablation.json",
    )
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ValidationError"
    assert "given twice" in record["message"]
    assert not (tmp_path / "ablation.json").exists()


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


def test_claims_validate_cli(capsys):
    code = run_cli("claims", "validate", "--in", EVID / "artifacts.jsonl")
    assert code == 0
    assert "4 records" in capsys.readouterr().out


def test_claims_validate_reads_back_the_records_it_wrote(tmp_path, capsys):
    note = {"note_id": "n1", "video_id": "v1", "topic": "t", "text": "a\u2028b", "modality": "ocr"}
    path, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    path.write_text(json.dumps(note) + "\n")
    assert run_cli("claims", "validate", "--in", path, "--out", out) == 0
    assert out.read_bytes() == json.dumps(note).encode() + b"\n"  # the line end escaped, as it was read
    assert run_cli("claims", "validate", "--in", out) == 0
    assert capsys.readouterr().out.splitlines() == ["ok: 1 records (1 notes, 0 claims)"] * 2


def test_claims_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"claim_id": "c1"}\n')
    code = run_cli("claims", "validate", "--in", bad)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["line"] == 1


def test_claims_attach_and_filter_flow(tmp_path, capsys):
    calibrated = tmp_path / "calibrated.jsonl"
    unmatched = tmp_path / "unmatched.json"
    code = run_cli(
        "claims", "attach",
        "--artifacts", EVID / "artifacts.jsonl",
        "--predictions", EVID / "predictions.jsonl",
        "--out", calibrated,
        "--unmatched", unmatched,
    )
    assert code == 0
    lines = [json.loads(line) for line in calibrated.read_text().splitlines()]
    assert len(lines) == 3  # 4 artifacts, 1 without any prediction
    documented = next(l for l in lines if l.get("claim_id", "").endswith("-000"))
    assert documented["calibration"]["unli"]["prob"] == 0.95
    report = json.loads(unmatched.read_text())
    assert len(report["unmatched_artifacts"]) == 1
    assert len(report["orphan_predictions"]) == 1

    kept_path = tmp_path / "kept.jsonl"
    dropped_path = tmp_path / "dropped.jsonl"
    code = run_cli(
        "claims", "filter", "--in", calibrated, "--threshold", "0.5",
        "--kept", kept_path, "--dropped", dropped_path,
    )
    assert code == 0
    kept = [json.loads(line) for line in kept_path.read_text().splitlines()]
    dropped = [json.loads(line) for line in dropped_path.read_text().splitlines()]
    assert len(kept) == 2  # probs 0.95 and 0.55 pass, 0.4 drops
    assert len(dropped) == 1
    assert dropped[0]["prob"] == 0.4
    assert dropped[0]["threshold"] == 0.5
    assert "record" in dropped[0]


# ---------------------------------------------------------------------------
# memory REPL (subprocess: exercises stdin loop and the entry point)
# ---------------------------------------------------------------------------


def test_memory_repl_subprocess(tmp_path):
    bank_path = tmp_path / "bank.json"
    script = "\n".join(
        [
            "add-fact vidA rescue boats deployed --tool video_qa --span 8-15s --confidence 1.0",
            "add-keyword vidA rescue",
            "summary",
            "search rescue",
            "dump findings",
            "quit",
        ]
    )
    result = subprocess.run(
        [sys.executable, "-m", "fusekit.cli", "memory", "--bank", str(bank_path), "--init"],
        input=script,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "added fact vidA:0" in result.stdout
    assert "1 facts" in result.stdout
    bank = json.loads(bank_path.read_text())
    assert bank["fact_table"]["vidA"][0]["timestamp"] == "8-15s"
    assert bank["keywords"]["vidA"] == ["rescue"]


def test_memory_missing_bank_without_init(tmp_path, capsys):
    code = run_cli("memory", "--bank", tmp_path / "nope.json")
    assert code == 1


def test_memory_repl_reports_an_unknown_video_without_quotes(tmp_path, capsys, monkeypatch):
    bank_path = tmp_path / "bank.json"
    monkeypatch.setattr(sys, "stdin", io.StringIO("add-fact v1 a\nclear nope\nremove-fact nope 0\nremove-fact v1 3\n"))
    assert run_cli("memory", "--bank", bank_path, "--init") == 0
    assert capsys.readouterr().out.splitlines()[1:4] == [
        "error: no facts recorded for video 'nope'",
        "error: no facts recorded for video 'nope'",
        "error: fact index 3 out of range for video 'v1' (1 facts)",
    ]


@pytest.mark.parametrize("line, command", [
    ("add-keyword v1", "add-keyword"),
    ("add-fact", "add-fact"),
    ("search", "search"),
    ("add-fact v1 hi --confidence", "add-fact"),
    ("add-fact v1 hi --confidence q", "add-fact"),
    ("remove-fact v1 x", "remove-fact"),
    ("remove-fact v1 \u0661", "remove-fact"),  # int() reads the Arabic-Indic digit as fact 1
    ("remove-fact v1 0_0", "remove-fact"),
    ("add-fact v1 hi --confidence 0_5", "add-fact"),
    ("add-fact v1 hi --confidence \u0660.\u0665", "add-fact"),
    ("select v1:\u0660", "select"),
    ("select v1", "select"),
    ("add-keyword v1 a b", "add-keyword"),
    ("mark-processed v1 t extra", "mark-processed"),
    ("clear v1 v2", "clear"),
    ("save now", "save"),
    ('add-fact v1 "unclosed', None),
    ("add-fact v1 \udcff", None),  # a byte stdin could not decode
])
def test_memory_repl_rejects_a_malformed_line_with_one_error(tmp_path, capsys, monkeypatch, line, command):
    bank = MemoryBank()
    bank.add_fact("v1", FactEntry(fact="a"))
    bank_path = tmp_path / "bank.json"
    bank_path.write_bytes(bank.dump())
    monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
    assert run_cli("memory", "--bank", bank_path) == 0
    error, saved = capsys.readouterr().out.splitlines()
    assert error.startswith(f"error: {command}: " if command else "error: "), error
    assert saved == f"saved {bank_path}"
    assert bank_path.read_bytes() == bank.dump()


def test_memory_repl_reads_a_quoted_word_that_spans_usage_text_as_fact_text(tmp_path, capsys, monkeypatch):
    # only a whole word such as --span is an option, not any text found in the usage string
    bank_path = tmp_path / "bank.json"
    monkeypatch.setattr(sys, "stdin", io.StringIO('add-fact v1 x "--span <span>] [--confidence" 1\n'))
    assert run_cli("memory", "--bank", bank_path, "--init") == 0
    assert capsys.readouterr().out.splitlines() == ["added fact v1:0", f"saved {bank_path}"]
    [entry] = MemoryBank.load(bank_path.read_bytes()).fact_table["v1"]
    assert (entry.fact, entry.source_tool) == ("x --span <span>] [--confidence 1", "repl")


# ---------------------------------------------------------------------------
# pipeline / decompose
# ---------------------------------------------------------------------------


def test_pipeline_cli_offline(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = run_cli("pipeline", "--config", PIPE / "config.json", "--out-dir", out_dir)
    assert code == 0
    for name in ("subqueries.run", "fused.run", "reranked.run", "manifest.json"):
        assert (out_dir / name).exists()


def test_decompose_cli_with_replay(tmp_path, capsys):
    out = tmp_path / "map.jsonl"
    code = run_cli(
        "decompose",
        "--queries", PIPE / "queries.jsonl",
        "--replay", PIPE / "decomposer_replay.jsonl",
        "--out", out,
        "--stats",
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "1 fallbacks" in stdout
    mapping = parse_subquery_map(out.read_bytes())
    assert len(mapping.groups) == 3
    assert len(mapping.groups["3"]) == 1  # fallback probe


def test_fuse_cli_reads_the_map_decompose_wrote(tmp_path, capsys):
    queries, replay, runs = tmp_path / "queries.jsonl", tmp_path / "replay.jsonl", tmp_path / "subq.run"
    queries.write_text(json.dumps({"query_id": "1", "query": "storm damage"}) + "\n")
    replay.write_text(json.dumps({"query_id": "1", "response": json.dumps(["a\u0085b", "c"])}) + "\n")
    runs.write_text("1-s000 Q0 d1 1 0.5 t\n1-s001 Q0 d2 1 0.5 t\n")
    map_path, out = tmp_path / "map.jsonl", tmp_path / "fused.run"
    assert run_cli("decompose", "--queries", queries, "--replay", replay, "--out", map_path) == 0
    assert parse_subquery_map(map_path.read_bytes()).groups == {"1": (("1-s000", "a\x85b"), ("1-s001", "c"))}
    assert run_cli("fuse", "--runs", runs, "--map", map_path, "--strategy", "rrf", "--out", out) == 0
    assert capsys.readouterr().err == ""
    assert parse_run(out.read_bytes()).lists["1"].docs() == ("d1", "d2")


def test_decompose_cli_falls_back_on_a_reply_json_cannot_read(tmp_path, capsys):
    replay = tmp_path / "replay.jsonl"
    replay.write_text(json.dumps({"query_id": "1", "response": DEEP_JSON}) + "\n")
    queries = tmp_path / "queries.jsonl"
    queries.write_text(json.dumps({"query_id": "1", "query": "storm damage"}) + "\n")
    out = tmp_path / "map.jsonl"
    code = run_cli("decompose", "--queries", queries, "--replay", replay, "--out", out)
    assert code == 0
    assert "decomposed 1 queries (1 fallbacks)" in capsys.readouterr().out
    assert parse_subquery_map(out.read_bytes()).groups == {"1": (("1-s000", "storm damage"),)}


def test_decompose_cli_rejects_a_repeated_query_id(tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    queries.write_text(
        "".join(json.dumps({"query_id": "1", "query": q}) + "\n" for q in ("first", "second"))
    )
    out = tmp_path / "map.jsonl"
    code = run_cli(
        "decompose", "--queries", queries, "--replay", PIPE / "decomposer_replay.jsonl", "--out", out
    )
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert (record["error"], record["line"]) == ("ParseError", 2)
    assert "query '1' appears in two query records" in record["message"]
    assert not out.exists()


def test_decompose_cli_stats_on_no_queries_writes_no_map(tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    queries.write_text("")
    out = tmp_path / "map.jsonl"
    code = run_cli(
        "decompose", "--queries", queries, "--replay", PIPE / "decomposer_replay.jsonl",
        "--out", out, "--stats",
    )
    assert code == 1
    assert _error_record(capsys) == {
        "error": "ValidationError", "message": "expansion stats require a non-empty sub-query map"
    }
    assert not out.exists()


@pytest.mark.parametrize(
    "inputs", [{"subquery_runs": "subqueries.run"}, {"subquery_map": "subquery_map.jsonl"}],
    ids=["no-decompose-source", "no-retrieve-source"],
)
def test_pipeline_cli_rejects_a_stage_with_no_source(tmp_path, capsys, monkeypatch, inputs):
    for name in ("DECOMPOSER", "RETRIEVER"):
        monkeypatch.delenv(f"FUSEKIT_{name}_URL", raising=False)
    out_dir = tmp_path / "out"
    code = run_cli("pipeline", "--config", fixture_config_with(tmp_path, inputs=inputs), "--out-dir", out_dir)
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ValidationError"
    assert "has no source" in record["message"]
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_code_validation_error(tmp_path, capsys):
    run = tmp_path / "a.run"
    run.write_text("q1 Q0 dA 1 0.9 t\n")
    qrels = tmp_path / "q.txt"
    qrels.write_text("q1 0 dA 1\n")
    code = run_cli("eval", "--run", run, "--qrels", qrels, "--cutoffs", "10,5")
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"


@pytest.mark.parametrize(
    "run_text, qrels_text",
    [
        ("q1 Q0 dA 1 0.9 t\nq1 Q0 dA 2 0.1 t\n", "q1 0 dA 1\n"),
        ("q1 Q0 dA 1 0.9 t\n", "q1 0 dA 1\nq1 0 dA 0\n"),
    ],
    ids=["run", "qrels"],
)
def test_duplicate_entry_error_record_names_its_line(tmp_path, capsys, run_text, qrels_text):
    run, qrels = tmp_path / "a.run", tmp_path / "q.txt"
    run.write_text(run_text)
    qrels.write_text(qrels_text)
    assert run_cli("eval", "--run", run, "--qrels", qrels) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["line"]) == ("ParseError", 2)


@pytest.mark.parametrize(
    "run_text, qrels_text, message",
    [
        ("q Q0 d 1 0.5 t\nq Q0 e 2 1_0 t\n", "q 0 d 1\n", "line 2: non-numeric score '1_0'"),
        ("q Q0 d 1 1.5 t\nq Q0 e 2 \u0661.\u0665 t\n", "q 0 d 1\n", "line 2: non-numeric score '\u0661.\u0665'"),
        ("q Q0 d 1 0.5 t\n", "q 0 c 1\nq 0 d \u0663\n", "line 2: non-integer grade '\u0663'"),
    ],
    ids=["score-underscore", "score-non-ascii-digits", "grade-non-ascii-digit"],
)
def test_eval_cli_rejects_numbers_python_reads_but_no_file_may_hold(tmp_path, capsys, run_text, qrels_text, message):
    run, qrels = tmp_path / "a.run", tmp_path / "q.txt"
    run.write_text(run_text, encoding="utf-8")
    qrels.write_text(qrels_text, encoding="utf-8")
    assert run_cli("eval", "--run", run, "--qrels", qrels, "--json", tmp_path / "report.json") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ParseError", "message": message, "line": 2}
    assert not (tmp_path / "report.json").exists()


def test_fuse_cli_rejects_non_finite_score_with_line(tmp_path, capsys):
    runs = tmp_path / "subq.run"
    runs.write_text("1-s000 Q0 vA 1 0.5 t\n1-s000 Q0 vB 2 nan t\n")
    code = run_cli(
        "fuse", "--runs", runs, "--map", PIPE / "subquery_map.jsonl",
        "--strategy", "sum_sim", "--out", tmp_path / "fused.run",
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["line"] == 2
    assert not (tmp_path / "fused.run").exists()


def test_pipeline_cli_rejects_misspelled_config_key(tmp_path, capsys):
    config = json.loads((PIPE / "config.json").read_text())
    config["rerank_dpeth"] = config.pop("rerank_depth")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run_cli("pipeline", "--config", path, "--out-dir", tmp_path / "out")
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "rerank_dpeth" in err["message"]


def test_pipeline_cli_rejects_a_misspelled_input_name(tmp_path, capsys):
    config = json.loads((PIPE / "config.json").read_text())
    config["inputs"]["rerank_run"] = config["inputs"].pop("rerank")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert run_cli("pipeline", "--config", path, "--out-dir", out_dir) == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ValidationError"
    assert "rerank_run" in record["message"]
    assert not out_dir.exists()


def test_decompose_cli_transport_error_names_query(tmp_path, capsys):
    replay = tmp_path / "replay.jsonl"
    replay.write_text(json.dumps({"query_id": "1", "response": "[\"a\"]"}) + "\n")
    code = run_cli(
        "decompose", "--queries", PIPE / "queries.jsonl", "--replay", replay,
        "--out", tmp_path / "map.jsonl",
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "query '2'" in err["message"]
    assert "decompose" in err["message"]


def _error_record(capsys) -> dict:
    [line] = capsys.readouterr().err.splitlines()
    return json.loads(line)


@pytest.mark.parametrize("repeat", [False, True], ids=["whitespace", "repeated"])
def test_fuse_cli_names_the_map_line_of_a_bad_sub_query_id(tmp_path, capsys, repeat):
    first, second = [json.loads(line) for line in (PIPE / "subquery_map.jsonl").read_text().splitlines()[:2]]
    second["sub_queries"][0]["id"] = first["sub_queries"][0]["id"] if repeat else "a b"
    map_path = tmp_path / "map.jsonl"
    map_path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    out = tmp_path / "fused.run"
    code = run_cli(
        "fuse", "--runs", PIPE / "subqueries.run", "--map", map_path, "--strategy", "rrf", "--out", out
    )
    assert code == 1
    record = _error_record(capsys)
    assert (record["error"], record["line"]) == ("ParseError", 2)
    assert not out.exists()


@pytest.mark.parametrize(
    "bad", [{"query_id": ["1"], "response": "[]"}, {"query_id": "1", "response": 5}], ids=["list-id", "number"]
)
def test_decompose_cli_names_the_replay_line_of_a_bad_record(tmp_path, capsys, bad):
    replay = tmp_path / "replay.jsonl"
    replay.write_text(json.dumps({"query_id": "0", "response": "[]"}) + "\n" + json.dumps(bad) + "\n")
    out = tmp_path / "map.jsonl"
    code = run_cli("decompose", "--queries", PIPE / "queries.jsonl", "--replay", replay, "--out", out)
    assert code == 1
    record = _error_record(capsys)
    assert (record["error"], record["line"]) == ("ParseError", 2)
    assert not out.exists()


def test_decompose_cli_names_the_replay_line_of_a_repeated_query_id(tmp_path, capsys):
    replay = tmp_path / "replay.jsonl"
    replay.write_text("".join(json.dumps({"query_id": "1", "response": r}) + "\n" for r in ('["a"]', '["b"]')))
    out = tmp_path / "map.jsonl"
    code = run_cli("decompose", "--queries", PIPE / "queries.jsonl", "--replay", replay, "--out", out)
    assert code == 1
    record = _error_record(capsys)
    assert (record["error"], record["line"]) == ("ParseError", 2)
    assert not out.exists()


def test_decompose_cli_names_the_query_line_of_a_query_id_that_is_not_a_string(tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    queries.write_text(json.dumps({"query_id": ["1"], "query": "x"}) + "\n")
    out = tmp_path / "map.jsonl"
    code = run_cli(
        "decompose", "--queries", queries, "--replay", PIPE / "decomposer_replay.jsonl", "--out", out
    )
    assert code == 1
    record = _error_record(capsys)
    assert (record["error"], record["line"]) == ("ParseError", 1)
    assert not out.exists()


@pytest.mark.parametrize(
    "artifact, prediction",
    [
        ({}, {"prob": True}),
        ({}, {"prob": "0.5"}),
        ({"confidence": "0.5"}, {"prob": 0.5}),
        ({"timestamp": [True, "3"]}, {"prob": 0.5}),
    ],
    ids=["prob-true", "prob-string", "confidence-string", "timestamp-bool-string"],
)
def test_claims_attach_rejects_numbers_that_are_not_json_numbers(tmp_path, capsys, artifact, prediction):
    claim = {"claim_id": "c1", "query_id": "q1", "video_id": "v1", "topic": "t", "claim": "x", **artifact}
    artifacts = tmp_path / "artifacts.jsonl"
    artifacts.write_text(json.dumps(claim) + "\n")
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(json.dumps({"artifact_id": "c1", **prediction}) + "\n")
    out = tmp_path / "out.jsonl"
    code = run_cli("claims", "attach", "--artifacts", artifacts, "--predictions", predictions, "--out", out)
    assert code == 1
    record = _error_record(capsys)
    assert (record["error"], record["line"]) == ("ParseError", 1)
    assert "must be a number" in record["message"] or "must be numbers" in record["message"]
    assert not out.exists()


def test_exit_code_io_error(tmp_path, capsys):
    code = run_cli("eval", "--run", tmp_path / "missing.run", "--qrels", tmp_path / "q.txt")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "message" in err


def test_entry_point_subprocess_version():
    result = subprocess.run(
        [sys.executable, "-m", "fusekit.cli", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "fusekit" in result.stdout


def test_endpoint_env_overrides(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    config = {"inputs": {"queries": "q.jsonl"}, "endpoints": {"retriever": "http://cfg-host/retrieve"}}
    path.write_text(json.dumps(config))
    monkeypatch.delenv("FUSEKIT_RETRIEVER_URL", raising=False)
    monkeypatch.setenv("FUSEKIT_DECOMPOSER_URL", "http://env-host/decompose")
    merged = PipelineConfig.load(path).endpoints
    assert merged["decomposer"] == "http://env-host/decompose"
    assert merged["retriever"] == "http://cfg-host/retrieve"
    monkeypatch.setenv("FUSEKIT_RETRIEVER_URL", "http://env-host/retrieve")
    merged = PipelineConfig.load(path).endpoints
    assert merged["retriever"] == "http://env-host/retrieve"


def fixture_config_with(tmp_path, **changes) -> Path:
    path = tmp_path / "config.json"
    config = {**json.loads((PIPE / "config.json").read_text()), **changes}
    config["inputs"] = {name: str(PIPE / value) for name, value in config["inputs"].items()}
    path.write_text(json.dumps(config))
    return path


def assert_rejected_for_two_sources(code, capsys, out_dir):
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ValidationError"
    assert "inputs.subquery_runs" in record["message"]
    assert "endpoints.retriever" in record["message"]
    assert not out_dir.exists()


def test_pipeline_cli_rejects_a_retriever_endpoint_beside_a_run_file(tmp_path, capsys, monkeypatch):
    # the endpoint would never be contacted, yet the manifest would list it
    monkeypatch.delenv("FUSEKIT_RETRIEVER_URL", raising=False)
    path = fixture_config_with(tmp_path, endpoints={"retriever": "http://127.0.0.1:9/never"})
    out_dir = tmp_path / "out"
    code = run_cli("pipeline", "--config", path, "--out-dir", out_dir)
    assert_rejected_for_two_sources(code, capsys, out_dir)


def test_pipeline_cli_rejects_a_retriever_url_from_the_environment_beside_a_run_file(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("FUSEKIT_RETRIEVER_URL", "http://127.0.0.1:9/never")
    out_dir = tmp_path / "out"
    code = run_cli("pipeline", "--config", PIPE / "config.json", "--out-dir", out_dir)
    assert_rejected_for_two_sources(code, capsys, out_dir)


def test_pipeline_cli_error_record_carries_the_cause_line(tmp_path, capsys):
    map_path = tmp_path / "map.jsonl"
    good = (PIPE / "subquery_map.jsonl").read_text().splitlines()[0]
    map_path.write_text(good + "\n{not json\n")
    config = json.loads((PIPE / "config.json").read_text())
    config["inputs"] = {
        "subquery_map": str(map_path),
        "subquery_runs": str(PIPE / "subqueries.run"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run_cli("pipeline", "--config", path, "--out-dir", tmp_path / "out")
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "PipelineStageError"
    assert record["line"] == 2


def test_claims_filter_rejects_non_object_calibration(tmp_path, capsys):
    path = tmp_path / "calibrated.jsonl"
    record = json.loads((EVID / "artifacts.jsonl").read_text().splitlines()[0])
    record["calibration"] = 5
    path.write_text(json.dumps(record) + "\n")
    code = run_cli("claims", "filter", "--in", path, "--kept", tmp_path / "kept.jsonl")
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["line"] == 1


NOTE = {"note_id": "n1", "video_id": "v1", "topic": "t", "text": "a note", "modality": "ocr"}


def run_filter(tmp_path, text: str, threshold: str = "0.5") -> tuple[int, list[str], list[dict]]:
    """``claims filter`` of ``text`` at ``threshold``: its exit code, kept lines and dropped audit records."""
    path, kept, dropped = tmp_path / "in.jsonl", tmp_path / "kept.jsonl", tmp_path / "dropped.jsonl"
    path.write_text(text, encoding="utf-8")
    code = run_cli("claims", "filter", "--in", path, "--threshold", threshold, "--kept", kept, "--dropped", dropped)
    if code:
        return code, [], []
    audit = [json.loads(line) for line in dropped.read_text(encoding="utf-8").splitlines()]
    return code, kept.read_text(encoding="utf-8").splitlines(), audit


def test_claims_filter_writes_each_kept_record_as_it_read_it(tmp_path, capsys):
    two_backends = dict(NOTE, calibration={"unli": {"prob": 0.9}, "nli2": {"prob": 0.1, "raw": {"x": 1}}}, extra=7)
    unknown_key = dict(NOTE, note_id="n2", calibration={"unli": {"prob": 0.6, "seen": "é"}}, annotator={"id": 3})
    dropped = dict(NOTE, note_id="n3", calibration={"unli": {"prob": 0.2}, "nli2": {"prob": 0.99}}, extra=[1])
    lines = [
        json.dumps(two_backends),
        "  " + json.dumps(unknown_key, ensure_ascii=False, separators=(",", ":")) + "\t",
        json.dumps(dropped),
    ]
    code, kept, audit = run_filter(tmp_path, "\n".join(lines[:2]) + "\n\n" + lines[2] + "\n")
    assert code == 0
    assert kept == [line.strip() for line in lines[:2]]
    assert audit == [{"prob": 0.2, "threshold": 0.5, "record": dropped}]


def test_claims_filter_bad_payload_still_fails_with_its_line(tmp_path, capsys):
    good = json.dumps(dict(NOTE, calibration={"unli": {"prob": 0.9}, "nli2": {"prob": 0.1}}))
    bad = json.dumps(dict(NOTE, note_id="n2", calibration={"unli": {"prob": 1.5}}))
    code, _, _ = run_filter(tmp_path, f"{good}\n\n{bad}\n")
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["line"]) == ("ParseError", 3)
    assert not (tmp_path / "kept.jsonl").exists()


EXTRA_VALUES = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=5) | st.integers()


@st.composite
def calibrated_lines(draw) -> str:
    """One calibrated note as a JSON line, written in one of several styles, with extra keys and backends."""
    record = dict(NOTE, note_id=draw(st.sampled_from(["n1", "n2", "n3"])))
    record.update(draw(st.dictionaries(st.sampled_from(["x", "y", "z"]), EXTRA_VALUES, max_size=2)))
    record["calibration"] = {"unli": {"prob": draw(st.floats(0.0, 1.0))}}
    if draw(st.booleans()):
        record["calibration"]["nli2"] = {"prob": draw(st.floats(0.0, 1.0))}
    separators = draw(st.sampled_from([(", ", ": "), (",", ":")]))
    text = json.dumps(record, ensure_ascii=draw(st.booleans()), separators=separators)
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", "  ", "\r"]))


@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(calibrated_lines() | st.sampled_from(["", "   "]), max_size=8),
    threshold=st.sampled_from(["0", "0.5", "1"]),
)
def test_claims_filter_kept_and_dropped_are_the_input_lines_in_order(tmp_path_factory, lines, threshold):
    code, kept, audit = run_filter(tmp_path_factory.mktemp("filter"), "\n".join(lines) + "\n", threshold)
    assert code == 0
    records = [line.strip() for line in lines if line.strip()]
    keeps = [json.loads(line)["calibration"]["unli"]["prob"] >= float(threshold) for line in records]
    assert kept == [line for line, keep in zip(records, keeps) if keep]
    assert [a["record"] for a in audit] == [json.loads(line) for line, keep in zip(records, keeps) if not keep]


def test_memory_cli_rejects_bank_slot_of_the_wrong_type(tmp_path, capsys, monkeypatch):
    bank = json.loads(MemoryBank().dump())
    bank["keywords"] = []
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(bank))
    monkeypatch.setattr(sys, "stdin", io.StringIO("summary\n"))
    code = run_cli("memory", "--bank", path)
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


@pytest.mark.parametrize("slot", ["findings", "selected_facts"])
def test_memory_cli_rejects_non_string_findings_and_selected_facts(tmp_path, capsys, monkeypatch, slot):
    bank = json.loads(MemoryBank().dump())
    bank[slot] = [{"a": 1}, None]
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(bank))
    before = path.read_bytes()
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"dump {slot}\nsave\nquit\n"))
    assert run_cli("memory", "--bank", path) == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ValidationError"
    assert slot in record["message"]
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "timestamp",
    ["[NaN, NaN]", "[0, Infinity]", "[-Infinity, 1]"],
    ids=["nan", "inf-end", "-inf-start"],
)
def test_claims_validate_rejects_non_finite_timestamp(tmp_path, capsys, timestamp):
    good = (EVID / "artifacts.jsonl").read_text().splitlines()[0]
    bad = json.loads(good)
    bad["timestamp"] = [0.0, 1.0]
    path = tmp_path / "notes.jsonl"
    path.write_text(good + "\n" + json.dumps(bad).replace("[0.0, 1.0]", timestamp) + "\n")
    out = tmp_path / "out.jsonl"
    assert run_cli("claims", "validate", "--in", path, "--out", out) == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ParseError"
    assert record["line"] == 2
    assert "finite" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("topic", 5), ("note_id", 7), ("claim_id", 7), ("evidence", 3)],
)
def test_claims_validate_rejects_non_string_text_fields(tmp_path, capsys, key, value):
    records = [json.loads(line) for line in (EVID / "artifacts.jsonl").read_text().splitlines()]
    target = next(i for i, r in enumerate(records) if key in r)
    records[target][key] = value
    path = tmp_path / "artifacts.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out.jsonl"
    assert run_cli("claims", "validate", "--in", path, "--out", out) == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ParseError"
    assert record["line"] == target + 1
    assert key in record["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "qrels_text",
    ["q1 0 d1 2000\n", "q1 0 d1 1023\nq1 0 d2 1023\nq1 0 d3 1023\n"],
    ids=["one-grade", "fsum"],
)
def test_eval_cli_rejects_gains_beyond_the_float_range(tmp_path, capsys, qrels_text):
    run = tmp_path / "run.txt"
    run.write_text("q1 Q0 d1 1 1.0 t\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text(qrels_text)
    assert run_cli("eval", "--run", run, "--qrels", qrels) == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ValidationError"
    assert "'q1'" in record["message"]


def test_eval_cli_rejects_a_huge_grade_at_once(tmp_path, capsys):
    run = tmp_path / "run.txt"
    run.write_text("q1 Q0 d1 1 1.0 t\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text(f"q1 0 d1 {10**8}\n")
    start = time.perf_counter()
    assert run_cli("eval", "--run", run, "--qrels", qrels) == 1
    # the gain overflows as a float at once, not after building the exact 2**(10**8)
    assert time.perf_counter() - start < 0.25
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ValidationError"
    assert "DCG exceeds the float range" in record["message"]


def test_memory_cli_rejects_a_fact_confidence_of_the_wrong_type(tmp_path, capsys, monkeypatch):
    bank = json.loads(MemoryBank().dump())
    bank["fact_table"] = {"v1": [{"fact": "x", "confidence": [1]}]}
    bank["videos"] = {"v1": {"status": "pending", "tools_used": []}}
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(bank))
    monkeypatch.setattr(sys, "stdin", io.StringIO("summary\n"))
    assert run_cli("memory", "--bank", path) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


@pytest.mark.parametrize("key, value", [("text", 5), ("video_id", ["v1"])])
def test_claims_attach_rejects_non_string_prediction_fields(tmp_path, capsys, key, value):
    path = tmp_path / "predictions.jsonl"
    path.write_text(json.dumps({"video_id": "v1", "text": "t", "prob": 0.5, key: value}) + "\n")
    out = tmp_path / "out.jsonl"
    code = run_cli(
        "claims", "attach", "--artifacts", EVID / "artifacts.jsonl", "--predictions", path, "--out", out
    )
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ParseError"
    assert record["line"] == 1
    assert key in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["1.5", "-0.1", "nan"])
def test_claims_filter_reports_a_bad_threshold_before_a_malformed_file(tmp_path, capsys, threshold):
    path = tmp_path / "calibrated.jsonl"
    path.write_text("not json\n")
    kept = tmp_path / "kept.jsonl"
    assert run_cli("claims", "filter", "--in", path, "--threshold", threshold, "--kept", kept) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "ValidationError", "message": f"threshold must be in [0, 1], got {float(threshold)}"
    }
    assert not kept.exists()


@pytest.mark.parametrize("command", [["validate", "--out"], ["filter", "--kept"]], ids=["validate", "filter"])
def test_claims_reject_a_lone_surrogate_escape_with_its_line(tmp_path, capsys, command):
    # the escape "\udc00" is valid JSON, but no character, so no UTF-8 output could hold it
    record = json.loads((EVID / "artifacts.jsonl").read_text().splitlines()[0])
    record["calibration"] = {"unli": {"prob": 0.9}}
    paired = json.dumps({**record, "topic": "\U0001f600"})  # written as the escape pair \ud83d\ude00
    lone = json.dumps({**record, "topic": "\udc00"})
    path = tmp_path / "calibrated.jsonl"
    path.write_text(f"{paired}\n{lone}\n")
    out = tmp_path / "out.jsonl"
    assert run_cli("claims", command[0], "--in", path, *command[1:], out) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "ParseError", "message": "line 2: invalid JSON: lone surrogate '\\udc00' in a string", "line": 2
    }
    assert not out.exists()


@pytest.mark.parametrize("raw", [{"raw_output": 7}, "oops"])
def test_claims_filter_rejects_a_malformed_raw_payload(tmp_path, capsys, raw):
    record = json.loads((EVID / "artifacts.jsonl").read_text().splitlines()[0])
    record["calibration"] = {"unli": {"prob": 0.9, "raw": raw}}
    path = tmp_path / "calibrated.jsonl"
    path.write_text(json.dumps(record) + "\n")
    kept = tmp_path / "kept.jsonl"
    assert run_cli("claims", "filter", "--in", path, "--kept", kept) == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ParseError"
    assert record["line"] == 1
    assert "raw" in record["message"]
    assert not kept.exists()


@pytest.mark.parametrize(
    "change",
    # "seeds" is no longer a config key: any value of it is rejected as an unknown key
    [{"seeds": 5}, {"endpoints": 5}, {"inputs": {"rerank": 5}}, {"strategy": {"kind": "rrf", "k": 1.5}},
     {"inputs": {"subquery_map": str(PIPE / "subquery_map.jsonl"), "subquery_runs": str(PIPE / "subqueries.run"),
                 "rerank": str(PIPE / "re\0rank.run")}}],
    ids=["seeds", "endpoints", "inputs", "k", "input-path-with-nul"],
)
def test_pipeline_cli_rejects_config_values_of_the_wrong_type(tmp_path, capsys, change):
    config = {**json.loads((PIPE / "config.json").read_text()), **change}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert run_cli("pipeline", "--config", path, "--out-dir", out_dir) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "ValidationError"
    assert not out_dir.exists()


def test_pipeline_cli_rejects_a_config_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"strategy": ')
    assert run_cli("pipeline", "--config", path, "--out-dir", tmp_path / "out") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "ParseError"


def _bank_with_a_lone_surrogate(tmp_path: Path) -> tuple[list, Path]:
    bank = json.loads(MemoryBank().dump())
    bank["findings"] = ["\udc00"]
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(bank))
    return ["memory", "--bank", path], path


def _config_with_a_lone_surrogate(tmp_path: Path) -> tuple[list, Path]:
    config = json.loads((PIPE / "config.json").read_text())
    config["strategy"]["kind"] = "rrf\udc00"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return ["pipeline", "--config", path, "--out-dir", tmp_path / "out"], tmp_path / "out"


def _report_with_a_lone_surrogate(tmp_path: Path) -> tuple[list, Path]:
    baseline = _report_file(tmp_path, "base.json", {"nDCG@10": 0.5})
    candidate = tmp_path / "cand.json"
    candidate.write_text(json.dumps({"tag": "cand\udc00", "aggregate": {"nDCG@10": 0.5}, "per_query": {}}))
    out = tmp_path / "delta.json"
    return ["delta", "--baseline", baseline, "--candidate", candidate, "--json", out], out


@pytest.mark.parametrize(
    "make", [_bank_with_a_lone_surrogate, _config_with_a_lone_surrogate, _report_with_a_lone_surrogate],
    ids=["bank", "config", "report"],
)
def test_cli_rejects_a_json_document_holding_a_lone_surrogate_escape(tmp_path, capsys, monkeypatch, make):
    # json.dumps writes "\udc00" as its escape, which json.loads reads back as no character
    argv, written = make(tmp_path)
    before = written.read_bytes() if written.exists() else None
    monkeypatch.setattr(sys, "stdin", io.StringIO("add-keyword v1 k\n"))
    assert run_cli(*argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ParseError", "message": "invalid JSON: lone surrogate '\\udc00' in a string"}
    assert (written.read_bytes() if written.exists() else None) == before


def test_decompose_cli_falls_back_on_a_reply_holding_a_lone_surrogate_escape(tmp_path, capsys, caplog):
    replay = tmp_path / "replay.jsonl"
    replay.write_text(json.dumps({"query_id": "1", "response": '["ok \\ud800 sub"]'}) + "\n")
    queries = tmp_path / "queries.jsonl"
    queries.write_text(json.dumps({"query_id": "1", "query": "storm damage"}) + "\n")
    out = tmp_path / "map.jsonl"
    code = run_cli("decompose", "--queries", queries, "--replay", replay, "--out", out)
    assert code == 0
    assert "decomposed 1 queries (1 fallbacks)" in capsys.readouterr().out
    assert "query 1: malformed decomposition output, falling back" in caplog.text
    assert parse_subquery_map(out.read_bytes()).groups == {"1": (("1-s000", "storm damage"),)}


def test_a_failed_pipeline_run_leaves_no_out_dir(tmp_path, capsys):
    map_path = tmp_path / "map.jsonl"
    map_path.write_text('{"query_id": "1", "sub_queries": []}\n')
    config = json.loads((PIPE / "config.json").read_text())
    config["inputs"] = {"subquery_map": str(map_path), "subquery_runs": str(PIPE / "subqueries.run")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert run_cli("pipeline", "--config", path, "--out-dir", out_dir) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "PipelineStageError"
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# failure policy: bad input is a FusekitError, anything else is a bug
# ---------------------------------------------------------------------------


def test_a_bug_in_a_pipeline_stage_propagates(tmp_path, monkeypatch):
    def broken(*args):
        raise TypeError("unsupported operand type(s)")

    monkeypatch.setattr("fusekit.pipeline.inject_rerank", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_cli("pipeline", "--config", PIPE / "config.json", "--out-dir", tmp_path / "out")


def test_a_bug_in_a_command_propagates(tmp_path, monkeypatch):
    def broken(*args):
        raise KeyError("missing")

    monkeypatch.setattr("fusekit.cli.attach", broken)
    with pytest.raises(KeyError, match="missing"):
        run_cli(
            "claims", "attach", "--artifacts", EVID / "artifacts.jsonl",
            "--predictions", EVID / "predictions.jsonl", "--out", tmp_path / "out.jsonl",
        )


ABLATE = ["ablate", "--map", PIPE / "subquery_map.jsonl", "--runs", PIPE / "subqueries.run",
          "--qrels", PIPE / "qrels.txt", "--strategy", "rrf"]
FUSE = ["fuse", "--runs", PIPE / "subqueries.run", "--map", PIPE / "subquery_map.jsonl", "--strategy", "rrf"]
RERANK = ["rerank-inject", "--fused", PIPE / "rerank.run", "--scores", PIPE / "rerank.run"]
FILTER = ["claims", "filter", "--in", EVID / "artifacts.jsonl"]
OUT_OPTION = {"fuse": "--out", "rerank-inject": "--out", "claims": "--kept"}  # "--json" for the rest


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fuse", "--runs", PIPE / "subqueries.run", "--map", PIPE / "subquery_map.jsonl", "--strategy", "rrf",
          "--depth", "0"], "depth must be a positive integer, got 0"),
        (["fuse", "--runs", PIPE / "subqueries.run", "--map", PIPE / "subquery_map.jsonl", "--strategy", "rrf",
          "--k", "1" + "0" * 309], "rrf smoothing constant exceeds the float range"),
        (["eval", "--run", PIPE / "rerank.run", "--qrels", PIPE / "qrels.txt", "--cutoffs", "10,a"],
         "--cutoffs takes comma-separated integers, got '10,a'"),
        (ABLATE + ["--seeds", "x"], "--seeds takes comma-separated integers, got 'x'"),
        (ABLATE + ["--keep", "1,y"], "--keep takes comma-separated integers or 'all', got '1,y'"),
        (["eval", "--run", PIPE / "rerank.run", "--qrels", PIPE / "qrels.txt", "--cutoffs", "1_0"],
         "--cutoffs takes comma-separated integers, got '1_0'"),
        (ABLATE + ["--seeds", "0,١"], "--seeds takes comma-separated integers, got '0,١'"),
        # int() and float() take each of these; argparse's type=int and type=float did
        (FUSE + ["--k", "1_0"], "--k takes an integer, got '1_0'"),
        (ABLATE + ["--k", "١"], "--k takes an integer, got '١'"),
        (FUSE + ["--depth", "٣"], "--depth takes an integer, got '٣'"),
        (RERANK + ["--depth", "1_0"], "--depth takes an integer, got '1_0'"),
        (RERANK + ["--out-depth", "\uff11"], "--out-depth takes an integer, got '\uff11'"),
        (FILTER + ["--threshold", "٠.٥"], "--threshold takes a number, got '٠.٥'"),
        (FILTER + ["--threshold", "0_5"], "--threshold takes a number, got '0_5'"),
        # argparse exited 2 with its usage on these
        (FUSE + ["--k", "abc"], "--k takes an integer, got 'abc'"),
        (FILTER + ["--threshold", "high"], "--threshold takes a number, got 'high'"),
        # checked before any input is read: truncate and inject_rerank said otherwise
        (FUSE + ["--depth", "-1"], "depth must be a positive integer, got -1"),
        (RERANK + ["--out-depth", "0"], "depth must be a positive integer, got 0"),
        (RERANK + ["--out-depth", "-2"], "depth must be a positive integer, got -2"),
        (RERANK + ["--depth", "-1"], "rerank_depth must be >= 0"),
        (["fuse", "--runs", PIPE / "qrels.txt", "--map", PIPE / "subquery_map.jsonl", "--strategy", "rrf",
          "--depth", "0"], "depth must be a positive integer, got 0"),
        (["rerank-inject", "--fused", PIPE / "qrels.txt", "--scores", PIPE / "qrels.txt", "--depth", "-1"],
         "rerank_depth must be >= 0"),
        (["rerank-inject", "--fused", PIPE / "qrels.txt", "--scores", PIPE / "qrels.txt", "--out-depth", "0"],
         "depth must be a positive integer, got 0"),
    ],
    ids=["fuse-depth", "fuse-k", "eval-cutoffs", "ablate-seeds", "ablate-keep", "eval-cutoffs-underscore",
         "ablate-seeds-non-ascii-digit", "fuse-k-underscore", "ablate-k-non-ascii-digit",
         "fuse-depth-non-ascii-digit", "rerank-depth-underscore", "rerank-out-depth-full-width-digit",
         "filter-threshold-non-ascii-digits", "filter-threshold-underscore", "fuse-k-word", "filter-threshold-word",
         "fuse-depth-negative", "rerank-out-depth-zero", "rerank-out-depth-negative", "rerank-depth-negative",
         "fuse-depth-malformed-runs", "rerank-depth-malformed-fused",
         "rerank-out-depth-malformed-fused"],
)
def test_bad_argument_values_exit_1_with_one_validation_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run_cli(*argv, OUT_OPTION.get(argv[0], "--json"), out) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ValidationError", "message": message}
    assert not out.exists()
