from __future__ import annotations

import io
import json
import re
import subprocess
import sys
from pathlib import Path

from fusekit import parse_run, write_run
from fusekit.ablation import fuse_runs
from fusekit.cli import main
from fusekit.core import parse_subquery_map
from fusekit.fusion import FusionStrategy
from fusekit.memory import MemoryBank

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


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


def test_claims_validate_cli(capsys):
    code = run_cli("claims", "validate", "--in", EVID / "artifacts.jsonl")
    assert code == 0
    assert "4 records" in capsys.readouterr().out


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


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_code_validation_error(tmp_path, capsys):
    bad_run = tmp_path / "bad.run"
    bad_run.write_text("q1 Q0 dA 1 0.9 t\nq1 Q0 dA 2 0.1 t\n")
    qrels = tmp_path / "q.txt"
    qrels.write_text("q1 0 dA 1\n")
    code = run_cli("eval", "--run", bad_run, "--qrels", qrels)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"


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


def test_endpoint_env_overrides(monkeypatch):
    from fusekit.cli import _endpoints_with_env

    monkeypatch.setenv("FUSEKIT_DECOMPOSER_URL", "http://env-host/decompose")
    merged = _endpoints_with_env({"retriever": "http://cfg-host/retrieve"})
    assert merged["decomposer"] == "http://env-host/decompose"
    assert merged["retriever"] == "http://cfg-host/retrieve"
    monkeypatch.setenv("FUSEKIT_RETRIEVER_URL", "http://env-host/retrieve")
    merged = _endpoints_with_env({"retriever": "http://cfg-host/retrieve"})
    assert merged["retriever"] == "http://env-host/retrieve"


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


def test_memory_cli_rejects_bank_slot_of_the_wrong_type(tmp_path, capsys, monkeypatch):
    bank = json.loads(MemoryBank().dump())
    bank["keywords"] = []
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(bank))
    monkeypatch.setattr(sys, "stdin", io.StringIO("summary\n"))
    code = run_cli("memory", "--bank", path)
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
