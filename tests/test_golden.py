"""Frozen sha256 digests of the CLI's outputs on the shipped fixtures.

Rerun checks (criterion 9) only compare two runs of the same code; these
digests catch a refactor that changes output bytes. The eval and ablate
JSON reports are frozen too, so a rework of the metric arithmetic must keep
every value bit-identical. A fixed ``memory --init`` session freezes the
bank file and the REPL's stdout. The manifest is left out: it echoes the
config. The outputs read from run, qrels and JSON-lines inputs are checked
again with those inputs read a few bytes at a time, and with every run file
parsed in two halves, the second in a forked child.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import threading
from pathlib import Path

import pytest

from fusekit import ablation, core
from fusekit.cli import main

from conftest import two_cpus

FIXTURES = Path(__file__).parent / "fixtures"
PIPE = FIXTURES / "pipeline"
EVID = FIXTURES / "evidence"

PIPELINE_DIGESTS = {
    "subqueries.run": "573149d88210d1a20cf935d71fd997395ab1eb489e7bdd3a263162ac41a8cba4",
    "fused.run": "badd1a90d9704faa4cac4a2a7c34492eb5da398c05503187e9c2366c938c2952",
    "reranked.run": "36d037e9a44b3249da7b5ca532fe7946a2a1bdcb0f6fdc46153fc24fd8756a67",
}

FUSE_DIGESTS = {
    "rrf": PIPELINE_DIGESTS["fused.run"],
    "weighted_rrf": "c3234c4b9f2a973bde1d30be4e6010244a221f00e2444ef9f0b6bead902fd916",
    "sum_sim": "cd9943da06b525b61dd87fae0be3da5c7760440a4c6c6189ca610fecf8e9b20e",
    "max_sim": "ec3fbb67ba6c34d4d55746217e6978f7153cd49d42ac8857bc4f13f55d0c7e17",
    "mean_sim": "c57065cdcb30d4865dac822e7a6f23d2b360e66284aab09cf45aed5dcf9a18bc",
}

DECOMPOSE_DIGEST = "ae94fc5ea55e9f75f3b01098b9ef674ab729703ae0cef88aca6a985bf2842d8a"

CLAIMS_DIGESTS = {
    "out": "91fd9d92463a5c5c458062b30bbbae31a0c5bdfc9ef6c89ec28c5cad8f9da96d",
    "unmatched": "6560380d8ea99ddca2635c4a19f00a74facb921ad32c75f6b520960ee33ca44e",
    "kept": "30ebc462c396a53f8d7e2b6f829684b95c7f9d447fc990d08b392b98651b11e6",
    "dropped": "68f01ff41c20aa942ea7eaf7cea7b8e247a206ec76f327b6ddb1f3d7d0b47939",
}

VALIDATE_DIGEST = "0fe88e16a359799312f7e18ad8696f9f00713f5c00732fe9ba8a62005981c087"

MEMORY_SESSION = """\
add-fact vidA crowd gathers outside parliament --tool caption --span 220-230s --confidence 0.9
add-fact vidB helicopter rescue shown
add-keyword vidA parliament
mark-processed vidA caption
select vidA:0 vidB:0
set-findings turnout rose | rescue ongoing
save
quit
"""

MEMORY_DIGESTS = {
    "bank.json": "712ba6cbb5ebf2b369455cd40665dc3a9dec071f9cccf3adfc6742220d63119b",
    "stdout": "c02b1ff00fb309196e8013af2188583e1c8cfbbd54f71b3c35aa15ef966a356e",
}

EVAL_DIGESTS = {
    "fused.run": "c31b77c1eb5db802e36d5502fc1987842f53c81c255e6c0b2d50112d159f0758",
    "reranked.run": "bf995f27343a6f38c373f45cb161e5b5489e6cbf1db5c746abd67aaa0a505b5a",
}

ABLATE_DIGESTS = {
    "rrf": "bf19628fe37c92f11e13ad356b28f82c111b99f1bb56a04961e901abee346af2",
    "max_sim": "2d561b8b26a9cf5218533111dd2af53eab451da98e875e62e29c6948c6c06748",
}


def run_cli(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_pipeline_stage_files(tmp_path, capsys):
    run_cli("pipeline", "--config", PIPE / "config.json", "--out-dir", tmp_path)
    assert {name: digest(tmp_path / name) for name in PIPELINE_DIGESTS} == PIPELINE_DIGESTS


@pytest.mark.parametrize("strategy", sorted(FUSE_DIGESTS))
def test_fuse(tmp_path, capsys, strategy):
    out = tmp_path / "fused.run"
    run_cli(
        "fuse",
        "--runs", PIPE / "subqueries.run",
        "--map", PIPE / "subquery_map.jsonl",
        "--strategy", strategy,
        "--k", "10",
        "--depth", "50",
        "--out", out,
    )
    assert digest(out) == FUSE_DIGESTS[strategy]


def test_decompose_replay(tmp_path, capsys):
    out = tmp_path / "map.jsonl"
    run_cli(
        "decompose",
        "--queries", PIPE / "queries.jsonl",
        "--replay", PIPE / "decomposer_replay.jsonl",
        "--out", out,
    )
    assert digest(out) == DECOMPOSE_DIGEST


def test_claims_attach_and_filter(tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.jsonl" for name in CLAIMS_DIGESTS}
    run_cli(
        "claims", "attach",
        "--artifacts", EVID / "artifacts.jsonl",
        "--predictions", EVID / "predictions.jsonl",
        "--out", paths["out"],
        "--unmatched", paths["unmatched"],
    )
    run_cli(
        "claims", "filter",
        "--in", paths["out"],
        "--kept", paths["kept"],
        "--dropped", paths["dropped"],
    )
    assert {name: digest(path) for name, path in paths.items()} == CLAIMS_DIGESTS


def test_claims_validate(tmp_path, capsys):
    out = tmp_path / "validated.jsonl"
    run_cli("claims", "validate", "--in", EVID / "artifacts.jsonl", "--out", out)
    assert digest(out) == VALIDATE_DIGEST


def test_memory_session(tmp_path, capsys, monkeypatch):
    # a relative bank path keeps the "saved ..." lines free of the temp directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO(MEMORY_SESSION))
    run_cli("memory", "--bank", "bank.json", "--init")
    stdout = capsys.readouterr().out.encode("utf-8")
    assert {
        "bank.json": digest(tmp_path / "bank.json"),
        "stdout": hashlib.sha256(stdout).hexdigest(),
    } == MEMORY_DIGESTS


@pytest.mark.parametrize("stage_file", sorted(EVAL_DIGESTS))
def test_eval_json(tmp_path, capsys, stage_file):
    run_cli("pipeline", "--config", PIPE / "config.json", "--out-dir", tmp_path)
    out = tmp_path / "report.json"
    run_cli(
        "eval",
        "--run", tmp_path / stage_file,
        "--qrels", PIPE / "qrels.txt",
        "--cutoffs", "1,3,5,10,20",
        "--json", out,
    )
    assert digest(out) == EVAL_DIGESTS[stage_file]


@pytest.mark.parametrize("strategy", sorted(ABLATE_DIGESTS))
def test_ablate_json(tmp_path, capsys, strategy):
    out = tmp_path / "ablation.json"
    run_cli(
        "ablate",
        "--map", PIPE / "subquery_map.jsonl",
        "--runs", PIPE / "subqueries.run",
        "--qrels", PIPE / "qrels.txt",
        "--strategy", strategy,
        "--k", "10",
        "--keep", "1,2,all",
        "--cutoffs", "1,5,10",
        "--json", out,
    )
    assert digest(out) == ABLATE_DIGESTS[strategy]


def run_input_checks(tmp_path, capsys) -> None:
    """Every check above whose outputs are read from run, qrels and JSON-lines inputs, each in its own directory."""
    # the memory session is left out: it reads its bank as one JSON document
    checks = [
        (test_pipeline_stage_files, ()),
        (test_decompose_replay, ()),
        (test_claims_attach_and_filter, ()),
        (test_claims_validate, ()),
        *((test_fuse, (strategy,)) for strategy in sorted(FUSE_DIGESTS)),
        *((test_eval_json, (stage_file,)) for stage_file in sorted(EVAL_DIGESTS)),
        *((test_ablate_json, (strategy,)) for strategy in sorted(ABLATE_DIGESTS)),
    ]
    for i, (check, args) in enumerate(checks):
        out_dir = tmp_path / str(i)
        out_dir.mkdir()
        check(out_dir, capsys, *args)


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_digests_hold_across_chunk_boundaries(tmp_path, capsys, monkeypatch, chunk):
    monkeypatch.setattr(core, "_CHUNK", chunk)
    run_input_checks(tmp_path, capsys)


def test_digests_hold_when_inputs_are_parsed_in_two_halves(tmp_path, capsys, monkeypatch):
    # every run file of 2 bytes or more is split, at any CPU or thread count; a qrels file is parsed whole
    monkeypatch.setattr(core, "_SPLIT_MIN", 1)
    monkeypatch.setattr(core, "_CHUNK", 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    run_input_checks(tmp_path, capsys)
    assert len(forks) >= len(FUSE_DIGESTS) + len(EVAL_DIGESTS) + len(ABLATE_DIGESTS)


@pytest.mark.parametrize("strategy", sorted(ABLATE_DIGESTS))
def test_ablate_digests_hold_when_the_cells_run_on_two_cpus(tmp_path, capsys, monkeypatch, strategy):
    monkeypatch.setattr(ablation, "_TWO_CPU_MIN", 0)
    with two_cpus() as made:
        test_ablate_json(tmp_path, capsys, strategy)
    assert len(made) == 1
