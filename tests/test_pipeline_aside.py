"""``subqueries.run`` is formatted in a forked child while the pipeline fuses and reranks.

``pipeline._ASIDE_MIN`` is lowered to 0, so that the shipped fixtures take
the child path, or raised past any run, so that they do not, and
``os.sched_getaffinity`` reports two CPUs, so that the tests hold on a
one-CPU machine. Every stage file, every error and the CLI's error record
must be those of the run without a child, and no child process or file
descriptor may outlive a run.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from fusekit import FusionStrategy, PipelineStageError, pipeline
from fusekit.cli import main
from fusekit.fusion import STRATEGY_KINDS
from fusekit.pipeline import PipelineConfig, run_pipeline

from conftest import assert_nothing_left, counted_forks, open_fds

FIXTURES = Path(__file__).parent / "fixtures" / "pipeline"
OUTPUTS = ("subqueries.run", "fused.run", "reranked.run", "manifest.json")


@contextlib.contextmanager
def aside(on: bool):
    """Format ``subqueries.run`` in a child (``on``) or not; yields the list of the children forked."""
    with mock.patch.object(pipeline, "_ASIDE_MIN", 0 if on else sys.maxsize), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}), counted_forks() as made:
        yield made


def in_child(action):
    """A ``write_run`` that does ``action()`` first when it is called in a process other than this one."""
    parent, real_write_run = os.getpid(), pipeline.write_run

    def write_run(run, depth):
        if os.getpid() != parent:
            action()
        return real_write_run(run, depth)

    return mock.patch.object(pipeline, "write_run", write_run)


def outputs(out_dir: Path) -> dict[str, bytes]:
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(OUTPUTS)
    return {name: (out_dir / name).read_bytes() for name in OUTPUTS}


def fixture_config(**changes) -> PipelineConfig:
    return replace(PipelineConfig.load(FIXTURES / "config.json"), **changes)


def run_with(on: bool, config: PipelineConfig, out_dir: Path, forks: int) -> dict[str, bytes]:
    """The outputs of ``config`` run into ``out_dir``; checks the forks made and that nothing is left."""
    fds_before = open_fds()
    with aside(on) as made:
        run_pipeline(config, out_dir)
    assert len(made) == forks
    assert_nothing_left(fds_before)
    return outputs(out_dir)


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_stage_files_are_the_same_with_and_without_the_child(tmp_path, kind):
    config = fixture_config(strategy=FusionStrategy(kind, 10))
    with_child = run_with(True, config, tmp_path / "child", forks=1)
    assert with_child == run_with(False, config, tmp_path / "sequential", forks=0)


def raise_error():
    raise RuntimeError("the child fails")


@pytest.mark.parametrize(
    "failure, forks",
    [
        (in_child(raise_error), 1),
        (in_child(lambda: os.kill(os.getpid(), signal.SIGKILL)), 1),
        (mock.patch.object(os, "fork", mock.Mock(side_effect=OSError(errno.EAGAIN, "no more processes"))), 0),
        (mock.patch.object(tempfile, "TemporaryFile", mock.Mock(side_effect=OSError(errno.ENOSPC, "no space"))), 0),
    ],
    ids=["child-exits-1", "child-killed", "fork-fails", "no-temp-file"],
)
def test_a_failed_child_or_fork_falls_back_to_the_same_bytes(tmp_path, failure, forks):
    expected = run_with(False, fixture_config(), tmp_path / "sequential", forks=0)
    fds_before = open_fds()
    with aside(True) as made, failure:
        run_pipeline(fixture_config(), tmp_path / "fallback")
    assert len(made) == forks
    assert_nothing_left(fds_before)
    assert outputs(tmp_path / "fallback") == expected


def overflow_config(tmp_path: Path) -> PipelineConfig:
    """A sum_sim run whose fused score for one doc exceeds the float range."""
    (tmp_path / "map.jsonl").write_text(json.dumps(
        {"query_id": "1", "sub_queries": [{"id": "1-s000", "text": "a"}, {"id": "1-s001", "text": "b"}]}
    ) + "\n")
    (tmp_path / "sub.run").write_text("1-s000 Q0 d1 1 1e308 t\n1-s001 Q0 d1 1 1e308 t\n")
    return fixture_config(
        strategy=FusionStrategy("sum_sim", 10),
        inputs={"subquery_map": tmp_path / "map.jsonl", "subquery_runs": tmp_path / "sub.run"},
    )


def test_a_fusion_error_while_the_child_runs_kills_it_and_leaves_no_out_dir(tmp_path):
    config = overflow_config(tmp_path)
    with aside(False), pytest.raises(PipelineStageError) as sequential:
        run_pipeline(config, tmp_path / "sequential")
    fds_before = open_fds()
    start = time.monotonic()
    # the child would take a minute: only a kill ends it in time
    with aside(True) as made, in_child(lambda: time.sleep(60)), pytest.raises(PipelineStageError) as excinfo:
        run_pipeline(config, tmp_path / "out")
    assert time.monotonic() - start < 30
    assert len(made) == 1
    assert_nothing_left(fds_before)
    assert excinfo.value.stage == sequential.value.stage == "fuse"
    assert (type(excinfo.value.cause), str(excinfo.value)) == (type(sequential.value.cause), str(sequential.value))
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "sequential").exists()


def test_the_cli_reports_a_failed_run_as_without_the_child(tmp_path, capsys):
    config = overflow_config(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "strategy": {"kind": "sum_sim", "k": 10},
        "inputs": {name: str(p) for name, p in config.inputs.items()},
    }))
    records = []
    for on in (False, True):
        with aside(on) as made:
            assert main(["pipeline", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        assert len(made) == int(on)
        records.append(capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
    assert records[0] == records[1]
    assert json.loads(records[0])["error"] == "PipelineStageError"


@pytest.mark.parametrize("on", [False, True], ids=["sequential", "child"])
def test_a_failed_write_leaves_no_manifest_beside_a_previous_runs_files(tmp_path, on):
    out_dir = tmp_path / "out"
    run_pipeline(fixture_config(), out_dir)
    real_atomic_write = pipeline.atomic_write

    def atomic_write(path, data):
        if Path(path).name == "reranked.run":
            raise OSError(errno.ENOSPC, "no space left on device")
        real_atomic_write(path, data)

    fds_before = open_fds()
    with aside(on), mock.patch.object(pipeline, "atomic_write", atomic_write), pytest.raises(OSError):
        run_pipeline(fixture_config(strategy=FusionStrategy("max_sim", 10)), out_dir)
    assert_nothing_left(fds_before)
    assert not (out_dir / "manifest.json").exists()
    assert sorted(p.name for p in out_dir.iterdir()) == ["fused.run", "reranked.run", "subqueries.run"]


CHILD_SCRIPT = """
import os, sys
from fusekit import pipeline
from fusekit.pipeline import PipelineConfig, run_pipeline
pipeline._ASIDE_MIN = 0
os.sched_getaffinity = lambda pid: {0, 1}
forks = []
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = fork
print("printed before the run")  # stdout is a pipe, so this waits in its buffer until exit
run_pipeline(PipelineConfig.load(sys.argv[1]), sys.argv[2])
print("forks", len(forks))
"""


def test_the_child_never_flushes_what_the_parent_printed(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(FIXTURES / "config.json"), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "printed before the run\nforks 1\n"
    assert outputs(tmp_path / "out") == run_with(False, fixture_config(), tmp_path / "sequential", forks=0)
