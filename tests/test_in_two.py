"""``core._in_two``, which runs every job split over two processes, and the one place that forks.

Where the split fails, ``_in_two`` returns the one-process job's result,
``alone()``; no child process or file descriptor may outlive a call.
"""

from __future__ import annotations

import ast
import contextlib
import errno
import logging
import os
import signal
import threading
import time
from pathlib import Path
from unittest import mock

import pytest

from fusekit import core, pipeline
from fusekit.errors import ValidationError
from fusekit.pipeline import run_pipeline

from conftest import SRC, assert_nothing_left, open_fds, two_cpus
from test_pipeline_aside import aside, fixture_config, in_child, outputs, raise_error, run_with


def alone():
    return "alone"


def mine():
    return "mine"


def theirs():
    return ["a", "b"]


def joined(first, records):
    return first, list(records)


def failing():
    raise ValidationError("bad half")


def sent_then_failing():
    yield "a"
    raise RuntimeError("the child fails after sending")  # the child exits 1


def no_cpus(pid):
    return {0}


# each trigger: mine, theirs, join, and a patch under which no child is forked, or None
TRIGGERS = {
    "no-fork": (mine, theirs, joined, mock.patch.object(os, "sched_getaffinity", no_cpus)),
    "fork-fails": (mine, theirs, joined, mock.patch.object(os, "fork", mock.Mock(side_effect=OSError(errno.EAGAIN)))),
    "second-thread": (mine, theirs, joined, mock.patch.object(threading, "active_count", lambda: 2)),
    "mine-raises": (failing, theirs, joined, None),
    "join-raises": (mine, theirs, lambda first, records: failing(), None),
    "join-returns-none": (mine, theirs, lambda first, records: None, None),
    "child-exits-1-before-sending": (mine, lambda: os._exit(1), joined, None),
    "child-exits-1-after-sending": (mine, sent_then_failing, joined, None),
}


@pytest.mark.parametrize("trigger", sorted(TRIGGERS))
def test_each_failed_split_returns_alone_and_leaves_nothing(trigger):
    run_mine, run_theirs, join, no_fork = TRIGGERS[trigger]
    fds_before = open_fds()
    with two_cpus() as made, no_fork or contextlib.nullcontext():
        result = core._in_two(run_mine, run_theirs, join, alone)
    assert result == "alone"
    assert len(made) == (0 if no_fork else 1)
    assert_nothing_left(fds_before)


def test_a_split_that_works_returns_the_join_of_both_halves():
    fds_before = open_fds()
    with two_cpus() as made:
        assert core._in_two(mine, theirs, joined, alone) == ("mine", ["a", "b"])
    assert len(made) == 1
    assert_nothing_left(fds_before)


def test_a_bug_in_mine_propagates_and_the_child_is_killed_at_once():
    def bug():
        raise KeyError("a bug")

    fds_before = open_fds()
    start = time.monotonic()
    with two_cpus() as made, pytest.raises(KeyError, match="a bug"):
        core._in_two(bug, lambda: time.sleep(60), joined, alone)
    assert time.monotonic() - start < 30
    assert len(made) == 1
    assert_nothing_left(fds_before)


@pytest.mark.parametrize(
    "failure", [raise_error, lambda: os.kill(os.getpid(), signal.SIGKILL)], ids=["child-exits-1", "child-killed"]
)
def test_a_failed_pipeline_child_runs_no_stage_twice(tmp_path, caplog, failure):
    # rerank_depth 1 makes the rerank stage log one warning for each of the fixture's 3 queries
    config = fixture_config(rerank_depth=1)
    expected = run_with(False, config, tmp_path / "sequential", forks=0)
    caplog.clear()
    fuse_runs = mock.Mock(wraps=pipeline.fuse_runs)
    fds_before = open_fds()
    with aside(True) as made, in_child(failure), mock.patch.object(pipeline, "fuse_runs", fuse_runs), \
            caplog.at_level(logging.WARNING, logger=pipeline.logger.name):
        run_pipeline(config, tmp_path / "fallback")
    assert len(made) == 1
    assert_nothing_left(fds_before)
    assert outputs(tmp_path / "fallback") == expected
    assert fuse_runs.call_count == 1
    assert len([record for record in caplog.records if record.levelno == logging.WARNING]) == 3


FORK_CALLS = {"fork", "pipe", "waitpid"}


def fork_plumbing(path: Path) -> list[str]:
    """Each call of ``os.fork``, ``os.pipe`` or ``os.waitpid`` and each import of ``marshal`` in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in FORK_CALLS:
                found.append(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{alias.name}" for alias in node.names if alias.name in FORK_CALLS]
        elif isinstance(node, ast.ImportFrom) and node.module == "marshal":
            found.append("marshal")
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "marshal"]
    return found


def forks(path: Path) -> list[str]:
    """The name of the top-level function around each ``os.fork`` in ``path`` (None outside any)."""
    return [
        getattr(top, "name", None)
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        if (node.value.id, node.attr) == ("os", "fork")
    ]


def test_only_core_forks_pipes_reaps_or_marshals():
    # every other module forks through core._in_two, which holds the only os.fork
    modules = sorted((SRC / "fusekit").glob("*.py"))
    assert "core.py" in {path.name for path in modules}
    assert fork_plumbing(SRC / "fusekit" / "core.py")  # the check sees the plumbing where it is
    elsewhere = {path.name: found for path in modules if path.name != "core.py" if (found := fork_plumbing(path))}
    assert elsewhere == {}
    assert [name for path in modules for name in forks(path)] == ["_in_two"]
