"""``core._in_two``, which runs every job split over two processes, and the one place that forks.

Where the split fails, ``_in_two`` returns the one-process job's result,
``alone()``; no child process or file descriptor may outlive a call.
"""

from __future__ import annotations

import ast
import os
import time
from pathlib import Path
from unittest import mock

import pytest

from fusekit import core
from fusekit.errors import ValidationError

from conftest import SRC, assert_nothing_left, open_fds, two_cpus


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


TRIGGERS = {
    "no-fork": (mine, theirs, joined, 0),
    "mine-raises": (failing, theirs, joined, 1),
    "join-raises": (mine, theirs, lambda first, records: failing(), 1),
    "join-returns-none": (mine, theirs, lambda first, records: None, 1),
    "child-exits-1-before-sending": (mine, lambda: os._exit(1), joined, 1),
    "child-exits-1-after-sending": (mine, sent_then_failing, joined, 1),
}


@pytest.mark.parametrize("trigger", sorted(TRIGGERS))
def test_each_failed_split_returns_alone_and_leaves_nothing(trigger):
    run_mine, run_theirs, join, forks = TRIGGERS[trigger]
    fds_before = open_fds()
    with two_cpus() as made:
        if forks:
            result = core._in_two(run_mine, run_theirs, join, alone)
        else:
            with mock.patch.object(os, "sched_getaffinity", no_cpus):
                result = core._in_two(run_mine, run_theirs, join, alone)
    assert result == "alone"
    assert len(made) == forks
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


def test_only_core_forks_pipes_reaps_or_marshals():
    # every other module forks through core._forked or core._in_two
    modules = sorted((SRC / "fusekit").glob("*.py"))
    assert "core.py" in {path.name for path in modules}
    assert fork_plumbing(SRC / "fusekit" / "core.py")  # the check sees the plumbing where it is
    elsewhere = {path.name: found for path in modules if path.name != "core.py" if (found := fork_plumbing(path))}
    assert elsewhere == {}
