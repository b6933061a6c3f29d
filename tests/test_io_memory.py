"""Memory bounds of reading and writing a run file.

``tracemalloc`` counts the Python allocations of this process exactly, so
these bounds do not depend on the machine or on other processes. The run is
seeded: 100 queries x 1000 docs, 100k lines, ~3.6 MB.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import tracemalloc

import pytest

from fusekit import core, parse_run, write_run
from fusekit.pipeline import write_run_file

QUERIES, DEPTH = 100, 1000


def seeded_run() -> bytes:
    rng = random.Random(20261018)
    lines = []
    for q in range(QUERIES):
        for rank, doc in enumerate(rng.sample(range(10**6), DEPTH), start=1):
            lines.append(f"q{q:03d} Q0 d{doc:06d} {rank} {round(rng.random(), 6)!r} seeded\n")
    return "".join(lines).encode("utf-8")


@pytest.fixture(scope="module")
def run_bytes() -> bytes:
    return seeded_run()


@pytest.fixture(scope="module")
def run_path(run_bytes, tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "seeded.run"
    path.write_bytes(run_bytes)
    return path


@pytest.fixture(params=["sequential", "two-halves"])
def parse_path(request, monkeypatch):
    """Parse a file sequentially, or in two halves, the second in a forked child, at any CPU or thread count."""
    two_halves = request.param == "two-halves"
    monkeypatch.setattr(core, "_SPLIT_MIN", 1 << 20 if two_halves else sys.maxsize)
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
    yield
    assert len(forks) == two_halves


def traced_call(fn, *args):
    """``fn(*args)``, the traced memory it left allocated, and its traced peak above the start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - before, peak - before


def test_parse_run_holds_no_copy_of_the_input_text(run_bytes):
    run, retained, peak = traced_call(parse_run, run_bytes)
    assert sum(len(ranking) for ranking in run.lists.values()) == QUERIES * DEPTH
    assert retained > len(run_bytes)  # the parsed lists themselves
    # a whole-input copy (the decoded text, a list of every line) would exceed this;
    # measured: 9.2 MB with both, 2.9 MB decoding one 1 MiB slice at a time, 0.25 MB reading
    # 64 KiB at a time, each read completed to the end of its line
    assert peak - retained < 4_500_000


def test_parse_run_from_a_file_holds_no_copy_of_the_input(run_bytes, run_path, parse_path):
    with open(run_path, "rb") as fh:
        run, retained, peak = traced_call(parse_run, fh)
    assert sum(len(ranking) for ranking in run.lists.values()) == QUERIES * DEPTH
    # below what one whole-input copy (3.6 MB) would add; measured: 0.25 MB, one 64 KiB
    # read (completed to the end of its line), its text and its lines at a time, as from bytes;
    # in two halves, one query's record from the child at a time besides
    assert peak - retained < len(run_bytes)


def test_parse_run_lists_are_columns(run_path, parse_path):
    with open(run_path, "rb") as fh:
        run, retained, peak = traced_call(parse_run, fh)
    # a doc id string, its slot in the doc tuple and one double; measured: 72.5 B/entry
    # as columns, 144 B/entry as a tuple of (doc id, float) tuples
    assert retained <= 80 * QUERIES * DEPTH
    # measured: 10.2 MB as columns, 14.5 MB with the pair tuples and every query's score
    # map held until the end of the input
    assert peak < 12_000_000


def test_parse_run_holds_one_string_per_distinct_doc_id(tmp_path, parse_path):
    # the same 100,000 entries, drawn from 10,000 doc ids, as sub-query lists of one query share their docs
    rng = random.Random(20261020)
    ids = [f"d{doc:06d}" for doc in rng.sample(range(10**6), 10_000)]
    path = tmp_path / "shared.run"
    path.write_text(
        "".join(
            f"q{q:03d} Q0 {doc} {rank} {round(rng.random(), 6)!r} seeded\n"
            for q in range(QUERIES)
            for rank, doc in enumerate(rng.sample(ids, DEPTH), start=1)
        )
    )
    with open(path, "rb") as fh:
        run, retained, _ = traced_call(parse_run, fh)
    assert sum(len(ranking) for ranking in run.lists.values()) == QUERIES * DEPTH
    # a slot in the doc tuple and one double per entry, and one string per distinct id; measured:
    # 22.5 B/entry with shared ids (22.3 in two halves), 72.5 B/entry with one string per entry
    assert retained <= 30 * QUERIES * DEPTH


def test_write_run_peak_is_about_its_output(run_bytes):
    run = parse_run(run_bytes)
    out, _, peak = traced_call(write_run, run, DEPTH)
    assert len(out) > 3_000_000
    # the output plus one query's lines; measured: 4.6x the output with a list of every
    # line and a whole-file str, 1.1x writing one query at a time
    assert peak < 1.5 * len(out)


def test_write_run_file_holds_one_query_at_a_time(run_bytes, tmp_path):
    run = parse_run(run_bytes)
    path = tmp_path / "out.run"
    _, _, peak = traced_call(write_run_file, path, run, DEPTH)
    assert path.read_bytes() == write_run(run, DEPTH)
    # one query's lines (~36 kB) at a time; measured: 0.17 MB, where the whole output
    # built first, as write_run(run, DEPTH), peaks at 1.1x its 3.6 MB
    assert peak < 0.1 * len(run_bytes)
