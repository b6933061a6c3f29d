from __future__ import annotations

import contextlib
import json
import os
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from unittest import mock

import pytest

from fusekit import Qrels, RunSet, ScoredList
from fusekit.clients import ReplayDecomposer


SRC = Path(__file__).resolve().parent.parent / "src"
PIPELINE_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "pipeline"

# two replies no JSON reader can take: a 100,000-deep array and a 5,000-digit integer
DEEP_JSON = "[" * 100_000 + "]" * 100_000
LONG_INT_JSON = "1" * 5_000


@pytest.fixture(autouse=True, scope="session")
def child_processes_import_this_checkout():
    """Let ``python -m fusekit.cli`` children import the package the tests import."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(
            "PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        )
        yield


def make_list(*pairs) -> ScoredList:
    """Scored list from (doc, score) pairs, canonically ordered."""
    return ScoredList.from_pairs(pairs)


def random_scored_list(rng: random.Random, docs: list[str], max_len: int | None = None) -> ScoredList:
    """Random subset of docs with descending scores in [0, 1]."""
    n = rng.randint(1, max_len or len(docs))
    chosen = rng.sample(docs, min(n, len(docs)))
    scores = sorted((rng.random() for _ in chosen), reverse=True)
    return ScoredList(tuple(zip(chosen, scores)))


@pytest.fixture
def doc_pool():
    return [f"d{i}" for i in range(10)]


@pytest.fixture
def simple_qrels():
    return Qrels({("q1", "dA"): 1, ("q1", "dB"): 0, ("q1", "dC"): 2})


@pytest.fixture
def perfect_run(simple_qrels):
    # dC (grade 2) first, then dA (grade 1): the ideal ordering for q1
    return RunSet(lists={"q1": make_list(("dC", 0.9), ("dA", 0.8), ("dB", 0.1))}, tag="perfect")


class StubHandler(BaseHTTPRequestHandler):
    """Decomposer and retriever service stub: the reply depends on the request path.

    ``/decompose`` and ``/flaky`` answer three facets of the query, ``/replay``
    the query's response in ``decomposer_replay.jsonl``, ``/retrieve`` ``depth``
    hits; ``/flaky`` first fails ``failures_left`` times with a 503, the paths
    in ``FIXED_REPLIES`` always send their body, ``/latin1`` sends a reply that
    is not UTF-8 and any other path is a 404.
    """

    FIXED_REPLIES = {
        "/garbage": "not json at all",
        "/deep": DEEP_JSON,
        "/long-int": LONG_INT_JSON,
        "/duplicate-hits": json.dumps([{"doc_id": "v0", "score": 0.5}] * 2),
        "/whitespace-hits": json.dumps([{"doc_id": "v 0", "score": 0.5}]),
    }
    replay = ReplayDecomposer.from_jsonl((PIPELINE_FIXTURES / "decomposer_replay.jsonl").read_bytes())

    failures_left = 0
    posts = 0  # requests received

    def do_POST(self):
        type(self).posts += 1
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        if self.path == "/flaky" and type(self).failures_left > 0:
            type(self).failures_left -= 1
            self.send_response(503)
            self.end_headers()
            return
        if self.path == "/decompose" or self.path == "/flaky":
            body = json.dumps([f"{payload['query']} facet {i}" for i in range(3)])
        elif self.path == "/replay":
            body = self.replay.decompose_raw(payload)
        elif self.path == "/retrieve":
            body = json.dumps(
                [{"doc_id": f"v{i}", "score": 1.0 - 0.1 * i} for i in range(payload["depth"])]
            )
        elif self.path in self.FIXED_REPLIES:
            body = self.FIXED_REPLIES[self.path]
        elif self.path == "/latin1":
            body = "café"
        else:
            self.send_response(404)
            self.end_headers()
            return
        data = body.encode("latin-1" if self.path == "/latin1" else "utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def stub_server():
    """The base URL of a ``StubHandler`` server on localhost.

    Its thread lives only as long as the test module, so the modules after
    it run in a one-thread process, where a parse may take the forked path.
    """
    server = HTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join()


@contextlib.contextmanager
def counted_forks():
    """Patch ``os.fork`` to record each child it makes; yields the list of their pids."""
    made: list[int] = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    with mock.patch.object(os, "fork", fork):
        yield made


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def assert_nothing_left(fds_before: int) -> None:
    """No child process is left to reap, and as many file descriptors are open as ``fds_before``."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds_before
