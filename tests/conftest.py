from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from fusekit import Qrels, RunSet, ScoredList


SRC = Path(__file__).resolve().parent.parent / "src"


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
