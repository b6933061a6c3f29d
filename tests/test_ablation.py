from __future__ import annotations

import contextlib
import os
import random
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusekit import (
    AblationConfig,
    Cutoffs,
    FusionStrategy,
    KEEP_ALL,
    Qrels,
    RunSet,
    SubQueryMap,
    ValidationError,
    fuse_runs,
    run_ablation,
    subsample,
)
from fusekit import ablation, core
from fusekit.ablation import render_ablation
from fusekit.errors import FusekitError
from fusekit.metrics import evaluate

from conftest import assert_nothing_left, open_fds, random_scored_list, two_cpus


def build_map(sizes: dict[str, int]) -> SubQueryMap:
    return SubQueryMap(
        {
            qid: tuple((f"{qid}-s{i}", f"sub {i}") for i in range(n))
            for qid, n in sizes.items()
        }
    )


def build_runs(mapping: SubQueryMap, seed=0, identical=False) -> RunSet:
    rng = random.Random(seed)
    docs = [f"v{i:02d}" for i in range(12)]
    shared = random_scored_list(rng, docs)
    lists = {}
    for qid, subs in mapping.groups.items():
        for sub_id, _ in subs:
            lists[sub_id] = shared if identical else random_scored_list(rng, docs)
    return RunSet(lists=lists, tag="subq")


def build_qrels(mapping: SubQueryMap, seed=1) -> Qrels:
    rng = random.Random(seed)
    judgments = {}
    for qid in mapping.groups:
        for i in range(12):
            judgments[(qid, f"v{i:02d}")] = rng.choice([0, 0, 1, 2])
    return Qrels(judgments)


# ---------------------------------------------------------------------------
# subsample
# ---------------------------------------------------------------------------


def test_subsample_keep_all_of_group_is_identity():
    mapping = build_map({"q1": 25})
    assert subsample(mapping, 25, seed=3) == mapping


def test_subsample_small_group_unchanged():
    mapping = build_map({"q1": 1})
    assert subsample(mapping, 5, seed=3) == mapping


def test_subsample_is_deterministic():
    mapping = build_map({"q1": 20, "q2": 15})
    assert subsample(mapping, 5, seed=42) == subsample(mapping, 5, seed=42)


def test_subsample_preserves_original_order():
    mapping = build_map({"q1": 20})
    sampled = subsample(mapping, 7, seed=9)
    ids = sampled.sub_query_ids("q1")
    positions = [int(sub_id.rsplit("s", 1)[1]) for sub_id in ids]
    assert positions == sorted(positions)
    assert len(ids) == 7


def test_subsample_group_draw_independent_of_other_groups():
    small = build_map({"q1": 20})
    large = build_map({"q0": 9, "q1": 20, "q9": 14})
    assert subsample(small, 5, seed=7).groups["q1"] == subsample(large, 5, seed=7).groups["q1"]


def test_subsample_different_seeds_differ():
    mapping = build_map({"q1": 25})
    draws = {subsample(mapping, 5, seed=s).groups["q1"] for s in range(10)}
    assert len(draws) > 1


def test_subsample_rejects_zero_keep():
    with pytest.raises(ValueError):
        subsample(build_map({"q1": 3}), 0, seed=0)


# ---------------------------------------------------------------------------
# run_ablation
# ---------------------------------------------------------------------------

CUTOFFS = Cutoffs((5, 10))
STRATEGY = FusionStrategy("max_sim")


def test_keep_all_equals_plain_pipeline():
    mapping = build_map({"q1": 6, "q2": 4})
    runs = build_runs(mapping)
    qrels = build_qrels(mapping)
    config = AblationConfig(keep_counts=(KEEP_ALL,), seeds=(0, 1, 2), strategy=STRATEGY)
    report = run_ablation(mapping, runs, qrels, config, CUTOFFS)
    plain = evaluate(fuse_runs(mapping, runs, STRATEGY), qrels, CUTOFFS)
    for name, value in plain.aggregate.items():
        mean, std = report.rows[KEEP_ALL][name]
        assert mean == value
        assert std == 0.0


def test_identical_sub_lists_make_k_irrelevant():
    mapping = build_map({"q1": 8, "q2": 8})
    runs = build_runs(mapping, identical=True)
    qrels = build_qrels(mapping)
    config = AblationConfig(
        keep_counts=(1, 3, 5, KEEP_ALL), seeds=(0, 1, 2, 3, 4), strategy=STRATEGY
    )
    report = run_ablation(mapping, runs, qrels, config, CUTOFFS)
    reference = report.rows[KEEP_ALL]
    for keep, row in report.rows.items():
        for name, (mean, std) in row.items():
            assert mean == pytest.approx(reference[name][0], abs=1e-12)
            assert std == 0.0


def test_same_seed_and_keep_reproduce_report():
    mapping = build_map({"q1": 9, "q2": 7})
    runs = build_runs(mapping)
    qrels = build_qrels(mapping)
    config = AblationConfig(keep_counts=(2, 4), seeds=(5, 6), strategy=FusionStrategy("rrf", 10))
    first = run_ablation(mapping, runs, qrels, config, CUTOFFS)
    second = run_ablation(mapping, runs, qrels, config, CUTOFFS)
    assert first == second


def test_single_seed_reports_zero_std():
    mapping = build_map({"q1": 9})
    runs = build_runs(mapping)
    qrels = build_qrels(mapping)
    config = AblationConfig(keep_counts=(3,), seeds=(11,), strategy=STRATEGY)
    report = run_ablation(mapping, runs, qrels, config, CUTOFFS)
    assert all(std == 0.0 for _, std in report.rows[3].values())


def test_missing_sub_query_list_names_the_id():
    mapping = build_map({"q1": 3})
    runs = build_runs(mapping)
    lists = dict(runs.lists)
    del lists["q1-s1"]
    broken = RunSet(lists=lists, tag="subq")
    config = AblationConfig(keep_counts=(KEEP_ALL,), seeds=(0,), strategy=STRATEGY)
    with pytest.raises(ValidationError) as excinfo:
        run_ablation(mapping, broken, build_qrels(mapping), config, CUTOFFS)
    assert "q1-s1" in str(excinfo.value)


def test_config_validation():
    with pytest.raises(ValidationError):
        AblationConfig(keep_counts=(), seeds=(0,), strategy=STRATEGY)
    with pytest.raises(ValidationError):
        AblationConfig(keep_counts=(1,), seeds=(), strategy=STRATEGY)
    with pytest.raises(ValidationError):
        AblationConfig(keep_counts=(0,), seeds=(0,), strategy=STRATEGY)
    with pytest.raises(ValidationError):
        AblationConfig(keep_counts=("some",), seeds=(0,), strategy=STRATEGY)


@pytest.mark.parametrize(
    "build",
    [
        lambda: AblationConfig(keep_counts=(1,), seeds=(True, 0.5), strategy=STRATEGY),
        lambda: AblationConfig(keep_counts=(True,), seeds=(0,), strategy=STRATEGY),
        lambda: Cutoffs((True, 10.5)),
        lambda: Cutoffs(("5", 20)),
        lambda: FusionStrategy("rrf", True),
    ],
    ids=["ablation-seeds", "ablation-keep", "cutoffs-bool-float", "cutoffs-string", "strategy-k"],
)
def test_value_objects_reject_bools_and_non_integers(build):
    # int() would turn True into 1 and 10.5 into 10 without a word, and isinstance(True, int) holds
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize(
    "keep_counts, seeds, repeated",
    [((1, 1), (0,), "keep count 1"), ((KEEP_ALL, 2, KEEP_ALL), (0,), "keep count 'all'"),
     ((1,), (0, 0, 1), "seed 0")],
    ids=["keep", "keep-all", "seed"],
)
def test_config_rejects_a_repeated_keep_count_or_seed(keep_counts, seeds, repeated):
    # a repeated seed would be counted twice in the mean, a repeated keep count fold into one row
    with pytest.raises(ValidationError, match=f"{repeated} is given twice"):
        AblationConfig(keep_counts=keep_counts, seeds=seeds, strategy=STRATEGY)


def test_run_ablation_subsamples_fuses_and_evaluates_each_cell_in_turn(monkeypatch):
    import fusekit.ablation as ablation

    calls = []
    for name in ("subsample", "fuse_runs", "evaluate"):
        def traced(*args, _name=name, _fn=getattr(ablation, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ablation, name, traced)
    mapping = build_map({"q1": 6, "q2": 3})
    config = AblationConfig(keep_counts=(KEEP_ALL, 2), seeds=(0, 1, 2), strategy=STRATEGY)
    run_ablation(mapping, build_runs(mapping), build_qrels(mapping), config, CUTOFFS)
    cell = ["subsample", "fuse_runs", "evaluate"]
    assert calls == cell[1:] + cell * 3


def test_run_ablation_fuses_down_to_the_largest_cutoff_only(monkeypatch):
    import fusekit.ablation as ablation

    depths = []
    fuse_runs = ablation.fuse_runs
    monkeypatch.setattr(ablation, "fuse_runs", lambda *args: depths.append(args[3]) or fuse_runs(*args))
    mapping = build_map({"q1": 6, "q2": 3})
    config = AblationConfig(keep_counts=(KEEP_ALL, 2), seeds=(0, 1), strategy=STRATEGY)
    run_ablation(mapping, build_runs(mapping), build_qrels(mapping), config, CUTOFFS)
    assert depths == [max(CUTOFFS.values)] * 3


def test_render_ablation_row_labels():
    mapping = build_map({"q1": 8})
    runs = build_runs(mapping)
    qrels = build_qrels(mapping)
    config = AblationConfig(
        keep_counts=(1, 5, KEEP_ALL), seeds=(0, 1, 2, 3, 4), strategy=STRATEGY
    )
    text = render_ablation(run_ablation(mapping, runs, qrels, config, CUTOFFS))
    assert "1 random" in text
    assert "5 random" in text
    assert "All" in text
    assert "±" in text


# ---------------------------------------------------------------------------
# run_ablation on two CPUs: the floor is lowered, so that small inputs fork
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def cells_on_two_cpus(on: bool = True):
    """Split the cells over two processes (``on``) or keep them in this one; yields the children forked."""
    with mock.patch.object(ablation, "_TWO_CPU_MIN", 0 if on else sys.maxsize), two_cpus() as made:
        yield made


def ablation_outcome(*args):
    """``repr(run_ablation(*args))``, exact to the last bit and the order of every key, or the error raised."""
    try:
        return repr(run_ablation(*args))
    except FusekitError as e:
        return type(e), str(e)


def one_and_two_cpu_outcomes(*args, forks: int = 1):
    """The outcomes of ``run_ablation(*args)`` in one process and on two CPUs; checks the forks and that nothing is left."""
    with cells_on_two_cpus(False) as made:
        one = ablation_outcome(*args)
    assert made == []
    fds_before = open_fds()
    with cells_on_two_cpus() as made:
        two = ablation_outcome(*args)
    assert len(made) == forks
    assert_nothing_left(fds_before)
    return one, two


KEEP_CHOICES = st.lists(st.sampled_from([1, 2, 3, 5, KEEP_ALL]), min_size=1, max_size=4, unique=True)
SEED_CHOICES = st.lists(st.integers(0, 50), min_size=1, max_size=4, unique=True)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    keep_counts=KEEP_CHOICES,
    seeds=SEED_CHOICES,
    kind=st.sampled_from(["max_sim", "rrf", "sum_sim"]),
    data_seed=st.integers(0, 1000),
)
@example(sizes=[3, 5], keep_counts=[KEEP_ALL], seeds=[0], kind="max_sim", data_seed=0)  # one cell: no fork
@example(sizes=[4], keep_counts=[2], seeds=[7], kind="max_sim", data_seed=1)  # one seed, one cell
@example(sizes=[4, 2], keep_counts=[2, KEEP_ALL], seeds=[0, 1], kind="rrf", data_seed=2)  # three cells
@example(sizes=[6, 1], keep_counts=[1, 3], seeds=[0, 1, 2], kind="max_sim", data_seed=3)  # six cells
def test_the_two_cpu_report_is_the_one_process_report(sizes, keep_counts, seeds, kind, data_seed):
    mapping = build_map({f"q{i}": n for i, n in enumerate(sizes)})
    config = AblationConfig(keep_counts=tuple(keep_counts), seeds=tuple(seeds), strategy=FusionStrategy(kind))
    cells = sum(1 if keep == KEEP_ALL else len(seeds) for keep in keep_counts)
    args = (mapping, build_runs(mapping, data_seed), build_qrels(mapping, data_seed), config, CUTOFFS)
    one, two = one_and_two_cpu_outcomes(*args, forks=int(cells >= 2))
    assert two == one


@pytest.mark.parametrize("keep_counts", [(1, KEEP_ALL), (KEEP_ALL, 1)], ids=["child-cell", "main-cell"])
def test_an_error_in_either_process_is_the_one_process_error(keep_counts):
    # only the "all" cell reads the missing list, at an odd position (the child's) or an even one (this process's)
    mapping = build_map({"q1": 4, "q2": 3})
    drawn = {sub_id for qid in mapping.groups for sub_id in subsample(mapping, 1, 0).sub_query_ids(qid)}
    runs = build_runs(mapping)
    missing = next(sub_id for sub_id in runs.lists if sub_id not in drawn)
    broken = RunSet(lists={k: v for k, v in runs.lists.items() if k != missing}, tag="subq")
    config = AblationConfig(keep_counts=keep_counts, seeds=(0,), strategy=STRATEGY)
    one, two = one_and_two_cpu_outcomes(mapping, broken, build_qrels(mapping), config, CUTOFFS)
    assert one == (ValidationError, f"no ranked list for sub-query {missing!r}")
    assert two == one


def test_when_both_processes_fail_the_error_of_the_first_failing_cell_is_raised():
    # cells (1, a), (1, b), (1, c) draw sub-queries a, b and c, and the lists of b and c are missing:
    # this process fails on c, but the child's cell b comes first
    mapping = build_map({"q1": 6})
    draws: dict[str, int] = {}
    for seed in range(100):
        draws.setdefault(subsample(mapping, 1, seed).sub_query_ids("q1")[0], seed)
    (_, seed_a), (sub_b, seed_b), (sub_c, seed_c) = list(draws.items())[:3]
    runs = build_runs(mapping)
    broken = RunSet(lists={k: v for k, v in runs.lists.items() if k not in (sub_b, sub_c)}, tag="subq")
    config = AblationConfig(keep_counts=(1,), seeds=(seed_a, seed_b, seed_c), strategy=STRATEGY)
    one, two = one_and_two_cpu_outcomes(mapping, broken, build_qrels(mapping), config, CUTOFFS)
    assert one == (ValidationError, f"no ranked list for sub-query {sub_b!r}")
    assert two == one


def test_a_failed_cell_here_kills_the_child_at_once(monkeypatch):
    parent, real_evaluate = os.getpid(), ablation.evaluate

    def evaluate(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return real_evaluate(*args)

    monkeypatch.setattr(ablation, "evaluate", evaluate)
    # this process's "all" cell fails on a list the child's (1, 0) cell does not draw, so the child sleeps
    mapping = build_map({"q1": 3})
    [drawn] = subsample(mapping, 1, 0).sub_query_ids("q1")
    runs = build_runs(mapping)
    broken = RunSet(lists={drawn: runs.lists[drawn]}, tag="subq")
    config = AblationConfig(keep_counts=(KEEP_ALL, 1), seeds=(0,), strategy=STRATEGY)
    fds_before = open_fds()
    start = time.monotonic()
    with cells_on_two_cpus() as made, pytest.raises(ValidationError):
        run_ablation(mapping, broken, build_qrels(mapping), config, CUTOFFS)
    assert time.monotonic() - start < 30
    assert len(made) == 1
    assert_nothing_left(fds_before)


@pytest.mark.parametrize("sent", [False, True], ids=["before-sending", "after-sending"])
def test_a_child_that_exits_1_falls_back_to_the_one_process_run(monkeypatch, sent):
    parent, real_evaluate, real_write = os.getpid(), ablation.evaluate, core._write_records
    evaluated = []  # the cells this process evaluates

    def evaluate(*args):
        if os.getpid() != parent and not sent:
            os._exit(1)
        evaluated.append(args)
        return real_evaluate(*args)

    def write_records(fd, records):
        real_write(fd, records)
        os._exit(1)

    monkeypatch.setattr(ablation, "evaluate", evaluate)
    monkeypatch.setattr(core, "_write_records", write_records)
    mapping = build_map({"q1": 6, "q2": 3})
    config = AblationConfig(keep_counts=(KEEP_ALL, 2), seeds=(0, 1, 2), strategy=STRATEGY)
    one, two = one_and_two_cpu_outcomes(mapping, build_runs(mapping), build_qrels(mapping), config, CUTOFFS)
    assert two == one
    assert len(evaluated) == 4 + 2 + 4  # one process; then its 2 cells of 4, and all 4 again


def test_a_record_cut_short_falls_back_to_the_one_process_run(monkeypatch):
    def write_records(fd, records):
        with open(fd, "wb") as pipe:
            pipe.write((100).to_bytes(4, "little") + b"abc")  # a record of 100 bytes, cut off after 3

    monkeypatch.setattr(core, "_write_records", write_records)
    mapping = build_map({"q1": 6, "q2": 3})
    config = AblationConfig(keep_counts=(KEEP_ALL, 2), seeds=(0, 1, 2), strategy=STRATEGY)
    one, two = one_and_two_cpu_outcomes(mapping, build_runs(mapping), build_qrels(mapping), config, CUTOFFS)
    assert two == one


def test_on_two_cpus_this_process_draws_fuses_and_evaluates_its_own_cells_in_turn(monkeypatch):
    calls = []
    for name in ("subsample", "fuse_runs", "evaluate"):
        def traced(*args, _name=name, _fn=getattr(ablation, name), **kwargs):
            calls.append(_name)  # the child appends to its own copy of the list
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ablation, name, traced)
    mapping = build_map({"q1": 6, "q2": 3})
    config = AblationConfig(keep_counts=(KEEP_ALL, 2), seeds=(0, 1, 2), strategy=STRATEGY)
    with cells_on_two_cpus() as made:
        run_ablation(mapping, build_runs(mapping), build_qrels(mapping), config, CUTOFFS)
    assert len(made) == 1
    # cells ("all"), (2, 0), (2, 1), (2, 2): this process computes "all" and (2, 1)
    cell = ["subsample", "fuse_runs", "evaluate"]
    assert calls == cell[1:] + cell
