from __future__ import annotations

import random

import pytest

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
from fusekit.ablation import render_ablation
from fusekit.metrics import evaluate

from conftest import random_scored_list


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
