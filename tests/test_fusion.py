from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusekit import (
    FusionInput,
    FusionStrategy,
    ScoredList,
    ValidationError,
    fuse,
    max_sim,
    mean_sim,
    rrf,
    sum_sim,
    truncate,
    weighted_rrf,
)

from conftest import random_scored_list


# ---------------------------------------------------------------------------
# Brute-force oracle: direct evaluation of the five fusion formulas over
# plain (doc, score) lists, written independently of the library code.
# ---------------------------------------------------------------------------


def oracle_scores(lists: list[list[tuple[str, float]]], kind: str, k: int | None = None):
    # math.fsum keeps the oracle's sums exactly rounded, so ties between
    # mathematically equal scores stay ties regardless of list order
    import math

    docs = sorted({doc for lst in lists for doc, _ in lst})
    out = {}
    for doc in docs:
        contribs = []  # (rank, score) in each list containing doc
        for lst in lists:
            for rank, (d, s) in enumerate(lst, start=1):
                if d == doc:
                    contribs.append((rank, s))
        if kind == "rrf":
            out[doc] = math.fsum(1.0 / (k + r) for r, _ in contribs)
        elif kind == "weighted_rrf":
            out[doc] = math.fsum(s / (k + r) for r, s in contribs)
        elif kind == "sum_sim":
            out[doc] = math.fsum(s for _, s in contribs)
        elif kind == "max_sim":
            out[doc] = max(s for _, s in contribs)
        elif kind == "mean_sim":
            out[doc] = math.fsum(s for _, s in contribs) / len(lists)
        else:
            raise AssertionError(kind)
    return out


def oracle_order(scores: dict[str, float]) -> list[str]:
    return sorted(scores, key=lambda d: (-scores[d], d))


def as_input(lists, query="q") -> FusionInput:
    return FusionInput(query, tuple(ScoredList(tuple(lst)) for lst in lists))


# ---------------------------------------------------------------------------
# rrf
# ---------------------------------------------------------------------------


def test_rrf_doc_at_rank_one_in_two_lists():
    lists = [[("dA", 0.9)], [("dA", 0.8)]]
    expected = oracle_scores(lists, "rrf", k=10)["dA"]
    assert expected == pytest.approx(2 / 11)
    fused = rrf(as_input(lists), 10)
    assert fused.scores()["dA"] == pytest.approx(expected, abs=1e-15)


def test_rrf_single_list_preserves_order():
    lst = [("dC", 0.9), ("dA", 0.5), ("dB", 0.1)]
    fused = rrf(as_input([lst]), 60)
    assert fused.docs() == ("dC", "dA", "dB")


def test_rrf_membership_beats_single_good_rank():
    # A at rank 1 in one list only; B at rank 2 in both: B wins at K=60
    lists = [[("dA", 0.9), ("dB", 0.5)], [("dC", 0.9), ("dB", 0.5)]]
    fused = rrf(as_input(lists), 60)
    scores = fused.scores()
    assert scores["dA"] == pytest.approx(1 / 61)
    assert scores["dB"] == pytest.approx(2 / 62)
    assert fused.docs()[0] == "dB"


@pytest.mark.parametrize("fuse", [rrf, weighted_rrf])
def test_rrf_rejects_a_k_beyond_the_float_range(fuse):
    with pytest.raises(ValidationError, match="exceeds the float range"):
        fuse(as_input([[("dA", 1.0)]]), 10**309)


def test_rrf_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        rrf(as_input([[("dA", 1.0)]]), 0)
    with pytest.raises(ValueError):
        weighted_rrf(as_input([[("dA", 1.0)]]), -5)


# ---------------------------------------------------------------------------
# weighted rrf
# ---------------------------------------------------------------------------


def test_weighted_rrf_single_entry():
    fused = weighted_rrf(as_input([[("dA", 0.5)]]), 10)
    assert fused.scores()["dA"] == pytest.approx(0.5 / 11)


def test_weighted_rrf_with_unit_similarities_equals_rrf():
    lists = [[("dA", 1.0), ("dB", 1.0)], [("dB", 1.0), ("dC", 1.0)]]
    inp = as_input(lists)
    assert weighted_rrf(inp, 60).entries == rrf(inp, 60).entries


def test_weighted_rrf_all_zero_similarities():
    lists = [[("dB", 0.0), ("dA", 0.0)]]
    fused = weighted_rrf(as_input(lists), 10)
    assert all(score == 0.0 for _, score in fused.entries)
    assert fused.docs() == ("dA", "dB")  # doc-id tie-break


# ---------------------------------------------------------------------------
# similarity strategies
# ---------------------------------------------------------------------------


def test_sum_sim_adds_contributions():
    fused = sum_sim(as_input([[("dA", 0.3)], [("dA", 0.4)]]))
    assert fused.scores()["dA"] == pytest.approx(0.7)


def test_sum_sim_single_list_unchanged():
    lst = [("dC", 0.9), ("dA", 0.5)]
    fused = sum_sim(as_input([lst]))
    assert fused.entries == tuple(lst)


def test_sum_sim_breadth_beats_one_strong_match():
    lists = [[("dA", 0.9), ("dB", 0.5)], [("dB", 0.5)]]
    fused = sum_sim(as_input(lists))
    assert fused.scores()["dB"] == pytest.approx(1.0)
    assert fused.docs()[0] == "dB"


def test_max_sim_takes_best():
    fused = max_sim(as_input([[("dA", 0.3)], [("dA", 0.7)]]))
    assert fused.scores()["dA"] == pytest.approx(0.7)


def test_max_sim_duplicate_list_is_idempotent():
    lists = [[("dA", 0.9), ("dB", 0.4)], [("dB", 0.6)]]
    once = max_sim(as_input(lists))
    twice = max_sim(as_input(lists + lists))
    assert once.entries == twice.entries


def test_max_sim_disjoint_lists_union():
    lists = [[("dA", 0.9), ("dB", 0.4)], [("dC", 0.7)]]
    scores = oracle_scores(lists, "max_sim")
    fused = max_sim(as_input(lists))
    assert fused.docs() == tuple(oracle_order(scores))
    for doc, score in fused.entries:
        assert score == pytest.approx(scores[doc], abs=1e-15)


def test_mean_sim_dilutes_sparse_docs():
    # present in 1 of 2 lists: 0.4 / 2
    fused = mean_sim(as_input([[("dA", 0.4)], [("dB", 0.9)]]))
    assert fused.scores()["dA"] == pytest.approx(0.2)


def test_mean_sim_single_list_identity():
    lst = [("dC", 0.9), ("dA", 0.5)]
    inp = as_input([lst])
    assert mean_sim(inp).entries == sum_sim(inp).entries == tuple(lst)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_mean_sim_constant_everywhere(n):
    lists = [[("dA", 0.37)] for _ in range(n)]
    fused = mean_sim(as_input(lists))
    assert fused.scores()["dA"] == pytest.approx(0.37)


# ---------------------------------------------------------------------------
# fuse dispatch
# ---------------------------------------------------------------------------


def test_fuse_is_truncate_of_strategy():
    rng = random.Random(7)
    docs = [f"d{i}" for i in range(10)]
    lists = [random_scored_list(rng, docs) for _ in range(3)]
    inp = FusionInput("q", tuple(lists))
    strat = FusionStrategy("rrf", 10)
    assert fuse(inp, strat, 4) == truncate(rrf(inp, 10), 4)


def test_fuse_depth_zero_is_empty():
    inp = as_input([[("dA", 1.0)]])
    assert len(fuse(inp, FusionStrategy("sum_sim"), 0)) == 0


# few doc ids and few score values, so docs recur across lists and scores tie, 0.0 and -0.0 included
HEAD_DOCS = [f"d{i}" for i in range(8)]
HEAD_SCORES = st.sampled_from([1.0, 0.5, 0.25, 0.0, -0.0, -0.5])


@st.composite
def public_scored_lists(draw) -> ScoredList:
    """A list built by the public constructor, its tied docs in any order (which it accepts)."""
    docs = draw(st.lists(st.sampled_from(HEAD_DOCS), unique=True, max_size=len(HEAD_DOCS)))
    scores = draw(st.lists(HEAD_SCORES, min_size=len(docs), max_size=len(docs)))
    return ScoredList(sorted(zip(docs, scores), key=lambda entry: -entry[1]))  # stable: ties keep the draw


@settings(max_examples=400)
@given(st.lists(public_scored_lists(), min_size=1, max_size=5), st.integers(0, len(HEAD_DOCS) + 2))
@example([ScoredList([("b", 1.0), ("a", 1.0)])], 1)  # a stop at the first doc would give b
@example([ScoredList([("a", 0.0)]), ScoredList([("a", -0.0)])], 1)
@example([ScoredList([("b", 0.0), ("a", 0.0)]), ScoredList([("a", -0.0)])], 2)  # a (-score, doc) merge gives -0.0
def test_max_sim_head_equals_the_cut_of_the_whole_fusion(sub_lists, depth):
    inp = FusionInput("q", sub_lists)
    head = fuse(inp, FusionStrategy("max_sim"), depth)
    whole = truncate(max_sim(inp), depth)
    assert head.docs() == whole.docs()
    assert list(map(repr, head._scores)) == list(map(repr, whole._scores))  # bit for bit: -0.0 is not 0.0


def test_unknown_strategy_kind_unrepresentable():
    with pytest.raises(ValidationError):
        FusionStrategy("best_sim")


def test_empty_fusion_input_rejected():
    with pytest.raises(ValidationError):
        FusionInput("q", ())


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

ALL_STRATEGIES = [
    FusionStrategy("rrf", 10),
    FusionStrategy("rrf", 60),
    FusionStrategy("rrf", 100),
    FusionStrategy("weighted_rrf", 60),
    FusionStrategy("sum_sim"),
    FusionStrategy("max_sim"),
    FusionStrategy("mean_sim"),
]


def _random_lists(rng, n_docs=8, n_lists=None):
    docs = [f"d{i}" for i in range(n_docs)]
    n = n_lists or rng.randint(1, 5)
    return [list(random_scored_list(rng, docs).entries) for _ in range(n)]


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.label())
def test_permutation_invariance(strategy):
    rng = random.Random(11)
    for _ in range(30):
        lists = _random_lists(rng)
        shuffled = lists[:]
        rng.shuffle(shuffled)
        assert fuse(as_input(lists), strategy) == fuse(as_input(shuffled), strategy)


def test_rrf_monotone_under_appended_list():
    rng = random.Random(13)
    for _ in range(30):
        lists = _random_lists(rng)
        extra = list(random_scored_list(rng, [f"d{i}" for i in range(8)]).entries)
        before = rrf(as_input(lists), 60).scores()
        after = rrf(as_input(lists + [extra]), 60).scores()
        extra_docs = {d for d, _ in extra}
        for doc in extra_docs:
            assert after[doc] > before.get(doc, 0.0)
        for doc, score in before.items():
            if doc not in extra_docs:
                assert after[doc] == score


@pytest.mark.parametrize("k", [1, 10, 60, 100, 997])
def test_rrf_dominance(k):
    # dV strictly outranks dW in every list
    lists = [
        [("dV", 0.9), ("dX", 0.8), ("dW", 0.7)],
        [("dY", 0.9), ("dV", 0.8), ("dW", 0.2)],
        [("dV", 0.5), ("dW", 0.4)],
    ]
    scores = rrf(as_input(lists), k).scores()
    assert scores["dV"] > scores["dW"]


def test_reduction_identities_random():
    rng = random.Random(17)
    for _ in range(50):
        lists = _random_lists(rng)
        inp = as_input(lists)
        n = len(lists)
        unit = as_input([[(d, 1.0) for d, _ in lst] for lst in lists])
        assert weighted_rrf(unit, 60).entries == rrf(unit, 60).entries
        summed = sum_sim(inp).scores()
        for doc, score in mean_sim(inp).entries:
            assert score == pytest.approx(summed[doc] / n, abs=1e-15)


def test_large_k_orders_by_membership_then_rank_sum():
    rng = random.Random(19)
    big_k = 10**6
    for _ in range(40):
        lists = _random_lists(rng)
        fused = rrf(as_input(lists), big_k)
        stats = {}
        for doc in fused.docs():
            ranks = [
                rank
                for lst in lists
                for rank, (d, _) in enumerate(lst, start=1)
                if d == doc
            ]
            stats[doc] = (len(ranks), sum(ranks))
        order = list(fused.docs())
        for earlier, later in zip(order, order[1:]):
            count_e, ranksum_e = stats[earlier]
            count_l, ranksum_l = stats[later]
            assert count_e >= count_l
            if count_e == count_l:
                assert ranksum_e <= ranksum_l


@settings(max_examples=150)
@given(st.data())
def test_oracle_equivalence_small_instances(data):
    n_lists = data.draw(st.integers(1, 5))
    docs = [f"d{i}" for i in range(data.draw(st.integers(1, 10)))]
    lists = []
    for _ in range(n_lists):
        chosen = data.draw(
            st.lists(st.sampled_from(docs), min_size=1, max_size=len(docs), unique=True)
        )
        raw = data.draw(
            st.lists(st.floats(0, 1, allow_nan=False), min_size=len(chosen), max_size=len(chosen))
        )
        scores = sorted(raw, reverse=True)
        lists.append(list(zip(chosen, scores)))
    inp = as_input(lists)
    for strategy in ALL_STRATEGIES:
        k = strategy.k_constant
        expected = oracle_scores(lists, strategy.kind, k=k)
        fused = fuse(inp, strategy)
        assert fused.docs() == tuple(oracle_order(expected))
        for doc, score in fused.entries:
            assert abs(score - expected[doc]) <= 1e-12


@pytest.mark.parametrize("kind", ["sum_sim", "mean_sim"])
def test_fused_score_overflow_is_a_validation_error(kind):
    inp = FusionInput("q1", (ScoredList((("dA", 1e308),)), ScoredList((("dA", 1e308),))))
    with pytest.raises(ValidationError, match="float range"):
        fuse(inp, FusionStrategy(kind))
