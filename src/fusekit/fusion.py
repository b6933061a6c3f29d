"""Rank-fusion strategies over per-sub-query ranked lists.

Five strategies merge the N ranked lists produced for one query's
sub-queries into a single ranking:

  rrf           sum of 1 / (K + rank) over the lists containing a doc
  weighted_rrf  like rrf, each term weighted by the doc's list score
  sum_sim       sum of scores over the lists containing a doc
  max_sim       best score across lists
  mean_sim      sum of scores divided by the total number of lists N

A document absent from a list contributes nothing to that list's sum and
is skipped by max; mean divides by N regardless, so sparse appearances are
diluted. Fused output carries the fused score only, sorted by descending
score with doc-id ascending tie-break.

max_sim cut to an output depth reads only the lists' heads: a doc's best
score is its first in a merge of the lists by descending score, so the
merge stops once the cut can no longer change.
"""

from __future__ import annotations

import heapq
import math
import sys
from array import array
from dataclasses import dataclass
from itertools import repeat
from operator import neg

from .core import QueryId, ScoredList, _is_json, truncate
from .errors import ValidationError

STRATEGY_KINDS = ("rrf", "weighted_rrf", "sum_sim", "max_sim", "mean_sim")


@dataclass(frozen=True)
class FusionStrategy:
    """A strategy kind plus the smoothing constant used by the rrf variants."""

    kind: str
    k_constant: int = 60

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValidationError(
                f"unknown fusion strategy {self.kind!r}; expected one of {STRATEGY_KINDS}"
            )
        if not _is_json(self.k_constant, int) or self.k_constant <= 0:
            raise ValidationError(
                f"k_constant must be a positive integer, got {self.k_constant!r}"
            )

    def label(self) -> str:
        if self.kind in ("rrf", "weighted_rrf"):
            return f"{self.kind}-k{self.k_constant}"
        return self.kind


@dataclass(frozen=True)
class FusionInput:
    """One query's sub-query ranked lists, in sub-query order."""

    query: QueryId
    sub_lists: tuple[ScoredList, ...]

    def __post_init__(self):
        object.__setattr__(self, "sub_lists", tuple(self.sub_lists))
        if not self.sub_lists:
            raise ValidationError(f"query {self.query!r} has no sub-query lists")


def _check_k(k: int) -> None:
    if k <= 0:
        raise ValidationError(f"rrf smoothing constant must be > 0, got {k}")
    if k > sys.float_info.max:  # 1 / (k + rank) needs k as a float
        raise ValidationError("rrf smoothing constant exceeds the float range")


def _summed(inp: FusionInput, terms, divisor: int = 1) -> ScoredList:
    """Sum each doc's terms over the lists containing it, divided by ``divisor``.

    ``terms(sub)`` gives a list's terms in rank order; extra terms are ignored.
    """
    contributions: dict[str, list[float]] = {}
    for sub in inp.sub_lists:
        for doc, term in zip(sub._docs, terms(sub)):
            contributions.setdefault(doc, []).append(term)
    try:
        # fsum is exactly rounded, so fused scores do not depend on list order
        return ScoredList._trusted_sorted(
            {doc: math.fsum(doc_terms) / divisor for doc, doc_terms in contributions.items()}
        )
    except OverflowError:
        raise ValidationError(
            f"query {inp.query!r}: a fused score exceeds the float range"
        ) from None


def _scores(sub: ScoredList) -> array:
    return sub._scores


def rrf(inp: FusionInput, k: int) -> ScoredList:
    """Reciprocal rank fusion: score(v) = sum_i 1 / (k + rank(v, list_i))."""
    _check_k(k)
    # the terms depend on rank only, so every list shares one table
    depth = max(len(sub) for sub in inp.sub_lists)
    table = [1.0 / (k + rank) for rank in range(1, depth + 1)]
    return _summed(inp, lambda sub: table)


def weighted_rrf(inp: FusionInput, k: int) -> ScoredList:
    """Reciprocal rank fusion with each term weighted by the list score."""
    _check_k(k)
    return _summed(
        inp, lambda sub: [sim / (k + rank) for rank, sim in enumerate(sub._scores, start=1)]
    )


def sum_sim(inp: FusionInput) -> ScoredList:
    """Total score across the lists containing each doc."""
    return _summed(inp, _scores)


def max_sim(inp: FusionInput) -> ScoredList:
    """Best score across the lists containing each doc."""
    scores: dict[str, float] = {}
    for sub in inp.sub_lists:
        for doc, sim in sub:
            if doc not in scores or sim > scores[doc]:
                scores[doc] = sim
    return ScoredList._trusted_sorted(scores)


def _max_sim_head(inp: FusionInput, depth: int) -> ScoredList:
    """``max_sim`` restricted to docs scoring at least its ``depth``-th score; ``depth`` > 0.

    The merge keys on (-score, list index), never reaching the doc id, as a list
    holds each doc once: each list is in that order whatever the order of its
    tied docs, so a doc is first met at its best score, and on a tie (0.0 and
    -0.0 included) in the earliest list, the one ``max_sim`` keeps.
    """
    merged = heapq.merge(
        *(zip(map(neg, sub._scores), repeat(i), sub._docs) for i, sub in enumerate(inp.sub_lists))
    )
    scores: dict[str, float] = {}
    bound = math.inf  # -score of the depth-th doc, once it is met
    for neg_sim, _, doc in merged:
        if doc in scores:
            continue
        if neg_sim > bound:
            break  # this doc and every one after it score below the depth-th
        scores[doc] = -neg_sim
        if len(scores) == depth:
            bound = neg_sim
    return ScoredList._trusted_sorted(scores)


def mean_sim(inp: FusionInput) -> ScoredList:
    """Sum of scores divided by the total list count N (absences count as 0)."""
    return _summed(inp, _scores, len(inp.sub_lists))


_STRATEGIES = {fn.__name__: fn for fn in (rrf, weighted_rrf, sum_sim, max_sim, mean_sim)}


def fuse(inp: FusionInput, strategy: FusionStrategy, output_depth: int | None = None) -> ScoredList:
    """Apply a strategy, then truncate to ``output_depth`` if given."""
    if strategy.kind == "max_sim" and output_depth is not None and output_depth > 0:
        return truncate(_max_sim_head(inp, output_depth), output_depth)
    if strategy.kind in ("rrf", "weighted_rrf"):
        fused = _STRATEGIES[strategy.kind](inp, strategy.k_constant)
    else:
        fused = _STRATEGIES[strategy.kind](inp)
    if output_depth is not None:
        fused = truncate(fused, output_depth)
    return fused
