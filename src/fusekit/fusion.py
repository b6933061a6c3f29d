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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import QueryId, ScoredList, truncate
from .errors import ValidationError

STRATEGY_KINDS = ("rrf", "weighted_rrf", "sum_sim", "max_sim", "mean_sim")

# smoothing constants exercised in the reference experiments
STANDARD_K_VALUES = (10, 60, 100)


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
        if not isinstance(self.k_constant, int) or self.k_constant <= 0:
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
        raise ValueError(f"rrf smoothing constant must be > 0, got {k}")


def _summed(inp: FusionInput, terms, divisor: int = 1) -> ScoredList:
    """Sum each doc's terms over the lists containing it, divided by ``divisor``.

    ``terms(entries)`` gives a list's terms in rank order; extra terms are ignored.
    """
    contributions: dict[str, list[float]] = {}
    for sub in inp.sub_lists:
        for (doc, _), term in zip(sub.entries, terms(sub.entries)):
            contributions.setdefault(doc, []).append(term)
    try:
        # fsum is exactly rounded, so fused scores do not depend on list order
        return ScoredList._trusted_sorted(
            (doc, math.fsum(doc_terms) / divisor) for doc, doc_terms in contributions.items()
        )
    except OverflowError:
        raise ValidationError(
            f"query {inp.query!r}: a fused score exceeds the float range"
        ) from None


def _scores(entries: tuple[tuple[str, float], ...]) -> list[float]:
    return [sim for _, sim in entries]


def rrf(inp: FusionInput, k: int) -> ScoredList:
    """Reciprocal rank fusion: score(v) = sum_i 1 / (k + rank(v, list_i))."""
    _check_k(k)
    # the terms depend on rank only, so every list shares one table
    depth = max(len(sub) for sub in inp.sub_lists)
    table = [1.0 / (k + rank) for rank in range(1, depth + 1)]
    return _summed(inp, lambda entries: table)


def weighted_rrf(inp: FusionInput, k: int) -> ScoredList:
    """Reciprocal rank fusion with each term weighted by the list score."""
    _check_k(k)
    return _summed(
        inp, lambda entries: [sim / (k + rank) for rank, (_, sim) in enumerate(entries, start=1)]
    )


def sum_sim(inp: FusionInput) -> ScoredList:
    """Total score across the lists containing each doc."""
    return _summed(inp, _scores)


def max_sim(inp: FusionInput) -> ScoredList:
    """Best score across the lists containing each doc."""
    scores: dict[str, float] = {}
    for sub in inp.sub_lists:
        for doc, sim in sub.entries:
            if doc not in scores or sim > scores[doc]:
                scores[doc] = sim
    return ScoredList._trusted_sorted(scores.items())


def mean_sim(inp: FusionInput) -> ScoredList:
    """Sum of scores divided by the total list count N (absences count as 0)."""
    return _summed(inp, _scores, len(inp.sub_lists))


_STRATEGIES = {fn.__name__: fn for fn in (rrf, weighted_rrf, sum_sim, max_sim, mean_sim)}


def fuse(inp: FusionInput, strategy: FusionStrategy, output_depth: int | None = None) -> ScoredList:
    """Apply a strategy, then truncate to ``output_depth`` if given."""
    if strategy.kind in ("rrf", "weighted_rrf"):
        fused = _STRATEGIES[strategy.kind](inp, strategy.k_constant)
    else:
        fused = _STRATEGIES[strategy.kind](inp)
    if output_depth is not None:
        fused = truncate(fused, output_depth)
    return fused
