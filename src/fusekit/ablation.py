"""Sub-query retention ablation: subsample, fuse, evaluate, aggregate.

For each keep count k, every group of the sub-query map is reduced to
min(k, group size) sub-queries drawn uniformly without replacement, the
surviving lists are fused, and the fused run is evaluated; means and
population standard deviations are reported across seeds. The draw for a
group depends only on (seed, query id), so adding or removing queries
never perturbs other groups' samples.

The sentinel keep count "all" skips sampling entirely and reports the
plain fuse-and-evaluate result with std 0.

The (keep, seed) cells are independent. When there are two or more and
their work (cells times sub-list entries) reaches ``_TWO_CPU_MIN``, and
the process may use two CPUs (see ``core._in_two``), this process
computes the cells at even positions while a forked child computes those
at odd positions and sends back each one's aggregate metrics. The report
is built from the same per-seed values in the same order, so it is the
one-process report, bit for bit. A split that fails computes every cell
again here in order, so the first error is the one-process run's. The
child's memory comes on top of this process's (see ``run_ablation``).
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .core import Qrels, RunSet, SubQueryMap, _in_two, _is_json
from .errors import ValidationError
from .fusion import FusionInput, FusionStrategy, fuse
from .metrics import Cutoffs, evaluate

KEEP_ALL = "all"


@dataclass(frozen=True)
class AblationConfig:
    keep_counts: tuple[int | str, ...]
    seeds: tuple[int, ...]
    strategy: FusionStrategy

    def __post_init__(self):
        object.__setattr__(self, "keep_counts", tuple(self.keep_counts))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.keep_counts:
            raise ValidationError("keep_counts must be non-empty")
        if not self.seeds:
            raise ValidationError("seeds must be non-empty")
        for keep in self.keep_counts:
            if keep != KEEP_ALL and (not _is_json(keep, int) or keep < 1):
                raise ValidationError(
                    f"keep count must be a positive integer or '{KEEP_ALL}', got {keep!r}"
                )
        if not all(_is_json(seed, int) for seed in self.seeds):
            raise ValidationError(f"seeds must be integers, got {self.seeds!r}")
        for what, values in (("keep count", self.keep_counts), ("seed", self.seeds)):
            repeated = [value for i, value in enumerate(values) if value in values[:i]]
            if repeated:
                raise ValidationError(f"{what} {repeated[0]!r} is given twice")


@dataclass(frozen=True)
class AblationReport:
    """(mean, population std) per metric for every keep count."""

    rows: dict[int | str, dict[str, tuple[float, float]]] = field(default_factory=dict)


def subsample(mapping: SubQueryMap, keep: int, seed: int) -> SubQueryMap:
    """Retain min(keep, group size) sub-queries per group, original order kept.

    Deterministic: the draw for each group is seeded by (seed, query id).
    """
    if keep < 1:
        raise ValidationError(f"keep must be >= 1, got {keep}")
    groups = {}
    for qid, subs in mapping.groups.items():
        if len(subs) <= keep:
            groups[qid] = subs
            continue
        rng = random.Random(f"{seed}:{qid}")
        indices = sorted(rng.sample(range(len(subs)), keep))
        groups[qid] = tuple(subs[i] for i in indices)
    return SubQueryMap._trusted(groups)  # a subsample of a checked map needs no second check


def fuse_runs(
    mapping: SubQueryMap,
    sub_query_runs: RunSet,
    strategy: FusionStrategy,
    output_depth: int | None = None,
) -> RunSet:
    """Fuse each query's per-sub-query lists into one run."""
    lists = {}
    for qid in mapping.groups:
        sub_lists = []
        for sub_id in mapping.sub_query_ids(qid):
            if sub_id not in sub_query_runs.lists:
                raise ValidationError(f"no ranked list for sub-query {sub_id!r}")
            sub_lists.append(sub_query_runs.lists[sub_id])
        lists[qid] = fuse(FusionInput(qid, tuple(sub_lists)), strategy, output_depth)
    return RunSet(lists=lists, tag=strategy.label())


def run_ablation(
    mapping: SubQueryMap,
    sub_query_runs: RunSet,
    qrels: Qrels,
    config: AblationConfig,
    cutoffs: Cutoffs,
) -> AblationReport:
    """Evaluate every cell, "all" over the whole map and any other keep count once per seed.

    The cells are taken in order, keep count by keep count and seed by seed,
    each drawn, fused and evaluated in turn. Above the floor the cells are
    split over two processes (see the module docstring). The child then
    holds the pages it copies from this process on top of this process's
    memory; README gives the figures measured on the benchmark's
    ``ablation`` inputs.
    """
    depth = max(cutoffs.values)  # evaluation reads no further down a fused list

    def aggregate(cell: tuple[int | str, int | None]) -> dict[str, float]:
        # no fused run outlives its evaluation
        keep, seed = cell
        drawn = mapping if keep == KEEP_ALL else subsample(mapping, keep, seed)
        return evaluate(fuse_runs(drawn, sub_query_runs, config.strategy, depth), qrels, cutoffs).aggregate

    cells = [(keep, seed) for keep in config.keep_counts for seed in (config.seeds if keep != KEEP_ALL else (None,))]
    if len(cells) >= 2 and len(cells) * sum(map(len, sub_query_runs.lists.values())) >= _TWO_CPU_MIN:
        aggregates = _on_two_cpus(aggregate, cells)
    else:
        aggregates = list(map(aggregate, cells))
    rows: dict[int | str, dict[str, tuple[float, float]]] = {}
    for keep in config.keep_counts:
        per_seed = [values for (cell_keep, _), values in zip(cells, aggregates) if cell_keep == keep]
        rows[keep] = {name: _mean_std([values[name] for values in per_seed]) for name in per_seed[0]}
    return AblationReport(rows=rows)


# cells times sub-list entries from which the cells are split over two processes (see _on_two_cpus);
# in-process run_ablation on perfbench's ablation inputs scaled down, 2-CPU VM, Python 3.11, alternating
# pairs, two processes against one. With 16 max_sim cells they lost 0/12 at 8,000 and 16,000 entries,
# 0/12 and 1/24 at 80,000 (medians 56 -> 69 ms) and 5/24 at 100,000; were mixed at 120,000 (5/12, 17/24
# and 24/24 in three sets); and won 23/24 at 132,000 and 140,000 (medians 115 -> 90 ms), 24/24 at 152,000
# and 12/12 at 160,000 and 320,000. With 4 cells they won 11/12 at 320,000 entries, 5/12 at 560,000
# and 9/12 at 800,000.
_TWO_CPU_MIN = 16 * 140_000


def _on_two_cpus(aggregate: Callable, cells: list) -> list:
    """``[aggregate(cell) for cell in cells]``, a forked child computing the cells at odd positions meanwhile."""

    def join(mine: list, theirs: Iterator) -> list | None:
        theirs = list(theirs)
        if len(theirs) != len(cells) // 2:  # a record cut short
            return None
        aggregates = cells[:]
        aggregates[0::2], aggregates[1::2] = mine, theirs
        return aggregates

    return _in_two(
        lambda: [aggregate(cell) for cell in cells[0::2]],
        lambda: map(aggregate, cells[1::2]),
        join,
        lambda: [aggregate(cell) for cell in cells],
    )


def _mean_std(values: list[float]) -> tuple[float, float]:
    # identical per-seed values, a single one included, must report std exactly 0 and mean exactly x
    if min(values) == max(values):
        return values[0], 0.0
    return statistics.fmean(values), statistics.pstdev(values)


def render_ablation(report: AblationReport) -> str:
    """Mean +/- std table, one row per keep count."""
    if not report.rows:
        return "(empty ablation report)"
    metric_names = list(next(iter(report.rows.values())))
    label_width = max(len(_row_label(k)) for k in report.rows)
    cell_width = max(max(len(n) for n in metric_names), 15)
    header = "kept".ljust(label_width) + "  " + "  ".join(n.ljust(cell_width) for n in metric_names)
    lines = [header]
    for keep, metrics in report.rows.items():
        cells = []
        for name in metric_names:
            mean, std = metrics[name]
            if keep == KEEP_ALL:
                cells.append(f"{mean:.3f}".ljust(cell_width))
            else:
                cells.append(f"{mean:.3f} ± {std:.3f}".ljust(cell_width))
        lines.append(_row_label(keep).ljust(label_width) + "  " + "  ".join(cells))
    return "\n".join(lines)


def _row_label(keep: int | str) -> str:
    return "All" if keep == KEEP_ALL else f"{keep} random"
