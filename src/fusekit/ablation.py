"""Sub-query retention ablation: subsample, fuse, evaluate, aggregate.

For each keep count k, every group of the sub-query map is reduced to
min(k, group size) sub-queries drawn uniformly without replacement, the
surviving lists are fused, and the fused run is evaluated; means and
population standard deviations are reported across seeds. The draw for a
group depends only on (seed, query id), so adding or removing queries
never perturbs other groups' samples.

The sentinel keep count "all" skips sampling entirely and reports the
plain fuse-and-evaluate result with std 0.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

from .core import Qrels, RunSet, SubQueryMap
from .errors import ValidationError
from .fusion import FusionInput, FusionStrategy, fuse
from .metrics import Cutoffs, EvalReport, evaluate

KEEP_ALL = "all"


@dataclass(frozen=True)
class AblationConfig:
    keep_counts: tuple[int | str, ...]
    seeds: tuple[int, ...]
    strategy: FusionStrategy

    def __post_init__(self):
        object.__setattr__(self, "keep_counts", tuple(self.keep_counts))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.keep_counts:
            raise ValidationError("keep_counts must be non-empty")
        if not self.seeds:
            raise ValidationError("seeds must be non-empty")
        for keep in self.keep_counts:
            if keep == KEEP_ALL:
                continue
            if not isinstance(keep, int) or keep < 1:
                raise ValidationError(
                    f"keep count must be a positive integer or '{KEEP_ALL}', got {keep!r}"
                )


@dataclass(frozen=True)
class AblationReport:
    """(mean, population std) per metric for every keep count."""

    rows: dict[int | str, dict[str, tuple[float, float]]] = field(default_factory=dict)


def subsample(mapping: SubQueryMap, keep: int, seed: int) -> SubQueryMap:
    """Retain min(keep, group size) sub-queries per group, original order kept.

    Deterministic: the draw for each group is seeded by (seed, query id).
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    groups = {}
    for qid, subs in mapping.groups.items():
        if len(subs) <= keep:
            groups[qid] = subs
            continue
        rng = random.Random(f"{seed}:{qid}")
        indices = sorted(rng.sample(range(len(subs)), keep))
        groups[qid] = tuple(subs[i] for i in indices)
    return SubQueryMap(groups)


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
    output_depth: int | None = None,
) -> AblationReport:
    """Evaluate every (keep count, seed) cell and aggregate across seeds."""
    rows: dict[int | str, dict[str, tuple[float, float]]] = {}
    for keep in config.keep_counts:
        if keep == KEEP_ALL:
            report = _cell(mapping, sub_query_runs, qrels, config.strategy, cutoffs, output_depth)
            rows[keep] = {name: (value, 0.0) for name, value in report.aggregate.items()}
            continue
        per_seed: list[EvalReport] = []
        for seed in config.seeds:
            sampled = subsample(mapping, keep, seed)
            per_seed.append(
                _cell(sampled, sub_query_runs, qrels, config.strategy, cutoffs, output_depth)
            )
        rows[keep] = {
            name: _mean_std([r.aggregate[name] for r in per_seed])
            for name in per_seed[0].aggregate
        }
    return AblationReport(rows=rows)


def _mean_std(values: list[float]) -> tuple[float, float]:
    # identical per-seed values must report std exactly 0 and mean exactly x
    if min(values) == max(values):
        return values[0], 0.0
    return statistics.fmean(values), statistics.pstdev(values)


def _cell(mapping, sub_query_runs, qrels, strategy, cutoffs, output_depth) -> EvalReport:
    fused = fuse_runs(mapping, sub_query_runs, strategy, output_depth)
    return evaluate(fused, qrels, cutoffs)


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
