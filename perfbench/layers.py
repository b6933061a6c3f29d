"""Per-layer metrics derived from the spans of traced jobs.

Times named after a function (``core.parse_run.s``) are the summed
durations of that function's spans; ``pipeline.unattributed_s`` is a self
time: the ``run_pipeline`` span minus the spans of the public stage calls
inside it. The tracer's own counting runs in ``trace.count`` spans, whose
time is taken out of every span that encloses them. A metric is None on a
workload that never calls the layer. Units and directions are declared in
BENCHMARK.json.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple

COUNT = "trace.count"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    dur: float  # end - start, less the trace.count spans inside it
    self_s: float
    parent: str | None
    attrs: dict


class View:
    """All spans and summed counters of one workload's traced run."""

    def __init__(self, dumps: list[dict]):
        self.spans: list[Span] = []
        self.totals: dict[str, int] = {}
        for dump in dumps:
            raw = dump["spans"]
            covered = [0.0] * len(raw)  # time of direct children
            counted = [0.0] * len(raw)  # time of trace.count spans within
            for i in range(len(raw) - 1, -1, -1):  # a child always comes after its parent
                name, start, end, parent = raw[i][:4]
                if name == COUNT:
                    counted[i] = end - start
                if parent is not None:
                    covered[parent] += end - start
                    counted[parent] += counted[i]
            for i, (name, start, end, parent, _, attrs) in enumerate(raw):
                parent_name = raw[parent][0] if parent is not None else None
                dur = end - start - (counted[i] if name != COUNT else 0.0)
                self.spans.append(Span(name, start, end, dur, end - start - covered[i], parent_name, attrs))
            for key, value in dump["totals"].items():
                self.totals[key] = self.totals.get(key, 0) + value

    def of(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float | None:
        spans = self.of(name)
        return sum(s.dur for s in spans) if spans else None

    def attr(self, name: str, key: str) -> int | None:
        spans = self.of(name)
        return sum(s.attrs.get(key, 0) for s in spans) if spans else None

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.self_s
        return out

    def cells(self) -> list[float]:
        """Ablation cells: from the first call after the previous cell to the end of its evaluate.

        The trace.count spans inside a cell are taken out of it.
        """
        cells, start, counted = [], None, 0.0
        for s in self.spans:
            if s.parent != "ablation.run_ablation":
                continue
            if s.name == COUNT:
                counted += s.dur if start is not None else 0.0
                continue
            start = s.start if start is None else start
            counted += s.end - s.start - s.dur
            if s.name == "metrics.evaluate":
                cells.append(s.end - start - counted)
                start, counted = None, 0.0
        return cells

    def calls_under(self, parent: str, prefix: str) -> int | None:
        """Number of spans named ``prefix...`` directly inside a ``parent`` span."""
        if not self.of(parent):
            return None
        return sum(1 for s in self.spans if s.parent == parent and s.name.startswith(prefix))


def _ratio(a, b):
    return None if a is None or not b else a / b


def _percentile_us(spans: list[Span], pct: int) -> float | None:
    if len(spans) < 2:
        return None
    return statistics.quantiles([s.dur for s in spans], n=100)[pct - 1] * 1e6


def _bytes_per_entry(v: View) -> float | None:
    spans = [s for s in v.of("core.parse_run") if s.attrs.get("entries")]
    if not spans:
        return None
    big = max(spans, key=lambda s: s.attrs["entries"])
    return (big.attrs["rss1_kib"] - big.attrs["rss0_kib"]) * 1024 / big.attrs["entries"]


def _if_called(v: View, name: str, value):
    return value if v.of(name) else None


DERIVED = {
    "core.parse_run.s": lambda v: v.total("core.parse_run"),
    "core.parse_run.lines_per_s": lambda v: _ratio(v.attr("core.parse_run", "entries"), v.total("core.parse_run")),
    "core.parse_run.bytes_per_entry": _bytes_per_entry,
    "core.parse_qrels.s": lambda v: v.total("core.parse_qrels"),
    "core.parse_subquery_map.s": lambda v: v.total("core.parse_subquery_map"),
    "core.write_run.s": lambda v: v.total("core.write_run"),
    "core.write_run.mb": lambda v: _ratio(v.attr("core.write_run", "bytes"), 1e6),
    "fusion.rrf.s": lambda v: v.total("fusion.sweep.rrf"),
    "fusion.weighted_rrf.s": lambda v: v.total("fusion.sweep.weighted_rrf"),
    "fusion.sum_sim.s": lambda v: v.total("fusion.sweep.sum_sim"),
    "fusion.max_sim.s": lambda v: v.total("fusion.sweep.max_sim"),
    "fusion.mean_sim.s": lambda v: v.total("fusion.sweep.mean_sim"),
    "fusion.entries_in": lambda v: v.attr("fusion.fuse", "entries_in"),
    "fusion.docs_out": lambda v: v.attr("fusion.fuse", "docs_out"),
    "fusion.kept_ratio": lambda v: _ratio(v.attr("fusion.fuse", "docs_out"), v.attr("fusion.fuse", "distinct")),
    "ablation.run_ablation.s": lambda v: v.total("ablation.run_ablation"),
    "ablation.cell.s": lambda v: statistics.median(v.cells()) if v.cells() else None,
    "ablation.subsample.s": lambda v: v.total("ablation.subsample"),
    "ablation.cells": lambda v: len(v.cells()) or None,
    "ablation.refuse_ratio": lambda v: _if_called(v, "ablation.run_ablation", _ratio(
        v.attr("fusion.fuse", "entries_in"), v.totals.get("distinct_sub_entries"))),
    "metrics.evaluate.s": lambda v: v.total("metrics.evaluate"),
    "metrics.evaluate.us_per_query": lambda v: _ratio(
        v.total("metrics.evaluate"), (v.attr("metrics.evaluate", "queries") or 0) / 1e6),
    "metrics.evaluate.growth_x4": lambda v: _ratio(v.total("metrics.evaluate"), v.total("metrics.evaluate.quarter")),
    "pipeline.run_pipeline.s": lambda v: v.total("pipeline.run_pipeline"),
    "pipeline.inject_rerank.s": lambda v: v.total("pipeline.inject_rerank"),
    "pipeline.decompose_all.s": lambda v: v.total("pipeline.decompose_all"),
    "pipeline.unattributed_s": lambda v: _if_called(
        v, "pipeline.run_pipeline", sum(s.self_s for s in v.of("pipeline.run_pipeline"))),
    "pipeline.warnings": lambda v: _if_called(v, "pipeline.run_pipeline", v.totals.get("warnings", 0)),
    "clients.replay_load.s": lambda v: v.total("clients.replay_load"),
    "evidence.load_evidence.s": lambda v: v.total("evidence.load_evidence"),
    "evidence.load_predictions.s": lambda v: v.total("evidence.load_predictions"),
    "evidence.attach.s": lambda v: v.total("evidence.attach"),
    "evidence.attach.matched_ratio": lambda v: _ratio(
        v.attr("evidence.attach", "matched"), v.attr("evidence.attach", "artifacts")),
    "evidence.load_calibrated.s": lambda v: v.total("evidence.load_calibrated"),
    "evidence.filter_by_threshold.s": lambda v: v.total("evidence.filter_by_threshold"),
    "evidence.serialize.s": lambda v: v.total("evidence.serialize"),
    "memory.add_fact.us.p50": lambda v: _percentile_us(v.of("memory.add_fact"), 50),
    "memory.add_fact.us.p99": lambda v: _percentile_us(v.of("memory.add_fact"), 99),
    "memory.search_by_keyword.us.p50": lambda v: _percentile_us(v.of("memory.search_by_keyword"), 50),
    "memory.search_by_keyword.us.p99": lambda v: _percentile_us(v.of("memory.search_by_keyword"), 99),
    "memory.dump.s": lambda v: v.total("memory.dump"),
    "memory.load.s": lambda v: v.total("memory.load"),
    "memory.ops": lambda v: v.calls_under("cli.memory", "memory."),
}


def derive(views: dict[str, View], order: list[str]) -> tuple[dict[str, float], dict[str, str]]:
    """Every span-derived metric, from the first workload in ``order`` that calls the layer.

    Returns the values and, per metric, the workload they came from.
    """
    values, sources = {}, {}
    for name, fn in DERIVED.items():
        for workload in order:
            value = fn(views[workload])
            if value is not None:
                values[name], sources[name] = value, workload
                break
    return values, sources
