"""Traced runs of the workloads' CLI calls (child processes).

    python3 perfbench/spans.py step <workload> <step index> <spans.json>
    python3 perfbench/spans.py extras <pipeline job> <eval job> <evidence-memory job> <spans.json>

``step`` runs in a job directory and calls the step's real CLI entry point,
``fusekit.cli.main``, with the step's arguments, so it writes the same
outputs and the same stdout as the plain call. Before that it rebinds the
public names the CLI handlers and the library's own callers look up
(``fusekit.cli.parse_run``, ``fusekit.pipeline.fuse_runs``,
``MemoryBank.add_fact`` and so on) to wrappers that record a span per call
(name, start, end, parent, attributes), so spans come only from this
benchmark's files. ``extras`` times what no CLI call isolates: all five
fusion strategies on the pipeline inputs, ``evaluate`` on a quarter of the
eval queries, and reloading the memory bank. Spans stay in memory and are
written as JSON when the process ends.
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import CUTOFFS, STEPS

STRATEGIES = ("rrf", "weighted_rrf", "sum_sim", "max_sim", "mean_sim")


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans in memory: [name, start, end, parent index, workload, attributes]."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.totals: dict[str, int] = {}
        self.fused: list[tuple[dict, tuple]] = []  # (fuse span attributes, its sub-lists)

    def _open(self, name: str) -> list:
        record = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.workload, {}]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record[5]
        finally:
            self._close(record)

    def traced(self, fn, name: str, count=None, rss: bool = False):
        """``fn`` wrapped so each call records a span named ``name``.

        ``count(attrs, args, result)`` runs in a ``trace.count`` span of its
        own after the call's span ends; ``layers.View`` takes the time of
        these spans out of every enclosing span. ``rss`` records the
        process's peak RSS before and after the call.
        """

        def call(*args, **kwargs):
            record = self._open(name)
            try:
                if rss:
                    record[5]["rss0_kib"] = _maxrss_kib()
                result = fn(*args, **kwargs)
                if rss:
                    record[5]["rss1_kib"] = _maxrss_kib()
            finally:
                self._close(record)
            if count is not None:
                with self.span("trace.count"):
                    count(record[5], args, result)
            return result

        return call

    def wrap(self, owner, attr: str, name: str, count=None, rss: bool = False) -> None:
        """Rebind ``owner.attr`` (a module's or a class's) so calls made through it are traced."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name, count, rss))

    def count_fuse(self, attrs, args, result) -> None:
        """Keeps the sub-lists; ``dump`` counts their entries after the run, outside every span."""
        attrs["docs_out"] = len(result)
        self.fused.append((attrs, args[0].sub_lists))

    def dump(self) -> dict:
        lengths = {}  # id -> length of every distinct sub-list fused
        for attrs, sub_lists in self.fused:
            attrs["entries_in"] = sum(len(sub) for sub in sub_lists)
            attrs["distinct"] = len({doc for sub in sub_lists for doc, _ in sub.entries})
            lengths.update((id(sub), len(sub)) for sub in sub_lists)
        totals = dict(self.totals, distinct_sub_entries=sum(lengths.values()))
        return {"workload": self.workload, "spans": self.spans, "totals": totals}


def _count_run(attrs, args, result):
    attrs["entries"] = sum(len(ranking) for ranking in result.lists.values())


def _count_bytes(attrs, args, result):
    attrs["bytes"] = len(result)


def _count_attach(attrs, args, result):
    attrs.update(matched=len(result[0]), artifacts=len(args[0]))


def _count_evaluate(attrs, args, result):
    attrs["queries"] = len(result.per_query)


class _WarningCounter(logging.Handler):
    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        self.tracer.totals["warnings"] = self.tracer.totals.get("warnings", 0) + 1


def _wrap_all(t: Tracer) -> None:
    """Trace every public name the CLI handlers and the library's callers look up."""
    import fusekit.ablation
    import fusekit.cli
    import fusekit.pipeline
    from fusekit.clients import ReplayDecomposer
    from fusekit.memory import MemoryBank

    cli = fusekit.cli
    t.wrap(cli, "parse_run", "core.parse_run", _count_run, rss=True)
    t.wrap(cli, "parse_qrels", "core.parse_qrels")
    t.wrap(cli, "parse_subquery_map", "core.parse_subquery_map")
    t.wrap(cli, "write_subquery_map", "core.write_subquery_map")
    t.wrap(cli, "evaluate", "metrics.evaluate", _count_evaluate)
    t.wrap(cli, "report_to_json", "metrics.report_to_json")
    t.wrap(cli, "run_ablation", "ablation.run_ablation")
    t.wrap(cli, "run_pipeline", "pipeline.run_pipeline")
    t.wrap(cli, "decompose_all", "pipeline.decompose_all")
    t.wrap(cli, "load_evidence", "evidence.load_evidence")
    t.wrap(cli, "load_predictions", "evidence.load_predictions")
    t.wrap(cli, "attach", "evidence.attach", _count_attach)
    t.wrap(cli, "load_calibrated", "evidence.load_calibrated")
    t.wrap(cli, "filter_by_threshold", "evidence.filter_by_threshold")
    for attr in ("serialize_calibrated", "record_to_dict", "calibrated_to_dict"):
        t.wrap(cli, attr, "evidence.serialize")

    t.wrap(fusekit.pipeline, "parse_subquery_map", "core.parse_subquery_map")
    t.wrap(fusekit.pipeline, "parse_run", "core.parse_run", _count_run, rss=True)
    t.wrap(fusekit.pipeline, "fuse_runs", "fusion.fuse_runs")
    t.wrap(fusekit.pipeline, "inject_rerank", "pipeline.inject_rerank")
    t.wrap(fusekit.pipeline, "write_run", "core.write_run", _count_bytes)
    t.wrap(fusekit.ablation, "subsample", "ablation.subsample")
    t.wrap(fusekit.ablation, "fuse_runs", "fusion.fuse_runs")
    t.wrap(fusekit.ablation, "fuse", "fusion.fuse", t.count_fuse)
    t.wrap(fusekit.ablation, "evaluate", "metrics.evaluate", _count_evaluate)

    # ReplayDecomposer is imported inside a handler and the REPL calls MemoryBank's methods on
    # an instance, so these are traced on the class
    ReplayDecomposer.from_jsonl = staticmethod(t.traced(ReplayDecomposer.from_jsonl, "clients.replay_load"))
    for attr in ("add_fact", "add_keyword", "search_by_keyword", "select_facts", "mark_processed",
                 "memory_summary", "dump"):
        t.wrap(MemoryBank, attr, f"memory.{attr}")


def run_step(workload: str, index: int) -> tuple[int, list[dict]]:
    """The step's real CLI call, ``fusekit.cli.main``, in this process with every layer traced."""
    import fusekit.cli

    step = STEPS[workload][index]
    tracer = Tracer(workload)
    logging.getLogger("fusekit").addHandler(_WarningCounter(tracer))
    _wrap_all(tracer)
    with tracer.span(f"cli.{step['name']}"):
        code = fusekit.cli.main(step["argv"])
    return code, [tracer.dump()]


def run_extras(pipeline_job: Path, eval_job: Path, evidence_job: Path) -> list[dict]:
    from fusekit.ablation import fuse_runs
    from fusekit.core import Qrels, RunSet, parse_qrels, parse_run, parse_subquery_map
    from fusekit.fusion import FusionStrategy
    from fusekit.memory import MemoryBank
    from fusekit.metrics import Cutoffs, evaluate

    t = Tracer("pipeline")
    config = json.loads((pipeline_job / "../inputs/config.json").read_text(encoding="utf-8"))
    mapping = parse_subquery_map((pipeline_job / "subquery_map.jsonl").read_bytes())
    runs = parse_run((pipeline_job / "../inputs/subqueries.run").read_bytes())
    for kind in STRATEGIES:
        strategy = FusionStrategy(kind, config["strategy"]["k"])
        t.traced(fuse_runs, f"fusion.sweep.{kind}")(mapping, runs, strategy, config["first_stage_depth"])
    dumps = [t.dump()]
    del mapping, runs

    t = Tracer("eval")
    run = parse_run((eval_job / "../inputs/run.txt").read_bytes())
    qrels = parse_qrels((eval_job / "../inputs/qrels.txt").read_bytes())
    quarter = set(sorted(run.lists)[: len(run.lists) // 4])
    run = RunSet(lists={q: run.lists[q] for q in quarter}, tag=run.tag)
    qrels = Qrels({key: grade for key, grade in qrels.judgments.items() if key[0] in quarter})
    t.traced(evaluate, "metrics.evaluate.quarter")(run, qrels, Cutoffs(CUTOFFS))
    dumps.append(t.dump())

    t = Tracer("evidence-memory")
    t.traced(MemoryBank.load, "memory.load")((evidence_job / "bank.json").read_bytes())
    dumps.append(t.dump())
    return dumps


if __name__ == "__main__":
    if sys.argv[1] == "step":
        code, result = run_step(sys.argv[2], int(sys.argv[3]))
    else:
        code, result = 0, run_extras(Path(sys.argv[2]), Path(sys.argv[3]), Path(sys.argv[4]))
    Path(sys.argv[-1]).write_text(json.dumps(result), encoding="utf-8")
    sys.exit(code)
