"""Benchmark of the fusekit CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. It generates the workload's inputs
from the seed, then drives ``python -m fusekit.cli`` one child process at
a time (a closed loop with one client) until ``--seconds`` have passed,
checks every output and prints the end-to-end metrics. With ``--trace 1``
it also runs the same calls traced, with spans, and prints the
per-layer metrics instead. The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1 when
any output check fails and 2 when the checkout holds no fusekit sources.
README.md in this directory describes the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import gen
import harness
import layers
import workloads

PROBE_SCALE = 0.1  # size of the other workloads in a traced run, for layers this one never calls

SETUP_FIRST, SETUP_PER_JOB = 6, 3  # fusekit --version samples before the loop and before each job


def closed_loop(workload: str, seed: int, work: Path, seconds: float, traced: Path | None = None,
                setup: list[float] | None = None):
    """Jobs back to back until ``seconds`` pass (at least one); all are judged.

    With ``traced`` set, each plain job is followed by a traced job of the
    same calls, whose outputs and stdout must match the plain job's byte for
    byte. With ``setup`` set, start-up samples are taken between jobs and
    appended to it, so that a passing burst of load on the machine skews few
    of them.
    """
    jobs, traced_jobs, reference, failures = [], [], None, {}
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        if setup is not None:
            setup.extend(harness.measure_setup(SETUP_PER_JOB))
        result = harness.run_job(workload, work / "job")
        digests, failed = harness.judge(workload, work / "job", seed, result, reference)
        reference = reference or digests
        if traced is not None:
            traced_job = harness.run_job(workload, work / "job", traced)
            files = harness.step_digests(workload, work / "job")
            for step, code in zip(workloads.STEPS[workload], traced_job["codes"]):
                if code != 0 or files[step["name"]] != reference[step["name"]]:
                    failed.setdefault(step["name"], []).append(f"traced job differs (exit code {code})")
            traced_jobs.append(traced_job)
        for name, errs in failed.items():
            failures.setdefault(name, []).extend(errs)
        result["failed_calls"] = len(failed)
        jobs.append(result)
    return jobs, traced_jobs, reference, failures


def run_plain(args, work: Path) -> int:
    facts = harness.machine_facts(work)
    start = time.perf_counter()
    meta = harness.generate(args.workload, args.seed, work)
    gen_s = time.perf_counter() - start
    harness.measure_setup(1)  # warm the bytecode cache, as any installed copy would be
    setup = harness.measure_setup(SETUP_FIRST)
    jobs, _, reference, failures = closed_loop(args.workload, args.seed, work, args.seconds, setup=setup)
    attempted = sum(len(j["codes"]) for j in jobs)
    failed = sum(j["failed_calls"] for j in jobs)
    job_s = statistics.median(j["job_s"] for j in jobs)
    values = {
        "job_s": job_s,
        "items_per_s": meta["items"] / job_s,
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
        "setup_s": statistics.median(setup),
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "machine": facts, "gen_s": gen_s,
        "items": meta["items"], "inputs_sha256": meta["inputs_sha256"], "outputs_sha256": reference,
        "jobs": [{"job_s": j["job_s"], "peak_rss_mb": j["peak_rss_mb"]} for j in jobs],
        "setup_samples_s": setup, "failures": {k: v[:5] for k, v in failures.items()},
    }
    harness.print_result(harness.metric_specs("end_to_end"), values, detail, failed == 0, attempted, failed,
                         extra={"failed_frac": (failed / attempted, "ratio", "lower")})
    return 0 if failed == 0 else 1


def load_views(spans_dir: Path) -> dict[str, layers.View]:
    """Every workload's spans: its last traced job and the extras."""
    dumps = {w: [] for w in gen.WORKLOADS}
    for path in sorted(spans_dir.glob("*.json")):
        for dump in json.loads(path.read_text(encoding="utf-8")):
            dumps[dump["workload"]].append(dump)
    return {w: layers.View(d) for w, d in dumps.items()}


def run_traced(args, work: Path) -> int:
    """Plain and traced jobs alternate on the workload; the others run traced once, small."""
    facts = harness.machine_facts(work)
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True)
    start = time.perf_counter()
    inputs = {w: harness.generate(w, args.seed, work / w, 1.0 if w == args.workload else PROBE_SCALE)
              ["inputs_sha256"] for w in gen.WORKLOADS}
    gen_s = time.perf_counter() - start
    jobs, traced_jobs, reference, failures = closed_loop(
        args.workload, args.seed, work / args.workload, args.seconds, spans_dir)
    others = [w for w in gen.WORKLOADS if w != args.workload]
    codes = [code for w in others for code in harness.run_job(w, work / w / "job", spans_dir)["codes"]]
    code, _ = harness.spawn([sys.executable, str(harness.HERE / "spans.py"), "extras",
                             *(str(work / w / "job") for w in ("pipeline", "eval", "evidence-memory")),
                             str(spans_dir / "extras.json")], work, stdout=spans_dir / "extras.stdout")
    codes.append(code)
    if any(codes):
        failures["small traced runs"] = [f"exit codes {codes}"]
    views = load_views(spans_dir)
    values, sources = layers.derive(views, [args.workload] + others)
    values["cli.import.s"], values["cli.import.numpy_s"] = harness.import_times()
    values["cli.invocations"] = len(workloads.STEPS[args.workload])
    values["trace.overhead_ratio"] = (statistics.median(j["job_s"] for j in traced_jobs)
                                      / statistics.median(j["job_s"] for j in jobs))
    specs = harness.metric_specs("per_layer")
    missing = [name for name in specs if name not in values]
    if missing:
        failures["spans"] = [f"no spans for {missing}"]
    attempted = sum(len(j["codes"]) for j in jobs + traced_jobs) + len(codes)
    failed = sum(j["failed_calls"] for j in jobs) + sum(1 for c in codes if c)
    detail = {
        "workload": args.workload, "seed": args.seed, "machine": facts, "gen_s": gen_s,
        "probe_scale": PROBE_SCALE, "sources": {k: v for k, v in sources.items() if v != args.workload},
        "self_s": {w: view.self_times() for w, view in views.items()},
        "jobs_s": [j["job_s"] for j in jobs], "traced_jobs_s": [j["job_s"] for j in traced_jobs],
        "inputs_sha256": inputs, "outputs_sha256": reference, "failures": {k: v[:5] for k, v in failures.items()},
    }
    correct = failed == 0 and not missing
    harness.print_result(specs, values, detail, correct, attempted, failed)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "fusekit" / "cli.py").is_file():
        print(f"no fusekit sources under {harness.SRC}; run from a source checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the cleanup below runs
    work = harness.ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run_traced(args, work) if args.trace else run_plain(args, work / args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
