"""The names the benchmark's traced mode rebinds must exist.

``perfbench/spans.py`` wraps public names of ``fusekit.cli``,
``fusekit.pipeline`` and ``fusekit.ablation`` (``run_pipeline``,
``parse_run``, ``report_to_json`` and so on) by ``getattr``, so renaming or
removing one breaks ``perfbench/run.py --trace 1`` with an AttributeError.
A traced name must also still be called in the main process, where the
spans are kept: a span recorded in a forked child dies with it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_mode_can_wrap_every_name_it_looks_up():
    code = f"""
import sys
sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark's directory
sys.path.insert(0, {str(PERFBENCH)!r})
from spans import Tracer, _wrap_all
_wrap_all(Tracer("t"))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_a_two_half_claims_filter_calls_its_traced_names_in_the_main_process(tmp_path):
    # the real size floor, 4 MiB, is lowered, so this small file takes the forked two-half path
    lines = [
        json.dumps({"note_id": f"n{i}", "video_id": "v1", "topic": "t", "text": f"note {i}",
                    "modality": "ocr", "calibration": {"unli": {"prob": i % 10 / 10}}}) + "\n"
        for i in range(4000)
    ]
    (tmp_path / "calibrated.jsonl").write_text("".join(lines))
    code = f"""
import collections, os, sys
sys.dont_write_bytecode = True
sys.path.insert(0, {str(PERFBENCH)!r})
from spans import Tracer, _wrap_all
import fusekit.cli
from fusekit import core
core._SPLIT_MIN = 1
os.sched_getaffinity = lambda pid: {{0, 1}}
forks, real_fork = [], os.fork
def fork():
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = fork
tracer = Tracer("evidence-memory")
_wrap_all(tracer)
code = fusekit.cli.main(["claims", "filter", "--in", "calibrated.jsonl", "--kept", "kept.jsonl",
                         "--dropped", "dropped.jsonl"])
names = collections.Counter(span[0] for span in tracer.dump()["spans"])
print(code, len(forks), names["evidence.load_calibrated"], names["evidence.filter_by_threshold"],
      names["evidence.serialize"])
"""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    # one call each, made on the first half: the child's calls, on the second, are not seen here;
    # the filter writes the lines it read, so it serializes no record
    assert result.stdout.splitlines()[-1] == "0 1 1 1 0"
    assert (tmp_path / "kept.jsonl").read_text().count("\n") == 2000


def test_a_two_cpu_ablate_calls_its_traced_names_in_the_main_process(tmp_path):
    # the real floor is lowered, so the fixtures' 11 cells are split over two processes
    fixtures = Path(__file__).resolve().parent / "fixtures" / "pipeline"
    code = f"""
import collections, os, sys
sys.dont_write_bytecode = True
sys.path.insert(0, {str(PERFBENCH)!r})
from spans import Tracer, _wrap_all
import fusekit.cli
from fusekit import ablation
os.sched_getaffinity = lambda pid: {{0, 1}}
forks, real_fork = [], os.fork
def fork():
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = fork
argv = ["ablate", "--map", {str(fixtures / "subquery_map.jsonl")!r}, "--runs", {str(fixtures / "subqueries.run")!r},
        "--qrels", {str(fixtures / "qrels.txt")!r}, "--strategy", "max_sim", "--keep", "1,2,all", "--json"]
ablation._TWO_CPU_MIN = 1
tracer = Tracer("ablation")
_wrap_all(tracer)
code = fusekit.cli.main(argv + ["two.json"])
names = collections.Counter(span[0] for span in tracer.dump()["spans"])
ablation._TWO_CPU_MIN = sys.maxsize
one = fusekit.cli.main(argv + ["one.json"])
print(code, one, len(forks), *(names[name] > 0 for name in
      ("ablation.subsample", "fusion.fuse_runs", "fusion.fuse", "metrics.evaluate")))
"""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 0 1 True True True True"
    assert (tmp_path / "two.json").read_bytes() == (tmp_path / "one.json").read_bytes()
