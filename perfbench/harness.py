"""Child processes, jobs, output digests and machine facts for the benchmark."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CALL_TIMEOUT_S = 60  # a hung call is killed and counts as failed


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FUSEKIT_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], cwd: Path, stdin: Path | None = None, stdout: Path | None = None) -> tuple[int, int]:
    """Run one child to completion; returns (exit code, its ru_maxrss in KiB).

    stdout goes to ``stdout`` and stderr beside it (``.stderr``), or both
    to /dev/null.
    """
    out = open(stdout, "wb") if stdout else subprocess.DEVNULL
    err = open(stdout.with_suffix(".stderr"), "wb") if stdout else subprocess.DEVNULL
    inp = open(stdin, "rb") if stdin else subprocess.DEVNULL
    try:
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=inp, stdout=out, stderr=err)
        watchdog = threading.Timer(CALL_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss
    finally:
        for f in (out, err, inp):
            if f is not subprocess.DEVNULL:
                f.close()


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "fusekit.cli", *args]


def run_job(workload: str, job: Path, traced: Path | None = None) -> dict:
    """Every step of the workload, back to back, in a fresh job directory.

    With ``traced`` set, each step runs traced (``spans.py step``) and
    writes its spans into that directory.
    """
    shutil.rmtree(job, ignore_errors=True)
    job.mkdir(parents=True)
    codes, rss = [], []
    start = time.perf_counter()
    for index, step in enumerate(workloads.STEPS[workload]):
        if traced is None:
            argv = cli(*step["argv"])
        else:
            argv = [sys.executable, str(HERE / "spans.py"), "step", workload, str(index),
                    str(traced / f"{workload}-{index}.json")]
        stdin = job / step["stdin"] if step["stdin"] else None
        code, maxrss = spawn(argv, job, stdin, job / f"{step['name']}.stdout")
        codes.append(code)
        rss.append(maxrss)
    return {"job_s": time.perf_counter() - start, "codes": codes, "peak_rss_mb": max(rss) / 1024}


def step_digests(workload: str, job: Path) -> dict[str, dict[str, str]]:
    """sha256 of every file each step writes and of its stdout."""
    digests = {}
    for step in workloads.STEPS[workload]:
        files = step["outputs"] + [f"{step['name']}.stdout"]
        digests[step["name"]] = {
            name: gen.sha256_file(job / name) if (job / name).is_file() else "missing" for name in files
        }
    return digests


def generate(workload: str, seed: int, work: Path, scale: float = 1.0) -> dict:
    """Inputs into ``work/inputs`` and the checks' ground truth into ``work/meta.json``.

    Generation and checks run in child processes so that this process stays
    small: on Linux a child's ru_maxrss starts at its parent's RSS.
    """
    meta_path = work / "meta.json"
    work.mkdir(parents=True, exist_ok=True)
    code, _ = spawn([sys.executable, str(HERE / "gen.py"), workload, str(seed), str(work / "inputs"),
                     repr(scale), str(meta_path)], work, stdout=work / "gen.stdout")
    if code != 0:
        raise RuntimeError(f"input generation for {workload} exited {code}")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    return {"items": meta["items"], "inputs_sha256": meta["inputs_sha256"]}


def judge(workload: str, job: Path, seed: int, result: dict, reference: dict | None):
    """Digests and per-step failures of one job: nonzero exits, then output checks.

    The first job is checked against the reference implementations; later
    jobs must reproduce its output digests exactly.
    """
    digests = step_digests(workload, job)
    failures = {}
    for step, code in zip(workloads.STEPS[workload], result["codes"]):
        if code != 0:
            failures[step["name"]] = [f"exit code {code}"]
    if reference is None:
        found_path = job.parent / "check.json"
        code, _ = spawn([sys.executable, str(HERE / "workloads.py"), workload, str(job),
                         str(job.parent / "meta.json"), str(seed), str(found_path)],
                        job.parent, stdout=job.parent / "check.stdout")
        if code == 0:
            found = json.loads(found_path.read_text(encoding="utf-8"))
        else:
            found = {step["name"]: [f"output check exited {code}"] for step in workloads.STEPS[workload]}
        for name, errs in found.items():
            if errs:
                failures.setdefault(name, []).extend(errs)
    else:
        for name, files in digests.items():
            if files != reference[name]:
                failures.setdefault(name, []).append("output digest differs from the first repetition")
    return digests, failures


def measure_setup(samples: int) -> list[float]:
    """Wall times of ``fusekit --version``: interpreter start, imports, parser build."""
    argv = cli("--version")
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        code, _ = spawn(argv, HERE)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"fusekit --version exited {code}")
    return times


def import_times() -> tuple[float, float]:
    """(fusekit.cli, numpy) cumulative import seconds from ``python -X importtime``."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fusekit.cli"],
                         env=child_env(), capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    cumulative = {}
    for line in out.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative.setdefault(name.strip(), int(cum) / 1e6)
    return cumulative.get("fusekit.cli", 0.0), cumulative.get("numpy", 0.0)


def machine_facts(work: Path) -> dict:
    try:  # the commit only when ROOT itself is the top of a git work tree
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.split()
        commit = git[1] if len(git) == 2 and Path(git[0]).resolve() == ROOT else None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "fusekit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "loadavg_start": os.getloadavg(),
        "work_dir": str(work.relative_to(ROOT)),
        "work_fs": fs_type(work),
    }


def fs_type(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as f:
            for line in f:
                fields = line.split()
                mount = fields[1].rstrip("/") + "/"
                if (str(path) + "/").startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def metric_specs(kind: str) -> dict[str, dict]:
    """The ``end_to_end`` or ``per_layer`` metrics BENCHMARK.json declares, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec[kind]}


def print_result(specs: dict[str, dict], values: dict[str, float], detail: dict, correct: bool,
                 attempted: int, failed: int, extra: dict[str, tuple] | None = None) -> None:
    """A readable table, one ``detail`` JSON line, then the result line.

    ``extra`` rows (name -> value, unit, better) appear in the table only.
    """
    rows = [(name, values.get(name, float("nan")), m["unit"], m["better"]) for name, m in specs.items()]
    rows += [(name, *row) for name, row in (extra or {}).items()]
    for name, value, unit, better in rows:
        print(f"{name:40s} {value:>16.6g} {unit:10s} ({better} is better)")
    detail["runner_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("detail " + json.dumps(detail, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": m["unit"]} for name, m in specs.items() if name in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
