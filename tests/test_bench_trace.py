"""The names the benchmark's traced mode rebinds must exist.

``perfbench/spans.py`` wraps public names of ``fusekit.cli``,
``fusekit.pipeline`` and ``fusekit.ablation`` (``run_pipeline``,
``parse_run``, ``report_to_json`` and so on) by ``getattr``, so renaming or
removing one breaks ``perfbench/run.py --trace 1`` with an AttributeError.
"""

from __future__ import annotations

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
