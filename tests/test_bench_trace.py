"""The traced benchmark run as a test: bench/tracing.py wraps qcap
functions by name and bench/run.py reads the medians of their spans, so a
rename, or a path that no longer reaches a wrapped function, ends the traced
run with an error, and a path that reaches one more or less often changes
its call counts. The run works on a copy of bench/ whose src/ points at
this checkout, so its outputs land in the test's temporary directory."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_traced_verify_seeded_run_completes(tmp_path):
    pytest.importorskip("mpmath")  # bench/checks.py computes its figures in mpmath
    (tmp_path / "bench").mkdir()
    for script in ("run.py", "checks.py", "tracing.py"):
        shutil.copy(ROOT / "bench" / script, tmp_path / "bench" / script)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-seeded", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["verify.checks"] == 44
    # dense-switch's two `info coherent` commands still reach apply for the
    # channel and its complement, over the dense stack's flop count
    assert metrics["channels.apply.calls"] == 4
    assert round(metrics["channels.apply.gflop_computed"], 8) == 27.73255968
