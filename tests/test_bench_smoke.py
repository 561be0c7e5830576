"""The benchmark harness's own smoke check passes against the current sources."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "-B", "bench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke check passed" in proc.stdout
