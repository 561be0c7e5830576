"""The benchmark harness's own smoke check passes against the current sources,
and every benchmark job writes the bytes recorded for it."""

import hashlib
import importlib.util
import io
import pathlib
import subprocess
import sys

from chronosynth.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]

# sha256 over every job of the three workloads: name, exit code, stdout and
# stderr, the work directory masked; a change that alters an output on
# purpose says why and records the new digest
JOBS_DIGEST = "c76d3a044e7100356766e29558f2d193dffacd88b9e7755ee0609fd0bac17624"


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "-B", "bench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke check passed" in proc.stdout


def test_every_benchmark_job_writes_the_recorded_bytes(tmp_path, monkeypatch):
    # bench/workloads.py is loaded by path, and the benchmark's files are only read;
    # its dataclasses look their module up in sys.modules
    loader = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, workloads)
    loader.loader.exec_module(workloads)
    digest, jobs = hashlib.sha256(), 0
    for workload in workloads.WORKLOADS:
        workdir = tmp_path / workload
        for job in workloads.build_inputs(workload, str(workdir), str(ROOT / "fixtures")).jobs:
            out, err = io.StringIO(), io.StringIO()
            code = main(list(job.argv), out, err)
            text = "\0".join((job.name, str(code), out.getvalue(), err.getvalue()))
            digest.update(text.replace(str(workdir), "<work>").encode("utf-8") + b"\n")
            jobs += 1
    assert (jobs, digest.hexdigest()) == (107, JOBS_DIGEST)
