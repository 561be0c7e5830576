"""Smoke check of the benchmark harness; run from the repository root:

    python3 bench/smoke.py

Runs every workload on its first spec per family, untraced and traced, and
checks that every end-to-end and per-layer metric named in BENCHMARK.json is
printed with its unit, in the report and in the final JSON object.  It also
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads


def check_workload(spec, name):
    errors = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, report = run.run_workload(name, 7, 0.0, trace, limit=1)
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            errors.append(f"{name}/trace{trace}: result keys {sorted(result)}")
        if not result["correct"]:
            errors.append(f"{name}/trace{trace}: not correct: {report[-3:]}")
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        if trace == 0:
            wanted_report = dict(wanted, failed_share="ratio")
        else:
            wanted_report = wanted
        if set(result["metrics"]) != set(wanted):
            errors.append(f"{name}/trace{trace}: metrics {sorted(set(result['metrics']) ^ set(wanted))} differ")
        for metric, unit in wanted.items():
            got = result["metrics"].get(metric, {})
            if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                errors.append(f"{name}/trace{trace}: {metric} printed as {got}")
        for metric, unit in wanted_report.items():
            if not any(line.split()[:1] == [metric] and f" {unit}" in line for line in report):
                errors.append(f"{name}/trace{trace}: report lacks '{metric} ... {unit}'")
        print(f"{name:<13} trace {trace}: {len(result['metrics'])} metrics, "
              f"{result['attempted']} jobs, {result['failed']} failed", flush=True)
    return errors


def check_refuses_without_sources(spec):
    """The benchmark alone, without src/ and fixtures/, must exit non-zero silently."""
    bare = os.path.join(run.WORK_ROOT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            spec["command"] + ["--workload", workloads.WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not os.listdir(run.WORK_ROOT):
            os.rmdir(run.WORK_ROOT)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print(f"bare directory: exit {proc.returncode}, {proc.stderr.strip()}")
    return []


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    errors = [] if names == list(workloads.WORKLOADS) else [f"workloads {names} differ from the harness"]
    for name in names:
        errors += check_workload(spec, name)
    errors += check_refuses_without_sources(spec)
    for e in errors:
        print("SMOKE FAILED", e)
    print("smoke check passed" if not errors else f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
