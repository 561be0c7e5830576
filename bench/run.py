"""chronosynth benchmark: drive the CLI in-process over seeded workloads.

Run from the repository root:

    python3 -B bench/run.py --workload synth_arena --seed 1 --seconds 28 --trace 0

Every job is one ``chronosynth.cli.main(argv, out, err)`` call, run one after
another in this single process.  With ``--trace 0`` the run times a fixed
number of whole passes over the workload's job list (each pass in a seeded
order), as many as fill ``--seconds`` on the reference host, and prints the
end-to-end metrics.  With ``--trace 1`` it runs half as many pairs of
passes, each untraced and then traced
with spans recorded around each layer's public entry points, checks the
returned winners with independent certificates, and prints the per-layer
metrics together with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero if any verdict differs from the hand-written fixture answers or the
verdicts recorded in ``bench/expected.json``, if the generated inputs differ
from the recorded hashes, or if the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import layer_trace
import workloads
from certify import certify

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 15
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
STAT_PASSES = 3  # every run makes at least this many passes
# a run stops early, after a whole pass, once its passes have taken this many
# times --seconds: the host is then far slower than the reference host
WALL_LIMIT = 1.5
END_TO_END = ("setup_s", "jobs_per_s", "job_p50_s", "job_tail_s", "peak_rss_mb")
UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "failed_share": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or records)."""


def load_expected():
    path = os.path.join(BENCH_DIR, "expected.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import the CLI afresh, as a new interpreter would."""
    for name in [m for m in sys.modules if m == "chronosynth" or m.startswith("chronosynth.")]:
        del sys.modules[name]
    return importlib.import_module("chronosynth.cli")


def use_cpu(turn):
    """Pin this process to the next of the CPUs it may use, in turn.

    On a shared host each CPU is slowed by other tenants at its own moments,
    so taking turns over the CPUs gives each job's best time more quiet
    moments to fall in.  The process stays single-threaded.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def setup(workload, workdir, limit):
    """Import plus input generation, repeated; returns (cli, inputs, median seconds)."""
    times = []
    for turn in range(SETUP_REPEATS):
        use_cpu(turn)
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = perf_counter()
        cli = import_program()
        inputs = workloads.build_inputs(workload, workdir, os.path.join(ROOT, "fixtures"), limit)
        times.append(perf_counter() - t0)
    return cli, inputs, statistics.median(times)


# -- one job ------------------------------------------------------------------


def run_job(main, job, tracer=None):
    """One timed CLI call; returns (latency, exit code, stdout, error, captured results)."""
    out, err = io.StringIO(), io.StringIO()
    error = captured = None
    # start every job from a clean heap, so that its time does not depend on
    # the garbage the previous job in the seeded order left behind
    gc.collect()
    if tracer is not None:
        tracer.begin_job(job.name)
    t0 = perf_counter()
    try:
        code = main(list(job.argv), out, err)
    except Exception:  # a crashing job is counted as failed and the run goes on
        code, error = None, traceback.format_exc(limit=3)
    latency = perf_counter() - t0
    if tracer is not None:
        captured = tracer.end_job()
    return latency, code, out.getvalue(), error, captured


def expected_verdict(job, expected):
    if job.anchor:
        return job.expected
    return expected["verdicts"][job.spec].get(job.semantics or job.kind)


def judge(job, code, out, error, expected):
    """Return (verdict, failure or None, wrong answer?, sizes)."""
    if error is not None:
        return None, f"raised: {error.strip().splitlines()[-1]}", False, {}
    if code == 3:
        return "cap", "resource cap exceeded (exit 3)", False, {}
    if code != 0:
        return None, f"exit {code}", False, {}
    want = None if job.kind.startswith("arena") else expected_verdict(job, expected)
    try:
        if job.kind == "play":
            return _judge_play(out, want)
        if job.kind == "arena-dot":
            ok = out.startswith("digraph") and out.rstrip().endswith("}")
            sizes = {"lines": out.count("\n")}
            return ok, None if ok else "malformed DOT", not ok, sizes
        data = json.loads(out)
    except ValueError as exc:
        return None, f"unparsable output: {exc}", True, {}
    if job.kind == "arena-json":
        ok = data.get("semantics") == job.semantics and bool(data.get("nodes")) and bool(data.get("edges"))
        sizes = {k: len(data.get(k, ())) for k in ("members", "nodes", "edges")}
        return ok, None if ok else "malformed arena JSON", not ok, sizes
    field = workloads.VERDICT_FIELD[job.kind]
    verdict = data.get(field)
    sizes = _sizes(job.kind, data)
    if want is not None and verdict != want:
        return verdict, f"{field}={verdict!r}, expected {want!r}", True, sizes
    return verdict, None, False, sizes


def _judge_play(out, want):
    realizable = not out.startswith("unrealizable")
    sizes = {
        "moves": sum(1 for line in out.splitlines() if line[:2] in ("I ", "O ")),
        "illegal": out.count("illegal move:"),
    }
    if "outcome: I wins" in out:
        return realizable, "the environment beat a synthesized winner", True, sizes
    if want is not None and realizable != want:
        return realizable, f"realizable={realizable!r}, expected {want!r}", True, sizes
    return realizable, None, False, sizes


def _sizes(kind, data):
    if kind == "synth":
        stats = data.get("stats", {})
        sizes = {
            k: stats[k]
            for k in ("strategies_examined", "pruned", "arena_nodes", "arena_edges", "d_bound")
            if k in stats
        }
        for k in ("class_counts", "up_sizes"):
            if isinstance(stats.get(k), dict):
                sizes[k] = sum(stats[k].values())
        return sizes
    machine = data.get("machine") or data.get("witness") or data.get("counter") or {}
    sizes = {"machine_states": len(machine.get("states", ()))}
    if "losing_region_size" in data:
        sizes["losing_region"] = data["losing_region_size"]
    return sizes


# -- passes ---------------------------------------------------------------------


@dataclass
class Record:
    job: workloads.Job
    latency: float
    verdict: object
    failure: str | None
    wrong: bool
    sizes: dict


def run_pass(main, order, expected, tracer=None, on_job=None):
    records = []
    for job in order:
        latency, code, out, error, captured = run_job(main, job, tracer)
        verdict, failure, wrong, sizes = judge(job, code, out, error, expected)
        records.append(Record(job, latency, verdict, failure, wrong, sizes))
        if on_job is not None:
            on_job(job, out, captured)
    return records


def pass_count(workload, seconds):
    """The number of passes that fill ``seconds`` on the reference host.

    It does not depend on the host's speed, so the best-of-N figures always
    take the best of the same N tries.
    """
    return max(STAT_PASSES, round(seconds / workloads.PASS_SECONDS[workload]))


def over_time(start, seconds, passes_done):
    return passes_done >= STAT_PASSES and perf_counter() - start > WALL_LIMIT * seconds


def timed_passes(main, jobs, seed, expected, passes, seconds):
    """``passes`` whole passes over the jobs, each in a seeded order and on the next CPU."""
    rng = random.Random(f"order/{seed}")
    done = []
    start = perf_counter()
    for turn in range(passes):
        if over_time(start, seconds, turn):
            break
        use_cpu(turn)
        order = list(jobs)
        rng.shuffle(order)
        done.append(run_pass(main, order, expected))
    return done


def by_job(passes):
    """The records of each distinct job, across passes."""
    grouped = {}
    for records in passes:
        for r in records:
            grouped.setdefault(r.job.name, []).append(r)
    return grouped


def best_latencies(passes):
    """Each job's best latency over the run's passes.

    Other processes on the machine only ever slow a job down, and on a shared
    host they do so in phases lasting seconds, so the best of many passes
    spread over the run is the steadiest estimate of the job's own cost; a
    mean or median over the run follows the host's load instead.
    """
    return {name: min(r.latency for r in rs) for name, rs in by_job(passes).items()}


def tail(latencies):
    """(value, percentile): the highest percentile with at least 10 jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def check_hashes(inputs, expected):
    return [
        f"{name}: generated bytes differ from the recorded sha256"
        for name, digest in inputs.file_hashes.items()
        if expected["files"].get(name) != digest
    ]


# -- workload runs --------------------------------------------------------------


def summarize_jobs(passes):
    """Per distinct job: best and median latency, verdict, sizes and failures."""
    lines = ["# job                          runs  best_s     p50_s      verdict   sizes"]
    for name, rs in sorted(by_job(passes).items()):
        best = min(r.latency for r in rs)
        med = statistics.median(r.latency for r in rs)
        sizes = " ".join(f"{k}={v}" for k, v in sorted(rs[0].sizes.items()))
        note = f"  FAILED: {rs[0].failure}" if rs[0].failure else ""
        lines.append(f"  {name:<30} {len(rs):>4}  {best:9.5f}  {med:9.5f}  {str(rs[0].verdict):<8}  {sizes}{note}")
    return lines


def untraced_run(workload, seed, seconds, expected, cli, inputs, setup_s):
    planned = pass_count(workload, seconds)
    passes = timed_passes(cli.main, inputs.jobs, seed, expected, planned, seconds)
    records = [r for p in passes for r in p]
    busy = sum(r.latency for r in records)
    best = best_latencies(passes)
    tail_value, tail_pct = tail(best.values())
    failed = sum(1 for r in records if r.failure)
    wrong = [r for r in records if r.wrong]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": setup_s,
        "jobs_per_s": len(best) / sum(best.values()),
        "job_p50_s": statistics.median(best.values()),
        "job_tail_s": tail_value,
        "failed_share": failed / len(records),
        "peak_rss_mb": peak,
    }
    each = f"{len(best)} jobs, each at its best of {len(passes)} passes"
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups: import + {len(inputs.file_hashes)} generated files",
        "jobs_per_s": f"{each}; all {len(records)} runs: {len(records) / busy:.4g} jobs/s in {busy:.3f} s of job time",
        "job_p50_s": f"n={each}",
        "job_tail_s": f"p{tail_pct:.1f}, 10 jobs beyond it, n={each}",
        "failed_share": f"{failed} of {len(records)} jobs failed",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    report = summarize_jobs(passes)
    if len(passes) < planned:
        report.append(f"# stopped after {len(passes)} of {planned} passes: they took over {WALL_LIMIT} x --seconds")
    report += [f"{k:<13} {values[k]:.6g} {UNITS[k]:<6} ({notes[k]})" for k in values]
    metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END}
    return metrics, len(records), failed, wrong, report


def traced_run(workload, seed, seconds, expected, cli, inputs):
    tracer = layer_trace.Tracer()
    rng = random.Random(f"certify/{seed}")
    checks, cert_failures = 0, []
    extra = {}

    def on_job(job, out, captured):
        nonlocal checks
        extra["cli.out_bytes"] = extra.get("cli.out_bytes", 0) + len(out)
        if job.kind in ("arena-json", "arena-dot"):
            extra["arena.export_bytes"] = extra.get("arena.export_bytes", 0) + len(out)
        if job.kind == "play":
            extra["game_sim.illegal_lines"] = extra.get("game_sim.illegal_lines", 0) + out.count("illegal move:")
        if job.kind == "definable":
            extra["definable_jobs"] = extra.get("definable_jobs", 0) + 1
        try:
            n, failures = certify(captured, rng)
        except Exception:  # a checker crash is reported as a failed certificate
            n, failures = 1, [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        checks += n
        cert_failures.extend(f"{job.name}: {f}" for f in failures)

    # an untimed pass first takes the first-call costs (lazy imports, heap
    # growth); then each traced pass replays the untraced pass just before it,
    # so both see the same load from the rest of the machine
    run_pass(cli.main, inputs.jobs, expected)
    order_rng = random.Random(f"order/{seed}")
    untraced, traced = [], []
    start = perf_counter()
    for turn in range(max(1, pass_count(workload, seconds) // 2)):
        if over_time(start, seconds, 2 * turn):
            break
        use_cpu(turn)  # both passes of a pair run on the same CPU
        order = list(inputs.jobs)
        order_rng.shuffle(order)
        untraced.append(run_pass(cli.main, order, expected))
        tracer.install()
        try:
            traced.append(run_pass(cli.main, order, expected, tracer, on_job))
        finally:
            tracer.uninstall()
    t_untraced = sum(r.latency for p in untraced for r in p)
    t_traced = sum(r.latency for p in traced for r in p)
    extra["trace.overhead"] = t_traced / t_untraced - 1.0
    extra["certify.checks"] = checks
    layer = tracer.metrics(len(traced), extra)

    mismatches = [
        f"{a.job.name}: untraced {a.verdict!r}, traced {b.verdict!r}"
        for pa, pb in zip(untraced, traced)
        for a, b in zip(pa, pb)
        if a.verdict != b.verdict
    ]
    records = [r for p in untraced + traced for r in p]
    failed = sum(1 for r in records if r.failure)
    wrong = [r for r in records if r.wrong]

    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    tracer.write(span_file, {"workload": workload, "seed": seed, "jobs": tracer.job_names})

    report = [
        f"# traced {len(traced)} passes ({len(tracer.job_names)} jobs); "
        f"untraced {t_untraced:.3f} s, traced {t_traced:.3f} s of job time",
        f"# spans written to {os.path.relpath(span_file, ROOT)}",
    ]
    if tracer.missing:
        report.append(f"# wrap targets not found (layers reported absent): {', '.join(tracer.missing)}")
    for text in sorted(set(tracer.hook_errors)):
        report.append(f"# counting hook failed, its counts are incomplete: {text}")
    report.append("# per-layer metrics, per pass over the job list")
    for name in layer_trace.PER_LAYER:
        value, unit, status = layer[name]
        shown = f"{value:.6g}" if status == "ok" else status
        report.append(f"{name:<36} {shown:<14} {unit}")
    report += [f"CERTIFICATE FAILED {f}" for f in cert_failures]
    report += [f"TRACED VERDICT DIFFERS {m}" for m in mismatches]
    metrics = {name: {"value": layer[name][0], "unit": layer[name][1]} for name in layer_trace.PER_LAYER}
    problems = cert_failures + mismatches
    return metrics, len(records), failed, wrong, report, problems


def run_workload(workload, seed, seconds, trace, limit=None):
    """One benchmark run; returns (result dict, report lines)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "chronosynth", "cli.py")):
        raise BenchError("src/chronosynth not found; run from the repository root")
    if not os.path.isdir(os.path.join(ROOT, "fixtures")):
        raise BenchError("fixtures/ not found; run from the repository root")
    expected = load_expected()
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    workdir = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    # the package's bytecode goes to a per-run directory, so set-up time never
    # depends on caches left in the checkout by earlier runs
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix = os.path.join(WORK_ROOT, f"pycache-{os.getpid()}")
    sys.dont_write_bytecode = False
    try:
        cli, inputs, setup_s = setup(workload, workdir, limit)
        hash_problems = check_hashes(inputs, expected)
        traced_problems = []
        header = [
            f"# workload {workload} seed {seed} seconds {seconds} trace {trace}",
            f"# inputs sha256 {inputs.digest} ({len(inputs.file_hashes)} generated files, {len(inputs.jobs)} jobs per pass)",
        ]
        if trace:
            metrics, attempted, failed, wrong, report, traced_problems = traced_run(
                workload, seed, seconds, expected, cli, inputs
            )
        else:
            metrics, attempted, failed, wrong, report = untraced_run(
                workload, seed, seconds, expected, cli, inputs, setup_s
            )
    finally:
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, CPUS)
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(sys.pycache_prefix, ignore_errors=True)
        sys.pycache_prefix, sys.dont_write_bytecode = saved
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    wrong_lines = hash_problems + sorted({f"{r.job.name}: {r.failure}" for r in wrong})
    report = header + report + [f"WRONG {p}" for p in wrong_lines]
    result = {
        "correct": not (wrong_lines or traced_problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
