"""Record the verdicts of every generated spec and the hashes of every generated file.

Run once from the repository root, at the commit that defines the benchmark:

    python3 bench/record_expected.py

Both commits of any later comparison then check their answers against the
same file, and ``run.py`` refuses inputs whose bytes differ from the
recorded hashes.  Only the verdict field is recorded (``realizable``,
``winner`` or ``definable``), so additions to the CLI output do not break
the benchmark.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys

import workloads


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from chronosynth.automaton import load_automaton
    from chronosynth.cli import main as cli_main
    from chronosynth.continuous_synth import decide_continuous

    workdir = os.path.join(root, ".bench_work", "record")
    specs, files = {}, {}
    for workload in workloads.WORKLOADS:
        inputs = workloads.build_inputs(workload, workdir, os.path.join(root, "fixtures"))
        files.update(inputs.file_hashes)
        for job in inputs.jobs:
            if job.anchor or job.kind not in workloads.VERDICT_FIELD:
                continue
            out = io.StringIO()
            code = cli_main(list(job.argv), out, io.StringIO())
            if code != 0:
                raise SystemExit(f"{job.name}: exit {code}")
            verdict = json.loads(out.getvalue()).get(workloads.VERDICT_FIELD[job.kind])
            specs.setdefault(job.spec, {})[job.semantics or job.kind] = verdict
            print(f"{workload:<13} {job.name:<28} {verdict}", flush=True)
        # inspect plays need the synth verdict of their spec and semantics
        for job in inputs.jobs:
            if job.kind == "play" and job.semantics not in specs.get(job.spec, {}):
                res = decide_continuous(load_automaton(job.argv[-1]), job.semantics)
                specs.setdefault(job.spec, {})[job.semantics] = res.realizable
                print(f"{workload:<13} {job.name:<28} {res.realizable}", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    if not os.listdir(os.path.dirname(workdir)):
        os.rmdir(os.path.dirname(workdir))
    payload = {"files": dict(sorted(files.items())), "verdicts": dict(sorted(specs.items()))}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
