"""Workload definitions: seeded spec families, fixture anchors and job lists.

Every generated spec is a complete automaton: transition targets are drawn
uniformly over the states, priorities uniformly in 0..P, the convention is
max-even and the initial state is q0.  Each family draws a fixed corpus of
specs (named ``<family>-<index>``) from its own string-seeded generator, and
every spec drawn is kept.  The play scripts of ``inspect`` are drawn from
their spec id and semantics.  The run's ``--seed`` fixes only the job order
of every pass and the certificate-check draws, so every seed does the same
work on the same input files.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

# interrupt cap of the inspect play jobs; scripts interrupt at most 8 times
PLAY_ROUND_CAP = 12


@dataclass(frozen=True)
class Family:
    name: str
    count: int
    states: int
    n_in: int
    n_out: int
    max_priority: int
    squared: bool = False


# Sizes keep every job short (mostly under 50 ms) and one pass over a
# workload's 28 to 40 jobs near one second, so that a run makes many passes:
# each job's best time then rarely misses the host's quiet moments.
FAMILIES = {
    "arena": Family("arena", 16, 2, 2, 2, 3),
    "large": Family("large", 12, 300, 2, 2, 7),
    "squared": Family("squared", 12, 40, 4, 4, 5, squared=True),
    "inspect": Family("inspect", 10, 2, 2, 2, 3),
}

WORKLOAD_FAMILIES = {
    "synth_arena": ("arena",),
    "discrete": ("large", "squared"),
    "inspect": ("inspect",),
}

# Seconds one pass over the workload's jobs takes on the reference host (two
# cores shared with other tenants, Python 3.11).  A run makes --seconds /
# PASS_SECONDS passes, a number that does not depend on how busy the host is.
PASS_SECONDS = {
    "synth_arena": 1.1,
    "discrete": 1.2,
    "inspect": 1.1,
}

# Hand-written answers for the fixture files, one entry per anchor job:
# (fixture, command, semantics or None, verdict field, expected value).
FIXTURE_ANCHORS = {
    "synth_arena": (
        ("psi_copy", "synth", "rc", "realizable", True),
        ("psi_copy", "synth", "fv", "realizable", True),
        ("psi_jump_rc", "synth", "rc", "realizable", True),
        ("psi_jump_fv", "synth", "fv", "realizable", True),
        ("psi_indet_fv", "synth", "fv", "realizable", False),
        ("one_state", "synth", "rc", "realizable", True),
        ("one_state", "synth", "fv", "realizable", True),
    ),
    "discrete": (
        ("one_state", "solve-discrete", None, "winner", "output"),
        ("predict_next", "solve-discrete", None, "winner", "input"),
        ("psi_copy_d", "definable", None, "definable", True),
        ("psi_jump_d", "definable", None, "definable", False),
    ),
    "inspect": (),
}

WORKLOADS = tuple(WORKLOAD_FAMILIES)

# the only field of a job's JSON output that runs compare
VERDICT_FIELD = {"synth": "realizable", "solve-discrete": "winner", "definable": "definable"}


def letters(n):
    return [str(i) for i in range(n)]


def squared_letters(n):
    """The n = k*k letters 'point,interval' over the base letters 0..k-1."""
    k = int(round(n ** 0.5))
    if k * k != n:
        raise ValueError(f"a squared alphabet needs a square size, not {n}")
    return [f"{p},{i}" for p in letters(k) for i in letters(k)]


def random_spec(family: Family, index: int) -> dict:
    rng = random.Random(f"{family.name}/{index}")
    if family.squared:
        sigma_in, sigma_out = squared_letters(family.n_in), squared_letters(family.n_out)
    else:
        sigma_in, sigma_out = letters(family.n_in), letters(family.n_out)
    states = [f"q{i}" for i in range(family.states)]
    priority = {q: rng.randint(0, family.max_priority) for q in states}
    transitions = [
        {"from": q, "in": a, "out": b, "to": rng.choice(states)}
        for q in states
        for a in sigma_in
        for b in sigma_out
    ]
    return {
        "states": states,
        "sigma_in": sigma_in,
        "sigma_out": sigma_out,
        "initial": "q0",
        "priority": priority,
        "convention": "max_even",
        "transitions": transitions,
    }


def spec_bytes(spec: dict) -> bytes:
    return (json.dumps(spec, sort_keys=True) + "\n").encode("utf-8")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and how to judge its answer."""

    name: str
    argv: tuple
    kind: str  # synth | solve-discrete | definable | arena-json | arena-dot | play
    spec: str  # spec id in expected.json, or fixture name
    semantics: str | None = None
    expected: object = None  # hand-written answer of fixture anchors
    anchor: bool = False


@dataclass
class Inputs:
    jobs: list
    file_hashes: dict  # generated file name -> sha256 of its bytes
    digest: str  # sha256 over every generated file, in job-list order


def play_script(spec_id: str, semantics: str, sigma_in) -> list:
    """A sequence of the documented session commands, seeded by spec and semantics.

    Lines that do not fit the node the play has reached are answered with
    'illegal move' and skipped by the session, as typed input would be.
    """
    rng = random.Random(f"play/{spec_id}/{semantics}")
    lines = [f"start {rng.choice(sigma_in)}"]
    for _ in range(rng.randint(2, 8)):
        b = rng.choice(sigma_in)
        options = [f"late {b}", f"big {b}", f"interrupt {rng.randint(1, 9)}/{rng.randint(1, 4)} {b}"]
        if semantics == "fv":
            options.append(f"input {rng.choice(sigma_in)}")
        lines.append(rng.choice(options))
    lines.append("accept")
    if semantics == "fv":
        lines.append(f"input {rng.choice(sigma_in)}")
        lines.append("accept")
    return lines


def build_inputs(workload: str, workdir: str, fixtures_dir: str, limit=None) -> Inputs:
    """Generate and write the workload's spec and script files; list its jobs.

    ``limit`` keeps only the first specs of each family (smoke checks).
    """
    os.makedirs(workdir, exist_ok=True)
    digest = hashlib.sha256()
    jobs, hashes = [], {}

    def write(name, data: bytes):
        path = os.path.join(workdir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        digest.update(name.encode() + b"\0" + data)
        hashes[name] = hashlib.sha256(data).hexdigest()
        return path

    for fam_name in WORKLOAD_FAMILIES[workload]:
        family = FAMILIES[fam_name]
        count = family.count if limit is None else min(limit, family.count)
        for i in range(count):
            spec_id = f"{fam_name}-{i:02d}"
            spec = random_spec(family, i)
            path = write(spec_id + ".json", spec_bytes(spec))
            jobs.extend(_family_jobs(workload, spec_id, spec, path, i, write))

    for fixture, command, semantics, _field, answer in FIXTURE_ANCHORS[workload]:
        path = os.path.join(fixtures_dir, fixture + ".json")
        if command == "synth":
            argv = ("synth", "--semantics", semantics, "--stats", path)
            name = f"{fixture}/{semantics}"
        else:
            argv = (command, path)
            name = f"{fixture}/{command}"
        jobs.append(Job(name, argv, command, fixture, semantics, answer, anchor=True))
    return Inputs(jobs, hashes, digest.hexdigest())


def _family_jobs(workload, spec_id, spec, path, index, write):
    if workload == "synth_arena":
        return [
            Job(f"{spec_id}/{s}", ("synth", "--semantics", s, "--stats", path), "synth", spec_id, s)
            for s in ("rc", "fv")
        ]
    if workload == "discrete":
        command = "definable" if spec_id.startswith("squared") else "solve-discrete"
        return [Job(f"{spec_id}/{command}", (command, path), command, spec_id)]
    # inspect: the JSON and DOT exports alternate the semantics over the
    # corpus; every spec is played under both
    s, t = ("rc", "fv") if index % 2 == 0 else ("fv", "rc")
    jobs = [
        Job(f"{spec_id}/arena-{s}", ("arena", "--semantics", s, path), "arena-json", spec_id, s),
        Job(f"{spec_id}/dot-{t}", ("arena", "--semantics", t, "--dot", path), "arena-dot", spec_id, t),
    ]
    for sem in ("rc", "fv"):
        script = "\n".join(play_script(spec_id, sem, spec["sigma_in"])) + "\n"
        script_path = write(f"{spec_id}-{sem}.play", script.encode("utf-8"))
        argv = ("--round-cap", str(PLAY_ROUND_CAP), "play", "--semantics", sem, "--script", script_path, path)
        jobs.append(Job(f"{spec_id}/play-{sem}", argv, "play", spec_id, sem))
    return jobs
