"""CLI subcommands, exit codes, determinism, caps."""

import enum
import errno
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

from chronosynth.automaton import MIN_EVEN, load_automaton
from chronosynth import cli
from chronosynth.cli import EXIT_CAP, EXIT_OK, EXIT_UNDECIDED, EXIT_USAGE, main
from chronosynth.continuous_synth import build_game_arena
from chronosynth.state_monoid import UPMember

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def src_env(**extra):
    """The environment with src/ first on PYTHONPATH, for running the CLI as a module."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def test_usage_error_exit_code():
    code, _, _ = run_cli("synth", str(FIXTURES / "psi_copy.json"))
    assert code == EXIT_USAGE
    code, _, _ = run_cli("no-such-command")
    assert code == EXIT_USAGE
    code, _, _ = run_cli("check-fixtures")
    assert code == EXIT_USAGE
    code, _, _ = run_cli("--seed", "0", "synth", "--semantics", "fv", str(FIXTURES / "psi_copy.json"))
    assert code == EXIT_USAGE


def test_argparse_output_goes_to_the_given_streams(capsys):
    code, out, err = run_cli("synth", str(FIXTURES / "psi_copy.json"))
    assert code == EXIT_USAGE
    assert out == "" and "--semantics" in err
    code, out, err = run_cli("--help")
    assert code == EXIT_OK
    assert out.startswith("usage: chronosynth") and err == ""
    code, out, err = run_cli("synth", "--help")
    assert code == EXIT_OK
    assert "--semantics" in out and err == ""
    assert capsys.readouterr() == ("", "")


def test_synth_copy_fv_realizable():
    code, out, _ = run_cli("synth", "--semantics", "fv", str(FIXTURES / "psi_copy.json"))
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["realizable"] is True
    assert data["witness"]


def test_synth_indet_unrealizable():
    code, out, _ = run_cli("synth", "--semantics", "fv", str(FIXTURES / "psi_indet_fv.json"))
    assert code == EXIT_OK
    assert json.loads(out)["realizable"] is False


def test_definable_jump_answers_no():
    code, out, _ = run_cli("definable", str(FIXTURES / "psi_jump_d.json"))
    assert code == EXIT_OK
    assert json.loads(out)["definable"] is False


def test_definable_copy_answers_yes():
    code, out, _ = run_cli("definable", str(FIXTURES / "psi_copy_d.json"))
    assert code == EXIT_OK
    assert json.loads(out)["definable"] is True


def test_monoid_one_state_counts():
    code, out, _ = run_cli("monoid", str(FIXTURES / "one_state.json"))
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["classes"] == 2
    assert data["d_Q"] == 2
    assert data["up_members"] == 1


def test_monoid_full_listing(tmp_path):
    code, out, _ = run_cli("monoid", "--full", str(FIXTURES / "one_state.json"))
    data = json.loads(out)
    assert data["representatives"] == [["q"], ["q", "q"]]
    # over states a and aa, the strings (a, a) and (aa) are told apart
    spec = json.loads((FIXTURES / "one_state.json").read_text())
    spec["states"], spec["initial"], spec["priority"] = ["a", "aa"], "a", {"a": 0, "aa": 1}
    spec["transitions"] = [
        {"from": q, "in": x, "out": y, "to": "aa" if y == "1" else "a"}
        for q in ("a", "aa") for x in "01" for y in "01"
    ]
    path = tmp_path / "a_aa.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli("monoid", "--full", str(path))
    reps = json.loads(out)["representatives"]
    assert code == EXIT_OK and ["a", "a"] in reps and ["aa"] in reps
    assert len({tuple(r) for r in reps}) == len(reps)


def test_arena_dot_and_json():
    code, out, _ = run_cli("arena", "--semantics", "rc", "--dot", str(FIXTURES / "one_state.json"))
    assert code == EXIT_OK and out.startswith("digraph")
    code, out, _ = run_cli("arena", "--semantics", "fv", str(FIXTURES / "one_state.json"))
    data = json.loads(out)
    assert data["semantics"] == "fv"
    assert data["nodes"] and data["edges"]


def test_exported_names_tell_distinct_arena_nodes_apart(tmp_path):
    # with input letters '+' and '-', the fv node (ok,a) for a = '+' prints
    # like the dagger node (ok,+)
    spec = json.loads((FIXTURES / "psi_copy.json").read_text())
    plus_minus = {"0": "-", "1": "+"}
    spec["sigma_in"] = [plus_minus[x] for x in spec["sigma_in"]]
    for t in spec["transitions"]:
        t["in"] = plus_minus[t["in"]]
    path = tmp_path / "psi_copy_pm.json"
    path.write_text(json.dumps(spec))
    arena, _ = build_game_arena(load_automaton(path), "fv")

    # each JSON node entry carries the name its edges and the DOT ids use
    code, out, _ = run_cli("arena", "--semantics", "fv", str(path))
    assert code == EXIT_OK
    data = json.loads(out)
    names = [entry["name"] for entry in data["nodes"]]
    assert len(set(names)) == len(names) == len(arena.nodes)
    node_of = dict(zip(names, arena.nodes))
    assert [(node_of[e["from"]], node_of[e["to"]]) for e in data["edges"]] == [
        (e.src, e.dst) for e in arena.edges
    ]

    quoted = QUOTED.pattern
    code, dot, _ = run_cli("arena", "--semantics", "fv", "--dot", str(path))
    assert code == EXIT_OK
    assert [json.loads(i) for i in re.findall(rf"^  ({quoted}) \[shape=", dot, re.M)] == names
    dot_edges = re.findall(rf"^  ({quoted}) -> ({quoted})", dot, re.M)
    assert [(node_of[json.loads(s)], node_of[json.loads(d)]) for s, d in dot_edges] == [
        (e.src, e.dst) for e in arena.edges
    ]

    code, out, _ = run_cli("synth", "--semantics", "fv", str(path))
    witness = json.loads(out)["witness"]
    assert witness
    for entry in witness:
        src, dst = node_of[entry["at"]], node_of[entry["to"]]
        assert arena.owner(src) == "O"
        assert dst in [e.dst for e in arena.outgoing(src)]


def test_solve_discrete_machine_output(tmp_path):
    dot = tmp_path / "machine.dot"
    code, out, _ = run_cli("solve-discrete", str(FIXTURES / "predict_next.json"), "--dot", str(dot))
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["winner"] == "input"
    assert data["machine"]["kind"] == "moore_counter"
    assert dot.read_text().startswith("digraph")


def test_unwritable_dot_path_is_a_usage_error(tmp_path):
    dot = tmp_path / "missing" / "machine.dot"
    code, out, err = run_cli("solve-discrete", str(FIXTURES / "one_state.json"), "--dot", str(dot))
    _one_line_usage_error(code, out, err)
    assert str(dot) in err
    assert not dot.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this host")
def test_dot_file_whose_write_fails_is_a_usage_error():
    # /dev/full opens, but a write to it fails with ENOSPC
    code, out, err = run_cli("solve-discrete", str(FIXTURES / "one_state.json"), "--dot", "/dev/full")
    _one_line_usage_error(code, out, err)
    assert "/dev/full" in err


def _integer_letters(tmp_path):
    """psi_copy with its letters written as JSON integers."""
    spec = json.loads((FIXTURES / "psi_copy.json").read_text())
    spec["sigma_in"] = [int(x) for x in spec["sigma_in"]]
    spec["sigma_out"] = [int(x) for x in spec["sigma_out"]]
    for t in spec["transitions"]:
        t["in"], t["out"] = int(t["in"]), int(t["out"])
    path = tmp_path / "int_letters.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.mark.parametrize("command", [["solve-discrete", "--run", "0(1)^w"], ["monoid", "--letter", "0"]])
def test_letters_that_are_not_strings_are_a_usage_error(command, tmp_path):
    code, out, err = run_cli(command[0], str(_integer_letters(tmp_path)), *command[1:])
    _one_line_usage_error(code, out, err)
    assert "sigma_in entry 0 is not a string" in err


def test_empty_letter_is_a_usage_error(tmp_path):
    # an empty letter would be read after each letter of a lasso, and the
    # copy spec would answer (1)^w with 0(10)^w
    spec = json.loads((FIXTURES / "psi_copy.json").read_text())
    spec["sigma_in"] = ["" if x == "0" else x for x in spec["sigma_in"]]
    for t in spec["transitions"]:
        t["in"] = "" if t["in"] == "0" else t["in"]
    path = tmp_path / "empty_letter.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli("solve-discrete", str(path), "--run", "(1)^w")
    _one_line_usage_error(code, out, err)
    assert "sigma_in entry '' is empty or contains whitespace" in err


@pytest.mark.parametrize("letter", ["(", ")", "^", "0^w"])
def test_letter_with_lasso_syntax_is_a_usage_error(letter, tmp_path):
    # parse_lasso splits at the first '(': with letter 0 renamed '(', the copy
    # spec would answer ((1)^w, lag ( and period 1, with (01)^w
    spec = json.loads((FIXTURES / "psi_copy.json").read_text())
    spec["sigma_in"] = [letter if x == "0" else x for x in spec["sigma_in"]]
    for t in spec["transitions"]:
        t["in"] = letter if t["in"] == "0" else t["in"]
    path = tmp_path / "lasso_letter.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli("solve-discrete", str(path), "--run", f"{letter}(1)^w")
    _one_line_usage_error(code, out, err)
    assert f"sigma_in entry {letter!r} contains one of ( ) ^" in err


QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


def _dot_strings(text):
    """The quoted strings of a DOT text, unescaped; no quote or backslash lies outside them."""
    assert not re.search(r'["\\]', QUOTED.sub("", text))
    return {re.sub(r"\\(.)", r"\1", q[1:-1]) for q in QUOTED.findall(text)}


@pytest.mark.parametrize("fixture", ["psi_copy", "predict_next"])
def test_dot_exports_escape_quotes_and_backslashes(fixture, tmp_path):
    spec = json.loads((FIXTURES / f"{fixture}.json").read_text())
    rename = {q: q + '"\\' for q in spec["states"]}
    spec["states"] = [rename[q] for q in spec["states"]]
    spec["initial"] = initial = rename[spec["initial"]]
    spec["priority"] = {rename[q]: p for q, p in spec["priority"].items()}
    for t in spec["transitions"]:
        t["from"], t["to"] = rename[t["from"]], rename[t["to"]]
    path, dot = tmp_path / "spec.json", tmp_path / "machine.dot"
    path.write_text(json.dumps(spec))
    code, _, _ = run_cli("solve-discrete", str(path), "--dot", str(dot))
    assert code == EXIT_OK
    assert initial in _dot_strings(dot.read_text())
    code, out, _ = run_cli("arena", "--semantics", "rc", "--dot", str(path))
    assert code == EXIT_OK
    assert f"({initial},0)" in _dot_strings(out)


def test_play_scripted_replay(tmp_path):
    script = tmp_path / "moves.txt"
    script.write_text("start 0\nlate 1\nlate 0\naccept\n")
    code, out, _ = run_cli(
        "play", "--semantics", "rc", "--script", str(script), str(FIXTURES / "psi_copy.json")
    )
    assert code == EXIT_OK
    assert "outcome: O wins (accepted_final)" in out
    assert "transcript:" in out
    # byte-identical on replay
    code2, out2, _ = run_cli(
        "play", "--semantics", "rc", "--script", str(script), str(FIXTURES / "psi_copy.json")
    )
    assert out == out2


def test_play_reads_moves_from_stdin_until_eof():
    proc = subprocess.run(
        [sys.executable, "-m", "chronosynth.cli",
         "play", "--semantics", "rc", str(FIXTURES / "psi_copy.json")],
        input="start 0\nlate 1\n", capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "I start a=0" in proc.stdout
    assert "I interrupt t=2 letter=1" in proc.stdout
    assert "outcome: undecided (play abandoned early)" in proc.stdout


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_undecodable_stdin_is_a_usage_error(monkeypatch, capsys, errors):
    # each line is decoded alone and strictly, whatever the stream's handler: a
    # strict one would raise while decoding, surrogateescape would pass the byte
    # on as a lone surrogate; the lines before the bad one are played first
    def play(errors):
        stdin = io.TextIOWrapper(io.BytesIO(b"start 0\n\xff\n"), encoding="utf-8", errors=errors)
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli("play", "--semantics", "rc", str(FIXTURES / "psi_copy.json"))
        return code, out, err, capsys.readouterr().out  # the prompts input() would write

    other = {"strict": "surrogateescape", "surrogateescape": "strict"}[errors]
    code, out, err, prompts = play(errors)
    assert (code, out, err, prompts) == play(other)
    assert code == EXIT_USAGE and prompts == "> " * 2
    assert "I start a=0" in out
    assert err == (
        "cannot read stdin line 2: UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


def test_a_failed_stdout_write_is_one_stderr_line(monkeypatch, tmp_path):
    class FullStdout(io.StringIO):
        """A stdout on a full disk: every write fails."""

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fileno(self):
            return fd

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    err = io.StringIO()
    monkeypatch.setattr(sys, "argv", ["chronosynth", "synth", "--semantics", "rc", str(FIXTURES / "psi_copy.json")])
    monkeypatch.setattr(sys, "stdout", FullStdout())
    monkeypatch.setattr(sys, "stderr", err)
    try:
        with pytest.raises(SystemExit) as info:
            cli.entry()
    finally:
        os.close(fd)
    assert info.value.code == 1
    assert err.getvalue() == f"cannot write output: {os.strerror(errno.ENOSPC)}\n"


def test_closed_stdout_exits_1_without_a_traceback():
    # a reader that stops early, as `| grep -q` does, closes the pipe first
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "chronosynth.cli",
             "synth", "--semantics", "rc", str(FIXTURES / "psi_copy.json")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=src_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_every_module_imports_with_only_src_on_the_path(tmp_path):
    # pytest puts tests/ on sys.path, which would hide an import of a test
    # helper such as signal_model or oracles from inside the package
    code = (
        "import importlib, pkgutil, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import chronosynth\n"
        "for m in pkgutil.iter_modules(chronosynth.__path__):\n"
        "    importlib.import_module('chronosynth.' + m.name)\n"
        "    print(m.name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules = sorted(p.stem for p in (ROOT / "src" / "chronosynth").glob("[!_]*.py"))
    assert sorted(proc.stdout.split()) == modules


def test_play_undecided_exit_code(tmp_path):
    script = tmp_path / "moves.txt"
    script.write_text("start 0\nlate 1\nlate 0\nlate 1\n")
    code, _, err = run_cli(
        "--round-cap", "2",
        "play", "--semantics", "rc", "--script", str(script), str(FIXTURES / "psi_copy.json"),
    )
    assert code == EXIT_UNDECIDED
    assert "undecided" in err
    # eight interrupts inside the lag reach a round cap of 8 and form an
    # all-small cycle, a Zeno win for the controller
    script.write_text("start 0\n" + "late 1\nlate 0\n" * 4)
    code, out, _ = run_cli(
        "--round-cap", "8",
        "play", "--semantics", "rc", "--script", str(script), str(FIXTURES / "psi_copy.json"),
    )
    assert code == EXIT_OK
    assert "outcome: O wins (zeno_O_win)" in out


def test_play_unrealizable_spec_reports():
    code, out, _ = run_cli(
        "play", "--semantics", "fv", str(FIXTURES / "psi_indet_fv.json")
    )
    assert code == EXIT_OK
    assert "unrealizable" in out


def test_resource_cap_exit_code():
    code, _, err = run_cli(
        "--monoid-cap", "1", "synth", "--semantics", "fv", str(FIXTURES / "psi_copy.json")
    )
    assert code == EXIT_CAP
    assert "cap" in err
    code, _, _ = run_cli("synth", "--semantics", "fv", str(FIXTURES / "psi_copy.json"))
    assert code == EXIT_OK
    code, out, err = run_cli(
        "--monoid-cap", "0", "synth", "--semantics", "fv", str(FIXTURES / "psi_copy.json")
    )
    assert code == EXIT_USAGE
    assert out == "" and "--monoid-cap" in err  # argparse's message
    # psi_copy's table has 24 classes and 10 idempotents, 240 (class, idempotent)
    # pairs; the build stops at the 18th class, the first whose 6 idempotents
    # so far make more than 100 pairs
    code, out, err = run_cli("--monoid-cap", "100", "monoid", str(FIXTURES / "psi_copy.json"))
    assert code == EXIT_CAP
    assert out == "" and "18 classes x 6 idempotents = 108 pairs so far" in err
    # the class table of an unrealizable spec exceeds a monoid cap of 1
    code, out, err = run_cli(
        "--monoid-cap", "1", "synth", "--semantics", "fv", str(FIXTURES / "psi_indet_fv.json")
    )
    assert code == EXIT_CAP
    assert out == "" and "cap" in err


def test_monoid_pair_cap_stops_the_class_table_early():
    # the whole table has 53,312 classes; the default cap stops the build long before
    start = time.perf_counter()
    code, out, err = run_cli("monoid", str(FIXTURES / "predict_next.json"))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CAP
    assert out == "" and "over the pair cap 200000" in err


def test_monoid_counts_members_without_building_them(monkeypatch):
    # up_members is counted off the vocabulary walk; only --full builds the members
    made = [0]
    new = UPMember.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(UPMember, "__new__", counting)
    # the whole tables of the 4-state fixtures are over the default pair cap
    for name in ("one_state", "psi_copy", "psi_jump_fv", "psi_indet_fv"):
        path = str(FIXTURES / f"{name}.json")
        letters = load_automaton(path).sigma_in
        # synth counts each letter's vocabulary off the same walk, without a member
        code, out, _ = run_cli("synth", "--semantics", "fv", "--stats", path)
        assert code == EXIT_OK
        up_sizes = json.loads(out)["stats"]["up_sizes"]
        assert sorted(up_sizes) == sorted(letters)
        whole = [["monoid", path]] if name in ("one_state", "psi_copy") else []
        for argv in (*whole, *(["monoid", "--letter", x, path] for x in letters)):
            made[0] = 0
            code, out, _ = run_cli(*argv)
            assert (code, made[0]) == (EXIT_OK, 0), argv
            code, full, _ = run_cli(*argv[:1], "--full", *argv[1:])
            assert code == EXIT_OK and json.loads(full)["up_members"] == json.loads(out)["up_members"]
            assert len(json.loads(full)["up"]) == json.loads(out)["up_members"] == made[0], argv
            if "--letter" in argv:
                assert len(json.loads(full)["up"]) == up_sizes[argv[2]], argv
    # 53,312 classes x 6,772 idempotents, past the default pair cap
    made[0] = 0
    code, out, err = run_cli("--monoid-cap", "400000000", "monoid", str(FIXTURES / "predict_next.json"))
    assert (code, err, made[0]) == (EXIT_OK, "", 0)
    assert json.loads(out)["up_members"] == 11_590_180


# where a capped build stops depends on the order the classes are found in,
# so these messages pin that order at the stop
CAP_STOPS = [
    (
        ["--monoid-cap", "5", "monoid", "predict_next.json"],
        "signature cap exceeded; 6 classes built so far",
    ),
    (
        ["--monoid-cap", "1000", "monoid", "predict_next.json"],
        "123 classes x 9 idempotents = 1107 pairs so far, over the pair cap 1000",
    ),
    (
        ["--monoid-cap", "20000", "monoid", "predict_next.json"],
        "537 classes x 38 idempotents = 20406 pairs so far, over the pair cap 20000",
    ),
    (
        ["--monoid-cap", "1", "synth", "--semantics", "fv", "psi_indet_fv.json"],
        "signature cap exceeded; 12 classes built so far",
    ),
]


@pytest.mark.parametrize("argv,message", CAP_STOPS, ids=["monoid-5", "monoid-1000", "monoid-20000", "synth-1"])
def test_cap_stop_points_are_pinned(argv, message):
    code, out, err = run_cli(*argv[:-1], str(FIXTURES / argv[-1]))
    assert (code, out, err) == (EXIT_CAP, "", f"resource cap exceeded: {message}\n")


def test_output_determinism(tmp_path):
    # each invocation runs in two processes under different hash seeds, so a
    # set's iteration order that leaks into the output shows as a difference
    script = tmp_path / "moves.txt"
    script.write_text("start 0\nlate 1\nlate 0\naccept\n")
    for argv in (
        ["synth", "--semantics", "fv", "--stats", str(FIXTURES / "psi_jump_fv.json")],
        ["arena", "--semantics", "rc", str(FIXTURES / "psi_jump_rc.json")],
        ["arena", "--semantics", "fv", "--dot", str(FIXTURES / "psi_jump_fv.json")],
        ["play", "--semantics", "rc", "--script", str(script), str(FIXTURES / "psi_copy.json")],
    ):
        first, second = (
            subprocess.run(
                [sys.executable, "-m", "chronosynth.cli", *argv],
                capture_output=True, env=src_env(PYTHONHASHSEED=seed), timeout=120,
            )
            for seed in ("0", "1")
        )
        assert first.returncode == second.returncode == EXIT_OK, first.stderr
        assert first.stdout and first.stdout == second.stdout, argv


def test_solve_discrete_run_lasso():
    code, out, _ = run_cli(
        "solve-discrete", str(FIXTURES / "predict_next.json"), "--run", "0(1)^w"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["run"]["output"] == "0(1)^w"
    assert data["run"]["input"]  # the counter machine's reply, as a lasso


@pytest.mark.parametrize(
    "fixture, lasso, answer",
    [
        ("psi_copy_d", "0,0(0,1)^w", "0,0(0,1)^w"),
        ("psi_copy_d", "0,0,1,1(0,1)^w", "0,0,1,1(0,1)^w"),
        ("psi_copy", "0,1(1,0)^w", "01(10)^w"),
    ],
)
def test_solve_discrete_run_reads_letters_of_the_spec(fixture, lasso, answer):
    code, out, err = run_cli("solve-discrete", str(FIXTURES / f"{fixture}.json"), "--run", lasso)
    assert code == EXIT_OK, err
    assert json.loads(out)["run"] == {"input": lasso, "output": answer}


@pytest.mark.parametrize("lasso", ["(1,0)^w", "1,0(1)^w", "10(1,10)^w"])
def test_solve_discrete_run_prints_a_word_that_reads_back(lasso, tmp_path):
    # over letters 0, 1 and 10, the reply to (1,0)^w must not read as (10)^w
    letters = ["0", "1", "10"]
    path = tmp_path / "copy_10.json"
    path.write_text(json.dumps({
        "states": ["ok", "bad"],
        "sigma_in": letters,
        "sigma_out": letters,
        "initial": "ok",
        "priority": {"ok": 0, "bad": 1},
        "transitions": [
            {"from": q, "in": a, "out": b, "to": "ok" if q == "ok" and a == b else "bad"}
            for q in ("ok", "bad") for a in letters for b in letters
        ],
    }))
    code, out, err = run_cli("solve-discrete", str(path), "--run", lasso)
    assert code == EXIT_OK, err
    assert json.loads(out)["run"] == {"input": lasso, "output": lasso}


@pytest.mark.parametrize(
    "fixture, lasso, detail",
    [
        ("psi_copy", "01", "must end with '^w'"),
        ("psi_copy", "0()^w", "period must be nonempty"),
        ("psi_copy", "01)^w", "missing period parentheses"),
        ("psi_copy_d", "0(1)^w", "not in the input alphabet"),
        ("predict_next", "0(2)^w", "not in the output alphabet"),
    ],
)
def test_solve_discrete_bad_run_lasso_is_a_usage_error(fixture, lasso, detail):
    code, out, err = run_cli("solve-discrete", str(FIXTURES / f"{fixture}.json"), "--run", lasso)
    _one_line_usage_error(code, out, err)
    assert detail in err


# a malformed last entry of a long valid transition list, and its message
BAD_LAST_ENTRY = {
    "duplicate": (
        lambda e: dict(e, **{"from": "q0", "in": "0", "out": "0"}),
        "AutomatonError: duplicate transition at ('q0', '0', '0')",
    ),
    "undeclared_from": (
        lambda e: dict(e, **{"from": "zz"}), "AutomatonError: transition from undeclared state 'zz'"
    ),
    "undeclared_letter": (
        lambda e: dict(e, out="2"), "AutomatonError: transition letter ('1', '2') undeclared"
    ),
    "undeclared_to": (lambda e: dict(e, to="zz"), "AutomatonError: transition target 'zz' undeclared"),
    "missing_to": (lambda e: {k: v for k, v in e.items() if k != "to"}, "KeyError: 'to'"),
    "not_an_object": (
        lambda e: list(e.values()), "TypeError: list indices must be integers or slices, not str"
    ),
    "list_from": (
        lambda e: dict(e, **{"from": [e["from"]]}),
        "AutomatonError: transition from undeclared state ['q99']",
    ),
    "list_in": (
        lambda e: dict(e, **{"in": [e["in"]]}),
        "AutomatonError: transition letter (['1'], '1') undeclared",
    ),
    "list_to": (lambda e: dict(e, to=[e["to"]]), "AutomatonError: transition target ['q0'] undeclared"),
}


@pytest.mark.parametrize("fault", sorted(BAD_LAST_ENTRY))
def test_a_bad_last_transition_entry_is_named(tmp_path, fault):
    # the first bad entry is named even when 399 valid ones come before it
    states = [f"q{i}" for i in range(100)]
    entries = [
        {"from": q, "in": x, "out": y, "to": states[(i + 1) % 100]}
        for i, q in enumerate(states) for x in "01" for y in "01"
    ]
    change, message = BAD_LAST_ENTRY[fault]
    entries[-1] = change(entries[-1])
    path = tmp_path / "bad_entry.json"
    path.write_text(json.dumps({
        "states": states,
        "sigma_in": ["0", "1"],
        "sigma_out": ["0", "1"],
        "initial": "q0",
        "priority": {q: i % 3 for i, q in enumerate(states)},
        "transitions": entries,
    }))
    code, out, err = run_cli("solve-discrete", str(path))
    assert (code, out, err) == (EXIT_USAGE, "", f"cannot read {path}: {message}\n")


CONTINUOUS_FIXTURES = sorted(p for p in FIXTURES.glob("*.json") if not p.stem.endswith("_d"))


@pytest.mark.parametrize("semantics", ["rc", "fv"])
@pytest.mark.parametrize("fixture", CONTINUOUS_FIXTURES, ids=lambda p: p.stem)
def test_arena_export_matches_synth_stats(fixture, semantics):
    # synth counts the arena's edges off its table, and both exports build
    # every edge: the arena exported is the one solved
    code, out, _ = run_cli("arena", "--semantics", semantics, str(fixture))
    assert code == EXIT_OK
    arena = json.loads(out)
    code, dot, _ = run_cli("arena", "--semantics", semantics, "--dot", str(fixture))
    assert code == EXIT_OK
    code, out, _ = run_cli("synth", "--semantics", semantics, "--stats", str(fixture))
    assert code == EXIT_OK
    stats = json.loads(out)["stats"]
    assert stats["arena_nodes"] > 0 and stats["arena_edges"] > 0
    assert len(arena["nodes"]) == stats["arena_nodes"]
    assert len(arena["edges"]) == stats["arena_edges"]
    assert sum("->" in line for line in dot.splitlines()) == stats["arena_edges"]


def _min_even_twin(fixture, tmp_path):
    """The fixture written under the min-even convention, with the priorities that keep its language.

    The priorities follow the formula p -> M - p, with M the top priority
    rounded up to even, not the loader's mirroring, which maps them back:
    every fixture has a priority 0 or 1, so both mirrors share M, and a
    wrong M in the loader shows as a mismatch here.
    """
    data = json.loads(fixture.read_text())
    top = max(data["priority"].values())
    top += top % 2
    data["priority"] = {q: top - p for q, p in data["priority"].items()}
    data["convention"] = MIN_EVEN
    path = tmp_path / fixture.name
    path.write_text(json.dumps(data))
    assert load_automaton(path) == load_automaton(fixture)
    return path


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_min_even_twin_prints_what_the_fixture_prints(fixture, tmp_path):
    # the loader mirrors the twin's priorities, and no entry point reads a convention
    twin = _min_even_twin(fixture, tmp_path)
    # the monoid of four fixtures is over the cap, which a small cap finds sooner
    commands = [["--monoid-cap", "5000", "monoid", "--full"], ["solve-discrete"]]
    for semantics in ("rc", "fv"):
        commands += [
            ["synth", "--semantics", semantics, "--stats"],
            ["arena", "--semantics", semantics],
            ["arena", "--semantics", semantics, "--dot"],
        ]
    if fixture.stem.endswith("_d"):  # the squared fixtures
        commands.append(["definable"])
    for command in commands:
        expected = run_cli(*command, str(fixture))
        assert expected[0] == EXIT_OK or "monoid" in command
        assert run_cli(*command, str(twin)) == expected, command


def _bad_specs(tmp_path):
    not_json = tmp_path / "not_json.json"
    not_json.write_text("states: [q]\n")
    spec = json.loads((FIXTURES / "one_state.json").read_text())
    bad = [tmp_path / "missing.json", not_json]
    for i, value in enumerate([1.7, True, "2"]):  # priorities that are not JSON integers
        bad.append(tmp_path / f"priority_{i}.json")
        bad[-1].write_text(json.dumps(dict(spec, priority={"q": value})))
    for i, state in enumerate([1, ["a"]]):  # states that are not JSON strings
        bad.append(tmp_path / f"state_{i}.json")
        bad[-1].write_text(json.dumps(dict(spec, states=[state, "q"])))
    # names that are not JSON arrays, repeated names, an undeclared priority
    # key, and a repeated transition
    for i, names in enumerate([
        {"states": "q"}, {"sigma_in": "01"}, {"states": ["q", "q"]}, {"sigma_in": ["0", "1", "0"]},
        {"priority": {"q": 0, "zz": 9}, "transitions": spec["transitions"][1:]},
        {"transitions": spec["transitions"] + spec["transitions"][:1]},
    ]):
        bad.append(tmp_path / f"names_{i}.json")
        bad[-1].write_text(json.dumps(dict(spec, **names)))
    del spec["states"]
    bad.append(tmp_path / "no_states.json")
    bad[-1].write_text(json.dumps(spec))
    # nesting too deep for the json parser, as arrays and as objects
    for name, text in (("deep_list", "[" * 100_000), ("deep_dict", '{"a": ' * 100_000)):
        bad.append(tmp_path / f"{name}.json")
        bad[-1].write_text(text)
    return bad


@pytest.mark.parametrize("command", [["synth", "--semantics", "rc"], ["solve-discrete"]])
def test_unreadable_spec_is_a_usage_error(tmp_path, command):
    for path in _bad_specs(tmp_path):
        code, out, err = run_cli(*command, str(path))
        assert code == EXIT_USAGE, path
        assert out == ""
        assert err.count("\n") == 1 and str(path) in err
        assert "Traceback" not in err


def test_unreadable_play_script_is_a_usage_error(tmp_path):
    missing = tmp_path / "missing.txt"
    code, out, err = run_cli(
        "play", "--semantics", "rc", "--script", str(missing), str(FIXTURES / "psi_copy.json")
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and str(missing) in err


def test_monoid_unknown_letter_is_a_usage_error():
    code, out, err = run_cli("monoid", "--letter", "0", str(FIXTURES / "psi_jump_d.json"))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and "'0'" in err
    assert "Traceback" not in err
    # a letter of the spec is named in the output
    code, out, err = run_cli("monoid", "--letter", "0", str(FIXTURES / "psi_copy.json"))
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["letter"] == "0"


def _one_line_usage_error(code, out, err):
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_definable_needs_squared_alphabets(tmp_path):
    code, out, err = run_cli("definable", str(FIXTURES / "psi_copy.json"))
    _one_line_usage_error(code, out, err)
    assert "squared" in err
    spec = json.loads((FIXTURES / "psi_copy_d.json").read_text())
    # letters that are not strings are refused by the spec loader, before the squared check
    for letters, detail in ((["0,1,0", "0,0", "1,0", "1,1"], "squared"), ([0, 1], "is not a string")):
        bad = dict(spec, sigma_in=letters, transitions=[])
        path = tmp_path / "bad_letters.json"
        path.write_text(json.dumps(bad))
        code, out, err = run_cli("definable", str(path))
        _one_line_usage_error(code, out, err)
        assert detail in err


@pytest.mark.parametrize("alphabet", ["sigma_in", "sigma_out"])
@pytest.mark.parametrize(
    "command", [["synth", "--semantics", "rc"], ["synth", "--semantics", "fv"], ["solve-discrete"]]
)
def test_empty_alphabet_is_a_usage_error(tmp_path, alphabet, command):
    spec = json.loads((FIXTURES / "psi_copy.json").read_text())
    spec[alphabet] = []
    spec["transitions"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(*command, str(path))
    _one_line_usage_error(code, out, err)
    assert "nonempty" in err



def _emitted(obj):
    out = io.StringIO()
    cli._emit(obj, out)
    return out.getvalue()


PAYLOAD_COMMANDS = [
    ["solve-discrete"],
    ["definable"],
    ["synth", "--semantics", "rc", "--stats"],
    ["synth", "--semantics", "fv", "--stats"],
    ["arena", "--semantics", "rc"],
    ["arena", "--semantics", "fv"],
    # a nested run record; the squared fixtures' letters are not 0 and 1 (exit 2)
    ["solve-discrete", "--run", "0(1)^w"],
    # the cap stops the class tables of the larger fixtures early (exit 3)
    ["--monoid-cap", "20000", "monoid", "--full"],
]


@pytest.mark.parametrize("command", PAYLOAD_COMMANDS, ids=lambda c: " ".join(c))
def test_emitter_writes_every_payload_as_json_dumps_does(command, monkeypatch):
    payloads = []
    emit = cli._emit

    def recording_emit(obj, out):
        payloads.append(obj)
        emit(obj, out)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    for path in sorted(FIXTURES.glob("*.json")):
        code, out, _ = run_cli(*command, str(path))
        if code != EXIT_OK:  # definable on a spec that is not squared, a monoid cap
            continue
        assert out == json.dumps(payloads[-1], indent=2, sort_keys=True) + "\n", path.name
    assert payloads


class Name(str):
    pass


class Count(int):
    pass


class Level(enum.IntEnum):
    HIGH = 7


def test_emitter_matches_json_dumps_on_hand_made_values():
    awkward = ['"quoted"', "back\\slash", "\x00\x1f\t\n\r\x7f", "é ü ∞", "\U0001d11e clef", "/"]
    cases = [
        {key: value for key, value in zip(awkward, reversed(awkward))},
        awkward,
        {},
        [],
        {"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}]},
        [True, 1, False, 0, None, -7, 10**30],
        {"true": True, "one": 1, "none": None},
        "plain",
        12,
        None,
        [[1, [2, [3, {"x": [4]}]]]],
        # a machine's states and a counter machine's output, their str values written in place
        {"states": [f"q{i}" for i in range(300)], "initial": "q0"},
        {"output": {f"q{i}": awkward[i % 6] for i in range(40)}, "states": ["q0", None, True, 3]},
        [["a", 1, None], {"k": [False, "é"]}, [], "b"],
    ]
    # subclasses of str and int are written through the recursion, not in place
    odd = [Name("é\n"), Count(-3), Level.HIGH]
    cases += [*odd, odd, {"name": odd[0], "count": odd[1], "level": odd[2]}, {"all": odd}]
    for value in cases:
        assert _emitted(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def _random_json(rng, depth):
    """A seeded value of the emitter's JSON subset; lists often hold records of scalars."""
    keys = ["a", "b", "from", "to", "kind", "é", "\u2028", 'q"1', "back\\slash", "\t", ""]
    scalars = [True, False, None, 0, -1, -17, 3, 10**20, "", "q0", "é ü ∞", '"', "\x00\n", "\U0001d11e"]

    def record():
        return {key: rng.choice(scalars) for key in rng.sample(keys, rng.randint(1, 5))}

    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(scalars)
    if roll < 0.6:  # a list of records with mixed key sets, some empty or nested
        items = []
        for _ in range(rng.randint(0, 5)):
            pick = rng.random()
            if pick < 0.6:
                items.append(record())
            elif pick < 0.7:
                items.append(rng.choice(({}, [])))
            elif pick < 0.85:  # a record with a record or a list among its values
                items.append(dict(record(), nested=_random_json(rng, depth - 1)))
            else:
                items.append(_random_json(rng, depth - 1))
        return items
    if roll < 0.8:
        return [_random_json(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return {key: _random_json(rng, depth - 1) for key in rng.sample(keys, rng.randint(0, 4))}


def test_emitter_matches_json_dumps_on_seeded_payloads():
    rng = random.Random(37)
    records = 0
    for trial in range(600):
        value = _random_json(rng, 4)
        assert _emitted(value) == json.dumps(value, indent=2, sort_keys=True) + "\n", trial
        records += json.dumps(value).count("{")
    assert records > 2000


@pytest.mark.parametrize(
    "value",
    [
        1.5, (1, 2), {1: "a"}, {"a": (1,)}, [{"a": 0.0}], {None: 1}, {"a": 1, 2: "b"}, {1, 2},
        [{"a": 1, "b": 0.5}], [{1: "a"}], [{"a": "x"}, {"a": True, None: 1}], [{"a": 1, "b": [0.5]}],
    ],
    ids=[
        "float", "tuple", "int key", "nested tuple", "nested float", "None key", "mixed keys", "set",
        "float in record", "int key in record", "None key in record", "float under record",
    ],
)
def test_emitter_refuses_values_outside_its_json_subset(value):
    with pytest.raises(TypeError):
        _emitted(value)
