"""Stdout and exit code of fixed fixture invocations, pinned by sha256.

A refactor that should not change what the CLI prints is checked here byte
for byte.  A change that alters one of these outputs on purpose says why
and records the new digests: ``python tests/test_cli_pinned.py`` prints
them.
"""

import contextlib
import hashlib
import io
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

CONTINUOUS = ("one_state", "predict_next", "psi_copy", "psi_indet_fv", "psi_jump_fv", "psi_jump_rc")
ALL = CONTINUOUS + ("psi_copy_d", "psi_jump_d")

# environment moves without a kind: late/big default to 'left' in fv
SCRIPTS = {
    "rc": ["start 0", "late 1", "big 0", "interrupt 7/2 1", "late 0", "big 1", "accept"],
    "fv": [
        "start 0", "late 1", "input 0", "big 1", "input 1", "late 0",
        "interrupt 9 1", "accept", "input 0", "accept",
    ],
    # one line per illegal-move message a session can print; the blank line
    # is dropped from a --script file and reaches the session from stdin
    "illegal-rc": [
        "help", "", "nonsense", "start", "accept", "interrupt 1 1", "late 1", "input 0",
        "start 7", "start 0", "start 0", "input 0", "interrupt 0 1", "interrupt 1/2 7",
        "interrupt 1/2 0", "interrupt 1/2 1 left", "interrupt x 1", "interrupt 1/2 1",
        "late 0", "accept",
    ],
    "illegal-fv": [
        "help", "", "nonsense", "input 0", "start 7", "start 0", "start 0", "input 7",
        "accept", "interrupt 1 1 left", "big 1", "input 0", "interrupt 0 1 left",
        "interrupt 1/2 0 left", "interrupt 1/2 7 left", "interrupt 1/2 1",
        "interrupt 1/2 1 bogus", "late 1 bogus", "interrupt 1/2 1 right", "interrupt 1",
        "input 0", "interrupt 1 1 right", "late 0", "input 1", "accept",
    ],
}


def _invocations():
    for name in CONTINUOUS:
        for sem in ("rc", "fv"):
            yield ("synth", "--semantics", sem, "--stats", name)
            yield ("arena", "--semantics", sem, name)
            yield ("arena", "--semantics", sem, "--dot", name)
    for name in ("one_state", "psi_copy", "psi_copy_d"):
        yield ("monoid", "--full", name)
    for name in ALL:
        yield ("solve-discrete", name)
    for name in ("psi_copy_d", "psi_jump_d"):
        yield ("definable", name)
    for name in ("one_state", "psi_copy", "psi_jump_fv", "psi_jump_rc"):
        for sem in ("rc", "fv"):
            yield ("play", "--semantics", sem, "--script", f"script-{sem}", name)
    for sem in ("rc", "fv"):
        yield ("play", "--semantics", sem, "--script", f"script-illegal-{sem}", "psi_copy")
        yield ("play", "--semantics", sem, f"stdin-illegal-{sem}", "psi_copy")


INVOCATIONS = list(_invocations())

PINNED = {
    "synth --semantics rc --stats one_state": "bc8a7d9dd18aa31af9b3b3b276ff7d0eb660e8265596732541f1639b3c0a687f",
    "arena --semantics rc one_state": "2efe6f1c1038124d032c992cfbf34a706158be72416c3e27e7ffe015c396acba",
    "arena --semantics rc --dot one_state": "8774308717795be51ce5f0c1b12886df43d6c6bd8937fef3fd630616b14dd3ee",
    "synth --semantics fv --stats one_state": "1f40788fd17c0394ed9b752b692a86a13da6b43803ff0b5ec8a3ce15583e0dac",
    "arena --semantics fv one_state": "d5cb62aa75c676e08cfe58d51af18940e0fc9b11ee9c593b0a3ef97d9a92f204",
    "arena --semantics fv --dot one_state": "db6f03ec79bd6451b0fd86683cc892fd0fe623016c48b7722295ec484b2f3be9",
    "synth --semantics rc --stats predict_next": "2b25e78695401d9d8f26e5236deb2a20f808a5ee1fd505b8b1013d9894317c41",
    "arena --semantics rc predict_next": "52ab01e78ef29c0141d8982f4e5960c09a77b46790230bb036accf03f585482e",
    "arena --semantics rc --dot predict_next": "aba8ac22ae4bc7e67738381c79a31cf05bc93cdca4c7fb164ec5b114c888c1b8",
    "synth --semantics fv --stats predict_next": "e1bf63429afd38a49c59f2d1e1620c92d626e911e365f8369f47ffb6e8c15d22",
    "arena --semantics fv predict_next": "d529c170d06060e08d9c4651d1307dad67cb14dbebb965ab16afe6555db5156a",
    "arena --semantics fv --dot predict_next": "12281a1b5034bc4b900195bd4f5fb7b19d109decc7096d61dae0cb2e12ac205b",
    "synth --semantics rc --stats psi_copy": "006c1790e6b0e27bef9d24fbf5aa7e9cce542d183eaffdfb2444b1abca2195d7",
    "arena --semantics rc psi_copy": "90f3a5b648ca73c6f0a9517a01bc148687530450dfec5e68f470828a22a60b04",
    "arena --semantics rc --dot psi_copy": "289c3c1bcb777ee57d3f2204d922f58afac72129ad7b353bd20470424fb9743d",
    "synth --semantics fv --stats psi_copy": "46e58a0a23bc5aff95c5b6ed9cfa4d82f4eaa1fee870092174193e8f261c1d71",
    "arena --semantics fv psi_copy": "8bdac446bfb0a2b1ed08853047dfbc236c26d3692ed8d39c90a947477e881f33",
    "arena --semantics fv --dot psi_copy": "6dfb4d5c958f847304bdc293ca8acec11e24bf3cfdc5b9405040f61bfb6b9e3f",
    "synth --semantics rc --stats psi_indet_fv": "ca225eeaa0615952e128701eb206fd8e05fad8ab65d6119d28439b8bda451497",
    "arena --semantics rc psi_indet_fv": "0c377d9687b8cb44b4f9561a254bf272322d75b4a1431ad9ab82240838ca6418",
    "arena --semantics rc --dot psi_indet_fv": "fed3892bba16ef6fc168932a0088a2485e0648a45b3c1bc27c9440292691b694",
    "synth --semantics fv --stats psi_indet_fv": "c21a2850146aec44466e1983a523aba4a6fa8c361d60a6d821526b5f6238989d",
    "arena --semantics fv psi_indet_fv": "3c902927335ce108b714fbb79a71d73255c07ad4b056c396653a5a3479f73842",
    "arena --semantics fv --dot psi_indet_fv": "89d41199203a426bde78617c2a5b67ec15afcf00f2db934d418cf3cc59992389",
    "synth --semantics rc --stats psi_jump_fv": "19fc3ca6e66112cfb870fa5e5247922c4ece406aa7b753dce2c4462e8b858fa9",
    "arena --semantics rc psi_jump_fv": "b31bb5349775df59196339c61d006fbf5aac9eff0fe888b08eb3a66e89511966",
    "arena --semantics rc --dot psi_jump_fv": "2bb989ddb12769351592eb1fa8e81519499e1ed748e3e2fe44b5b3fa4aa903e4",
    "synth --semantics fv --stats psi_jump_fv": "b65f0a15c9691fcbd9c516d829c1b41e541ffe0bc88577eaed8aeed3c7a2099c",
    "arena --semantics fv psi_jump_fv": "306bac6f2dda672a18ed5e35c062272e3af9d3af47f82e1612f8b847cf1cbfc7",
    "arena --semantics fv --dot psi_jump_fv": "c83dec78cdb5bf6b2fadafb7ebaac8c4a94e64ff0734f61babe3c088f82cb273",
    "synth --semantics rc --stats psi_jump_rc": "381eae2f5f82eb37599acba91c790e2a94b1476a8812d9151813d94405cd8e5f",
    "arena --semantics rc psi_jump_rc": "8d05a5bc1bdcbdd0b6003040c8ee61ebfa0d69694dcacb170e22fa84055229db",
    "arena --semantics rc --dot psi_jump_rc": "0043faf65fe6481152b5736e1e94936ddc287812936225f9d95117c83ca77798",
    "synth --semantics fv --stats psi_jump_rc": "9a2d344a7aa7c7795080461a69fa9e7f37a09b877bb84c76cc9c0e74200fe843",
    "arena --semantics fv psi_jump_rc": "095405c7705db0685c28113a5fd3eaec73c0993b409c4203d7f3edde4ecfb1dd",
    "arena --semantics fv --dot psi_jump_rc": "2db304cbb78d9014808e875933c5fb55e9e56b3e1207e93540bf5d648f403116",
    "monoid --full one_state": "2f5e966d552a48a0c92ed3fa80d5dad6903a06468983889b967f624fa735b979",
    "monoid --full psi_copy": "0a0b7bc100980e6b011fca1948cc45a262f63b753470c276a9c92dbec323b9e5",
    "monoid --full psi_copy_d": "0a0b7bc100980e6b011fca1948cc45a262f63b753470c276a9c92dbec323b9e5",
    "solve-discrete one_state": "3e3910b9d19f0dad7b9d1b4bcd56dbb7b16bc7d09064e3eb73f0da9511a12633",
    "solve-discrete predict_next": "29ced89d1e6250189fd919b079b3859f4ac25651b95931c09ed9381a720a0384",
    "solve-discrete psi_copy": "08d1d24d411715059e58e2a03359482a062f756e1e9e75c464e39fbad028207d",
    "solve-discrete psi_indet_fv": "4d56068f39916f3057adcb704d4dda0dd127334e45090ff14f2a64493698e7f1",
    "solve-discrete psi_jump_fv": "9781c8328ef85c08edc27de1ca45167ed649efbfcfa747c59abcee99f4b3e7fd",
    "solve-discrete psi_jump_rc": "ffcc86f9aefc88bb05836c9919623d45ab53a4fb541d3b215dd8ac4014f5024b",
    "solve-discrete psi_copy_d": "2ad81648fc46e457758cbd073700d386b181d0b13045962c17d23b84054df4ce",
    "solve-discrete psi_jump_d": "16f02ba402d6b99c6445e1f6d47008dbcd5d64f98b754ca0d9671480a3cc3fe5",
    "definable psi_copy_d": "56e9016cfdc79ba3272e2204fac6dde22f73fab5a159c26cb0bcc0f46e21d18a",
    "definable psi_jump_d": "dd3a50779c5f48c43417daa71f483b691a68d787b8c1a0736ad14bb31b3d5ed4",
    "play --semantics rc --script script-rc one_state": "b4c0ada3d99a70c25a400a716312f7770082953f2661fa390ab642dd5430be7e",
    "play --semantics fv --script script-fv one_state": "324487dedc70e0fb8ba791ccf4e90aa5ce0996c32952abdae83e518826bf53dd",
    "play --semantics rc --script script-rc psi_copy": "d2a4ae7ef3abab3fbe28175396c8f832091357788d3ea7d9c749ae26367758b8",
    "play --semantics fv --script script-fv psi_copy": "71a781c7decc288d8696c862132c3d33ede460131dec362ec142f97e2163a6a5",
    "play --semantics rc --script script-rc psi_jump_fv": "7c5daa61a0a33df3ac7bb1935ab5ac27381487b12b9406dfdc314ffbdee3285d",
    "play --semantics fv --script script-fv psi_jump_fv": "414c701e76f7de74bb6a9065cff63cd76b9ec07abdd030a2d28886569ba86444",
    "play --semantics rc --script script-rc psi_jump_rc": "a8f7e7572be6b13b2cab87ab458b4f0be2f855401fa4e20268268f8870311d66",
    "play --semantics fv --script script-fv psi_jump_rc": "9d12facd91881308a3998ca699b1c1262e47e288015e2c85f53dd7b6e4c5a04b",
    "play --semantics rc --script script-illegal-rc psi_copy": "6ff0eea3980d624811985865ec9e8cb76e42a6fc7e8f4acffd9a1d909f682437",
    "play --semantics rc stdin-illegal-rc psi_copy": "4deb8955478f797925d0c17837f807521841d4f7db6f68998356c565ed7b5630",
    "play --semantics fv --script script-illegal-fv psi_copy": "b4db68c14efb5fc6d5839270edc57ffa7ed0fe906921a9e0ff64dcacedfb6d00",
    "play --semantics fv stdin-illegal-fv psi_copy": "501e127bc76b13f95102e6d2145e2bdb2120e14ea5c55c096c895e7c0dfcfdbf",
}


def _digest(invocation, tmp_dir):
    from chronosynth.cli import main  # imported late: run as a script, src/ joins the path first

    *args, name = invocation
    argv, stdin = [], ""
    for arg in args:
        if arg.startswith("stdin-"):
            # typed at the prompt: the "> " prompts go to sys.stdout, not to out
            stdin = "\n".join(SCRIPTS[arg[len("stdin-"):]]) + "\n"
            continue
        if arg.startswith("script-"):
            path = pathlib.Path(tmp_dir) / arg
            path.write_text("\n".join(SCRIPTS[arg[len("script-"):]]) + "\n")
            arg = str(path)
        argv.append(arg)
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + [str(FIXTURES / f"{name}.json")], out=out, err=err)
    finally:
        sys.stdin = saved_stdin
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode("utf-8")).hexdigest()


@pytest.mark.parametrize("invocation", INVOCATIONS, ids=" ".join)
def test_output_is_pinned(invocation, tmp_path):
    assert _digest(invocation, tmp_path) == PINNED[" ".join(invocation)]


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        for invocation in INVOCATIONS:
            print(f'    "{" ".join(invocation)}": "{_digest(invocation, tmp)}",')
