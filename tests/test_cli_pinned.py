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
    "arena --semantics rc one_state": "98c04d3b2b9b388e286cf98a8da3ed9660a39d514df4e468bcb4c789fdb11006",
    "arena --semantics rc --dot one_state": "8774308717795be51ce5f0c1b12886df43d6c6bd8937fef3fd630616b14dd3ee",
    "synth --semantics fv --stats one_state": "1f40788fd17c0394ed9b752b692a86a13da6b43803ff0b5ec8a3ce15583e0dac",
    "arena --semantics fv one_state": "e03ac64ea05e8120d2c3785630ad9fdf77064ed6c0c4fff9d8eb9101dc450c48",
    "arena --semantics fv --dot one_state": "db6f03ec79bd6451b0fd86683cc892fd0fe623016c48b7722295ec484b2f3be9",
    "synth --semantics rc --stats predict_next": "46f94fa1fc7d76c2906d52b57ecfd868848936d50e137f43913a75b2284fa35d",
    "arena --semantics rc predict_next": "f94b983ce52fe5beb6245185a741bba42b9b5cbcf9e3cfada68ed9a44b327bf0",
    "arena --semantics rc --dot predict_next": "801ab51ed4e1071991b1e0ff95331064265b95b2862559c1f2cb3a8a4da0101c",
    "synth --semantics fv --stats predict_next": "c9115dfed518e5197876de0373e9155243cc2a4f2840663e559c7078b1c2dcdd",
    "arena --semantics fv predict_next": "275cd9ca3b5385f4262abaf8c749e56e5d03eb36614779cb9368ec339d55076d",
    "arena --semantics fv --dot predict_next": "5b58a68db62e1089170fcf80f5aeffec4fb99df96226673bb33b3c214312c546",
    "synth --semantics rc --stats psi_copy": "8b6761aca09d456b496586ccacc3589995fb2bf8deb861dd7989814eb44a4700",
    "arena --semantics rc psi_copy": "e30d9fab841c0adff79be547c6091f747434cb57f327891202ebb55b0b8b9295",
    "arena --semantics rc --dot psi_copy": "3eb9c8ea7d6429aa420b89dfed29ca2c621ee365f6dcded8b85474f06d0a138e",
    "synth --semantics fv --stats psi_copy": "2c6f09a716603a58a9f13ad76ce520a17f0ac6371c8153ba53127aa9b42e6f56",
    "arena --semantics fv psi_copy": "fe3c535414c3e2f9b430c21f0d0bf4b39da28bcf81ba69f0497fb6b6c56022a3",
    "arena --semantics fv --dot psi_copy": "3f14bab88da4a54a35f9521f27fd098ae0425a896118f84ddd6c12c72cc8c84d",
    "synth --semantics rc --stats psi_indet_fv": "f82c67823bb6229013db8d0dd1bc8a0a9b5a0ebd39c15a75fd92069953b97b34",
    "arena --semantics rc psi_indet_fv": "8ed3bd8a5501e538221cdddb0b77ae88433d2c9a70600bb0c2b332266d07408e",
    "arena --semantics rc --dot psi_indet_fv": "06daadd64258b40fa0a56305337e0d1a7803164d398dd16a6e5d3de9b8fa06d5",
    "synth --semantics fv --stats psi_indet_fv": "d9d4e4731519398a4429a6585982ae91769d77cad5f05892caeb7b4821a436c3",
    "arena --semantics fv psi_indet_fv": "95c142837b658ca5d9e4d2dd537bd708b3393df147280290191ffbc0ca8aec11",
    "arena --semantics fv --dot psi_indet_fv": "826a6687609b9866191583373986c43dfc004d5a5daeab8e8bcb3b3737b3ee13",
    "synth --semantics rc --stats psi_jump_fv": "045214166de460d6165199bee444de29cf97675f7e7a14ffaca564d575c43ec2",
    "arena --semantics rc psi_jump_fv": "886487b512b65a4242cf0c495719af65b47f86a5af64c2b58bb25307000b5db0",
    "arena --semantics rc --dot psi_jump_fv": "9b55e16ec68fa389ff5532f412a7bce413d3ec8023d7cdbf28ce8f974b978db7",
    "synth --semantics fv --stats psi_jump_fv": "21028e1a0dee461591287bc06b5b2130a39f16d8e7e1809b2eabdf8fd66dee9f",
    "arena --semantics fv psi_jump_fv": "0ef04ca2ce673294d548128251ad9492d8801a137f5c5f52701a45c71f3fe4d0",
    "arena --semantics fv --dot psi_jump_fv": "04cc9c5e9e7ee9314696f03f0693aba7d579a7db9f0c53b075b4cda6c81f225c",
    "synth --semantics rc --stats psi_jump_rc": "090f86383cc72c853018dca05a99bbae61f7a5ddf9997181421f0b7dd46c6e3c",
    "arena --semantics rc psi_jump_rc": "708ebdf54aad297384d3c45bc3f66baada3f878d57a36f99b5d5c8f7c14f6e98",
    "arena --semantics rc --dot psi_jump_rc": "2286cc5f93201ece8ddec1d6f51443eb57a884842a0df6c24b1fffa6682170ac",
    "synth --semantics fv --stats psi_jump_rc": "cf603536f8a2290bfcedb8a9e22fd3889ab19988f0a010b6d961c2996e946c84",
    "arena --semantics fv psi_jump_rc": "885d87124a402788a894a131acf474d7f8bab52464d5dd83116cb0752b74ed05",
    "arena --semantics fv --dot psi_jump_rc": "b8f1a336b8ae28890b5a7b8f6d20f9031fee6f15625e48015eb3665c097a719e",
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
    "play --semantics rc --script script-rc psi_copy": "024a21faff7fd55f5544958bbd52584bafb393018fe18a301e2756862c1bb30b",
    "play --semantics fv --script script-fv psi_copy": "f2492723e853522948620e13d3da9316ba190475fc8f9e34c69e3394f52a56ed",
    "play --semantics rc --script script-rc psi_jump_fv": "7c5daa61a0a33df3ac7bb1935ab5ac27381487b12b9406dfdc314ffbdee3285d",
    "play --semantics fv --script script-fv psi_jump_fv": "c40e9e4c95d8362ae185c941f4973aa0408df8c21ae1afe75ca6e71043c487ba",
    "play --semantics rc --script script-rc psi_jump_rc": "a8f7e7572be6b13b2cab87ab458b4f0be2f855401fa4e20268268f8870311d66",
    "play --semantics fv --script script-fv psi_jump_rc": "d467ba7c907b2db163c6703e842502cbf9fb2cf38a6ca27b0b4d66fe6554634a",
    "play --semantics rc --script script-illegal-rc psi_copy": "70adff91510b5278cf44aeef5fb18ebb2354536e6bbd78fd478d39d3383bbee9",
    "play --semantics rc stdin-illegal-rc psi_copy": "61dbdf3128d206c42ece02d34fc795aba49d3c6452d3421de0c3ede7ca844e54",
    "play --semantics fv --script script-illegal-fv psi_copy": "c4f9f40d41330168ed0f87e0784c20a4d180de51e64c256c21c5f86cc52d8695",
    "play --semantics fv stdin-illegal-fv psi_copy": "a648c728eafc80c14d040e986e5148c5e66e792b62c2c00c0417a583735f7c15",
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
