"""Stdout and exit code of ``synth --stats`` and ``arena`` on seeded random specs, pinned by sha256.

``test_cli_pinned.py`` pins the fixtures byte for byte; this file pins the
same three continuous commands on 2- and 3-state specs drawn with
``test_discrete_game._family_spec``, so an arena or solver refactor is
checked on games the fixtures do not reach.  A change that alters one of
these outputs on purpose says why and records the new digests:
``python tests/test_cli_pinned_random.py`` prints them.
"""

import hashlib
import io
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (family, index, states): the specs, each over input and output letters 0 and 1
SPECS = [("pin", i, 2) for i in range(4)] + [("pin", i, 3) for i in range(4, 8)]


def _invocations():
    for family, index, states in SPECS:
        for sem in ("rc", "fv"):
            spec = f"{family}-{index}-{states}"
            yield ("synth", "--semantics", sem, "--stats", spec)
            yield ("arena", "--semantics", sem, spec)
            yield ("arena", "--semantics", sem, "--dot", spec)


INVOCATIONS = list(_invocations())

PINNED = {
    "synth --semantics rc --stats pin-0-2": "6a979c7e8df666e7491d220a181a52e3b9b145c289cf80ae520049923b744fd4",
    "arena --semantics rc pin-0-2": "6432e2ad7d79aeb9478fd396a5de1bfe7e9e57e203540175c97568a538f0ead1",
    "arena --semantics rc --dot pin-0-2": "a53d75a53916a9b615741c0a0fef30f7326e850a698470d224763cd278971e27",
    "synth --semantics fv --stats pin-0-2": "24f21bc38ddbeb31258afa2a1589794108ee9fdd30cfa6cc0ff295164dadce1e",
    "arena --semantics fv pin-0-2": "c64e890f4b7e267799049c5d1c4de95c7d4c8a049d145ebfccfbde2b1b79d6a5",
    "arena --semantics fv --dot pin-0-2": "c9fdbd9a762665cd4a8ce520a6a551dc49475848c58f8e16b846e6eef5cf9725",
    "synth --semantics rc --stats pin-1-2": "8ca5f85e9460f8cc9d7e41655b77bd36335060c9a72cbb4afc0a65f2c8b61840",
    "arena --semantics rc pin-1-2": "23e63642fe251ca862eb6fac9a94db5b8cbd009776fc3f26f7f5c91e1a704fa8",
    "arena --semantics rc --dot pin-1-2": "0e9ae03235ccb12763906ea3f71a7296fb566d6cd8b1fa7025721f657d8af36f",
    "synth --semantics fv --stats pin-1-2": "76494068fb9e78f00cfe9a5b2e617bd5769eac5d18396166ccf03b9d34ea3235",
    "arena --semantics fv pin-1-2": "aaf54565b68a8d85a76b69c72ae8172228a52d2ddc8c90122fa6084d518b7862",
    "arena --semantics fv --dot pin-1-2": "715ba130bfa2d9bb7d641ec269d462bf23782d500fe57e3eb08c965440e25c6a",
    "synth --semantics rc --stats pin-2-2": "92e3ecf0108dabad20d24ce62e8c4c9ba06b1edc392c8ba6b080efaa2a07d856",
    "arena --semantics rc pin-2-2": "b0f05040df68847bf45c297109b36c48c1bfe45474c5295fbd6edb54fe258da3",
    "arena --semantics rc --dot pin-2-2": "e6e3801f84e1fb08b5d07d4b3e2f2b8fbc793da13d2fdfa90b6d277441546b25",
    "synth --semantics fv --stats pin-2-2": "bb1cc49d67a4769bed1a015e62f2b328a712d35f9cc1f0402067d782c04928c5",
    "arena --semantics fv pin-2-2": "be46a9a79cd84e382fb8e470042a20e90ed7463cea93a53492ea5b8d1cc43b2e",
    "arena --semantics fv --dot pin-2-2": "251144684fc05720ecdae393d2e8e527a4d08789f8f03ce31455173b04538d4b",
    "synth --semantics rc --stats pin-3-2": "abac114ae6f558aefd24da623a9b21a0c619bca2647c9cbd971a730c4c90ede4",
    "arena --semantics rc pin-3-2": "ac56aaa3f5f2cb348e76855c2d3d275d36a837ad35c71bf88e9f786f91c03104",
    "arena --semantics rc --dot pin-3-2": "b98c0d01cb161dd245b45a21c662be1538f5494f08bcbb2fa916cbd562bfd783",
    "synth --semantics fv --stats pin-3-2": "2b741840b3043fa99eeb9a3a6b88061cfd3e9f237c17884c6d5ec622dadeeb16",
    "arena --semantics fv pin-3-2": "e6f0deb117208b49cd70e4090e4e86d03e8ba3fddba5ff9a2f00b9ecc2b68497",
    "arena --semantics fv --dot pin-3-2": "61bfa4a9b92ad11626c0a36c0fe32ca80a4e8af17076d3e6eb226802280978bd",
    "synth --semantics rc --stats pin-4-3": "6e7064509822af593b39f4a0dab883a11b752dfc2cf34b698aa245dec2f73d65",
    "arena --semantics rc pin-4-3": "b8d29b2b0d34ebb5501924efb09e83c4994ae5305ca339e23e6ead3c5ae53344",
    "arena --semantics rc --dot pin-4-3": "3185fce1ad150f5cf3df055dad2578c6845cd3dba00728bfe58ec3a8799929f7",
    "synth --semantics fv --stats pin-4-3": "febb8e0743dbb47315d8c04c57682dca32a2e44e33cbfd58e491a2a87b4ebc4a",
    "arena --semantics fv pin-4-3": "9d01d7a7b9a635057b7924199317b96e41e8b0718cd33917ecd34963e4a8f87b",
    "arena --semantics fv --dot pin-4-3": "e9c56029fa9cef8cf66ea8de87ac7f0c3227360b56e04f7e51ef7ff4afc2888c",
    "synth --semantics rc --stats pin-5-3": "eda68ef876b6b759a5e91dd3a8d2441a4ff4ffa966d38441c91ccc6a23444984",
    "arena --semantics rc pin-5-3": "d6c953431620a03afcd90be4e0b736b9a706bfdd7b0744c6670a6eaed5f1663c",
    "arena --semantics rc --dot pin-5-3": "0e1a455b2a5d7847ee8f532a5e76655752d78ecaa187488a191a67a683cdc29d",
    "synth --semantics fv --stats pin-5-3": "64e61639b52d033e7443361b33583a77cec7ce1f2a70ce2a2b2b05142bf9cbf1",
    "arena --semantics fv pin-5-3": "8bd6210509568e556802cadb1105399090df3740bf5143266d23bf514bd64ff3",
    "arena --semantics fv --dot pin-5-3": "27cbd1ff14c95130fb4263c86f13b718ebfd4caf0e094b03f7eb9f16a1f51ae1",
    "synth --semantics rc --stats pin-6-3": "561837330052cd8a577b7d8883fed08f8a2ca44b2f7eb2569e26097a7dcf20e4",
    "arena --semantics rc pin-6-3": "a494a07399bb52424403e4c0b80215e6877177e69e52cc16676a02c5efe7e07a",
    "arena --semantics rc --dot pin-6-3": "2b95fa013a55560728b9c10b9b0a2bc439af5d19fd5c0f1ed37d8285c0d50829",
    "synth --semantics fv --stats pin-6-3": "e4b7e96b6c9974bf31ccd74b7cfeb868345b7a3107dc78c2716b63c2bea134ab",
    "arena --semantics fv pin-6-3": "7eebc2bcc6de29d98710276e9407625a77ec8baa543af55a278d3b39aff8facc",
    "arena --semantics fv --dot pin-6-3": "c40a3e8667e401898f031e6e4647fc8845f90e3625b9ab3b5ba8158327ad8bb3",
    "synth --semantics rc --stats pin-7-3": "206efd02697590140d00ac65469949fd05879e7fab7fcaa9ec0ef4bc79fbca5b",
    "arena --semantics rc pin-7-3": "6f5b50fd7cd2869c43565465af01e1c9edc05bc67dd3a558d6e55d01a01ab551",
    "arena --semantics rc --dot pin-7-3": "58c0ff2a351f8db00f9a403363cb8d5264c00c2532138a48d63afc1b91a0e1d0",
    "synth --semantics fv --stats pin-7-3": "278b4111c846eb429fafa48ca0837c2ea558a21bd4be770abc82a08009720651",
    "arena --semantics fv pin-7-3": "9bdb4cd75f37ea9de55315622293efec66c6dc6bb0cc4fa33a4ac9fd57efb747",
    "arena --semantics fv --dot pin-7-3": "7fbd0a9249f2ab210dcdb6047f5d6ac77f7f2468c1fea4fa67dca6eb5edb864c",
}


def _spec_json(spec):
    from test_discrete_game import _family_spec  # imported late: run as a script, tests/ joins the path first

    family, index, states = spec.split("-")
    a = _family_spec(family, int(index), int(states), ("0", "1"), 3)
    return json.dumps({
        "states": list(a.states),
        "sigma_in": list(a.sigma_in),
        "sigma_out": list(a.sigma_out),
        "initial": a.initial,
        "priority": a.priority,
        "convention": a.convention,
        "transitions": [
            {"from": q, "in": x, "out": b, "to": t} for (q, x, b), t in sorted(a.transition.items())
        ],
    })


def _digest(invocation, tmp_dir):
    from chronosynth.cli import main

    *args, spec = invocation
    path = pathlib.Path(tmp_dir) / f"{spec}.json"
    path.write_text(_spec_json(spec))
    out, err = io.StringIO(), io.StringIO()
    code = main(list(args) + [str(path)], out=out, err=err)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode("utf-8")).hexdigest()


@pytest.mark.parametrize("invocation", INVOCATIONS, ids=" ".join)
def test_output_is_pinned(invocation, tmp_path):
    assert _digest(invocation, tmp_path) == PINNED[" ".join(invocation)]


if __name__ == "__main__":
    import tempfile

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    with tempfile.TemporaryDirectory() as tmp:
        for invocation in INVOCATIONS:
            print(f'    "{" ".join(invocation)}": "{_digest(invocation, tmp)}",')
