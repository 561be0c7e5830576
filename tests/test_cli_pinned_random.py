"""Stdout and exit code of ``synth --stats`` and ``arena`` on seeded random specs, pinned by sha256.

``test_cli_pinned.py`` pins the fixtures byte for byte; this file pins the
same three continuous commands on 2- and 3-state specs drawn with
``test_discrete_game._family_spec``, and the ``arena`` JSON export on the
4-state ``deep`` specs (up to 218 nodes and 1,626 edges), so an arena,
solver or writer refactor is checked on games the fixtures do not reach.
A change that alters one of these outputs on purpose says why and records
the new digests: ``python tests/test_cli_pinned_random.py`` prints them.
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
# the bench's deep/4 specs, as test_continuous_synth draws them: their arena JSON only
DEEP_SPECS = [("deep", i, 4) for i in range(12)]
MAX_PRIORITY = {"pin": 3, "deep": 4}


def _invocations():
    for family, index, states in SPECS:
        for sem in ("rc", "fv"):
            spec = f"{family}-{index}-{states}"
            yield ("synth", "--semantics", sem, "--stats", spec)
            yield ("arena", "--semantics", sem, spec)
            yield ("arena", "--semantics", sem, "--dot", spec)
    for family, index, states in DEEP_SPECS:
        for sem in ("rc", "fv"):
            yield ("arena", "--semantics", sem, f"{family}-{index}-{states}")


INVOCATIONS = list(_invocations())

PINNED = {
    "synth --semantics rc --stats pin-0-2": "9e56d8bca0ef7bdab31865782e96f7fd3663a86a2896bb0e4642778f2e35f0ef",
    "arena --semantics rc pin-0-2": "2f55a4b99f4bd3c3a8f367119311d68677919e4f839be885d881a7a036264f8a",
    "arena --semantics rc --dot pin-0-2": "62324f8ca930ee40dc7c3fc83f401a16236834ea5c173f48dc1dadb7ba77927d",
    "synth --semantics fv --stats pin-0-2": "b3604ccf1e98ed53cb74daab65a1827afea385d8b358824cce41e8310b5f0997",
    "arena --semantics fv pin-0-2": "7b69006b2124fe1d9f60f6e088084dd5431f3bcff78e205be71c62456abc3244",
    "arena --semantics fv --dot pin-0-2": "0375d56203dd467424461bdabc95d7178f812aad4cc641b71cf60b10a8017761",
    "synth --semantics rc --stats pin-1-2": "632d955c4f1e42d8bb2f726024ee68bb576654c88cb67f5b29cb705b0a26082c",
    "arena --semantics rc pin-1-2": "fddc77db0137648602ad88cdced7a161d23c01f37640a2352bc87266d4d2f1e3",
    "arena --semantics rc --dot pin-1-2": "658c1859cff3247601fc08c50f1fb8ec9f422606f53f69ee02f17dd876e3ea93",
    "synth --semantics fv --stats pin-1-2": "758ca4148694a8f1025f5992f53c9b5314b4c8dfed1b2943682259527f7cb8f4",
    "arena --semantics fv pin-1-2": "aac80f77df038a4c8c3603f0ff068d07078dd1e4d49934a70b433b5062919e09",
    "arena --semantics fv --dot pin-1-2": "c2717397afea8260db54ccb63f2f294930d0887124c1861dcd25daeb1a2b31ff",
    "synth --semantics rc --stats pin-2-2": "edda780d38ccc54c2b8dbbbf2aac6a1b422f635f886a932c299d7f2c5e77d969",
    "arena --semantics rc pin-2-2": "56e807a062816304aaaf68e2985ed1d2183253f5cbe2010d72bcf49a5291e77a",
    "arena --semantics rc --dot pin-2-2": "af174613e1f5f9af65c8203fed05a1b18a82124db20e8867b6ee3e61067fc89f",
    "synth --semantics fv --stats pin-2-2": "24db29031263e1a0f56dbf1ee30bf61e21723f6a9a50befa40aa9c2c1f8d69a7",
    "arena --semantics fv pin-2-2": "a2bce0ed4be303173c19d00a6ae01b2f3c1789f0c66b5bf5ab2537a8ba40168a",
    "arena --semantics fv --dot pin-2-2": "c791ea25ce9a59d4481b9cd25ce7bea1a205ec090aaf93dce35de46d03d4695d",
    "synth --semantics rc --stats pin-3-2": "7a39f312e7ef51803739b93807df2e02dc678e58c33c1405f3d3471af9a3731c",
    "arena --semantics rc pin-3-2": "b2ee0c0e549b3b640d623c4b088b3da63ae9f293e5e50d29bd628f188e7c79a9",
    "arena --semantics rc --dot pin-3-2": "03393f90e5432e52b2c7cf4ef01ffb988eb657a7533073ab04c22692ec21e589",
    "synth --semantics fv --stats pin-3-2": "750aa71ea7ef5ce74e49a76fdcda58ead3abf69acb81fa30a47c5aa60a6507af",
    "arena --semantics fv pin-3-2": "532bb12bd2f3dfcc41ba8adb4e4ca5828120dc0edd349f50cf63bb028976c00c",
    "arena --semantics fv --dot pin-3-2": "d09455724136b74f6a7e6454b79497597200c5834afa076d68d9a41ecb8732cd",
    "synth --semantics rc --stats pin-4-3": "a7c20fdcd26161373a015093f4f3aadee96218f3fd9b0fba8a480cf04918cf01",
    "arena --semantics rc pin-4-3": "6229449d4333f941f65c72cecdebdd32a71d20bec1b535f499f530ee48f621fa",
    "arena --semantics rc --dot pin-4-3": "2628f11affcc77574e7e46c4c4f53a7eb17a011b36464ca02524cbe285ee65cc",
    "synth --semantics fv --stats pin-4-3": "a65eba359e927d8a90dc2104fc7ddde26205bc8847d73549b70eef2681a3f129",
    "arena --semantics fv pin-4-3": "3260f4880620c21478c6f0f65469113d5d8ad1024593bf717e0f0ab300643532",
    "arena --semantics fv --dot pin-4-3": "f2825f6909292f4a56cc1411d99e43755b7dc1fcc0dd23cd11f7c3884ec47829",
    "synth --semantics rc --stats pin-5-3": "f737f961763aae07cd46e91ffef63f77c8cd0498d4d924a895e4148cd86cb286",
    "arena --semantics rc pin-5-3": "0d2079486494a48d7d87af763e649483956d14be82c4cf9206de742f4eae8dcc",
    "arena --semantics rc --dot pin-5-3": "0d96fb1ecf5f1cf174aa03a6f7afb3c27a5079c1289406a6137cc1c24c798bf0",
    "synth --semantics fv --stats pin-5-3": "0ad7b8e0c3f7237893241e0370dac838091f599fbff3361ddf74b431cbe04c1b",
    "arena --semantics fv pin-5-3": "4371e751759d7cd63786ab0b7e61ba4b2bc70afc8cee6ec2cf7a7ecd0a68f0ec",
    "arena --semantics fv --dot pin-5-3": "286450c814a655ed2f678e0e3078c2b5d364cd18f2d7c8d99e84eb7fa2a99202",
    "synth --semantics rc --stats pin-6-3": "e63c886cd481bb05261e3ba57d8ae6c7ba08da042f4ad51a5435608f905f5cda",
    "arena --semantics rc pin-6-3": "7135b5de73ad8aac2d48ecf1ac1fba23afc231a39c20aff9c00d4ef997e258b0",
    "arena --semantics rc --dot pin-6-3": "5ddef3e230cb52e8b2dce9d0c0ee8f0bad439b89f2000cfd077b8e22b332058a",
    "synth --semantics fv --stats pin-6-3": "8c90991a1aaa24aa4f4a710ac0316115733846bec8958fe9a83a5d3fb98b5813",
    "arena --semantics fv pin-6-3": "9341b6c167524683e9ba9589261e1f3c50c62f5db470cceac8f06ec456de10c9",
    "arena --semantics fv --dot pin-6-3": "0a76bfc9f1f3fd93d6e7efe6c80b6c03e71a5d23527c5a1ee59193b9c4059684",
    "synth --semantics rc --stats pin-7-3": "5955a2df0969b519166a548f01baf9b75c40e4ac420d06d6ef3f96f5f76790ef",
    "arena --semantics rc pin-7-3": "372a5fb30f2d12419bf132eb52425bfc26d4bd9b43f185672e9d287249ad90ff",
    "arena --semantics rc --dot pin-7-3": "864c629061b8d4d288f9ae9787bfa1b96a02c0f946423c39e966cf50d4b8f9d8",
    "synth --semantics fv --stats pin-7-3": "dcf6d4cc03a608bfea5277cff919c09a9c473fbcfc1158a299503dd58ab77bc0",
    "arena --semantics fv pin-7-3": "e7870436b1d57f769c8d331ba9df2b231696ace71ee92c2a8dd21ccfefabada0",
    "arena --semantics fv --dot pin-7-3": "a0b570af66943e50a48462e1a858de71d3878abbe6d31eea92dbfab714325474",
    "arena --semantics rc deep-0-4": "c3377d2ebcc05fc6554501b6dab761eeccded1b942b929fd9551a7f60e6e7afe",
    "arena --semantics fv deep-0-4": "c1ec57bfb1b1c84801d7008ae0b93199514ab154bf7ac12dd181bc55f1cee053",
    "arena --semantics rc deep-1-4": "27ee416b83b8f955f17a021b7df5bf46b97a3b6a00ea30f7e86ac9adad8e84b3",
    "arena --semantics fv deep-1-4": "7f50f836be61b8a634698a7718619f02c7d1b617965e42373ba3691138a01ed5",
    "arena --semantics rc deep-2-4": "2841203c54f5171e1bf49116c09551900e3ad58c32715995dd55331dffd36804",
    "arena --semantics fv deep-2-4": "c6645cec86a19a62fb6dcea583a874f2b71d606acf6d23e6c90f101633668011",
    "arena --semantics rc deep-3-4": "2152b62a86e2fb3e37564e057711e98f7a032b495193bf48f933eda6956ca9c5",
    "arena --semantics fv deep-3-4": "442682fefd1d6299d51cbbc4fc0410d53ee94e28007b2e308d6bd482e5db5054",
    "arena --semantics rc deep-4-4": "c8bed53b1bfa292a41b6881df412abfa6fc178c79b53c59bf07851dfb713b45a",
    "arena --semantics fv deep-4-4": "3af24b43650eee7a481de0be1bbf99119d2369653595ed6492ecb1f5dbfba26f",
    "arena --semantics rc deep-5-4": "b971fd14f8027981d142a33eb5d98ccdaeada1ea1c948779c77097bedd7605a1",
    "arena --semantics fv deep-5-4": "27996306f952f3686391bbeea7dd38cb31552255eecd57b717ab1746a665cd37",
    "arena --semantics rc deep-6-4": "3d91cdc798a48b7276abc1bfd4ae03870f41627c2f32d7b886aa092cd73f02dd",
    "arena --semantics fv deep-6-4": "de641d02128bb6365097562d4d0f834b867ec0dfed1dd7dd13b6744fa2287084",
    "arena --semantics rc deep-7-4": "e53629b36df2f166da97f39cf34ec230b2340ec273cccb83a42d7e86da9a0f4c",
    "arena --semantics fv deep-7-4": "1ed214d9892a3a3d03efc2cfb534c531a775718b988e4fa56ed36d669d6bf3ac",
    "arena --semantics rc deep-8-4": "5c3eb3a0eec8f32a59a9afab62b49c5e5bdf3eb76a60a0836248b451fb7485ba",
    "arena --semantics fv deep-8-4": "b333936915acb0d214d8a11e8050f711ac2c019347240288ae393891221e7bd1",
    "arena --semantics rc deep-9-4": "627c5c47fbdb6891217322e6479aa52e98b571adc5ddb46ddaf17d0cbe6c9912",
    "arena --semantics fv deep-9-4": "427455a946dedfc71667ca5f65bedd787caa4ecde367b188e85151a4f24b0590",
    "arena --semantics rc deep-10-4": "19d51d663cfd7d2d5240528fccd0f8c687413dd93645040a9912e9f51c70ae1d",
    "arena --semantics fv deep-10-4": "5522f3c06ac0c0c1176f43406474febfe2759521750bcae29c126043fb6a32cd",
    "arena --semantics rc deep-11-4": "5bc5b050486d2839548f7b2d91163ec3643de27ef5cd137e81d2da50a18532d2",
    "arena --semantics fv deep-11-4": "c3514911ad0edd54f570c40807d7c8e4d113f7acd90477ef8598880f12c1a03d",
}


def _spec_json(spec):
    from oracles import named_transitions  # imported late: run as a script, tests/ joins the path first
    from test_discrete_game import _family_spec

    family, index, states = spec.split("-")
    a = _family_spec(family, int(index), int(states), ("0", "1"), MAX_PRIORITY[family])
    return json.dumps({
        "states": list(a.states),
        "sigma_in": list(a.sigma_in),
        "sigma_out": list(a.sigma_out),
        "initial": a.initial,
        "priority": a.priority,
        "convention": "max_even",
        "transitions": [
            {"from": q, "in": x, "out": b, "to": t} for (q, x, b), t in sorted(named_transitions(a).items())
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
