"""Every narrative demo runs to completion and prints what it printed before.

Stdout is pinned by sha256, as in ``test_cli_pinned.py``.  A change that
alters a demo's output on purpose says why and records the new digests:
``python tests/test_demos.py`` prints them.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

PINNED = {
    "01_lassos_and_automata": "3188d9700882873b338727e53f5d0743a65c13daf7dd9ee879d66ea6f9f7b3d3",
    "02_signals_and_codec": "2d0cd903dca18534396d9ce1524a534b0d550d5355e2e929d86b4f53a68455df",
    "03_state_classes_and_blocks": "387f291d43600da0c761b16ec971b0f61757a45172b53626f1f8ee195ceb9bef",
    "04_discrete_synthesis": "f26f248c626c345c63b722ebde80cc3032df7b3d4e772862c7e30e4837e69f9f",
    "05_finite_state_gap": "3b829d17d0cf68cd53c751d30f04ac440b548ce515e7c3373e376429019df1a2",
    "06_arena_tour": "3f78486019fcc0a905a2ee09b6448bf64cd2c750cb27caedf9502420a414078a",
    "07_continuous_synthesis": "9e2a7400a2958cc0e88241623f058771b8a0410d59d8dd71c40bd11aafb46939",
    "08_zeno_duel": "82e9e9c96cc21ae58c9994b19071107eedc16a7238e762520ec5689b46cd95ae",
}


def _run(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )


def test_demos_found():
    assert DEMOS
    assert sorted(PINNED) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == PINNED[demo.stem]


if __name__ == "__main__":
    for demo in DEMOS:
        proc = _run(demo)
        print(f'    "{demo.stem}": "{hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()}",')
