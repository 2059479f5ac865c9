"""The byte contract: every benchmark output keeps the digest pinned in byte_contract.json.

Both ``perfbench`` configs at each pinned seed are run in-process through
``cli.main`` by ``tools/pin_byte_contract.py``, which also re-pins the file.
A change that moves an output raises the package version, re-pins it on
purpose and says which outputs moved and why; the file records the version,
so a version other than the pinned one fails here, naming both.  The digests
only hold on the numpy and BLAS build they were pinned on, so another build
fails here, naming both, rather than skipping.
"""
import importlib.util
import json
from pathlib import Path

import pytest

import gridhedge

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "pin_byte_contract", ROOT / "tools" / "pin_byte_contract.py")
pin = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin)

PINNED = json.loads(pin.CONTRACT.read_text())


def test_pinned_on_this_build():
    assert pin.build() == PINNED["build"], (
        f"digests were pinned on {PINNED['build']}, this is {pin.build()}; "
        "re-pin with tools/pin_byte_contract.py only if the outputs are right on this build"
    )


def test_pinned_under_this_version():
    assert gridhedge.__version__ == PINNED["tool_version"], (
        f"digests were pinned under gridhedge {PINNED['tool_version']}, this is "
        f"{gridhedge.__version__}; re-pin with tools/pin_byte_contract.py after a version step"
    )


@pytest.mark.parametrize("seed", pin.SEEDS)
def test_outputs_match_pinned_digests(seed, tmp_path):
    got = pin.digests(seed, tmp_path)
    want = {name: sha for name, sha in PINNED["digests"].items()
            if name.split(" ", 1)[0] == str(seed)}
    moved = sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))
    assert not moved, f"outputs whose bytes moved (build {pin.build()}): {moved}"
