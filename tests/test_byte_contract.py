"""The byte contract: every benchmark output keeps the digest pinned in byte_contract.json.

Both ``perfbench`` configs at each pinned seed are run in-process through
``cli.main`` by ``tools/pin_byte_contract.py``, which also re-pins the file.
A change that moves an output re-pins it on purpose and says which outputs
moved and why; the digests only hold on the numpy and BLAS build they were
pinned on, so another build fails here, naming both, rather than skipping.
"""
import importlib.util
import json
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("seed", pin.SEEDS)
def test_outputs_match_pinned_digests(seed, tmp_path):
    got = pin.digests(seed, tmp_path)
    want = {name: sha for name, sha in PINNED["digests"].items()
            if name.split(" ", 1)[0] == str(seed)}
    moved = sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))
    assert not moved, f"outputs whose bytes moved (build {pin.build()}): {moved}"
