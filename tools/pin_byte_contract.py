"""Pin tests/byte_contract.json: a SHA-256 of every benchmark output.

Usage, from the root of a checkout::

    python3 tools/pin_byte_contract.py

For each seed in ``SEEDS`` the script writes the ``perfbench`` inputs of
that seed (both scenario configs and the wind CSV, from
``perfbench/workloads.py``) and runs, in this process through
``gridhedge.cli.main``, every command of the ``cli_calls`` cycle (six
``allocate`` calls and ``estimate``) and the ``simulate`` of both configs.
It digests each command's stdout and each ``simulate``'s ``results.csv``
and ``manifest.txt``.  The manifest loses its ``created_utc`` line, and the
working directory is replaced by ``<work>`` in stdout and manifest, so the
digests do not depend on when or where they were taken.

The file also records the numpy version and the BLAS build the digests were
taken with: the lattice's BLAS products may round a last printed digit
differently on another build.  ``tests/test_byte_contract.py`` regenerates
the digests and fails on any difference.  Re-pin only when a change is meant
to move these bytes, and say in CHANGES.md which outputs moved and why.
"""
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = ROOT / "tests" / "byte_contract.json"
SEEDS = (42, 7)


def _workloads():
    """perfbench/workloads.py, loaded once under its own module name."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


def build() -> dict:
    """The numpy version and the BLAS library (name and version) it was built with."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        library = "unknown"
    return {"numpy": np.__version__, "blas": library}


def _run(argv, workdir: Path) -> str:
    """stdout of gridhedge.cli.main(argv), with workdir written as <work>."""
    from gridhedge import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gridhedge {' '.join(argv)} exited {code}")
    return out.getvalue().replace(str(workdir), "<work>")


def _sha(text) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def digests(seed: int, workdir: Path) -> dict:
    """Output name -> SHA-256 for every pinned output of one seed, run under workdir."""
    workloads = _workloads()
    inputs = workloads.write_inputs(workdir, seed)
    found = {}
    for command in workloads.cycle("cli_calls", inputs, workdir):
        name = command.reference or command.kind
        found[f"{seed} {name}"] = _sha(_run(list(command.args), workdir))
    for workload in ("case_study", "deep_lattice"):
        out_dir = workdir / workload
        (command,) = workloads.cycle(workload, inputs, out_dir)
        name = f"{seed} {command.scenario.name} simulate"
        found[f"{name} stdout"] = _sha(_run(list(command.args), workdir))
        found[f"{name} results.csv"] = _sha((out_dir / "results.csv").read_bytes())
        manifest = (out_dir / "manifest.txt").read_text().splitlines(keepends=True)
        kept = "".join(line for line in manifest if not line.startswith("created_utc = "))
        found[f"{name} manifest.txt"] = _sha(kept.replace(str(workdir), "<work>"))
    return found


def main() -> int:
    pinned = {"build": build(), "digests": {}}
    with tempfile.TemporaryDirectory(prefix="byte_contract_") as tmp:
        for seed in SEEDS:
            pinned["digests"].update(digests(seed, Path(tmp) / str(seed)))
    CONTRACT.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CONTRACT} ({len(pinned['digests'])} digests)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
