"""The package itself: its version and its table of exports."""
import sys
from pathlib import Path

import pytest

import gridhedge as gh

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_is_the_projects():
    # the version is stated in pyproject.toml and in the package; a release
    # that raises one must raise the other
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["version"] == gh.__version__


def test_dir_lists_every_export():
    names = dir(gh)
    assert names == sorted(names)
    assert set(gh.__all__) <= set(names)
