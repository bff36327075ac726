"""The package metadata agrees with the code."""

import re
from pathlib import Path

import shearwave

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    # run.json records shearwave.__version__, so the two strings must not drift;
    # read with a regex, as Python 3.10 has no tomllib
    text = PYPROJECT.read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, flags=re.M | re.S).group(1)
    version = re.search(r'^version\s*=\s*"([^"]+)"', project, flags=re.M).group(1)
    assert shearwave.__version__ == version
