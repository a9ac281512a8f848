"""Package metadata."""

import re
from pathlib import Path

import hypercones


def test_version_matches_pyproject():
    # Python 3.10 has no tomllib, so the version line is read by pattern
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(
        encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert hypercones.__version__ == match.group(1)
