"""Every module of the package parses at the Python floor pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

import panelbayes

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(Path(panelbayes.__file__).parent.glob("*.py"))


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_floor())


def test_the_check_rejects_newer_syntax():
    # `except*` is Python 3.11 syntax
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
