"""The oldest Python the package supports is 3.10: every source file must
parse with its grammar, also where no 3.10 interpreter is at hand. This
checks syntax only, not the library APIs a file calls."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 30


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_with_the_python_3_10_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
