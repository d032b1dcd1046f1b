"""`lsn.integers_below` is the one place in `src/` that reads a bit
generator's 32-bit words (`next_uint32` through the generator's `.ctypes`),
so that a second copy of that read, with its own lock and state rules, cannot
come back unnoticed. Prose counts too: a comment or docstring that names
either belongs inside `integers_below`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORD_READS = ("next_uint32", ".ctypes")


def test_only_integers_below_reads_bit_generator_words():
    lsn = ROOT / "src" / "noisysimon" / "lsn.py"
    body = next(node for node in ast.parse(lsn.read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "integers_below")
    allowed = {(lsn, i) for i in range(body.lineno, body.end_lineno + 1)}
    found = {(path, i) for path in (ROOT / "src").rglob("*.py")
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if any(word in line for word in WORD_READS)}
    assert found, "integers_below no longer reads next_uint32"
    assert sorted((str(path.relative_to(ROOT)), i) for path, i in found - allowed) == []
