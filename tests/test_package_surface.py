"""The package keeps only what it runs: every module-level function of
`isogeny_lab` is named somewhere in `src/` besides its own `def` line.  A
function that only the tests call belongs in `tests/oracles.py`."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "isogeny_lab"


def test_every_module_level_function_is_named_elsewhere_in_src():
    sources = {path.name: path.read_text().splitlines() for path in sorted(SRC.glob("*.py"))}
    unused = []
    for name, lines in sources.items():
        for node in ast.parse("\n".join(lines)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line) for other, other_lines in sources.items()
                       for i, line in enumerate(other_lines, 1)
                       if (other, i) != (name, node.lineno)):
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert unused == []
