import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fdomlab"


def test_no_assert_statements_in_the_package():
    # asserts vanish under `python -O`; correctness checks must raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
