"""Print the code lines of each src/nlevel/ file: not blank, not a comment, not a docstring.

Usage: python benchmarks/code_lines.py [SRC], SRC the src directory (default: this checkout's).
"""

import ast
import sys
from pathlib import Path

src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
total = 0
for path in sorted((src / "nlevel").glob("*.py")):
    text = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    count = sum(1 for i, line in enumerate(text.splitlines(), 1)
                if line.strip() and not line.lstrip().startswith("#") and i not in docs)
    total += count
    print(f"{count:5d}  {path.name}")
print(f"{total:5d}  total")
