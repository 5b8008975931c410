"""The README's Python API example runs as written and imports nothing it does not use."""

import ast
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    tree = ast.parse(code)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(tree, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "0.875 exceeds_half"
