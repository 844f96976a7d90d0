"""The test oracles must not import the package they check (ROADMAP aim 3).

``tests/oracles.py``, ``tests/reference.py`` and ``tests/corpusgen.py`` compute
expected values from first principles; an oracle that routed through
``aavescan`` would agree with the implementation by construction.
"""

import ast
import os

import pytest

HERE = os.path.dirname(__file__)


@pytest.mark.parametrize("name", ["oracles.py", "reference.py", "corpusgen.py"])
def test_oracle_imports_no_package_code(name):
    with open(os.path.join(HERE, name), "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=name)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.append(node.module)
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "import_module"
              and node.args and isinstance(node.args[0], ast.Constant)):
            imported.append(str(node.args[0].value))
    assert not [m for m in imported if m.split(".")[0] == "aavescan"], imported
