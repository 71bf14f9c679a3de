"""Every ``@dataclass`` record in the package has its own docstring. On
Python 3.11 and earlier, ``dataclass`` builds a docstring from
``inspect.signature`` for each class that has none, every time the package
is imported."""

import ast
from pathlib import Path

import photonlink

PACKAGE = Path(photonlink.__file__).parent


def is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def test_every_dataclass_has_a_docstring():
    records, missing = [], []
    for source in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    map(is_dataclass_decorator, node.decorator_list)):
                records.append(node.name)
                if ast.get_docstring(node) is None:
                    missing.append(f"{source.name}:{node.lineno} {node.name}")
    assert {"LinkMetrics", "PathResult"} <= set(records)
    assert missing == []
