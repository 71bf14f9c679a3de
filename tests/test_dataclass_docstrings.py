"""Every record in the package, a ``@dataclass`` or a ``NamedTuple``, has its
own docstring. On Python 3.11 and earlier, ``dataclass`` builds a docstring
from ``inspect.signature`` for each class that has none, every time the
package is imported; a ``NamedTuple`` without one is documented only by
its field list."""

import ast
from pathlib import Path

import photonlink

PACKAGE = Path(photonlink.__file__).parent


def is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def is_named_tuple_base(node: ast.expr) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) == "NamedTuple"


def test_every_dataclass_has_a_docstring():
    records, missing = [], []
    for source in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and (
                    any(map(is_dataclass_decorator, node.decorator_list))
                    or any(map(is_named_tuple_base, node.bases))):
                records.append(node.name)
                if ast.get_docstring(node) is None:
                    missing.append(f"{source.name}:{node.lineno} {node.name}")
    assert {"LinkMetrics", "PathResult", "Node", "DesignVariant",
            "_ForwardAnalysis"} <= set(records)
    # The records that tests/test_records.py pins, none left out.
    assert len(records) == 43
    assert missing == []
