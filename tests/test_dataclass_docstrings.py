"""Every record in the package, a ``NamedTuple`` or a frozen class on
``Frozen``, has its own docstring: a ``NamedTuple`` without one is documented
only by its field list. A record is a class whose base is ``NamedTuple``,
``Frozen`` or another record."""

import ast
from pathlib import Path

import photonlink

PACKAGE = Path(photonlink.__file__).parent


def base_name(node: ast.expr) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def test_every_dataclass_has_a_docstring():
    classes = []
    for source in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        classes += [(source.name, node) for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)]
    records, bases = {}, {"NamedTuple", "Frozen"}
    while True:
        found = {node.name: (name, node) for name, node in classes
                 if bases & set(map(base_name, node.bases))}
        if found.keys() == records.keys():
            break
        records = found
        bases |= set(found)
    assert {"LinkMetrics", "PathResult", "VariantResult", "Node",
            "DesignVariant", "_ForwardAnalysis"} <= set(records)
    # The records that tests/test_records.py pins, none left out.
    assert len(records) == 43
    assert [f"{name}:{node.lineno} {node.name}"
            for name, node in records.values()
            if ast.get_docstring(node) is None] == []
