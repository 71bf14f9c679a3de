"""The benchmark's traced runner wraps layer functions by their names in
``photonlink.cli``; a renamed function must fail here, not just drop a metric."""

import ast
from pathlib import Path

import photonlink.cli as cli

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def span_of() -> dict[str, str]:
    """``SPAN_OF`` read from the source text; the runner is not imported."""
    for stmt in ast.parse(TRACED.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) == "SPAN_OF":
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"no SPAN_OF in {TRACED}")


def test_every_traced_name_is_a_cli_callable():
    names = span_of()
    assert names
    missing = [name for name in names if not callable(getattr(cli, name, None))]
    assert missing == []
