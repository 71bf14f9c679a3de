"""The benchmark's traced runner wraps layer functions by their names in
``photonlink.cli``; a renamed function must fail here, not just drop a metric."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import photonlink.cli as cli
from photonlink.data import reference_scenario_path

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


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


def test_traced_reference_tradeoff_records_every_layer(tmp_path):
    """The traced runner, run as the benchmark runs it, on the reference
    ``tradeoff``: every name resolves, enumeration hands out one item per
    path of the four forward networks and the return network, and
    ``analyze_path`` runs once per forward class."""
    spans = tmp_path / "spans.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(TRACED), "--spans", str(spans), "--run-id", "t",
         "--", "tradeoff", "--scenario", str(reference_scenario_path()),
         "--format", "json", "--out", str(tmp_path / "report.json")],
        env=env, cwd=tmp_path, check=True, timeout=120)
    *records, summary = [json.loads(line) for line in
                         spans.read_text(encoding="utf-8").splitlines()]
    assert summary["absent"] == []
    assert summary["distinct_bundles"] == 32
    calls = Counter(r["name"] for r in records)
    assert calls["topology.enumerate"] == 5
    assert sum(r["items"] for r in records
               if r["name"] == "topology.enumerate") == 4 * 8 * 16 + 16
    assert calls["linkbudget.analyze_path"] == 32
