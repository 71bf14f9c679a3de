"""Bundled reference inputs.

All numeric values here are non-normative engineering defaults chosen to give
a self-consistent desk-scale example; swap in measured component data for real
design work.
"""

from importlib.resources import files
from pathlib import Path


def reference_scenario_path() -> Path:
    return Path(str(files(__package__) / "reference_scenario.json"))
