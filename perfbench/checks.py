"""Correctness checks applied to every CLI invocation the benchmark makes.

Expected counts come from the workload generator, never from the program:
forward paths per variant = channels x N, return paths = N. Verdicts, exit
codes 0/1 and digests are deliberately not pinned, because model fixes are
expected to change them.

Usage: python3 perfbench/checks.py WORKLOAD-JSON REPORT
prints the problems found in REPORT as a JSON list.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from pathlib import Path

from workloads import Workload

# A non-finite number as Python's repr, the text report or JSON spell it.
_NON_FINITE = re.compile(r"(?<![\w.])-?(?:nan|NaN|inf|Infinity)(?![\w.])")
_DROP_ROW = re.compile(r"-> orxc\w* \(.*channels: ([^)]*)\)$")
_RETURN_ROW = re.compile(r"\S+ \[dtrm\] -> ")


class _NonFiniteToken(ValueError):
    pass


def _reject_constant(token: str):
    raise _NonFiniteToken(token)


def check_process(returncode: int, stderr: str) -> list[str]:
    problems = []
    if returncode not in (0, 1):
        problems.append(f"exit code {returncode}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    return problems


def check_report(workload: Workload, data: bytes) -> list[str]:
    """Every problem found in one report of ``workload``; empty when clean."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return ["report is not UTF-8"]
    check = {"json": _check_json, "csv": _check_csv, "text": _check_text}
    try:
        return check[workload.fmt](workload, text)
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
        return [f"report does not parse as {workload.fmt}: {exc!r}"]


def _count(problems: list[str], what: str, got: int, want: int) -> None:
    if got != want:
        problems.append(f"{what}: {got}, expected {want}")


def _check_json(workload: Workload, text: str) -> list[str]:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except _NonFiniteToken as exc:
        return [f"non-finite token {exc} in report"]
    problems: list[str] = []
    variants = doc["variants"]
    _count(problems, "variants", len(variants), workload.variants)
    for variant in variants:
        paths = variant["paths"]
        distinct = {(p["channel"], p["destination"]) for p in paths}
        _count(problems, f"forward paths of {variant['variant']}",
               len(paths), workload.forward_paths)
        _count(problems, f"distinct forward paths of {variant['variant']}",
               len(distinct), workload.forward_paths)
    returns = [t["paths"] for t in doc["topology"] if t["direction"] == "return"]
    _count(problems, "return paths", sum(returns), workload.return_paths)
    return problems


def _check_csv(workload: Workload, text: str) -> list[str]:
    # The CSV carries forward paths only; return paths cannot be checked here.
    rows = csv.DictReader(io.StringIO(text))
    paths: dict[str, set[str]] = {}
    problems: list[str] = []
    non_finite = None
    for row in rows:
        paths.setdefault(row["variant"], set()).add(row["path_id"])
        value = row["value"]
        if value and not math.isfinite(float(value)):
            non_finite = value
    if non_finite is not None:
        problems.append(f"non-finite value {non_finite} in report")
    _count(problems, "variants", len(paths), workload.variants)
    for label, ids in paths.items():
        _count(problems, f"forward paths of {label}", len(ids),
               workload.forward_paths)
    return problems


def _check_text(workload: Workload, text: str) -> list[str]:
    # The validate report lists no paths, so they are counted from the
    # adjacency: channels carried into each receiver chip are the forward
    # paths, and each module's edge towards its return transmitter is one
    # return path.
    problems: list[str] = []
    match = _NON_FINITE.search(text)
    if match:
        problems.append(f"non-finite token {match.group()} in report")
    lines = text.splitlines()
    start = lines.index("== Topology ==") + 3
    table = {}
    for line in lines[start:]:
        if not line.strip():
            break
        cells = line.split()
        table[cells[0]] = cells
    _count(problems, "forward modules", int(table["forward"][4]), workload.n_dtrm)
    _count(problems, "forward channels", int(table["forward"][3]),
           workload.channels)
    _count(problems, "return modules", int(table["return"][4]), workload.n_dtrm)
    _count(problems, "return groups", int(table["return"][6]), workload.groups)
    adjacency = lines[lines.index("== Adjacency ==") + 1:]
    forward = sum(len(m.group(1).split(","))
                  for m in map(_DROP_ROW.search, adjacency) if m)
    returns = sum(1 for line in adjacency if _RETURN_ROW.match(line.strip()))
    _count(problems, "forward paths", forward, workload.forward_paths)
    _count(problems, "return paths", returns, workload.return_paths)
    return problems


def main(argv: list[str]) -> int:
    fields = json.loads(argv[0])
    workload = Workload(**{**fields, "cli_args": tuple(fields["cli_args"])})
    print(json.dumps(check_report(workload, Path(argv[1]).read_bytes())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
