"""Quick self-test of the benchmark harness at a tiny array (N=4).

For every workload it runs the real CLI once and expects fail_ratio 0, then
feeds the harness the same report with a non-finite token and with one path
missing, each written by a stand-in for the CLI, and expects each to be
counted as failed.

Usage, from the root of a photonlink checkout: python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

from run import WORK, Bench
from workloads import WORKLOADS, Workload

SEED = 1
N_DTRM = 4
# Stand-in for the CLI: copies a prepared report to the --out path.
COPY = "import shutil, sys; shutil.copyfile(sys.argv[1], sys.argv[2])"


def with_non_finite(fmt: str, text: str) -> str:
    if fmt == "json":
        return re.sub(r'("rf_gain_db": )[^,\n]+', r"\1NaN", text, count=1)
    lines = text.splitlines(keepends=True)
    if fmt == "csv":
        lines[1] = lines[1].rsplit(",", 1)[0] + ",nan\n"
        return "".join(lines)
    return text.replace("no violations", "no violations, margin inf dB", 1)


def with_path_missing(fmt: str, text: str) -> str:
    if fmt == "json":
        doc = json.loads(text)
        doc["variants"][0]["paths"].pop()
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = text.splitlines(keepends=True)
    if fmt == "csv":
        last = lines[-1].split(",")[1]
        return "".join(line for line in lines if line.split(",")[1] != last)
    drop = next(i for i, line in enumerate(lines) if "[dtrm] -> " in line)
    return "".join(lines[:drop] + lines[drop + 1:])


def fail_ratio(workload: Workload, stand_in: Path | None = None
               ) -> tuple[float, Path]:
    """fail_ratio of one invocation of the CLI, or of the stand-in that
    writes the report ``stand_in``; also the report's path."""
    bench = Bench(workload, SEED, seconds=0)
    if stand_in is None:
        argv = [sys.executable, "-m", "photonlink.cli", *bench.cli_args()]
    else:
        argv = [sys.executable, "-c", COPY, str(stand_in), str(bench.report)]
    bench.invoke(argv)
    return bench.tally.failed / bench.tally.attempted, bench.report


def main() -> int:
    WORK.mkdir(exist_ok=True)
    failures = 0
    for base in WORKLOADS.values():
        workload = dataclasses.replace(base, name=f"{base.name}-selftest",
                                       n_dtrm=N_DTRM)
        ratio, report = fail_ratio(workload)
        clean = report.read_text(encoding="utf-8")
        cases = [("clean run", ratio, 0.0)]
        for label, corrupt in (("non-finite token", with_non_finite),
                               ("path missing", with_path_missing)):
            bad = WORK / f"selftest-report.{workload.fmt}"
            bad.write_text(corrupt(workload.fmt, clean), encoding="utf-8")
            cases.append((label, fail_ratio(workload, bad)[0], 1.0))
        for label, ratio, expected in cases:
            ok = ratio == expected
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {base.name} N={N_DTRM} {label}: "
                  f"fail_ratio {ratio:g}, expected {expected:g}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
