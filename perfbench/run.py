"""Benchmark of the photonlink CLI: wall time, set-up, peak RSS and per-layer spans.

Run from the root of a photonlink checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For one workload (see workloads.py) and seed it writes the scenario, then runs
one fresh interpreter at a time, each from spawn to exit:

* ``--trace 0`` runs rounds until the next one would end after ``--seconds``
  seconds. A round is the real CLI (``python -m photonlink.cli``), then a
  calibration (calibrate.py), then set-up (an interpreter that imports
  photonlink.cli and parses the scenario); one calibration precedes the
  first round. It reports the end-to-end metrics, each a median over the
  rounds: ``wall_rel``, the CLI's wall time divided by the mean of the
  calibrations either side of it, in reps of calibrate.py's work, so that the
  host's drift cancels; set-up time; and peak RSS. The raw wall time and
  modules evaluated per second are printed too, but left out of the result.
* ``--trace 1`` alternates plain CLI runs with traced ones (traced.py) and
  reports the per-layer metrics derived from the spans, plus the tracing
  overhead.

Every invocation is checked (checks.py), and all reports of one workload and
seed must be byte-identical. The output is one line per metric,
``<workload> <metric> <value> <unit>``, with machine context and the report
digest, and last one JSON object with the keys correct, attempted, failed and
metrics. The full record goes to .perfbench_work/results/. Exit code: 0 when
every check passed, 1 when one failed, 2 when the current directory is not a
photonlink checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from checks import check_process
from traced import IMPORT_SPAN, MAIN_SPAN, SPAN_OF
from workloads import REFERENCE, WORKLOADS, Workload, write_scenario

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
BENCH_DIR = Path(__file__).resolve().parent

SETUP_CODE = ("import sys, photonlink.cli\n"
              "from photonlink.scenario import parse_scenario\n"
              "parse_scenario(sys.argv[1])\n")
# Reps of calibrate.py timed before and after each CLI invocation: about
# 0.4 s, short beside the host's slow spells of one to three seconds.
CALIBRATION_REPS = 4
# A run must end within 180 s; no child may outlive this point of it.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_rel": "rep", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed with the end-to-end metrics, but not in the result: raw wall time
# reads the host's drift as much as the program (see calibrate.py).
INFO_UNITS = {"wall_s": "s", "modules_per_s": "1/s", "calibration_rep_s": "s"}

# Per-layer metric -> (unit, span name, what is taken from the spans):
# "busy" is the time spent inside the span, "self" that time minus the
# wrapped calls made from inside it, "calls" the number of spans and "items"
# the summed length of the lists they returned.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "cli.import_s": ("s", IMPORT_SPAN, "busy"),
    "cli.self_s": ("s", MAIN_SPAN, "self"),
    "cli.write_s": ("s", "cli.write", "self"),
    "scenario.parse_s": ("s", "scenario.parse", "busy"),
    "topology.build_s": ("s", "topology.build", "busy"),
    "topology.build_calls": ("count", "topology.build", "calls"),
    "topology.enumerate_s": ("s", "topology.enumerate", "busy"),
    "topology.enumerate_calls": ("count", "topology.enumerate", "calls"),
    "topology.paths": ("count", "topology.enumerate", "items"),
    "topology.validate_s": ("s", "topology.validate", "busy"),
    "topology.adjacency_s": ("s", "topology.adjacency", "busy"),
    "topology.return_groups_s": ("s", "topology.return_groups", "busy"),
    "linkbudget.analyze_path_s": ("s", "linkbudget.analyze_path", "busy"),
    "linkbudget.analyze_path_calls": ("count", "linkbudget.analyze_path", "calls"),
    "linkbudget.worst_case_s": ("s", "linkbudget.worst_case", "busy"),
    "digitalpath.capacity_s": ("s", "digitalpath.capacity", "busy"),
    "digitalpath.groups": ("count", "digitalpath.capacity", "items"),
    "tradeoff.compliance_s": ("s", "tradeoff.compliance", "busy"),
    "report.render_s": ("s", "report.render", "busy"),
}
# Derived per-layer metrics; a ratio over a layer that never ran is 0.
DERIVED_UNITS = {"linkbudget.analyze_path_us": "us",
                 "linkbudget.distinct_ratio": "ratio",
                 "report.bytes": "B",
                 "report.render_mb_per_s": "MB/s",
                 "trace.overhead_s": "s"}
EXACT_UNITS = ("count", "B", "ratio")


@dataclasses.dataclass
class Child:
    wall_s: float
    rss_kb: int
    problems: list[str]


@dataclasses.dataclass
class Tally:
    """Invocations attempted and failed, with the problems of the failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    digests: set[str] = dataclasses.field(default_factory=set)

    def count(self, child: Child) -> None:
        self.attempted += 1
        self.fail(child.problems)

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], deadline: float) -> Child:
    """Run one child to its end: wall time from spawn to exit, peak RSS from
    wait4. The kernel counts the spawning process's own peak RSS into the
    child's, so this process never holds a report or other large data."""
    stderr_path = WORK / "stderr.txt"
    with stderr_path.open("w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        # Popen.kill polls first, so it never signals a child already reaped.
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except ChildProcessError:  # already reaped by the timer's kill
            usage = None
        finally:
            wall = time.perf_counter() - start
            timer.cancel()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read().decode("utf-8", errors="replace")
    problems = check_process(proc.returncode, stderr)
    if proc.returncode < 0:
        problems.append(f"killed by signal {-proc.returncode}")
    return Child(wall, usage.ru_maxrss if usage else 0, problems)


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.deadline = self.started + RUN_LIMIT_S
        self.tally = Tally()
        self.report_problems: list[str] = []
        self.scenario = write_scenario(
            workload, seed, ROOT,
            WORK / "scenarios" / f"{workload.name}-seed{seed}.json")
        self.report = WORK / f"report.{workload.fmt}"

    def cli_args(self) -> list[str]:
        return [*self.workload.cli_args, "--scenario", str(self.scenario),
                "--out", str(self.report)]

    def invoke(self, argv: list[str]) -> Child:
        """Run the CLI (plain or traced) and check the process and its report."""
        self.report.unlink(missing_ok=True)
        child = spawn(argv, self.deadline)
        if not child.problems:
            child.problems.extend(self._check_report())
        self.tally.count(child)
        return child

    def _check_report(self) -> list[str]:
        digest = hashlib.sha256()
        try:
            with self.report.open("rb") as report:
                while chunk := report.read(1 << 20):
                    digest.update(chunk)
        except OSError as exc:
            return [f"no report: {exc}"]
        first = not self.tally.digests
        self.tally.digests.add(digest.hexdigest())
        if len(self.tally.digests) > 1:
            return ["report differs from the previous invocation"]
        # Identical bytes check the same, so only the first report is parsed.
        # That happens in a child: a parent that had held the parsed report
        # would pass its peak RSS on to every child it spawns after it.
        if first:
            self.report_problems = self._run_checker()
        return list(self.report_problems)

    def _run_checker(self) -> list[str]:
        argv = [sys.executable, str(BENCH_DIR / "checks.py"),
                json.dumps(dataclasses.asdict(self.workload)), str(self.report)]
        try:
            done = subprocess.run(
                argv, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            return ["report check timed out"]
        if done.returncode != 0:
            return [f"report check crashed: {done.stderr.strip()[-500:]}"]
        return json.loads(done.stdout)

    def setup(self, repeats: int) -> list[float]:
        argv = [sys.executable, "-c", SETUP_CODE, str(self.scenario)]
        walls = []
        for _ in range(repeats):
            child = spawn(argv, self.deadline)
            self.tally.count(child)
            walls.append(child.wall_s)
        return walls

    def keep_going(self, last_s: float) -> bool:
        """Start another round only if it should end within --seconds."""
        now = time.perf_counter()
        return now + last_s <= self.started + self.seconds and now < self.deadline

    def calibrate(self) -> float:
        """Wall time of one rep of calibrate.py's fixed work, on the host as
        it runs now."""
        child = spawn([sys.executable, str(BENCH_DIR / "calibrate.py"),
                       str(CALIBRATION_REPS)], self.deadline)
        self.tally.fail(child.problems)
        return child.wall_s / CALIBRATION_REPS

    def end_to_end(self) -> tuple[dict[str, float], dict[str, float], dict]:
        self.setup(1)  # compiles bytecode and warms the file cache
        self.calibrate()
        # Each invocation is divided by the mean of the calibrations timed
        # just before and just after it, so that the host's drift cancels.
        # Set-up is sampled once a round, so that its median, too, spans
        # the whole run.
        walls, rel, rss, setup = [], [], [], []
        rep_s = [self.calibrate()]
        while True:
            round_start = time.perf_counter()
            child = self.invoke([sys.executable, "-m", "photonlink.cli",
                                 *self.cli_args()])
            rep_s.append(self.calibrate())
            walls.append(child.wall_s)
            rel.append(child.wall_s / statistics.fmean(rep_s[-2:]))
            rss.append(child.rss_kb)
            setup.extend(self.setup(1))
            if child.problems or not self.keep_going(
                    time.perf_counter() - round_start):
                break
        wall = statistics.median(walls)
        metrics = {
            "wall_rel": statistics.median(rel),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss) / 1024.0,
        }
        info = {"wall_s": wall,
                "modules_per_s": self.workload.modules_evaluated / wall,
                "calibration_rep_s": statistics.median(rep_s)}
        return metrics, info, {"wall_s": walls, "wall_rel": rel,
                               "calibration_rep_s": rep_s, "setup_s": setup,
                               "rss_kb": rss}

    def per_layer(self) -> tuple[dict[str, float], dict[str, float], dict]:
        self.setup(1)
        plain, traced, layers = [], [], []
        while True:
            round_start = time.perf_counter()
            child = self.invoke([sys.executable, "-m", "photonlink.cli",
                                 *self.cli_args()])
            plain.append(child.wall_s)
            spans = WORK / "spans.jsonl"
            spans.unlink(missing_ok=True)
            run_id = f"{self.workload.name}-seed{self.seed}-{len(traced)}"
            child = self.invoke([
                sys.executable, str(BENCH_DIR / "traced.py"), "--spans",
                str(spans), "--run-id", run_id, "--", *self.cli_args()])
            traced.append(child.wall_s)
            if not child.problems:
                layer, problems = layer_metrics(
                    spans, self.report.stat().st_size)
                layers.append(layer)
                self.tally.fail(problems)
            if (child.problems or self.tally.failed
                    or not self.keep_going(time.perf_counter() - round_start)):
                break
        if not layers:
            return {}, {}, {"plain_s": plain, "traced_s": traced}
        metrics = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            unit = _unit(name)
            if unit in EXACT_UNITS and len(set(values)) > 1:
                self.tally.fail([f"{name} differs between traced runs: {values}"])
            metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain))
        return metrics, {}, {"plain_s": plain, "traced_s": traced,
                             "layers": layers}


def _unit(name: str) -> str:
    if name in LAYER_METRICS:
        return LAYER_METRICS[name][0]
    return (DERIVED_UNITS.get(name) or END_TO_END_UNITS.get(name)
            or INFO_UNITS[name])


def layer_metrics(spans_file: Path, report_bytes: int
                  ) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced invocation, and any accounting problem.

    A metric whose every source name is gone from photonlink.cli is left out.
    """
    records = [json.loads(line) for line in
               spans_file.read_text(encoding="utf-8").splitlines()]
    spans = [r for r in records if "name" in r]
    meta = next(r for r in records if "absent" in r)
    present = {SPAN_OF[name] for name in SPAN_OF if name not in meta["absent"]}
    present |= {IMPORT_SPAN, MAIN_SPAN}

    duration = [s["end"] - s["start"] for s in spans]
    inner = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s["parent"] is not None:
            inner[s["parent"]] += d
    taken = {"busy": defaultdict(float), "self": defaultdict(float),
             "calls": defaultdict(int), "items": defaultdict(int)}
    for s, d, i in zip(spans, duration, inner):
        name = s["name"]
        parent = s["parent"]
        if parent is None or spans[parent]["name"] != name:
            taken["busy"][name] += d
        taken["self"][name] += d - i
        taken["calls"][name] += 1
        taken["items"][name] += s["items"] or 0

    metrics: dict[str, float] = {}
    for metric, (_, span, how) in LAYER_METRICS.items():
        if span in present:
            metrics[metric] = taken[how][span]
    calls = taken["calls"]["linkbudget.analyze_path"]
    if "linkbudget.analyze_path" in present:
        busy = taken["busy"]["linkbudget.analyze_path"]
        metrics["linkbudget.analyze_path_us"] = busy / calls * 1e6 if calls else 0.0
        if meta["distinct_bundles"] is not None:
            metrics["linkbudget.distinct_ratio"] = (
                meta["distinct_bundles"] / calls if calls else 0.0)
    metrics["report.bytes"] = report_bytes
    if "report.render" in present:
        render = taken["busy"]["report.render"]
        metrics["report.render_mb_per_s"] = (
            report_bytes / 1e6 / render if render else 0.0)

    # Self times of every span under cli.main must add up to its wall time.
    main = taken["busy"][MAIN_SPAN]
    total = sum(t for name, t in taken["self"].items() if name != IMPORT_SPAN)
    problems = []
    if abs(total - main) > 0.05 * main:
        problems.append(f"span self times add up to {total:.6f} s, "
                        f"traced main took {main:.6f} s")
    return metrics, problems


def machine() -> dict[str, object]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool
                 ) -> tuple[dict[str, float], Tally]:
    bench = Bench(workload, seed, seconds)
    metrics, info, samples = (bench.per_layer() if trace
                              else bench.end_to_end())
    tally = bench.tally
    for name, value in {**metrics, **info}.items():
        print(f"{workload.name} {name} {value:.9g} {_unit(name)}")
    if not trace:
        print(f"{workload.name} wall_s.samples {len(samples['wall_s'])} count")
        print(f"{workload.name} setup_s.samples {len(samples['setup_s'])} count")
    print(f"{workload.name} fail_ratio {tally.failed / tally.attempted:.9g} ratio "
          f"({tally.failed} of {tally.attempted})")
    for digest in sorted(tally.digests):
        print(f"{workload.name} report_sha256 {digest}")
    for problem in sorted(set(tally.problems)):
        print(f"{workload.name} FAILED {problem}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"workload": workload.name, "seed": seed, "seconds": seconds,
                    "trace": trace, "machine": machine(), "metrics": metrics,
                    "info": info,
                    "samples": samples, "attempted": tally.attempted,
                    "failed": tally.failed, "digests": sorted(tally.digests),
                    "problems": tally.problems}, indent=1) + "\n",
        encoding="utf-8")
    return metrics, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "photonlink" / "cli.py").is_file() \
            or not (ROOT / REFERENCE).is_file():
        print(f"error: {ROOT} is not the root of a photonlink checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    for key, value in machine().items():
        print(f"machine {key} {value}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict[str, object]] = {}
    attempted = failed = 0
    for name in names:
        values, tally = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": _unit(metric)}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
