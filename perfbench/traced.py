"""Run the photonlink CLI in-process with a span around every call into a layer.

The layer entry points are the names ``photonlink.cli`` imports; each is
replaced in the CLI's namespace by a wrapper that records a span (name,
start, end, parent span, run id). ``cli.main`` is then called with the CLI
arguments. Spans stay in memory and are written as JSON lines when the run
ends, so writing them costs the traced run nothing. A name missing from the
CLI's namespace is recorded as absent and left unwrapped.

Usage: python3 perfbench/traced.py --spans FILE --run-id ID -- CLI-ARGS...
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from time import perf_counter

# Name in photonlink.cli's namespace -> span name ("<layer>.<operation>").
SPAN_OF: dict[str, str] = {
    "parse_scenario": "scenario.parse",
    "build_forward_network": "topology.build",
    "build_return_network": "topology.build",
    "enumerate_paths": "topology.enumerate",
    "validate_topology": "topology.validate",
    "adjacency_dump": "topology.adjacency",
    "return_groups": "topology.return_groups",
    "analyze_path": "linkbudget.analyze_path",
    "propagation_delay_s": "linkbudget.propagation_delay",
    "worst_case": "linkbudget.worst_case",
    "check_group_capacity": "digitalpath.capacity",
    "check_requirements": "tradeoff.compliance",
    "score_variant": "tradeoff.compliance",
    "recommend": "tradeoff.compliance",
    "enumerate_variants": "tradeoff.variants",
    "render_json": "report.render",
    "render_csv": "report.render",
    "render_text": "report.render",
    "emit_report": "cli.write",
}
IMPORT_SPAN = "cli.import"
MAIN_SPAN = "cli.main"


class Recorder:
    """Spans of one run, kept in memory: [name, start, end, parent, items]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.bundles: list[tuple] = []

    def span(self, name: str, fn, *, on_result=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               self._open[-1] if self._open else None, None])
            self._open.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[index][1:3] = start, end
            if isinstance(result, (list, tuple)):
                self.spans[index][4] = len(result)
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def keep_bundle(self, args, result) -> None:
        # (modulation, channel, metrics); reduced to scalars after the run so
        # the reduction lands in no span.
        path = args[0] if args else None
        self.bundles.append((args[1] if len(args) > 1 else None,
                             getattr(path, "channel", None), result))

    def distinct_bundles(self) -> int | None:
        """Distinct scalar metric bundles per (modulation, channel); None when
        analyze_path no longer returns a dataclass."""
        keys = set()
        for modulation, channel, metrics in self.bundles:
            if not dataclasses.is_dataclass(metrics):
                return None
            scalars = tuple(
                (f.name, value) for f in dataclasses.fields(metrics)
                if isinstance(value := getattr(metrics, f.name), (int, float))
                or value is None)
            keys.add((str(modulation), channel, scalars))
        return len(keys)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    recorder = Recorder()
    absent = []
    try:
        load = recorder.span(IMPORT_SPAN, __import__)
        load("photonlink.cli")
        cli = sys.modules["photonlink.cli"]
        for name, span_name in SPAN_OF.items():
            fn = getattr(cli, name, None)
            if fn is None:
                absent.append(name)
                continue
            hook = recorder.keep_bundle if name == "analyze_path" else None
            setattr(cli, name, recorder.span(span_name, fn, on_result=hook))
        code = recorder.span(MAIN_SPAN, cli.main)(cli_args)
    finally:
        with args.spans.open("w", encoding="utf-8") as out:
            for index, (name, start, end, parent, items) in enumerate(
                    recorder.spans):
                out.write(json.dumps({
                    "run": args.run_id, "id": index, "name": name, "start": start,
                    "end": end, "parent": parent, "items": items}) + "\n")
            out.write(json.dumps({"run": args.run_id, "absent": absent,
                                  "distinct_bundles": recorder.distinct_bundles()})
                      + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
