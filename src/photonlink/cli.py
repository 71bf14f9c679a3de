"""Command-line front end: scenario ingestion, analysis orchestration and
report emission.

Commands:
  validate  build the network(s) and report structural violations
  analyze   compute per-path metrics and requirement compliance
  tradeoff  enumerate the design space and emit a ranked recommendation

Exit codes: 0 all checks pass, 1 compliance failure, 2 input error.
"""

from __future__ import annotations

import argparse
import os
import shutil
import stat
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

# The package's modules, lowest layer first. Without .pyc files each is
# compiled as it is imported, and compiling ``topology``, the largest, before
# the modules above it are held keeps down the peak memory of a run.
from . import __version__, _lazy
from .errors import PhotonlinkError
from .frozen import NamedTuple
from .components import DetectorKind, Modulation
from .topology import (
    OpticalTopology,
    PathClass,
    PathMember,
    adjacency_dump,
    build_forward_network,
    build_return_network,
    enumerate_paths,
    return_groups,
    validate_topology,
)
from .scenario import (
    AnalysisConfig,
    DesignVariant,
    Scenario,
    load_scenario_document,
    parse_scenario,
)
from .report import (
    ClassResult,
    PathResult,
    Report,
    TopologySummary,
    VariantResult,
    render_csv,
    render_json,
    render_text,
)

if TYPE_CHECKING:
    from .linkbudget import LinkMetrics

# The analysis functions that ``analyze`` and ``tradeoff`` call, by the
# module that defines them. Each is bound in this module on first read
# (``__getattr__``), and ``run`` binds those still missing before it
# analyzes, so ``validate`` loads no analysis module. A name set here
# before, such as a wrapper, is kept.
_ANALYSIS = {
    "analyze_path": "linkbudget",
    "own_flags": "linkbudget",
    "propagation_delay_s": "linkbudget",
    "worst_case": "linkbudget",
    "check_group_capacity": "digitalpath",
    "check_requirements": "tradeoff",
    "enumerate_variants": "tradeoff",
    "recommend": "tradeoff",
    "score_variant": "tradeoff",
}
__getattr__ = _lazy(globals(), _ANALYSIS)

EXIT_OK = 0
EXIT_COMPLIANCE = 1
EXIT_INPUT = 2

# Bytes buffered for the report file before each write to the system: the
# writers hand over a path or a batch of lines at a time.
_REPORT_BUFFER = 1 << 18


def _forward_topology(scenario: Scenario, variant: DesignVariant) -> OpticalTopology:
    return build_forward_network(
        scenario.n_dtrm,
        scenario.channels,
        scenario.library,
        scenario.forward_bindings(variant),
        shared_fiber=scenario.shared_fiber,
        min_channel_spacing_nm=scenario.min_channel_spacing_nm,
    )


def _return_topology(scenario: Scenario) -> OpticalTopology | None:
    if scenario.return_bindings is None:
        return None
    return build_return_network(
        scenario.n_dtrm,
        scenario.library,
        scenario.return_bindings,
        min_channel_spacing_nm=scenario.min_channel_spacing_nm,
    )


def _summary(topology: OpticalTopology, path_count: int) -> TopologySummary:
    return TopologySummary(
        direction=topology.direction,
        node_count=len(topology.nodes),
        edge_count=len(topology.edges),
        channel_count=len(topology.wavelength_plan),
        n_dtrm=topology.n_dtrm,
        path_count=path_count,
        group_count=len(return_groups(topology)),
    )


def _analyze_classes(members: list[PathMember], modulation: Modulation,
                     config: AnalysisConfig
                     ) -> tuple[list[ClassResult], list[PathResult]]:
    """One result per class, in order of first member, and one per path.
    ``analyze_path`` runs once per class, on its own path, with skew taken
    against the first path. A class's prefix flags are found once, and a
    member's last-hop flags only when the class has flags there, since
    every member breaches at the same elements."""
    reference_delay = propagation_delay_s(members[0].cls.path) if members else 0.0
    # Class -> its result and the flags of its prefix.
    classes: dict[PathClass, tuple[ClassResult, tuple[str, ...]]] = {}
    out = []
    for member in members:
        cls = member.cls
        found = classes.get(cls)
        if found is None:
            metrics = analyze_path(cls.path, modulation, config,
                                   reference_delay_s=reference_delay)
            found = classes[cls] = (ClassResult(cls, metrics), own_flags(
                metrics, cls.path, stop=len(cls.prefix)))
        result, flags = found
        if len(result.metrics.flags) > len(flags):
            flags += own_flags(result.metrics, member.path, start=len(cls.prefix))
        out.append(PathResult(member, result, flags))
    return [result for result, _ in classes.values()], out


def _worst_case(classes: list[ClassResult],
                results: list[PathResult]) -> LinkMetrics:
    """``worst_case`` of every result's ``metrics``, where ``classes`` are
    the results' classes in order of first member: the scalars are equal
    within a class and the flags are each path's own. The ledger is the
    anchor class's, which names the elements of its first member's path."""
    flags = tuple(dict.fromkeys(f for r in results for f in r.flags))
    return worst_case([c.metrics for c in classes])._replace(flags=flags)


class _ForwardAnalysis(NamedTuple):
    """What one forward network gives every variant that builds it."""

    paths: tuple[PathResult, ...]
    worst: LinkMetrics
    wavelengths: tuple[float, ...]
    summary: TopologySummary


def _network_key(scenario: Scenario, variant: DesignVariant) -> tuple:
    """All that ``_analyze_forward`` reads of ``variant``: variants with
    equal keys (si and hip of one modulation and grating, or gratings bound
    to the same parts) get the same forward analysis."""
    return scenario.forward_bindings(variant), variant.modulation


def _analyze_forward(scenario: Scenario,
                     variant: DesignVariant) -> _ForwardAnalysis:
    topology = _forward_topology(scenario, variant)
    members = enumerate_paths(topology)
    classes, results = _analyze_classes(members, variant.modulation,
                                        scenario.analysis)
    # Requirement checks apply to the RF (analog) distribution paths; the
    # forward clock channels are reported but not held to the RF bounds.
    analog = {ch for ch, kind in topology.channel_kinds.items()
              if kind is DetectorKind.ANALOG}
    return _ForwardAnalysis(
        paths=tuple(results),
        worst=_worst_case(
            [c for c in classes if c.cls.path.channel in analog] or classes,
            [r for r in results if r.member.cls.path.channel in analog] or results),
        wavelengths=tuple(sorted(topology.wavelength_plan.values())),
        summary=_summary(topology, len(members)),
    )


def _variant_result(scenario: Scenario, variant: DesignVariant,
                    forward: _ForwardAnalysis, digital_groups) -> VariantResult:
    compliance = check_requirements(
        forward.worst,
        scenario.requirements,
        wavelengths_nm=forward.wavelengths,
        digital_groups=digital_groups,
        analysis_bandwidth_hz=scenario.analysis.bandwidth_hz,
    )
    return VariantResult(
        variant=variant,
        score=score_variant(variant),
        compliance=compliance,
        paths=forward.paths,
        worst=forward.worst,
    )


def run(command: str, scenario: Scenario) -> Report:
    """Execute one CLI command against a parsed scenario and build its report."""
    return_topology = _return_topology(scenario)

    if command == "validate":
        variant = scenario.variants[0]
        forward = _forward_topology(scenario, variant)
        messages = list(validate_topology(forward).messages())
        summaries = [_summary(forward, 0)]
        adjacency = list(adjacency_dump(forward))
        if return_topology is not None:
            messages.extend(validate_topology(return_topology).messages())
            summaries.append(_summary(return_topology, 0))
            adjacency.extend(adjacency_dump(return_topology))
        return Report(
            command=command,
            tool_version=__version__,
            scenario_name=scenario.name,
            scenario_fingerprint=scenario.fingerprint,
            topology_summaries=tuple(summaries),
            adjacency=tuple(adjacency),
            validation_messages=tuple(messages),
            notes=(f"validated with variant {variant.label}",),
        )

    for name in _ANALYSIS:
        __getattr__(name)
    if command == "analyze":
        variants = scenario.variants
    elif command == "tradeoff":
        variants = tuple(v for v, feasible in enumerate_variants() if feasible)
    else:
        raise PhotonlinkError(f"unknown command {command!r}")

    digital_groups = ()
    if return_topology is not None and scenario.digital_link is not None:
        digital_groups = check_group_capacity(
            return_topology, scenario.digital_link, scenario.adc_stream,
            bar_bytes_per_8ch=scenario.requirements.throughput_bar_bytes_per_s)

    # Each distinct forward network is built, enumerated and analyzed once;
    # its variants share the path results and differ only in compliance.
    networks: dict[tuple, _ForwardAnalysis] = {}
    results: list[VariantResult] = []
    for variant in variants:
        key = _network_key(scenario, variant)
        forward = networks.get(key)
        if forward is None:
            forward = networks[key] = _analyze_forward(scenario, variant)
        results.append(_variant_result(scenario, variant, forward,
                                       digital_groups))
    summaries = [network.summary for network in networks.values()][:1]
    if return_topology is not None:
        return_paths = enumerate_paths(return_topology)
        summaries.append(_summary(return_topology, len(return_paths)))

    recommendation = None
    notes: list[str] = []
    if command == "tradeoff":
        recommendation = recommend(results)
        infeasible = [v.label for v, ok in enumerate_variants() if not ok]
        notes.append("infeasible variants: " + ", ".join(infeasible))

    return Report(
        command=command,
        tool_version=__version__,
        scenario_name=scenario.name,
        scenario_fingerprint=scenario.fingerprint,
        topology_summaries=tuple(summaries),
        variants=tuple(results),
        digital_groups=digital_groups,
        recommendation=recommendation,
        notes=tuple(notes),
    )


def exit_code(report: Report) -> int:
    if report.has_input_errors:
        return EXIT_INPUT
    if report.has_compliance_failures:
        return EXIT_COMPLIANCE
    return EXIT_OK


def _file_beside(target: Path,
                 st: os.stat_result | None) -> tuple[Path, int] | None:
    """A new file beside ``target``, and a descriptor open for writing it,
    for ``os.replace`` to move onto ``target``. ``st`` is the status of the
    file ``target`` names, or None when there is none yet.

    The new file gets the old file's mode, or what open() gives a new file.
    None where moving it there would not look, to a reader of ``target``,
    like writing ``target``: the file has other links, another owner or
    group, or cannot be written; or where the directory refuses the file."""
    if st is not None and (st.st_nlink != 1 or not os.access(target, os.W_OK)):
        return None
    temporary = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return None
    if st is None:
        return temporary, fd
    try:
        new = os.fstat(fd)
        if (new.st_uid, new.st_gid) == (st.st_uid, st.st_gid):
            os.chmod(temporary, stat.S_IMODE(st.st_mode))
            return temporary, fd
    except OSError:
        pass
    os.close(fd)
    temporary.unlink()
    return None


def emit_report(report: Report, fmt: str, out: str | None) -> None:
    """Write the report in the requested format to the file ``out``, or to
    stdout when ``out`` is None or "-", whole or not at all.

    The writer streams the report into a temporary file. Where ``out`` is a
    regular file, or a name not yet taken, that file is made beside it (see
    ``_file_beside``) and ``os.replace`` moves it onto ``out``. Otherwise,
    for stdout, a device, a pipe or a file that cannot be replaced that
    way, it is an anonymous file in the temporary directory, whose text is
    then copied to the output. Neither happens unless the writer
    returns, so a refused report leaves ``out`` as it was and puts nothing
    on stdout, and the temporary file is removed either way. The report's
    line ends are written as the writer makes them, on every platform. Text
    is coloured when stdout is a terminal and ``out`` is stdout, unless
    PHOTONLINK_NO_COLOR is set."""
    to_stdout = out is None or out == "-"
    beside = None
    if not to_stdout:
        try:
            st = os.stat(out)
        except FileNotFoundError:
            st = None
        if st is None or stat.S_ISREG(st.st_mode):
            target = Path(os.path.realpath(out))
            beside = _file_beside(target, st)
    if beside is None:
        temporary = None
        sink = tempfile.TemporaryFile("w+", encoding="utf-8", newline="",
                                      buffering=_REPORT_BUFFER)
    else:
        temporary, fd = beside
        sink = open(fd, "w", encoding="utf-8", newline="",
                    buffering=_REPORT_BUFFER)
    try:
        with sink:
            # Looked up at call time, so that a wrapper put on a writer's
            # name in this module wraps all of the formatting and writing.
            if fmt == "json":
                render_json(report, sink)
            elif fmt == "csv":
                render_csv(report, sink)
            else:
                render_text(report, sink, color=(
                    to_stdout and sys.stdout.isatty()
                    and not os.environ.get("PHOTONLINK_NO_COLOR")))
            if temporary is None:
                sink.seek(0)
                with (nullcontext(sys.stdout) if to_stdout else
                      open(out, "w", encoding="utf-8", newline="")) as stream:
                    shutil.copyfileobj(sink, stream)
        if temporary is not None:
            os.replace(temporary, target)
    except BaseException:
        if temporary is not None:
            temporary.unlink(missing_ok=True)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonlink",
        description="Link budgets, capacity checks and design tradeoffs for a "
                    "WDM photonic distribution network.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "build the network and report structural violations"),
        ("analyze", "compute per-path metrics and requirement compliance"),
        ("tradeoff", "enumerate design variants and emit a recommendation"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--scenario", required=True, metavar="FILE",
                         help="scenario JSON file")
        cmd.add_argument("--variant", default=None,
                         metavar="<dm|em>x<vbg|awg>x<si|hip>|all",
                         help="override the scenario's variant selection")
        cmd.add_argument("--format", default="text",
                         choices=("text", "json", "csv"), help="output format")
        cmd.add_argument("--out", default=None, metavar="PATH",
                         help="output file (default: stdout)")
        cmd.add_argument("--bandwidth", default=None, type=float, metavar="HZ",
                         help="override the analysis bandwidth")
    return parser


def _load_scenario(args: argparse.Namespace) -> Scenario:
    raw = load_scenario_document(args.scenario)
    # CLI overrides are applied to the raw document before parsing so the
    # fingerprint always hashes the effective inputs. A non-object analysis
    # is left as it is for parse_scenario to report with every other problem.
    if args.variant is not None:
        raw["variant"] = args.variant
    if args.bandwidth is not None:
        analysis = raw.setdefault("analysis", {})
        if isinstance(analysis, dict):
            analysis["bandwidth_hz"] = args.bandwidth
    return parse_scenario(raw)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = _load_scenario(args)
        report = run(args.command, scenario)
        emit_report(report, args.format, args.out)
    except (PhotonlinkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
