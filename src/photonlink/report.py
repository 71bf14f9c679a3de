"""Report assembly and emission.

A Report is a plain data bundle; the three writers (aligned text, versioned
JSON, per-metric CSV) write it to a text stream as they format it, a path or
a bounded batch at a time, so the report never exists as one string. Each is
a pure function of the report, so the same scenario always produces
byte-identical files. The JSON report is, byte for byte, what the standard
library's ``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``
writes of its value, but the library does not write it: with an indent, its
encoder runs in pure Python before 3.13, a generator per container. One
recursive ``_dump`` writes the frame and each path. It also builds each
analysis class's path object once, as a template: the sentinel ``_GAP``
stands where a member's own strings go, and a path is one write of the
template with its strings in the gaps. The library stays the oracle of the
tests.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from functools import cached_property
from itertools import islice
from json.encoder import encode_basestring_ascii as _ESCAPE
from operator import attrgetter
from typing import TYPE_CHECKING, TextIO

from . import _lazy
from .frozen import Frozen, NamedTuple
from .scenario import DesignVariant, VariantOutcome, is_feasible
from .topology import Direction, PathClass, PathMember, SignalPath

if TYPE_CHECKING:
    from .digitalpath import GroupCapacity
    from .linkbudget import LinkMetrics
    from .tradeoff import ComplianceReport, OrdinalScore, Recommendation

# A report holds the analysis modules' results but calls only ``relabeled``
# of their code, so loading it loads none of them: the name is bound on
# first read, from the module that defines it.
__getattr__ = _lazy(globals(), {"relabeled": "linkbudget"})

REPORT_SCHEMA_VERSION = 2

# Scalar metric columns serialized per path; key name carries the unit.
METRIC_COLUMNS: tuple[tuple[str, str], ...] = (
    ("rf_gain_db", "dB"),
    ("noise_figure_db", "dB"),
    ("sfdr_db", "dB"),
    ("nf_degradation_db", "dB"),
    ("phase_noise_degradation_db", "dB"),
    ("crosstalk_db", "dB"),
    ("effective_bandwidth_hz", "Hz"),
    ("rise_time_s", "s"),
    ("pulse_skew_s", "s"),
    ("timing_jitter_rms_s", "s"),
    ("detector_power_dbm", "dBm"),
    ("detector_saturation_margin_db", "dB"),
)

# Lines of text that the text writer joins into one write.
_TEXT_BATCH = 256

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_RESET = "\x1b[0m"


class TopologySummary(NamedTuple):
    """Node, edge, channel and path counts of one network."""

    direction: Direction
    node_count: int
    edge_count: int
    channel_count: int
    n_dtrm: int
    path_count: int
    group_count: int = 0


class ClassResult(Frozen):
    """The metrics of one analysis class, from ``analyze_path`` on its own
    path, and their JSON, CSV and text forms, made on first read."""

    _fields = ("cls", "metrics")

    def __init__(self, cls: PathClass, metrics: LinkMetrics):
        self.__dict__.update(cls=cls, metrics=metrics)

    @cached_property
    def json_template(self) -> list[str]:
        """A member's JSON object, indented as a path of a variant, in
        pieces: literal text at the even indices and, at the odd ones, an
        empty gap for each string of its own that a member fills in, in the
        order they are written: its destination, flags (as many as
        ``metrics`` has), last hop's element ids, detector and path id. The
        class's own strings, its channel and prefix element ids, are in the
        text."""
        path, prefix = self.cls.path, self.cls.prefix
        element_ids = [element.element_id for element in prefix]
        element_ids += [_GAP] * (len(path.elements) - len(prefix))
        obj = {"channel": path.channel, "destination": _GAP,
               "wavelength_nm": path.wavelength_nm, "path_id": _GAP,
               "metrics": _metrics_dict(self.metrics, element_ids,
                                        [_GAP] * len(self.metrics.flags))}
        written: list = []
        _dump(obj, _PATH_NEWLINE, written.append)
        gaps = [i for i, text in enumerate(written) if text is _GAP]
        pieces: list[str] = []
        for start, end in zip([-1, *gaps], [*gaps, len(written)]):
            pieces += ["".join(written[start + 1:end]), ""]
        return pieces[:-1]

    @cached_property
    def text_cells(self) -> list[str]:
        """A member's text row after its path id: the gain, NF, SFDR,
        crosstalk, rise time, jitter and detector power cells."""
        m = self.metrics
        return [_fmt(m.rf_gain_db, 2), _fmt(m.noise_figure_db, 2),
                _fmt(m.sfdr_db, 2), _fmt(m.crosstalk_db, 2),
                _fmt_si(m.rise_time_s), _fmt_si(m.timing_jitter_rms_s),
                _fmt(m.detector_power_dbm, 2)]

    @cached_property
    def csv_tail(self) -> list[str]:
        """A member's CSV rows, split before each row's metric cells; a
        leading empty string puts the path's cells before every row. Only
        the value cells are formatted here, once per class: each metric's
        name and unit cells are quoted once, at import, and a number's repr
        holds nothing that needs quotes."""
        return ["", *[f",{cells},{'' if value is None else repr(value)}\n"
                      for cells, value in zip(_METRIC_CELLS,
                                              _metric_values(self.metrics))]]


class PathResult(Frozen):
    """One path's result: its member of an analysis class, the class's
    result, whose scalars it shares, and its own ledger flags. Only the
    ledger's element ids differ between members of a class; ``metrics``
    restates them on first read, from ``path``, built on each read."""

    _fields = ("member", "class_result", "flags")

    def __init__(self, member: PathMember, class_result: ClassResult,
                 flags: tuple[str, ...]):
        self.__dict__.update(member=member, class_result=class_result,
                             flags=flags)

    @property
    def path(self) -> SignalPath:
        return self.member.path

    @cached_property
    def metrics(self) -> LinkMetrics:
        return __getattr__("relabeled")(self.class_result.metrics, self.path)


class VariantResult(VariantOutcome):
    """A variant's ranking outcome, with the results of its forward network's
    paths and their worst case."""

    _fields = (*VariantOutcome._fields, "paths", "worst")

    def __init__(self, variant: DesignVariant, score: OrdinalScore,
                 compliance: ComplianceReport, paths: tuple[PathResult, ...],
                 worst: LinkMetrics):
        super().__init__(variant, score, compliance)
        self.__dict__.update(paths=paths, worst=worst)


class Report(NamedTuple):
    """Everything one CLI command reports, ready for any writer."""

    command: str
    tool_version: str
    scenario_name: str
    scenario_fingerprint: str
    topology_summaries: tuple[TopologySummary, ...]
    adjacency: tuple[str, ...] = ()
    validation_messages: tuple[str, ...] = ()
    variants: tuple[VariantResult, ...] = ()
    digital_groups: tuple[GroupCapacity, ...] = ()
    recommendation: Recommendation | None = None
    notes: tuple[str, ...] = ()

    @property
    def has_input_errors(self) -> bool:
        return bool(self.validation_messages)

    @property
    def has_compliance_failures(self) -> bool:
        return any(not v.compliance.verdict for v in self.variants)


def _fmt(value: float | None, digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.{digits}f}"


def _fmt_si(value: float | None) -> str:
    """Engineering formatting for wide-ranged quantities (Hz, byte/s, s)."""
    if value is None:
        return "-"
    if value == 0:
        return "0"
    if math.isinf(value):
        return _fmt(value)
    magnitude = abs(value)
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if magnitude >= scale:
            return f"{value / scale:.6g}{suffix}"
    if magnitude < 1e-3:
        for scale, suffix in ((1e-12, "p"), (1e-9, "n"), (1e-6, "u")):
            if magnitude < scale * 1e3:
                return f"{value / scale:.6g}{suffix}"
    return f"{value:.6g}"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    sep = "  ".join("-" * w for w in widths).rstrip()
    out = [line, sep]
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return out


def render_text(report: Report, out: TextIO, *, color: bool = False) -> None:
    """Write the aligned text report to ``out``, a batch of lines at a time.

    The report ends in one newline after its last visible character: the
    trailing whitespace of what is written is held back until more text
    follows it, and dropped at the end."""
    held = ""
    lines = _text_lines(report, color)
    while batch := list(islice(lines, _TEXT_BATCH)):
        text = "\n".join(batch) + "\n"
        body = text.rstrip()
        if body:
            out.write(held + body)
            held = text[len(body):]
        else:
            held += text
    out.write("\n")


def _text_lines(report: Report, color: bool) -> Iterator[str]:
    def verdict(ok: bool) -> str:
        word = "PASS" if ok else "FAIL"
        if not color:
            return word
        return f"{_GREEN}{word}{_RESET}" if ok else f"{_RED}{word}{_RESET}"

    yield f"photonlink {report.tool_version} - {report.command} report"
    yield f"scenario: {report.scenario_name}"
    yield f"fingerprint: {report.scenario_fingerprint}"
    yield ""

    yield "== Topology =="
    rows = []
    for summary in report.topology_summaries:
        rows.append([
            summary.direction.value,
            str(summary.node_count),
            str(summary.edge_count),
            str(summary.channel_count),
            str(summary.n_dtrm),
            str(summary.path_count),
            str(summary.group_count) if summary.group_count else "-",
        ])
    yield from _table(
        ["direction", "nodes", "edges", "channels", "modules", "paths", "groups"],
        rows)
    yield ""

    if report.validation_messages:
        yield "== Validation violations =="
        for message in report.validation_messages:
            yield f"  - {message}"
        yield ""
    elif report.command == "validate":
        yield "== Validation =="
        yield "  no violations"
        yield ""

    if report.adjacency:
        yield "== Adjacency =="
        for row in report.adjacency:
            yield f"  {row}"
        yield ""

    for variant in report.variants:
        yield f"== Variant {variant.variant.label} =="
        yield (f"ordinal ranks (1=best): power {variant.score.power_rank}, "
               f"size {variant.score.size_rank}, "
               f"weight {variant.score.weight_rank}")
        if variant.paths:
            rows = [[pr.member.path_id, *pr.class_result.text_cells]
                    for pr in variant.paths]
            yield from _table(
                ["path", "gain [dB]", "NF [dB]", "SFDR [dB]", "XT [dB]",
                 "t_rise [s]", "jitter [s]", "P_det [dBm]"],
                rows)
        if variant.worst.optical_ledger.entries:
            yield ""
            yield "optical ledger (worst path):"
            for entry in variant.worst.optical_ledger.entries:
                note = f"  ({entry.note})" if entry.note else ""
                yield (f"  {entry.element_id:<28} {entry.delta_db:+8.3f} dB -> "
                       f"{entry.power_dbm:8.3f} dBm{note}")
            for flag in variant.worst.optical_ledger.flags:
                yield f"  flag: {flag}"
        yield ""
        yield "compliance:"
        rows = []
        for check in variant.compliance.checks:
            rows.append([
                check.requirement,
                _fmt_si(check.value),
                f"{check.bound} {check.unit}",
                verdict(check.passed),
                _fmt_si(check.margin),
                check.note,
            ])
        yield from _table(
            ["requirement", "value", "bound", "verdict", "margin", "note"],
            rows)
        yield f"variant verdict: {verdict(variant.compliance.verdict)}"
        yield ""

    if report.digital_groups:
        yield "== Digitized return capacity =="
        rows = []
        for group in report.digital_groups:
            rows.append([
                group.group_id,
                str(group.channel_count),
                _fmt_si(group.payload_bytes_per_s) + "B/s",
                _fmt_si(group.bar_bytes_per_s) + "B/s",
                _fmt_si(group.margin_bytes_per_s) + "B/s",
                verdict(group.passed),
                _fmt_si(group.adc_demand_bytes_per_s) + "B/s"
                if group.adc_demand_bytes_per_s is not None else "-",
                _fmt_si(group.required_line_rate_bps) + "bit/s"
                if group.required_line_rate_bps is not None else "-",
            ])
        yield from _table(
            ["group", "channels", "payload", "bar", "margin", "verdict",
             "adc demand", "line rate needed"],
            rows)
        yield ""

    if report.recommendation is not None:
        top = report.recommendation.ranking[0]
        yield f"== Recommendation: {top.variant.label} =="
        rows = []
        for position, outcome in enumerate(report.recommendation.ranking, start=1):
            rows.append([
                str(position),
                outcome.variant.label,
                f"{outcome.compliance.passed_count}/"
                f"{len(outcome.compliance.checks)}",
                str(outcome.score.power_rank),
                str(outcome.score.size_rank),
                str(outcome.score.weight_rank),
                verdict(outcome.compliance.verdict),
            ])
        yield from _table(
            ["#", "variant", "requirements met", "power", "size", "weight",
             "verdict"],
            rows)
        yield ""
        yield "rationale:"
        for reason in report.recommendation.rationale:
            yield f"  - {reason}"
        if report.recommendation.notes:
            yield "notes:"
            for note in report.recommendation.notes:
                yield f"  - {note}"
        yield ""

    for note in report.notes:
        yield f"note: {note}"


def _metrics_dict(metrics: LinkMetrics, element_ids: list[str],
                  flags: list[str]) -> dict:
    """The JSON object of ``metrics`` with the given ledger element ids and
    flags."""
    payload = {name: getattr(metrics, name) for name, _ in METRIC_COLUMNS}
    payload["optical_ledger"] = [
        {"element_id": element_id, "delta_db": e.delta_db,
         "power_dbm": e.power_dbm, "note": e.note}
        for element_id, e in zip(element_ids, metrics.optical_ledger.entries)
    ]
    payload["noise_w_hz"] = {
        "thermal": metrics.noise.thermal_w_hz,
        "shot": metrics.noise.shot_w_hz,
        "rin": metrics.noise.rin_w_hz,
        "ase": metrics.noise.ase_w_hz,
    }
    payload["flags"] = flags
    return payload


def _compliance_dict(compliance: ComplianceReport) -> dict:
    return {
        "verdict": compliance.verdict,
        "passed_count": compliance.passed_count,
        "checks": [
            {"requirement": c.requirement, "value": c.value, "bound": c.bound,
             "unit": c.unit, "passed": c.passed, "margin": c.margin,
             "note": c.note}
            for c in compliance.checks
        ],
    }


def _json_payload(report: Report) -> dict:
    """The report's JSON value, with each path as its ``PathResult``."""
    payload: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": {"name": "photonlink", "version": report.tool_version},
        "command": report.command,
        "scenario": {"name": report.scenario_name,
                     "fingerprint": report.scenario_fingerprint},
        "topology": [
            {"direction": s.direction.value, "nodes": s.node_count,
             "edges": s.edge_count, "channels": s.channel_count,
             "modules": s.n_dtrm, "paths": s.path_count,
             "groups": s.group_count}
            for s in report.topology_summaries
        ],
        "validation": list(report.validation_messages),
        "adjacency": list(report.adjacency),
        "variants": [
            {
                "variant": v.variant.label,
                "feasible": is_feasible(v.variant),
                "score": {
                    "power_rank": v.score.power_rank,
                    "size_rank": v.score.size_rank,
                    "weight_rank": v.score.weight_rank,
                },
                "paths": v.paths,
                "worst_case": _metrics_dict(
                    v.worst, [e.element_id for e in v.worst.optical_ledger.entries],
                    list(v.worst.flags)),
                "compliance": _compliance_dict(v.compliance),
            }
            for v in report.variants
        ],
        "digital_groups": [
            {"group_id": g.group_id, "channels": g.channel_count,
             "payload_bytes_per_s": g.payload_bytes_per_s,
             "bar_bytes_per_s": g.bar_bytes_per_s,
             "margin_bytes_per_s": g.margin_bytes_per_s,
             "passed": g.passed,
             "adc_demand_bytes_per_s": g.adc_demand_bytes_per_s,
             "required_line_rate_bps": g.required_line_rate_bps}
            for g in report.digital_groups
        ],
        "recommendation": None,
        "notes": list(report.notes),
    }
    if report.recommendation is not None:
        payload["recommendation"] = {
            "ranking": [
                {"variant": o.variant.label,
                 "passed_count": o.compliance.passed_count,
                 "verdict": o.compliance.verdict,
                 "power_rank": o.score.power_rank,
                 "size_rank": o.score.size_rank,
                 "weight_rank": o.score.weight_rank}
                for o in report.recommendation.ranking
            ],
            "rationale": list(report.recommendation.rationale),
            "notes": list(report.recommendation.notes),
        }
    return payload


# A gap of a class template, where each path writes a string of its own.
# _dump writes it through as itself, never as text, so no string can be
# taken for one.
_GAP = object()

# The line break and indent of a path object, an item of a variant's "paths",
# which is a member of an item of the report's "variants".
_PATH_NEWLINE = "\n" + " " * 8


def _dump(value, newline: str, write) -> None:
    """Write ``value`` to ``write`` as ``json.dumps(value, indent=2,
    sort_keys=True, allow_nan=False)`` writes it, at the depth that
    ``newline``, a line break and the indent of the value's line, sets.

    Types are tried in the standard library's order, so a bool is not
    written as an int, and a str or int subclass (an enum member) is written
    as its value. Dict keys must be strings. A ``PathResult``, at the depth
    of a variant's paths, is written in one write: its class's template with
    its own strings, escaped, in the gaps. ``_GAP`` is written as itself.
    Any other type raises ``TypeError``, and a NaN or an infinity
    ``ValueError``."""
    if isinstance(value, str):
        write(_ESCAPE(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not JSON "
                             "compliant: " + repr(value))
        write(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            write(separator)
            _dump(item, inner, write)
            separator = "," + inner
        write(newline + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            write(separator + _ESCAPE(key) + ": ")
            _dump(value[key], inner, write)
            separator = "," + inner
        write(newline + "}")
    elif isinstance(value, PathResult):
        member = value.member
        pieces = value.class_result.json_template.copy()
        pieces[1::2] = map(_ESCAPE, (
            member.destination, *value.flags,
            *[element.element_id for element in member.hop], member.detector,
            member.path_id))
        write("".join(pieces))
    elif value is _GAP:
        write(_GAP)
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def render_json(report: Report, out: TextIO) -> None:
    """Write ``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``
    of the report's JSON value and a newline to ``out``, by ``_dump``: the
    frame a token at a time and each path in one write. A NaN or an
    infinity raises ``ValueError``; what came before it may have been
    written by then."""
    _dump(_json_payload(report), "\n", out.write)
    out.write("\n")


# Finds what makes a CSV cell need quotes: a comma, a quote or a line break.
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_cell(cell: str) -> str:
    """One CSV cell of the string ``cell``, quoted, with each quote doubled,
    when it holds a comma, a quote, a CR or an LF: what ``csv.writer`` writes
    on Python 3.13, here on every Python."""
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES(cell) else cell


def _csv_line(cells) -> str:
    """One CSV row of the string ``cells``, as a line."""
    return ",".join([_csv_cell(cell) for cell in cells]) + "\n"


# The header line, each metric's name and unit cells, and a bundle's metric
# values in the same order.
_CSV_HEADER = _csv_line(["variant", "path_id", "channel", "destination",
                         "metric", "unit", "value"])
_METRIC_CELLS = tuple(_csv_line(columns)[:-1] for columns in METRIC_COLUMNS)
_metric_values = attrgetter(*[name for name, _ in METRIC_COLUMNS])


class _Cells(dict):
    """Quoted CSV cells by their text, each quoted on first read."""

    def __missing__(self, text: str) -> str:
        cell = self[text] = _csv_cell(text)
        return cell


def render_csv(report: Report, out: TextIO) -> None:
    """Write one row per (path, metric) to ``out``; an empty value means not
    evaluated.

    Each cell is quoted on its own, so a row is its path's four leading
    cells, a comma and its metric's three cells. Work is done where it
    varies: the header and each metric's name and unit cells are quoted once
    per process, a variant's label once per variant, a channel or a
    destination once per report, and only the path id on every path. The
    value cells are formatted once per analysis class
    (``ClassResult.csv_tail``), and a path's rows are one join of its
    leading cells with them, written with one ``out.write``."""
    out.write(_CSV_HEADER)
    cells = _Cells()
    for variant in report.variants:
        label = _csv_cell(variant.variant.label)
        for pr in variant.paths:
            member = pr.member
            head = (f"{label},{_csv_cell(member.path_id)},"
                    f"{cells[member.cls.path.channel]},{cells[member.destination]}")
            out.write(head.join(pr.class_result.csv_tail))
