"""Class-first rendering against per-path rendering.

A path's result holds its class's metrics and relabels its ledger only when
``metrics`` is read. Every report here is written twice: by the writers,
which read the class metrics and stamp each path's ids and flags into a
template, and by an oracle from each path's materialized ``pr.metrics``. The
two must be equal to the byte, or both refuse a value JSON cannot carry, and
the variant's worst case must equal ``worst_case`` of the materialized
metrics under exact ``==``."""

import csv
import io
import json
import math
import random
import sys

import pytest

from photonlink import cli, linkbudget, report as report_module
from photonlink import topology as topology_module
from photonlink.components import DetectorKind
from photonlink.data import reference_scenario_path
from photonlink.linkbudget import worst_case
from photonlink.report import (
    METRIC_COLUMNS,
    ClassResult,
    PathResult,
    Report,
    render_csv,
    render_json,
    render_text,
)
from photonlink.scenario import parse_scenario
from photonlink.topology import ElementKind, NodeKind, enumerate_paths

from conftest import (
    analyze_variant,
    assert_same_text,
    per_path_payload,
    redrawn_scenario,
    rendered,
    workload_document,
)


def csv_row(cells) -> str:
    """One CSV line of ``cells``, quoted as ``csv.writer`` quotes them on
    Python 3.13: a cell holding a comma, a quote, a CR or an LF is quoted,
    with each quote doubled. Earlier writers leave a CR unquoted, and the
    3.10 writer refuses a NUL."""
    return ",".join(['"' + cell.replace('"', '""') + '"'
                     if any(c in cell for c in ',"\r\n') else cell
                     for cell in cells]) + "\n"


def per_path_csv(report) -> str:
    lines = [csv_row(["variant", "path_id", "channel", "destination",
                      "metric", "unit", "value"])]
    for variant in report.variants:
        for pr in variant.paths:
            for name, unit in METRIC_COLUMNS:
                value = getattr(pr.metrics, name)
                lines.append(csv_row([
                    variant.variant.label, pr.path.path_id, pr.path.channel,
                    pr.path.destination, name, unit,
                    "" if value is None else repr(value)]))
    return "".join(lines)


def materialized(report):
    """``report`` with every path holding its own relabeled metrics."""
    return report._replace(variants=tuple(
        v._replace(paths=tuple(
            PathResult(pr.member, ClassResult(pr.member.cls, pr.metrics),
                       pr.metrics.flags)
            for pr in v.paths))
        for v in report.variants))


def assert_renders_per_path(report, analog_channels):
    for variant in report.variants:
        analog = [pr for pr in variant.paths if pr.path.channel in analog_channels]
        eager = worst_case([pr.metrics for pr in analog or variant.paths])
        assert variant.worst == eager, variant.variant.label
    try:
        expected = json.dumps(per_path_payload(report), indent=2,
                              sort_keys=True, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError):
            rendered(render_json, report)
    else:
        assert_same_text(rendered(render_json, report), expected + "\n")
    assert_same_text(rendered(render_csv, report), per_path_csv(report))
    assert_same_text(rendered(render_text, report),
                     rendered(render_text, materialized(report)))


def analog_ids(scenario):
    return {ch.id for ch in scenario.channels if ch.kind is DetectorKind.ANALOG}


def variants_report(scenario, variants, topology=None, monkeypatch=None):
    """A report of ``variants`` through the CLI's variant analysis; with
    ``topology``, every variant is analyzed on that network."""
    if topology is not None:
        monkeypatch.setattr(cli, "_forward_topology", lambda *_: topology)
    results = [analyze_variant(scenario, v, ())[0] for v in variants]
    return Report(command="analyze", tool_version="test",
                  scenario_name=scenario.name, scenario_fingerprint="0" * 64,
                  topology_summaries=(), variants=tuple(results))


@pytest.mark.parametrize("command", ["analyze", "tradeoff"])
def test_reference_runs(reference_scenario, command):
    report = cli.run(command, reference_scenario)
    assert len(report.variants) == 6
    assert_renders_per_path(report, analog_ids(reference_scenario))


@pytest.mark.parametrize("seed", range(8))
def test_randomized_libraries(reference_scenario, seed):
    rng = random.Random(seed)
    scenario = redrawn_scenario(reference_scenario, rng)
    report = variants_report(scenario, rng.sample(scenario.variants, 2))
    assert_renders_per_path(report, analog_ids(scenario))


def test_swapped_drop_fiber(reference_scenario, monkeypatch):
    library = dict(reference_scenario.library)
    library["spare_drop"] = library[reference_scenario.forward_bindings(
        reference_scenario.variants[0]).drop_fiber]._replace(length_m=2500.0)
    scenario = reference_scenario._replace(library=library)
    variant = scenario.variants[0]
    built = cli._forward_topology(scenario, variant)
    victim = next(e for e in built.edges if e.target == "orxc03")
    swapped = built._replace(edges=tuple(
        e._replace(fiber="spare_drop") if e is victim else e
        for e in built.edges))
    report = variants_report(scenario, [variant], swapped, monkeypatch)
    paths = report.variants[0].paths
    assert len({pr.class_result for pr in paths}) == 2 * len(scenario.channels)
    assert_renders_per_path(report, analog_ids(scenario))


def test_detector_saturation_flags_each_path(reference_scenario):
    library = dict(reference_scenario.library)
    bindings = reference_scenario.forward_bindings(reference_scenario.variants[0])
    for name in (bindings.analog_detector, bindings.digital_detector):
        library[name] = library[name]._replace(saturation_power_dbm=-40.0)
    scenario = reference_scenario._replace(library=library)
    report = variants_report(scenario, scenario.variants[:2])
    for variant in report.variants:
        flags = [pr.flags for pr in variant.paths]
        assert all(len(f) == 1 for f in flags)
        assert len({f for (f,) in flags}) == len(flags)
    assert_renders_per_path(report, analog_ids(scenario))


def test_dead_link(reference_scenario, monkeypatch, capsys):
    """A dead link's infinite noise figure has no JSON form: the JSON writer
    and ``cli.main`` refuse the report, the text and CSV writers write it."""
    report = cli.run("analyze", reference_scenario)
    first = report.variants[0]
    analog_channels = analog_ids(reference_scenario)
    victim = next(pr.class_result for pr in first.paths
                  if pr.path.channel in analog_channels)
    dead = victim._replace(
        metrics=victim.metrics._replace(noise_figure_db=math.inf))
    paths = tuple(PathResult(pr.member, dead, pr.flags)
                  if pr.class_result is victim else pr for pr in first.paths)
    analog = [pr for pr in paths if pr.path.channel in analog_channels]
    classes = list(dict.fromkeys(pr.class_result for pr in analog))
    first = first._replace(paths=paths,
                           worst=cli._worst_case(classes, analog))
    report = report._replace(variants=(first, *report.variants[1:]))
    assert first.worst.noise_figure_db == math.inf
    assert_renders_per_path(report, analog_channels)

    monkeypatch.setattr(cli, "run", lambda *_: report)
    code = cli.main(["analyze", "--scenario", str(reference_scenario_path()),
                     "--format", "json"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_escaped_channel_ids(reference_scenario):
    inputs = [
        ([f'{ch.id} "é中\U0001f600"' for ch in reference_scenario.channels],
         '\\"\\u00e9\\u4e2d\\ud83d\\ude00\\"'),
        # NUL and ids spelled like a class template's slots, characters that
        # JSON escapes, a line separator and a lone surrogate.
        (["\x00", "\x00c", "\x000", "\x00f", "\\", "\x1f", "\u2028", "\ud800"],
         '"channel": "\\u00000"'),
    ]
    for ids, escaped in inputs:
        scenario = reference_scenario._replace(channels=tuple(
            ch._replace(id=new_id)
            for ch, new_id in zip(reference_scenario.channels, ids, strict=True)))
        report = variants_report(scenario, scenario.variants[:1])
        text = rendered(render_json, report)
        assert escaped in text
        paths = json.loads(text)["variants"][0]["paths"]
        assert {p["channel"] for p in paths} == set(ids)
        for p in paths:
            detector = p["metrics"]["optical_ledger"][-1]["element_id"]
            assert detector.endswith(".pd." + p["channel"])
        assert_renders_per_path(report, analog_ids(scenario))


def test_hostile_channel_and_part_names():
    """Channel ids and part names that are a NUL followed by digits, or hold
    a quote, a backslash, non-ASCII text and such a NUL, with every analog
    detector saturated so each of its paths has a flag: every report of
    every variant equals the per-path oracle, so no scenario text is read as
    a template's gap."""
    doc = json.loads(reference_scenario_path().read_text(encoding="utf-8"))
    doc["components"]["analog_pd"]["saturation_power_dbm"] = -40.0

    def hostile(name, k):
        return f'{name} "\\é中\U0001f600\x00{k}' if k % 2 else f"\x00{k}"

    parts = {name: hostile(name, k) for k, name in enumerate(doc["components"])}

    def renamed(value):
        if isinstance(value, dict):
            return {key: renamed(item) for key, item in value.items()}
        if isinstance(value, list):
            return [renamed(item) for item in value]
        return parts.get(value, value) if isinstance(value, str) else value

    topology = renamed(doc["topology"])
    for k, channel in enumerate(topology["channels"]):
        channel["id"] = hostile(channel["id"], k)
    scenario = parse_scenario({
        **doc, "topology": topology,
        "components": {parts[name]: spec
                       for name, spec in doc["components"].items()}})
    assert set(scenario.library) == set(parts.values())
    report = cli.run("tradeoff", scenario)
    analog = analog_ids(scenario)
    assert len(report.variants) == 6
    assert all(pr.flags for variant in report.variants for pr in variant.paths
               if pr.path.channel in analog)
    assert_renders_per_path(report, analog)


@pytest.mark.parametrize("ids", [
    [f'{n} "é中\U0001f600"' for n in range(8)],
    ["\x00", "\x00c", "\x000", "\x00f", "\\", "\x1f", "\u2028", "\ud800"],
    ["a\rb", "\r", "c\r\n", "\n", "d,\r", '"\r"', "e", "f g"],
], ids=["quotes", "escapes", "line-breaks"])
def test_csv_rows_read_back(reference_scenario, ids):
    scenario = reference_scenario._replace(channels=tuple(
        ch._replace(id=new_id)
        for ch, new_id in zip(reference_scenario.channels, ids, strict=True)))
    report = variants_report(scenario, scenario.variants[:1])
    text = rendered(render_csv, report)
    if sys.version_info < (3, 11):
        # The 3.10 reader refuses a NUL, which CSV does not quote.
        text = text.replace("\x00", "\ue000")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["variant", "path_id", "channel", "destination",
                       "metric", "unit", "value"]
    want = [[variant.variant.label, pr.path.path_id, pr.path.channel,
             pr.path.destination, name, unit, "" if value is None else repr(value)]
            for variant in report.variants for pr in variant.paths
            for name, unit in METRIC_COLUMNS
            for value in (getattr(pr.metrics, name),)]
    if sys.version_info < (3, 11):
        want = [[cell.replace("\x00", "\ue000") for cell in row] for row in want]
    assert all(len(row) == 7 for row in rows)
    assert rows[1:] == want


def test_csv_quoting_matches_csv_writer():
    """The writers' quoting rule is ``csv.writer``'s on Python 3.13, and on
    earlier Pythons on every row without a CR or a NUL, on seeded rows of
    three to seven cells drawn from the characters that quoting reads."""
    rng = random.Random(17)
    alphabet = ['a', 'é', ' ', ',', '"', "'", '\r', '\n', '\x00', '\\', ';']
    compared = 0
    for _ in range(4000):
        row = ["".join(rng.choices(alphabet, k=rng.randrange(5)))
               for _ in range(rng.randrange(3, 8))]
        line = report_module._csv_line(row)
        assert line == csv_row(row)
        if sys.version_info < (3, 13) and any(
                "\r" in cell or "\x00" in cell for cell in row):
            continue
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow(row)
        assert line == buffer.getvalue(), row
        compared += 1
    assert compared > 500


def test_csv_cells_are_quoted_where_they_vary(monkeypatch):
    """``render_csv`` of the benchmark's seed-1 48-channel report quotes no
    line, since the header and each metric's name and unit cells are quoted
    at import, and quotes each cell at the level where it varies: a label
    once per variant, a channel or a destination once per report, and a
    path id once per row of a path."""
    report = cli.run("analyze", parse_scenario(
        workload_document("analyze-dwdm48-csv", 1)))
    lines, cells = [], []
    real_line, real_cell = report_module._csv_line, report_module._csv_cell
    monkeypatch.setattr(report_module, "_csv_line",
                        lambda row: lines.append(row) or real_line(row))
    monkeypatch.setattr(report_module, "_csv_cell",
                        lambda cell: cells.append(cell) or real_cell(cell))
    text = rendered(render_csv, report)
    assert lines == []
    paths = [pr for variant in report.variants for pr in variant.paths]
    assert len(paths) == 6 * 48 * 8
    assert sorted(cells) == sorted(
        [variant.variant.label for variant in report.variants]
        + [pr.member.path_id for pr in paths]
        + list({pr.path.channel for pr in paths})
        + list({pr.path.destination for pr in paths}))
    assert text == per_path_csv(report)


def test_only_the_worst_case_anchor_is_relabeled(reference_scenario, monkeypatch):
    calls = []
    real = linkbudget.relabeled

    def counting(metrics, path):
        calls.append(path)
        return real(metrics, path)

    patched = [name for name, module in list(sys.modules.items())
               if name.startswith("photonlink")
               and getattr(module, "relabeled", None) is real]
    assert "photonlink.report" in patched
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "relabeled", counting)

    report = cli.run("tradeoff", reference_scenario)
    for render in (render_text, render_json, render_csv):
        rendered(render, report)
    # The worst case keeps its anchor class's ledger, which already names
    # the elements of the class's first path, so no path is relabeled.
    assert calls == []


def test_each_channel_prefix_is_built_once(reference_scenario, monkeypatch):
    """On the reference scenario (one lane) and the benchmark's seed-1
    48-channel workload (two lanes): a channel's laser and modulator are
    built once per channel, the rest of its prefix once per lane."""
    workload = parse_scenario(workload_document("analyze-dwdm48-csv", 1))
    for scenario, lanes in ((reference_scenario, 1), (workload, 2)):
        assert_prefixes_built_once(scenario, lanes, monkeypatch)


def assert_prefixes_built_once(scenario, lane_count, monkeypatch):
    variant = scenario.variants[0]
    topology = cli._forward_topology(scenario, variant)
    built, paths_built = [], []
    real, real_path = topology_module.PathElement, topology_module.SignalPath

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    def counting_path(*args, **kwargs):
        paths_built.append(kwargs)
        return real_path(*args, **kwargs)

    monkeypatch.setattr(topology_module, "PathElement", counting)
    monkeypatch.setattr(topology_module, "SignalPath", counting_path)
    members = enumerate_paths(topology)
    monkeypatch.undo()
    classes = {m.cls for m in members}
    assert len(classes) == len(topology.wavelength_plan)
    # One SignalPath per class, and none per path.
    assert len(paths_built) == len(classes)
    elements_built = len(built)
    paths = [m.path for m in members]

    kinds = [e.kind for e in paths[0].elements]
    prefix = kinds.index(ElementKind.SPLITTER) + 1
    suffix = len(kinds) - prefix
    assert kinds[:2] == [ElementKind.LASER, ElementKind.MODULATOR]
    assert suffix == 3
    assert all(len(p.elements) == prefix + suffix for p in paths)
    channels = len(topology.wavelength_plan)
    assert len(paths) == channels * scenario.n_dtrm
    # The laser and modulator are built once per channel, the rest of the
    # prefix (mux, trunk fiber, junction-box amplifier and splitter) once
    # per lane, the drop fiber and demux once per (last edge, lane), and the
    # detector once per class, in the class's own path.
    lane_of = {ch: e.lane for e in topology.edges for ch in e.channels}
    lanes = set(lane_of.values())
    assert len(lanes) == lane_count
    assert prefix - 2 == 4
    drops = {(e, e.lane) for e in topology.edges if e.channels
             and topology.node(e.target).kind is NodeKind.ORXC}
    assert len(drops) == scenario.n_dtrm * len(lanes)
    assert elements_built == (channels * 2 + len(lanes) * (prefix - 2)
                              + len(drops) * 2 + len(classes))
    first, on_lane, landed = {}, {}, {}
    for path in paths:
        shared = first.setdefault(path.channel, path.elements[:prefix])
        assert all(a is b for a, b in zip(path.elements[:prefix], shared))
        lane = on_lane.setdefault(lane_of[path.channel], path.elements[2:prefix])
        assert all(a is b for a, b in zip(path.elements[2:prefix], lane))
        receiver = path.elements[-1].node
        drop = landed.setdefault((receiver, lane_of[path.channel]),
                                 path.elements[prefix:-1])
        assert all(a is b for a, b in zip(path.elements[prefix:-1], drop))
        assert path.elements[-1].element_id == f"{receiver}.pd.{path.channel}"
    assert len(on_lane) == len(lanes)
    assert len(landed) == len(drops)


def test_text_metric_cells_are_formatted_once_per_class(reference_scenario,
                                                        monkeypatch):
    """The text writer formats a class's seven metric cells once, whatever
    the number of its paths: a report whose paths are listed twice makes no
    more ``_fmt``/``_fmt_si`` calls, and one without paths makes seven per
    class fewer."""
    calls = []
    for name in ("_fmt", "_fmt_si"):
        def counting(*args, real=getattr(report_module, name)):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(report_module, name, counting)

    def count(paths_of):
        report = cli.run("tradeoff", reference_scenario)
        report = report._replace(variants=tuple(
            v._replace(paths=paths_of(v.paths))
            for v in report.variants))
        classes = {id(pr.class_result) for v in report.variants for pr in v.paths}
        calls.clear()
        rendered(render_text, report)
        return len(calls), len(classes)

    once, classes = count(lambda paths: paths)
    twice, _ = count(lambda paths: paths + tuple(
        PathResult(pr.member, pr.class_result, pr.flags) for pr in paths))
    none, _ = count(lambda paths: ())
    assert classes == 4 * len(reference_scenario.channels)
    assert twice == once
    assert once - none == 7 * classes
