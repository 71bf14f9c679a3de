"""Shared fixtures: component factories, a hand-built path assembler and the
bundled reference inputs."""

from __future__ import annotations

import functools
import importlib.util
import io
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from photonlink import cli
from photonlink.components import (
    DetectorKind,
    EdfaSpec,
    FiberSpec,
    GratingTech,
    LaserSpec,
    Modulation,
    ModulatorBias,
    ModulatorSpec,
    MuxDemuxSpec,
    PhotodetectorSpec,
    SplitterSpec,
    ValidationReport,
    Violation,
    WDM_BAND_NM,
    validate_component,
)
from photonlink.data import reference_scenario_path
from photonlink.report import METRIC_COLUMNS, _json_payload
from photonlink.scenario import parse_scenario
from photonlink.topology import (
    CHANNELS_PER_RETURN_GROUP,
    ChannelPlan,
    Direction,
    ElementKind,
    ForwardBindings,
    NodeKind,
    PathElement,
    ReturnBindings,
    SignalPath,
    _LEGAL_PATH_RE,
    _destination,
    _element,
    _hop,
    _launch,
    _reachable_terminals,
    validate_topology,
)
from photonlink.errors import TopologyError

from oracles import co_propagating, has_cycle


def mk_laser(power_w=0.1, rin=-160.0, nm=1550.0, slope=0.3, tunable=False):
    return LaserSpec(power_w, rin, nm, slope, tunable)


def mk_mod_direct(bandwidth=20e9):
    return ModulatorSpec(Modulation.DIRECT, bandwidth)


def mk_mod_external(bandwidth=25e9, v_pi=5.0, loss=5.0):
    return ModulatorSpec(Modulation.EXTERNAL, bandwidth, v_pi, loss,
                         ModulatorBias.QUADRATURE)


def mk_mux(loss=3.0, tech=GratingTech.VBG, adj=30.0, nonadj=45.0, spacing=0.8):
    return MuxDemuxSpec(tech, loss, spacing, adj, nonadj, athermal=True)


def mk_edfa(gain=0.0, max_gain=30.0, nf=4.0, sat_out=33.0):
    return EdfaSpec(gain, max_gain, nf, sat_out)


def mk_splitter(fanout=16, excess=1.0):
    return SplitterSpec(fanout, excess)


def mk_fiber(length=0.0, attenuation=0.2, group_index=1.468):
    return FiberSpec(length, attenuation, group_index)


def mk_pd(resp=0.8, sat=24.0, bandwidth=20e9, kind=DetectorKind.ANALOG,
          dark=0.0, sensitivity=None):
    return PhotodetectorSpec(resp, sat, bandwidth, kind, dark, sensitivity)


_KIND_BY_TYPE = {
    LaserSpec: ElementKind.LASER,
    ModulatorSpec: ElementKind.MODULATOR,
    EdfaSpec: ElementKind.EDFA,
    FiberSpec: ElementKind.FIBER,
    SplitterSpec: ElementKind.SPLITTER,
    PhotodetectorSpec: ElementKind.DETECTOR,
}


def make_path(*specs, channel="ch1", wavelength_nm=1550.0,
              direction=Direction.FORWARD, destination="dtrm01") -> SignalPath:
    """Assemble a SignalPath from bare specs; mux/demux disambiguated by
    position (first MuxDemuxSpec is the mux, any later one the demux). The
    channel rides its fiber alone."""
    elements = []
    seen_mux = False
    for index, spec in enumerate(specs):
        if isinstance(spec, MuxDemuxSpec):
            kind = ElementKind.DEMUX if seen_mux else ElementKind.MUX
            seen_mux = True
        else:
            kind = _KIND_BY_TYPE[type(spec)]
        elements.append(PathElement(
            element_id=f"e{index:02d}.{kind.value}",
            kind=kind,
            component=f"{kind.value}_{index}",
            spec=spec,
            node="test",
        ))
    return SignalPath(channel, direction, destination, wavelength_nm,
                      tuple(elements), ((channel,), (channel,)))


def forward_fixture_library():
    return {
        "laser_a": mk_laser(nm=1550.0),
        "laser_b": mk_laser(nm=1550.8),
        "laser_c": mk_laser(nm=1551.6),
        "clk_laser": mk_laser(nm=1552.4),
        "dm_mod": mk_mod_direct(),
        "em_mod": mk_mod_external(),
        "mux": mk_mux(),
        "demux": mk_mux(),
        "edfa": mk_edfa(),
        "splitter": mk_splitter(fanout=4, excess=0.5),
        "trunk": mk_fiber(length=10.0),
        "drop": mk_fiber(length=2.0),
        "pd_analog": mk_pd(),
        "pd_digital": mk_pd(resp=0.85, kind=DetectorKind.DIGITAL),
    }


def forward_fixture_bindings(**overrides) -> ForwardBindings:
    values = dict(
        modulator="dm_mod",
        mux="mux",
        demux="demux",
        splitter="splitter",
        fojb_edfa="edfa",
        analog_detector="pd_analog",
        digital_detector="pd_digital",
        trunk_fiber="trunk",
        drop_fiber="drop",
    )
    values.update(overrides)
    return ForwardBindings(**values)


def forward_fixture_channels():
    return [
        ChannelPlan("alpha", "laser_a", DetectorKind.ANALOG),
        ChannelPlan("bravo", "laser_b", DetectorKind.ANALOG),
        ChannelPlan("clk", "clk_laser", DetectorKind.DIGITAL),
    ]


def return_fixture_library():
    return {
        "dlaser1": mk_laser(power_w=0.01, rin=-150.0, nm=1530.0, tunable=True),
        "dlaser2": mk_laser(power_w=0.01, rin=-150.0, nm=1530.8, tunable=True),
        "dlaser3": mk_laser(power_w=0.01, rin=-150.0, nm=1531.6, tunable=True),
        "dlaser4": mk_laser(power_w=0.01, rin=-150.0, nm=1532.4, tunable=True),
        "dmod": mk_mod_direct(bandwidth=5e9),
        "dmux": mk_mux(tech=GratingTech.AWG),
        "ddemux": mk_mux(tech=GratingTech.AWG),
        "dfiber": mk_fiber(length=30.0),
        "dpd": mk_pd(resp=0.9, sat=10.0, bandwidth=5e9, kind=DetectorKind.DIGITAL),
    }


def return_fixture_bindings() -> ReturnBindings:
    return ReturnBindings(
        lasers=("dlaser1", "dlaser2", "dlaser3", "dlaser4"),
        modulator="dmod",
        mux="dmux",
        demux="ddemux",
        detector="dpd",
        fiber="dfiber",
    )


def _redraw(spec, rng):
    """Spec with its values redrawn inside the validator's bounds; wavelengths
    and fanouts stay put so the plan and the network shape do not change."""
    if isinstance(spec, LaserSpec):
        return spec._replace(
            output_power_w=rng.uniform(0.005, 0.2),
            rin_db_hz=rng.uniform(-175.0, -145.0),
            slope_efficiency_w_per_a=rng.uniform(0.1, 0.6))
    if isinstance(spec, ModulatorSpec) and spec.insertion_loss_db is not None:
        return spec._replace(insertion_loss_db=rng.uniform(0.0, 8.0),
                             v_pi_v=rng.uniform(1.0, 8.0))
    if isinstance(spec, MuxDemuxSpec):
        adjacent = rng.uniform(15.0, 40.0)
        return spec._replace(
            insertion_loss_db=rng.uniform(0.0, 5.0),
            adjacent_isolation_db=adjacent,
            nonadjacent_isolation_db=adjacent + rng.uniform(0.0, 20.0))
    if isinstance(spec, EdfaSpec):
        # A low ceiling clamps the autogain; a low saturation flags the ledger.
        return spec._replace(
            max_gain_db=rng.uniform(5.0, 35.0),
            noise_figure_db=rng.uniform(3.0, 7.0),
            saturation_output_power_dbm=rng.uniform(5.0, 33.0))
    if isinstance(spec, SplitterSpec):
        return spec._replace(excess_loss_db=rng.uniform(0.0, 2.0))
    if isinstance(spec, FiberSpec):
        return spec._replace(length_m=rng.uniform(0.0, 5000.0),
                             attenuation_db_per_km=rng.uniform(0.1, 1.0))
    if isinstance(spec, PhotodetectorSpec):
        sensitivity = rng.choice((None, rng.uniform(-30.0, 10.0)))
        return spec._replace(
            responsivity_a_per_w=rng.uniform(0.5, 1.1),
            saturation_power_dbm=rng.uniform(-5.0, 24.0),
            dark_current_a=rng.uniform(0.0, 1e-6), sensitivity_dbm=sensitivity)
    return spec


def redrawn_scenario(scenario, rng):
    """``scenario`` with every library value redrawn, and N, the lanes and a
    transmitter booster drawn too."""
    return scenario._replace(
        library={name: _redraw(spec, rng)
                 for name, spec in sorted(scenario.library.items())},
        n_dtrm=rng.choice((1, 3, 8)),
        shared_fiber=rng.choice((True, False)),
        forward=with_booster(scenario.forward, rng.choice(
            (None, scenario.forward["dm", "vbg"].fojb_edfa))))


def with_booster(forward, otxc_edfa):
    """Every bindings of ``forward`` with ``otxc_edfa`` on the transmitter."""
    return {key: bindings._replace(otxc_edfa=otxc_edfa)
            for key, bindings in forward.items()}


def per_path_enumeration(topology) -> list[SignalPath]:
    """Per-path oracle of ``enumerate_paths``: every path built whole as a
    ``SignalPath``, as enumeration did before it handed out class members.

    One path per (channel, destination); deterministic order by channel id
    then terminal node id. Raises if the topology does not validate. The
    elements up to a trail's last edge are built once per channel and shared
    by every destination that reaches them; the last edge's fiber and demux
    are built once per (edge, lane); the detector is built per path, and
    every path's element order is checked. Each path's co-propagating
    channels come from ``oracles.co_propagating``, a scan of the raw edge
    list."""
    report = validate_topology(topology)
    if not report.ok:
        raise TopologyError("topology is invalid", report.messages())
    paths: list[SignalPath] = []
    destinations: dict[str, str] = {}
    drops: dict = {}
    for channel in sorted(topology.wavelength_plan):
        wavelength = topology.wavelength_plan[channel]
        detector = topology.channel_detectors[channel]
        prefixes: dict = {}
        trails = sorted(_reachable_terminals(topology, channel),
                        key=lambda trail: trail[-1].target)
        for trail in trails:
            lane = trail[0].lane
            head = trail[:-1]
            shared = prefixes.get(head)
            if shared is None:
                elements = _launch(topology, channel, trail[0])
                for edge in head:
                    elements += _hop(topology, edge, lane)
                shared = prefixes[head] = tuple(elements)
            last = trail[-1]
            terminal = last.target
            drop = drops.get((last, lane))
            if drop is None:
                drop = drops[last, lane] = tuple(_hop(topology, last, lane))
            hop = drop + (_element(topology, f"{terminal}.pd.{channel}",
                                   ElementKind.DETECTOR, detector, terminal),)
            destination = destinations.get(terminal)
            if destination is None:
                destination = destinations[terminal] = _destination(
                    topology, terminal)
            path = SignalPath(
                channel=channel,
                direction=topology.direction,
                destination=destination,
                wavelength_nm=wavelength,
                elements=shared + hop,
                co_propagating=co_propagating(topology, channel, terminal),
            )
            tokens = path.kind_tokens()
            if not _LEGAL_PATH_RE.match(tokens):
                raise TopologyError(
                    f"path {path.path_id} has illegal element order {tokens!r}")
            paths.append(path)
    return paths


def analysis_class(path, topology) -> tuple:
    """Per-path oracle of the analysis classes of ``enumerate_paths``: a key
    under which paths of one topology get equal metrics, ids aside.

    ``analyze_path`` reads the channel, each element's kind and spec (within
    one topology the component name fixes the spec) and the channels that
    share the path's demux: those on the first edge into the demux's node
    that carries the path's channel.
    """
    demux_nodes = [e.node for e in path.elements if e.kind is ElementKind.DEMUX]
    sharing = (path.channel,)
    if demux_nodes:
        for edge in topology.incoming(demux_nodes[-1]):
            if path.channel in edge.channels:
                sharing = tuple(sorted(edge.channels))
                break
    return (path.channel,
            tuple((e.kind, e.component) for e in path.elements),
            sharing)


def analyze_variant(scenario, variant, digital_groups):
    """Per-variant route of ``cli.run``: ``variant`` analyzed on its own
    forward network, shared with no other. Returns its result and the
    network's summary."""
    forward = cli._analyze_forward(scenario, variant)
    return (cli._variant_result(scenario, variant, forward, digital_groups),
            forward.summary)


def per_member_validation(topology) -> ValidationReport:
    """Per-member oracle of ``validate_topology``: the composition rules run
    at every node and the wavelength bookkeeping at every edge, as they did
    before the checks were keyed by node and edge class; the source band is
    checked once per channel of the plan, and cycles by the recursive search
    of ``oracles.has_cycle`` over the raw edge list."""
    issues: list[Violation] = []

    def bad(subject: str, field_name: str, message: str) -> None:
        issues.append(Violation(subject, field_name, message))

    known = topology._by_id
    if len(known) != len(topology.nodes):
        bad("topology", "nodes", "duplicate node ids")
    for e in topology.edges:
        if e.source not in known or e.target not in known:
            bad(f"{e.source}->{e.target}", "edge", "references unknown node")

    if has_cycle(topology.nodes, topology.edges):
        bad("topology", "edges", "graph contains a cycle")

    # Component resolution and per-component invariants. A part that passes
    # once passes everywhere; one that fails is reported at every node.
    passed: set[str] = set()
    for node in topology.nodes:
        for name in node.components:
            if name in passed:
                continue
            spec = topology.library.get(name)
            if spec is None:
                bad(node.id, "components", f"unknown component {name!r}")
                continue
            report = validate_component(spec, name=f"{node.id}:{name}")
            if report.ok:
                passed.add(name)
            issues.extend(report.violations)

    # The source band, once per channel of the plan.
    lo, hi = WDM_BAND_NM
    for ch, nm in sorted(topology.wavelength_plan.items()):
        if not lo <= nm <= hi:
            bad("topology", "channels",
                f"channel {ch!r} at {nm} nm outside [{lo:.0f}, {hi:.0f}] nm")

    # Per-edge wavelength bookkeeping.
    for e in topology.edges:
        label = f"{e.source}->{e.target}"
        if e.channels and e.fiber is None:
            bad(label, "fiber", "edge carries channels but has no fiber")
        if e.fiber is not None and not isinstance(topology.library.get(e.fiber), FiberSpec):
            bad(label, "fiber", f"fiber {e.fiber!r} missing from library or wrong type")
        carried = sorted(e.channels)
        wavelengths = []
        for ch in carried:
            nm = topology.wavelength_plan.get(ch)
            if nm is None:
                bad(label, "channels", f"channel {ch!r} missing from wavelength plan")
                continue
            wavelengths.append((nm, ch))
        wavelengths.sort()
        for (nm_a, ch_a), (nm_b, ch_b) in zip(wavelengths, wavelengths[1:]):
            gap = nm_b - nm_a
            if nm_a == nm_b:
                bad(label, "channels",
                    f"wavelength collision: {ch_a!r} and {ch_b!r} both at {nm_a} nm")
            elif gap < topology.min_channel_spacing_nm and not math.isclose(
                    gap, topology.min_channel_spacing_nm, rel_tol=1e-9):
                bad(label, "channels",
                    f"channels {ch_a!r}/{ch_b!r} spaced {gap:.3f} nm "
                    f"< minimum {topology.min_channel_spacing_nm} nm")

    # Node composition rules.
    for node in topology.nodes:
        lasers = topology.components_of(node, LaserSpec)
        modulators = topology.components_of(node, ModulatorSpec)
        muxes = topology.components_of(node, MuxDemuxSpec)
        edfas = topology.components_of(node, EdfaSpec)
        splitters = topology.components_of(node, SplitterSpec)
        detectors = topology.components_of(node, PhotodetectorSpec)
        out_edges = topology.outgoing(node.id)
        in_edges = topology.incoming(node.id)
        out_lanes = sorted({e.lane for e in out_edges if e.channels})
        in_lanes = sorted({e.lane for e in in_edges if e.channels})

        if node.kind in (NodeKind.OTXC, NodeKind.DIGITAL_OTXC):
            if not lasers:
                bad(node.id, "components", "transmitter chip needs at least one laser")
            if len(modulators) != len(lasers):
                bad(node.id, "components",
                    f"lasers and modulators must pair up "
                    f"({len(lasers)} lasers, {len(modulators)} modulators)")
            expected_mux = max(1, len(out_lanes))
            if len(muxes) != expected_mux:
                bad(node.id, "components",
                    f"expected {expected_mux} mux(es) for {expected_mux} outgoing "
                    f"lane(s), found {len(muxes)}")
            if node.kind is NodeKind.OTXC and len(edfas) > expected_mux:
                bad(node.id, "components",
                    "transmitter chip carries more boosters than fibers")
        elif node.kind is NodeKind.FOJB:
            expected = max(1, len(out_lanes))
            if len(splitters) != expected:
                bad(node.id, "components",
                    f"junction box needs one splitter per lane "
                    f"({len(splitters)} found, {expected} expected)")
            if len(edfas) != expected:
                bad(node.id, "components",
                    f"junction box needs one amplifier per lane "
                    f"({len(edfas)} found, {expected} expected)")
            for lane in out_lanes or [0]:
                legs = sum(1 for e in out_edges if e.channels and e.lane == lane)
                for name in splitters:
                    spec = topology.library[name]
                    if spec.fanout != legs:
                        bad(node.id, "fanout",
                            f"splitter fanout {spec.fanout} != {legs} outgoing "
                            f"edges on lane {lane}")
        elif node.kind is NodeKind.ORXC:
            expected = max(1, len(in_lanes))
            if len(muxes) != expected:
                bad(node.id, "components",
                    f"receiver chip needs one demux per incoming lane "
                    f"({len(muxes)} found, {expected} expected)")
            if not detectors:
                bad(node.id, "components", "receiver chip needs at least one detector")
            arriving: set[str] = set()
            for e in in_edges:
                arriving.update(e.channels)
            for want in (DetectorKind.ANALOG, DetectorKind.DIGITAL):
                need = sum(1 for ch in arriving if topology.channel_kinds.get(ch) is want)
                have = sum(1 for name in detectors
                           if topology.library[name].kind is want)
                if have < need:
                    bad(node.id, "components",
                        f"{need} {want.value} channel(s) arrive but only {have} "
                        f"{want.value} detector(s) fitted")
            for ch in sorted(arriving):
                bound = topology.channel_detectors.get(ch)
                spec = topology.library.get(bound) if bound else None
                want = topology.channel_kinds.get(ch)
                if isinstance(spec, PhotodetectorSpec) and want is not None \
                        and spec.kind is not want:
                    bad(node.id, "components",
                        f"{want.value} channel {ch!r} terminated on a "
                        f"{spec.kind.value} detector")

    # Structural chain checks per direction.
    kind_counts: dict[NodeKind, int] = {}
    for node in topology.nodes:
        kind_counts[node.kind] = kind_counts.get(node.kind, 0) + 1
    if topology.direction is Direction.FORWARD:
        for kind, want in ((NodeKind.EXCITER, 1), (NodeKind.OTXC, 1),
                           (NodeKind.FOJB, 1), (NodeKind.ORXC, topology.n_dtrm),
                           (NodeKind.DTRM, topology.n_dtrm)):
            if kind_counts.get(kind, 0) != want:
                bad("topology", "nodes",
                    f"expected {want} {kind.value} node(s), found "
                    f"{kind_counts.get(kind, 0)}")
        for ch in sorted(topology.wavelength_plan):
            reached = _reachable_terminals(topology, ch)
            if len(reached) != topology.n_dtrm:
                bad("topology", "channels",
                    f"channel {ch!r} reaches {len(reached)} of "
                    f"{topology.n_dtrm} modules")
    else:
        n_groups = topology.n_dtrm // CHANNELS_PER_RETURN_GROUP
        if kind_counts.get(NodeKind.DIGITAL_OTXC, 0) != n_groups:
            bad("topology", "nodes",
                f"expected {n_groups} digital transmitter group(s), found "
                f"{kind_counts.get(NodeKind.DIGITAL_OTXC, 0)}")
        if kind_counts.get(NodeKind.DBFU, 0) != 1:
            bad("topology", "nodes", "expected exactly one beam-former node")

    return ValidationReport(tuple(issues))


def class_partition(paths, key) -> list[list[int]]:
    """The indices of ``paths`` grouped by ``key``, in order of first index."""
    classes: dict = {}
    for index, path in enumerate(paths):
        classes.setdefault(key(path), []).append(index)
    return sorted(classes.values())


ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def benchmark_workloads():
    """The benchmark's workload module (``perfbench/workloads.py``), loaded
    from its file without putting ``perfbench/`` on the import path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up in sys.modules while it is executed.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def workload_document(name: str, seed: int) -> dict:
    """The scenario document of one benchmark workload and seed."""
    workloads = benchmark_workloads()
    return workloads.make_scenario(workloads.WORKLOADS[name], seed,
                                   workloads.load_reference(ROOT))


def rendered(write, obj, **kwargs) -> str:
    """What ``write``, one of the ``render_*`` writers, writes of ``obj``,
    collected in an ``io.StringIO``."""
    buffer = io.StringIO()
    write(obj, buffer, **kwargs)
    return buffer.getvalue()


def assert_same_text(got, want):
    """``got == want``, failing with the first differing line only: a diff
    of two whole reports is too slow to print."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for number, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            pytest.fail(f"line {number} differs: {a!r} != {b!r}")
    pytest.fail(f"{len(got_lines)} lines != {len(want_lines)} lines")


def metrics_json(metrics) -> dict:
    """The report's JSON object of one metrics bundle, built field by field."""
    payload = {name: getattr(metrics, name) for name, _ in METRIC_COLUMNS}
    payload["optical_ledger"] = [
        {"element_id": e.element_id, "delta_db": e.delta_db,
         "power_dbm": e.power_dbm, "note": e.note}
        for e in metrics.optical_ledger.entries]
    payload["noise_w_hz"] = {
        "thermal": metrics.noise.thermal_w_hz, "shot": metrics.noise.shot_w_hz,
        "rin": metrics.noise.rin_w_hz, "ase": metrics.noise.ase_w_hz}
    payload["flags"] = list(metrics.flags)
    return payload


def per_path_payload(report) -> dict:
    """The JSON payload of ``report`` with every path's object and every
    worst case built from the materialized metrics, path by path: the oracle
    of the class-stamped writer."""
    payload = _json_payload(report)
    for variant, entry in zip(report.variants, payload["variants"]):
        entry["paths"] = [
            {"path_id": result.path.path_id, "channel": result.path.channel,
             "destination": result.path.destination,
             "wavelength_nm": result.path.wavelength_nm,
             "metrics": metrics_json(result.metrics)}
            for result in variant.paths]
        if variant.worst is not None:
            entry["worst_case"] = metrics_json(variant.worst)
    return payload


@pytest.fixture(scope="session")
def reference_scenario():
    return parse_scenario(reference_scenario_path())
