"""Shared fixtures: component factories, a hand-built path assembler and the
bundled reference inputs."""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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
)
from photonlink.data import reference_scenario_path
from photonlink.report import METRIC_COLUMNS, _json_payload
from photonlink.scenario import parse_scenario
from photonlink.topology import (
    ChannelPlan,
    Direction,
    ElementKind,
    ForwardBindings,
    PathElement,
    ReturnBindings,
    SignalPath,
)


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
    position (first MuxDemuxSpec is the mux, any later one the demux)."""
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
                      tuple(elements))


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
        return dataclasses.replace(
            spec, output_power_w=rng.uniform(0.005, 0.2),
            rin_db_hz=rng.uniform(-175.0, -145.0),
            slope_efficiency_w_per_a=rng.uniform(0.1, 0.6))
    if isinstance(spec, ModulatorSpec) and spec.insertion_loss_db is not None:
        return dataclasses.replace(spec, insertion_loss_db=rng.uniform(0.0, 8.0),
                                   v_pi_v=rng.uniform(1.0, 8.0))
    if isinstance(spec, MuxDemuxSpec):
        adjacent = rng.uniform(15.0, 40.0)
        return dataclasses.replace(
            spec, insertion_loss_db=rng.uniform(0.0, 5.0),
            adjacent_isolation_db=adjacent,
            nonadjacent_isolation_db=adjacent + rng.uniform(0.0, 20.0))
    if isinstance(spec, EdfaSpec):
        # A low ceiling clamps the autogain; a low saturation flags the ledger.
        return dataclasses.replace(
            spec, max_gain_db=rng.uniform(5.0, 35.0),
            noise_figure_db=rng.uniform(3.0, 7.0),
            saturation_output_power_dbm=rng.uniform(5.0, 33.0))
    if isinstance(spec, SplitterSpec):
        return dataclasses.replace(spec, excess_loss_db=rng.uniform(0.0, 2.0))
    if isinstance(spec, FiberSpec):
        return dataclasses.replace(spec, length_m=rng.uniform(0.0, 5000.0),
                                   attenuation_db_per_km=rng.uniform(0.1, 1.0))
    if isinstance(spec, PhotodetectorSpec):
        sensitivity = rng.choice((None, rng.uniform(-30.0, 10.0)))
        return dataclasses.replace(
            spec, responsivity_a_per_w=rng.uniform(0.5, 1.1),
            saturation_power_dbm=rng.uniform(-5.0, 24.0),
            dark_current_a=rng.uniform(0.0, 1e-6), sensitivity_dbm=sensitivity)
    return spec


def redrawn_scenario(scenario, rng):
    """``scenario`` with every library value redrawn, and N, the lanes and a
    transmitter booster drawn too."""
    return dataclasses.replace(
        scenario,
        library={name: _redraw(spec, rng)
                 for name, spec in sorted(scenario.library.items())},
        n_dtrm=rng.choice((1, 3, 8)),
        shared_fiber=rng.choice((True, False)),
        otxc_edfa=rng.choice((None, scenario.fojb_edfa)))


def analysis_class(path, topology) -> tuple:
    """Per-path oracle of ``SignalPath.class_key``: a key under which paths
    of one topology get equal metrics, ids aside.

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
    """The JSON payload of ``report`` with every path's metrics and every
    worst case built from the materialized metrics, path by path: the oracle
    of the class-stamped writer."""
    payload = _json_payload(report)
    for variant, entry in zip(report.variants, payload["variants"]):
        for result, path_entry in zip(variant.paths, entry["paths"], strict=True):
            path_entry["metrics"] = metrics_json(result.metrics)
        if variant.worst is not None:
            entry["worst_case"] = metrics_json(variant.worst)
    return payload


@pytest.fixture(scope="session")
def reference_scenario():
    return parse_scenario(reference_scenario_path())
