"""Part references, by two routes. A scenario binds library parts to the
roles of the forward and return networks; the parse lists every part that
cannot fill its role under the scenario key that names it, and the network
builders, called with the same names, refuse exactly those parts they can
judge. A builder does not know the variant's modulation, so a modulator of
the wrong scheme is refused at parse and by the analysis, not by the build.

The roles, their part types and their scheme or kind are written out here by
hand, apart from the tables in ``photonlink.topology``."""

import copy
import json
import random

import pytest

from photonlink.cli import EXIT_INPUT, main
from photonlink.components import (
    DetectorKind,
    EdfaSpec,
    FiberSpec,
    LaserSpec,
    Modulation,
    ModulatorSpec,
    MuxDemuxSpec,
    PhotodetectorSpec,
    SplitterSpec,
    parse_component_library,
)
from photonlink.data import reference_scenario_path
from photonlink.errors import AnalysisError, BuildError, ScenarioError
from photonlink.linkbudget import analyze_path
from photonlink.scenario import parse_scenario
from photonlink.topology import (
    FORWARD_ROLES,
    RETURN_ROLES,
    ChannelPlan,
    ForwardBindings,
    ReturnBindings,
    build_forward_network,
    build_return_network,
    enumerate_paths,
)

REFERENCE = json.loads(reference_scenario_path().read_text())
LIBRARY, _ = parse_component_library(REFERENCE["components"])
ANALYSIS = parse_scenario(REFERENCE).analysis
SPEC_TYPES = (LaserSpec, ModulatorSpec, MuxDemuxSpec, EdfaSpec, SplitterSpec,
              FiberSpec, PhotodetectorSpec)


def _slots():
    """Scenario key -> (where it sits in the document, the part type it
    takes, and the scheme or kind the part must have, or None)."""
    bind, ret = ("topology", "bindings"), ("topology", "return")
    slots = {}
    for token, scheme in (("dm", Modulation.DIRECT), ("em", Modulation.EXTERNAL)):
        slots[f"topology.bindings.modulator.{token}"] = (
            bind + ("modulator", token), ModulatorSpec, scheme)
    for role in ("mux", "demux"):
        for grating in ("vbg", "awg"):
            slots[f"topology.bindings.{role}.{grating}"] = (
                bind + (role, grating), MuxDemuxSpec, None)
    for role, spec in (("splitter", SplitterSpec), ("fojb_edfa", EdfaSpec),
                       ("analog_detector", PhotodetectorSpec),
                       ("digital_detector", PhotodetectorSpec),
                       ("trunk_fiber", FiberSpec), ("drop_fiber", FiberSpec),
                       ("otxc_edfa", EdfaSpec)):
        slots[f"topology.bindings.{role}"] = (bind + (role,), spec, None)
    for i in range(len(REFERENCE["topology"]["channels"])):
        slots[f"topology.channels[{i}].laser"] = (
            ("topology", "channels", i, "laser"), LaserSpec, None)
    for i in range(4):
        slots[f"topology.return.lasers[{i}]"] = (
            ret + ("lasers", i), LaserSpec, None)
    for role, spec in (("modulator", ModulatorSpec), ("mux", MuxDemuxSpec),
                       ("demux", MuxDemuxSpec), ("fiber", FiberSpec)):
        slots[f"topology.return.{role}"] = (ret + (role,), spec, None)
    slots["topology.return.detector"] = (
        ret + ("detector",), PhotodetectorSpec, DetectorKind.DIGITAL)
    return slots


SLOTS = _slots()


def bad_parts(key) -> list[tuple[str, str]]:
    """(part name, fault) for every way to get ``key`` wrong: a missing name,
    the first library part of each other type, and each part of the right
    type but of the wrong modulation scheme or detector kind."""
    _, spec, wanted = SLOTS[key]
    faults = [("no_such_part", "missing")]
    for other in SPEC_TYPES:
        if other is not spec:
            name = next(n for n, s in LIBRARY.items() if type(s) is other)
            faults.append((name, "type"))
    if isinstance(wanted, Modulation):
        faults += [(name, "scheme") for name, s in LIBRARY.items()
                   if type(s) is spec and s.scheme is not wanted]
    elif wanted is not None:
        faults += [(name, "kind") for name, s in LIBRARY.items()
                   if type(s) is spec and s.kind is not wanted]
    return faults


def bound(doc, key, name):
    *head, last = SLOTS[key][0]
    node = doc
    for step in head:
        node = node[step]
    node[last] = name


def mutated(faults: dict[str, tuple[str, str]]) -> dict:
    doc = copy.deepcopy(REFERENCE)
    for key, (name, _) in faults.items():
        bound(doc, key, name)
    return doc


def problem_keys(doc) -> list[str]:
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(doc)
    return sorted(p.split(": ", 1)[0] for p in excinfo.value.problems)


def built(doc) -> list:
    """Every (modulation, grating) forward network and the return network,
    built from the document's names as a library caller would."""
    topo = doc["topology"]
    bindings = topo["bindings"]
    channels = [ChannelPlan(c["id"], c["laser"], DetectorKind(c["kind"]))
                for c in topo["channels"]]
    shared = {k: v for k, v in bindings.items()
              if k not in ("modulator", "mux", "demux")}
    networks = [
        build_forward_network(doc["topology"]["n_dtrm"], channels, LIBRARY,
                              ForwardBindings(modulator=bindings["modulator"][m],
                                              mux=bindings["mux"][g],
                                              demux=bindings["demux"][g], **shared))
        for m in ("dm", "em") for g in ("vbg", "awg")]
    ret = {k: v for k, v in topo["return"].items() if k != "enabled"}
    networks.append(build_return_network(
        topo["n_dtrm"], LIBRARY,
        ReturnBindings(**{**ret, "lasers": tuple(ret["lasers"])})))
    return networks


def check(faults: dict[str, tuple[str, str]]) -> None:
    doc = mutated(faults)
    # One problem per faulty key, and no other.
    assert problem_keys(doc) == sorted(faults), faults
    judged = any(fault != "scheme" for _, fault in faults.values())
    try:
        networks = built(doc)
    except BuildError:
        assert judged, faults
        return
    assert not judged, faults
    # Only modulators of the wrong scheme are left: the builders take them,
    # and the analysis refuses each one.
    for key in faults:
        token = key.rsplit(".", 1)[1]
        network = networks[0 if token == "dm" else 2]
        path = enumerate_paths(network)[0].cls.path
        with pytest.raises(AnalysisError, match="modulator"):
            analyze_path(path, Modulation.from_token(token), ANALYSIS)


def test_the_roles_here_are_the_tables_roles():
    forward = {key.split(".")[2]: spec for key, (_, spec, _) in SLOTS.items()
               if key.startswith("topology.bindings.")}
    assert {k: r.spec for k, r in FORWARD_ROLES.items()} == forward
    assert tuple(FORWARD_ROLES) == ForwardBindings._fields
    assert tuple(RETURN_ROLES) == ReturnBindings._fields
    assert RETURN_ROLES["lasers"].spec is LaserSpec
    for role, r in RETURN_ROLES.items():
        if role != "lasers":
            _, spec, wanted = SLOTS[f"topology.return.{role}"]
            assert (r.spec, r.value) == (spec, wanted)


def test_the_reference_binds_every_role_well():
    for key, (path, spec, _) in SLOTS.items():
        node = REFERENCE
        for step in path:
            node = node.get(step) if isinstance(node, dict) else node[step]
            if node is None:
                break
        assert node is None or isinstance(LIBRARY[node], spec), key
    assert built(REFERENCE)


@pytest.mark.parametrize("key", sorted(SLOTS))
def test_each_bad_part_alone(key):
    for name, fault in bad_parts(key):
        check({key: (name, fault)})


@pytest.mark.parametrize("seed", range(32))
def test_one_to_four_bad_parts(seed):
    rng = random.Random(seed)
    keys = rng.sample(sorted(SLOTS), rng.randint(1, 4))
    check({key: rng.choice(bad_parts(key)) for key in keys})


FOUR_FAULTS = {
    "topology.bindings.mux.awg": ("fojb_splitter", "type"),
    "topology.channels[0].laser": ("trunk_fiber", "type"),
    "topology.return.detector": ("analog_pd", "kind"),
    "topology.bindings.modulator.dm": ("em_modulator", "scheme"),
}


# A required field of each part type and a value its check refuses with
# exactly one problem.
BAD_FIELDS = {
    LaserSpec: ("output_power_w", -1.0),
    ModulatorSpec: ("bandwidth_hz", -1.0),
    MuxDemuxSpec: ("channel_spacing_nm", 0.0),
    EdfaSpec: ("noise_figure_db", 0.0),
    SplitterSpec: ("fanout", 0),
    FiberSpec: ("length_m", -5.0),
    PhotodetectorSpec: ("bandwidth_hz", 0.0),
}


@pytest.mark.parametrize("seed", range(32))
def test_bad_entries_and_dangling_references(seed):
    """One to four library entries made invalid (a refused value or a
    missing field) and one to four roles bound to missing parts: each
    fault is listed once, under its entry's field or its scenario key. A
    role bound to an invalid entry is not listed, and no valid part is
    reported unknown."""
    rng = random.Random(seed)
    doc = copy.deepcopy(REFERENCE)
    expected = []
    for name in rng.sample(sorted(LIBRARY), rng.randint(1, 4)):
        field, value = BAD_FIELDS[type(LIBRARY[name])]
        if rng.random() < 0.5:
            del doc["components"][name][field]
        else:
            doc["components"][name][field] = value
        expected.append(f"{name}.{field}")
    for key in rng.sample(sorted(SLOTS), rng.randint(1, 4)):
        bound(doc, key, "no_such_part")
        expected.append(key)
    assert problem_keys(doc) == sorted(expected)


@pytest.mark.parametrize("command", ["validate", "analyze", "tradeoff"])
def test_every_command_lists_every_fault(tmp_path, capsys, command):
    one = tmp_path / "one.json"
    one.write_text(json.dumps(mutated(
        {"topology.bindings.mux.awg": ("fojb_splitter", "type")})))
    assert main([command, "--scenario", str(one)]) == EXIT_INPUT
    assert "topology.bindings.mux.awg: component 'fojb_splitter' is a " \
           "SplitterSpec, expected MuxDemuxSpec" in capsys.readouterr().err
    four = tmp_path / "four.json"
    four.write_text(json.dumps(mutated(FOUR_FAULTS)))
    assert main([command, "--scenario", str(four)]) == EXIT_INPUT
    err = capsys.readouterr().err
    for key in FOUR_FAULTS:
        assert f"  - {key}: " in err, key
    assert "has scheme 'external', expected 'direct'" in err
    assert "has kind 'analog', expected 'digital'" in err


@pytest.mark.parametrize("components", [[], None, "parts"], ids=repr)
def test_a_library_that_is_not_an_object_is_listed_once(tmp_path, capsys,
                                                         components):
    """No part can be looked up in a library that is not an object, so its
    one problem is listed, and no part reference again as unknown."""
    doc = copy.deepcopy(REFERENCE)
    doc["components"] = components
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["tradeoff", "--scenario", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: scenario is invalid:\n"
        "  - components: component library must be a JSON object\n")


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("absent", [True, False], ids=["absent", "null"])
@pytest.mark.parametrize("where, key", [("bindings", "trunk_fiber"),
                                        ("bindings", "drop_fiber"),
                                        ("return", "fiber")])
def test_every_fiber_is_required(tmp_path, capsys, where, key, absent, command):
    """A network without its fiber never builds, so a fiber left out or null
    is one parse problem, not one violation per edge that lacks it."""
    doc = copy.deepcopy(REFERENCE)
    if absent:
        del doc["topology"][where][key]
    else:
        doc["topology"][where][key] = None
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--scenario", str(path)]) == EXIT_INPUT
    problem = "required" if absent else "must be a non-empty string, got None"
    assert capsys.readouterr().err == (
        "error: scenario is invalid:\n"
        f"  - topology.{where}.{key}: {problem}\n")
