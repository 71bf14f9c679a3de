"""Class-keyed topology validation against the per-member oracle.

``validate_topology`` runs the composition rules and the wavelength
bookkeeping once for each node or edge class that passes, keyed by what the
checks read but channel names, and at every member of a class that fails.
``per_member_validation`` in conftest runs them at every node and edge. The
two must agree in content and order on the reference networks and on seeded
faults injected at some receiver chips or edges only.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from photonlink import cli
from photonlink import topology as topology_module
from photonlink.components import DetectorKind
from photonlink.data import reference_scenario_path
from photonlink.scenario import parse_scenario
from photonlink.topology import (
    FiberEdge,
    NodeKind,
    adjacency_dump,
    build_forward_network,
    build_return_network,
    return_groups,
    validate_topology,
)

from conftest import (
    forward_fixture_bindings,
    forward_fixture_channels,
    forward_fixture_library,
    mk_pd,
    per_member_validation,
    return_fixture_bindings,
    return_fixture_library,
    workload_document,
)


def assert_matches_per_member(topology):
    want = per_member_validation(topology).violations
    assert validate_topology(topology).violations == want
    return want


def forward(n, **kwargs):
    return build_forward_network(
        n, forward_fixture_channels(), forward_fixture_library(),
        forward_fixture_bindings(**kwargs.pop("bindings", {})), **kwargs)


def backward(n):
    return build_return_network(n, return_fixture_library(),
                                return_fixture_bindings())


def test_reference_scenario_networks():
    scenario = parse_scenario(reference_scenario_path())
    for variant in scenario.variants:
        assert assert_matches_per_member(cli._forward_topology(scenario, variant)) == ()
    assert assert_matches_per_member(cli._return_topology(scenario)) == ()


@pytest.mark.parametrize("n", [8, 64])
def test_fixture_networks(n):
    for topology in (forward(n), forward(n, shared_fiber=False),
                     forward(n, bindings={"otxc_edfa": "edfa"}), backward(n)):
        assert assert_matches_per_member(topology) == ()


# Seeded faults, each applied to a random share of the receiver chips or of
# the edges that feed them. Each takes and returns the topology.

def _some(rng, items):
    items = list(items)
    return set(rng.sample(items, rng.randint(1, max(1, len(items) // 2))))


def _receivers(topology):
    return [n for n in topology.nodes if n.kind is NodeKind.ORXC]


def _feeds(topology):
    """Channel-carrying edges into receiver chips."""
    ids = {n.id for n in _receivers(topology)}
    return [e for e in topology.edges if e.target in ids and e.channels]


def _with_nodes(topology, victims, change):
    return topology._replace(nodes=tuple(
        change(n) if n in victims else n for n in topology.nodes))


def _with_edges(topology, victims, change):
    return topology._replace(edges=tuple(
        change(e) if e in victims else e for e in topology.edges))


def drop_or_duplicate_part(topology, rng):
    """A receiver chip loses or gains one of its parts: a demux or a
    detector."""
    name = rng.choice(sorted(set(_receivers(topology)[0].components)))
    drop = rng.random() < 0.5

    def change(node):
        parts = list(node.components)
        if drop and name in parts:
            parts.remove(name)
        elif not drop:
            parts.insert(rng.randrange(len(parts) + 1), name)
        return node._replace(components=tuple(parts))

    return _with_nodes(topology, _some(rng, _receivers(topology)), change)


def wrong_kind_detector(topology, rng):
    """A receiver chip fits a detector of the other kind in place of one of
    its detectors."""
    library = dict(topology.library)
    library["pd_swapped_analog"] = mk_pd(kind=DetectorKind.ANALOG)
    library["pd_swapped_digital"] = mk_pd(kind=DetectorKind.DIGITAL)
    name = rng.choice(sorted(set(topology.channel_detectors.values())))
    other = ("pd_swapped_digital" if library[name].kind is DetectorKind.ANALOG
             else "pd_swapped_analog")

    def change(node):
        parts = tuple(other if part == name else part for part in node.components)
        return node._replace(components=parts)

    topology = topology._replace(library=library)
    return _with_nodes(topology, _some(rng, _receivers(topology)), change)


def fanout_mismatch(topology, rng):
    """Some legs into receiver chips are dropped or doubled, so the splitter
    fanout no longer matches them."""
    victims = _some(rng, _feeds(topology))
    if rng.random() < 0.5:
        return topology._replace(edges=tuple(
            e for e in topology.edges if e not in victims))
    return topology._replace(edges=topology.edges + tuple(
        e._replace() for e in topology.edges if e in victims))


def missing_fiber(topology, rng):
    """A channel-carrying edge without a fiber."""
    return _with_edges(topology, _some(rng, _feeds(topology)),
                       lambda e: e._replace(fiber=None))


def stray_wavelength(topology, rng):
    """Some edges carry one more channel: off-band, too close to or at the
    wavelength of a planned one, or missing from the plan."""
    plan = dict(topology.wavelength_plan)
    kinds = dict(topology.channel_kinds)
    anchor = plan[rng.choice(sorted(plan))]
    placement = rng.choice(("off-band", "too-close", "collision", "unplanned"))
    if placement != "unplanned":
        plan["stray"] = {"off-band": rng.choice((1260.0, 1700.0)),
                         "too-close": anchor + 0.3,
                         "collision": anchor}[placement]
    if rng.random() < 0.5:
        kinds["stray"] = rng.choice((DetectorKind.ANALOG, DetectorKind.DIGITAL))
    topology = topology._replace(wavelength_plan=plan, channel_kinds=kinds)
    return _with_edges(topology, _some(rng, _feeds(topology)),
                       lambda e: e._replace(channels=e.channels | {"stray"}))


def dangling_edge(topology, rng):
    """An edge out of a receiver chip, or one of its feeds, ends at a node
    that does not exist."""
    if rng.random() < 0.5:
        return _with_edges(topology, _some(rng, _feeds(topology)),
                           lambda e: e._replace(target="ghost"))
    extra = tuple(FiberEdge(n.id, "ghost", None)
                  for n in _some(rng, _receivers(topology)))
    return topology._replace(edges=topology.edges + extra)


def extra_lane(topology, rng):
    """Some channel-carrying edges out of a transmitter chip or the junction
    box gain a copy on a lane of their own, which the sender has no mux or
    splitter for and the receiver chip no demux."""
    senders = {n.id for n in topology.nodes if n.kind in (
        NodeKind.OTXC, NodeKind.DIGITAL_OTXC, NodeKind.FOJB)}
    lane = 1 + max(e.lane for e in topology.edges)
    victims = _some(rng, [e for e in topology.edges
                          if e.source in senders and e.channels])
    return topology._replace(edges=topology.edges + tuple(
        e._replace(lane=lane) for e in topology.edges if e in victims))


FAULTS = (drop_or_duplicate_part, wrong_kind_detector, fanout_mismatch,
          missing_fiber, stray_wavelength, dangling_edge, extra_lane)


def _base(rng):
    n = rng.choice((8, 64))
    shape = rng.choice(("shared", "split", "boosted", "return"))
    if shape == "return":
        return backward(n)
    if shape == "split":
        return forward(n, shared_fiber=False)
    if shape == "boosted":
        return forward(n, bindings={"otxc_edfa": "edfa"})
    return forward(n)


@pytest.mark.parametrize("batch", range(8))
def test_injected_faults_match_per_member(batch):
    """30 seeded cases per batch, 240 in all, of one to three faults each."""
    rng = random.Random(9000 + batch)
    flagged = 0
    for case in range(30):
        topology = _base(rng)
        for fault in rng.sample(FAULTS, rng.randint(1, 3)):
            topology = fault(topology, rng)
        want = per_member_validation(topology).violations
        got = validate_topology(topology).violations
        assert got == want, f"batch {batch} case {case}"
        flagged += bool(want)
    assert flagged >= 25


@pytest.mark.parametrize("fault", FAULTS, ids=[f.__name__ for f in FAULTS])
def test_each_fault_is_listed(fault):
    """Each fault alone, at N=64, gives violations, and some receiver chip
    is not among their subjects."""
    rng = random.Random(fault.__name__)
    topology = fault(forward(64), rng)
    want = assert_matches_per_member(topology)
    assert want
    assert {n.id for n in _receivers(topology)} - {v.subject for v in want}


@pytest.mark.parametrize("shape", ["forward", "return"])
@pytest.mark.parametrize("fault", FAULTS, ids=[f.__name__ for f in FAULTS])
def test_each_fault_at_n1024_matches_per_member(fault, shape):
    """Each fault alone, on the forward or the return network at N=1024."""
    rng = random.Random(f"{fault.__name__}-{shape}-1024")
    topology = fault(forward(1024) if shape == "forward" else backward(1024), rng)
    want = assert_matches_per_member(topology)
    if shape == "forward":
        assert want


def test_spacing_fault_at_n1024_is_listed_once_per_group(tmp_path, capsys):
    """The benchmark's seed-1 validate-n1024 scenario with ``dret2_laser``
    0.3 nm from ``dret1_laser``: every one of the 256 return groups fails
    the spacing check, each is checked on its own and lists its own pair."""
    document = workload_document("validate-n1024", 1)
    parts = document["components"]
    parts["dret2_laser"]["wavelength_nm"] = parts["dret1_laser"]["wavelength_nm"] + 0.3
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(document))
    assert cli.main(["validate", "--scenario", str(scenario)]) == cli.EXIT_INPUT
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("  - ")] == [
        f"  - dotxc{g:03d}->dbfu_rx{g:03d}.channels: channels "
        f"'rx{4 * g - 3:04d}'/'rx{4 * g - 2:04d}' spaced 0.300 nm < minimum 0.8 nm"
        for g in range(1, 257)]


@pytest.mark.parametrize("fault", ["spacing", "detector", "binding", "kind"])
def test_every_member_of_a_failing_return_class_is_listed(fault):
    """At N=64 every return group fails one check: its channels sit closer
    than the minimum spacing, or its receiver chip's detectors are analog.
    Or every group but the first does: its channels are bound to an analog
    detector, or are analog themselves. The failing groups form one class,
    each is checked on its own and names its own channels."""
    topology = backward(64)
    groups = return_groups(topology)
    assert len(groups) == 16
    later = {ch for _, channels in groups[1:] for ch in channels}
    if fault == "spacing":
        topology = topology._replace(min_channel_spacing_nm=1.0)
    elif fault == "detector":
        topology = topology._replace(library=dict(
            topology.library, dpd=mk_pd(kind=DetectorKind.ANALOG)))
    elif fault == "binding":
        topology = topology._replace(
            library=dict(topology.library, apd=mk_pd(kind=DetectorKind.ANALOG)),
            channel_detectors={ch: "apd" if ch in later else name
                               for ch, name in topology.channel_detectors.items()})
    else:
        topology = topology._replace(channel_kinds={
            ch: DetectorKind.ANALOG if ch in later else kind
            for ch, kind in topology.channel_kinds.items()})
    want = assert_matches_per_member(topology)
    for g, (_, channels) in enumerate(groups):
        named = [v for v in want if any(repr(ch) in v.message for ch in channels)]
        if g == 0 and fault in ("binding", "kind"):
            assert named == []
            continue
        assert len({v.subject for v in named}) == 1
        assert all(any(repr(ch) in v.message for v in named) for ch in channels)


@pytest.mark.parametrize("shared_fiber", [True, False, None],
                         ids=["True", "False", "return"])
def test_checks_run_once_per_class(monkeypatch, shared_fiber):
    """Whatever N, the forward network (shared fiber or split lanes) has one
    node class per kind and one edge class per (fiber, channel set), and the
    return network (None) has 4 node classes and 2 edge classes, since its
    groups differ only in channel names. The adjacency listing formats each
    distinct channel set once."""
    counts = {}
    for name in ("_node_checks", "_edge_checks"):
        real = getattr(topology_module, name)

        def counting(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(topology_module, name, counting)

    def network(n):
        if shared_fiber is None:
            return backward(n)
        return forward(n, shared_fiber=shared_fiber)

    seen = {}
    for n in (8, 64, 1024):
        topology = network(n)
        counts.update(_node_checks=0, _edge_checks=0)
        assert validate_topology(topology).ok
        seen[n] = dict(counts)
        if shared_fiber is None:
            assert counts == {"_node_checks": 4, "_edge_checks": 2}
            continue
        assert counts["_node_checks"] == len({node.kind for node in topology.nodes})
        assert counts["_edge_checks"] == len({(e.fiber, e.channels)
                                              for e in topology.edges})
    assert seen[8] == seen[64] == seen[1024]

    class Counted(frozenset):
        walks = 0

        def __iter__(self):
            Counted.walks += 1
            return super().__iter__()

    # Every edge gets its own set object, so only equal values can share.
    topology = network(1024)
    counted = topology._replace(edges=tuple(
        e._replace(channels=Counted(e.channels))
        for e in topology.edges))
    Counted.walks = 0
    assert adjacency_dump(counted) == adjacency_dump(topology)
    assert Counted.walks == len({e.channels for e in topology.edges if e.channels})


def test_wrong_kind_detector_messages_ignore_the_hash_seed(tmp_path):
    """Every analog channel on a digital detector, or the second laser of
    every return group 0.1 nm from the first: the messages list the channels
    in name order and the classes sort their channels, so the report is the
    same under any hash seed."""
    src = Path(topology_module.__file__).resolve().parents[1]
    reports = []
    for section, name, field, value in (
            ("topology", "bindings", "analog_detector", "clock_pd"),
            ("components", "dret2_laser", "wavelength_nm", 1530.1)):
        document = json.loads(reference_scenario_path().read_text())
        document[section][name][field] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(document))
        outputs = []
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
            done = subprocess.run(
                [sys.executable, "-m", "photonlink.cli", "validate",
                 "--scenario", str(scenario), "--format", "text"],
                env=env, capture_output=True)
            assert done.returncode == cli.EXIT_INPUT, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        reports.append(outputs[0])
    assert b"analog channel 'cal1' terminated on a digital detector" in reports[0]
    spaced = [line for line in reports[1].splitlines() if b" spaced " in line]
    assert spaced == [
        f"  - dotxc{g:02d}->dbfu_rx{g:02d}.channels: channels 'rx{4 * g - 3:02d}'/"
        f"'rx{4 * g - 2:02d}' spaced 0.100 nm < minimum 0.8 nm".encode()
        for g in range(1, 5)]


@pytest.mark.parametrize("name, nm, channels", [
    ("lo1_laser", 1250.0, ["lo1"]),
    ("dret1_laser", 1700.0, ["rx01", "rx05", "rx09", "rx13"]),
])
def test_out_of_band_laser_is_listed_once_per_channel(tmp_path, capsys,
                                                      name, nm, channels):
    """An out-of-band laser on the reference scenario is one violation per
    channel it drives: not one more at each node that holds the part, nor
    on each edge that carries the channel. The report is the same under any
    hash seed."""
    document = json.loads(reference_scenario_path().read_text())
    document["components"][name]["wavelength_nm"] = nm
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(document))
    assert cli.main(["validate", "--scenario", str(scenario)]) == cli.EXIT_INPUT
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("  - ")] == [
        f"  - topology.channels: channel {ch!r} at {nm} nm outside "
        "[1300, 1650] nm" for ch in channels]
    src = Path(topology_module.__file__).resolve().parents[1]
    outputs = set()
    for seed in ("1", "2", "3"):
        done = subprocess.run(
            [sys.executable, "-m", "photonlink.cli", "validate",
             "--scenario", str(scenario)],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
            capture_output=True)
        assert done.returncode == cli.EXIT_INPUT, done.stderr
        outputs.add(done.stdout)
    assert outputs == {"\n".join(lines).encode() + b"\n"}
