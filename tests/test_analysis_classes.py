"""Class analysis: ``analyze_path`` runs once per analysis class and every
other member of the class gets its numbers relabeled. Each check compares the
result, under exact ``==``, with ``analyze_path`` run on every path."""

import random

import pytest

from photonlink import cli
from photonlink import topology as topology_module
from photonlink.linkbudget import (
    analyze_path,
    autogained,
    propagation_delay_s,
    worst_case,
)
from photonlink.scenario import parse_scenario
from photonlink.topology import ElementKind, enumerate_paths

from conftest import (
    analysis_class,
    class_partition,
    per_path_enumeration,
    redrawn_scenario,
    workload_document,
)


@pytest.fixture
def analyze_calls(monkeypatch):
    """Paths handed to ``analyze_path`` through the CLI's namespace."""
    calls = []
    real = cli.analyze_path

    def counting(path, *args, **kwargs):
        calls.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(cli, "analyze_path", counting)
    return calls


def per_path(paths, modulation, config):
    reference = propagation_delay_s(paths[0])
    return [analyze_path(p, modulation, config, reference_delay_s=reference)
            for p in paths]


def assert_matches_per_path(scenario, variant, topology=None):
    """Class analysis of one variant against per-path analysis; returns the
    paths and their metrics."""
    topology = topology or cli._forward_topology(scenario, variant)
    members = enumerate_paths(topology)
    paths = [m.path for m in members]
    classes, results = cli._analyze_classes(members, variant.modulation,
                                            scenario.analysis)
    assert [c.cls for c in classes] == list(dict.fromkeys(m.cls for m in members))
    want = per_path(paths, variant.modulation, scenario.analysis)
    assert len(results) == len(want) == len(paths)
    for path, result, theirs in zip(paths, results, want):
        assert result.metrics == theirs, path.path_id
        assert result.flags == theirs.flags, path.path_id
    return paths, [r.metrics for r in results]


def test_reference_scenario_all_variants(reference_scenario, analyze_calls):
    scenario = reference_scenario
    variants = scenario.variants
    assert len(variants) == 6
    for variant in variants:
        analyze_calls.clear()
        paths, _ = assert_matches_per_path(scenario, variant)
        assert len(paths) == 8 * 16
        # One analysis per channel: every destination of a channel shares it.
        assert len(analyze_calls) == 8
        assert sorted(p.channel for p in analyze_calls) == sorted(
            ch.id for ch in scenario.channels)


def test_cli_run_analyzes_once_per_class(reference_scenario, analyze_calls):
    report = cli.run("analyze", reference_scenario)
    assert len(report.variants) == 6
    # si and hip of one modulation and grating share a forward network: four
    # distinct networks, each analyzed once per channel.
    assert len(analyze_calls) == 4 * 8


@pytest.mark.parametrize("seed", range(8))
def test_randomized_libraries(reference_scenario, seed):
    rng = random.Random(seed)
    scenario = redrawn_scenario(reference_scenario, rng)
    variants = scenario.variants
    for variant in rng.sample(variants, 2):
        assert_matches_per_path(scenario, variant)


def swapped_drop_fiber(scenario):
    """``scenario`` with a 2.5 km spare drop fiber in its library, and its
    first variant's forward network with that fiber on the drop to orxc03."""
    library = dict(scenario.library)
    drop_fiber = scenario.forward_bindings(scenario.variants[0]).drop_fiber
    library["spare_drop"] = library[drop_fiber]._replace(length_m=2500.0)
    scenario = scenario._replace(library=library)
    variant = scenario.variants[0]
    built = cli._forward_topology(scenario, variant)
    victim = next(e for e in built.edges if e.target == "orxc03")
    topology = built._replace(edges=tuple(
        e._replace(fiber="spare_drop") if e is victim else e
        for e in built.edges))
    return scenario, variant, topology


def saturated_detectors(scenario):
    """``scenario`` with both detectors saturating at -40 dBm."""
    library = dict(scenario.library)
    bindings = scenario.forward_bindings(scenario.variants[0])
    for name in (bindings.analog_detector, bindings.digital_detector):
        library[name] = library[name]._replace(saturation_power_dbm=-40.0)
    return scenario._replace(library=library)


def test_swapped_drop_fiber_splits_its_destination(reference_scenario,
                                                   analyze_calls):
    scenario, variant, topology = swapped_drop_fiber(reference_scenario)

    analyze_calls.clear()
    members = enumerate_paths(topology)
    metrics = [r.metrics for r in cli._analyze_classes(
        members, variant.modulation, scenario.analysis)[1]]
    channels = len(scenario.channels)
    assert len(analyze_calls) == 2 * channels
    assert sorted(p.destination for p in analyze_calls) == (
        ["dtrm01"] * channels + ["dtrm03"] * channels)
    by_id = {p.path_id: m for p, m in zip(members, metrics)}
    for channel in scenario.channels:
        moved = f"forward:{channel.id}->dtrm03"
        kept = f"forward:{channel.id}->dtrm02"
        drop_loss = [by_id[i].optical_ledger.entries[-3] for i in (moved, kept)]
        assert [e.element_id for e in drop_loss] == ["fojb->orxc03", "fojb->orxc02"]
        assert drop_loss[0].delta_db < drop_loss[1].delta_db
        assert by_id[moved].pulse_skew_s > by_id[kept].pulse_skew_s == 0.0
    assert_matches_per_path(scenario, variant, topology)


def test_detector_saturation_flags_name_each_path(reference_scenario):
    scenario = saturated_detectors(reference_scenario)
    variant = scenario.variants[0]
    paths, metrics = assert_matches_per_path(scenario, variant)

    for path, m in zip(paths, metrics):
        (flag,) = m.flags
        detector = path.elements[-1]
        assert detector.kind is ElementKind.DETECTOR
        assert detector.element_id == f"{detector.node}.pd.{path.channel}"
        assert detector.node.startswith("orxc")
        assert flag.startswith(f"{detector.element_id}: input ")
        assert flag.endswith("above saturation -40.00 dBm")
        assert m.optical_ledger.flags == m.flags
        assert [e.element_id for e in m.optical_ledger.entries] == [
            e.element_id for e in path.elements]
    assert len(worst_case(metrics).flags) == len(paths)


# Dual route for enumeration: the members' paths must equal the per-path
# oracle's, and the partition by the members' classes must equal the
# partition by the per-path class oracle, both in conftest.


def assert_partition_matches(topology):
    """The paths of ``enumerate_paths(topology)`` and their classes, checked
    against the oracles. A class's own path is its first member's, every
    member starts with the class's prefix, and every member's path, tuned
    or not, carries the class path's co-propagating channels."""
    members = enumerate_paths(topology)
    paths = [m.path for m in members]
    assert paths == per_path_enumeration(topology)
    classes = class_partition(members, lambda m: m.cls)
    assert classes == class_partition(
        paths, lambda p: analysis_class(p, topology))
    for indices in classes:
        cls = members[indices[0]].cls
        assert cls.path == paths[indices[0]]
        assert all(paths[i].elements[:len(cls.prefix)] == cls.prefix
                   for i in indices)
        for i in indices:
            assert paths[i].co_propagating == cls.path.co_propagating
            assert autogained(paths[i]).co_propagating == cls.path.co_propagating
    return paths, classes


def assert_variants_partition(scenario, variants):
    for variant in variants:
        assert_partition_matches(cli._forward_topology(scenario, variant))


def test_partition_reference_variants(reference_scenario):
    variants = reference_scenario.variants
    assert len(variants) == 6
    for variant in variants:
        paths, classes = assert_partition_matches(
            cli._forward_topology(reference_scenario, variant))
        assert len(paths) == 8 * 16
        assert len(classes) == 8
    paths, classes = assert_partition_matches(
        cli._return_topology(reference_scenario))
    assert len(classes) == len(paths) == 16


@pytest.mark.parametrize("seed", range(8))
def test_partition_randomized_libraries(reference_scenario, seed):
    scenario = redrawn_scenario(reference_scenario, random.Random(seed))
    assert_variants_partition(scenario, scenario.variants)


def test_partition_swapped_drop_fiber(reference_scenario):
    scenario, _, topology = swapped_drop_fiber(reference_scenario)
    _, classes = assert_partition_matches(topology)
    assert len(classes) == 2 * len(scenario.channels)


def test_partition_saturated_detectors(reference_scenario):
    scenario = saturated_detectors(reference_scenario)
    assert_variants_partition(scenario, scenario.variants)


def test_partition_split_lanes_many_channels():
    # 48 channels on two lanes. Each channel's prefix is dropped once its
    # paths are built, so a later channel's prefix can take over its memory:
    # a memo keyed on a prefix's id() would mix the two channels up.
    document = workload_document("analyze-dwdm48-csv", 1)
    document["variant"] = "all"
    scenario = parse_scenario(document)
    assert not scenario.shared_fiber and len(scenario.channels) >= 40
    variants = scenario.variants
    assert len(variants) == 6
    for variant in variants:
        paths, classes = assert_partition_matches(
            cli._forward_topology(scenario, variant))
        assert len(classes) == len(scenario.channels)
        assert any(".lane1" in e.element_id for p in paths for e in p.elements)


def test_element_order_is_checked_once_per_kind_sequence(reference_scenario,
                                                         monkeypatch):
    checked = []
    real = topology_module._LEGAL_PATH_RE

    class Counting:
        def match(self, tokens):
            checked.append(tokens)
            return real.match(tokens)

    monkeypatch.setattr(topology_module, "_LEGAL_PATH_RE", Counting())
    rng = random.Random(5)
    topologies = [cli._return_topology(reference_scenario)]
    for scenario in [reference_scenario] + [
            redrawn_scenario(reference_scenario, rng) for _ in range(4)]:
        topologies += [cli._forward_topology(scenario, variant)
                       for variant in scenario.variants]
    sequences = set()
    for topology in topologies:
        checked.clear()
        members = enumerate_paths(topology)
        tokens = {m.path.kind_tokens() for m in members}
        assert sorted(checked) == sorted(tokens)
        sequences |= tokens
    # Both the forward order with and without a transmitter booster, and
    # the return order.
    assert len(sequences) == 3


def test_each_prefix_of_a_class_flags_its_own_elements(reference_scenario):
    # Valid networks give a channel one prefix, so a second one is built by
    # hand: every other member moves to a copy of its class whose prefix is
    # renamed, and whose own path is its first member's. The junction-box
    # amplifier, a prefix element, saturates on every path.
    scenario = reference_scenario
    library = dict(scenario.library)
    fojb_edfa = scenario.forward_bindings(scenario.variants[0]).fojb_edfa
    library[fojb_edfa] = library[fojb_edfa]._replace(
        saturation_output_power_dbm=-10.0)
    scenario = scenario._replace(library=library)
    variant = scenario.variants[0]
    topology = cli._forward_topology(scenario, variant)
    members = enumerate_paths(topology)
    copies = {}
    renamed = list(members)
    for i in range(1, len(members), 2):
        member = members[i]
        copy = copies.get(member.cls)
        if copy is None:
            prefix = tuple(e._replace(element_id=f"{e.element_id}.b")
                           for e in member.cls.prefix)
            copy = copies[member.cls] = topology_module.PathClass(
                prefix, member.path._replace(elements=(
                    prefix + member.path.elements[len(prefix):])))
        renamed[i] = member._replace(cls=copy)
    classes, results = cli._analyze_classes(renamed, variant.modulation,
                                            scenario.analysis)
    assert len(classes) == 2 * len(copies) == 2 * len(scenario.channels)
    want = per_path([m.path for m in renamed], variant.modulation,
                    scenario.analysis)
    assert all(m.flags for m in want)
    assert [r.flags for r in results] == [m.flags for m in want]
    assert any(".b:" in f for r in results for f in r.flags)


def test_partition_channel_moved_to_the_other_lane(reference_scenario):
    # On split lanes, one analog channel reaches orxc03 on the digital
    # lane's drop instead of its own. At orxc03 it shares the demux with the
    # digital channels, and the other analog channels lose it, so every
    # channel's path to orxc03 forms a class of its own.
    scenario = reference_scenario._replace(shared_fiber=False)
    variant = scenario.variants[0]
    built = cli._forward_topology(scenario, variant)
    moved = sorted(built.edges[1].channels)[0]
    assert built.edges[1].lane == 0

    def edited(edge):
        if edge.source != "fojb" or edge.target != "orxc03":
            return edge
        if edge.lane == 0:
            return edge._replace(channels=edge.channels - {moved})
        return edge._replace(channels=edge.channels | {moved})

    topology = built._replace(edges=tuple(map(edited, built.edges)))
    paths, classes = assert_partition_matches(topology)
    assert len(classes) == 2 * len(topology.wavelength_plan)
    assert {paths[c[0]].destination for c in classes if len(c) == 1} == {"dtrm03"}
    assert_matches_per_path(scenario, variant, topology)


def test_partition_channel_on_two_drops_into_one_receiver(reference_scenario):
    # On split lanes, one analog channel also rides the digital lane's drop
    # into orxc03 and leaves the analog drop into orxc04, so it still reaches
    # as many receivers as there are modules. At orxc03 the two drops carry
    # different channel sets that share it: its co-propagating set there is
    # the first incoming edge's for both of its paths, which makes them one
    # class, while the digital channels keep their own drop's set.
    scenario = reference_scenario._replace(shared_fiber=False)
    variant = scenario.variants[0]
    built = cli._forward_topology(scenario, variant)
    moved = sorted(built.edges[1].channels)[0]
    assert built.edges[1].lane == 0

    def edited(edge):
        if edge.source == "fojb" and (edge.target, edge.lane) == ("orxc03", 1):
            return edge._replace(channels=edge.channels | {moved})
        if edge.source == "fojb" and (edge.target, edge.lane) == ("orxc04", 0):
            return edge._replace(channels=edge.channels - {moved})
        return edge

    topology = built._replace(edges=tuple(map(edited, built.edges)))
    paths, classes = assert_partition_matches(topology)
    twice = [i for i, p in enumerate(paths)
             if p.path_id == f"forward:{moved}->dtrm03"]
    assert len(twice) == 2
    assert paths[twice[0]].elements[-3].element_id == "fojb->orxc03"
    assert paths[twice[1]].elements[-3].element_id == "fojb->orxc03.lane1"
    assert any(set(twice) <= set(c) for c in classes)
    assert_matches_per_path(scenario, variant, topology)
