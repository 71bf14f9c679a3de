"""Network construction, structural validation and path enumeration."""

import gc
import random
import re
import weakref

import pytest

from photonlink.components import (
    DetectorKind,
    EdfaSpec,
    FiberSpec,
    LaserSpec,
    ModulatorSpec,
    MuxDemuxSpec,
    PhotodetectorSpec,
    SplitterSpec,
)
from photonlink import cli, topology as topology_module
from photonlink.errors import BuildError, TopologyError
from photonlink.scenario import parse_scenario
from photonlink.topology import (
    ChannelPlan,
    Direction,
    ElementKind,
    FiberEdge,
    Node,
    NodeKind,
    adjacency_dump,
    build_forward_network,
    build_return_network,
    co_propagating_at,
    enumerate_paths,
    return_groups,
    validate_topology,
)

from conftest import (
    forward_fixture_bindings,
    forward_fixture_channels,
    forward_fixture_library,
    mk_edfa,
    mk_laser,
    mk_splitter,
    per_member_validation,
    return_fixture_bindings,
    return_fixture_library,
    workload_document,
)
from oracles import co_propagating, count_laser_to_detector_routes, has_cycle


def build_reference_forward(n=4, channels=None, **kwargs):
    library = forward_fixture_library()
    return build_forward_network(
        n, channels or forward_fixture_channels(), library,
        forward_fixture_bindings(), **kwargs)


def random_graph(rng):
    """The 4-module fixture forward network with random nodes and edges in
    place of its own: node ids drawn with repeats, edge ends that are no
    node, self-loops, and parallel edges on one lane or on several, each
    edge with a random fiber and channel set."""
    base = build_reference_forward(n=4)
    ids = [f"n{i}" for i in range(rng.randint(1, 6))]
    ends = ids + ["ghost", "stray"]
    parts = sorted(base.library) + ["ghost-part"]
    channels = sorted(base.wavelength_plan)
    nodes = tuple(Node(rng.choice(ids), rng.choice(list(NodeKind)),
                       tuple(rng.choices(parts, k=rng.randint(0, 3))))
                  for _ in range(rng.randint(1, 8)))
    edges = []
    for _ in range(rng.randint(0, 12)):
        source = rng.choice(ends)
        target = source if rng.random() < 0.1 else rng.choice(ends)
        edge = FiberEdge(source, target, rng.choice((None, "trunk", "drop")),
                         frozenset(rng.sample(channels, rng.randint(0, 2))),
                         rng.randint(0, 2))
        edges.append(edge)
        for _ in range(rng.choice((0, 0, 1, 2))):
            edges.insert(rng.randrange(len(edges) + 1),
                         edge._replace(lane=rng.randint(0, 2)))
    return base._replace(nodes=nodes, edges=tuple(edges))


class TestForwardBuild:
    def test_node_inventory_and_splitter_fanout(self):
        topology = build_reference_forward(n=16)
        kinds = [n.kind for n in topology.nodes]
        assert kinds.count(NodeKind.OTXC) == 1
        assert kinds.count(NodeKind.FOJB) == 1
        assert kinds.count(NodeKind.ORXC) == 16
        fojb = topology.node("fojb")
        splitter = topology.library[[c for c in fojb.components
                                     if c == "splitter"][0]]
        assert splitter.fanout == 16

    def test_degenerate_single_module(self):
        topology = build_reference_forward(n=1)
        splitter = topology.library["splitter"]
        assert splitter.fanout == 1
        # split loss collapses to the excess term
        assert splitter.split_loss_db == pytest.approx(0.5)

    def test_wavelength_collision_rejected(self):
        library = forward_fixture_library()
        library["laser_b"] = mk_laser(nm=1550.0)  # same as laser_a
        with pytest.raises(BuildError, match="wavelength collision"):
            build_forward_network(4, forward_fixture_channels(), library,
                                  forward_fixture_bindings())

    def test_unknown_component_rejected(self):
        with pytest.raises(BuildError, match="unknown component 'ghost'"):
            build_reference_forward(
                channels=[ChannelPlan("alpha", "ghost")])

    def test_nonpositive_module_count_rejected(self):
        with pytest.raises(BuildError, match="n_dtrm must be >= 1"):
            build_reference_forward(n=0)

    def test_separate_clock_lane(self):
        topology = build_reference_forward(n=2, shared_fiber=False)
        assert validate_topology(topology).ok
        lanes = {e.lane for e in topology.edges if e.channels}
        assert lanes == {0, 1}
        paths = [m.path for m in enumerate_paths(topology)]
        assert len(paths) == 3 * 2
        clock_paths = [p for p in paths if p.channel == "clk"]
        # the clock lane only propagates clock channels
        assert all(co_propagating_at(topology, p.channel, p.elements[-1].node)[0]
                   == ("clk",) for p in clock_paths)


def test_each_node_kind_holds_one_parts_tuple():
    """The builders make a node kind's parts once per network: the modules'
    receiver chips, and the return groups' transmitters and receiver chips,
    each share one tuple."""
    networks = [
        build_reference_forward(n=16),
        build_reference_forward(n=16, shared_fiber=False),
        build_return_network(16, return_fixture_library(),
                             return_fixture_bindings()),
    ]
    for topology in networks:
        by_kind = {}
        for node in topology.nodes:
            by_kind.setdefault(node.kind, set()).add(id(node.components))
        assert all(len(ids) == 1 for ids in by_kind.values()), by_kind
    assert len([n for n in networks[-1].nodes
                if n.kind is NodeKind.DIGITAL_OTXC]) == 4


class TestReturnBuild:
    def test_sixteen_modules_make_four_groups(self):
        topology = build_return_network(16, return_fixture_library(),
                                        return_fixture_bindings())
        groups = return_groups(topology)
        assert len(groups) == 4
        assert all(len(channels) == 4 for _, channels in groups)

    def test_minimal_single_group(self):
        topology = build_return_network(4, return_fixture_library(),
                                        return_fixture_bindings())
        assert len(return_groups(topology)) == 1
        assert len(enumerate_paths(topology)) == 4

    def test_indivisible_module_count_rejected(self):
        with pytest.raises(BuildError, match="multiple of 4"):
            build_return_network(6, return_fixture_library(),
                                 return_fixture_bindings())

    def test_each_return_path_starts_at_its_own_group(self):
        """Every group holds the same four laser names, so a channel's source
        is the group transmitter whose outgoing edge carries it."""
        topology = build_return_network(16, return_fixture_library(),
                                        return_fixture_bindings())
        paths = [m.path for m in enumerate_paths(topology)]
        assert len(paths) == 16
        for path in paths:
            group = (int(path.channel.removeprefix("rx")) - 1) // 4 + 1
            dotxc, rx = f"dotxc{group:02d}", f"dbfu_rx{group:02d}"
            carrier = [e for e in topology.edges if path.channel in e.channels]
            assert [(e.source, e.target) for e in carrier] == [(dotxc, rx)]
            laser = path.elements[0]
            assert laser.kind is ElementKind.LASER and laser.node == dotxc
            fibers = [e.element_id for e in path.elements
                      if e.kind is ElementKind.FIBER]
            assert fibers == [f"{dotxc}->{rx}"]

    def test_return_paths_end_at_beam_former(self):
        topology = build_return_network(8, return_fixture_library(),
                                        return_fixture_bindings())
        paths = [m.path for m in enumerate_paths(topology)]
        assert len(paths) == 8
        assert {p.destination for p in paths} == {"dbfu"}
        assert all(p.direction is Direction.RETURN for p in paths)


class TestValidation:
    def test_constructed_network_is_valid(self):
        assert validate_topology(build_reference_forward(n=16)).ok

    def test_missing_splitter_leg_is_flagged(self):
        """Mutation: drop one junction-box output edge."""
        topology = build_reference_forward(n=16)
        victim = next(e for e in topology.edges
                      if e.source == "fojb" and e.target == "orxc07")
        mutated = topology._replace(
            edges=tuple(e for e in topology.edges if e is not victim))
        report = validate_topology(mutated)
        assert any("fanout 16 != 15" in m for m in report.messages())

    def test_analog_channel_on_digital_detector_is_flagged(self):
        topology = build_reference_forward(
            n=2, channels=[ChannelPlan("alpha", "laser_a", DetectorKind.ANALOG)])
        mutated = topology._replace(
            channel_detectors={"alpha": "pd_digital"})
        report = validate_topology(mutated)
        assert any("analog channel 'alpha' terminated on a digital detector" in m
                   for m in report.messages())

    def test_out_of_band_wavelength_is_flagged(self):
        library = forward_fixture_library()
        library["laser_a"] = mk_laser(nm=1260.0)
        topology = build_forward_network(
            2, forward_fixture_channels(), library, forward_fixture_bindings())
        report = validate_topology(topology)
        assert any("outside [1300, 1650] nm" in m for m in report.messages())

    def test_too_close_channels_are_flagged(self):
        library = forward_fixture_library()
        library["laser_b"] = mk_laser(nm=1550.4)
        topology = build_forward_network(
            2, forward_fixture_channels(), library, forward_fixture_bindings())
        report = validate_topology(topology)
        assert any("< minimum 0.8 nm" in m for m in report.messages())

    def test_cycle_is_flagged(self):
        from photonlink.topology import FiberEdge
        topology = build_reference_forward(n=2)
        back_edge = FiberEdge("fojb", "otxc", "trunk")
        mutated = topology._replace(edges=topology.edges + (back_edge,))
        report = validate_topology(mutated)
        assert any("cycle" in m for m in report.messages())

    def test_cycle_search_matches_the_oracle(self):
        """The cycle search against the recursive three-colour search of
        ``oracles.has_cycle`` on 200 random small graphs."""
        rng = random.Random(7200)
        found = []
        for case in range(200):
            topology = random_graph(rng)
            want = has_cycle(topology.nodes, topology.edges)
            assert topology_module._has_cycle(topology) is want, case
            found.append(want)
        assert 40 <= sum(found) <= 160

    def test_random_graphs_match_per_member(self):
        """Class-keyed validation lists what the per-member oracle lists, in
        its order, on 200 random small graphs."""
        rng = random.Random(7300)
        for case in range(200):
            topology = random_graph(rng)
            assert validate_topology(topology).violations == \
                per_member_validation(topology).violations, case

    def test_cycle_that_carries_a_channel_is_flagged(self):
        """The channel's walk stops before a node it has passed, so the
        cycle is reported like any other, and enumeration refuses it."""
        topology = build_reference_forward(n=2)
        trunk = topology.edges[1]
        assert (trunk.source, trunk.target) == ("otxc", "fojb")
        back_edge = FiberEdge("fojb", "otxc", "trunk", trunk.channels)
        mutated = topology._replace(edges=topology.edges + (back_edge,))
        assert "topology.edges: graph contains a cycle" in \
            validate_topology(mutated).messages()
        with pytest.raises(TopologyError):
            enumerate_paths(mutated)

    def test_invalid_receiver_part_reported_at_every_node(self, monkeypatch):
        """A part that passes is validated once; one that fails is still
        reported at every node that holds it, under the node's own name."""
        library = forward_fixture_library()
        library["pd_digital"] = library["pd_digital"]._replace(
            responsivity_a_per_w=2.0)
        topology = build_forward_network(
            16, forward_fixture_channels(), library, forward_fixture_bindings())
        calls = []
        real = topology_module.validate_component

        def counting(spec, *, name):
            calls.append(name)
            return real(spec, name=name)

        monkeypatch.setattr(topology_module, "validate_component", counting)
        report = validate_topology(topology)
        assert [str(v) for v in report.violations] == [
            f"orxc{i:02d}:pd_digital.responsivity_a_per_w: "
            "must be in (0, 1.1] A/W, got 2.0" for i in range(1, 17)]
        distinct = {name for node in topology.nodes for name in node.components}
        assert len(calls) == len(distinct) - 1 + 16
        assert sum(name.endswith(":pd_digital") for name in calls) == 16

    def test_each_part_is_checked_once_per_run(self, monkeypatch):
        """The five networks of a seed-1 ``analyze-dwdm48-csv`` run share
        their library's specs, so no spec is checked twice: 69 checks
        across them, where one per part of each network made 228."""
        monkeypatch.setattr(topology_module, "_SOUND_SPECS", {})
        calls = []
        real = topology_module.validate_component

        def counting(spec, *, name):
            calls.append(spec)
            return real(spec, name=name)

        monkeypatch.setattr(topology_module, "validate_component", counting)
        scenario = parse_scenario(workload_document("analyze-dwdm48-csv", 1))
        cli.run("analyze", scenario)
        assert len(calls) == len(set(map(id, calls))) == 69

    def test_a_part_equal_to_one_that_passed_is_still_checked(self):
        """A spec is remembered by identity: a hand-built laser whose power
        is ``True``, equal to the 1.0 W of a laser that passed, is still
        refused at every node that holds it."""
        def validated(power):
            library = forward_fixture_library()
            library["laser_a"] = mk_laser(power_w=power)
            return validate_topology(build_forward_network(
                4, forward_fixture_channels(), library,
                forward_fixture_bindings()))

        assert validated(1.0).ok
        assert [str(v) for v in validated(True).violations] == [
            "otxc:laser_a.output_power_w: must be a finite number, got True"]

    def test_channel_edge_to_unknown_node_is_listed_not_raised(self):
        """The reach walk ends a trail at an unknown node instead of raising
        KeyError, so validation lists the edge and enumeration refuses."""
        topology = build_reference_forward(n=4)
        mutated = topology._replace(edges=tuple(
            e._replace(target="ghost") if e.target == "orxc02" else e
            for e in topology.edges))
        messages = validate_topology(mutated).messages()
        assert "fojb->ghost.edge: references unknown node" in messages
        assert "topology.channels: channel 'alpha' reaches 3 of 4 modules" in messages
        with pytest.raises(TopologyError):
            enumerate_paths(mutated)

    def test_enumerate_refuses_invalid_topology(self):
        topology = build_reference_forward(n=4)
        mutated = topology._replace(edges=topology.edges[:-3])
        with pytest.raises(TopologyError):
            enumerate_paths(mutated)


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_path_count_matches_traversal_oracle(self, n):
        topology = build_reference_forward(n=n)
        paths = enumerate_paths(topology)
        assert len(paths) == 3 * n
        assert len(paths) == count_laser_to_detector_routes(topology)

    def test_enumeration_is_deterministic(self):
        topology = build_reference_forward(n=8)
        first = [m.path for m in enumerate_paths(topology)]
        second = [m.path for m in enumerate_paths(topology)]
        assert first == second
        ids = [p.path_id for p in first]
        assert ids == sorted(ids)

    def test_element_order_matches_the_legal_grammar(self):
        legal = re.compile(r"^LMUE?F*(E?SF*)?DP$")
        for topology in (build_reference_forward(n=4),
                         build_return_network(8, return_fixture_library(),
                                              return_fixture_bindings())):
            for path in [m.path for m in enumerate_paths(topology)]:
                assert legal.match(path.kind_tokens()), path.kind_tokens()
                assert path.elements[0].kind is ElementKind.LASER
                assert path.elements[-1].kind is ElementKind.DETECTOR

    def test_a_path_through_two_junction_boxes_is_refused(self):
        """A return group fiber that passes two junction boxes, each with an
        amplifier and a fanout-1 splitter, breaks no node or edge rule, but
        its paths meet two splitter stages: enumeration refuses the order."""
        library = dict(return_fixture_library(), jb_edfa=mk_edfa(),
                       jb_splitter=mk_splitter(fanout=1, excess=0.5))
        topology = build_return_network(4, library, return_fixture_bindings())
        group = next(e for e in topology.edges if e.channels)
        assert (group.source, group.target) == ("dotxc01", "dbfu_rx01")
        boxes = tuple(Node(f"fojb{i}", NodeKind.FOJB, ("jb_edfa", "jb_splitter"))
                      for i in (1, 2))
        chain = [group.source, "fojb1", "fojb2", group.target]
        edges = [e for e in topology.edges if e is not group] + [
            group._replace(source=a, target=b) for a, b in zip(chain, chain[1:])]
        topology = topology._replace(nodes=topology.nodes + boxes,
                                     edges=tuple(edges))
        assert validate_topology(topology).ok
        with pytest.raises(TopologyError,
                           match="illegal element order 'LMUFESFESFDP'"):
            enumerate_paths(topology)

    def test_forward_path_traverses_expected_elements(self):
        topology = build_reference_forward(n=4)
        path = enumerate_paths(topology)[0].path
        assert path.kind_tokens() == "LMUFESFDP"
        assert path.channel == "alpha"
        assert path.destination == "dtrm01"

    def test_single_module_single_channel_gives_one_path(self):
        topology = build_reference_forward(
            n=1, channels=[ChannelPlan("alpha", "laser_a")])
        assert len(enumerate_paths(topology)) == 1

    def test_transmitter_booster_appears_after_the_mux(self):
        boosted = build_forward_network(
            2, forward_fixture_channels(), forward_fixture_library(),
            forward_fixture_bindings(otxc_edfa="edfa"))
        assert validate_topology(boosted).ok
        path = enumerate_paths(boosted)[0].path
        assert path.kind_tokens() == "LMUEFESFDP"

    def test_each_channel_is_walked_once(self, monkeypatch):
        library = forward_fixture_library()
        channels = []
        for i in range(8):
            library[f"laser_{i}"] = mk_laser(nm=1550.0 + 0.8 * i)
            kind = DetectorKind.DIGITAL if i >= 6 else DetectorKind.ANALOG
            channels.append(ChannelPlan(f"ch{i}", f"laser_{i}", kind))
        topology = build_forward_network(4, channels, library,
                                         forward_fixture_bindings(),
                                         shared_fiber=False)
        walks = []
        real = topology_module._walk_trails

        def counting(topology, channel):
            walks.append(channel)
            return real(topology, channel)

        monkeypatch.setattr(topology_module, "_walk_trails", counting)
        assert validate_topology(topology).ok
        first = [m.path for m in enumerate_paths(topology)]
        assert [m.path for m in enumerate_paths(topology)] == first
        # One walk per lane: the six analog channels share one, and the two
        # digital channels the other. Each channel gets its own trails.
        assert walks == ["ch0", "ch6"]
        for channel in topology.wavelength_plan:
            assert topology_module._reachable_terminals(topology, channel) \
                == real(topology, channel)
        assert len(first) == 8 * 4
        # The cache hands out tuples, so the enumeration sort cannot reorder it.
        assert isinstance(topology_module._reachable_terminals(topology, "ch0"), tuple)
        # A replaced topology walks its own trails.
        walks.clear()
        enumerate_paths(topology._replace())
        assert walks == ["ch0", "ch6"]

    def test_co_propagating_sets_are_found_once_per_drop(self, monkeypatch):
        # 48 channels on two lanes to 8 modules: the channels that enter each
        # receiver chip are found once per chip, not per drop or per path.
        scenario = parse_scenario(workload_document("analyze-dwdm48-csv", 1))
        topology = cli._forward_topology(scenario, scenario.variants[0])
        lookups, built = [], []
        real_lookup = topology_module.co_propagating_at
        real_arrivals = topology_module._arrivals

        def counting_lookup(topology, channel, terminal):
            lookups.append((channel, terminal))
            return real_lookup(topology, channel, terminal)

        def counting_arrivals(topology, terminal):
            if terminal not in topology._arrivals:
                built.append(terminal)
            return real_arrivals(topology, terminal)

        monkeypatch.setattr(topology_module, "co_propagating_at", counting_lookup)
        monkeypatch.setattr(topology_module, "_arrivals", counting_arrivals)
        members = enumerate_paths(topology)
        assert len(members) == 48 * 8
        assert lookups == []
        receivers = [n.id for n in topology.nodes if n.kind is NodeKind.ORXC]
        assert len(receivers) == 8
        assert sorted(built) == sorted(receivers)
        for member in members:
            path = member.path
            assert path.co_propagating == real_lookup(
                topology, path.channel, path.elements[-1].node)
        # Two lanes: each channel shares its demux with its own lane's.
        lanes = {m.cls.path.co_propagating[0] for m in members}
        assert len(lanes) == 2
        assert sorted(ch for lane in lanes for ch in lane) == sorted(
            topology.wavelength_plan)

    def test_co_propagating_set(self):
        topology = build_reference_forward(n=2)
        path = enumerate_paths(topology)[0].path
        assert co_propagating_at(topology, path.channel, path.elements[-1].node)[0] \
            == ("alpha", "bravo", "clk")

    def test_co_propagating_matches_the_raw_scan(self):
        """``co_propagating_at`` against ``oracles.co_propagating`` on 200
        random small graphs, at every node id and edge end, for every plan
        channel and one that enters nowhere. Their nodes take parallel
        edges whose channel sets overlap, so which edge is first counts."""
        rng = random.Random(7400)
        contested = 0
        for case in range(200):
            topology = random_graph(rng)
            ends = {n.id for n in topology.nodes} | {e.target for e in topology.edges}
            for terminal in sorted(ends):
                for channel in [*sorted(topology.wavelength_plan), "nowhere"]:
                    want = co_propagating(topology, channel, terminal)
                    assert co_propagating_at(topology, channel, terminal) == want, \
                        (case, terminal, channel)
                    carriers = {e.channels for e in topology.edges
                                if e.target == terminal and channel in e.channels}
                    contested += len(carriers) > 1
        assert contested >= 100


def test_adjacency_dump_mentions_every_edge():
    topology = build_reference_forward(n=2)
    dump = "\n".join(adjacency_dump(topology))
    assert "otxc [otxc] -> fojb" in dump
    assert "fojb [fojb] -> orxc01" in dump


def test_random_module_counts_scale(n_max=12):
    rng = random.Random(99)
    for _ in range(5):
        n = rng.randint(1, n_max)
        topology = build_reference_forward(n=n)
        assert len(enumerate_paths(topology)) == 3 * n


SPEC_TYPES = (LaserSpec, ModulatorSpec, MuxDemuxSpec, EdfaSpec, SplitterSpec,
              FiberSpec, PhotodetectorSpec)


class TestLookupIndex:
    """node/outgoing/incoming, components_of and source read an index built at
    construction; each must agree with a raw scan of the node and edge tuples."""

    @staticmethod
    def assert_matches_raw_scan(topology):
        ids = ({n.id for n in topology.nodes}
               | {e.source for e in topology.edges}
               | {e.target for e in topology.edges} | {"no-such-node"})
        for node_id in sorted(ids):
            first = [n for n in topology.nodes if n.id == node_id][:1]
            if first:
                assert topology.node(node_id) is first[0]
            else:
                with pytest.raises(KeyError):
                    topology.node(node_id)
            out = sorted((e for e in topology.edges if e.source == node_id),
                         key=lambda e: (e.target, e.lane))
            into = sorted((e for e in topology.edges if e.target == node_id),
                          key=lambda e: (e.source, e.lane))
            assert topology.outgoing(node_id) == tuple(out)
            assert topology.incoming(node_id) == tuple(into)
        for node in topology.nodes:
            for spec_type in SPEC_TYPES:
                want = tuple(name for name in node.components
                             if isinstance(topology.library.get(name), spec_type))
                assert topology.components_of(node, spec_type) == want
        channels = (set(topology.wavelength_plan) | {"no-such-channel"}
                    | {ch for e in topology.edges for ch in e.channels})
        for channel in sorted(channels):
            first = [n for n in topology.nodes
                     if n.kind in (NodeKind.OTXC, NodeKind.DIGITAL_OTXC)
                     and topology.channel_lasers.get(channel) in n.components
                     and any(e.source == n.id and channel in e.channels
                             for e in topology.edges)][:1]
            assert topology.source(channel) is (first[0] if first else None)

    def test_built_networks(self):
        for topology in (build_reference_forward(n=8),
                         build_reference_forward(n=4, shared_fiber=False),
                         build_forward_network(
                             2, forward_fixture_channels(), forward_fixture_library(),
                             forward_fixture_bindings(otxc_edfa="edfa")),
                         build_return_network(8, return_fixture_library(),
                                              return_fixture_bindings())):
            self.assert_matches_raw_scan(topology)

    @pytest.mark.parametrize("batch", range(4))
    def test_random_graphs(self, batch):
        """50 random graphs per batch, with repeated node ids, parallel
        edges on one or several lanes and edge ends that are no node."""
        rng = random.Random(7100 + batch)
        for _ in range(50):
            self.assert_matches_raw_scan(random_graph(rng))

    def test_replace_rebuilds_the_index(self):
        topology = build_reference_forward(n=4)
        victim = next(e for e in topology.edges if e.target == "orxc02")
        mutated = topology._replace(
            nodes=topology.nodes + (Node("fojb", NodeKind.ORXC),
                                   Node("spare", NodeKind.DTRM),
                                   Node("otxc2", NodeKind.OTXC,
                                        ("laser_a", "ghost-part", "mux"))),
            edges=tuple(e for e in topology.edges if e is not victim)
            + (FiberEdge("fojb", "otxc", "trunk"), FiberEdge("ghost", "spare", None),
               FiberEdge("otxc2", "fojb", "trunk", frozenset({"alpha", "bravo"}))))
        self.assert_matches_raw_scan(mutated)
        assert victim not in mutated.outgoing("fojb")
        assert victim in topology.outgoing("fojb")
        assert mutated.node("fojb").kind is NodeKind.FOJB
        assert mutated.source("alpha").id == "otxc"
        assert mutated.components_of(mutated.node("otxc2"), MuxDemuxSpec) == ("mux",)

    def test_lookups_cannot_change_the_index(self):
        topology = build_reference_forward(n=2)
        assert isinstance(topology.outgoing("fojb"), tuple)
        assert isinstance(topology.incoming("orxc01"), tuple)


def test_walks_leave_no_reference_cycle(reference_scenario):
    """Validation and enumeration walk the graph with loops, not with nested
    functions that call themselves and so hold the network in a reference
    cycle: with the cyclic collector off, the network still dies with its
    last reference."""

    def walked(topology):
        assert validate_topology(topology).ok
        assert enumerate_paths(topology)
        return weakref.ref(topology)

    variant = reference_scenario.variants[0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = [walked(cli._forward_topology(reference_scenario, variant)),
                walked(cli._return_topology(reference_scenario))]
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
