"""Network graph for the optical distribution system.

The forward network fans every exciter-generated channel out to all N
transmit/receive modules through a transmitter chip, a junction box with a 1:N
splitter and booster amplifier, and a per-module receiver chip. The return
network groups digitized receiver channels four to a fiber and lands each group
on the beam-former unit. Topologies are immutable after build; all operations
here are read-only and deterministic.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Mapping, Sequence

from .components import (
    ComponentSpec,
    DetectorKind,
    EdfaSpec,
    FiberSpec,
    LaserSpec,
    ModulatorSpec,
    MuxDemuxSpec,
    PhotodetectorSpec,
    SplitterSpec,
    ValidationReport,
    Violation,
    WDM_BAND_NM,
    validate_component,
)
from .errors import BuildError, TopologyError
from .frozen import Frozen, NamedTuple

DEFAULT_CHANNEL_SPACING_NM = 0.8  # 100 GHz ITU grid step near 1550 nm
CHANNELS_PER_RETURN_GROUP = 4


class NodeKind(str, Enum):
    EXCITER = "exciter"
    OTXC = "otxc"
    FOJB = "fojb"
    ORXC = "orxc"
    DTRM = "dtrm"
    DIGITAL_OTXC = "digital_otxc"
    DBFU = "dbfu"


class Direction(str, Enum):
    FORWARD = "forward"
    RETURN = "return"


class ElementKind(str, Enum):
    LASER = "laser"
    MODULATOR = "modulator"
    MUX = "mux"
    EDFA = "edfa"
    FIBER = "fiber"
    SPLITTER = "splitter"
    DEMUX = "demux"
    DETECTOR = "detector"


# Legal element order along any signal path, as a token regex. Forward paths
# include the splitter stage; return paths do not. Booster amplifiers may sit
# after the transmit mux and/or ahead of the splitter.
_KIND_TOKENS = {
    ElementKind.LASER: "L",
    ElementKind.MODULATOR: "M",
    ElementKind.MUX: "U",
    ElementKind.EDFA: "E",
    ElementKind.FIBER: "F",
    ElementKind.SPLITTER: "S",
    ElementKind.DEMUX: "D",
    ElementKind.DETECTOR: "P",
}
_LEGAL_PATH_RE = re.compile(r"^LMUE?F*(E?SF*)?DP$")

# A node's kind, an edge's ends and channels, and the orders of a node's
# outgoing and of its incoming edges.
_KIND = attrgetter("kind")
_SOURCE = attrgetter("source")
_TARGET = attrgetter("target")
_CHANNELS = attrgetter("channels")
_BY_TARGET = attrgetter("target", "lane")
_BY_SOURCE = attrgetter("source", "lane")

# Member lookups on an enum class are slow, so the kind sets that per-node
# loops test are made once.
_TRANSMITTER_KINDS = frozenset({NodeKind.OTXC, NodeKind.DIGITAL_OTXC})
# The node kinds whose checks read the lanes of their outgoing edges.
_FAN_OUT_KINDS = _TRANSMITTER_KINDS | {NodeKind.FOJB}
# The node kinds a path's destination may have.
_TERMINAL_KINDS = frozenset({NodeKind.DTRM, NodeKind.DBFU})
# The element kinds that enumeration builds outside ``_hop``.
_LASER, _MODULATOR, _MUX, _EDFA, _DETECTOR = (
    ElementKind.LASER, ElementKind.MODULATOR, ElementKind.MUX, ElementKind.EDFA,
    ElementKind.DETECTOR)


class ChannelPlan(NamedTuple):
    """One wavelength channel: which laser sources it and what it carries."""

    id: str
    laser: str
    kind: DetectorKind = DetectorKind.ANALOG


class Node(NamedTuple):
    """A node of the network graph and the component names it holds."""

    id: str
    kind: NodeKind
    components: tuple[str, ...] = ()


class FiberEdge(NamedTuple):
    """A directed hop between two nodes, its fiber and the channels it carries."""

    source: str
    target: str
    fiber: str | None
    channels: frozenset[str] = frozenset()
    lane: int = 0


class PathElement(NamedTuple):
    """One component instance along a signal path, with its spec."""

    element_id: str
    kind: ElementKind
    component: str
    spec: ComponentSpec
    node: str


def _path_id(direction: str, channel: str, destination: str) -> str:
    """The id of ``channel``'s path to ``destination``, where ``direction``
    is the path's direction's value."""
    return f"{direction}:{channel}->{destination}"


class SignalPath(NamedTuple):
    """Ordered laser-to-detector traversal with per-element parameter
    snapshot, and the channels that enter its demux with it (itself
    included), by name and by wavelength: ``co_propagating_at`` of its
    channel at its receiver chip."""

    channel: str
    direction: Direction
    destination: str
    wavelength_nm: float
    elements: tuple[PathElement, ...]
    co_propagating: tuple[tuple[str, ...], tuple[str, ...]]

    @property
    def path_id(self) -> str:
        return _path_id(self.direction.value, self.channel, self.destination)

    def kind_tokens(self) -> str:
        return "".join(_KIND_TOKENS[e.kind] for e in self.elements)


class PathClass(Frozen):
    """An analysis class: paths of one channel that share their elements up
    to the last edge (``prefix``) and whose last hops have the same parts
    and co-propagating channels, so their metrics are equal, element ids
    aside. ``path`` is the first member's path; a class equals only itself."""

    _fields = ("prefix", "path")

    def __init__(self, prefix: tuple[PathElement, ...], path: SignalPath):
        self.__dict__.update(prefix=prefix, path=path)


class PathMember(NamedTuple):
    """One path of a class: its destination, its last hop's fiber and demux
    (shared by every path over that edge and lane), its detector's id and
    its path id."""

    cls: PathClass
    destination: str
    hop: tuple[PathElement, ...]
    detector: str
    path_id: str

    @property
    def path(self) -> SignalPath:
        """This path as a ``SignalPath``, built anew on each read. The
        detector sits on the receiver chip, the node of the last hop's
        demux."""
        path = self.cls.path
        last = path.elements[-1]
        detector = PathElement(self.detector, last.kind, last.component,
                               last.spec, self.hop[-1].node)
        return SignalPath(path.channel, path.direction, self.destination,
                          path.wavelength_nm,
                          self.cls.prefix + self.hop + (detector,),
                          path.co_propagating)


def _edge_index(edges: tuple[FiberEdge, ...], end: attrgetter,
                order: attrgetter) -> dict[str, tuple[FiberEdge, ...]]:
    """``edges`` by the node at their ``end``, each node's sorted by
    ``order``. The sort is stable, so ties keep edge order; a node with one
    edge gets its tuple at once, and only the others a list to sort."""
    index: dict = {}
    for e in edges:
        node_id = end(e)
        bucket = index.get(node_id)
        if bucket is None:
            index[node_id] = (e,)
        elif type(bucket) is tuple:
            index[node_id] = [*bucket, e]
        else:
            bucket.append(e)
    for node_id, bucket in index.items():
        if type(bucket) is list:
            bucket.sort(key=order)
            index[node_id] = tuple(bucket)
    return index


class OpticalTopology(Frozen):
    """An immutable network graph with its component table and wavelength
    plan, indexed for lookup when it is built."""

    _fields = ("direction", "nodes", "edges", "library", "wavelength_plan",
               "channel_kinds", "channel_lasers", "channel_modulators",
               "channel_detectors", "n_dtrm", "min_channel_spacing_nm")

    def __init__(self, direction: Direction, nodes: tuple[Node, ...],
                 edges: tuple[FiberEdge, ...],
                 library: Mapping[str, ComponentSpec],
                 wavelength_plan: Mapping[str, float],
                 channel_kinds: Mapping[str, DetectorKind],
                 channel_lasers: Mapping[str, str],
                 channel_modulators: Mapping[str, str],
                 channel_detectors: Mapping[str, str], n_dtrm: int,
                 min_channel_spacing_nm: float = DEFAULT_CHANNEL_SPACING_NM):
        self.__dict__.update(
            direction=direction, nodes=nodes, edges=edges, library=library,
            wavelength_plan=wavelength_plan, channel_kinds=channel_kinds,
            channel_lasers=channel_lasers, channel_modulators=channel_modulators,
            channel_detectors=channel_detectors, n_dtrm=n_dtrm,
            min_channel_spacing_nm=min_channel_spacing_nm)
        # Lookup index; on a duplicate id the first node wins (validate flags it).
        out = _edge_index(edges, _SOURCE, _BY_TARGET)
        into = _edge_index(edges, _TARGET, _BY_SOURCE)
        # Component names by spec type per distinct components tuple
        # (components_of), the channel sets that carry each channel and the
        # edge trails of each lane (_reachable_terminals), each channel set
        # carried into a demux by name and by wavelength (_lane), and the
        # channels that enter each node with each channel (_arrivals): each
        # filled on first use.
        self.__dict__.update(_by_id={n.id: n for n in reversed(nodes)},
                             _out=out, _in=into, _typed={}, _carriers={},
                             _trails={}, _lanes={}, _arrivals={})

    @cached_property
    def _sources(self) -> dict[str, Node]:
        """Each launched channel's transmitter. Groups may share laser names,
        so it is the first transmitter in node order that holds the
        channel's laser and launches it."""
        sources: dict[str, Node] = {}
        for n in self.nodes:
            if n.kind in _TRANSMITTER_KINDS:
                for e in self.outgoing(n.id):
                    for ch in e.channels:
                        if ch not in sources and self.channel_lasers.get(ch) in n.components:
                            sources[ch] = n
        return sources

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    def components_of(self, node: Node, spec_type: type) -> tuple[str, ...]:
        """Names in ``node.components`` whose library spec is a ``spec_type``."""
        typed = self._typed.get(node.components)
        if typed is None:
            buckets: dict[type, list[str]] = {}
            for name in node.components:
                buckets.setdefault(type(self.library.get(name)), []).append(name)
            typed = self._typed[node.components] = {
                t: tuple(v) for t, v in buckets.items()}
        return typed.get(spec_type, ())

    def source(self, channel: str) -> Node | None:
        """The transmitter that launches ``channel``, if any."""
        return self._sources.get(channel)

    def outgoing(self, node_id: str) -> tuple[FiberEdge, ...]:
        return self._out.get(node_id, ())

    def incoming(self, node_id: str) -> tuple[FiberEdge, ...]:
        return self._in.get(node_id, ())


class ForwardBindings(NamedTuple):
    """Component names bound to the fixed roles of the forward network."""

    modulator: str
    mux: str
    demux: str
    splitter: str
    fojb_edfa: str
    analog_detector: str
    digital_detector: str
    trunk_fiber: str
    drop_fiber: str
    otxc_edfa: str | None = None


class ReturnBindings(NamedTuple):
    """Component names bound to the roles of one digitized return group."""

    lasers: tuple[str, ...]
    modulator: str
    mux: str
    demux: str
    detector: str
    fiber: str


class Role(NamedTuple):
    """What a part must be to fill a binding role: an instance of ``spec``
    and, where ``attribute`` is set, one whose ``attribute`` is ``value``."""

    spec: type
    attribute: str | None = None
    value: Enum | None = None


LASER = Role(LaserSpec)

# The role of each ``ForwardBindings`` and ``ReturnBindings`` field, in field
# order. A booster left as None is not bound; each of the ``lasers`` must
# fill its role.
FORWARD_ROLES: Mapping[str, Role] = {
    "modulator": Role(ModulatorSpec),
    "mux": Role(MuxDemuxSpec),
    "demux": Role(MuxDemuxSpec),
    "splitter": Role(SplitterSpec),
    "fojb_edfa": Role(EdfaSpec),
    "analog_detector": Role(PhotodetectorSpec),
    "digital_detector": Role(PhotodetectorSpec),
    "trunk_fiber": Role(FiberSpec),
    "drop_fiber": Role(FiberSpec),
    "otxc_edfa": Role(EdfaSpec),
}
RETURN_ROLES: Mapping[str, Role] = {
    "lasers": LASER,
    "modulator": Role(ModulatorSpec),
    "mux": Role(MuxDemuxSpec),
    "demux": Role(MuxDemuxSpec),
    "detector": Role(PhotodetectorSpec, "kind", DetectorKind.DIGITAL),
    "fiber": Role(FiberSpec),
}


def unfit_part(library: Mapping[str, ComponentSpec], name: str,
               role: Role) -> str | None:
    """Why the part ``name`` cannot fill ``role``, or None when it can."""
    spec = library.get(name)
    if spec is None:
        return f"unknown component {name!r}"
    if not isinstance(spec, role.spec):
        return (f"component {name!r} is a {type(spec).__name__}, "
                f"expected {role.spec.__name__}")
    if role.attribute is not None:
        have = getattr(spec, role.attribute)
        if have is not role.value:
            return (f"component {name!r} has {role.attribute} {have.value!r}, "
                    f"expected {role.value.value!r}")
    return None


def _check_roles(library: Mapping[str, ComponentSpec],
                 bindings: ForwardBindings | ReturnBindings,
                 roles: Mapping[str, Role]) -> None:
    """Raise BuildError for the first bound part that cannot fill its role."""
    for field_name, role in roles.items():
        names = getattr(bindings, field_name)
        for name in names if isinstance(names, tuple) else (names,):
            problem = name and unfit_part(library, name, role)
            if problem:
                raise BuildError(f"{field_name}: {problem}")


def _numbers(n: int) -> list[str]:
    """1 to ``n`` for node and channel ids, zero-padded to the digits of
    ``n``, two at least."""
    width = max(2, len(str(n)))
    return [str(i).zfill(width) for i in range(1, n + 1)]


def build_forward_network(
    n_dtrm: int,
    channels: Sequence[ChannelPlan],
    library: Mapping[str, ComponentSpec],
    bindings: ForwardBindings,
    *,
    shared_fiber: bool = True,
    min_channel_spacing_nm: float = DEFAULT_CHANNEL_SPACING_NM,
) -> OpticalTopology:
    """Construct the exciter -> transmitter chip -> junction box -> N receiver
    chips distribution graph.

    With ``shared_fiber`` every channel rides one fiber per hop; otherwise
    digital-kind channels are carried on a parallel lane with its own mux,
    booster and splitter.
    """
    if n_dtrm < 1:
        raise BuildError(f"n_dtrm must be >= 1, got {n_dtrm}")
    if not channels:
        raise BuildError("at least one channel is required")

    seen_ids: set[str] = set()
    plan: dict[str, float] = {}
    kinds: dict[str, DetectorKind] = {}
    lasers: dict[str, str] = {}
    for ch in channels:
        if ch.id in seen_ids:
            raise BuildError(f"duplicate channel id {ch.id!r}")
        seen_ids.add(ch.id)
        problem = unfit_part(library, ch.laser, LASER)
        if problem:
            raise BuildError(f"channel {ch.id} laser: {problem}")
        plan[ch.id] = library[ch.laser].wavelength_nm
        kinds[ch.id] = ch.kind
        lasers[ch.id] = ch.laser
    by_wavelength: dict[float, str] = {}
    for ch_id, nm in plan.items():
        other = by_wavelength.get(nm)
        if other is not None:
            raise BuildError(
                f"wavelength collision: channels {other!r} and {ch_id!r} both at {nm} nm")
        by_wavelength[nm] = ch_id

    _check_roles(library, bindings, FORWARD_ROLES)

    # The topology snapshots its component table; the junction-box splitter
    # inherits its excess loss from the bound template but its fanout is the
    # DTRM count by construction.
    local_library: dict[str, ComponentSpec] = dict(library)
    local_library[bindings.splitter] = library[bindings.splitter]._replace(
        fanout=n_dtrm)

    if shared_fiber:
        lanes: list[list[str]] = [sorted(plan)]
    else:
        analog = sorted(c for c in plan if kinds[c] is DetectorKind.ANALOG)
        digital = sorted(c for c in plan if kinds[c] is DetectorKind.DIGITAL)
        lanes = [lane for lane in (analog, digital) if lane]

    detectors = {
        ch: bindings.analog_detector if kinds[ch] is DetectorKind.ANALOG
        else bindings.digital_detector
        for ch in plan
    }

    # Each node kind's parts, one tuple per network.
    otxc_parts: list[str] = []
    for ch_id in sorted(plan):
        otxc_parts.append(lasers[ch_id])
        otxc_parts.append(bindings.modulator)
    for _ in lanes:
        otxc_parts.append(bindings.mux)
        if bindings.otxc_edfa is not None:
            otxc_parts.append(bindings.otxc_edfa)
    fojb_parts = (bindings.fojb_edfa, bindings.splitter) * len(lanes)
    orxc_parts = ((bindings.demux,) * len(lanes)
                  + tuple([detectors[ch_id] for ch_id in sorted(plan)]))

    nodes: list[Node] = [
        Node("exciter", NodeKind.EXCITER),
        Node("otxc", NodeKind.OTXC, tuple(otxc_parts)),
        Node("fojb", NodeKind.FOJB, fojb_parts),
    ]
    # One channel set per lane, shared by every edge of the lane.
    carried = [frozenset(lane) for lane in lanes]
    edges: list[FiberEdge] = [FiberEdge("exciter", "otxc", None)]
    for lane_index, lane in enumerate(carried):
        edges.append(FiberEdge("otxc", "fojb", bindings.trunk_fiber,
                               lane, lane_index))
    receiver, module, drop = NodeKind.ORXC, NodeKind.DTRM, bindings.drop_fiber
    legs = list(enumerate(carried))
    for number in _numbers(n_dtrm):
        orxc_id = "orxc" + number
        dtrm_id = "dtrm" + number
        nodes.append(Node(orxc_id, receiver, orxc_parts))
        nodes.append(Node(dtrm_id, module))
        for lane_index, lane in legs:
            edges.append(FiberEdge("fojb", orxc_id, drop, lane, lane_index))
        edges.append(FiberEdge(orxc_id, dtrm_id, None))

    return OpticalTopology(
        direction=Direction.FORWARD,
        nodes=tuple(nodes),
        edges=tuple(edges),
        library=local_library,
        wavelength_plan=plan,
        channel_kinds=kinds,
        channel_lasers=lasers,
        channel_modulators=dict.fromkeys(plan, bindings.modulator),
        channel_detectors=detectors,
        n_dtrm=n_dtrm,
        min_channel_spacing_nm=min_channel_spacing_nm,
    )


def build_return_network(
    n_dtrm: int,
    library: Mapping[str, ComponentSpec],
    bindings: ReturnBindings,
    *,
    min_channel_spacing_nm: float = DEFAULT_CHANNEL_SPACING_NM,
) -> OpticalTopology:
    """Construct the digitized return graph: N/4 groups of four channels, each
    group multiplexed onto one fiber into the beam-former unit.

    The group size of four is fixed; N must divide by it exactly.
    """
    group = CHANNELS_PER_RETURN_GROUP
    if n_dtrm < group or n_dtrm % group != 0:
        raise BuildError(
            f"n_dtrm must be a positive multiple of {group} for the return network, "
            f"got {n_dtrm}")
    if len(bindings.lasers) != group:
        raise BuildError(
            f"return bindings need exactly {group} lasers, got {len(bindings.lasers)}")

    _check_roles(library, bindings, RETURN_ROLES)
    group_wavelengths = [library[name].wavelength_nm for name in bindings.lasers]
    if len(set(group_wavelengths)) != group:
        raise BuildError("wavelength collision among the return-group lasers")

    n_groups = n_dtrm // group
    numbers = _numbers(n_dtrm)
    channel_ids = ["rx" + number for number in numbers]
    nodes: list[Node] = []
    edges: list[FiberEdge] = []

    # Each node kind's parts, one tuple per network.
    otxc_parts = (*[part for laser_name in bindings.lasers
                    for part in (laser_name, bindings.modulator)], bindings.mux)
    rx_parts = (bindings.demux,) + (bindings.detector,) * group

    transmitter, receiver, module = (NodeKind.DIGITAL_OTXC, NodeKind.ORXC,
                                     NodeKind.DTRM)
    start = 0
    for group_number in _numbers(n_groups):
        dotxc_id = "dotxc" + group_number
        rx_id = "dbfu_rx" + group_number
        nodes.append(Node(dotxc_id, transmitter, otxc_parts))
        nodes.append(Node(rx_id, receiver, rx_parts))
        for number in numbers[start:start + group]:
            dtrm_id = "dtrm" + number
            nodes.append(Node(dtrm_id, module))
            edges.append(FiberEdge(dtrm_id, dotxc_id, None))
        edges.append(FiberEdge(dotxc_id, rx_id, bindings.fiber,
                               frozenset(channel_ids[start:start + group])))
        start += group
        edges.append(FiberEdge(rx_id, "dbfu", None))
    nodes.append(Node("dbfu", NodeKind.DBFU))

    return OpticalTopology(
        direction=Direction.RETURN,
        nodes=tuple(nodes),
        edges=tuple(edges),
        library=dict(library),
        wavelength_plan=dict(zip(channel_ids, group_wavelengths * n_groups)),
        channel_kinds=dict.fromkeys(channel_ids, DetectorKind.DIGITAL),
        channel_lasers=dict(zip(channel_ids, bindings.lasers * n_groups)),
        channel_modulators=dict.fromkeys(channel_ids, bindings.modulator),
        channel_detectors=dict.fromkeys(channel_ids, bindings.detector),
        n_dtrm=n_dtrm,
        min_channel_spacing_nm=min_channel_spacing_nm,
    )


def return_groups(topology: OpticalTopology) -> list[tuple[str, tuple[str, ...]]]:
    """Digitized groups as (group node id, sorted channel ids)."""
    groups = []
    transmitter = NodeKind.DIGITAL_OTXC
    for node in topology.nodes:
        if node.kind is transmitter:
            carried: set[str] = set()
            for edge in topology.outgoing(node.id):
                carried.update(edge.channels)
            groups.append((node.id, tuple(sorted(carried))))
    return sorted(groups)


def _has_cycle(topology: OpticalTopology) -> bool:
    """Depth-first search from each node in node order, over an explicit
    stack of (node on the walk, iterator over its edges not yet followed).
    A node without outgoing edges is done as soon as it is reached."""
    out = topology._out
    state: dict[str, int] = {}  # 1 while on the walk, 2 once done
    for root in topology.nodes:
        if root.id in state:
            continue
        state[root.id] = 1
        stack = [(root.id, iter(out.get(root.id, ())))]
        while stack:
            node_id, edges = stack[-1]
            for edge in edges:
                target = edge.target
                seen = state.get(target)
                if seen is None:
                    ahead = out.get(target)
                    if ahead is None:
                        state[target] = 2
                        continue
                    state[target] = 1
                    stack.append((target, iter(ahead)))
                    break
                if seen == 1:
                    return True
            else:
                state[node_id] = 2
                stack.pop()
    return False


# Each spec that passed ``validate_component``, by its id: the check reads
# the spec alone, so the networks of one run, which share their library's
# specs, check each once. A spec is held while it is here, so its id names
# it. Equal specs are not merged: ``True == 1.0`` and ``Modulation.DIRECT ==
# "dm"``, yet the check tells them apart. The map is emptied when it holds
# ``_SOUND_LIMIT`` specs, so a process that validates many libraries does
# not keep them all.
_SOUND_SPECS: dict[int, ComponentSpec] = {}
_SOUND_LIMIT = 1024


def validate_topology(topology: OpticalTopology) -> ValidationReport:
    """Structural and composition checks; violations are data, never raised."""
    issues: list[Violation] = []

    def bad(subject: str, field_name: str, message: str) -> None:
        issues.append(Violation(subject, field_name, message))

    nodes, edges, library = topology.nodes, topology.edges, topology.library
    known = topology._by_id
    if len(known) != len(nodes):
        bad("topology", "nodes", "duplicate node ids")
    # The edge index holds every edge end, so the ends that are not nodes
    # are its keys less the node ids.
    stray = (topology._out.keys() | topology._in.keys()) - known.keys()
    if stray:
        for e in edges:
            if e.source in stray or e.target in stray:
                bad(f"{e.source}->{e.target}", "edge", "references unknown node")

    if _has_cycle(topology):
        bad("topology", "edges", "graph contains a cycle")

    # A check runs at the first member of a class, keyed by all it reads but
    # channel names; a part's key is its name. Only passes are kept, so each
    # member of a failing class is checked on its own and names its channels.
    # A components tuple all of whose parts passed is skipped whole, and so
    # is a spec that passed in any network validated before.
    passed: set = set()
    clean: set[tuple[str, ...]] = set()
    for node in nodes:
        parts = node.components
        if parts in clean:
            continue
        for name in parts:
            if name in passed:
                continue
            spec = library.get(name)
            if spec is None:
                bad(node.id, "components", f"unknown component {name!r}")
                continue
            if _SOUND_SPECS.get(id(spec)) is not spec:
                report = validate_component(spec, name=f"{node.id}:{name}")
                issues.extend(report.violations)
                if not report.ok:
                    continue
                if len(_SOUND_SPECS) >= _SOUND_LIMIT:
                    _SOUND_SPECS.clear()
                _SOUND_SPECS[id(spec)] = spec
            passed.add(name)
        if passed.issuperset(parts):
            clean.add(parts)

    # The source band is a rule of the plan: one violation per channel.
    plan = topology.wavelength_plan
    lo, hi = WDM_BAND_NM
    for ch, nm in sorted(plan.items()):
        if not lo <= nm <= hi:
            bad("topology", "channels",
                f"channel {ch!r} at {nm} nm outside [{lo:.0f}, {hi:.0f}] nm")

    # Each channel's (wavelength, kind, bound detector), None where the plan
    # lacks it, is interned to an int, and a channel multiset to the sorted
    # tuple of its channels' ints, interned in turn: once per distinct
    # tuple of channel sets.
    kinds, detectors = topology.channel_kinds, topology.channel_detectors
    traits: dict[tuple, int] = {}
    multisets: dict[tuple[int, ...], int] = {}
    carried_ids: dict[tuple[frozenset[str], ...], int] = {}

    def carried(sets: tuple[frozenset[str], ...]) -> int:
        found = carried_ids.get(sets)
        if found is None:
            multiset = sorted([
                traits.setdefault((plan.get(ch), kinds.get(ch), detectors.get(ch)),
                                  len(traits))
                for ch in frozenset().union(*sets)])
            found = carried_ids[sets] = multisets.setdefault(
                tuple(multiset), len(multisets))
        return found

    edge_ids = {channels: carried((channels,))
                for channels in set(map(_CHANNELS, edges))}
    for e in edges:
        key = (e.fiber, edge_ids[e.channels])
        if key not in passed:
            found = _edge_checks(topology, e.fiber, e.channels)
            if not found:
                passed.add(key)
            for field_name, message in found:
                bad(f"{e.source}->{e.target}", field_name, message)

    # A node check reads the node's kind and parts; at a transmitter chip
    # or junction box, also the lanes of its outgoing edges; at a receiver
    # chip, those of its incoming edges and what they carry. The checks of
    # the other kinds read nothing.
    out, into = topology._out, topology._in
    receiver = NodeKind.ORXC
    for node in nodes:
        kind = node.kind
        if kind is receiver:
            in_edges = into.get(node.id, ())
            key = (kind, node.components,
                   tuple([(e.lane, not e.channels) for e in in_edges]),
                   carried(tuple([e.channels for e in in_edges])))
        elif kind in _FAN_OUT_KINDS:
            key = (kind, node.components, tuple([
                (e.lane, not e.channels) for e in out.get(node.id, ())]))
        else:
            key = (kind,)
        if key not in passed:
            found = _node_checks(topology, node)
            if not found:
                passed.add(key)
            for field_name, message in found:
                bad(node.id, field_name, message)

    # Structural chain checks per direction.
    kind_counts = Counter(map(_KIND, nodes))
    if topology.direction is Direction.FORWARD:
        for kind, want in ((NodeKind.EXCITER, 1), (NodeKind.OTXC, 1),
                           (NodeKind.FOJB, 1), (NodeKind.ORXC, topology.n_dtrm),
                           (NodeKind.DTRM, topology.n_dtrm)):
            if kind_counts[kind] != want:
                bad("topology", "nodes",
                    f"expected {want} {kind.value} node(s), found "
                    f"{kind_counts[kind]}")
        for ch in sorted(topology.wavelength_plan):
            reached = _reachable_terminals(topology, ch)
            if len(reached) != topology.n_dtrm:
                bad("topology", "channels",
                    f"channel {ch!r} reaches {len(reached)} of "
                    f"{topology.n_dtrm} modules")
    else:
        n_groups = topology.n_dtrm // CHANNELS_PER_RETURN_GROUP
        if kind_counts[NodeKind.DIGITAL_OTXC] != n_groups:
            bad("topology", "nodes",
                f"expected {n_groups} digital transmitter group(s), found "
                f"{kind_counts[NodeKind.DIGITAL_OTXC]}")
        if kind_counts[NodeKind.DBFU] != 1:
            bad("topology", "nodes", "expected exactly one beam-former node")

    return ValidationReport(tuple(issues))


def _edge_checks(topology: OpticalTopology, fiber: str | None,
                 channels: frozenset[str]) -> list[tuple[str, str]]:
    """(field, message) of each wavelength-bookkeeping violation on an edge
    with this fiber and channel set."""
    found: list[tuple[str, str]] = []
    if channels and fiber is None:
        found.append(("fiber", "edge carries channels but has no fiber"))
    if fiber is not None and not isinstance(topology.library.get(fiber), FiberSpec):
        found.append(("fiber", f"fiber {fiber!r} missing from library or wrong type"))
    wavelengths = []
    for ch in sorted(channels):
        nm = topology.wavelength_plan.get(ch)
        if nm is None:
            found.append(("channels", f"channel {ch!r} missing from wavelength plan"))
            continue
        wavelengths.append((nm, ch))
    wavelengths.sort()
    for (nm_a, ch_a), (nm_b, ch_b) in zip(wavelengths, wavelengths[1:]):
        gap = nm_b - nm_a
        if nm_a == nm_b:
            found.append(("channels",
                          f"wavelength collision: {ch_a!r} and {ch_b!r} both at {nm_a} nm"))
        elif gap < topology.min_channel_spacing_nm and not math.isclose(
                gap, topology.min_channel_spacing_nm, rel_tol=1e-9):
            found.append(("channels",
                          f"channels {ch_a!r}/{ch_b!r} spaced {gap:.3f} nm "
                          f"< minimum {topology.min_channel_spacing_nm} nm"))
    return found


def _node_checks(topology: OpticalTopology,
                 node: Node) -> list[tuple[str, str]]:
    """(field, message) of each composition-rule violation at ``node``."""
    found: list[tuple[str, str]] = []
    out_edges = topology.outgoing(node.id)
    in_edges = topology.incoming(node.id)
    lasers = topology.components_of(node, LaserSpec)
    modulators = topology.components_of(node, ModulatorSpec)
    muxes = topology.components_of(node, MuxDemuxSpec)
    edfas = topology.components_of(node, EdfaSpec)
    splitters = topology.components_of(node, SplitterSpec)
    detectors = topology.components_of(node, PhotodetectorSpec)
    out_lanes = sorted({e.lane for e in out_edges if e.channels})
    in_lanes = sorted({e.lane for e in in_edges if e.channels})

    if node.kind in _TRANSMITTER_KINDS:
        if not lasers:
            found.append(("components", "transmitter chip needs at least one laser"))
        if len(modulators) != len(lasers):
            found.append(("components",
                          f"lasers and modulators must pair up "
                          f"({len(lasers)} lasers, {len(modulators)} modulators)"))
        expected_mux = max(1, len(out_lanes))
        if len(muxes) != expected_mux:
            found.append(("components",
                          f"expected {expected_mux} mux(es) for {expected_mux} outgoing "
                          f"lane(s), found {len(muxes)}"))
        if node.kind is NodeKind.OTXC and len(edfas) > expected_mux:
            found.append(("components",
                          "transmitter chip carries more boosters than fibers"))
    elif node.kind is NodeKind.FOJB:
        expected = max(1, len(out_lanes))
        if len(splitters) != expected:
            found.append(("components",
                          f"junction box needs one splitter per lane "
                          f"({len(splitters)} found, {expected} expected)"))
        if len(edfas) != expected:
            found.append(("components",
                          f"junction box needs one amplifier per lane "
                          f"({len(edfas)} found, {expected} expected)"))
        for lane in out_lanes or [0]:
            legs = sum(1 for e in out_edges if e.channels and e.lane == lane)
            for name in splitters:
                spec = topology.library[name]
                if spec.fanout != legs:
                    found.append(("fanout",
                                  f"splitter fanout {spec.fanout} != {legs} outgoing "
                                  f"edges on lane {lane}"))
    elif node.kind is NodeKind.ORXC:
        expected = max(1, len(in_lanes))
        if len(muxes) != expected:
            found.append(("components",
                          f"receiver chip needs one demux per incoming lane "
                          f"({len(muxes)} found, {expected} expected)"))
        if not detectors:
            found.append(("components", "receiver chip needs at least one detector"))
        arriving: set[str] = set()
        for e in in_edges:
            arriving.update(e.channels)
        for want in (DetectorKind.ANALOG, DetectorKind.DIGITAL):
            need = sum(1 for ch in arriving if topology.channel_kinds.get(ch) is want)
            have = sum(1 for name in detectors
                       if topology.library[name].kind is want)
            if have < need:
                found.append(("components",
                              f"{need} {want.value} channel(s) arrive but only {have} "
                              f"{want.value} detector(s) fitted"))
        for ch in sorted(arriving):
            bound = topology.channel_detectors.get(ch)
            spec = topology.library.get(bound) if bound else None
            want = topology.channel_kinds.get(ch)
            if isinstance(spec, PhotodetectorSpec) and want is not None \
                    and spec.kind is not want:
                found.append(("components",
                              f"{want.value} channel {ch!r} terminated on a "
                              f"{spec.kind.value} detector"))
    return found


def _reachable_terminals(topology: OpticalTopology,
                         channel: str) -> tuple[tuple[FiberEdge, ...], ...]:
    """All edge trails that carry the channel from its source to a receiver
    chip. They are walked once per topology and lane: channels of one source
    carried by the same channel sets take the same edges."""
    carriers = topology._carriers
    if not carriers:
        # Every channel's sets in one order, so equal sets are equal lists.
        for carried in {e.channels for e in topology.edges}:
            for ch in carried:
                carriers.setdefault(ch, []).append(carried)
    source = topology.source(channel)
    lane = (source and source.id, tuple(carriers.get(channel, ())))
    trails = topology._trails.get(lane)
    if trails is None:
        trails = topology._trails[lane] = _walk_trails(topology, channel)
    return trails


def _walk_trails(topology: OpticalTopology,
                 channel: str) -> tuple[tuple[FiberEdge, ...], ...]:
    """Depth-first, edges in ``outgoing`` order, with an explicit stack. A
    trail ends at a receiver chip, at an edge to an unknown node (validation
    lists it) or before a node it has passed (validation lists the cycle)."""
    source = topology.source(channel)
    if source is None:
        return ()
    trails: list[tuple[FiberEdge, ...]] = []
    stack: list[tuple[str, tuple[FiberEdge, ...]]] = [(source.id, ())]
    receiver = NodeKind.ORXC
    while stack:
        node_id, trail = stack.pop()
        node = topology._by_id.get(node_id)
        if node is not None and node.kind is receiver:
            trails.append(trail)
            continue
        passed = {source.id, *(e.target for e in trail)}
        stack.extend((edge.target, trail + (edge,))
                     for edge in reversed(topology.outgoing(node_id))
                     if channel in edge.channels and edge.target not in passed)
    return tuple(trails)


def _element(topology: OpticalTopology, element_id: str, kind: ElementKind,
             name: str, node_id: str) -> PathElement:
    return PathElement(element_id, kind, name, topology.library[name], node_id)


def _on_lane(topology: OpticalTopology, node: Node, spec_type: type, lane: int) -> str:
    # A node with fewer parts of a type than lanes serves the rest with its last.
    names = topology.components_of(node, spec_type)
    return names[min(lane, len(names) - 1)]


def _launch(topology: OpticalTopology, channel: str,
            first: FiberEdge) -> list[PathElement]:
    """The transmitter's elements on ``channel``: laser, modulator, mux and
    any booster, on the lane of the trail's first edge."""
    source = topology.node(first.source)
    lane = first.lane
    suffix = f".lane{lane}" if lane else ""
    elements = [
        _element(topology, f"{source.id}.laser.{channel}", ElementKind.LASER,
                 topology.channel_lasers[channel], source.id),
        _element(topology, f"{source.id}.mod.{channel}", ElementKind.MODULATOR,
                 topology.channel_modulators[channel], source.id),
        _element(topology, f"{source.id}.mux{suffix}", ElementKind.MUX,
                 _on_lane(topology, source, MuxDemuxSpec, lane), source.id),
    ]
    if topology.components_of(source, EdfaSpec):
        elements.append(_element(topology, f"{source.id}.edfa{suffix}", ElementKind.EDFA,
                                 _on_lane(topology, source, EdfaSpec, lane), source.id))
    return elements


def _transmitter_lane(topology: OpticalTopology, source: Node,
                      lane: int) -> tuple[PathElement, ...]:
    """The transmitter's elements on ``lane`` that every channel of the lane
    meets: its mux and any booster, as ``_launch`` builds them. ``_launch``
    stays a route of its own, the one that the per-path enumeration oracle
    in ``tests/conftest.py`` takes."""
    suffix = f".lane{lane}" if lane else ""
    mux = _element(topology, f"{source.id}.mux{suffix}", _MUX,
                   _on_lane(topology, source, MuxDemuxSpec, lane), source.id)
    if not topology.components_of(source, EdfaSpec):
        return (mux,)
    return mux, _element(topology, f"{source.id}.edfa{suffix}", _EDFA,
                         _on_lane(topology, source, EdfaSpec, lane), source.id)


def _hop(topology: OpticalTopology, edge: FiberEdge,
         lane: int) -> list[PathElement]:
    """The elements a channel meets over one edge, up to a receiver's
    detector: its fiber, then the junction box's amplifier and splitter or
    the receiver's demux. None depends on the channel. Node parts are picked
    on the launch ``lane``."""
    src, dst = edge.source, edge.target
    suffix = f".lane{lane}" if lane else ""
    edge_suffix = f".lane{edge.lane}" if edge.lane else ""
    elements = [_element(topology, f"{src}->{dst}{edge_suffix}",
                         ElementKind.FIBER, edge.fiber, src)]
    node = topology.node(dst)
    if node.kind is NodeKind.FOJB:
        elements.append(_element(topology, f"{dst}.edfa{suffix}", ElementKind.EDFA,
                                 _on_lane(topology, node, EdfaSpec, lane), dst))
        elements.append(_element(topology, f"{dst}.splitter{suffix}", ElementKind.SPLITTER,
                                 _on_lane(topology, node, SplitterSpec, lane), dst))
    elif node.kind is NodeKind.ORXC:
        elements.append(_element(topology, f"{dst}.demux{suffix}", ElementKind.DEMUX,
                                 _on_lane(topology, node, MuxDemuxSpec, lane), dst))
    return elements


def _destination(topology: OpticalTopology, terminal: str) -> str:
    for edge in topology.outgoing(terminal):
        if topology.node(edge.target).kind in _TERMINAL_KINDS:
            return edge.target
    return terminal


def enumerate_paths(topology: OpticalTopology) -> list[PathMember]:
    """One member per (channel, destination) path; deterministic order by
    channel id then terminal node id. Raises if the topology does not
    validate.

    A channel's elements up to a trail's last edge (laser to splitter on the
    forward network) are joined once per such prefix, from parts built where
    they vary: the laser and modulator once per channel, the transmitter's
    mux and booster once per (transmitter, lane), and each earlier edge's
    elements (``_hop``) once per (edge, lane). The last edge's fiber
    and demux, its destination and its receiver chip's arrivals are found
    once per (edge, lane) and shared by every channel that lands there.
    Paths of one prefix whose last hop has the same component names and
    co-propagating channels form one class; only the class's first path is
    built as a ``SignalPath``, detector and co-propagating channels
    included, and the element order is checked once per distinct kind
    sequence."""
    report = validate_topology(topology)
    if not report.ok:
        raise TopologyError("topology is invalid", report.messages())
    members: list[PathMember] = []
    legal: set[str] = set()
    direction = topology.direction.value
    plan = topology.wavelength_plan
    # (transmitter id, launch lane) -> its mux and booster; (edge before the
    # last, launch lane) -> the edge's elements.
    launches: dict[tuple[str, int], tuple[PathElement, ...]] = {}
    hops: dict[tuple[FiberEdge, int], tuple[PathElement, ...]] = {}
    # (last edge, launch lane) -> its elements, their component names, the
    # destination past the edge's receiver chip and the chip's arrivals.
    drops: dict[tuple[FiberEdge, int],
                tuple[tuple[PathElement, ...], tuple[str, ...], str,
                      dict[str, tuple[tuple[str, ...], tuple[str, ...]]]]] = {}
    for channel in sorted(plan):
        # Trail head -> its elements and its classes by last hop.
        prefixes: dict[tuple[FiberEdge, ...],
                       tuple[tuple[PathElement, ...], dict[tuple, PathClass]]] = {}
        # The channel's laser and modulator, on the transmitter that every
        # one of its trails starts from.
        own: tuple[PathElement, ...] | None = None
        trails = sorted(_reachable_terminals(topology, channel),
                        key=lambda trail: trail[-1].target)
        for trail in trails:
            first = trail[0]
            lane = first.lane
            head = trail[:-1]
            prefix = prefixes.get(head)
            if prefix is None:
                source = first.source
                if own is None:
                    laser = topology.channel_lasers[channel]
                    modulator = topology.channel_modulators[channel]
                    own = (_element(topology, f"{source}.laser.{channel}", _LASER,
                                    laser, source),
                           _element(topology, f"{source}.mod.{channel}", _MODULATOR,
                                    modulator, source))
                launch = launches.get((source, lane))
                if launch is None:
                    launch = launches[source, lane] = _transmitter_lane(
                        topology, topology.node(source), lane)
                elements = own + launch
                for edge in head:
                    hop = hops.get((edge, lane))
                    if hop is None:
                        hop = hops[edge, lane] = tuple(_hop(topology, edge, lane))
                    elements += hop
                prefix = prefixes[head] = (elements, {})
            shared, classes = prefix
            last = trail[-1]
            terminal = last.target
            drop = drops.get((last, lane))
            if drop is None:
                elements = tuple(_hop(topology, last, lane))
                drop = drops[last, lane] = (
                    elements, tuple([e.component for e in elements]),
                    _destination(topology, terminal), _arrivals(topology, terminal))
            hop, names, destination, arrivals = drop
            detector = f"{terminal}.pd.{channel}"
            # The last edge carries the channel into the chip.
            sharing = arrivals[channel]
            # The last hop is a fiber into a receiver chip's demux, so its
            # component names fix its elements.
            key = (names, sharing[0])
            cls = classes.get(key)
            if cls is None:
                path = SignalPath(
                    channel=channel,
                    direction=topology.direction,
                    destination=destination,
                    wavelength_nm=plan[channel],
                    elements=shared + hop + (_element(
                        topology, detector, _DETECTOR,
                        topology.channel_detectors[channel], terminal),),
                    co_propagating=sharing,
                )
                tokens = path.kind_tokens()
                if tokens not in legal:
                    if not _LEGAL_PATH_RE.match(tokens):
                        raise TopologyError(
                            f"path {path.path_id} has illegal element order "
                            f"{tokens!r}")
                    legal.add(tokens)
                cls = classes[key] = PathClass(shared, path)
            members.append(PathMember(
                cls, destination, hop, detector,
                _path_id(direction, channel, destination)))
    return members


def co_propagating_at(topology: OpticalTopology, channel: str,
                      terminal: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The channels that enter ``terminal`` on its first incoming edge that
    carries ``channel`` (itself included), by name and by wavelength."""
    return _arrivals(topology, terminal).get(channel, ((channel,), (channel,)))


def _arrivals(topology: OpticalTopology, terminal: str
              ) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
    """Each channel that enters ``terminal``, mapped to the channels of the
    first incoming edge, in index order, that carries it, by name and by
    wavelength. Built once per node."""
    arrivals = topology._arrivals.get(terminal)
    if arrivals is None:
        arrivals = topology._arrivals[terminal] = {}
        for edge in topology.incoming(terminal):
            lane = _lane(topology, edge.channels)
            for channel in edge.channels:
                arrivals.setdefault(channel, lane)
    return arrivals


def _lane(topology: OpticalTopology,
          channels: frozenset[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``channels`` by name and by wavelength, sorted once per topology."""
    lane = topology._lanes.get(channels)
    if lane is None:
        by_name = tuple(sorted(channels))
        lane = topology._lanes[channels] = (by_name, tuple(
            sorted(by_name, key=topology.wavelength_plan.__getitem__)))
    return lane


def adjacency_dump(topology: OpticalTopology) -> list[str]:
    """Plain-text adjacency listing for inspection via the CLI. Each node's
    head, each kind's label and each distinct channel set are formatted
    once."""
    lines = []
    labels = {kind: f" [{kind.value}]" for kind in NodeKind}
    listed: dict[frozenset[str], str] = {}
    out = topology._out
    for node in topology.nodes:
        head = node.id + labels[node.kind]
        edges = out.get(node.id)
        if edges is None:
            lines.append(head)
            continue
        for edge in edges:
            carried = listed.get(edge.channels)
            if carried is None:
                carried = listed[edge.channels] = (
                    ",".join(sorted(edge.channels)) if edge.channels else "-")
            fiber = edge.fiber if edge.fiber else "direct"
            lane = f" lane={edge.lane}" if edge.lane else ""
            lines.append(f"{head} -> {edge.target} ({fiber}{lane}; channels: {carried})")
    return lines
