"""Every record of the package, pinned: whether it is a ``NamedTuple`` or a
frozen class on ``photonlink.frozen.Frozen``. Neither kind generates code at
import. A record is a ``NamedTuple``, whose methods are the tuple's and which
hashes and compares as the tuple of its fields, unless it must compare by
identity, keep a cached property, build an index when constructed, or stay
out of the JSON encoder (which writes any tuple as a list). Those are frozen
classes with a hand-written ``__init__``, equal only to themselves. Changing
a record's kind means changing this table.

Every field of every record refuses assignment."""

import inspect
import sys
from collections.abc import Mapping

import pytest

from photonlink import cli
from photonlink.components import validate_component
from photonlink.frozen import Frozen
from photonlink.linkbudget import edfa_autogain
from photonlink.topology import RETURN_ROLES
from photonlink.tradeoff import VariantOutcome

FROZEN = {
    "report.ClassResult",
    "report.PathResult",
    "report.VariantResult",
    "topology.PathClass",
    "topology.OpticalTopology",
    "tradeoff.VariantOutcome",
}

NAMED_TUPLES = {
    "cli._ForwardAnalysis",
    "components.EdfaSpec",
    "components.FiberSpec",
    "components.LaserSpec",
    "components.ModulatorSpec",
    "components.MuxDemuxSpec",
    "components.PhotodetectorSpec",
    "components.SplitterSpec",
    "components.ValidationReport",
    "components.Violation",
    "digitalpath.AdcStreamSpec",
    "digitalpath.DigitalLinkSpec",
    "digitalpath.GroupCapacity",
    "linkbudget.AnalysisConfig",
    "linkbudget.AutogainResult",
    "linkbudget.LedgerEntry",
    "linkbudget.LinkMetrics",
    "linkbudget.NoiseBreakdown",
    "linkbudget.OpticalLedger",
    "report.Report",
    "report.TopologySummary",
    "scenario.Scenario",
    "topology.ChannelPlan",
    "topology.FiberEdge",
    "topology.ForwardBindings",
    "topology.Node",
    "topology.PathElement",
    "topology.PathMember",
    "topology.ReturnBindings",
    "topology.Role",
    "topology.SignalPath",
    "tradeoff.ComplianceReport",
    "tradeoff.DesignVariant",
    "tradeoff.OrdinalScore",
    "tradeoff.Recommendation",
    "tradeoff.RequirementCheck",
    "tradeoff.RequirementSet",
}


def is_named_tuple(cls) -> bool:
    return issubclass(cls, tuple) and hasattr(cls, "_fields")


def is_record(cls) -> bool:
    return is_named_tuple(cls) or (issubclass(cls, Frozen) and cls is not Frozen)


def package_records() -> dict[str, type]:
    """Every ``NamedTuple`` and frozen class defined in the package, by
    ``module.Class`` with the ``photonlink.`` prefix dropped."""
    records = {}
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("photonlink."):
            continue
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module_name
                    and is_record(cls)):
                records[f"{module_name[len('photonlink.'):]}.{cls.__name__}"] = cls
    return records


def test_every_record_is_pinned():
    records = package_records()
    assert set(records) == FROZEN | NAMED_TUPLES
    assert len(records) == 43
    for name, cls in records.items():
        if name in NAMED_TUPLES:
            assert is_named_tuple(cls), name
            assert cls.__eq__ is tuple.__eq__, name
            assert cls.__hash__ is tuple.__hash__, name
        else:
            assert not issubclass(cls, tuple), name
            assert cls.__eq__ is object.__eq__, name
            assert cls.__hash__ is object.__hash__, name
            # Its own constructor takes exactly its fields, in order.
            assert "__init__" in vars(cls) and "_fields" in vars(cls), name
            parameters = inspect.signature(cls).parameters
            assert tuple(parameters) == cls._fields, name


def test_a_frozen_copy_rebuilds_through_its_constructor(reference_scenario):
    """``_replace`` on a frozen record calls its ``__init__``: a copied
    topology with edges taken away indexes only the edges it keeps."""
    topology = cli._forward_topology(reference_scenario,
                                     reference_scenario.variants[0])
    source = topology.edges[0].source
    copy = topology._replace(edges=tuple(
        e for e in topology.edges if e.source != source))
    assert copy.nodes is topology.nodes and copy != topology
    assert topology.outgoing(source) and not copy.outgoing(source)
    with pytest.raises(TypeError):
        topology._replace(no_such_field=1)


def instances(*roots) -> dict[type, object]:
    """One instance of each record type reachable from ``roots`` through
    record fields, tuples, lists, sets and mapping values."""
    found, seen, stack = {}, set(), list(roots)
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        cls = type(value)
        if is_record(cls):
            found.setdefault(cls, value)
            stack.extend(getattr(value, name) for name in cls._fields)
        elif isinstance(value, (tuple, list, set, frozenset)):
            stack.extend(value)
        elif isinstance(value, Mapping):
            stack.extend(value.values())
    return found


def test_no_field_of_any_record_can_be_assigned(reference_scenario):
    scenario = reference_scenario
    variant = scenario.variants[0]
    report = cli.run("tradeoff", scenario)
    first = report.variants[0]
    path = first.paths[0].path
    laser = path.elements[0].spec
    found = instances(
        scenario, report, cli._forward_topology(scenario, variant),
        scenario.forward_bindings(variant),
        cli._analyze_forward(scenario, variant), edfa_autogain(path),
        validate_component(laser._replace(output_power_w=-1.0)),
        VariantOutcome(first.variant, first.score, first.compliance),
        RETURN_ROLES)
    records = package_records()
    assert set(found) >= set(records.values())
    for cls in records.values():
        record = found[cls]
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
            with pytest.raises(AttributeError):
                delattr(record, field)
