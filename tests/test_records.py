"""Every record of the package, pinned: whether it is a frozen dataclass or a
``NamedTuple``, and which methods ``dataclass`` generates for it. On Python
3.12 and earlier each generated method costs one ``exec`` at import, so a
method is generated only where something calls it: ``__eq__`` (and the
``__hash__`` that goes with it) where a test or the CLI compares records,
never ``__repr__``. A record that needs none of a dataclass's extras (a
``__post_init__``, a cached property, a dataclass base, field introspection,
identity equality, a mutable default) is a ``NamedTuple``, whose methods are
the tuple's. Changing a record's kind or methods means changing this table.

Every field of every record refuses assignment."""

import dataclasses
import inspect
import sys
from collections.abc import Mapping

import pytest

from photonlink import cli
from photonlink.components import validate_component
from photonlink.linkbudget import edfa_autogain
from photonlink.topology import RETURN_ROLES
from photonlink.tradeoff import VariantOutcome

# Generated methods of a frozen dataclass, with and without ``eq``.
EQ = {"__init__", "__eq__", "__hash__", "__setattr__", "__delattr__"}
NO_EQ = {"__init__", "__setattr__", "__delattr__"}
GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__",
             "__delattr__"}

DATACLASSES = {
    # Compared under == through the paths and bundles that hold them.
    "components.LaserSpec": EQ,
    "components.ModulatorSpec": EQ,
    "components.MuxDemuxSpec": EQ,
    "components.EdfaSpec": EQ,
    "components.SplitterSpec": EQ,
    "components.FiberSpec": EQ,
    "components.PhotodetectorSpec": EQ,
    "linkbudget.LinkMetrics": EQ,
    # Compared by identity, or not at all.
    "linkbudget.AnalysisConfig": NO_EQ,
    "report.ClassResult": NO_EQ,
    "report.PathResult": NO_EQ,
    "report.VariantResult": NO_EQ,
    "topology.PathClass": NO_EQ,
    "topology.OpticalTopology": NO_EQ,
    "tradeoff.RequirementSet": NO_EQ,
    "tradeoff.VariantOutcome": NO_EQ,
}

NAMED_TUPLES = {
    "cli._ForwardAnalysis",
    "components.Violation",
    "components.ValidationReport",
    "digitalpath.DigitalLinkSpec",
    "digitalpath.AdcStreamSpec",
    "digitalpath.GroupCapacity",
    "linkbudget.LedgerEntry",
    "linkbudget.OpticalLedger",
    "linkbudget.NoiseBreakdown",
    "linkbudget.AutogainResult",
    "report.TopologySummary",
    "report.Report",
    "scenario.Scenario",
    "topology.ChannelPlan",
    "topology.Node",
    "topology.FiberEdge",
    "topology.PathElement",
    "topology.SignalPath",
    "topology.PathMember",
    "topology.ForwardBindings",
    "topology.ReturnBindings",
    "topology.Role",
    "tradeoff.DesignVariant",
    "tradeoff.OrdinalScore",
    "tradeoff.RequirementCheck",
    "tradeoff.ComplianceReport",
    "tradeoff.Recommendation",
}


def is_named_tuple(cls) -> bool:
    return issubclass(cls, tuple) and hasattr(cls, "_fields")


def package_records() -> dict[str, type]:
    """Every dataclass and ``NamedTuple`` defined in the package, by
    ``module.Class`` with the ``photonlink.`` prefix dropped."""
    records = {}
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("photonlink."):
            continue
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module_name
                    and (dataclasses.is_dataclass(cls) or is_named_tuple(cls))):
                records[f"{module_name[len('photonlink.'):]}.{cls.__name__}"] = cls
    return records


def field_names(record) -> tuple[str, ...]:
    if dataclasses.is_dataclass(record):
        return tuple(f.name for f in dataclasses.fields(record))
    return record._fields


def test_every_record_is_pinned():
    records = package_records()
    assert set(records) == set(DATACLASSES) | NAMED_TUPLES
    for name, cls in records.items():
        if name in NAMED_TUPLES:
            assert is_named_tuple(cls), name
            assert cls.__eq__ is tuple.__eq__, name
            assert cls.__hash__ is tuple.__hash__, name
        else:
            assert cls.__dataclass_params__.frozen, name
            assert GENERATED & set(vars(cls)) == DATACLASSES[name], name


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
        if dataclasses.is_dataclass(cls) or is_named_tuple(cls):
            found.setdefault(cls, value)
            stack.extend(getattr(value, name) for name in field_names(cls))
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
        validate_component(dataclasses.replace(laser, output_power_w=-1.0)),
        VariantOutcome(first.variant, first.score, first.compliance),
        RETURN_ROLES)
    records = package_records()
    assert set(found) >= set(records.values())
    for cls in records.values():
        record = found[cls]
        for field in field_names(cls):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
