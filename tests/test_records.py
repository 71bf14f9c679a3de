"""Every record of the package, pinned: whether it is a ``NamedTuple`` (on
``photonlink.frozen.NamedTuple``) or a frozen class on
``photonlink.frozen.Frozen``. A ``NamedTuple`` is built by
``collections.namedtuple``, which generates its ``__new__`` as source and
evals it at import; a frozen class generates no code. A record is a
``NamedTuple``, whose methods are the tuple's and which
hashes and compares as the tuple of its fields, unless it must compare by
identity, keep a cached property, build an index when constructed, or stay
out of the JSON encoder (which writes any tuple as a list). Those are frozen
classes with a hand-written ``__init__``, equal only to themselves. Changing
a record's kind means changing this table.

Every field of every record refuses assignment."""

import __future__
import ast
import inspect
import sys
import types
import typing
from collections.abc import Mapping
from pathlib import Path

import pytest

from photonlink import cli, frozen
from photonlink.components import validate_component
from photonlink.frozen import Frozen
from photonlink.linkbudget import edfa_autogain
from photonlink.scenario import VariantOutcome
from photonlink.topology import RETURN_ROLES

FROZEN = {
    "report.ClassResult",
    "report.PathResult",
    "report.VariantResult",
    "scenario.VariantOutcome",
    "topology.PathClass",
    "topology.OpticalTopology",
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
    "digitalpath.GroupCapacity",
    "linkbudget.AutogainResult",
    "linkbudget.LedgerEntry",
    "linkbudget.LinkMetrics",
    "linkbudget.NoiseBreakdown",
    "linkbudget.OpticalLedger",
    "report.Report",
    "report.TopologySummary",
    "scenario.AdcStreamSpec",
    "scenario.AnalysisConfig",
    "scenario.DesignVariant",
    "scenario.DigitalLinkSpec",
    "scenario.RequirementSet",
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
    "tradeoff.OrdinalScore",
    "tradeoff.Recommendation",
    "tradeoff.RequirementCheck",
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


def record_instances(scenario) -> dict[type, object]:
    """One instance of every record type, from a ``tradeoff`` run of
    ``scenario`` and the library calls that make the records it holds none
    of."""
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
    assert set(found) >= set(package_records().values())
    return found


def test_no_field_of_any_record_can_be_assigned(reference_scenario):
    found = record_instances(reference_scenario)
    for cls in package_records().values():
        record = found[cls]
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
            with pytest.raises(AttributeError):
                delattr(record, field)


def typing_built(cls: type) -> type:
    """``cls`` built again by ``typing.NamedTuple``: its class body, taken
    from its module's source and compiled at its own lines as the module is,
    run in a copy of the module's globals in which ``NamedTuple`` is
    typing's."""
    module = sys.modules[cls.__module__]
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    (body,) = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == cls.__name__]
    namespace = dict(vars(module), NamedTuple=typing.NamedTuple)
    exec(compile(ast.Module(body=[body], type_ignores=[]), module.__file__,
                 "exec", flags=__future__.annotations.compiler_flag,
                 dont_inherit=True), namespace)
    return namespace[cls.__name__]


def attribute(value):
    """A class attribute in a form that compares equal across two builds of
    its class: a function by where its code starts, its names, annotations,
    defaults and docstring (not by its bytecode, which the interpreter
    rewrites in place as it runs), a property or a class or static method
    by its functions, a field accessor by its index and docstring."""
    if isinstance(value, (classmethod, staticmethod)):
        return type(value), attribute(value.__func__)
    if isinstance(value, property):
        return property, *map(attribute, (value.fget, value.fset, value.fdel))
    if isinstance(value, types.FunctionType):
        code = value.__code__
        return (code.co_filename, code.co_firstlineno, value.__qualname__,
                value.__annotations__, value.__defaults__, value.__kwdefaults__,
                value.__doc__)
    if type(value).__name__ == "_tuplegetter":
        return value.__reduce__()
    return value


def annotations(cls: type) -> dict:
    """``cls.__annotations__`` with each ``typing.ForwardRef`` (how typing
    stores a string annotation) read back as its string."""
    return {name: getattr(kind, "__forward_arg__", kind)
            for name, kind in cls.__annotations__.items()}


def test_each_named_tuple_is_what_typing_builds(reference_scenario):
    """Dual route: every pinned ``NamedTuple`` record, built again from its
    own source by ``typing.NamedTuple``, has the same fields, defaults,
    annotations, docstring, module, methods and other attributes, and an
    instance of it has the same ``repr``. Typing keeps each string
    annotation as a ``ForwardRef`` of that string, and sets dunders of its
    own (``__orig_bases__``), which the comparison leaves out."""
    records = package_records()
    found = record_instances(reference_scenario)
    for name in sorted(NAMED_TUPLES):
        ours = records[name]
        theirs = typing_built(ours)
        assert ours is not theirs and type(ours) is type(theirs) is type, name
        assert ours.__bases__ == theirs.__bases__ == (tuple,), name
        assert ours._fields == theirs._fields, name
        assert ours._field_defaults == theirs._field_defaults, name
        assert ours.__new__.__defaults__ == theirs.__new__.__defaults__, name
        assert ours.__annotations__ == annotations(theirs), name
        assert ours.__new__.__annotations__ == ours.__annotations__, name
        assert all(isinstance(kind, str) for kind in ours.__annotations__.values())
        for dunder in ("__doc__", "__module__", "__qualname__"):
            assert getattr(ours, dunder) == getattr(theirs, dunder), (name, dunder)
        own = {key: attribute(value) for key, value in vars(ours).items()
               if not (key.startswith("__") and key.endswith("__"))}
        assert own == {key: attribute(value) for key, value in vars(theirs).items()
                       if not (key.startswith("__") and key.endswith("__"))}, name
        instance = found[ours]
        assert repr(theirs._make(instance)) == repr(instance), name


@pytest.mark.parametrize("body", [
    "a: int = 0\n    b: int",
    "a: int\n    def _replace(self):\n        pass",
    "a: int\n    __slots__ = ()",
])
def test_a_body_that_typing_refuses_is_refused(body):
    """A field without a default after one with a default, and a body that
    overwrites what ``namedtuple`` makes, raise what typing raises."""
    source = f"class R(NamedTuple):\n    {body}\n"
    with pytest.raises((TypeError, AttributeError)) as refused:
        exec(source, {"NamedTuple": typing.NamedTuple})
    with pytest.raises(refused.type):
        exec(source, {"NamedTuple": frozen.NamedTuple, "__name__": "m"})


def test_a_named_tuple_record_has_no_other_base():
    with pytest.raises(TypeError):
        class Mixed(frozen.NamedTuple, dict):
            a: int
