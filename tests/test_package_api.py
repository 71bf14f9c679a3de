"""The package's public names and the layers each command loads.

``photonlink`` binds its public names on first read (PEP 562), each from the
module that defines it, and ``photonlink.cli`` binds the analysis functions
it calls the same way. Every name must still be the object it was when the
package imported them all at once, and a name that a wrapper was put on
before its first read must stay the wrapper."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import photonlink
from photonlink import cli
from photonlink.data import reference_scenario_path

SRC = Path(photonlink.__file__).resolve().parents[1]

# Every public name of the package, by the module that defines it.
EXPORTS = {
    **dict.fromkeys((
        "ComponentSpec", "DetectorKind", "EdfaSpec", "FiberSpec", "GratingTech",
        "LaserSpec", "Modulation", "ModulatorBias", "ModulatorSpec",
        "MuxDemuxSpec", "PhotodetectorSpec", "SplitterSpec", "ValidationReport",
        "Violation", "validate_component"), "components"),
    **dict.fromkeys((
        "GroupCapacity", "check_group_capacity", "payload_throughput_bytes_per_s",
        "required_line_rate_bps"), "digitalpath"),
    **dict.fromkeys((
        "AnalysisError", "BuildError", "PhotonlinkError", "ScenarioError",
        "TopologyError"), "errors"),
    **dict.fromkeys((
        "AutogainResult", "LedgerEntry", "LinkMetrics", "NoiseBreakdown",
        "OpticalLedger", "analyze_path", "apply_edfa_gains", "autogained",
        "cascade_noise_figure", "crosstalk_db", "edfa_autogain",
        "noise_figure_db", "optical_ledger", "phase_noise_degradation_db",
        "propagation_delay_s", "rf_gain_db", "sfdr_db", "timing_jitter_s",
        "worst_case"), "linkbudget"),
    **dict.fromkeys((
        "AdcStreamSpec", "AnalysisConfig", "DesignVariant", "DigitalLinkSpec",
        "Integration", "LineEncoding", "RequirementSet", "Scenario",
        "VariantOutcome", "is_feasible", "parse_scenario"), "scenario"),
    **dict.fromkeys((
        "ChannelPlan", "Direction", "ElementKind", "FiberEdge", "ForwardBindings",
        "Node", "NodeKind", "OpticalTopology", "PathClass", "PathElement",
        "PathMember", "ReturnBindings", "SignalPath", "build_forward_network",
        "build_return_network", "enumerate_paths", "return_groups",
        "validate_topology"), "topology"),
    **dict.fromkeys((
        "ComplianceReport", "OrdinalScore", "Recommendation", "RequirementCheck",
        "check_requirements", "enumerate_variants", "recommend",
        "score_variant"), "tradeoff"),
}

# The input records that the analysis modules once defined, by the module
# that still names them.
MOVED = {
    "AnalysisConfig": "linkbudget",
    "AdcStreamSpec": "digitalpath",
    "DigitalLinkSpec": "digitalpath",
    "LineEncoding": "digitalpath",
    "DEFAULT_THROUGHPUT_BAR_BYTES_PER_S": "digitalpath",
    "ALL_VARIANTS": "tradeoff",
    "DesignVariant": "tradeoff",
    "Integration": "tradeoff",
    "RequirementSet": "tradeoff",
    "VariantOutcome": "tradeoff",
    "is_feasible": "tradeoff",
}

ANALYSIS_MODULES = ("photonlink.digitalpath", "photonlink.linkbudget",
                    "photonlink.tradeoff")


def fresh(code: str) -> str:
    """What ``code`` prints, run in a new interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_all_is_the_pinned_export_list():
    assert len(photonlink.__all__) == len(set(photonlink.__all__)) == 80
    assert set(photonlink.__all__) == set(EXPORTS)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_each_name_is_its_defining_modules_object(name):
    module = importlib.import_module(f"photonlink.{EXPORTS[name]}")
    value = getattr(photonlink, name)
    assert value is getattr(module, name)
    if isinstance(value, (type, types.FunctionType)):
        assert value.__module__ == module.__name__


@pytest.mark.parametrize("name", sorted(MOVED))
def test_a_moved_record_keeps_its_old_name(name):
    """``photonlink.tradeoff.DesignVariant`` and the like name the record
    that the input layer defines."""
    old = importlib.import_module(f"photonlink.{MOVED[name]}")
    assert getattr(old, name) is getattr(photonlink.scenario, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from photonlink import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(photonlink.__all__)
    assert all(namespace[name] is getattr(photonlink, name) for name in namespace)


@pytest.mark.parametrize("module", [photonlink, cli, photonlink.report])
def test_an_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert getattr(module, "no_such_name", None) is None


def test_import_photonlink_loads_no_module_of_it():
    assert fresh("import sys, photonlink\n"
                 "print(sorted(m for m in sys.modules "
                 "if m.startswith('photonlink.')))").strip() == "[]"


def test_a_name_set_on_the_cli_before_its_first_read_is_kept():
    """A wrapper set on an analysis name of a freshly imported CLI, as the
    benchmark's traced runner sets one, wraps every call of ``run``."""
    out = fresh(
        "import sys, photonlink.cli as cli\n"
        "from photonlink.scenario import parse_scenario\n"
        f"assert not {{*{ANALYSIS_MODULES!r}}} & set(sys.modules)\n"
        "calls = []\n"
        "def counting(*args, **kwargs):\n"
        "    calls.append(args)\n"
        "    return real(*args, **kwargs)\n"
        "import photonlink.linkbudget as linkbudget\n"
        "real = linkbudget.analyze_path\n"
        "cli.analyze_path = counting\n"
        f"cli.run('analyze', parse_scenario({str(reference_scenario_path())!r}))\n"
        "print(cli.analyze_path is counting, len(calls))\n")
    assert out.split() == ["True", "32"]


def test_analyze_binds_every_analysis_name():
    out = fresh(
        "import photonlink.cli as cli\n"
        "from photonlink.scenario import parse_scenario\n"
        f"cli.run('analyze', parse_scenario({str(reference_scenario_path())!r}))\n"
        "print(sorted(name for name in cli._ANALYSIS if name in vars(cli)))\n")
    assert out.strip() == repr(sorted(cli._ANALYSIS))
