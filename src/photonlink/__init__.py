"""photonlink: link budgets, capacity checks and design tradeoffs for WDM
photonic signal distribution in phased-array radar systems.

The package's public names are loaded on first use (PEP 562): reading one
imports the module that defines it, so ``import photonlink`` loads no
module of the package, and a command loads only the layers it runs."""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS: dict[str, str] = {name: module for module, names in (
    ("components", """ComponentSpec DetectorKind EdfaSpec FiberSpec GratingTech
        LaserSpec Modulation ModulatorBias ModulatorSpec MuxDemuxSpec
        PhotodetectorSpec SplitterSpec ValidationReport Violation
        validate_component"""),
    ("digitalpath", """GroupCapacity check_group_capacity
        payload_throughput_bytes_per_s required_line_rate_bps"""),
    ("errors", """AnalysisError BuildError PhotonlinkError ScenarioError
        TopologyError"""),
    ("linkbudget", """AutogainResult LedgerEntry LinkMetrics NoiseBreakdown
        OpticalLedger analyze_path apply_edfa_gains autogained
        cascade_noise_figure crosstalk_db edfa_autogain noise_figure_db
        optical_ledger phase_noise_degradation_db propagation_delay_s
        rf_gain_db sfdr_db timing_jitter_s worst_case"""),
    ("scenario", """AdcStreamSpec AnalysisConfig DesignVariant DigitalLinkSpec
        Integration LineEncoding RequirementSet Scenario VariantOutcome
        is_feasible parse_scenario"""),
    ("topology", """ChannelPlan Direction ElementKind FiberEdge ForwardBindings
        Node NodeKind OpticalTopology PathClass PathElement PathMember
        ReturnBindings SignalPath build_forward_network build_return_network
        enumerate_paths return_groups validate_topology"""),
    ("tradeoff", """ComplianceReport OrdinalScore Recommendation
        RequirementCheck check_requirements enumerate_variants recommend
        score_variant"""),
) for name in names.split()}

__all__ = tuple(_EXPORTS)


def _lazy(namespace: dict, table: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) over ``table``, which maps each of
    its names to the module of this package that defines it; ``namespace``
    is the globals of the module that it serves. A name is read from its
    module, imported on first use, and bound in ``namespace``, where every
    later read finds it. A name that ``namespace`` holds already, such as a
    wrapper set on it, is returned as it is, so the module's own code may
    call it to read a name that may not be bound yet."""
    def __getattr__(name: str):
        if name in namespace:
            return namespace[name]
        if name not in table:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            import_module(f"{__name__}.{table[name]}"), name)
        return value
    return __getattr__


__getattr__ = _lazy(globals(), _EXPORTS)
