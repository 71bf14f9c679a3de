"""Class analysis: ``analyze_path`` runs once per analysis class and every
other member of the class gets its numbers relabeled. Each check compares the
result, under exact ``==``, with ``analyze_path`` run on every path."""

import dataclasses
import random

import pytest

from photonlink import cli
from photonlink.linkbudget import (
    analyze_path,
    propagation_delay_s,
    worst_case,
)
from photonlink.topology import ElementKind, enumerate_paths

from conftest import redrawn_scenario


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


def per_path(topology, paths, modulation, config):
    reference = propagation_delay_s(paths[0])
    return [analyze_path(p, modulation, config, topology=topology,
                         reference_delay_s=reference) for p in paths]


def assert_matches_per_path(scenario, variant, topology=None):
    """Class analysis of one variant against per-path analysis; returns the
    paths and their metrics."""
    topology = topology or cli._forward_topology(scenario, variant)
    paths = enumerate_paths(topology)
    results = cli._analyze_classes(topology, paths, variant.modulation,
                                   scenario.analysis)
    want = per_path(topology, paths, variant.modulation, scenario.analysis)
    assert len(results) == len(want) == len(paths)
    for path, result, theirs in zip(paths, results, want):
        assert result.metrics == theirs, path.path_id
        assert result.flags == theirs.flags, path.path_id
    return paths, [r.metrics for r in results]


def test_reference_scenario_all_variants(reference_scenario, analyze_calls):
    scenario = reference_scenario
    variants = scenario.selected_variants()
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
    assert len(analyze_calls) == 6 * 8


@pytest.mark.parametrize("seed", range(8))
def test_randomized_libraries(reference_scenario, seed):
    rng = random.Random(seed)
    scenario = redrawn_scenario(reference_scenario, rng)
    variants = scenario.selected_variants()
    for variant in rng.sample(variants, 2):
        assert_matches_per_path(scenario, variant)


def test_swapped_drop_fiber_splits_its_destination(reference_scenario,
                                                   analyze_calls):
    scenario = reference_scenario
    library = dict(scenario.library)
    library["spare_drop"] = dataclasses.replace(
        library[scenario.drop_fiber], length_m=2500.0)
    scenario = dataclasses.replace(scenario, library=library)
    variant = scenario.selected_variants()[0]
    built = cli._forward_topology(scenario, variant)
    victim = next(e for e in built.edges if e.target == "orxc03")
    topology = dataclasses.replace(built, edges=tuple(
        dataclasses.replace(e, fiber="spare_drop") if e is victim else e
        for e in built.edges))

    analyze_calls.clear()
    paths = enumerate_paths(topology)
    metrics = [r.metrics for r in cli._analyze_classes(
        topology, paths, variant.modulation, scenario.analysis)]
    channels = len(scenario.channels)
    assert len(analyze_calls) == 2 * channels
    assert sorted(p.destination for p in analyze_calls) == (
        ["dtrm01"] * channels + ["dtrm03"] * channels)
    by_id = {p.path_id: m for p, m in zip(paths, metrics)}
    for channel in scenario.channels:
        moved = f"forward:{channel.id}->dtrm03"
        kept = f"forward:{channel.id}->dtrm02"
        drop_loss = [by_id[i].optical_ledger.entries[-3] for i in (moved, kept)]
        assert [e.element_id for e in drop_loss] == ["fojb->orxc03", "fojb->orxc02"]
        assert drop_loss[0].delta_db < drop_loss[1].delta_db
        assert by_id[moved].pulse_skew_s > by_id[kept].pulse_skew_s == 0.0
    assert_matches_per_path(scenario, variant, topology)


def test_detector_saturation_flags_name_each_path(reference_scenario):
    scenario = reference_scenario
    library = dict(scenario.library)
    for name in (scenario.analog_detector, scenario.digital_detector):
        library[name] = dataclasses.replace(library[name],
                                            saturation_power_dbm=-40.0)
    scenario = dataclasses.replace(scenario, library=library)
    variant = scenario.selected_variants()[0]
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

