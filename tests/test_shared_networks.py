"""One forward analysis per distinct forward network.

``cli.run`` keys the forward pipeline by the variant's forward bindings and
modulation, and every variant with the same key reuses one build,
enumeration, class analysis and worst case. Each report here is built twice:
by ``cli.run`` (shared) and by one fresh ``analyze_variant`` (from
``conftest``) per variant (unshared). The two must render to the same bytes in every format.
"""

import random

import pytest

from photonlink import cli
from photonlink.report import render_csv, render_json, render_text
from photonlink.scenario import parse_scenario
from photonlink.topology import Direction
from photonlink.tradeoff import enumerate_variants, recommend

from conftest import (
    analyze_variant,
    assert_same_text,
    benchmark_workloads,
    redrawn_scenario,
    rendered,
    workload_document,
)


def unshared_report(command, scenario, shared):
    """``shared``, the report of ``cli.run(command, scenario)``, with every
    variant analyzed on its own forward network."""
    if command == "validate":
        # No variants: the validate report has only the one route.
        return shared
    if command == "analyze":
        variants = scenario.variants
    else:
        variants = tuple(v for v, feasible in enumerate_variants() if feasible)
    analyzed = [analyze_variant(scenario, v, shared.digital_groups)
                for v in variants]
    results = tuple(result for result, _ in analyzed)
    recommendation = None
    if command == "tradeoff":
        recommendation = recommend(results)
    return shared._replace(
        variants=results, recommendation=recommendation,
        topology_summaries=(analyzed[0][1], *shared.topology_summaries[1:]))


def assert_routes_agree(command, scenario):
    shared = cli.run(command, scenario)
    unshared = unshared_report(command, scenario, shared)
    for render in (render_json, render_csv, render_text):
        assert_same_text(rendered(render, shared),
                         rendered(render, unshared))
    return shared


@pytest.mark.parametrize("command", ["analyze", "tradeoff"])
def test_reference_scenario(reference_scenario, command):
    report = assert_routes_agree(command, reference_scenario)
    assert len(report.variants) == 6


@pytest.mark.parametrize("name", sorted(benchmark_workloads().WORKLOADS))
def test_benchmark_workloads(name):
    workload = benchmark_workloads().WORKLOADS[name]
    document = workload_document(name, 1)
    if "--variant" in workload.cli_args:
        document["variant"] = workload.cli_args[
            workload.cli_args.index("--variant") + 1]
    assert_routes_agree(workload.cli_args[0], parse_scenario(document))


@pytest.mark.parametrize("seed", range(4))
def test_randomized_libraries(reference_scenario, seed):
    scenario = redrawn_scenario(reference_scenario, random.Random(seed))
    # The return network needs whole groups of four modules.
    if scenario.n_dtrm % 4 != 0:
        scenario = scenario._replace(return_bindings=None)
    assert_routes_agree("tradeoff", scenario)


@pytest.fixture
def forward_work(monkeypatch):
    """Forward topologies built and enumerated through the CLI's namespace."""
    built, enumerated = [], []
    build, enumerate_ = cli.build_forward_network, cli.enumerate_paths

    def counting_build(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    def counting_enumerate(topology):
        if topology.direction is Direction.FORWARD:
            enumerated.append(topology)
        return enumerate_(topology)

    monkeypatch.setattr(cli, "build_forward_network", counting_build)
    monkeypatch.setattr(cli, "enumerate_paths", counting_enumerate)
    return built, enumerated


def distinct_networks(scenario, report):
    variants = [v.variant for v in report.variants]
    return {cli._network_key(scenario, v) for v in variants}


def test_reference_builds_each_network_once(reference_scenario, forward_work):
    built, enumerated = forward_work
    report = cli.run("tradeoff", reference_scenario)
    assert len(report.variants) == 6
    assert len(distinct_networks(reference_scenario, report)) == 4
    assert len(built) == len(enumerated) == 4
    # Variants share a path tuple exactly when they bind the same network.
    for a in report.variants:
        for b in report.variants:
            same = (cli._network_key(reference_scenario, a.variant)
                    == cli._network_key(reference_scenario, b.variant))
            assert (a.paths is b.paths) == same, (a.variant, b.variant)
            assert (a.worst is b.worst) == same, (a.variant, b.variant)


def test_gratings_bound_to_the_same_parts_share(reference_scenario,
                                                forward_work):
    built, enumerated = forward_work
    scenario = reference_scenario._replace(
        forward={(m, g): reference_scenario.forward[m, "vbg"]
                 for m, g in reference_scenario.forward})
    report = cli.run("tradeoff", scenario)
    assert len(distinct_networks(scenario, report)) == 2
    assert len(built) == len(enumerated) == 2
    by_modulation = {}
    for variant in report.variants:
        modulation = variant.variant.modulation
        assert by_modulation.setdefault(modulation, variant.paths) is variant.paths
    assert len(by_modulation) == 2
    assert_routes_agree("tradeoff", scenario)
