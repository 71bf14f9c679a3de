"""Acceptance suite: one test per release gate, each printing a PASS line.

Numeric gates are pinned here with their tolerances; the oracles used to
derive expected values live in oracles.py and are re-run inside the tests so
every gate stays a dual-route check.
"""

import random
import time

import pytest

from photonlink.cli import EXIT_OK, exit_code, run
from photonlink.components import Modulation
from photonlink.data import reference_scenario_path
from photonlink.digitalpath import (
    DigitalLinkSpec,
    LineEncoding,
    check_group_capacity,
    payload_throughput_bytes_per_s,
)
from photonlink.errors import BuildError
from photonlink.linkbudget import (
    cascade_noise_figure,
    optical_ledger,
    sfdr_db,
)
from photonlink.report import render_csv, render_json, render_text
from photonlink.scenario import parse_scenario
from photonlink.topology import (
    build_forward_network,
    build_return_network,
    enumerate_paths,
    return_groups,
)
from photonlink.tradeoff import (
    DesignVariant,
    RequirementSet,
    check_requirements,
    enumerate_variants,
)
from photonlink.units import db_to_linear

from conftest import (
    forward_fixture_bindings,
    forward_fixture_channels,
    forward_fixture_library,
    make_path,
    mk_edfa,
    mk_fiber,
    mk_laser,
    mk_mod_direct,
    mk_mux,
    mk_pd,
    mk_splitter,
    rendered,
    return_fixture_bindings,
    return_fixture_library,
)
from oracles import brute_force_cascade_nf_db, count_laser_to_detector_routes


def gate(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def test_gate_1_sfdr_reproduction(reference_scenario):
    """Reference external-modulation inputs (iip3 20 dBm, NF 30 dB, 10 MHz)
    give 62.67 +/- 0.01 dB and the compliance matrix marks the 55 dB bar PASS,
    in under a second."""
    started = time.perf_counter()
    config = reference_scenario.analysis
    iip3 = config.iip3_for(Modulation.EXTERNAL)
    assert iip3 == 20.0 and config.bandwidth_hz == 1e7
    value = sfdr_db(iip3, 30.0, config.bandwidth_hz)
    assert value == pytest.approx(62.67, abs=0.01)

    em = DesignVariant.from_label("emxvbgxhip")
    report = run("analyze", reference_scenario._replace(variants=(em,)))
    worst = report.variants[0].worst
    injected = worst._replace(noise_figure_db=30.0, sfdr_db=value)
    compliance = check_requirements(
        injected, reference_scenario.requirements,
        wavelengths_nm=[1550.0], digital_groups=report.digital_groups,
        analysis_bandwidth_hz=config.bandwidth_hz)
    sfdr_row = next(c for c in compliance.checks if c.requirement == "sfdr")
    assert sfdr_row.passed
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    gate(f"1 sfdr reproduction ({value:.4f} dB, {elapsed * 1e3:.0f} ms)")


def test_gate_2_nf_degradation_classification(reference_scenario):
    """Injected degradations 0.9 / 1.8 dB classify (strict PASS, relaxed PASS)
    and (strict FAIL, relaxed PASS); the 1.0 dB boundary is inclusive-pass."""
    report = run("analyze", reference_scenario._replace(
        variants=(DesignVariant.from_label("dmxvbgxhip"),)))
    worst = report.variants[0].worst
    requirements = RequirementSet()

    def classify(degradation_db):
        injected = worst._replace(nf_degradation_db=degradation_db)
        rows = {c.requirement: c.passed
                for c in check_requirements(injected, requirements).checks}
        return rows["nf_degradation_strict"], rows["nf_degradation_relaxed"]

    assert classify(0.9) == (True, True)
    assert classify(1.8) == (False, True)
    assert classify(1.0) == (True, True)  # boundary inclusive
    gate("2 nf degradation classification (0.9 / 1.8 / 1.0 dB)")


def test_gate_3_feasibility_and_recommendation(reference_scenario):
    """Six of eight variants feasible; a Bragg-grating direct-modulation
    variant ranks first; ten repeated runs emit byte-identical reports."""
    table = enumerate_variants()
    assert len(table) == 8
    assert sum(1 for _, ok in table if ok) == 6

    renders = []
    top = None
    for _ in range(10):
        scenario = parse_scenario(reference_scenario_path())
        report = run("tradeoff", scenario)
        top = report.recommendation.ranking[0].variant
        assert top.modulation is Modulation.DIRECT
        assert top.grating.value == "vbg"
        renders.append((rendered(render_text, report),
                        rendered(render_json, report),
                        rendered(render_csv, report)))
    assert all(r == renders[0] for r in renders[1:])
    gate("3 feasibility and recommendation (6/8 feasible, "
         f"top={top.label}, 10 byte-identical runs)")


def test_gate_4_friis_oracle_and_ledger_conservation():
    """100 random 2-4 stage cascades match the brute-force output-noise oracle
    within 1e-9 dB; ledger conservation holds within 1e-12 dB on every
    generated path."""
    rng = random.Random(0xF415)
    for _ in range(100):
        stages_db = [(rng.uniform(-30.0, 40.0), rng.uniform(0.5, 40.0))
                     for _ in range(rng.randint(2, 4))]
        engine = cascade_noise_figure(stages_db)
        oracle = brute_force_cascade_nf_db(
            [(db_to_linear(g), db_to_linear(f)) for g, f in stages_db])
        assert abs(engine - oracle) < 1e-9

    checked = 0
    for n in (1, 4, 8, 16):
        library = forward_fixture_library()
        library["mux"] = mk_mux(loss=rng.uniform(0.5, 4.0))
        library["demux"] = mk_mux(loss=rng.uniform(0.5, 4.0))
        library["splitter"] = mk_splitter(fanout=4, excess=rng.uniform(0.0, 2.0))
        library["trunk"] = mk_fiber(length=rng.uniform(0.0, 500.0))
        library["edfa"] = mk_edfa(max_gain=rng.uniform(10.0, 35.0))
        topology = build_forward_network(
            n, forward_fixture_channels(), library, forward_fixture_bindings())
        for member in enumerate_paths(topology):
            ledger = optical_ledger(member.path)
            drift = abs(ledger.end_dbm
                        - (ledger.start_dbm
                           + sum(e.delta_db for e in ledger.entries)))
            assert drift < 1e-12
            checked += 1
    assert checked == 29 * 3
    gate(f"4 friis oracle suite (100 cascades, {checked} ledgers)")


def test_gate_5_slope_identities():
    """d(gain)/d(optical loss) = -2, d(SFDR)/d(NF) = -2/3 and
    d(SFDR)/d(IIP3) = +2/3 to 1e-9 over 1000 random draws."""
    from photonlink.linkbudget import AnalysisConfig, rf_gain_db
    rng = random.Random(0x51093)
    config = AnalysisConfig(iip3_dbm=20.0)
    for _ in range(1000):
        iip3 = rng.uniform(-10.0, 30.0)
        nf = rng.uniform(3.0, 50.0)
        bandwidth = rng.uniform(1e6, 1e8)
        d_nf = sfdr_db(iip3, nf + 1.0, bandwidth) - sfdr_db(iip3, nf, bandwidth)
        d_iip3 = sfdr_db(iip3 + 1.0, nf, bandwidth) - sfdr_db(iip3, nf, bandwidth)
        assert abs(d_nf + 2.0 / 3.0) < 1e-9
        assert abs(d_iip3 - 2.0 / 3.0) < 1e-9

        loss = rng.uniform(0.0, 25.0)
        slope = rng.uniform(0.1, 0.9)
        resp = rng.uniform(0.3, 1.1)
        base = make_path(mk_laser(slope=slope), mk_mod_direct(),
                         mk_mux(loss=loss), mk_mux(loss=0.0), mk_pd(resp=resp))
        bumped = make_path(mk_laser(slope=slope), mk_mod_direct(),
                           mk_mux(loss=loss + 1.0), mk_mux(loss=0.0),
                           mk_pd(resp=resp))
        d_gain = (rf_gain_db(bumped, Modulation.DIRECT, config)
                  - rf_gain_db(base, Modulation.DIRECT, config))
        assert abs(d_gain + 2.0) < 1e-9
    gate("5 slope identities (1000 draws, all within 1e-9)")


def test_gate_6_grouping_and_throughput():
    """16 modules form exactly 4 return groups; a 3.125 Gb/s 8b/10b link
    carries 312.5 MB/s, PASS against the 125 MB/s per-group bar; 6 modules
    are rejected."""
    topology = build_return_network(16, return_fixture_library(),
                                    return_fixture_bindings())
    assert len(return_groups(topology)) == 4

    link = DigitalLinkSpec(3.125e9, LineEncoding.E8B10B, 0.0)
    payload = payload_throughput_bytes_per_s(link)
    assert payload == pytest.approx(312.5e6)
    rows = check_group_capacity(topology, link)
    assert all(row.passed and row.bar_bytes_per_s == pytest.approx(125e6)
               for row in rows)

    with pytest.raises(BuildError):
        build_return_network(6, return_fixture_library(),
                             return_fixture_bindings())
    gate("6 grouping and throughput (4 groups, 312.5 MB/s vs 125 MB/s bar)")


def test_gate_7_topology_scaling(reference_scenario):
    """Forward path count equals channels x N for N in {1,4,8,16} against the
    traversal oracle; the full 16-module 8-channel analysis completes in
    under five seconds."""
    for n in (1, 4, 8, 16):
        topology = build_forward_network(
            n, forward_fixture_channels(), forward_fixture_library(),
            forward_fixture_bindings())
        paths = enumerate_paths(topology)
        assert len(paths) == 3 * n
        assert len(paths) == count_laser_to_detector_routes(topology)

    started = time.perf_counter()
    report = run("analyze", parse_scenario(reference_scenario_path()))
    elapsed = time.perf_counter() - started
    assert report.topology_summaries[0].path_count == 8 * 16
    assert exit_code(report) == EXIT_OK
    assert elapsed < 5.0
    gate(f"7 topology scaling (counts match oracle; full analysis "
         f"{elapsed:.2f} s)")
