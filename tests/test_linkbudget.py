"""Metric engine: ledgers, gain, noise, dynamic range, timing figures.

Expected values marked "oracle" were computed with the independent arithmetic
in oracles.py (or by direct hand evaluation) before being frozen here.
"""

import math
import random
import typing

import pytest

from photonlink import cli, linkbudget
from photonlink.components import Modulation
from photonlink.errors import AnalysisError
from photonlink.linkbudget import (
    AnalysisConfig,
    added_phase_noise_dbc,
    analyze_path,
    autogained,
    cascade_noise_figure,
    crosstalk_db,
    edfa_autogain,
    effective_bandwidth_hz,
    nf_degradation_db,
    noise_figure_db,
    optical_ledger,
    phase_noise_degradation_db,
    propagation_delay_s,
    rf_gain_db,
    rise_time_s,
    rss_jitter_s,
    sfdr_db,
    timing_jitter_s,
    worst_case,
)
from photonlink.scenario import parse_scenario
from photonlink.topology import (
    ChannelPlan,
    ElementKind,
    build_forward_network,
    enumerate_paths,
)
from photonlink.units import db_to_linear, power_sum_db

from conftest import (
    forward_fixture_bindings,
    forward_fixture_channels,
    forward_fixture_library,
    make_path,
    mk_edfa,
    mk_fiber,
    mk_laser,
    mk_mod_direct,
    mk_mod_external,
    mk_mux,
    mk_pd,
    mk_splitter,
    workload_document,
)
from oracles import (
    brute_force_cascade_nf_db,
    co_propagating,
    link_noise_figure_db,
    power_sum_dbc,
)

CONFIG = AnalysisConfig(iip3_dbm=20.0)


def crosstalk_power_sum_db(isolations_db):
    """Aggregate leakage-to-signal ratio from per-interferer isolations, dB.

    Returns None for the single-channel case (no interferers)."""
    if not isolations_db:
        return None
    return power_sum_db([-iso for iso in isolations_db])


def lossless_path(**laser_kwargs):
    return make_path(
        mk_laser(**laser_kwargs),
        mk_mod_direct(),
        mk_mux(loss=0.0),
        mk_mux(loss=0.0),
        mk_pd(),
    )


class TestOpticalLedger:
    def test_identity_chain_keeps_laser_power(self):
        ledger = optical_ledger(lossless_path())
        assert ledger.start_dbm == pytest.approx(20.0)
        assert ledger.end_dbm == pytest.approx(20.0)
        assert not ledger.flags

    def test_losses_and_compensating_gain(self):
        """mod 5 + mux 3 + split(16)+1 + demux 3 = 24.0412 dB, gain matches."""
        path = make_path(
            mk_laser(),  # 0.1 W = 20 dBm
            mk_mod_external(loss=5.0),
            mk_mux(loss=3.0),
            mk_edfa(gain=24.041199826559248, max_gain=30.0),
            mk_splitter(fanout=16, excess=1.0),
            mk_mux(loss=3.0),
            mk_pd(),
        )
        ledger = optical_ledger(path)
        assert ledger.end_dbm == pytest.approx(20.0, abs=1e-9)

    def test_clamped_gain_flagged_and_power_short(self):
        path = make_path(
            mk_laser(),
            mk_mod_external(loss=5.0),
            mk_mux(loss=3.0),
            mk_edfa(gain=20.0, max_gain=20.0),
            mk_splitter(fanout=16, excess=1.0),
            mk_mux(loss=3.0),
            mk_pd(),
        )
        ledger = optical_ledger(path)
        assert ledger.end_dbm == pytest.approx(20.0 + 20.0 - 24.041199826559248)
        notes = [e.note for e in ledger.entries if e.note]
        assert "gain clamped at max" in notes

    def test_detector_saturation_flagged(self):
        path = make_path(mk_laser(power_w=0.5), mk_mod_direct(),
                         mk_mux(loss=0.0), mk_mux(loss=0.0), mk_pd(sat=24.0))
        ledger = optical_ledger(path)  # 27 dBm onto a 24 dBm detector
        assert any("above saturation" in f for f in ledger.flags)

    def test_sensitivity_breach_flagged(self):
        path = make_path(mk_laser(power_w=0.001), mk_mod_direct(),
                         mk_mux(loss=35.0), mk_mux(loss=0.0),
                         mk_pd(sensitivity=-30.0))
        ledger = optical_ledger(path)
        assert any("below sensitivity" in f for f in ledger.flags)

    def test_conservation_to_1e12(self):
        path = make_path(
            mk_laser(power_w=0.037), mk_mod_external(loss=4.3),
            mk_mux(loss=2.7), mk_fiber(length=812.0),
            mk_edfa(gain=17.9), mk_splitter(fanout=12, excess=0.77),
            mk_fiber(length=55.0), mk_mux(loss=3.3), mk_pd(),
        )
        ledger = optical_ledger(path)
        total_delta = sum(e.delta_db for e in ledger.entries)
        assert ledger.end_dbm == pytest.approx(ledger.start_dbm + total_delta,
                                               abs=1e-12)


class TestAutogain:
    def test_gain_equals_total_passive_loss(self):
        path = make_path(
            mk_laser(), mk_mod_external(loss=5.0), mk_mux(loss=3.0),
            mk_edfa(max_gain=30.0), mk_splitter(fanout=16, excess=1.0),
            mk_mux(loss=3.0), mk_pd(),
        )
        result = edfa_autogain(path)
        (gain,) = result.gains_db.values()
        assert gain == pytest.approx(24.041199826559248)
        assert result.shortfall_db == 0.0
        assert optical_ledger(autogained(path)).end_dbm == pytest.approx(20.0)

    def test_zero_loss_path_needs_no_gain(self):
        path = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=0.0),
                         mk_edfa(), mk_mux(loss=0.0), mk_pd())
        (gain,) = edfa_autogain(path).gains_db.values()
        assert gain == 0.0

    def test_clamp_reports_shortfall(self):
        path = make_path(
            mk_laser(), mk_mod_external(loss=5.0), mk_mux(loss=8.0),
            mk_edfa(max_gain=30.0), mk_splitter(fanout=128, excess=1.0),
            mk_mux(loss=0.0), mk_pd(),
        )
        total = 5.0 + 8.0 + 10 * math.log10(128) + 1.0  # 35.07 dB
        result = edfa_autogain(path)
        (gain,) = result.gains_db.values()
        assert gain == 30.0
        assert result.shortfall_db == pytest.approx(total - 30.0)
        assert any("under-compensated by" in n for n in result.notes)

    def test_two_stage_split_of_responsibility(self):
        path = make_path(
            mk_laser(), mk_mod_external(loss=5.0), mk_mux(loss=3.0),
            mk_edfa(max_gain=30.0),  # transmitter booster
            mk_fiber(length=5000.0),  # 1 dB
            mk_edfa(max_gain=30.0),  # junction-box amplifier
            mk_splitter(fanout=16, excess=1.0), mk_mux(loss=3.0), mk_pd(),
        )
        gains = edfa_autogain(path).gains_db
        first, second = [gains[e.element_id] for e in path.elements
                         if e.kind.value == "edfa"]
        assert first == pytest.approx(8.0)
        assert second == pytest.approx(1.0 + 10 * math.log10(16) + 1.0 + 3.0)
        assert optical_ledger(autogained(path)).end_dbm == pytest.approx(20.0)


class TestRfGain:
    def test_direct_modulation_example(self):
        """slope 0.3 W/A, -10 dB optical, r_pd 0.8 -> 20log10(0.024). Oracle:
        -32.395775165... dB."""
        path = make_path(mk_laser(slope=0.3), mk_mod_direct(),
                         mk_mux(loss=4.0), mk_mux(loss=6.0), mk_pd(resp=0.8))
        gain = rf_gain_db(path, Modulation.DIRECT, CONFIG)
        assert gain == pytest.approx(-32.39577516576788, abs=1e-9)

    def test_unity_chain_is_zero_db(self):
        path = make_path(mk_laser(slope=1.25), mk_mod_direct(),
                         mk_mux(loss=0.0), mk_mux(loss=0.0), mk_pd(resp=0.8))
        assert rf_gain_db(path, Modulation.DIRECT, CONFIG) == pytest.approx(0.0)

    def test_each_optical_db_costs_two_rf_db(self):
        rng = random.Random(42)
        for _ in range(50):
            loss = rng.uniform(0.0, 20.0)
            base = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=loss),
                             mk_mux(loss=0.0), mk_pd())
            more = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=loss + 1.0),
                             mk_mux(loss=0.0), mk_pd())
            delta = (rf_gain_db(more, Modulation.DIRECT, CONFIG)
                     - rf_gain_db(base, Modulation.DIRECT, CONFIG))
            assert delta == pytest.approx(-2.0, abs=1e-9)

    def test_external_modulation_uses_interferometric_slope(self):
        path = make_path(mk_laser(power_w=0.05), mk_mod_external(v_pi=5.0, loss=5.0),
                         mk_mux(loss=0.0), mk_mux(loss=0.0), mk_pd(resp=0.8))
        # slope = pi*0.05*50/(2*5) = 0.785398; t_opt = 10^-0.5 (modulator IL)
        expected = 20 * math.log10(
            math.pi * 0.05 * 50.0 / 10.0 * db_to_linear(-5.0) * 0.8)
        gain = rf_gain_db(path, Modulation.EXTERNAL, CONFIG)
        assert gain == pytest.approx(expected, abs=1e-12)

    def test_scheme_mismatch_raises(self):
        path = make_path(mk_laser(), mk_mod_direct(), mk_mux(), mk_mux(), mk_pd())
        with pytest.raises(AnalysisError, match="modulator"):
            rf_gain_db(path, Modulation.EXTERNAL, CONFIG)


class TestNoiseFigure:
    def test_noiseless_unity_gain_hits_thermal_floor(self):
        """Shot/intensity/amplifier noise driven to ~0 at unity gain leaves
        the two matched thermal loads. Oracle: 10log10(2kT/kT) = 3.0103 dB."""
        path = make_path(mk_laser(power_w=1e-12, rin=-400.0, slope=1.25),
                         mk_mod_direct(), mk_mux(loss=0.0), mk_mux(loss=0.0),
                         mk_pd(resp=0.8, dark=0.0))
        nf, parts = noise_figure_db(path, Modulation.DIRECT, CONFIG)
        assert nf == pytest.approx(3.0102999566398116, abs=1e-6)
        assert parts.ase_w_hz == 0.0

    def test_floor_engages_for_high_gain_noiseless_link(self):
        path = make_path(mk_laser(power_w=1e-6, rin=-400.0, slope=200.0),
                         mk_mod_direct(), mk_mux(loss=0.0), mk_mux(loss=0.0),
                         mk_pd(resp=1.0, dark=0.0))
        nf, _ = noise_figure_db(path, Modulation.DIRECT, CONFIG)
        assert nf == pytest.approx(10 * math.log10(2.0), abs=1e-9)

    def test_more_rin_never_helps(self):
        values = []
        for rin in (-170.0, -160.0, -150.0, -140.0):
            path = make_path(mk_laser(rin=rin), mk_mod_direct(),
                             mk_mux(loss=3.0), mk_mux(loss=0.0), mk_pd())
            values.append(noise_figure_db(path, Modulation.DIRECT, CONFIG)[0])
        assert values == sorted(values)

    def test_more_dark_current_never_helps(self):
        values = []
        for dark in (0.0, 1e-9, 1e-6, 1e-3):
            path = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=3.0),
                             mk_mux(loss=0.0), mk_pd(dark=dark))
            values.append(noise_figure_db(path, Modulation.DIRECT, CONFIG)[0])
        assert values == sorted(values)

    def test_hotter_amplifier_never_helps(self):
        values = []
        for edfa_nf in (3.5, 4.5, 6.0, 8.0):
            path = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=3.0),
                             mk_edfa(gain=3.0, max_gain=30.0, nf=edfa_nf),
                             mk_mux(loss=0.0), mk_pd())
            values.append(noise_figure_db(path, Modulation.DIRECT, CONFIG)[0])
        assert values == sorted(values)

    def test_breakdown_terms_are_nonnegative_and_sum(self):
        path = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=3.0),
                         mk_edfa(gain=3.0), mk_mux(loss=0.0), mk_pd(dark=1e-8))
        _, parts = noise_figure_db(path, Modulation.DIRECT, CONFIG)
        for term in (parts.thermal_w_hz, parts.shot_w_hz, parts.rin_w_hz,
                     parts.ase_w_hz):
            assert term >= 0.0
        assert parts.total_w_hz == pytest.approx(
            parts.thermal_w_hz + parts.shot_w_hz + parts.rin_w_hz
            + parts.ase_w_hz)


    @pytest.mark.parametrize("temperature_k", [2900.0, 29000.0])
    def test_noise_figure_is_referred_to_t0(self, temperature_k):
        """A hotter load adds noise, so the noise figure, referred to a
        source at T0 = 290 K, rises with the analysis temperature."""
        path = make_path(mk_laser(power_w=0.01, rin=-155.0, slope=0.3),
                         mk_mod_direct(), mk_mux(loss=3.0), mk_mux(loss=0.0),
                         mk_pd(resp=0.8, dark=1e-8))
        transmission = db_to_linear(-3.0)
        photocurrent = 0.8 * 0.01 * transmission
        gain = (0.3 * transmission * 0.8) ** 2

        def both(t):
            config = CONFIG._replace(temperature_k=t)
            engine, _ = noise_figure_db(path, Modulation.DIRECT, config)
            return engine, link_noise_figure_db(gain, t, photocurrent, 1e-8,
                                                50.0, -155.0)

        room, room_oracle = both(290.0)
        hot, hot_oracle = both(temperature_k)
        assert room == pytest.approx(room_oracle, abs=1e-9)
        assert hot == pytest.approx(hot_oracle, abs=1e-9)
        assert hot > room


class TestFriisCascade:
    def test_two_stage_matches_brute_force_oracle(self):
        stages_db = [(20.0, 3.0), (-9.9, 38.76)]
        engine = cascade_noise_figure(stages_db)
        oracle = brute_force_cascade_nf_db(
            [(db_to_linear(g), db_to_linear(f)) for g, f in stages_db])
        assert engine == pytest.approx(oracle, abs=1e-9)

    def test_random_cascades_match_oracle(self):
        rng = random.Random(20260810)
        for _ in range(200):
            stages_db = [(rng.uniform(-30.0, 40.0), rng.uniform(0.1, 40.0))
                         for _ in range(rng.randint(2, 4))]
            engine = cascade_noise_figure(stages_db)
            oracle = brute_force_cascade_nf_db(
                [(db_to_linear(g), db_to_linear(f)) for g, f in stages_db])
            assert engine == pytest.approx(oracle, abs=1e-9)

    def test_front_end_dilutes_link_noise(self):
        config = AnalysisConfig(front_end_gain_db=50.0,
                                front_end_noise_figure_db=3.0)
        degradation = nf_degradation_db(-9.9, 38.76, config)
        expected = cascade_noise_figure([(50.0, 3.0), (-9.9, 38.76)]) - 3.0
        assert degradation == pytest.approx(expected)
        assert nf_degradation_db(-9.9, 38.76, AnalysisConfig()) is None


class TestSfdr:
    def test_reference_point(self):
        """Oracle: floor=-74 dBm, (2/3)*94 = 62.666..."""
        assert sfdr_db(20.0, 30.0, 1e7) == pytest.approx(62.666666666666664,
                                                         abs=1e-9)

    def test_three_db_more_intercept_buys_two_db(self):
        assert sfdr_db(23.0, 30.0, 1e7) - sfdr_db(20.0, 30.0, 1e7) \
            == pytest.approx(2.0, abs=1e-12)

    def test_one_db_more_noise_costs_two_thirds(self):
        assert sfdr_db(20.0, 31.0, 1e7) - sfdr_db(20.0, 30.0, 1e7) \
            == pytest.approx(-2.0 / 3.0, abs=1e-12)

    def test_missing_iip3_raises(self):
        path = lossless_path()
        with pytest.raises(AnalysisError, match="iip3"):
            analyze_path(path, Modulation.DIRECT, AnalysisConfig())


class TestSnrAndPhaseNoise:
    def test_floor_thirty_db_down_adds_four_millidb(self):
        """Oracle: 10log10(1e-12 + 1e-15) + 120 = 0.00434077 dB."""
        assert added_phase_noise_dbc(-120.0, -150.0) + 120.0 \
            == pytest.approx(0.004340774793192281, abs=1e-12)

    def test_equal_floor_adds_three_db(self):
        assert added_phase_noise_dbc(-130.0, -130.0) + 130.0 \
            == pytest.approx(10 * math.log10(2.0), abs=1e-12)

    def test_profile_degradation_bounded_when_floor_twenty_db_down(self):
        path = lossless_path()
        config = CONFIG._replace(carrier_power_dbm=10.0)
        nf, _ = noise_figure_db(path, Modulation.DIRECT, config)
        floor = (-174.0 + nf) - 10.0
        profile = [(10.0 ** k, floor + 20.0) for k in range(2, 7)]
        per_offset = phase_noise_degradation_db(profile, path,
                                                Modulation.DIRECT, config)
        assert all(deg < 0.05 for _, deg in per_offset)
        assert all(deg > 0.0 for _, deg in per_offset)

    def test_missing_carrier_power_raises(self):
        with pytest.raises(AnalysisError, match="carrier_power_dbm"):
            phase_noise_degradation_db([(1e3, -100.0)], lossless_path(),
                                       Modulation.DIRECT, CONFIG)


class TestCrosstalk:
    def test_single_channel_reports_none(self):
        assert crosstalk_power_sum_db([]) is None

    def test_single_adjacent_interferer(self):
        assert crosstalk_power_sum_db([30.0]) == pytest.approx(-30.0)

    def test_eight_channel_power_sum(self):
        """Oracle: 10log10(2e-3 + 5*10^-4.5) = -26.659256... dB."""
        isolations = [30.0, 30.0, 45.0, 45.0, 45.0, 45.0, 45.0]
        assert crosstalk_power_sum_db(isolations) == pytest.approx(
            -26.659256414616557, abs=1e-9)

    def test_power_sum_never_below_biggest_contributor(self):
        rng = random.Random(11)
        for _ in range(200):
            isolations = [rng.uniform(15.0, 60.0)
                          for _ in range(rng.randint(1, 9))]
            total = crosstalk_power_sum_db(isolations)
            assert total >= -min(isolations) - 1e-12

    def test_path_level_uses_adjacency_of_the_plan(self):
        library = forward_fixture_library()
        topology = build_forward_network(
            2, forward_fixture_channels(), library, forward_fixture_bindings())
        paths = [m.path for m in enumerate_paths(topology)]
        edge_path = next(p for p in paths if p.channel == "alpha")
        middle_path = next(p for p in paths if p.channel == "bravo")
        # alpha (grid edge): one adjacent at 30 dB + one distant at 45 dB
        assert crosstalk_db(edge_path) == pytest.approx(
            power_sum_dbc([-30.0, -45.0]), abs=1e-9)
        # bravo (middle): two adjacent neighbors
        assert crosstalk_db(middle_path) == pytest.approx(
            power_sum_dbc([-30.0, -30.0]), abs=1e-9)

    @pytest.mark.parametrize("adjacent, nonadjacent", [(17.8, 37.8), (37.8, 17.8)])
    @pytest.mark.parametrize("size", [1, 2, 3, 48])
    def test_every_lane_position_sums_its_isolation_list(self, size, adjacent,
                                                         nonadjacent):
        """Dual route, exact: at every channel position of a lane of
        ``size`` channels, whose names do not sort in wavelength order, with
        the adjacent isolation below and above the non-adjacent one. The
        demux is swapped into each path, since validation refuses an
        adjacent isolation above the non-adjacent one."""
        library = forward_fixture_library()
        names = [f"ch{i:02d}" for i in range(size)]
        random.Random(size).shuffle(names)
        channels = []
        for i, name in enumerate(names):
            library[f"laser_{name}"] = mk_laser(nm=1530.0 + 0.8 * i)
            channels.append(ChannelPlan(name, f"laser_{name}"))
        topology = build_forward_network(1, channels, library,
                                         forward_fixture_bindings())
        demux = mk_mux(adj=adjacent, nonadj=nonadjacent)
        positions = []
        for member in enumerate_paths(topology):
            path = member.path._replace(elements=tuple(
                e._replace(spec=demux) if e.kind is ElementKind.DEMUX else e
                for e in member.path.elements))
            got = crosstalk_db(path)
            assert got == isolation_sum_db(path, topology), path.path_id
            assert (got is None) == (size == 1)
            positions.append(names.index(path.channel))
        assert sorted(positions) == list(range(size))

    def test_every_dwdm48_class_sums_its_isolation_list(self):
        """Dual route, exact: every class of every variant of the
        benchmark's seed-1 48-channel scenario."""
        scenario = parse_scenario(workload_document("analyze-dwdm48-csv", 1))
        classes = 0
        for variant in scenario.variants:
            topology = cli._forward_topology(scenario, variant)
            for cls in dict.fromkeys(m.cls for m in enumerate_paths(topology)):
                assert crosstalk_db(cls.path) == isolation_sum_db(
                    cls.path, topology), cls.path.path_id
                classes += 1
        assert classes == 6 * 48


def isolation_sum_db(path, topology):
    """``crosstalk_db`` by its definition: ``crosstalk_power_sum_db`` of each
    neighbour's isolation at the path's demux, adjacent in wavelength or
    not, in name order, over the oracle's co-propagating channels."""
    (demux,) = [e for e in path.elements if e.kind is ElementKind.DEMUX]
    by_name, ordered = co_propagating(topology, path.channel, demux.node)
    index = ordered.index(path.channel)
    adjacent = ordered[max(index - 1, 0):index + 2]
    return crosstalk_power_sum_db([
        demux.spec.adjacent_isolation_db if ch in adjacent
        else demux.spec.nonadjacent_isolation_db
        for ch in by_name if ch != path.channel])


def skew_against(reference, path):
    """``path``'s pulse skew as the CLI computes it: its delay less the
    reference path's, through ``analyze_path``."""
    return analyze_path(path, Modulation.DIRECT, CONFIG,
                        reference_delay_s=propagation_delay_s(reference)).pulse_skew_s


class TestTimingFigures:
    def test_rise_time_reference_points(self):
        assert rise_time_s(35e6) == pytest.approx(10e-9)
        assert rise_time_s(10e6) == pytest.approx(35e-9)

    def test_halving_bandwidth_doubles_rise_time(self):
        assert rise_time_s(5e6) == pytest.approx(2 * rise_time_s(10e6))

    def test_effective_bandwidth_is_element_minimum(self):
        path = make_path(mk_laser(), mk_mod_direct(bandwidth=12e9),
                         mk_mux(loss=0.0), mk_mux(loss=0.0),
                         mk_pd(bandwidth=9e9))
        assert effective_bandwidth_hz(path, CONFIG) == 9e9
        metrics = analyze_path(path, Modulation.DIRECT, CONFIG)
        assert metrics.rise_time_s == pytest.approx(0.35 / 9e9)

    def test_skew_reference_delta(self):
        """Oracle: 1.468 m index * 1 m / c = 4.89672e-9 s."""
        short = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=0.0),
                          mk_fiber(length=5.0), mk_mux(loss=0.0), mk_pd())
        long = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=0.0),
                         mk_fiber(length=6.0), mk_mux(loss=0.0), mk_pd())
        assert skew_against(short, long) == pytest.approx(
            4.896720917508872e-09, abs=1e-18)

    def test_skew_ignores_common_length(self):
        paths = [
            make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=0.0),
                      mk_fiber(length=extra), mk_mux(loss=0.0), mk_pd())
            for extra in (3.0, 8.0)
        ]
        shifted = [
            make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=0.0),
                      mk_fiber(length=extra + 100.0), mk_mux(loss=0.0), mk_pd())
            for extra in (3.0, 8.0)
        ]
        assert skew_against(*paths) == pytest.approx(skew_against(*shifted))

    def test_equal_paths_have_zero_skew(self):
        path = lossless_path()
        assert skew_against(path, path) == 0.0

    def test_jitter_root_sum_square(self):
        assert rss_jitter_s([2e-12]) == pytest.approx(2e-12)
        assert rss_jitter_s([3e-12, 4e-12]) == pytest.approx(5e-12)
        rng = random.Random(3)
        sample = [rng.uniform(0, 5e-12) for _ in range(6)]
        shuffled = sample[:]
        rng.shuffle(shuffled)
        assert rss_jitter_s(sample) == pytest.approx(rss_jitter_s(shuffled))

    def test_path_jitter_pulls_contributions_by_element_kind(self):
        config = CONFIG._replace(
            jitter_rms_s={"laser": 3e-12, "detector": 4e-12})
        assert timing_jitter_s(lossless_path(), config) == pytest.approx(5e-12)


class TestAnalyzePath:
    def test_composition_matches_reference_library(self):
        """Path of desk-scale reference parts (2 dB VBG mux and demux, 1:4
        lossless splitter); oracle value is the direct evaluation
        20log10(0.3 * 10^(-10.0206/10) * 0.8)."""
        mux = mk_mux(loss=2.0, adj=35.0, nonadj=50.0)
        path = make_path(
            mk_laser(power_w=0.1, rin=-160.0, nm=1550.0, slope=0.3),
            mk_mod_direct(bandwidth=20e9), mux, mk_splitter(fanout=4, excess=0.0),
            mux, mk_pd(resp=0.8, sat=24.0, dark=1e-8, sensitivity=-30.0),
        )
        config = CONFIG._replace(edfa_autogain=False)
        metrics = analyze_path(path, Modulation.DIRECT, config)
        net_loss = 2.0 + (10 * math.log10(4) + 0.0) + 2.0
        expected = 20 * math.log10(0.3 * db_to_linear(-net_loss) * 0.8)
        assert metrics.rf_gain_db == pytest.approx(expected, abs=1e-9)
        assert metrics.rf_gain_db == pytest.approx(-32.44, abs=0.05)

    def test_bundle_is_internally_consistent(self):
        path = make_path(
            mk_laser(), mk_mod_direct(), mk_mux(loss=3.0), mk_fiber(length=10.0),
            mk_edfa(max_gain=30.0), mk_splitter(fanout=8, excess=1.0),
            mk_mux(loss=3.0), mk_pd(dark=1e-8),
        )
        metrics = analyze_path(path, Modulation.DIRECT, CONFIG)
        ledger = metrics.optical_ledger
        total_delta = sum(e.delta_db for e in ledger.entries)
        assert ledger.end_dbm == pytest.approx(ledger.start_dbm + total_delta,
                                               abs=1e-12)
        assert metrics.sfdr_db == pytest.approx(
            sfdr_db(20.0, metrics.noise_figure_db, CONFIG.bandwidth_hz))

    def test_repeat_analysis_is_bit_identical(self):
        path = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=3.0),
                         mk_edfa(max_gain=30.0), mk_mux(loss=1.0), mk_pd())
        first = analyze_path(path, Modulation.DIRECT, CONFIG)
        second = analyze_path(path, Modulation.DIRECT, CONFIG)
        assert first == second


# Every float a metrics bundle carries: its own fields and its noise terms.
LINK_FLOATS = [name for name, hint
               in typing.get_type_hints(linkbudget.LinkMetrics).items()
               if hint is float or float in typing.get_args(hint)]
NOISE_TERMS = list(linkbudget.NoiseBreakdown._fields)


@pytest.mark.parametrize("record, name",
                         [("metrics", n) for n in LINK_FLOATS]
                         + [("noise", n) for n in NOISE_TERMS])
def test_nan_anywhere_in_the_bundle_raises(monkeypatch, record, name):
    """``analyze_path`` refuses a bundle with a NaN in any float field or
    noise term, with an ``AnalysisError`` naming the path."""
    assert len(LINK_FLOATS) == 12 and len(NOISE_TERMS) == 4
    real = linkbudget._analyze_path

    def poisoned(*args):
        metrics = real(*args)
        if record == "noise":
            return metrics._replace(
                noise=metrics.noise._replace(**{name: math.nan}))
        return metrics._replace(**{name: math.nan})

    path = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=3.0),
                     mk_edfa(max_gain=30.0), mk_mux(loss=1.0), mk_pd())
    analyze_path(path, Modulation.DIRECT, CONFIG)
    monkeypatch.setattr(linkbudget, "_analyze_path", poisoned)
    with pytest.raises(AnalysisError, match="out of floating-point range"):
        analyze_path(path, Modulation.DIRECT, CONFIG)


def test_worst_case_aggregation_picks_pessimistic_fields():
    path_good = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=1.0),
                          mk_mux(loss=0.0), mk_pd())
    path_bad = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=9.0),
                         mk_mux(loss=0.0), mk_pd())
    config = CONFIG._replace(edfa_autogain=False)
    good = analyze_path(path_good, Modulation.DIRECT, config)
    bad = analyze_path(path_bad, Modulation.DIRECT, config)
    worst = worst_case([good, bad])
    assert worst.rf_gain_db == bad.rf_gain_db
    assert worst.noise_figure_db == bad.noise_figure_db
    assert worst.sfdr_db == min(good.sfdr_db, bad.sfdr_db)


def test_worst_case_keeps_flags_in_order_of_first_appearance():
    path = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=1.0),
                     mk_mux(loss=0.0), mk_pd())
    base = analyze_path(path, Modulation.DIRECT, CONFIG)
    bundles = [base._replace(flags=flags)
               for flags in (("b", "a"), ("c", "b"), (), ("a", "d", "c", "e"))]
    assert worst_case(bundles).flags == ("b", "a", "c", "d", "e")


def test_per_modulation_intercept_map():
    config = AnalysisConfig(iip3_dbm={"dm": 18.0, "em": 24.0})
    assert config.iip3_for(Modulation.DIRECT) == 18.0
    assert config.iip3_for(Modulation.EXTERNAL) == 24.0
    assert AnalysisConfig().iip3_for(Modulation.DIRECT) is None


@pytest.fixture(scope="module")
def reference_paths(reference_scenario):
    """(modulation, path) for every forward path of every feasible variant
    of the reference scenario."""
    return forward_paths(reference_scenario)


def forward_paths(scenario, *, classes_only=False):
    """(modulation, path) for every forward path of every feasible variant
    of ``scenario``, or only for each analysis class's own path."""
    out = []
    for variant in scenario.variants:
        topology = build_forward_network(
            scenario.n_dtrm, scenario.channels, scenario.library,
            scenario.forward_bindings(variant), shared_fiber=scenario.shared_fiber,
            min_channel_spacing_nm=scenario.min_channel_spacing_nm)
        members = enumerate_paths(topology)
        paths = ([cls.path for cls in dict.fromkeys(m.cls for m in members)]
                 if classes_only else [m.path for m in members])
        out.extend((variant.modulation, path) for path in paths)
    return out


def assert_matches_public_functions(paths, config):
    """Each path's single-walk bundle against each public function run on
    its own ledger walk of the same autogained path, which equals the path
    with each amplifier's spec replaced field by field."""
    assert config.edfa_autogain
    for modulation, path in paths:
        metrics = analyze_path(path, modulation, config)
        tuned = autogained(path)
        gains = edfa_autogain(path).gains_db
        assert tuned == path._replace(elements=tuple(
            e._replace(spec=e.spec._replace(gain_db=gains[e.element_id]))
            if e.element_id in gains else e for e in path.elements))
        nf, breakdown = noise_figure_db(tuned, modulation, config)
        per_offset = phase_noise_degradation_db(
            config.phase_noise_profile, tuned, modulation, config)
        assert metrics.rf_gain_db == rf_gain_db(tuned, modulation, config)
        assert metrics.noise_figure_db == nf
        assert metrics.noise == breakdown
        assert metrics.phase_noise_degradation_db == max(d for _, d in per_offset)
        assert metrics.optical_ledger == optical_ledger(tuned)


def clamped_amplifier(scenario):
    """``scenario`` with a junction-box amplifier capped at 1 dB of gain,
    well short of the loss it covers, and detectors whose sensitivity the
    short-changed power misses."""
    library = dict(scenario.library)
    bindings = scenario.forward_bindings(scenario.variants[0])
    library[bindings.fojb_edfa] = library[bindings.fojb_edfa]._replace(
        max_gain_db=1.0)
    for name in (bindings.analog_detector, bindings.digital_detector):
        library[name] = library[name]._replace(sensitivity_dbm=3.0)
    return scenario._replace(library=library)


class TestOneLedgerWalk:
    def test_analyze_path_walks_the_ledger_once(self, monkeypatch, reference_paths,
                                                reference_scenario):
        walks = []
        real = linkbudget.optical_ledger

        def counting(path):
            walks.append(path.path_id)
            return real(path)

        monkeypatch.setattr(linkbudget, "optical_ledger", counting)
        config = reference_scenario.analysis
        assert config.phase_noise_profile and config.carrier_power_dbm is not None
        for modulation, path in reference_paths:
            walks.clear()
            analyze_path(path, modulation, config)
            assert walks == [path.path_id]

    def test_analyze_path_matches_the_public_functions(self, reference_paths,
                                                       reference_scenario):
        """Dual route: the single-walk bundle against each public function run
        on its own ledger walk of the same autogained path. Every path of the
        reference scenario, with its amplifiers as bound and with one capped
        below its need, and each class's path of the benchmark's three seed-1
        workloads, the paths that the CLI analyzes."""
        assert len(reference_paths) == 6 * 128
        assert_matches_public_functions(reference_paths,
                                        reference_scenario.analysis)
        for name in ("tradeoff-n32-json", "validate-n1024", "analyze-dwdm48-csv"):
            scenario = parse_scenario(workload_document(name, 1))
            paths = forward_paths(scenario, classes_only=True)
            assert len(paths) == 6 * len(scenario.channels)
            assert_matches_public_functions(paths, scenario.analysis)

        scenario = clamped_amplifier(reference_scenario)
        paths = forward_paths(scenario)
        assert len(paths) == 6 * 128
        for _, path in paths:
            assert edfa_autogain(path).shortfall_db > 0.0
            ledger = optical_ledger(autogained(path))
            assert [e.note for e in ledger.entries].count("gain clamped at max") == 1
            (flag,) = ledger.flags
            assert flag.endswith("below sensitivity 3.00 dBm")
        assert_matches_public_functions(paths, scenario.analysis)

    def test_ase_reads_each_amplifier_input_power(self):
        """Oracle, linear domain: two amplifiers at known input powers; the
        ASE term is sum(2*h*nu*F/P_in) * I^2 * R."""
        path = make_path(
            mk_laser(power_w=0.1), mk_mod_direct(), mk_mux(loss=3.0),
            mk_edfa(gain=5.0, nf=4.0), mk_fiber(length=10_000.0, attenuation=0.2),
            mk_edfa(gain=2.0, nf=5.0), mk_mux(loss=1.0), mk_pd(resp=0.8))
        _, parts = noise_figure_db(path, Modulation.DIRECT, CONFIG)
        planck, light = 6.62607015e-34, 299792458.0
        nu = light / 1550e-9
        p_in_1 = 0.1 * 10 ** (-3.0 / 10)
        p_in_2 = p_in_1 * 10 ** (5.0 / 10) * 10 ** (-2.0 / 10)
        p_det = p_in_2 * 10 ** (2.0 / 10) * 10 ** (-1.0 / 10)
        current = 0.8 * p_det
        expected = (2 * planck * nu * (10 ** 0.4 / p_in_1 + 10 ** 0.5 / p_in_2)
                    * current ** 2 * CONFIG.load_resistance_ohm)
        assert parts.ase_w_hz == pytest.approx(expected, rel=1e-9)
