"""Digitized return-link throughput arithmetic and group compliance."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import photonlink
from photonlink.digitalpath import (
    AdcStreamSpec,
    DigitalLinkSpec,
    LineEncoding,
    check_group_capacity,
    payload_throughput_bytes_per_s,
    required_line_rate_bps,
)
from photonlink.errors import AnalysisError
from photonlink.topology import build_return_network

from conftest import return_fixture_bindings, return_fixture_library
from oracles import group_capacity_holds


class TestPayload:
    def test_8b10b_reference_rate(self):
        link = DigitalLinkSpec(3.125e9, LineEncoding.E8B10B)
        assert payload_throughput_bytes_per_s(link) == pytest.approx(312.5e6)

    def test_unity_efficiency(self):
        link = DigitalLinkSpec(1e9, LineEncoding.E64B66B, 0.0)
        expected = 1e9 * (64 / 66) / 8
        assert payload_throughput_bytes_per_s(link) == pytest.approx(expected)

    def test_three_percent_framing(self):
        link = DigitalLinkSpec(3.125e9, LineEncoding.E8B10B, 0.03)
        assert payload_throughput_bytes_per_s(link) == pytest.approx(303.125e6)

    def test_payload_is_linear_in_line_rate(self):
        rng = random.Random(1)
        for _ in range(50):
            rate = rng.uniform(1e8, 1e10)
            scale = rng.uniform(0.1, 10.0)
            a = payload_throughput_bytes_per_s(DigitalLinkSpec(rate))
            b = payload_throughput_bytes_per_s(DigitalLinkSpec(rate * scale))
            assert b == pytest.approx(a * scale, rel=1e-12)

    def test_invalid_framing_rejected(self):
        with pytest.raises(AnalysisError, match="framing overhead"):
            payload_throughput_bytes_per_s(DigitalLinkSpec(1e9, framing_overhead=1.0))


class TestRequiredLineRate:
    def test_four_channel_reference(self):
        """4 x 31.25 MB/s over 8b/10b needs 1.25 Gb/s."""
        stream = AdcStreamSpec(sample_rate_sps=15.625e6, bits_per_sample=16)
        assert stream.bits_per_s == pytest.approx(2.5e8)
        rate = required_line_rate_bps(stream, 4, DigitalLinkSpec(1.0))
        assert rate == pytest.approx(1.25e9)

    def test_single_channel_unity_efficiency_is_identity(self):
        stream = AdcStreamSpec(1e8, 10, complex_iq=True)
        link = DigitalLinkSpec(1.0, LineEncoding.E64B66B, 0.0)
        rate = required_line_rate_bps(stream, 1, link)
        assert rate * (64 / 66) == pytest.approx(stream.bits_per_s)

    def test_complex_sampling_doubles_demand(self):
        real = AdcStreamSpec(1e8, 12, complex_iq=False)
        iq = AdcStreamSpec(1e8, 12, complex_iq=True)
        assert iq.bits_per_s == 2 * real.bits_per_s

    def test_round_trip_never_under_provisions(self):
        rng = random.Random(314)
        for _ in range(500):
            stream = AdcStreamSpec(rng.uniform(1e6, 1e9), rng.randint(8, 16),
                                   complex_iq=bool(rng.getrandbits(1)))
            channels = rng.randint(1, 8)
            link = DigitalLinkSpec(
                1.0,
                rng.choice(list(LineEncoding)),
                rng.uniform(0.0, 0.2),
            )
            rate = required_line_rate_bps(stream, channels, link)
            provisioned = payload_throughput_bytes_per_s(
                DigitalLinkSpec(rate, link.encoding, link.framing_overhead))
            assert provisioned >= channels * stream.bits_per_s / 8.0


class TestGroupCapacity:
    def make_topology(self, n=16):
        return build_return_network(n, return_fixture_library(),
                                    return_fixture_bindings())

    def test_wide_margin_passes(self):
        rows = check_group_capacity(self.make_topology(),
                                    DigitalLinkSpec(3.125e9))
        assert len(rows) == 4
        for row in rows:
            assert row.passed
            assert row.bar_bytes_per_s == pytest.approx(125e6)
            assert row.margin_bytes_per_s == pytest.approx(187.5e6)

    def test_boundary_is_inclusive(self):
        # payload exactly 125 MB/s: line rate = 125e6*8/0.8
        link = DigitalLinkSpec(1.25e9, LineEncoding.E8B10B)
        rows = check_group_capacity(self.make_topology(4), link)
        (row,) = rows
        assert row.payload_bytes_per_s == pytest.approx(125e6)
        assert row.passed
        assert row.margin_bytes_per_s == pytest.approx(0.0, abs=1e-3)

    def test_deficit_fails_with_margin(self):
        link = DigitalLinkSpec(1e9, LineEncoding.E8B10B)  # 100 MB/s
        rows = check_group_capacity(self.make_topology(4), link)
        (row,) = rows
        assert not row.passed
        assert row.margin_bytes_per_s == pytest.approx(-25e6)

    def test_compliance_is_monotone_in_line_rate(self):
        topology = self.make_topology(4)
        last_margin = None
        for rate in (0.5e9, 1.0e9, 1.25e9, 2.0e9, 3.125e9):
            (row,) = check_group_capacity(topology, DigitalLinkSpec(rate))
            if last_margin is not None:
                assert row.margin_bytes_per_s > last_margin
            last_margin = row.margin_bytes_per_s

    def test_adc_demand_reported_when_stream_given(self):
        stream = AdcStreamSpec(2e7, 12, complex_iq=True)
        rows = check_group_capacity(self.make_topology(8),
                                    DigitalLinkSpec(3.125e9), stream)
        for row in rows:
            assert row.adc_demand_bytes_per_s == pytest.approx(4 * 4.8e8 / 8)
            assert row.required_line_rate_bps == pytest.approx(4 * 4.8e8 / 0.8)

    def test_demand_above_payload_fails_despite_the_bar(self):
        # 1 Gb/s of 8b/10b is 100 MB/s: twice the 50 MB/s bar of four
        # channels, but four 32 MB/s streams need 128 MB/s.
        link = DigitalLinkSpec(1e9, LineEncoding.E8B10B)
        stream = AdcStreamSpec(16e6, 16)
        (row,) = check_group_capacity(self.make_topology(4), link, stream,
                                      bar_bytes_per_8ch=100e6)
        assert row.payload_bytes_per_s >= row.bar_bytes_per_s
        assert row.adc_demand_bytes_per_s > row.payload_bytes_per_s
        assert not row.passed
        assert not group_capacity_holds(1e9, "8b10b", 0.0, 4, 100e6,
                                        stream.bits_per_s)

    def test_verdict_matches_the_demand_oracle(self):
        rng = random.Random(2718)
        topology = self.make_topology(8)
        verdicts = set()
        for _ in range(300):
            link = DigitalLinkSpec(rng.uniform(0.2e9, 4e9),
                                   rng.choice(list(LineEncoding)),
                                   rng.uniform(0.0, 0.2))
            stream = rng.choice((None, AdcStreamSpec(
                rng.uniform(1e6, 5e7), rng.randint(8, 16),
                complex_iq=bool(rng.getrandbits(1)))))
            bar = rng.uniform(50e6, 500e6)
            want = group_capacity_holds(
                link.line_rate_bps, link.encoding.value, link.framing_overhead,
                4, bar, None if stream is None else stream.bits_per_s)
            for row in check_group_capacity(topology, link, stream,
                                            bar_bytes_per_8ch=bar):
                assert row.passed is want
            verdicts.add((want, stream is None))
        assert verdicts == {(True, True), (True, False),
                            (False, True), (False, False)}


class TestImportCost:
    def test_64b66b_efficiency_is_the_exact_code_rate(self):
        assert LineEncoding.E64B66B.efficiency == float(Fraction(64, 66))

    def test_cli_import_leaves_fractions_out(self):
        src = Path(photonlink.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, photonlink.cli; print('fractions' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_cli_import_leaves_dataclasses_out(self):
        """The records are NamedTuples and hand-written classes, so the CLI
        loads neither ``dataclasses`` nor what importing it brings."""
        src = Path(photonlink.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, photonlink.cli; print(sorted({'dataclasses', "
             "'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"],
            env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("run", [
        *(f"photonlink.cli.main(['validate', '--scenario', scenario, "
          f"'--format', '{fmt}', '--out', out])" for fmt in ("text", "json", "csv")),
        "parse_scenario(scenario)",
    ], ids=["validate-text", "validate-json", "validate-csv", "parse"])
    def test_validate_loads_no_analysis_module(self, run, tmp_path):
        """The input layer holds every record a scenario is parsed into and
        the report loads its one analysis name on first use, so importing
        the CLI and parsing a scenario, or a whole ``validate`` run in any
        format, loads none of the analysis modules."""
        src = Path(photonlink.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, photonlink.cli\n"
             "from photonlink.data import reference_scenario_path\n"
             "from photonlink.scenario import parse_scenario\n"
             "scenario = str(reference_scenario_path())\n"
             f"out = {str(tmp_path / 'report')!r}\n"
             f"{run}\n"
             "print(sorted({'photonlink.linkbudget', 'photonlink.tradeoff', "
             "'photonlink.digitalpath'} & set(sys.modules)))"],
            env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_cli_import_builds_no_forward_reference(self):
        """The records' string annotations stay strings: importing the CLI
        compiles none of them into a ``typing.ForwardRef``, as
        ``typing.NamedTuple`` does for every field."""
        src = Path(photonlink.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c",
             "import typing\n"
             "built = []\n"
             "init = typing.ForwardRef.__init__\n"
             "def counting(self, *args, **kwargs):\n"
             "    built.append(args[0])\n"
             "    init(self, *args, **kwargs)\n"
             "typing.ForwardRef.__init__ = counting\n"
             "import photonlink.cli\n"
             "print(len(built))\n"],
            env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "0"
