"""Scenario parsing, CLI commands, exit codes and report emission."""

import copy
import io
import json
import math
import subprocess
import sys

import pytest

from photonlink.cli import EXIT_COMPLIANCE, EXIT_INPUT, EXIT_OK, exit_code, main, run
from photonlink.data import reference_scenario_path
from photonlink.errors import ScenarioError
from photonlink.report import METRIC_COLUMNS, render_csv, render_json, render_text
from photonlink.scenario import MAX_N_DTRM, parse_scenario, scenario_fingerprint
from photonlink.topology import ElementKind
from photonlink.tradeoff import ALL_VARIANTS, DesignVariant, is_feasible

from conftest import rendered


@pytest.fixture(scope="module")
def raw_reference():
    return json.loads(reference_scenario_path().read_text())


def mutate(raw, **kwargs):
    doc = copy.deepcopy(raw)
    doc.update(kwargs)
    return doc


class TestParseScenario:
    def test_reference_parses(self, reference_scenario):
        assert reference_scenario.n_dtrm == 16
        assert len(reference_scenario.channels) == 8
        assert reference_scenario.variants == tuple(
            v for v in ALL_VARIANTS if is_feasible(v))
        assert reference_scenario.return_bindings is not None

    def test_unknown_component_reference_named(self, raw_reference):
        doc = copy.deepcopy(raw_reference)
        doc["topology"]["bindings"]["fojb_edfa"] = "edfa_x"
        with pytest.raises(ScenarioError, match="edfa_x"):
            parse_scenario(doc)

    def test_indivisible_module_count_with_return_chain(self, raw_reference):
        doc = copy.deepcopy(raw_reference)
        doc["topology"]["n_dtrm"] = 6
        with pytest.raises(ScenarioError, match="divisible by 4"):
            parse_scenario(doc)

    def test_all_problems_listed_not_just_first(self, raw_reference):
        doc = copy.deepcopy(raw_reference)
        doc["topology"]["bindings"]["splitter"] = "nope1"
        doc["topology"]["bindings"]["analog_detector"] = "nope2"
        doc["variant"] = "dmxvbgxsi"
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(doc)
        text = str(excinfo.value)
        assert "nope1" in text and "nope2" in text and "infeasible" in text

    def test_requirement_problems_come_in_field_order(self, raw_reference):
        """Bad requirement values are listed in ``RequirementSet`` field
        order under any hash seed."""
        doc = copy.deepcopy(raw_reference)
        doc.setdefault("requirements", {}).update(
            sfdr_min_db="x", rx_power_min_dbm=None, rf_freq_max_hz=[])
        code = ("import json, sys\n"
                "from photonlink.errors import ScenarioError\n"
                "from photonlink.scenario import parse_scenario\n"
                "try:\n"
                "    parse_scenario(json.load(sys.stdin))\n"
                "except ScenarioError as exc:\n"
                "    print(*(p.split(':')[0] for p in exc.problems))\n")
        src = str(reference_scenario_path().parents[2])
        for seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", code], input=json.dumps(doc),
                env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True)
            assert done.stdout.split() == [
                "requirements.rf_freq_max_hz", "requirements.rx_power_min_dbm",
                "requirements.sfdr_min_db"]

    def test_jitter_keys_are_the_element_kinds(self, raw_reference):
        """Every element kind is a ``jitter_rms_s`` key, and any other key
        is listed as an unknown element kind."""
        doc = copy.deepcopy(raw_reference)
        jitter = {kind.value: 1e-13 for kind in ElementKind}
        doc["analysis"]["jitter_rms_s"] = jitter
        assert parse_scenario(doc).analysis.jitter_rms_s == jitter
        doc["analysis"]["jitter_rms_s"] = dict(jitter, booster=1e-13)
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(doc)
        assert excinfo.value.problems == (
            "analysis.jitter_rms_s: unknown element kind 'booster'",)

    def test_unknown_keys_rejected(self, raw_reference):
        doc = mutate(raw_reference, extra_section={})
        with pytest.raises(ScenarioError, match="unknown key 'extra_section'"):
            parse_scenario(doc)

    def test_fingerprint_tracks_content(self, raw_reference):
        a = parse_scenario(raw_reference)
        changed = copy.deepcopy(raw_reference)
        changed["analysis"]["bandwidth_hz"] = 2e7
        b = parse_scenario(changed)
        assert a.fingerprint != b.fingerprint
        assert parse_scenario(raw_reference).fingerprint == a.fingerprint


class TestRun:
    def test_analyze_reports_128_forward_paths(self, reference_scenario):
        report = run("analyze", reference_scenario)
        forward = report.topology_summaries[0]
        assert forward.path_count == 128
        assert exit_code(report) == EXIT_OK
        variant_result = report.variants[0]
        assert len(variant_result.paths) == 128

    def test_tradeoff_recommends_bragg_direct(self, reference_scenario):
        report = run("tradeoff", reference_scenario)
        top = report.recommendation.ranking[0].variant
        assert top.label == "dmxvbgxhip"
        assert len(report.variants) == 6

    def test_ranking_holds_the_reports_own_results(self, reference_scenario):
        report = run("tradeoff", reference_scenario)
        ranking = report.recommendation.ranking
        assert len(ranking) == len(report.variants)
        for outcome in ranking:
            assert any(outcome is v for v in report.variants), outcome.variant
        payload = json.loads(rendered(render_json, report))
        for entry in payload["variants"]:
            variant = DesignVariant.from_label(entry["variant"])
            assert entry["feasible"] == is_feasible(variant)

    def test_validate_produces_adjacency_dump(self, reference_scenario):
        report = run("validate", reference_scenario)
        assert report.adjacency
        assert not report.validation_messages
        assert exit_code(report) == EXIT_OK

    def test_compliance_failure_maps_to_exit_one(self, raw_reference):
        doc = copy.deepcopy(raw_reference)
        doc["requirements"] = {"sfdr_min_db": 99.0}
        report = run("analyze", parse_scenario(doc))
        assert report.has_compliance_failures
        assert exit_code(report) == EXIT_COMPLIANCE


class TestEmission:
    def test_json_round_trips_numerically(self, reference_scenario):
        report = run("analyze", reference_scenario)
        payload = json.loads(rendered(render_json, report))
        first = payload["variants"][0]["paths"][0]["metrics"]
        original = report.variants[0].paths[0].metrics
        assert first["rf_gain_db"] == original.rf_gain_db
        assert first["noise_figure_db"] == original.noise_figure_db
        assert payload["schema_version"] == 2

    def test_csv_row_count_contract(self, reference_scenario):
        report = run("analyze", reference_scenario)
        lines = rendered(render_csv, report).strip().splitlines()
        paths = sum(len(v.paths) for v in report.variants)
        assert len(lines) == 1 + paths * len(METRIC_COLUMNS)

    def test_text_report_carries_units_in_headers(self, reference_scenario):
        text = rendered(render_text, run("analyze", reference_scenario))
        for token in ("[dB]", "[dBm]", "[s]"):
            assert token in text

    def test_identical_scenario_gives_byte_identical_reports(self,
                                                             reference_scenario):
        first = run("tradeoff", reference_scenario)
        second = run("tradeoff", parse_scenario(reference_scenario_path()))
        assert rendered(render_json, first) == rendered(render_json, second)
        assert rendered(render_text, first) == rendered(render_text, second)
        assert rendered(render_csv, first) == rendered(render_csv, second)

    def test_no_color_env_strips_ansi(self, reference_scenario):
        text = rendered(render_text, run("analyze", reference_scenario),
                        color=False)
        assert "\x1b[" not in text
        colored = rendered(render_text, run("analyze", reference_scenario),
                           color=True)
        assert "\x1b[32m" in colored

    def test_dash_is_stdout(self, monkeypatch):
        """``--out -`` prints what no ``--out`` prints: coloured on a terminal,
        and plain under PHOTONLINK_NO_COLOR."""
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        def printed(*out):
            monkeypatch.setattr(sys, "stdout", Terminal())
            assert main(["analyze", "--scenario", str(reference_scenario_path()),
                         *out]) == EXIT_OK
            return sys.stdout.getvalue()

        monkeypatch.delenv("PHOTONLINK_NO_COLOR", raising=False)
        colored = printed()
        assert "\x1b[32m" in colored
        assert printed("--out", "-") == colored
        monkeypatch.setenv("PHOTONLINK_NO_COLOR", "1")
        plain = printed()
        assert "\x1b[" not in plain
        assert printed("--out", "-") == plain


class TestCommandLine:
    def run_cli(self, *args, **kwargs):
        return subprocess.run(
            [sys.executable, "-m", "photonlink.cli", *args],
            capture_output=True, text=True, **kwargs)

    def test_analyze_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        proc = self.run_cli("analyze",
                            "--scenario", str(reference_scenario_path()),
                            "--variant", "dmxvbgxhip",
                            "--format", "json", "--out", str(out))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(out.read_text())["command"] == "analyze"

    def test_tradeoff_header_names_winning_variant(self):
        proc = self.run_cli("tradeoff",
                            "--scenario", str(reference_scenario_path()))
        assert proc.returncode == EXIT_OK
        assert "Recommendation: dmxvbgxhip" in proc.stdout

    def test_unreadable_scenario_exits_two(self, tmp_path):
        missing = tmp_path / "missing.json"
        proc = self.run_cli("validate", "--scenario", str(missing))
        assert proc.returncode == EXIT_INPUT
        assert "error:" in proc.stderr

    def test_broken_scenario_exits_two(self, tmp_path, raw_reference):
        doc = copy.deepcopy(raw_reference)
        doc["topology"]["bindings"]["splitter"] = "ghost"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        proc = self.run_cli("validate", "--scenario", str(path))
        assert proc.returncode == EXIT_INPUT
        assert "ghost" in proc.stderr

    def test_validate_flags_out_of_band_wavelength(self, tmp_path,
                                                   raw_reference):
        # parses fine, but topology validation must reject the 1250 nm source
        doc = copy.deepcopy(raw_reference)
        doc["components"]["lo1_laser"]["wavelength_nm"] = 1250.0
        path = tmp_path / "oob.json"
        path.write_text(json.dumps(doc))
        proc = self.run_cli("validate", "--scenario", str(path))
        assert proc.returncode == EXIT_INPUT
        assert "outside [1300, 1650] nm" in proc.stdout

    def test_return_throughput_fails_with_its_groups(self, tmp_path,
                                                      raw_reference):
        # A 20x faster ADC demands 4.8 GB/s of each group's 312.5 MB/s.
        doc = copy.deepcopy(raw_reference)
        doc["digital"]["adc"]["sample_rate_sps"] *= 20
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        proc = self.run_cli("analyze", "--scenario", str(path))
        assert proc.returncode == EXIT_COMPLIANCE, proc.stderr
        row = next(line for line in proc.stdout.splitlines()
                   if line.startswith("return_throughput"))
        assert "FAIL" in row and "first dotxc01" in row
        assert "variant verdict: FAIL" in proc.stdout

    def test_unwritable_output_path_exits_two(self, tmp_path):
        proc = self.run_cli("analyze",
                            "--scenario", str(reference_scenario_path()),
                            "--variant", "dmxvbgxhip",
                            "--out", str(tmp_path / "no" / "such" / "dir.txt"))
        assert proc.returncode == EXIT_INPUT

    def test_variant_all_ignores_case_and_spaces(self, tmp_path, raw_reference):
        """The label " ALL " is stripped and case-folded like any other, so
        it selects the variants "all" does and gives the same report bytes,
        the fingerprint line aside."""
        assert (parse_scenario(mutate(raw_reference, variant=" ALL ")).variants
                == parse_scenario(mutate(raw_reference, variant="all")).variants)
        reports = []
        for label in ("all", " ALL "):
            out = tmp_path / "report.txt"
            assert main(["analyze", "--scenario", str(reference_scenario_path()),
                         "--variant", label, "--out", str(out)]) == EXIT_OK
            reports.append([line for line in out.read_bytes().splitlines(True)
                            if not line.startswith(b"fingerprint: ")])
        assert reports[0] == reports[1]

    def test_bandwidth_override_changes_fingerprint(self, tmp_path):
        args = ("analyze", "--scenario", str(reference_scenario_path()),
                "--variant", "dmxvbgxhip", "--format", "json")
        base = tmp_path / "a.json"
        narrow = tmp_path / "b.json"
        assert main([*args, "--out", str(base)]) == EXIT_OK
        assert main([*args, "--bandwidth", "5e6", "--out", str(narrow)]) == EXIT_OK
        a = json.loads(base.read_text())
        b = json.loads(narrow.read_text())
        assert a["scenario"]["fingerprint"] != b["scenario"]["fingerprint"]
        effective = json.loads(reference_scenario_path().read_text())
        effective["variant"] = "dmxvbgxhip"
        effective["analysis"]["bandwidth_hz"] = 5e6
        assert b["scenario"]["fingerprint"] == scenario_fingerprint(effective)

    @pytest.mark.parametrize("case", ["duplicate_key", "top_level_array",
                                      "non_object_analysis"])
    def test_malformed_document_exits_two_without_traceback(self, tmp_path, case):
        text = reference_scenario_path().read_text()
        extra = []
        if case == "duplicate_key":
            text = '{"name": "first",' + text.lstrip()[1:]
        elif case == "top_level_array":
            text = "[" + text + "]"
        else:
            doc = json.loads(text)
            doc["analysis"] = [1e7]
            text = json.dumps(doc)
            extra = ["--bandwidth", "5e6"]
        path = tmp_path / "scenario.json"
        path.write_text(text)
        proc = self.run_cli("analyze", "--scenario", str(path), *extra)
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        if case == "duplicate_key":
            assert "duplicate key 'name'" in proc.stderr

    @pytest.mark.parametrize("section, key, value, extra", [
        ("analysis", "bandwidth_hz", None, ["--bandwidth", "nan"]),
        ("analysis", "temperature_k", math.inf, []),
        ("analysis", "iip3_dbm", {"dm": math.nan}, []),
        ("adc", "bits_per_sample", 10 ** 400, []),
        ("lo1_laser", "output_power_w", 10 ** 400, []),
    ], ids=["bandwidth-nan", "temperature-inf", "iip3-nan", "bits-overflow",
            "components"])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, raw_reference,
                                         section, key, value, extra):
        doc = copy.deepcopy(raw_reference)
        sections = {"analysis": doc["analysis"], "adc": doc["digital"]["adc"],
                    "lo1_laser": doc["components"]["lo1_laser"]}
        if value is not None:
            sections[section][key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--scenario", str(path), *extra]) == EXIT_INPUT
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, named", [
        ("analysis", "phase_noise_profile", [[1e2, 1e308]],
         "analysis.phase_noise_profile[0]"),
        ("lo1_laser", "slope_efficiency_w_per_a", 1e308, "lo1_laser"),
        ("lo1_laser", "output_power_w", 1e308, "lo1_laser"),
    ], ids=["phase-noise-level", "slope-efficiency", "output-power"])
    def test_absurd_finite_value_exits_two(self, tmp_path, capsys, raw_reference,
                                           section, key, value, named):
        """Finite inputs that overflow the link arithmetic (or turned into a
        NaN in the report) are input errors that name where they come from."""
        doc = copy.deepcopy(raw_reference)
        sections = {"analysis": doc["analysis"],
                    "lo1_laser": doc["components"]["lo1_laser"]}
        sections[section][key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--scenario", str(path)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert named in err and not out

    @pytest.mark.parametrize("n_dtrm", [10 ** 400, MAX_N_DTRM + 4],
                             ids=["huge", "cap-plus-four"])
    def test_oversized_module_count_exits_two(self, tmp_path, raw_reference, n_dtrm):
        doc = copy.deepcopy(raw_reference)
        doc["topology"]["n_dtrm"] = n_dtrm
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        # An uncapped count makes the CLI build the whole network; the timeout
        # turns that into a failure instead of a hang.
        proc = self.run_cli("validate", "--scenario", str(path), timeout=15)
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert "topology.n_dtrm" in proc.stderr

    def test_infeasible_variant_request_exits_two(self):
        proc = self.run_cli("analyze",
                            "--scenario", str(reference_scenario_path()),
                            "--variant", "dmxvbgxsi")
        assert proc.returncode == EXIT_INPUT


class TestSplitClockLane:
    def test_scenario_with_separate_clock_fiber_analyzes(self, raw_reference):
        doc = copy.deepcopy(raw_reference)
        doc["topology"]["shared_fiber"] = False
        doc["variant"] = "dmxvbgxhip"
        report = run("analyze", parse_scenario(doc))
        assert exit_code(report) == EXIT_OK
        assert report.topology_summaries[0].path_count == 128
        # clock channels ride their own lane, so they see no analog neighbors
        clock_rows = [pr for pr in report.variants[0].paths
                      if pr.path.channel == "adcclk"]
        assert clock_rows
        assert all(pr.metrics.crosstalk_db is not None for pr in clock_rows)
        analog_rows = [pr for pr in report.variants[0].paths
                       if pr.path.channel == "lo1"]
        # six analog channels per lane vs two clocks: different leakage sums
        assert clock_rows[0].metrics.crosstalk_db \
            != analog_rows[0].metrics.crosstalk_db
