"""The JSON report writer against its oracle, the standard library's
``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)`` of the
path-by-path payload: the reference reports it renders and the NaNs and
infinities it refuses."""

import json
import math

import pytest

from photonlink import cli
from photonlink.data import reference_scenario_path
from photonlink.report import PathResult, _fmt_si, render_json

from conftest import per_path_payload, rendered


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("command", ["validate", "analyze", "tradeoff"])
def test_reference_reports_match_the_standard_library(reference_scenario,
                                                      command):
    report = cli.run(command, reference_scenario)
    assert rendered(render_json, report) == oracle(per_path_payload(report)) + "\n"


def _with_worst(report, **fields):
    """``report`` with its first variant's worst case changed."""
    first = report.variants[0]
    worst = first.worst._replace(**fields)
    return report._replace(variants=(
        first._replace(worst=worst), *report.variants[1:]))


def _bare(report, value):
    # A number member of a frame object: the worst case's RF gain.
    return _with_worst(report, rf_gain_db=value)


def _in_list(report, value):
    # A number in a frame list: the last entry of the worst case's ledger.
    ledger = report.variants[0].worst.optical_ledger
    *kept, last = ledger.entries
    entries = (*kept, last._replace(power_dbm=value))
    return _with_worst(report, optical_ledger=ledger._replace(
        entries=entries))


def _in_dict(report, value):
    # A number of a digital group, an object of the frame's "digital_groups".
    group, *rest = report.digital_groups
    return report._replace(digital_groups=(
        group._replace(margin_bytes_per_s=value), *rest))


def _nested(report, value):
    # A number of a path's class metrics: it sits in a class template.
    first = report.variants[0]
    result, *rest = first.paths
    dead = result.class_result._replace(
        metrics=result.class_result.metrics._replace(sfdr_db=value))
    paths = (PathResult(result.member, dead, result.flags), *rest)
    return report._replace(variants=(
        first._replace(paths=tuple(paths)), *report.variants[1:]))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("wrap", [_bare, _in_list, _in_dict, _nested],
                         ids=["bare", "list", "dict", "nested"])
def test_non_finite_floats_are_refused(reference_scenario, value, wrap):
    """A NaN or an infinity has no strict JSON form wherever it sits: the
    oracle and ``render_json`` both raise ``ValueError``."""
    report = wrap(cli.run("tradeoff", reference_scenario), value)
    with pytest.raises(ValueError):
        oracle(per_path_payload(report))
    with pytest.raises(ValueError):
        rendered(render_json, report)


def test_dead_link_noise_figure_is_refused(reference_scenario, tmp_path,
                                           monkeypatch, capsys):
    report = cli.run("tradeoff", reference_scenario)
    first = report.variants[0]
    dead = first._replace(
        worst=first.worst._replace(noise_figure_db=math.inf))
    report = report._replace(variants=(dead, *report.variants[1:]))

    with pytest.raises(ValueError):
        oracle(per_path_payload(report))
    with pytest.raises(ValueError):
        rendered(render_json, report)
    monkeypatch.setattr(cli, "run", lambda *_: report)
    out = tmp_path / "report.json"
    code = cli.main(["tradeoff", "--scenario", str(reference_scenario_path()),
                     "--format", "json", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value, text", [(math.inf, "inf"), (-math.inf, "-inf")])
def test_engineering_format_of_infinity(value, text):
    assert _fmt_si(value) == text
