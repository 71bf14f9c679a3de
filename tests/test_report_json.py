"""The JSON report writer against its oracle, the standard library's
``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)`` of the
path-by-path payload: the reference reports it renders and the NaNs and
infinities it refuses; and the writer's dumper against the same oracle on
seeded random values."""

import json
import math
import random
from enum import Enum, IntEnum

import pytest

from photonlink import cli
from photonlink.data import reference_scenario_path
from photonlink.report import PathResult, _dump, _fmt_si, render_json

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


class Band(str, Enum):
    """A str-Enum, written as its value."""

    C = "c-band"
    L = "l\u00e9\x01"


class Lanes(IntEnum):
    """An IntEnum, written as its value."""

    TWO = 2


# Scalars the dumper must write as the standard library does: escapes,
# control and non-ASCII characters and a lone surrogate, enum members, bools
# beside ints, big ints, signed zero, the smallest subnormal and 1e308.
SCALARS = ["", 'quote " and \\ backslash', "\x00\x1f\x7f\t\n\r",
           "caf\u00e9 \u6f22 \U0001f600", "\ud800", Band.C, Band.L,
           Lanes.TWO, None, True, False, 0, 1, -1, 2 ** 100, -(2 ** 64), 0.0,
           -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e16, 123456789.125]


def random_text(rng):
    return "".join(chr(rng.choice([rng.randrange(0x20), rng.randrange(0x20, 0x7f),
                                   rng.randrange(0x80, 0x3000)]))
                   for _ in range(rng.randrange(6)))


def random_value(rng, depth=0):
    """A seeded JSON value: a scalar, or a list, tuple or dict (string keys)
    of up to four random values, nested at most four deep."""
    roll = rng.random()
    if depth == 4 or roll < 0.4:
        return rng.choice([rng.choice(SCALARS), random_text(rng),
                           rng.uniform(-1e9, 1e9), rng.randint(-10 ** 9, 10 ** 9),
                           rng.random() < 0.5])
    items = [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if roll < 0.6:
        return items
    if roll < 0.7:
        return tuple(items)
    return {random_text(rng): item for item in items}


def dumped(value) -> str:
    chunks = []
    _dump(value, "\n", chunks.append)
    return "".join(chunks)


@pytest.mark.parametrize("seed", range(40))
def test_dump_writes_what_the_standard_library_writes(seed):
    rng = random.Random(seed)
    for _ in range(25):
        value = random_value(rng)
        assert dumped(value) == oracle(value)


def _nest(value, depth, rng):
    """``value`` inside ``depth`` random containers."""
    for _ in range(depth):
        value = rng.choice([[0.5, value], (value,), {"a": None, "k": value},
                            [{"x": [value]}]])
    return value


@pytest.mark.parametrize("depth", range(6))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
def test_dump_refuses_non_finite_floats_at_every_depth(bad, depth):
    value = _nest(bad, depth, random.Random(depth))
    with pytest.raises(ValueError) as want:
        oracle(value)
    with pytest.raises(ValueError) as got:
        dumped(value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", 1j],
                         ids=lambda bad: type(bad).__name__)
def test_dump_refuses_an_unknown_type(bad):
    value = _nest(bad, 2, random.Random(0))
    with pytest.raises(TypeError) as want:
        oracle(value)
    with pytest.raises(TypeError) as got:
        dumped(value)
    assert str(got.value) == str(want.value)
