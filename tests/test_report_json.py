"""The JSON report writer against its oracle, the standard library's
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``: a seeded
random corpus, the values it refuses, and the reference reports it renders."""

import dataclasses
import json
import math
import random

import pytest

from photonlink import cli
from photonlink.data import reference_scenario_path
from photonlink.report import _dump_json, _fmt_si, render_json

from conftest import per_path_payload, rendered


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def assert_matches_oracle(obj):
    """The writer writes the oracle's bytes, or both raise ``ValueError``."""
    try:
        expected = oracle(obj)
    except ValueError:
        with pytest.raises(ValueError):
            rendered(_dump_json, obj)
    else:
        assert rendered(_dump_json, obj) == expected


SPECIAL_FLOATS = (
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
    1e16, 0.1 + 0.2, 1e-7, 1e300, -1.5, 123456789.0,
)
NON_FINITE = (math.inf, -math.inf, math.nan)
SPECIAL_INTS = (0, 1, -1, 2**63, -(2**63) - 1, 2**64 + 7, 10**30)
# Non-ASCII (in and beyond the BMP), control characters, quote, backslash,
# the line separators JavaScript rejects, and a lone surrogate.
ALPHABET = ("a", "Z", "0", " ", "/", "\u00e9", "\u4e2d", "\U0001f600", "\x00",
            "\x1f", "\x7f", "\n", "\t", '"', "\\", "\u2028", "\u2029",
            "\ud800")


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))


def random_scalar(rng: random.Random):
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice(SPECIAL_FLOATS + NON_FINITE)
    if kind == 1:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 300)
    if kind == 2:
        return rng.choice(SPECIAL_INTS)
    if kind == 3:
        return rng.randint(-10**6, 10**6)
    if kind == 4:
        return rng.choice((True, False, 1, 0, None))
    return random_text(rng)


def random_value(rng: random.Random, depth: int):
    kind = rng.randrange(5) if depth < 5 else 4
    if kind == 0:
        return {random_text(rng): random_value(rng, depth + 1)
                for _ in range(rng.randint(0, 5))}
    if kind == 1:
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 5))]
    if kind == 2:
        return rng.choice(({}, []))
    return random_scalar(rng)


FIXED_CORPUS = (
    {},
    [],
    "",
    {"": {}, "a": [], "b": [{}, [], [[]], {"c": {}}]},
    [True, 1, False, 0, None, 1.0, 0.0, -0.0],
    {"flag": True, "one": 1, "off": False, "zero": 0, "none": None},
    list(SPECIAL_FLOATS) + list(SPECIAL_INTS),
    {text: text for text in ALPHABET},
    {"z": 1, "a": 2, "\u00e9": 3, "A": 4, "\ud800": 5, "\U0001f600": 6, "": 7},
)


@pytest.mark.parametrize("obj", FIXED_CORPUS)
def test_fixed_corpus_matches_the_standard_library(obj):
    assert rendered(_dump_json, obj) == oracle(obj)


@pytest.mark.parametrize("seed", range(8))
def test_random_corpus_matches_the_standard_library(seed):
    rng = random.Random(seed)
    for _ in range(60):
        assert_matches_oracle(random_value(rng, 0))


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("wrap", [
    lambda v: v,
    lambda v: [1.0, v],
    lambda v: {"a": 1.0, "b": v},
    lambda v: {"a": [{}, {"b": [v]}]},
], ids=["bare", "list", "dict", "nested"])
def test_non_finite_floats_are_refused(value, wrap):
    obj = wrap(value)
    with pytest.raises(ValueError):
        oracle(obj)
    with pytest.raises(ValueError):
        rendered(_dump_json, obj)


class Loud:
    """Records every attempt to turn it into text."""

    def __init__(self, calls):
        self.calls = calls

    def __str__(self):
        self.calls.append("str")
        return "loud"

    __repr__ = __str__


class Metres(float):
    def __repr__(self):
        return "1 m"


@pytest.mark.parametrize("make", [
    lambda calls: {1, 2},
    lambda calls: object(),
    lambda calls: Loud(calls),
    lambda calls: {"ok": [1, Loud(calls)]},
    lambda calls: {1: "one"},
    lambda calls: {Loud(calls): "x"},
    lambda calls: {"a": 1, 2: "b"},
    lambda calls: (1, 2),
    lambda calls: Metres(1.0),
], ids=["set", "object", "loud", "nested-loud", "int-key", "loud-key",
        "mixed-keys", "tuple", "float-subclass"])
def test_unhandled_values_raise_type_error(make):
    calls = []
    with pytest.raises(TypeError):
        rendered(_dump_json, make(calls))
    assert calls == []


@pytest.mark.parametrize("command", ["validate", "analyze", "tradeoff"])
def test_reference_reports_match_the_standard_library(reference_scenario,
                                                      command):
    report = cli.run(command, reference_scenario)
    assert rendered(render_json, report) == oracle(per_path_payload(report)) + "\n"


def test_dead_link_noise_figure_is_refused(reference_scenario, tmp_path,
                                           monkeypatch, capsys):
    report = cli.run("tradeoff", reference_scenario)
    first = report.variants[0]
    dead = dataclasses.replace(
        first, worst=dataclasses.replace(first.worst, noise_figure_db=math.inf))
    report = dataclasses.replace(report, variants=(dead, *report.variants[1:]))

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
