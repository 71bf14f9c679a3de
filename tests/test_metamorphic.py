"""Whole-pipeline metamorphic checks: a change to a scenario document moves
the metrics of ``cli.run("analyze")`` as the physics says, through parse,
build, class keys and analysis. Each relation is checked per path
(``PathResult.metrics``) and per class (``ClassResult.metrics``), on the
reference scenario and on the seed-1 scenarios of the benchmark's
``analyze-dwdm48-csv`` workload (48 channels on two lanes at N=8) and of
its ``tradeoff-n32-json`` workload, there through ``cli.run("tradeoff")``
as the workload runs it (8 channels on one lane at N=32)."""

import copy
import json
import math
import random

import pytest

from photonlink import cli
from photonlink.data import reference_scenario_path
from photonlink.scenario import parse_scenario
from photonlink.topology import ElementKind

from conftest import workload_document

TOLERANCE_DB = 1e-9
FORWARD_PATHS = 6 * 8 * 16
DWDM_CLASSES = 6 * 48
N32_CLASSES = 6 * 8


@pytest.fixture(scope="module")
def reference_document():
    with open(reference_scenario_path(), encoding="utf-8") as source:
        document = json.load(source)
    assert document["variant"] == "all"
    return document


@pytest.fixture(scope="module")
def dwdm_document():
    document = workload_document("analyze-dwdm48-csv", 1)
    assert document["variant"] == "all"
    assert document["topology"]["n_dtrm"] == 8
    return document


@pytest.fixture(scope="module")
def n32_document():
    document = workload_document("tradeoff-n32-json", 1)
    assert document["variant"] == "all"
    assert document["topology"]["n_dtrm"] == 32
    return document


def changed(document, change):
    """A deep copy of ``document`` with ``change`` applied to it."""
    document = copy.deepcopy(document)
    change(document)
    return document


def analyzed(document, command="analyze"):
    """``cli.run(command)`` of ``document``, as two maps from (variant
    label, path id) to (path, metrics): one entry per path, and one per
    class, keyed by the class's own path."""
    report = cli.run(command, parse_scenario(document))
    paths, classes = {}, {}
    for variant in report.variants:
        label = variant.variant.label
        for result in variant.paths:
            paths[label, result.member.path_id] = (result.path, result.metrics)
            own = result.class_result
            classes[label, own.cls.path.path_id] = (own.cls.path, own.metrics)
    return paths, classes


def laser_dbm(path):
    return 10.0 * math.log10(path.elements[0].spec.output_power_w / 1e-3)


def both_levels(before, after):
    """(key, before, after) over the paths, then over the classes, of two
    ``analyzed`` results of one network shape."""
    for level in range(2):
        assert before[level].keys() == after[level].keys()
        for key, old in before[level].items():
            yield key, old, after[level][key]


def test_autogain_restores_the_laser_power(reference_document):
    assert_autogain_restores_the_laser_power(reference_document, 6 * 8)


def test_autogain_restores_the_laser_power_on_48_channels(dwdm_document):
    assert_autogain_restores_the_laser_power(dwdm_document, DWDM_CLASSES)


def test_autogain_restores_the_laser_power_in_a_tradeoff_at_n32(n32_document):
    assert_autogain_restores_the_laser_power(n32_document, N32_CLASSES, "tradeoff")


def assert_autogain_restores_the_laser_power(document, class_count,
                                             command="analyze"):
    paths, classes = analyzed(document, command)
    assert len(paths) == class_count * document["topology"]["n_dtrm"]
    assert len(classes) == class_count
    for level in (paths, classes):
        unclamped = 0
        for path, metrics in level.values():
            if any(e.note == "gain clamped at max"
                   for e in metrics.optical_ledger.entries):
                continue
            unclamped += 1
            assert abs(metrics.detector_power_dbm - laser_dbm(path)) \
                <= TOLERANCE_DB, path.path_id
        assert unclamped == len(level)


def test_a_longer_drop_fiber_costs_its_attenuation(reference_document):
    def fixed_gain(document):
        document["analysis"]["edfa_autogain"] = False

    def longer_drop(document):
        fixed_gain(document)
        document["components"]["drop_fiber"]["length_m"] += 1000.0

    attenuation = reference_document["components"]["drop_fiber"][
        "attenuation_db_per_km"]
    before = analyzed(changed(reference_document, fixed_gain))
    after = analyzed(changed(reference_document, longer_drop))
    for key, (_, old), (_, new) in both_levels(before, after):
        assert abs(old.detector_power_dbm - new.detector_power_dbm - attenuation) \
            <= TOLERANCE_DB, key


@pytest.mark.parametrize("seed", range(4))
def test_a_stronger_laser_raises_only_its_channel(reference_document, seed):
    """Seed 0 doubles ``lo1_laser``; the others scale a drawn channel's
    laser by a drawn factor."""
    channels = reference_document["topology"]["channels"]
    if seed == 0:
        channel, factor = channels[0], 2.0
        assert channel["id"] == "lo1"
    else:
        rng = random.Random(seed)
        channel, factor = rng.choice(channels), rng.uniform(1.1, 8.0)
    assert_a_stronger_laser_raises_only_its_channel(reference_document, channel,
                                                    factor)


def test_a_stronger_added_laser_raises_only_its_channel(dwdm_document):
    """The workload's first channel beyond the reference's eight, with its
    own laser part, at twice the power."""
    channel = dwdm_document["topology"]["channels"][8]
    assert channel == {"id": "analog09", "laser": "analog09_laser", "kind": "analog"}
    assert_a_stronger_laser_raises_only_its_channel(dwdm_document, channel, 2.0)


def assert_a_stronger_laser_raises_only_its_channel(document, channel, factor):
    def stronger(document):
        document["components"][channel["laser"]]["output_power_w"] *= factor

    before = analyzed(document)
    after = analyzed(changed(document, stronger))
    rise = 10.0 * math.log10(factor)
    raised = 0
    for key, (path, old), (_, new) in both_levels(before, after):
        if path.channel == channel["id"]:
            raised += 1
            assert abs(new.detector_power_dbm - old.detector_power_dbm - rise) \
                <= TOLERANCE_DB, key
        else:
            assert new.detector_power_dbm == old.detector_power_dbm, key
    assert raised == 6 * document["topology"]["n_dtrm"] + 6


def test_demux_isolation_moves_only_the_crosstalk(reference_document):
    assert_demux_isolation_moves_only_the_crosstalk(reference_document,
                                                    FORWARD_PATHS + 6 * 8)


def test_demux_isolation_moves_only_the_crosstalk_on_48_channels(dwdm_document):
    assert_demux_isolation_moves_only_the_crosstalk(dwdm_document,
                                                    DWDM_CLASSES * (8 + 1))


def test_demux_isolation_moves_only_the_crosstalk_in_a_tradeoff_at_n32(
        n32_document):
    assert_demux_isolation_moves_only_the_crosstalk(
        n32_document, N32_CLASSES * (32 + 1), "tradeoff")


def assert_demux_isolation_moves_only_the_crosstalk(document, compared_count,
                                                    command="analyze"):
    def isolated(document):
        for spec in document["components"].values():
            if spec["type"] == "mux_demux":
                spec["nonadjacent_isolation_db"] += 10.0

    before = analyzed(document, command)
    after = analyzed(changed(document, isolated), command)
    compared = 0
    for key, (_, old), (_, new) in both_levels(before, after):
        compared += 1
        assert new.crosstalk_db < old.crosstalk_db, key
        assert new._replace(crosstalk_db=None) == old._replace(crosstalk_db=None), key
    assert compared == compared_count


def renamed(document, old, new):
    """A copy of ``document`` with the part ``old`` named ``new``, in its
    place among the components and wherever the topology binds it."""
    def rename(value):
        if isinstance(value, dict):
            return {key: rename(item) for key, item in value.items()}
        if isinstance(value, list):
            return [rename(item) for item in value]
        return new if value == old else value

    document = copy.deepcopy(document)
    assert new not in document["components"]
    document["components"] = {new if name == old else name: spec
                              for name, spec in document["components"].items()}
    topology = rename(document["topology"])
    assert topology != document["topology"]
    document["topology"] = topology
    return document


@pytest.mark.parametrize("part", ["analog09_laser", "em_modulator", "vbg_mux",
                                  "trunk_fiber", "fojb_edfa", "fojb_splitter",
                                  "drop_fiber", "awg_demux", "analog_pd"])
def test_renaming_a_part_moves_no_metric(dwdm_document, part):
    """A part's name is only a reference: renamed everywhere it is bound,
    every path keeps its id and every path's and class's metrics stay
    exactly equal."""
    before = analyzed(dwdm_document)
    after = analyzed(renamed(dwdm_document, part, f"renamed_{part}"))
    compared = bound = 0
    for key, (path, old), (renamed_path, new) in both_levels(before, after):
        compared += 1
        assert renamed_path.path_id == path.path_id, key
        assert new == old, key
        bound += any(e.component == f"renamed_{part}" for e in renamed_path.elements)
    assert compared == DWDM_CLASSES * (8 + 1)
    assert bound > 0


def test_renaming_a_part_per_role_moves_no_metric_in_a_tradeoff_at_n32(
        n32_document):
    """One part of each element role, renamed everywhere it is bound in one
    document: every path keeps its id, and every path's and class's
    metrics stay exactly equal."""
    parts = {"laser": "lo1_laser", "modulator": "em_modulator",
             "mux": "vbg_mux", "fiber": "trunk_fiber", "edfa": "fojb_edfa",
             "splitter": "fojb_splitter", "demux": "awg_demux",
             "detector": "analog_pd"}
    assert set(parts) == {kind.value for kind in ElementKind}
    document = n32_document
    for part in parts.values():
        document = renamed(document, part, f"renamed_{part}")
    before = analyzed(n32_document, "tradeoff")
    after = analyzed(document, "tradeoff")
    compared, bound = 0, set()
    for key, (path, old), (renamed_path, new) in both_levels(before, after):
        compared += 1
        assert renamed_path.path_id == path.path_id, key
        assert new == old, key
        bound.update(e.component for e in renamed_path.elements)
    assert compared == N32_CLASSES * (32 + 1)
    assert {f"renamed_{part}" for part in parts.values()} <= bound


def test_more_modules_raise_no_detector_power(reference_document):
    """As ``n_dtrm`` doubles, the highest detector power of each variant's
    channel does not rise: the split loss grows and autogain at most makes
    up for it."""
    def highest(level):
        top = {}
        for (label, _), (path, metrics) in level.items():
            key = label, path.channel
            top[key] = max(top.get(key, -math.inf), metrics.detector_power_dbm)
        return top

    previous = None
    for n in (16, 32, 64):
        document = copy.deepcopy(reference_document)
        document["topology"]["n_dtrm"] = n
        paths, classes = analyzed(document)
        assert len(paths) == 6 * 8 * n
        tops = highest(paths), highest(classes)
        assert tops[0] == tops[1]
        if previous is not None:
            assert tops[0].keys() == previous.keys()
            for key, power in tops[0].items():
                assert power <= previous[key] + TOLERANCE_DB, (n, key)
        previous = tops[0]
