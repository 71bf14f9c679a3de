"""Whole-pipeline metamorphic checks: a change to the reference scenario's
document moves the metrics of ``cli.run("analyze")`` as the physics says,
through parse, build, class keys and analysis. Each relation is checked per
path (``PathResult.metrics``) and per class (``ClassResult.metrics``)."""

import copy
import json
import math
import random

import pytest

from photonlink import cli
from photonlink.data import reference_scenario_path
from photonlink.scenario import parse_scenario

TOLERANCE_DB = 1e-9
FORWARD_PATHS = 6 * 8 * 16


@pytest.fixture(scope="module")
def reference_document():
    with open(reference_scenario_path(), encoding="utf-8") as source:
        document = json.load(source)
    assert document["variant"] == "all"
    return document


def changed(document, change):
    """A deep copy of ``document`` with ``change`` applied to it."""
    document = copy.deepcopy(document)
    change(document)
    return document


def analyzed(document):
    """``cli.run("analyze")`` of ``document``, as two maps from (variant
    label, path id) to (path, metrics): one entry per path, and one per
    class, keyed by the class's own path."""
    report = cli.run("analyze", parse_scenario(document))
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
    paths, classes = analyzed(reference_document)
    assert len(paths) == FORWARD_PATHS
    assert len(classes) == 6 * 8
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

    def stronger(document):
        document["components"][channel["laser"]]["output_power_w"] *= factor

    before = analyzed(reference_document)
    after = analyzed(changed(reference_document, stronger))
    rise = 10.0 * math.log10(factor)
    raised = 0
    for key, (path, old), (_, new) in both_levels(before, after):
        if path.channel == channel["id"]:
            raised += 1
            assert abs(new.detector_power_dbm - old.detector_power_dbm - rise) \
                <= TOLERANCE_DB, key
        else:
            assert new.detector_power_dbm == old.detector_power_dbm, key
    assert raised == 6 * 16 + 6


def test_demux_isolation_moves_only_the_crosstalk(reference_document):
    def isolated(document):
        for spec in document["components"].values():
            if spec["type"] == "mux_demux":
                spec["nonadjacent_isolation_db"] += 10.0

    before = analyzed(reference_document)
    after = analyzed(changed(reference_document, isolated))
    compared = 0
    for key, (_, old), (_, new) in both_levels(before, after):
        compared += 1
        assert new.crosstalk_db < old.crosstalk_db, key
        assert new._replace(crosstalk_db=None) == old._replace(crosstalk_db=None), key
    assert compared == FORWARD_PATHS + 6 * 8


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
