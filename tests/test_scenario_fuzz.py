"""Seeded fuzz of the scenario edge.

Mutated copies of the reference scenario (N=8) must each parse to a
``Scenario`` or raise ``ScenarioError``, never another exception. A sample
also goes through the CLI, which must exit 0, 1 or 2 without a traceback and
write strict JSON: no ``NaN``, ``Infinity`` or ``-Infinity`` token.
"""

import copy
import json
import math
import random

from photonlink import cli
from photonlink.data import reference_scenario_path
from photonlink.errors import ScenarioError
from photonlink.scenario import Scenario, parse_scenario

DOCUMENTS = 2000
CLI_EVERY = 10  # every tenth document also goes through the CLI
COMMANDS = ("validate", "analyze", "tradeoff")
# Replacement leaves: wrong types, nulls, non-finite and out-of-range numbers.
VALUES = (None, True, False, 0, -1, 1, 7, 0.5, -0.5, 1e-308, 1e308, -1e308,
          10 ** 400, -10 ** 400, math.nan, math.inf, -math.inf, "", "x", "all",
          [], [1, 2], {}, {"k": 1})
# Factors applied to a numeric leaf instead, to reach finite but absurd values.
SCALES = (-1, 0, 1e-100, 1e-6, 1e3, 1e6, 1e100)


def children(node):
    if isinstance(node, dict):
        return list(node.items())
    return list(enumerate(node)) if isinstance(node, list) else []


def leaves(node, path=()):
    """Paths to every scalar, empty list and empty object in ``node``."""
    if not children(node):
        yield path
    for key, child in children(node):
        yield from leaves(child, path + (key,))


def objects(node, path=()):
    """Paths to every object in ``node``, the document itself included."""
    if isinstance(node, dict):
        yield path
    for key, child in children(node):
        yield from objects(child, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(base: dict, rng: random.Random) -> dict:
    """A copy of ``base`` with one to three leaf replacements, deletions or
    unknown keys."""
    doc = copy.deepcopy(base)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("replace", "delete", "unknown"))
        if op == "unknown":
            at(doc, rng.choice(list(objects(doc))))["zz_unknown"] = rng.choice(VALUES)
            continue
        paths = [p for p in leaves(doc) if p]
        if not paths:
            continue
        path = rng.choice(paths)
        parent = at(doc, path[:-1])
        old = parent[path[-1]]
        if op == "delete":
            del parent[path[-1]]
        elif (isinstance(old, (int, float)) and not isinstance(old, bool)
              and rng.random() < 0.5):
            parent[path[-1]] = old * rng.choice(SCALES)
        else:
            parent[path[-1]] = rng.choice(VALUES)
    return doc


def no_non_finite(token):
    raise AssertionError(f"report contains {token}")


def test_mutated_scenarios_parse_or_fail_cleanly_and_the_cli_stays_total(
        tmp_path, capsys):
    base = json.loads(reference_scenario_path().read_text())
    base["topology"]["n_dtrm"] = 8
    rng = random.Random(0)
    parsed = ran = 0
    for index in range(DOCUMENTS):
        doc = mutate(base, rng)
        try:
            parsed += isinstance(parse_scenario(doc), Scenario)
        except ScenarioError:
            pass
        if index % CLI_EVERY:
            continue
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        command = COMMANDS[index // CLI_EVERY % len(COMMANDS)]
        code = cli.main([command, "--scenario", str(path), "--format", "json"])
        out, err = capsys.readouterr()
        assert code in (cli.EXIT_OK, cli.EXIT_COMPLIANCE, cli.EXIT_INPUT), doc
        assert "Traceback" not in err
        if out:
            json.loads(out, parse_constant=no_non_finite)
        ran += 1
    assert ran >= 100
    # The mutations must leave enough valid documents to reach the engine.
    assert parsed >= 50
