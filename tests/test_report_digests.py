"""Golden SHA-256 digests of the nine reference reports and of the seed-1
reports of the three benchmark workloads.

Each reference report is the bundled reference scenario under one command
and one format, with ``--variant all``. Each workload report is the CLI run
that ``perfbench/run.py`` times, on the scenario file it writes. A change to
the pipeline that moves a single byte of any of them fails here; a
deliberate change to the report format updates these digests and says so in
CHANGES.md.
"""

import hashlib

import pytest

from photonlink import cli
from photonlink.data import reference_scenario_path

from conftest import ROOT, benchmark_workloads

DIGESTS = {
    ("validate", "text"):
        "78aa5a938c4df35351cbf6487736bb1fa6e4e329412d92a1365a6b0b576932d6",
    ("validate", "json"):
        "3e8a660865f9880bb07c180a1e9f9348f224a25f7a7c8e30ac89eac5c4c8048c",
    ("validate", "csv"):
        "6f16aaa8d3d8d7bd8315f919faab3b006f2269091ca9e37fe7c44dffef4e22bf",
    ("analyze", "text"):
        "ad07619a0ed1c44de3af60659250350048e8f696f38ef7c3fa81fbbb046b318d",
    ("analyze", "json"):
        "f0077091d51da5c3a0be35d7cfad6387c3f7d7e3509681e21990df813516149d",
    ("analyze", "csv"):
        "d76071d15e649d131d52fecd535968766b1f0587be5623640711f44fa362c190",
    ("tradeoff", "text"):
        "20652f86581f7278bf495bf44c3128587a210dfd38ecdd6729da95dc11683842",
    ("tradeoff", "json"):
        "4169cffcc3154ce0c7d875c7b83ef5bbbf793376c32914be293be0653774b543",
    ("tradeoff", "csv"):
        "d76071d15e649d131d52fecd535968766b1f0587be5623640711f44fa362c190",
}


@pytest.mark.parametrize("command, fmt", sorted(DIGESTS),
                         ids=[f"{c}-{f}" for c, f in sorted(DIGESTS)])
def test_reference_report_digest(tmp_path, command, fmt):
    out = tmp_path / f"{command}.{fmt}"
    code = cli.main([command, "--scenario", str(reference_scenario_path()),
                     "--variant", "all", "--format", fmt, "--out", str(out)])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[command, fmt]


# Split lanes (".lane1" element ids), 48 channels and N=1024, which no
# reference report covers.
WORKLOAD_DIGESTS = {
    "tradeoff-n32-json":
        "ac4a719092648976b53c063209d9f0f8dce97e791726996103cb3230708b02b1",
    "validate-n1024":
        "41bcd75efb5930181ebcb95cf838e445113096cd23c1e3c9f8610a5b466252dc",
    "analyze-dwdm48-csv":
        "afb4c9d19f951a76f8759225eecfcca12f4bb206f5e2a89ca4990f4acc0a8f6b",
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_workload_report_digest(tmp_path, name):
    workloads = benchmark_workloads()
    workload = workloads.WORKLOADS[name]
    scenario = workloads.write_scenario(workload, 1, ROOT,
                                        tmp_path / "scenario.json")
    out = tmp_path / f"report.{workload.fmt}"
    code = cli.main([*workload.cli_args, "--scenario", str(scenario),
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WORKLOAD_DIGESTS[name]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_validate_sizes_no_return_group(tmp_path, monkeypatch, fmt):
    """The validate report carries no group capacity, so validate never
    computes it: with the check made to raise, its bytes are unchanged."""
    def refuse(*args, **kwargs):
        raise AssertionError("validate computed the return-group capacity")

    monkeypatch.setattr(cli, "check_group_capacity", refuse)
    out = tmp_path / f"validate.{fmt}"
    code = cli.main(["validate", "--scenario", str(reference_scenario_path()),
                     "--variant", "all", "--format", fmt, "--out", str(out)])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS["validate", fmt]
