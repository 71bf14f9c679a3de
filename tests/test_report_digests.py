"""Golden SHA-256 digests of the nine reference reports and of the seed-1
reports of the three benchmark workloads.

Each reference report is the bundled reference scenario under one command
and one format, with ``--variant all``. Each workload report is the CLI run
that ``perfbench/run.py`` times, on the scenario file it writes. A change to
the pipeline that moves a single byte of any of them fails here; a
deliberate change to the report format updates these digests and says so in
CHANGES.md.

The digests of report schema 1 stay as oracles: schema 2 dropped two metric
fields that only copied others, and each schema-2 report with those copies
put back must be the schema-1 report to the byte.
"""

import csv
import hashlib
import io
import json

import pytest

from photonlink import cli
from photonlink.data import reference_scenario_path

from conftest import ROOT, benchmark_workloads

V1_DIGESTS = {
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

# The text reports carry neither field, and the validate CSV is a header.
DIGESTS = {
    **V1_DIGESTS,
    ("validate", "json"):
        "0ac0a3f706394419b0ed425ba631eac6ab586458b5c9452ff932759e14bfdd1d",
    ("analyze", "json"):
        "1911927f6e44746370c85abb3436de274ea1b40dc9d08f73921e198425b018c8",
    ("analyze", "csv"):
        "851bc6835fe10bd6c0da3b8fe925df33dc0d50c5bce6b3f3e130aff70a801bc3",
    ("tradeoff", "json"):
        "90cd674e88f8eb646af5ab0ffabc79e8901cdbd13dfad1aa53c0ddf98fae9348",
    ("tradeoff", "csv"):
        "851bc6835fe10bd6c0da3b8fe925df33dc0d50c5bce6b3f3e130aff70a801bc3",
}

# Split lanes (".lane1" element ids), 48 channels and N=1024, which no
# reference report covers.
V1_WORKLOAD_DIGESTS = {
    "tradeoff-n32-json":
        "ac4a719092648976b53c063209d9f0f8dce97e791726996103cb3230708b02b1",
    "validate-n1024":
        "41bcd75efb5930181ebcb95cf838e445113096cd23c1e3c9f8610a5b466252dc",
    "analyze-dwdm48-csv":
        "afb4c9d19f951a76f8759225eecfcca12f4bb206f5e2a89ca4990f4acc0a8f6b",
}

WORKLOAD_DIGESTS = {
    **V1_WORKLOAD_DIGESTS,
    "tradeoff-n32-json":
        "ec19c819117eefd03934f1c323723767f76c214578952f747eb80ecca7b18b48",
    "analyze-dwdm48-csv":
        "818391d0061c3a5024c53f3604317d85b1d2375db3f2e750e8f9daa54073d0d5",
}

# Schema-2 metric -> the schema-1 row that copied it, written right after it.
V1_COPIES = {"noise_figure_db": ("snr_degradation_db", "dB"),
             "rise_time_s": ("fall_time_s", "s")}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_report(tmp_path, command, fmt) -> bytes:
    out = tmp_path / f"{command}.{fmt}"
    code = cli.main([command, "--scenario", str(reference_scenario_path()),
                     "--variant", "all", "--format", fmt, "--out", str(out)])
    assert code == cli.EXIT_OK
    return out.read_bytes()


def workload_report(tmp_path, name) -> bytes:
    workloads = benchmark_workloads()
    workload = workloads.WORKLOADS[name]
    scenario = workloads.write_scenario(workload, 1, ROOT,
                                        tmp_path / "scenario.json")
    out = tmp_path / f"report.{workload.fmt}"
    code = cli.main([*workload.cli_args, "--scenario", str(scenario),
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    return out.read_bytes()


def as_v1(data: bytes, fmt: str) -> bytes:
    """The schema-1 bytes of a schema-2 report: every metrics block gets
    back ``snr_degradation_db``, its noise figure, and ``fall_time_s``, its
    rise time. The text formats carry neither and pass through."""
    text = data.decode("utf-8")
    if fmt == "json":
        doc = json.loads(text)
        doc["schema_version"] = 1
        for variant in doc["variants"]:
            blocks = [path["metrics"] for path in variant["paths"]]
            if variant["worst_case"] is not None:
                blocks.append(variant["worst_case"])
            for block in blocks:
                for metric, (copy, _) in V1_COPIES.items():
                    block[copy] = block[metric]
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for row in csv.reader(io.StringIO(text)):
            writer.writerow(row)
            if row[4] in V1_COPIES:
                writer.writerow([*row[:4], *V1_COPIES[row[4]], row[6]])
        text = buffer.getvalue()
    return text.encode("utf-8")


@pytest.mark.parametrize("command, fmt", sorted(DIGESTS),
                         ids=[f"{c}-{f}" for c, f in sorted(DIGESTS)])
def test_reference_report_digest(tmp_path, command, fmt):
    data = reference_report(tmp_path, command, fmt)
    assert sha256(data) == DIGESTS[command, fmt]


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_workload_report_digest(tmp_path, name):
    assert sha256(workload_report(tmp_path, name)) == WORKLOAD_DIGESTS[name]


@pytest.mark.parametrize("command, fmt", sorted(V1_DIGESTS),
                         ids=[f"{c}-{f}" for c, f in sorted(V1_DIGESTS)])
def test_reference_report_rebuilds_schema_1(tmp_path, command, fmt):
    data = reference_report(tmp_path, command, fmt)
    assert sha256(as_v1(data, fmt)) == V1_DIGESTS[command, fmt]


@pytest.mark.parametrize("name", sorted(V1_WORKLOAD_DIGESTS))
def test_workload_report_rebuilds_schema_1(tmp_path, name):
    fmt = benchmark_workloads().WORKLOADS[name].fmt
    data = workload_report(tmp_path, name)
    assert sha256(as_v1(data, fmt)) == V1_WORKLOAD_DIGESTS[name]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_validate_sizes_no_return_group(tmp_path, monkeypatch, fmt):
    """The validate report carries no group capacity, so validate never
    computes it: with the check made to raise, its bytes are unchanged."""
    def refuse(*args, **kwargs):
        raise AssertionError("validate computed the return-group capacity")

    monkeypatch.setattr(cli, "check_group_capacity", refuse)
    data = reference_report(tmp_path, "validate", fmt)
    assert sha256(data) == DIGESTS["validate", fmt]
