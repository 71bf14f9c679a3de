"""Golden SHA-256 digests of the nine reference reports.

Each report is the bundled reference scenario under one command and one
format, with ``--variant all``. A change to the pipeline that moves a single
byte of any of them fails here; a deliberate change to the report format
updates these digests and says so in CHANGES.md.
"""

import hashlib

import pytest

from photonlink import cli
from photonlink.data import reference_scenario_path

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
