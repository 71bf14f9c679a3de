"""Seeded scenario generator for the photonlink benchmark.

Every workload is derived from the bundled reference scenario
(``src/photonlink/data/reference_scenario.json``). Its structure is fixed per
workload: module count N, channel plan, lanes and return chain. The seed only
redraws non-structural component values inside the bands of ``BANDS``, all of
which keep every component valid, so the same seed always gives the same file
and no seed gives an invalid one. Each workload's ``why`` is also its entry
in BENCHMARK.json.

Usage: python3 perfbench/workloads.py --workload NAME --seed N --out FILE
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path("src/photonlink/data/reference_scenario.json")

# Feasible design variants: {dm, em} x {vbg, awg} x {si, hip} minus the two
# Bragg-grating-in-silicon ones.
FEASIBLE_VARIANTS = 6

# Channel grid and the modules that share one return group.
GRID_START_NM = 1550.0
GRID_STEP_NM = 0.8
RETURN_GROUP = 4

# (component type, field) -> ("scale", low, high) multiplies the reference
# value, ("shift", low, high) adds to it. Every band keeps the field inside
# the range the component validator accepts.
BANDS: dict[tuple[str, str], tuple[str, float, float]] = {
    ("laser", "output_power_w"): ("scale", 0.8, 1.2),
    ("laser", "rin_db_hz"): ("shift", -3.0, 3.0),
    ("laser", "slope_efficiency_w_per_a"): ("scale", 0.9, 1.1),
    ("modulator", "insertion_loss_db"): ("scale", 0.8, 1.2),
    ("mux_demux", "insertion_loss_db"): ("scale", 0.8, 1.2),
    ("splitter", "excess_loss_db"): ("scale", 0.8, 1.2),
    ("fiber", "length_m"): ("scale", 0.75, 1.25),
    ("fiber", "attenuation_db_per_km"): ("scale", 0.9, 1.1),
    ("edfa", "noise_figure_db"): ("shift", -0.5, 0.5),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cli_args: tuple[str, ...]
    fmt: str
    n_dtrm: int
    analog: int
    digital: int
    shared_fiber: bool

    @property
    def channels(self) -> int:
        return self.analog + self.digital

    @property
    def variants(self) -> int:
        return 1 if self.cli_args[0] == "validate" else FEASIBLE_VARIANTS

    @property
    def forward_paths(self) -> int:
        """Forward paths per variant: every channel reaches every module."""
        return self.channels * self.n_dtrm

    @property
    def return_paths(self) -> int:
        return self.n_dtrm

    @property
    def groups(self) -> int:
        return self.n_dtrm // RETURN_GROUP

    @property
    def modules_evaluated(self) -> int:
        """N x variants: the work one invocation does, for modules_per_s."""
        return self.n_dtrm * self.variants


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "tradeoff-n32-json",
        "headline tradeoff over all six variants at N=32: per-module fan-out "
        "and indented JSON rendering dominate",
        ("tradeoff", "--format", "json"), "json",
        n_dtrm=32, analog=6, digital=2, shared_fiber=True),
    Workload(
        "validate-n1024",
        "topology build, validate and adjacency alone at the largest size; "
        "link-budget and JSON render code does not run",
        ("validate", "--format", "text"), "text",
        n_dtrm=1024, analog=6, digital=2, shared_fiber=True),
    Workload(
        "analyze-dwdm48-csv",
        "48 channels on two lanes at N=8: channel count and per-path "
        "crosstalk drive the work, rendered as CSV",
        ("analyze", "--variant", "all", "--format", "csv"), "csv",
        n_dtrm=8, analog=40, digital=8, shared_fiber=False),
)}


def _redraw(components: dict, rng: random.Random) -> None:
    # Sorted names so the draw order, and so the file, depend only on the seed.
    for name in sorted(components):
        spec = components[name]
        for field in sorted(spec):
            band = BANDS.get((spec["type"], field))
            if band is None:
                continue
            how, low, high = band
            draw = rng.uniform(low, high)
            value = spec[field] * draw if how == "scale" else spec[field] + draw
            spec[field] = round(value, 9)


def make_scenario(workload: Workload, seed: int, reference: dict) -> dict:
    """The scenario document for one workload and seed."""
    doc = json.loads(json.dumps(reference))
    doc["name"] = f"{workload.name}-seed{seed}"
    components = doc["components"]
    topo = doc["topology"]
    ref_channels = topo["channels"]
    templates = {kind: next(c for c in ref_channels if c["kind"] == kind)
                 for kind in ("analog", "digital")}
    channels = []
    for kind, count in (("analog", workload.analog), ("digital", workload.digital)):
        own = [c for c in ref_channels if c["kind"] == kind][:count]
        for i in range(len(own), count):
            laser = f"{kind}{i + 1:02d}_laser"
            components[laser] = dict(components[templates[kind]["laser"]])
            own.append({"id": f"{kind}{i + 1:02d}", "laser": laser, "kind": kind})
        channels.extend(own)
    # Re-place every forward channel on the grid so added channels never
    # collide with the reference ones.
    for slot, channel in enumerate(channels):
        components[channel["laser"]]["wavelength_nm"] = round(
            GRID_START_NM + GRID_STEP_NM * slot, 3)
    topo["channels"] = channels
    topo["n_dtrm"] = workload.n_dtrm
    topo["shared_fiber"] = workload.shared_fiber
    topo["return"]["enabled"] = True
    _redraw(components, random.Random(f"{workload.name}:{seed}"))
    return doc


def load_reference(root: Path) -> dict:
    return json.loads((root / REFERENCE).read_text(encoding="utf-8"))


def write_scenario(workload: Workload, seed: int, root: Path, out: Path) -> Path:
    doc = make_scenario(workload, seed, load_reference(root))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    write_scenario(WORKLOADS[args.workload], args.seed, Path.cwd(), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
