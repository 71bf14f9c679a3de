"""Fixed reference work that the benchmark times alongside the CLI.

The host's speed drifts: the same CLI invocation takes from 1x to 1.6x its
best time within a minute, as neighbours load the shared cores. This program
does the same pure-Python work on every run, of the kinds the CLI does
(dicts of floats, ``math.log10``, sorting, string formatting and the indented
pure-Python JSON encoder), and never imports photonlink, so its wall time
tracks only the host. The benchmark divides the CLI's wall time by the wall
time of one rep of this work, timed just before and just after it.

Usage: python3 perfbench/calibrate.py REPS
"""

from __future__ import annotations

import json
import math
import random
import sys

ROWS = 5000


def rep(rng: random.Random) -> float:
    rows = []
    for i in range(ROWS):
        power = rng.uniform(1e-4, 1e-2)
        loss = rng.uniform(0.0, 10.0)
        rows.append({"id": f"m{i:05d}", "loss_db": loss, "power_w": power,
                     "snr_db": 10.0 * math.log10(power / 1e-6) - loss,
                     "tags": [f"ch{i % 8}", "fwd" if i % 2 else "ret"]})
    rows.sort(key=lambda row: row["snr_db"])
    text = json.dumps(rows, indent=2, sort_keys=True)
    lines = [",".join(f"{row[key]}" for key in ("id", "loss_db", "snr_db"))
             for row in rows]
    return rows[0]["snr_db"] + len(text) + len(lines)


def main(argv: list[str]) -> int:
    rng = random.Random(0)
    total = 0.0
    for _ in range(int(argv[0])):
        total += rep(rng)
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
