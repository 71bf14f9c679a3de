"""Independent oracle implementations used to cross-check the engine.

Everything here is deliberately written from first principles (linear-domain
bookkeeping, raw graph walks) and must stay free of photonlink.linkbudget /
photonlink.topology internals so the dual-route checks mean something.
"""

from __future__ import annotations

import math
from fractions import Fraction

BOLTZMANN = 1.380649e-23
ELEMENTARY_CHARGE = 1.602176634e-19
T0_K = 290.0


def brute_force_cascade_nf_db(stages_lin: list[tuple[float, float]],
                              temperature_k: float = 290.0) -> float:
    """Noise figure of a chain from total output noise, linear inputs.

    stages_lin: (linear gain, linear noise factor) in signal order. Each
    stage adds (F-1)*kT*G of its own noise at its output; everything upstream
    is amplified by the remaining chain.
    """
    kt = BOLTZMANN * temperature_k
    total_gain = 1.0
    for gain, _ in stages_lin:
        total_gain *= gain
    output_noise = kt * total_gain
    for index, (gain, factor) in enumerate(stages_lin):
        added = (factor - 1.0) * kt * gain
        for downstream_gain, _ in stages_lin[index + 1:]:
            added *= downstream_gain
        output_noise += added
    return 10.0 * math.log10(output_noise / (total_gain * kt))


def link_noise_figure_db(gain_lin: float, temperature_k: float,
                         photocurrent_a: float, dark_current_a: float,
                         load_ohm: float, rin_db_hz: float) -> float:
    """Noise figure of an unamplified direct-detection link, IEEE definition.

    F is the total output noise density over the part that a matched source
    at T0 = 290 K puts out through the link gain, k*T0*G. The other output
    terms are the load resistor's own noise at its physical temperature,
    k*T; shot noise, 2q(I + I_dark)R; and laser RIN, RIN*I^2*R.
    """
    source = BOLTZMANN * T0_K * gain_lin
    load = BOLTZMANN * temperature_k
    shot = 2.0 * ELEMENTARY_CHARGE * (photocurrent_a + dark_current_a) * load_ohm
    rin = 10.0 ** (rin_db_hz / 10.0) * photocurrent_a ** 2 * load_ohm
    return 10.0 * math.log10((source + load + shot + rin) / source)


def power_sum_dbc(levels_dbc: list[float]) -> float:
    return 10.0 * math.log10(sum(10.0 ** (level / 10.0) for level in levels_dbc))


def count_laser_to_detector_routes(topology) -> int:
    """Count (channel, receiver-chip) routes by raw breadth-first search over
    the edge list, without touching the production path enumerator."""
    total = 0
    receiver_ids = {n.id for n in topology.nodes if n.kind.value == "orxc"}
    holders = {}
    for node in topology.nodes:
        for component in node.components:
            holders.setdefault(component, node.id)
    for channel, laser_name in topology.channel_lasers.items():
        start = holders[laser_name]
        frontier = [start]
        seen = {start}
        while frontier:
            here = frontier.pop()
            if here in receiver_ids:
                total += 1
                continue
            for edge in topology.edges:
                if edge.source == here and channel in edge.channels \
                        and edge.target not in seen:
                    seen.add(edge.target)
                    frontier.append(edge.target)
    return total


def co_propagating(topology, channel, terminal):
    """The channels that enter ``terminal`` with ``channel``, by name and
    by wavelength, from the raw edge list: of the edges into ``terminal``,
    sorted stably by (source, lane), the first that carries ``channel``.
    A channel that enters nowhere rides alone."""
    into = sorted((edge for edge in topology.edges if edge.target == terminal),
                  key=lambda edge: (edge.source, edge.lane))
    for edge in into:
        if channel in edge.channels:
            by_name = tuple(sorted(edge.channels))
            by_wavelength = tuple(sorted(
                by_name, key=lambda name: topology.wavelength_plan[name]))
            return by_name, by_wavelength
    return (channel,), (channel,)


def has_cycle(nodes, edges) -> bool:
    """Whether a directed cycle is reachable from any of ``nodes`` (whose
    ids may repeat) over ``edges`` (whose ends need not be nodes): a
    recursive three-colour depth-first search over the raw edge list, from
    each node in node order not yet reached."""
    successors: dict[str, list[str]] = {}
    for edge in edges:
        successors.setdefault(edge.source, []).append(edge.target)
    colour: dict[str, str] = {}  # none yet: white

    def reaches_grey(node_id: str) -> bool:
        colour[node_id] = "grey"
        for target in successors.get(node_id, ()):
            seen = colour.get(target)
            if seen == "grey" or (seen is None and reaches_grey(target)):
                return True
        colour[node_id] = "black"
        return False

    return any(node.id not in colour and reaches_grey(node.id)
               for node in nodes)


def group_capacity_holds(line_rate_bps: float, encoding: str,
                         framing_overhead: float, channels: int,
                         bar_bytes_per_8ch: float,
                         demand_bits_per_channel: float | None) -> bool:
    """Whether one return group keeps up, in exact rational arithmetic.

    The usable payload is the line rate times the code rate (8/10 or 64/66)
    times the unframed share, in bytes. It must reach the bar, scaled from
    eight channels to ``channels``, and it must carry every channel's ADC
    stream when one is given.
    """
    code_rate = {"8b10b": Fraction(8, 10), "64b66b": Fraction(64, 66)}[encoding]
    payload = (Fraction(line_rate_bps) * code_rate
               * (1 - Fraction(framing_overhead)) / 8)
    bar = Fraction(bar_bytes_per_8ch) * channels / 8
    if payload < bar:
        return False
    if demand_bits_per_channel is None:
        return True
    return payload >= Fraction(demand_bits_per_channel) * channels / 8
