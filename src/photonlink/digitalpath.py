"""Capacity checks for the digitized return links into the beam former.

The abstract throughput bar is stated per eight-channel receiver; return
groups carry four channels, so each group owes half the bar by default.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import AnalysisError
from .topology import OpticalTopology, return_groups

# Payload bar per eight receiver channels, byte/s.
DEFAULT_THROUGHPUT_BAR_BYTES_PER_S = 250e6
BAR_CHANNEL_BASIS = 8


class LineEncoding(str, Enum):
    E8B10B = "8b10b"
    E64B66B = "64b66b"

    @property
    def efficiency(self) -> float:
        if self is LineEncoding.E8B10B:
            return 0.8
        return 64 / 66


class DigitalLinkSpec(NamedTuple):
    """A digital return link: line rate, encoding and framing overhead."""

    line_rate_bps: float
    encoding: LineEncoding = LineEncoding.E8B10B
    framing_overhead: float = 0.0


class AdcStreamSpec(NamedTuple):
    """The sample stream of one receiver channel's ADC."""

    sample_rate_sps: float
    bits_per_sample: int
    complex_iq: bool = False

    @property
    def bits_per_s(self) -> float:
        """Per-channel payload demand, bit/s; I+Q doubles it."""
        return (self.sample_rate_sps * self.bits_per_sample
                * (2.0 if self.complex_iq else 1.0))


def _check_link(link: DigitalLinkSpec) -> None:
    if link.line_rate_bps <= 0 or not math.isfinite(link.line_rate_bps):
        raise AnalysisError(f"line rate must be > 0 bit/s, got {link.line_rate_bps}")
    if not 0.0 <= link.framing_overhead < 1.0:
        raise AnalysisError(
            f"framing overhead must be in [0, 1), got {link.framing_overhead}")


def payload_throughput_bytes_per_s(link: DigitalLinkSpec) -> float:
    """Usable payload after encoding efficiency and framing overhead, byte/s."""
    _check_link(link)
    return (link.line_rate_bps * link.encoding.efficiency
            * (1.0 - link.framing_overhead) / 8.0)


def required_line_rate_bps(stream: AdcStreamSpec, channels: int,
                           link: DigitalLinkSpec) -> float:
    """Minimal line rate carrying `channels` ADC streams through the link's
    encoding and framing; never under-provisions."""
    if channels < 1:
        raise AnalysisError(f"channel count must be >= 1, got {channels}")
    if not 0.0 <= link.framing_overhead < 1.0:
        raise AnalysisError(
            f"framing overhead must be in [0, 1), got {link.framing_overhead}")
    demand_bps = channels * stream.bits_per_s
    demand_bytes = demand_bps / 8.0
    efficiency = link.encoding.efficiency
    occupancy = 1.0 - link.framing_overhead
    rate = demand_bps / (efficiency * occupancy)
    # Guard ulp-level cases where the provisioned payload rounds below the
    # demand; the expression mirrors payload_throughput term for term.
    while rate * efficiency * occupancy / 8.0 < demand_bytes:
        rate = math.nextafter(rate, math.inf)
    return rate


class GroupCapacity(NamedTuple):
    """Throughput check of one digitized return group against its bar."""

    group_id: str
    channel_count: int
    payload_bytes_per_s: float
    bar_bytes_per_s: float
    margin_bytes_per_s: float
    passed: bool
    adc_demand_bytes_per_s: float | None = None
    required_line_rate_bps: float | None = None


def check_group_capacity(
    topology: OpticalTopology,
    link: DigitalLinkSpec,
    stream: AdcStreamSpec | None = None,
    *,
    bar_bytes_per_8ch: float = DEFAULT_THROUGHPUT_BAR_BYTES_PER_S,
) -> tuple[GroupCapacity, ...]:
    """Per-group payload compliance against the scaled throughput bar.

    The bar scales with group size (boundary inclusive); the ADC demand and
    the line rate it would require are reported alongside when a stream spec
    is given. A group whose demand is above the payload fails, whatever the
    bar.
    """
    payload = payload_throughput_bytes_per_s(link)
    rows = []
    for group_id, channels in return_groups(topology):
        count = len(channels)
        bar = bar_bytes_per_8ch * count / BAR_CHANNEL_BASIS
        demand = None
        required = None
        if stream is not None:
            demand = count * stream.bits_per_s / 8.0
            required = required_line_rate_bps(stream, count, link)
        rows.append(GroupCapacity(
            group_id=group_id,
            channel_count=count,
            payload_bytes_per_s=payload,
            bar_bytes_per_s=bar,
            margin_bytes_per_s=payload - bar,
            passed=payload >= bar and (demand is None or demand <= payload),
            adc_demand_bytes_per_s=demand,
            required_line_rate_bps=required,
        ))
    return tuple(rows)
