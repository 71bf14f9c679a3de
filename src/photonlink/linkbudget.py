"""Analog link-metric engine: optical power ledger, RF gain, noise figure,
dynamic range, crosstalk, timing and phase-noise figures per signal path.

A path is analyzed from the path alone: its elements carry their specs, and
its crosstalk reads the channels that enter its demux with it, which the path
carries too. No operation reads the network graph. Every operation is a pure
function of immutable inputs; identical inputs give bit-identical outputs, so
paths may be analyzed concurrently.

``analyze_path`` walks a path's elements twice. The optical walk
(``_optical_budget``) takes each element's optical delta once, sets the
amplifiers' gains in that list when autogain is on, and walks the ledger
once over it; it reads no RF model, so it alone gives a path of either
direction its ledger and detector saturation margin. The second pass, beside
the ledger, finds what the RF metrics read of each element: the first
modulator, the last demux, each amplifier's input power, the smallest
electrical bandwidth, the fiber delay and the jitter sum of squares. Each
public function (``edfa_autogain``, ``optical_ledger``, ``rf_gain_db``,
``noise_figure_db``, ``effective_bandwidth_hz``, ``propagation_delay_s``,
``timing_jitter_s``, ``crosstalk_db``) still finds its figure from a path on
its own. Run on the autogained path (``autogained``), it does the same
operations in the same order, so it gives the float that ``analyze_path``
gives.
"""

from __future__ import annotations

import math
import sys
from operator import ne
from typing import Iterable, Mapping, Sequence

from .components import (
    EdfaSpec,
    FiberSpec,
    LaserSpec,
    Modulation,
    ModulatorSpec,
    MuxDemuxSpec,
    PhotodetectorSpec,
    SplitterSpec,
)
from .errors import AnalysisError
from .frozen import NamedTuple
from .scenario import AnalysisConfig
from .topology import ElementKind, PathElement, SignalPath
from .units import (
    BOLTZMANN_J_PER_K,
    ELEMENTARY_CHARGE_C,
    NOISE_REFERENCE_TEMPERATURE_K,
    PLANCK_J_S,
    SPEED_OF_LIGHT_M_S,
    THERMAL_FLOOR_DBM_PER_HZ,
    db_to_linear,
    dbm_to_watts,
    power_sum_db,
    sum_to_db,
    watts_to_dbm,
    wavelength_nm_to_hz,
)

# First-order 10-90% step-response model constant.
RISE_TIME_BANDWIDTH_PRODUCT = 0.35

# Output-referred thermal floor of a passively matched link, dB.
NOISE_FIGURE_FLOOR_DB = 10.0 * math.log10(2.0)

# Member lookups on an enum class are slow, so the kinds that the per-element
# code tests are looked up once, and each kind's token, the key of its jitter
# contribution, is read from a map.
_LASER, _MODULATOR, _EDFA, _DEMUX, _DETECTOR = (
    ElementKind.LASER, ElementKind.MODULATOR, ElementKind.EDFA,
    ElementKind.DEMUX, ElementKind.DETECTOR)
_TOKEN = {kind: kind.value for kind in ElementKind}


class LedgerEntry(NamedTuple):
    """One element's optical power change and the power after it."""

    element_id: str
    delta_db: float
    power_dbm: float
    note: str | None = None


class OpticalLedger(NamedTuple):
    """Ordered per-element optical power bookkeeping along one path, dBm."""

    entries: tuple[LedgerEntry, ...]
    flags: tuple[str, ...] = ()

    @property
    def start_dbm(self) -> float:
        return self.entries[0].power_dbm

    @property
    def end_dbm(self) -> float:
        return self.entries[-1].power_dbm


class NoiseBreakdown(NamedTuple):
    """Output-referred noise densities into the detector load, W/Hz."""

    thermal_w_hz: float
    shot_w_hz: float
    rin_w_hz: float
    ase_w_hz: float

    @property
    def total_w_hz(self) -> float:
        return self.thermal_w_hz + self.shot_w_hz + self.rin_w_hz + self.ase_w_hz


class AutogainResult(NamedTuple):
    """Amplifier gains set by autogain, and the loss they leave uncovered."""

    gains_db: Mapping[str, float]
    shortfall_db: float
    notes: tuple[str, ...] = ()


class _DataclassFields:
    """A ``NamedTuple``'s ``__dataclass_fields__``, for a reader that reads
    records with ``dataclasses.fields``, as ``perfbench/traced.py`` does to
    count distinct metric bundles. It is made on first read with the
    ``dataclasses`` module that reader has loaded; while none is loaded the
    class has no such attribute, so this package never loads it."""

    def __get__(self, instance, owner):
        dataclasses = sys.modules.get("dataclasses")
        if dataclasses is None:
            raise AttributeError("__dataclass_fields__")
        fields = dataclasses.make_dataclass(owner.__name__,
                                            owner._fields).__dataclass_fields__
        setattr(owner, "__dataclass_fields__", fields)
        return fields


class LinkMetrics(NamedTuple):
    """One path's link budget. A link's SNR degradation is its noise figure,
    and the first-order model's fall time is its rise time, so neither has a
    field of its own."""

    __dataclass_fields__ = _DataclassFields()

    rf_gain_db: float
    noise_figure_db: float
    sfdr_db: float
    effective_bandwidth_hz: float
    rise_time_s: float
    pulse_skew_s: float
    timing_jitter_rms_s: float
    detector_power_dbm: float
    detector_saturation_margin_db: float
    optical_ledger: OpticalLedger
    noise: NoiseBreakdown
    nf_degradation_db: float | None = None
    phase_noise_degradation_db: float | None = None
    crosstalk_db: float | None = None
    flags: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Scalar kernels


def noise_floor_dbm(noise_figure_db: float, bandwidth_hz: float) -> float:
    """Input-referred noise floor in a bandwidth: -174 + NF + 10log10(B)."""
    if bandwidth_hz <= 0:
        raise AnalysisError(f"bandwidth must be > 0 Hz, got {bandwidth_hz}")
    return THERMAL_FLOOR_DBM_PER_HZ + noise_figure_db + 10.0 * math.log10(bandwidth_hz)


def sfdr_db(iip3_dbm: float, noise_figure_db: float, bandwidth_hz: float) -> float:
    """Third-order spurious-free dynamic range in the given bandwidth, dB."""
    return (2.0 / 3.0) * (iip3_dbm - noise_floor_dbm(noise_figure_db, bandwidth_hz))


def cascade_noise_figure(stages: Sequence[tuple[float, float]]) -> float:
    """Combine (gain_db, noise_figure_db) stages in signal order, dB."""
    if not stages:
        raise AnalysisError("cascade needs at least one stage")
    total_factor = 0.0
    gain_acc = 1.0
    for index, (gain_db, nf_db) in enumerate(stages):
        factor = db_to_linear(nf_db)
        if index == 0:
            total_factor = factor
        else:
            total_factor += (factor - 1.0) / gain_acc
        gain_acc *= db_to_linear(gain_db)
    return 10.0 * math.log10(total_factor)


def rise_time_s(bandwidth_hz: float) -> float:
    if bandwidth_hz <= 0 or not math.isfinite(bandwidth_hz):
        raise AnalysisError(f"bandwidth must be finite and > 0 Hz, got {bandwidth_hz}")
    return RISE_TIME_BANDWIDTH_PRODUCT / bandwidth_hz


def rss_jitter_s(contributions: Iterable[float]) -> float:
    """Root-sum-square of per-element rms jitter contributions, added left
    to right like ``power_sum_db``."""
    total = 0.0
    for c in contributions:
        total += c * c
    return math.sqrt(total)


def added_phase_noise_dbc(input_dbc_hz: float, floor_dbc_hz: float) -> float:
    """Output phase-noise after power-summing a flat link floor, dBc/Hz."""
    return power_sum_db((input_dbc_hz, floor_dbc_hz))


# ---------------------------------------------------------------------------
# Path-level helpers


def _element_delta_db(element: PathElement) -> float:
    """Signed optical power change through one element, dB."""
    spec = element.spec
    if isinstance(spec, LaserSpec) or isinstance(spec, PhotodetectorSpec):
        return 0.0
    if isinstance(spec, ModulatorSpec):
        if spec.scheme is Modulation.DIRECT:
            return 0.0
        return -(spec.insertion_loss_db or 0.0)
    if isinstance(spec, MuxDemuxSpec):
        return -spec.insertion_loss_db
    if isinstance(spec, FiberSpec):
        return -spec.loss_db
    if isinstance(spec, SplitterSpec):
        return -spec.split_loss_db
    if isinstance(spec, EdfaSpec):
        return spec.gain_db
    raise AnalysisError(f"element {element.element_id} has no optical model")


def _laser_of(path: SignalPath) -> LaserSpec:
    first = path.elements[0]
    if first.kind is not _LASER or not isinstance(first.spec, LaserSpec):
        raise AnalysisError(f"path {path.path_id} does not start at a laser")
    return first.spec


def _detector_of(path: SignalPath) -> PhotodetectorSpec:
    last = path.elements[-1]
    if last.kind is not _DETECTOR or not isinstance(last.spec, PhotodetectorSpec):
        raise AnalysisError(f"path {path.path_id} does not end at a detector")
    return last.spec


def _modulator_of(path: SignalPath) -> PathElement | None:
    for element in path.elements:
        if element.kind is _MODULATOR:
            return element
    return None


def edfa_autogain(path: SignalPath) -> AutogainResult:
    """Set each amplifier to cover the passive loss it is responsible for.

    Each amplifier compensates the passive loss accumulated since the previous
    one; the last amplifier additionally covers everything downstream of it,
    so an unclamped chain lands the detector exactly at the laser power. Gains
    clamp at max_gain and any remainder is reported as a shortfall.
    """
    return _autogain(path.elements, [_element_delta_db(e) for e in path.elements])


def _autogain(elements: tuple[PathElement, ...],
              deltas: list[float]) -> AutogainResult:
    """``edfa_autogain`` of the path of ``elements``, read from each
    element's optical delta in ``deltas``. Each amplifier's delta is then
    set to its gain, as ``apply_edfa_gains`` sets its spec's."""
    edfas = [index for index, e in enumerate(elements) if e.kind is _EDFA]
    gains: dict[str, float] = {}
    notes: list[str] = []
    if not edfas:
        return AutogainResult(gains, 0.0)

    last_edfa_id = elements[edfas[-1]].element_id
    pending_loss = 0.0
    downstream = 0.0
    past_last = False
    for element, delta in zip(elements[1:], deltas[1:]):
        if element.kind is _EDFA:
            gains[element.element_id] = pending_loss
            pending_loss = 0.0
            past_last = element.element_id == last_edfa_id
        else:
            loss = -delta
            if past_last:
                downstream += loss
            else:
                pending_loss += loss
    gains[last_edfa_id] += downstream

    shortfall = 0.0
    for index in edfas:
        element = elements[index]
        spec = element.spec
        want = gains[element.element_id]
        got = min(want, spec.max_gain_db)
        if got < want:
            missing = want - got
            shortfall += missing
            notes.append(
                f"{element.element_id}: under-compensated by {missing:.2f} dB "
                f"(gain clamped at max {spec.max_gain_db:.2f} dB)")
        gains[element.element_id] = got
    for index in edfas:
        deltas[index] = gains[elements[index].element_id]
    return AutogainResult(gains, shortfall, tuple(notes))


def apply_edfa_gains(path: SignalPath, gains_db: Mapping[str, float]) -> SignalPath:
    """New path whose amplifier specs carry the given gain settings."""
    elements = []
    for element in path.elements:
        if element.kind is _EDFA and element.element_id in gains_db:
            spec = element.spec
            element = PathElement(
                element.element_id, element.kind, element.component,
                EdfaSpec(gains_db[element.element_id], spec.max_gain_db,
                         spec.noise_figure_db, spec.saturation_output_power_dbm),
                element.node)
        elements.append(element)
    return SignalPath(path.channel, path.direction, path.destination,
                      path.wavelength_nm, tuple(elements), path.co_propagating)


def autogained(path: SignalPath) -> SignalPath:
    return apply_edfa_gains(path, edfa_autogain(path).gains_db)


def optical_ledger(path: SignalPath,
                   deltas: Sequence[float] | None = None) -> OpticalLedger:
    """Walk the path applying per-element dB deltas; flags saturation and
    sensitivity breaches instead of raising. ``deltas`` holds each
    element's delta, an amplifier's being its gain (as ``_autogain`` sets
    it); by default each is the element's ``_element_delta_db``."""
    laser = _laser_of(path)
    elements = path.elements
    if deltas is None:
        deltas = [_element_delta_db(e) for e in elements]
    power = watts_to_dbm(laser.output_power_w)
    entries = [LedgerEntry(elements[0].element_id, 0.0, power, "source")]
    flags: list[str] = []
    for element, delta in zip(elements[1:], deltas[1:]):
        power += delta
        note = None
        spec = element.spec
        # Only an amplifier or a detector can breach (_flag_breaches).
        if isinstance(spec, EdfaSpec):
            if delta >= spec.max_gain_db:
                note = "gain clamped at max"
            _flag_breaches(element, power, flags)
        elif isinstance(spec, PhotodetectorSpec):
            _flag_breaches(element, power, flags)
        entries.append(LedgerEntry(element.element_id, delta, power, note))
    return OpticalLedger(tuple(entries), tuple(flags))


def _optical_budget(path: SignalPath,
                    autogain: bool) -> tuple[OpticalLedger, float]:
    """The optical part of a path's budget, which reads no RF model: its
    ledger, with the amplifiers' gains set by autogain when ``autogain``
    holds, and its detector's saturation margin, dB. Each element's delta
    is taken once, and the ledger is walked once."""
    deltas = [_element_delta_db(e) for e in path.elements]
    if autogain:
        _autogain(path.elements, deltas)
    ledger = optical_ledger(path, deltas)
    return ledger, _detector_of(path).saturation_power_dbm - ledger.end_dbm


def _flag_breaches(element: PathElement, power_dbm: float, flags: list[str]) -> None:
    """Append the saturation and sensitivity breaches at one element, whose
    output (amplifier) or input (detector) sits at ``power_dbm``."""
    spec = element.spec
    if isinstance(spec, EdfaSpec):
        if power_dbm > spec.saturation_output_power_dbm:
            flags.append(
                f"{element.element_id}: output {power_dbm:.2f} dBm above "
                f"saturation {spec.saturation_output_power_dbm:.2f} dBm")
    elif isinstance(spec, PhotodetectorSpec):
        if power_dbm > spec.saturation_power_dbm:
            flags.append(
                f"{element.element_id}: input {power_dbm:.2f} dBm above "
                f"saturation {spec.saturation_power_dbm:.2f} dBm")
        if spec.sensitivity_dbm is not None and power_dbm < spec.sensitivity_dbm:
            flags.append(
                f"{element.element_id}: input {power_dbm:.2f} dBm below "
                f"sensitivity {spec.sensitivity_dbm:.2f} dBm")


def rf_gain_db(path: SignalPath, modulation: Modulation,
               config: AnalysisConfig) -> float:
    """End-to-end RF power gain of the photonic link, dB.

    Both modulation flavors share the form 20log10(slope * t_opt * r_pd) where
    t_opt is the linear end-to-end optical transmission (amplifiers included).
    Direct modulation uses the laser slope efficiency; external modulation the
    quadrature-biased interferometric small-signal slope pi*P*R/(2*Vpi), whose
    feed-forward loss is already inside t_opt.
    """
    return _rf_gain_db(path, optical_ledger(path), _modulator_of(path),
                       modulation, config)


def noise_figure_db(path: SignalPath, modulation: Modulation,
                    config: AnalysisConfig) -> tuple[float, NoiseBreakdown]:
    """Link noise figure from total output-referred noise into the load.

    Shot, laser intensity noise and amplifier spontaneous emission (folded in
    as equivalent intensity noise 2*h*nu*F/P_in) land on the detector load;
    the result is floored at the 3 dB passive matched-load limit.
    """
    ledger = optical_ledger(path)
    gain_db = _rf_gain_db(path, ledger, _modulator_of(path), modulation, config)
    return _noise_figure_db(path, ledger, _amplifier_inputs(path, ledger),
                            gain_db, config)


def _rf_gain_db(path: SignalPath, ledger: OpticalLedger,
                modulator: PathElement | None, modulation: Modulation,
                config: AnalysisConfig) -> float:
    """``rf_gain_db`` of ``path``, given its ledger and its first modulator."""
    if modulator is None:
        raise AnalysisError(f"path {path.path_id} has no modulator")
    spec = modulator.spec
    if not isinstance(spec, ModulatorSpec) or spec.scheme is not modulation:
        raise AnalysisError(
            f"path {path.path_id} carries a {getattr(spec, 'scheme', None)} modulator "
            f"but the {modulation.value} model was requested")
    transmission = db_to_linear(ledger.end_dbm - ledger.start_dbm)
    detector = _detector_of(path)
    if modulation is Modulation.DIRECT:
        slope = _laser_of(path).slope_efficiency_w_per_a
    else:
        if spec.v_pi_v is None or spec.v_pi_v <= 0:
            raise AnalysisError(
                f"external modulation requires v_pi > 0 on {modulator.element_id}")
        slope = (math.pi * _laser_of(path).output_power_w
                 * config.load_resistance_ohm / (2.0 * spec.v_pi_v))
    chain = slope * transmission * detector.responsivity_a_per_w
    if chain <= 0:
        raise AnalysisError(f"degenerate transfer slope on path {path.path_id}")
    return 20.0 * math.log10(chain)


def _amplifier_inputs(path: SignalPath,
                      ledger: OpticalLedger) -> list[tuple[float, float]]:
    """(input power, dBm; noise figure, dB) of each amplifier after the
    laser. An amplifier's input power is the ledger entry just before it."""
    return [(upstream.power_dbm, element.spec.noise_figure_db)
            for element, upstream in zip(path.elements[1:], ledger.entries)
            if element.kind is _EDFA and isinstance(element.spec, EdfaSpec)]


def _noise_figure_db(path: SignalPath, ledger: OpticalLedger,
                     amplifiers: Sequence[tuple[float, float]], gain_db: float,
                     config: AnalysisConfig) -> tuple[float, NoiseBreakdown]:
    """``noise_figure_db`` of ``path``, given its ledger, its amplifiers'
    inputs (``_amplifier_inputs``) and its RF gain."""
    gain_lin = db_to_linear(gain_db)
    detector = _detector_of(path)
    laser = _laser_of(path)
    load = config.load_resistance_ohm
    # The noise figure is referred to a source at T0; the load's own
    # thermal noise is at the analysis temperature.
    kt0 = BOLTZMANN_J_PER_K * NOISE_REFERENCE_TEMPERATURE_K
    thermal = kt0 * (gain_lin + config.temperature_k / NOISE_REFERENCE_TEMPERATURE_K)

    detector_power_w = dbm_to_watts(ledger.end_dbm)
    photocurrent = detector.responsivity_a_per_w * detector_power_w
    if photocurrent <= 0:
        return math.inf, NoiseBreakdown(thermal, 0.0, 0.0, 0.0)
    dc_current = photocurrent + detector.dark_current_a

    shot = 2.0 * ELEMENTARY_CHARGE_C * dc_current * load
    rin = db_to_linear(laser.rin_db_hz) * photocurrent ** 2 * load

    ase_rin = 0.0
    carrier_hz = wavelength_nm_to_hz(path.wavelength_nm)
    for input_dbm, amplifier_nf_db in amplifiers:
        input_w = dbm_to_watts(input_dbm)
        ase_rin += (2.0 * PLANCK_J_S * carrier_hz
                    * db_to_linear(amplifier_nf_db) / input_w)
    ase = ase_rin * photocurrent ** 2 * load

    breakdown = NoiseBreakdown(thermal, shot, rin, ase)
    raw = 10.0 * math.log10(breakdown.total_w_hz / (gain_lin * kt0))
    return max(raw, NOISE_FIGURE_FLOOR_DB), breakdown


def effective_bandwidth_hz(path: SignalPath, config: AnalysisConfig) -> float:
    """Smallest electrical bandwidth along the path (modulator, detector)."""
    widths = [e.spec.bandwidth_hz for e in path.elements
              if isinstance(e.spec, (ModulatorSpec, PhotodetectorSpec))]
    if not widths:
        return config.bandwidth_hz
    return min(widths)


def propagation_delay_s(path: SignalPath) -> float:
    delay = 0.0
    for element in path.elements:
        if isinstance(element.spec, FiberSpec):
            delay += element.spec.group_index * element.spec.length_m / SPEED_OF_LIGHT_M_S
    return delay


def timing_jitter_s(path: SignalPath, config: AnalysisConfig) -> float:
    contributions = [config.jitter_rms_s.get(e.kind.value, 0.0)
                     for e in path.elements]
    return rss_jitter_s(contributions)


def crosstalk_db(path: SignalPath) -> float | None:
    """Aggregate leakage-to-signal ratio at the path's demux, dB.

    The path's co-propagating channels leak through its demux: spectrally
    adjacent ones at the demux adjacent isolation, the rest at the
    nonadjacent isolation; equal per-channel powers are assumed. Returns
    None when the channel rides its fiber alone.

    Each isolation is made a linear leakage once per call, and the
    neighbours' leakages are added left to right in name order: the terms,
    in their order, of ``power_sum_db`` of the negated per-neighbour
    isolations, so the result is the same float.
    """
    demux = None
    for element in path.elements:
        if element.kind is _DEMUX and isinstance(element.spec, MuxDemuxSpec):
            demux = element
    return _crosstalk_db(path, demux)


def _crosstalk_db(path: SignalPath, demux: PathElement | None) -> float | None:
    """``crosstalk_db`` of ``path``, given its last demux."""
    # Both hold the path's own channel.
    by_name, ordered = path.co_propagating
    if len(by_name) == 1:
        return None
    if demux is None:
        raise AnalysisError(f"path {path.path_id} has no demux")
    channel = path.channel
    index = ordered.index(channel)
    adjacent = {ordered[i] for i in (index - 1, index + 1) if 0 <= i < len(ordered)}
    spec = demux.spec
    near = db_to_linear(-spec.adjacent_isolation_db)
    far = db_to_linear(-spec.nonadjacent_isolation_db)
    total = 0.0
    for ch in by_name:
        if ch != channel:
            total += near if ch in adjacent else far
    return sum_to_db(total)


def phase_noise_degradation_db(
    profile: Sequence[tuple[float, float]],
    path: SignalPath,
    modulation: Modulation,
    config: AnalysisConfig,
) -> tuple[tuple[float, float], ...]:
    """Per-offset phase-noise degradation from the link's flat additive floor.

    The floor sits at the input-referred noise density minus the carrier
    power; small-signal operation is the only regime modeled.
    """
    if config.carrier_power_dbm is None:
        raise AnalysisError("phase-noise degradation needs carrier_power_dbm")
    nf, _ = noise_figure_db(path, modulation, config)
    return _phase_noise_degradation_db(profile, nf, config.carrier_power_dbm)


def _phase_noise_degradation_db(profile: Sequence[tuple[float, float]], nf_db: float,
                                carrier_power_dbm: float) -> tuple[tuple[float, float], ...]:
    floor_dbc = (THERMAL_FLOOR_DBM_PER_HZ + nf_db) - carrier_power_dbm
    return tuple((offset_hz, added_phase_noise_dbc(level_dbc, floor_dbc) - level_dbc)
                 for offset_hz, level_dbc in profile)


def nf_degradation_db(link_gain_db: float, link_nf_db: float,
                      config: AnalysisConfig) -> float | None:
    """Receiver noise-figure increase caused by appending the link behind the
    configured receive front end; None when no front end is configured."""
    if config.front_end_gain_db is None or config.front_end_noise_figure_db is None:
        return None
    total = cascade_noise_figure([
        (config.front_end_gain_db, config.front_end_noise_figure_db),
        (link_gain_db, link_nf_db),
    ])
    return total - config.front_end_noise_figure_db


def analyze_path(
    path: SignalPath,
    modulation: Modulation,
    config: AnalysisConfig,
    *,
    reference_delay_s: float | None = None,
) -> LinkMetrics:
    """Full metric bundle for one path; internally consistent by construction
    (ledger conservation; the SFDR, NF degradation and phase-noise figures
    all use the one noise figure).

    Inputs that take the arithmetic out of floating-point range (an overflow,
    a vanishing gain, a NaN) raise AnalysisError naming the path's parts."""
    try:
        metrics = _analyze_path(path, modulation, config, reference_delay_s)
        values = [*metrics, *metrics.noise,
                  *(e.power_dbm for e in metrics.optical_ledger.entries)]
    except (OverflowError, ZeroDivisionError):
        values = [math.nan]
    # Only a NaN is unequal to itself: the other values are None or tuples,
    # whose items compare by identity first.
    if any(map(ne, values, values)):
        parts = ", ".join(dict.fromkeys(e.component for e in path.elements))
        raise AnalysisError(
            f"path {path.path_id}: metrics out of floating-point range; check "
            f"the values of its components ({parts}) and of the analysis section")
    return metrics


def _analyze_path(path: SignalPath, modulation: Modulation, config: AnalysisConfig,
                  reference_delay_s: float | None) -> LinkMetrics:
    """Two walks over the path's elements: the ledger's, in
    ``_optical_budget``, then one pass beside the ledger that finds what the
    RF metrics read of each element. The pass does each public function's
    arithmetic in its order (``_modulator_of``, ``crosstalk_db``'s demux,
    ``_amplifier_inputs``, ``effective_bandwidth_hz``,
    ``propagation_delay_s``, ``timing_jitter_s``), so each metric is the
    same float."""
    ledger, saturation_margin = _optical_budget(path, config.edfa_autogain)
    jitter_of = config.jitter_rms_s
    modulator = demux = bandwidth = upstream = None
    amplifiers: list[tuple[float, float]] = []
    delay = squares = 0.0
    for element, entry in zip(path.elements, ledger.entries):
        kind, spec = element.kind, element.spec
        contribution = jitter_of.get(_TOKEN[kind], 0.0)
        squares += contribution * contribution
        if kind is _MODULATOR:
            if modulator is None:
                modulator = element
        elif kind is _DEMUX:
            if isinstance(spec, MuxDemuxSpec):
                demux = element
        elif kind is _EDFA:
            if upstream is not None and isinstance(spec, EdfaSpec):
                amplifiers.append((upstream, spec.noise_figure_db))
        if isinstance(spec, FiberSpec):
            delay += spec.group_index * spec.length_m / SPEED_OF_LIGHT_M_S
        elif isinstance(spec, (ModulatorSpec, PhotodetectorSpec)):
            # min() keeps the first of equal widths.
            if bandwidth is None or spec.bandwidth_hz < bandwidth:
                bandwidth = spec.bandwidth_hz
        upstream = entry.power_dbm

    gain = _rf_gain_db(path, ledger, modulator, modulation, config)
    nf, breakdown = _noise_figure_db(path, ledger, amplifiers, gain, config)
    iip3 = config.iip3_for(modulation)
    if iip3 is None:
        raise AnalysisError("analysis needs iip3_dbm in the configuration")
    dynamic_range = sfdr_db(iip3, nf, config.bandwidth_hz)
    if bandwidth is None:
        bandwidth = config.bandwidth_hz
    t_rise = rise_time_s(bandwidth)
    skew = 0.0 if reference_delay_s is None else delay - reference_delay_s
    jitter = math.sqrt(squares)
    leakage = _crosstalk_db(path, demux)
    degradation = nf_degradation_db(gain, nf, config)
    phase_deg: float | None = None
    if config.phase_noise_profile and config.carrier_power_dbm is not None:
        per_offset = _phase_noise_degradation_db(
            config.phase_noise_profile, nf, config.carrier_power_dbm)
        phase_deg = max(d for _, d in per_offset)
    return LinkMetrics(
        rf_gain_db=gain,
        noise_figure_db=nf,
        sfdr_db=dynamic_range,
        effective_bandwidth_hz=bandwidth,
        rise_time_s=t_rise,
        pulse_skew_s=skew,
        timing_jitter_rms_s=jitter,
        detector_power_dbm=ledger.end_dbm,
        detector_saturation_margin_db=saturation_margin,
        optical_ledger=ledger,
        noise=breakdown,
        nf_degradation_db=degradation,
        phase_noise_degradation_db=phase_deg,
        crosstalk_db=leakage,
        flags=ledger.flags,
    )


def own_flags(metrics: LinkMetrics, path: SignalPath, start: int = 1,
              stop: int | None = None) -> tuple[str, ...]:
    """The ledger flags of ``path``'s elements ``start`` to ``stop`` (after
    the laser to the end by default), where ``path`` is a member of the
    analysis class that ``metrics`` was computed for: ``_flag_breaches`` on
    ``path``'s own elements at the class ledger's powers. A breach depends
    only on the spec and the power, both equal across the class, so a class
    without flags has none on any member."""
    flags: list[str] = []
    if metrics.flags:
        entries = metrics.optical_ledger.entries
        for index in range(start, len(path.elements) if stop is None else stop):
            _flag_breaches(path.elements[index], entries[index].power_dbm, flags)
    return tuple(flags)


def relabeled(metrics: LinkMetrics, path: SignalPath) -> LinkMetrics:
    """``metrics`` of one path, restated for ``path`` of the same analysis
    class: the ledger entries and flags name ``path``'s own elements."""
    entries = tuple(
        e if e.element_id == element.element_id
        else LedgerEntry(element.element_id, e.delta_db, e.power_dbm, e.note)
        for element, e in zip(path.elements, metrics.optical_ledger.entries))
    ledger = OpticalLedger(entries, own_flags(metrics, path))
    return metrics._replace(optical_ledger=ledger, flags=ledger.flags)


def worst_case(metrics: Sequence[LinkMetrics]) -> LinkMetrics:
    """Pessimistic aggregate across paths for compliance checking.

    Takes the worst value of each comparable field; ledger and noise breakdown
    come from the worst-noise-figure path, flags are the union.
    """
    if not metrics:
        raise AnalysisError("worst_case needs at least one metric bundle")
    anchor = max(metrics, key=lambda m: m.noise_figure_db)

    def _max_opt(values: Iterable[float | None]) -> float | None:
        present = [v for v in values if v is not None]
        return max(present) if present else None

    # Union in order of first appearance.
    flags = tuple(dict.fromkeys(f for m in metrics for f in m.flags))
    return LinkMetrics(
        rf_gain_db=min(m.rf_gain_db for m in metrics),
        noise_figure_db=anchor.noise_figure_db,
        sfdr_db=min(m.sfdr_db for m in metrics),
        effective_bandwidth_hz=min(m.effective_bandwidth_hz for m in metrics),
        rise_time_s=max(m.rise_time_s for m in metrics),
        pulse_skew_s=max(m.pulse_skew_s for m in metrics),
        timing_jitter_rms_s=max(m.timing_jitter_rms_s for m in metrics),
        detector_power_dbm=max(m.detector_power_dbm for m in metrics),
        detector_saturation_margin_db=min(m.detector_saturation_margin_db
                                          for m in metrics),
        optical_ledger=anchor.optical_ledger,
        noise=anchor.noise,
        nf_degradation_db=_max_opt(m.nf_degradation_db for m in metrics),
        phase_noise_degradation_db=_max_opt(m.phase_noise_degradation_db
                                            for m in metrics),
        crosstalk_db=_max_opt(m.crosstalk_db for m in metrics),
        flags=flags,
    )
