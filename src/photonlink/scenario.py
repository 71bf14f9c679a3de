"""Scenario ingestion: one JSON file describing the component library, the
network shape, per-variant component bindings, analysis knobs, digital link
parameters and requirement overrides.

Parsing is strict and aggregates every problem it finds instead of stopping at
the first; a parsed Scenario is fully validated and carries a content
fingerprint so reports are traceable to their exact inputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .components import (
    ComponentSpec,
    DetectorKind,
    GratingTech,
    Modulation,
    is_finite_number,
    loads_unique_keys,
    parse_component_library,
)
from .digitalpath import AdcStreamSpec, DigitalLinkSpec, LineEncoding
from .errors import ScenarioError
from .linkbudget import AnalysisConfig
from .topology import (
    CHANNELS_PER_RETURN_GROUP,
    ChannelPlan,
    DEFAULT_CHANNEL_SPACING_NM,
    ElementKind,
    FORWARD_ROLES,
    ForwardBindings,
    LASER,
    RETURN_ROLES,
    ReturnBindings,
    Role,
    unfit_part,
)
from .tradeoff import ALL_VARIANTS, DesignVariant, RequirementSet, is_feasible

SCHEMA_VERSION = 1
# Largest module count a scenario may ask for; it bounds the networks the
# CLI builds, so an oversized count is an input error, not a hang.
MAX_N_DTRM = 4096

# The forward roles bound once per modulation or grating token, keyed by
# token; each modulator must also be of its token's scheme.
_TOKEN_ROLES: dict[str, dict[str, Role]] = {
    "modulator": {m.token: FORWARD_ROLES["modulator"]._replace(
        attribute="scheme", value=m) for m in Modulation},
    "mux": dict.fromkeys((g.value for g in GratingTech), FORWARD_ROLES["mux"]),
    "demux": dict.fromkeys((g.value for g in GratingTech), FORWARD_ROLES["demux"]),
}


class Scenario(NamedTuple):
    """A parsed, validated scenario file: parts, network, analysis and requirements."""

    name: str
    fingerprint: str
    library: Mapping[str, ComponentSpec]
    n_dtrm: int
    channels: tuple[ChannelPlan, ...]
    shared_fiber: bool
    min_channel_spacing_nm: float
    # The forward bindings of each (modulation token, grating) pair, such
    # as ("dm", "vbg"), in ``ALL_VARIANTS`` order.
    forward: Mapping[tuple[str, str], ForwardBindings]
    # None when the scenario has no return chain or disables it.
    return_bindings: ReturnBindings | None
    analysis: AnalysisConfig
    digital_link: DigitalLinkSpec | None
    adc_stream: AdcStreamSpec | None
    requirements: RequirementSet
    # The variants that ``analyze`` reports, in ``ALL_VARIANTS`` order: the
    # six feasible ones for "all", else the one the scenario names.
    variants: tuple[DesignVariant, ...]

    def forward_bindings(self, variant: DesignVariant) -> ForwardBindings:
        return self.forward[variant.modulation.token, variant.grating.value]


def scenario_fingerprint(raw: Mapping[str, Any]) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Problems:
    def __init__(self) -> None:
        self.items: list[str] = []
        # Library entries that are present but invalid; their own problems
        # are listed, so a reference to one is not listed again.
        self.invalid_parts: set[str] = set()
        # False when the library is not an object: that one problem stands
        # for every reference.
        self.library_read = True

    def add(self, message: str) -> None:
        self.items.append(message)

    def number(self, payload: Mapping, key: str, where: str, *, default=None,
               required=False, minimum=None, allow_none=False):
        if key not in payload:
            if required:
                self.add(f"{where}.{key}: required")
            return default
        value = payload[key]
        if value is None and allow_none:
            return None
        if not is_finite_number(value):
            self.add(f"{where}.{key}: must be a finite number, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.add(f"{where}.{key}: must be >= {minimum}, got {value}")
            return default
        return float(value)

    def string(self, payload: Mapping, key: str, where: str, *, default=None,
               required=False, allow_none=False):
        if key not in payload:
            if required:
                self.add(f"{where}.{key}: required")
            return default
        value = payload[key]
        if value is None and allow_none:
            return None
        if not isinstance(value, str) or not value:
            self.add(f"{where}.{key}: must be a non-empty string, got {value!r}")
            return default
        return value

    def part(self, payload: Mapping, key: str, where: str,
             library: Mapping[str, ComponentSpec], role: Role, *,
             optional=False) -> str | None:
        """``payload[key]`` when it is a non-empty string naming a part of
        ``library`` that can fill ``role``, else None with the problem listed.
        An ``optional`` role may be absent or null."""
        name = self.string(payload, key, where, required=not optional,
                           allow_none=optional)
        if not self.library_read or name in self.invalid_parts:
            return None
        problem = name and unfit_part(library, name, role)
        if problem:
            self.add(f"{where}.{key}: {problem}")
            return None
        return name

    def boolean(self, payload: Mapping, key: str, where: str, *, default=False):
        value = payload.get(key, default)
        if not isinstance(value, bool):
            self.add(f"{where}.{key}: must be true or false, got {value!r}")
            return default
        return value

    def unknown_keys(self, payload: Mapping, allowed: set[str], where: str) -> None:
        for key in sorted(set(payload) - allowed):
            self.add(f"{where}: unknown key {key!r}")


def _parse_analysis(payload: Mapping, problems: _Problems) -> AnalysisConfig:
    where = "analysis"
    allowed = {"bandwidth_hz", "temperature_k", "load_resistance_ohm", "iip3_dbm",
               "carrier_power_dbm", "phase_noise_profile", "front_end_gain_db",
               "front_end_noise_figure_db", "jitter_rms_s", "edfa_autogain"}
    problems.unknown_keys(payload, allowed, where)
    defaults = AnalysisConfig()
    bandwidth = problems.number(payload, "bandwidth_hz", where,
                                default=defaults.bandwidth_hz, minimum=1e-12)
    temperature = problems.number(payload, "temperature_k", where,
                                  default=defaults.temperature_k, minimum=1e-12)
    load = problems.number(payload, "load_resistance_ohm", where,
                           default=defaults.load_resistance_ohm, minimum=1e-12)

    iip3: float | dict | None = None
    if "iip3_dbm" in payload:
        raw_iip3 = payload["iip3_dbm"]
        if is_finite_number(raw_iip3):
            iip3 = float(raw_iip3)
        elif isinstance(raw_iip3, dict):
            iip3 = {}
            for token, value in raw_iip3.items():
                if token not in ("dm", "em"):
                    problems.add(f"{where}.iip3_dbm: keys must be dm/em, got {token!r}")
                elif not is_finite_number(value):
                    problems.add(f"{where}.iip3_dbm.{token}: must be a finite number")
                else:
                    iip3[token] = float(value)
        else:
            problems.add(f"{where}.iip3_dbm: must be a finite number or a dm/em map")

    carrier = problems.number(payload, "carrier_power_dbm", where, allow_none=True)

    profile = None
    if "phase_noise_profile" in payload:
        raw_profile = payload["phase_noise_profile"]
        if not isinstance(raw_profile, list) or not raw_profile:
            problems.add(f"{where}.phase_noise_profile: must be a non-empty list "
                         "of [offset_hz, dbc_per_hz] pairs")
        else:
            rows = []
            for i, pair in enumerate(raw_profile):
                if (not isinstance(pair, list) or len(pair) != 2
                        or not all(is_finite_number(x) for x in pair)):
                    problems.add(f"{where}.phase_noise_profile[{i}]: must be "
                                 "[offset_hz, dbc_per_hz]")
                    continue
                if pair[0] <= 0 or pair[1] >= 0:
                    problems.add(f"{where}.phase_noise_profile[{i}]: offset must "
                                 "be > 0 Hz and level < 0 dBc/Hz")
                    continue
                rows.append((float(pair[0]), float(pair[1])))
            profile = tuple(rows) if rows else None

    front_gain = problems.number(payload, "front_end_gain_db", where, allow_none=True)
    front_nf = problems.number(payload, "front_end_noise_figure_db", where,
                               allow_none=True)

    jitter: dict[str, float] = {}
    raw_jitter = payload.get("jitter_rms_s", {})
    if not isinstance(raw_jitter, dict):
        problems.add(f"{where}.jitter_rms_s: must map element kinds to seconds")
    else:
        kinds = {k.value for k in ElementKind}
        for kind, value in raw_jitter.items():
            if kind not in kinds:
                problems.add(f"{where}.jitter_rms_s: unknown element kind {kind!r}")
            elif not is_finite_number(value) or value < 0:
                problems.add(f"{where}.jitter_rms_s.{kind}: must be >= 0 seconds")
            else:
                jitter[kind] = float(value)

    return AnalysisConfig(
        bandwidth_hz=bandwidth,
        temperature_k=temperature,
        load_resistance_ohm=load,
        iip3_dbm=iip3,
        carrier_power_dbm=carrier,
        phase_noise_profile=profile,
        front_end_gain_db=front_gain,
        front_end_noise_figure_db=front_nf,
        jitter_rms_s=jitter,
        edfa_autogain=problems.boolean(payload, "edfa_autogain", where, default=True),
    )


def _parse_digital(payload: Mapping, problems: _Problems
                   ) -> tuple[DigitalLinkSpec | None, AdcStreamSpec | None]:
    where = "digital"
    problems.unknown_keys(payload, {"link", "adc"}, where)
    link = None
    stream = None
    raw_link = payload.get("link")
    if raw_link is not None:
        if not isinstance(raw_link, dict):
            problems.add(f"{where}.link: must be an object")
        else:
            problems.unknown_keys(
                raw_link, {"line_rate_bps", "encoding", "framing_overhead"},
                f"{where}.link")
            rate = problems.number(raw_link, "line_rate_bps", f"{where}.link",
                                   required=True, minimum=1e-12)
            token = problems.string(raw_link, "encoding", f"{where}.link",
                                    default="8b10b")
            framing = problems.number(raw_link, "framing_overhead", f"{where}.link",
                                      default=0.0, minimum=0.0)
            encoding = LineEncoding.E8B10B
            try:
                encoding = LineEncoding(token)
            except ValueError:
                problems.add(f"{where}.link.encoding: unknown encoding {token!r}")
            if framing is not None and framing >= 1.0:
                problems.add(f"{where}.link.framing_overhead: must be < 1")
            if rate is not None and framing is not None and framing < 1.0:
                link = DigitalLinkSpec(rate, encoding, framing)
    raw_adc = payload.get("adc")
    if raw_adc is not None:
        if not isinstance(raw_adc, dict):
            problems.add(f"{where}.adc: must be an object")
        else:
            problems.unknown_keys(
                raw_adc, {"sample_rate_sps", "bits_per_sample", "complex"},
                f"{where}.adc")
            sample = problems.number(raw_adc, "sample_rate_sps", f"{where}.adc",
                                     required=True, minimum=1e-12)
            bits = raw_adc.get("bits_per_sample")
            if not isinstance(bits, int) or not is_finite_number(bits) or bits < 1:
                problems.add(f"{where}.adc.bits_per_sample: must be an integer >= 1")
                bits = None
            complex_iq = problems.boolean(raw_adc, "complex", f"{where}.adc")
            if sample is not None and bits is not None:
                stream = AdcStreamSpec(sample, bits, complex_iq)
    return link, stream


def _parse_requirements(payload: Mapping, problems: _Problems) -> RequirementSet:
    problems.unknown_keys(payload, set(RequirementSet._fields), "requirements")
    overrides = {}
    for key in RequirementSet._fields:
        if key in payload:
            value = problems.number(payload, key, "requirements")
            if value is not None:
                overrides[key] = value
    requirements = RequirementSet(**overrides)
    for issue in requirements.problems():
        problems.add(issue)
    return requirements


def load_scenario_document(path: str | Path) -> dict[str, Any]:
    """Read a scenario file into its raw JSON object, unvalidated.

    Duplicate keys at any depth are rejected, and so is any top-level value
    other than an object; raises ScenarioError.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError([f"cannot read {path}: {exc}"]) from exc
    try:
        raw = loads_unique_keys(text)
    except ValueError as exc:
        raise ScenarioError([f"{path}: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ScenarioError(["scenario must be a JSON object"])
    return raw


def parse_scenario(source: str | Path | Mapping[str, Any]) -> Scenario:
    """Load and fully validate a scenario from a file path or a raw mapping.

    Raises ScenarioError listing every problem found.
    """
    problems = _Problems()
    if isinstance(source, Mapping):
        raw = dict(source)
    else:
        raw = load_scenario_document(source)

    allowed_top = {"schema_version", "name", "components", "topology", "analysis",
                   "digital", "requirements", "variant"}
    problems.unknown_keys(raw, allowed_top, "scenario")

    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        problems.add(f"scenario.schema_version: expected {SCHEMA_VERSION}, "
                     f"got {version!r}")
    name = problems.string(raw, "name", "scenario", default="scenario")

    components = raw.get("components", {})
    library, library_problems = parse_component_library(components,
                                                        where="components")
    problems.items += library_problems
    if isinstance(components, dict):
        problems.invalid_parts = set(components) - set(library)
    else:
        problems.library_read = False

    topo = raw.get("topology")
    if not isinstance(topo, dict):
        problems.add("scenario.topology: required object")
        topo = {}
    allowed_topo = {"n_dtrm", "channels", "shared_fiber", "min_channel_spacing_nm",
                    "bindings", "return"}
    problems.unknown_keys(topo, allowed_topo, "topology")

    n_dtrm_raw = topo.get("n_dtrm")
    if not isinstance(n_dtrm_raw, int) or isinstance(n_dtrm_raw, bool) \
            or n_dtrm_raw < 1:
        problems.add("topology.n_dtrm: must be an integer >= 1")
        n_dtrm = 1
    else:
        n_dtrm = n_dtrm_raw
        if n_dtrm > MAX_N_DTRM:
            problems.add(f"topology.n_dtrm: must be <= {MAX_N_DTRM}")

    channels: list[ChannelPlan] = []
    raw_channels = topo.get("channels", [])
    if not isinstance(raw_channels, list) or not raw_channels:
        problems.add("topology.channels: must be a non-empty list")
    else:
        seen = set()
        for i, entry in enumerate(raw_channels):
            where = f"topology.channels[{i}]"
            if not isinstance(entry, dict):
                problems.add(f"{where}: must be an object")
                continue
            problems.unknown_keys(entry, {"id", "laser", "kind"}, where)
            ch_id = problems.string(entry, "id", where, required=True)
            laser = problems.part(entry, "laser", where, library, LASER)
            kind_token = problems.string(entry, "kind", where, default="analog")
            kind = DetectorKind.ANALOG
            try:
                kind = DetectorKind(kind_token)
            except ValueError:
                problems.add(f"{where}.kind: unknown kind {kind_token!r}")
            if ch_id is not None and ch_id in seen:
                problems.add(f"{where}: duplicate channel id {ch_id!r}")
            seen.add(ch_id)
            channels.append(ChannelPlan(ch_id, laser, kind))

    shared_fiber = problems.boolean(topo, "shared_fiber", "topology", default=True)
    spacing = problems.number(topo, "min_channel_spacing_nm", "topology",
                              default=DEFAULT_CHANNEL_SPACING_NM, minimum=0.0)

    # The parts bound to each role, listed with every other problem; the
    # bindings built from them are used only when there is none.
    where = "topology.bindings"
    bindings = topo.get("bindings")
    if not isinstance(bindings, dict):
        problems.add(f"{where}: required object")
        bindings = {}
    problems.unknown_keys(bindings, set(FORWARD_ROLES), where)
    names: dict[str, Any] = {}
    for key, role in FORWARD_ROLES.items():
        tokens = _TOKEN_ROLES.get(key)
        if tokens is None:
            names[key] = problems.part(
                bindings, key, where, library, role,
                optional=key in ForwardBindings._field_defaults)
        elif not isinstance(bindings.get(key), dict):
            problems.add(f"{where}.{key}: required object keyed by "
                         f"{'/'.join(tokens)}")
            names[key] = dict.fromkeys(tokens)
        else:
            problems.unknown_keys(bindings[key], set(tokens), f"{where}.{key}")
            names[key] = {
                token: problems.part(bindings[key], token, f"{where}.{key}",
                                     library, token_role)
                for token, token_role in tokens.items()}
    forward = {
        (m, g): ForwardBindings(**{**names, "modulator": names["modulator"][m],
                                   "mux": names["mux"][g],
                                   "demux": names["demux"][g]})
        for m in _TOKEN_ROLES["modulator"] for g in _TOKEN_ROLES["mux"]}

    return_bindings: ReturnBindings | None = None
    raw_return = topo.get("return")
    if raw_return is not None and not isinstance(raw_return, dict):
        problems.add("topology.return: must be an object")
    elif raw_return is not None:
        where = "topology.return"
        problems.unknown_keys(raw_return, {"enabled", *RETURN_ROLES}, where)
        enabled = problems.boolean(raw_return, "enabled", where, default=True)
        lasers = raw_return.get("lasers")
        if not isinstance(lasers, list) or len(lasers) != CHANNELS_PER_RETURN_GROUP:
            problems.add(f"{where}.lasers: must list exactly "
                         f"{CHANNELS_PER_RETURN_GROUP} component names")
            lasers = []
        lasers = {f"lasers[{i}]": name for i, name in enumerate(lasers)}
        bound = {"lasers": tuple(problems.part(lasers, key, where, library, LASER)
                                 for key in lasers)}
        bound.update(
            (key, problems.part(raw_return, key, where, library, role))
            for key, role in RETURN_ROLES.items() if key != "lasers")
        if enabled:
            if n_dtrm % CHANNELS_PER_RETURN_GROUP != 0:
                problems.add(f"topology.n_dtrm: must be divisible by "
                             f"{CHANNELS_PER_RETURN_GROUP} when the return "
                             "chain is enabled")
            return_bindings = ReturnBindings(**bound)

    analysis_raw = raw.get("analysis", {})
    if not isinstance(analysis_raw, dict):
        problems.add("scenario.analysis: must be an object")
        analysis_raw = {}
    analysis = _parse_analysis(analysis_raw, problems)

    digital_raw = raw.get("digital", {})
    if not isinstance(digital_raw, dict):
        problems.add("scenario.digital: must be an object")
        digital_raw = {}
    digital_link, adc_stream = _parse_digital(digital_raw, problems)

    requirements_raw = raw.get("requirements", {})
    if not isinstance(requirements_raw, dict):
        problems.add("scenario.requirements: must be an object")
        requirements_raw = {}
    requirements = _parse_requirements(requirements_raw, problems)

    label = raw.get("variant", "all")
    variants = tuple(v for v in ALL_VARIANTS if is_feasible(v))
    if not isinstance(label, str):
        problems.add("scenario.variant: must be a string")
    elif label.strip().lower() != "all":
        try:
            variants = (DesignVariant.from_label(label),)
            if not is_feasible(variants[0]):
                problems.add(f"scenario.variant: {label!r} is infeasible "
                             "(Bragg gratings are not realizable in silicon)")
        except ValueError as exc:
            problems.add(f"scenario.variant: {exc}")

    if problems.items:
        raise ScenarioError(problems.items)

    return Scenario(
        name=name,
        fingerprint=scenario_fingerprint(raw),
        library=library,
        n_dtrm=n_dtrm,
        channels=tuple(channels),
        shared_fiber=shared_fiber,
        min_channel_spacing_nm=spacing,
        forward=forward,
        return_bindings=return_bindings,
        analysis=analysis,
        digital_link=digital_link,
        adc_stream=adc_stream,
        requirements=requirements,
        variants=variants,
    )
