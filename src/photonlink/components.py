"""Parameter models and validation for every photonic element in the network.

Each element family is a ``NamedTuple`` with unit-bearing field names; a
component library is the name -> spec mapping of a scenario's ``components``.
Validation never raises for bad parameter values: violations are returned as
data so a loader or report can list all of them at once.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from typing import Union

from .frozen import NamedTuple

# Usable source band for the WDM plan, nm.
WDM_BAND_NM = (1300.0, 1650.0)


class Modulation(str, Enum):
    DIRECT = "direct"
    EXTERNAL = "external"

    @classmethod
    def from_token(cls, token: str) -> "Modulation":
        aliases = {"dm": cls.DIRECT, "em": cls.EXTERNAL,
                   "direct": cls.DIRECT, "external": cls.EXTERNAL}
        try:
            return aliases[token.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown modulation token {token!r}") from None

    @property
    def token(self) -> str:
        return "dm" if self is Modulation.DIRECT else "em"


class GratingTech(str, Enum):
    VBG = "vbg"
    AWG = "awg"


class ModulatorBias(str, Enum):
    QUADRATURE = "quadrature"


class DetectorKind(str, Enum):
    ANALOG = "analog"
    DIGITAL = "digital"


class LaserSpec(NamedTuple):
    """A laser source: output power, intensity noise, wavelength and slope."""

    output_power_w: float
    rin_db_hz: float
    wavelength_nm: float
    slope_efficiency_w_per_a: float = 0.3
    linewidth_tunable: bool = False


class ModulatorSpec(NamedTuple):
    """A direct or external modulator and its electrical bandwidth."""

    scheme: Modulation
    bandwidth_hz: float
    v_pi_v: float | None = None
    insertion_loss_db: float | None = None
    bias: ModulatorBias | None = None


class MuxDemuxSpec(NamedTuple):
    """A wavelength multiplexer or demultiplexer grating and its isolations."""

    technology: GratingTech
    insertion_loss_db: float
    channel_spacing_nm: float
    adjacent_isolation_db: float
    nonadjacent_isolation_db: float
    athermal: bool = False


class EdfaSpec(NamedTuple):
    """An erbium-doped fiber amplifier: gain setting, ceiling, noise and saturation."""

    gain_db: float
    max_gain_db: float
    noise_figure_db: float
    saturation_output_power_dbm: float


class SplitterSpec(NamedTuple):
    """A 1:N optical power splitter."""

    fanout: int
    excess_loss_db: float = 0.0

    @property
    def split_loss_db(self) -> float:
        """Total loss of one output leg: 10log10(N) plus excess."""
        return 10.0 * math.log10(self.fanout) + self.excess_loss_db


class FiberSpec(NamedTuple):
    """A fiber span: length, attenuation and group index."""

    length_m: float
    attenuation_db_per_km: float
    group_index: float = 1.468

    @property
    def loss_db(self) -> float:
        return self.attenuation_db_per_km * self.length_m / 1000.0


class PhotodetectorSpec(NamedTuple):
    """A photodetector: responsivity, saturation, bandwidth and kind."""

    responsivity_a_per_w: float
    saturation_power_dbm: float
    bandwidth_hz: float
    kind: DetectorKind
    dark_current_a: float = 0.0
    # Optional minimum usable optical input power; below it the ledger flags
    # the path (it is a bookkeeping flag, not a hard failure).
    sensitivity_dbm: float | None = None


ComponentSpec = Union[
    LaserSpec,
    ModulatorSpec,
    MuxDemuxSpec,
    EdfaSpec,
    SplitterSpec,
    FiberSpec,
    PhotodetectorSpec,
]

_TAG_TYPES: dict[str, type] = {
    "laser": LaserSpec,
    "modulator": ModulatorSpec,
    "mux_demux": MuxDemuxSpec,
    "edfa": EdfaSpec,
    "splitter": SplitterSpec,
    "fiber": FiberSpec,
    "photodetector": PhotodetectorSpec,
}

_ENUM_FIELDS = {
    "scheme": Modulation,
    "bias": ModulatorBias,
    "technology": GratingTech,
    "kind": DetectorKind,
}


class Violation(NamedTuple):
    """One validation finding: what, which field and why."""

    subject: str
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.subject}.{self.field}: {self.message}"


class ValidationReport(NamedTuple):
    """The violations one validation found; none means it passed."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def messages(self) -> list[str]:
        return [str(v) for v in self.violations]


class _Checker:
    """Accumulates violations for one named component."""

    def __init__(self, name: str):
        self.name = name
        self.items: list[Violation] = []

    def add(self, field: str, message: str) -> None:
        self.items.append(Violation(self.name, field, message))

    def finite(self, field: str, value) -> bool:
        """Anything but a finite number (``None`` too) is a violation."""
        if is_finite_number(value):
            return True
        self.add(field, f"must be a finite number, got {value!r}")
        return False


def is_finite_number(value) -> bool:
    """True for an int or float (bool excluded) that is a finite float: NaN,
    infinities and integers too large for a float are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def validate_component(spec: ComponentSpec, *,
                       name: str = "component") -> ValidationReport:
    """Check every invariant of a single element on its own; violations are
    data. The WDM source band is a rule of the wavelength plan, so a laser
    is checked against it per channel by ``topology.validate_topology``."""
    c = _Checker(name)
    if isinstance(spec, LaserSpec):
        if c.finite("output_power_w", spec.output_power_w) and spec.output_power_w <= 0:
            c.add("output_power_w", f"must be > 0 W, got {spec.output_power_w}")
        if c.finite("rin_db_hz", spec.rin_db_hz) and spec.rin_db_hz >= 0:
            c.add("rin_db_hz", f"must be < 0 dB/Hz, got {spec.rin_db_hz}")
        if c.finite("wavelength_nm", spec.wavelength_nm) and spec.wavelength_nm <= 0:
            c.add("wavelength_nm", f"must be > 0 nm, got {spec.wavelength_nm}")
        if (c.finite("slope_efficiency_w_per_a", spec.slope_efficiency_w_per_a)
                and spec.slope_efficiency_w_per_a <= 0):
            c.add("slope_efficiency_w_per_a",
                  f"must be > 0 W/A, got {spec.slope_efficiency_w_per_a}")
    elif isinstance(spec, ModulatorSpec):
        if c.finite("bandwidth_hz", spec.bandwidth_hz) and spec.bandwidth_hz <= 0:
            c.add("bandwidth_hz", f"must be > 0 Hz, got {spec.bandwidth_hz}")
        if spec.scheme is Modulation.DIRECT:
            if spec.v_pi_v is not None:
                c.add("v_pi_v", "direct scheme carries no v_pi")
            if spec.insertion_loss_db is not None:
                c.add("insertion_loss_db", "direct scheme carries no insertion loss")
            if spec.bias is not None:
                c.add("bias", "direct scheme carries no bias point")
        else:
            if spec.v_pi_v is None:
                c.add("v_pi_v", "external scheme requires v_pi > 0 V")
            elif c.finite("v_pi_v", spec.v_pi_v) and spec.v_pi_v <= 0:
                c.add("v_pi_v", f"must be > 0 V, got {spec.v_pi_v}")
            if (spec.insertion_loss_db is not None
                    and c.finite("insertion_loss_db", spec.insertion_loss_db)
                    and spec.insertion_loss_db < 0):
                c.add("insertion_loss_db",
                      f"must be >= 0 dB, got {spec.insertion_loss_db}")
            if spec.bias is None:
                c.add("bias", "external scheme requires a quadrature bias point")
    elif isinstance(spec, MuxDemuxSpec):
        if (c.finite("insertion_loss_db", spec.insertion_loss_db)
                and spec.insertion_loss_db < 0):
            c.add("insertion_loss_db", f"must be >= 0 dB, got {spec.insertion_loss_db}")
        if (c.finite("channel_spacing_nm", spec.channel_spacing_nm)
                and spec.channel_spacing_nm <= 0):
            c.add("channel_spacing_nm", f"must be > 0 nm, got {spec.channel_spacing_nm}")
        adj_ok = c.finite("adjacent_isolation_db", spec.adjacent_isolation_db)
        non_ok = c.finite("nonadjacent_isolation_db", spec.nonadjacent_isolation_db)
        if adj_ok and spec.adjacent_isolation_db <= 0:
            c.add("adjacent_isolation_db",
                  f"must be > 0 dB, got {spec.adjacent_isolation_db}")
        if adj_ok and non_ok and spec.nonadjacent_isolation_db < spec.adjacent_isolation_db:
            c.add("nonadjacent_isolation_db",
                  "must be >= adjacent_isolation_db "
                  f"({spec.nonadjacent_isolation_db} < {spec.adjacent_isolation_db})")
    elif isinstance(spec, EdfaSpec):
        gain_ok = c.finite("gain_db", spec.gain_db)
        max_ok = c.finite("max_gain_db", spec.max_gain_db)
        if gain_ok and spec.gain_db < 0:
            c.add("gain_db", f"must be >= 0 dB, got {spec.gain_db}")
        if gain_ok and max_ok and spec.gain_db > spec.max_gain_db:
            c.add("gain_db", f"exceeds max_gain_db ({spec.gain_db} > {spec.max_gain_db})")
        if c.finite("noise_figure_db", spec.noise_figure_db) and spec.noise_figure_db <= 0:
            c.add("noise_figure_db", f"must be > 0 dB, got {spec.noise_figure_db}")
        c.finite("saturation_output_power_dbm", spec.saturation_output_power_dbm)
    elif isinstance(spec, SplitterSpec):
        if not isinstance(spec.fanout, int) or isinstance(spec.fanout, bool):
            c.add("fanout", f"must be an integer, got {spec.fanout!r}")
        elif spec.fanout < 1:
            c.add("fanout", f"fanout >= 1 required, got {spec.fanout}")
        if c.finite("excess_loss_db", spec.excess_loss_db) and spec.excess_loss_db < 0:
            c.add("excess_loss_db", f"must be >= 0 dB, got {spec.excess_loss_db}")
    elif isinstance(spec, FiberSpec):
        if c.finite("length_m", spec.length_m) and spec.length_m < 0:
            c.add("length_m", f"must be >= 0 m, got {spec.length_m}")
        if (c.finite("attenuation_db_per_km", spec.attenuation_db_per_km)
                and spec.attenuation_db_per_km < 0):
            c.add("attenuation_db_per_km",
                  f"must be >= 0 dB/km, got {spec.attenuation_db_per_km}")
        if c.finite("group_index", spec.group_index) and spec.group_index <= 0:
            c.add("group_index", f"must be > 0, got {spec.group_index}")
    elif isinstance(spec, PhotodetectorSpec):
        if c.finite("responsivity_a_per_w", spec.responsivity_a_per_w):
            if not 0 < spec.responsivity_a_per_w <= 1.1:
                c.add("responsivity_a_per_w",
                      f"must be in (0, 1.1] A/W, got {spec.responsivity_a_per_w}")
        if c.finite("dark_current_a", spec.dark_current_a) and spec.dark_current_a < 0:
            c.add("dark_current_a", f"must be >= 0 A, got {spec.dark_current_a}")
        if c.finite("bandwidth_hz", spec.bandwidth_hz) and spec.bandwidth_hz <= 0:
            c.add("bandwidth_hz", f"must be > 0 Hz, got {spec.bandwidth_hz}")
        c.finite("saturation_power_dbm", spec.saturation_power_dbm)
        if spec.sensitivity_dbm is not None:
            c.finite("sensitivity_dbm", spec.sensitivity_dbm)
    else:
        c.add("type", f"unknown component type {type(spec).__name__}")
    return ValidationReport(tuple(c.items))


def _read_entry(payload, name: str) -> tuple[ComponentSpec | None, list[str]]:
    """The spec of one ``type``-tagged entry, or None and its shape errors:
    a missing object or unknown type alone, else the unknown fields, each
    required field that is missing and each enum field of unknown value."""
    if not isinstance(payload, dict):
        return None, [f"{name}: component entry must be an object"]
    data = dict(payload)
    tag = data.pop("type", None)
    cls = _TAG_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        known = ", ".join(sorted(_TAG_TYPES))
        return None, [f"{name}: unknown component type {tag!r} (expected one of {known})"]
    problems = []
    unknown = sorted(set(data) - set(cls._fields))
    if unknown:
        problems.append(f"{name}: unknown field(s) {', '.join(unknown)} for type {tag!r}")
    problems += [f"{name}.{field_name}: required field is missing"
                 for field_name in cls._fields
                 if field_name not in data and field_name not in cls._field_defaults]
    for field_name, value in data.items():
        enum_cls = _ENUM_FIELDS.get(field_name)
        # Of the enum fields only the bias point may be null.
        if enum_cls is not None and (value is not None or field_name != "bias"):
            try:
                data[field_name] = enum_cls(value)
            except ValueError:
                tokens = ", ".join(e.value for e in enum_cls)
                problems.append(
                    f"{name}.{field_name}: unknown value {value!r} (expected {tokens})")
    if problems:
        return None, problems
    if cls is ModulatorSpec and data.get("scheme") is Modulation.EXTERNAL:
        data.setdefault("bias", ModulatorBias.QUADRATURE)
        data.setdefault("insertion_loss_db", 0.0)
    return cls(**data), []


def loads_unique_keys(text: str) -> object:
    """``json.loads`` that rejects a key repeated in any object of the
    document with ``ValueError("duplicate key '<key>'")``."""
    def unique(pairs):
        result = {}
        for key, value in pairs:
            if key in result:
                raise ValueError(f"duplicate key {key!r}")
            result[key] = value
        return result

    return json.loads(text, object_pairs_hook=unique)


def parse_component_library(payload, *, where: str = "library"
                            ) -> tuple[dict[str, ComponentSpec], list[str]]:
    """The valid entries of a component library by name, and every problem
    of the others: an entry that is not valid is left out."""
    if not isinstance(payload, dict):
        return {}, [f"{where}: component library must be a JSON object"]
    library: dict[str, ComponentSpec] = {}
    problems: list[str] = []
    for entry_name, entry in payload.items():
        spec, shape = _read_entry(entry, entry_name)
        if shape:
            problems += shape
            continue
        report = validate_component(spec, name=entry_name)
        if report.ok:
            library[entry_name] = spec
        else:
            problems += report.messages()
    return library, problems
