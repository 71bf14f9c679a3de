"""Component parameter validation and the scenario's component entries."""

import json
import math
import random

import pytest

from photonlink.components import (
    LaserSpec,
    Modulation,
    ModulatorBias,
    ModulatorSpec,
    SplitterSpec,
    _read_entry,
    parse_component_library,
    validate_component,
)
from photonlink.data import reference_scenario_path
from photonlink.errors import ScenarioError
from photonlink.scenario import load_scenario_document, parse_scenario
from photonlink.topology import (
    build_forward_network,
    build_return_network,
    validate_topology,
)

from conftest import (
    forward_fixture_bindings,
    forward_fixture_channels,
    forward_fixture_library,
    mk_edfa,
    mk_fiber,
    mk_laser,
    mk_mod_direct,
    mk_mod_external,
    mk_mux,
    mk_pd,
    mk_splitter,
    return_fixture_bindings,
    return_fixture_library,
)


def component_from_dict(payload, *, name="component"):
    """The spec of one ``type``-tagged entry; raises ValueError listing its
    shape errors, one a line."""
    spec, problems = _read_entry(payload, name)
    if problems:
        raise ValueError("\n".join(problems))
    return spec


class TestLaserValidation:
    def test_reference_values_are_valid(self):
        spec = LaserSpec(output_power_w=0.1, rin_db_hz=-160.0, wavelength_nm=1550.0)
        assert validate_component(spec).ok

    @pytest.mark.parametrize("nm", [1250.0, 1700.0])
    def test_out_of_band_laser_passes_on_its_own(self, nm):
        """The source band is a rule of the wavelength plan, not of a part."""
        assert validate_component(mk_laser(nm=nm)).ok

    def test_plan_lists_one_band_violation_per_channel(self):
        """An out-of-band laser is listed once per channel it drives, under
        ``topology.channels``, and nowhere else: not at its nodes, not on
        the edges that carry it."""
        library = forward_fixture_library()
        library["laser_a"] = mk_laser(nm=1250.0)
        forward = build_forward_network(
            16, forward_fixture_channels(), library, forward_fixture_bindings())
        assert validate_topology(forward).messages() == [
            "topology.channels: channel 'alpha' at 1250.0 nm outside "
            "[1300, 1650] nm"]

        library = return_fixture_library()
        library["dlaser2"] = library["dlaser2"]._replace(wavelength_nm=1700.0)
        back = build_return_network(16, library, return_fixture_bindings())
        assert validate_topology(back).messages() == [
            f"topology.channels: channel 'rx{m:02d}' at 1700.0 nm outside "
            "[1300, 1650] nm" for m in (2, 6, 10, 14)]

    def test_nonpositive_power_and_rin_sign(self):
        report = validate_component(mk_laser(power_w=0.0, rin=3.0))
        fields = {v.field for v in report.violations}
        assert {"output_power_w", "rin_db_hz"} <= fields


class TestModulatorValidation:
    def test_direct_scheme_must_not_carry_external_fields(self):
        spec = ModulatorSpec(Modulation.DIRECT, 20e9, v_pi_v=5.0,
                             insertion_loss_db=5.0)
        report = validate_component(spec)
        fields = {v.field for v in report.violations}
        assert {"v_pi_v", "insertion_loss_db"} <= fields

    def test_external_scheme_requires_positive_v_pi(self):
        spec = ModulatorSpec(Modulation.EXTERNAL, 20e9, v_pi_v=0.0,
                             insertion_loss_db=4.0, bias=ModulatorBias.QUADRATURE)
        report = validate_component(spec)
        assert any(v.field == "v_pi_v" for v in report.violations)

    def test_reference_external_is_valid(self):
        assert validate_component(mk_mod_external()).ok


class TestOtherComponents:
    def test_splitter_fanout_boundary(self):
        assert validate_component(SplitterSpec(fanout=1)).ok
        report = validate_component(SplitterSpec(fanout=0))
        assert any("fanout >= 1" in m for m in report.messages())

    def test_split_loss_combines_fanout_and_excess(self):
        spec = SplitterSpec(fanout=16, excess_loss_db=1.0)
        assert spec.split_loss_db == pytest.approx(10 * math.log10(16) + 1.0)

    def test_isolation_ordering(self):
        report = validate_component(mk_mux(adj=40.0, nonadj=30.0))
        assert any(v.field == "nonadjacent_isolation_db" for v in report.violations)

    def test_edfa_gain_window(self):
        report = validate_component(mk_edfa(gain=35.0, max_gain=30.0))
        assert any("exceeds max_gain_db" in m for m in report.messages())

    def test_fiber_derived_loss(self):
        assert mk_fiber(length=2000.0, attenuation=0.2).loss_db == pytest.approx(0.4)

    def test_detector_responsivity_window(self):
        report = validate_component(mk_pd(resp=1.2))
        assert any(v.field == "responsivity_a_per_w" for v in report.violations)


def test_validation_is_total_over_nan_and_inf():
    """Non-finite numbers, integers too large for a float and nulls never
    raise; they come back as violations, except a null in an optional field."""
    rng = random.Random(20240811)
    poison = [math.nan, math.inf, -math.inf, 10 ** 400, None]
    optional = {(mk_mod_external, "insertion_loss_db")}
    factories = [mk_laser, mk_mod_external, mk_mux, mk_edfa, mk_fiber, mk_pd]
    numeric_fields = {
        mk_laser: ["output_power_w", "rin_db_hz", "wavelength_nm",
                   "slope_efficiency_w_per_a"],
        mk_mod_external: ["bandwidth_hz", "v_pi_v", "insertion_loss_db"],
        mk_mux: ["insertion_loss_db", "channel_spacing_nm",
                 "adjacent_isolation_db", "nonadjacent_isolation_db"],
        mk_edfa: ["gain_db", "max_gain_db", "noise_figure_db",
                  "saturation_output_power_dbm"],
        mk_fiber: ["length_m", "attenuation_db_per_km", "group_index"],
        mk_pd: ["responsivity_a_per_w", "saturation_power_dbm", "bandwidth_hz",
                "dark_current_a"],
    }
    for _ in range(300):
        factory = rng.choice(factories)
        spec = factory()
        field = rng.choice(numeric_fields[factory])
        value = rng.choice(poison)
        spec = spec._replace(**{field: value})
        report = validate_component(spec)
        if value is None and (factory, field) in optional:
            assert report.ok
            continue
        assert not report.ok
        assert any(v.field == field for v in report.violations)


def test_from_dict_builds_each_type():
    """Literal scenario entries give the specs the factories build; enum
    fields are read from their tokens and an external modulator defaults to
    quadrature bias and no insertion loss."""
    cases = [
        ({"type": "laser", "output_power_w": 0.05, "rin_db_hz": -170.0,
          "wavelength_nm": 1550.8, "slope_efficiency_w_per_a": 0.4,
          "linewidth_tunable": True},
         mk_laser(power_w=0.05, rin=-170.0, nm=1550.8, slope=0.4, tunable=True)),
        ({"type": "modulator", "scheme": "direct", "bandwidth_hz": 20e9},
         mk_mod_direct()),
        ({"type": "modulator", "scheme": "external", "bandwidth_hz": 25e9,
          "v_pi_v": 5.0, "insertion_loss_db": 5.0, "bias": "quadrature"},
         mk_mod_external()),
        ({"type": "modulator", "scheme": "external", "bandwidth_hz": 25e9,
          "v_pi_v": 5.0},
         mk_mod_external(loss=0.0)),
        ({"type": "mux_demux", "technology": "vbg", "insertion_loss_db": 3.0,
          "channel_spacing_nm": 0.8, "adjacent_isolation_db": 30.0,
          "nonadjacent_isolation_db": 45.0, "athermal": True},
         mk_mux()),
        ({"type": "edfa", "gain_db": 0.0, "max_gain_db": 30.0,
          "noise_figure_db": 4.0, "saturation_output_power_dbm": 33.0},
         mk_edfa()),
        ({"type": "splitter", "fanout": 16, "excess_loss_db": 1.0},
         mk_splitter()),
        ({"type": "fiber", "length_m": 12.5, "attenuation_db_per_km": 0.2},
         mk_fiber(length=12.5)),
        ({"type": "photodetector", "responsivity_a_per_w": 0.8,
          "saturation_power_dbm": 24.0, "bandwidth_hz": 20e9, "kind": "analog",
          "sensitivity_dbm": -30.0},
         mk_pd(sensitivity=-30.0)),
    ]
    for payload, spec in cases:
        assert component_from_dict(payload) == spec


def test_from_dict_rejects_unknown_type_and_fields():
    with pytest.raises(ValueError, match="unknown component type"):
        component_from_dict({"type": "isolator"})
    with pytest.raises(ValueError, match="unknown component type"):
        component_from_dict({"type": {}})
    with pytest.raises(ValueError, match="unknown field"):
        component_from_dict({"type": "laser", "output_power_w": 0.1,
                             "rin_db_hz": -160, "wavelength_nm": 1550,
                             "colour": "red"})


class TestLibraryLoading:
    """A scenario's ``components`` object is the component library."""

    def test_duplicate_names_rejected(self, tmp_path):
        text = reference_scenario_path().read_text()
        head, tail = text.split('"components": {', 1)
        path = tmp_path / "scenario.json"
        path.write_text(head + '"components": {"a": {"type": "splitter", "fanout": 2},'
                        ' "a": {"type": "splitter", "fanout": 3}, ' + tail)
        with pytest.raises(ScenarioError, match="duplicate key 'a'"):
            load_scenario_document(path)

    def test_invalid_entries_all_reported(self):
        doc = json.loads(reference_scenario_path().read_text())
        doc["components"]["bad_laser"] = {
            "type": "laser", "output_power_w": -1.0, "rin_db_hz": -160.0,
            "wavelength_nm": 1550.0}
        doc["components"]["bad_splitter"] = {"type": "splitter", "fanout": 0}
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(doc)
        text = str(excinfo.value)
        assert "bad_laser.output_power_w" in text
        assert "bad_splitter.fanout" in text

    def test_one_bad_entry_is_one_problem(self):
        """A bad entry is listed once. The valid entries stay in the library,
        so no part is reported unknown, and the parts bound to the bad one
        are not listed again."""
        doc = json.loads(reference_scenario_path().read_text())
        doc["components"]["drop_fiber"]["length_m"] = -5.0
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(doc)
        assert excinfo.value.problems == (
            "drop_fiber.length_m: must be >= 0 m, got -5.0",)
        library, problems = parse_component_library(doc["components"])
        assert set(library) == set(doc["components"]) - {"drop_fiber"}
        assert problems == ["drop_fiber.length_m: must be >= 0 m, got -5.0"]


# The fields an entry of each type must carry, written out by hand.
REQUIRED = {
    "laser": ("output_power_w", "rin_db_hz", "wavelength_nm"),
    "modulator": ("scheme", "bandwidth_hz"),
    "mux_demux": ("technology", "insertion_loss_db", "channel_spacing_nm",
                  "adjacent_isolation_db", "nonadjacent_isolation_db"),
    "edfa": ("gain_db", "max_gain_db", "noise_figure_db",
             "saturation_output_power_dbm"),
    "splitter": ("fanout",),
    "fiber": ("length_m", "attenuation_db_per_km"),
    "photodetector": ("responsivity_a_per_w", "saturation_power_dbm",
                      "bandwidth_hz", "kind"),
}
REFERENCE = json.loads(reference_scenario_path().read_text())


def first_entry(tag: str) -> str:
    """The name of the reference scenario's first entry of type ``tag``."""
    return next(name for name, entry in REFERENCE["components"].items()
                if entry["type"] == tag)


@pytest.mark.parametrize("tag, field", [(tag, field) for tag, fields in REQUIRED.items()
                                        for field in fields])
def test_a_missing_field_is_named_in_scenario_terms(tag, field):
    """An entry without one of its required fields gives one problem,
    ``<name>.<field>: required field is missing``, from the entry and from
    the scenario that holds it."""
    name = first_entry(tag)
    doc = json.loads(json.dumps(REFERENCE))
    del doc["components"][name][field]
    message = f"{name}.{field}: required field is missing"
    with pytest.raises(ValueError) as excinfo:
        component_from_dict(doc["components"][name], name=name)
    assert str(excinfo.value) == message
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(doc)
    assert excinfo.value.problems == (message,)


@pytest.mark.parametrize("tag", sorted(REQUIRED))
def test_every_missing_field_has_its_own_line(tag):
    """An entry with only its type lists each required field, in order."""
    with pytest.raises(ValueError) as excinfo:
        component_from_dict({"type": tag}, name="part")
    assert str(excinfo.value).splitlines() == [
        f"part.{field}: required field is missing" for field in REQUIRED[tag]]
