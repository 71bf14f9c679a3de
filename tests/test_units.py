"""Conversion helpers."""

import math

import pytest

from photonlink.units import (
    db_to_linear,
    dbm_to_watts,
    power_sum_db,
    watts_to_dbm,
    wavelength_nm_to_hz,
)


def linear_to_db(ratio: float) -> float:
    """dB from a positive power ratio."""
    if ratio <= 0.0 or math.isnan(ratio):
        raise ValueError(f"ratio must be positive and finite, got {ratio!r}")
    return 10.0 * math.log10(ratio)


def test_db_round_trip():
    for value in (-40.0, -3.0103, 0.0, 10.0, 33.3):
        assert linear_to_db(db_to_linear(value)) == pytest.approx(value, abs=1e-12)


def test_dbm_round_trip():
    for power in (1e-12, 1e-3, 0.05, 2.0):
        assert dbm_to_watts(watts_to_dbm(power)) == pytest.approx(power, rel=1e-12)


def test_zero_and_negative_inputs_rejected():
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        watts_to_dbm(-1.0)
    with pytest.raises(ValueError):
        wavelength_nm_to_hz(0.0)


def test_carrier_frequency_at_1550_nm():
    assert wavelength_nm_to_hz(1550.0) == pytest.approx(1.9341448e14, rel=1e-6)


def test_power_sum_empty_is_minus_infinity():
    assert power_sum_db([]) == -math.inf


def test_power_sum_of_equal_terms_adds_three_db():
    assert power_sum_db([-20.0, -20.0]) == pytest.approx(
        -20.0 + 10 * math.log10(2), abs=1e-12)
