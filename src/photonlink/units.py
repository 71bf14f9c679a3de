"""Decibel/power conversions and the physical constants used by the link engine."""

from __future__ import annotations

import math
from typing import Iterable

BOLTZMANN_J_PER_K = 1.380649e-23
ELEMENTARY_CHARGE_C = 1.602176634e-19
PLANCK_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0

# Receiver-noise convention figure for kT at room temperature. Kept as the
# conventional round number so noise floors read as -174 + NF + 10log10(B).
THERMAL_FLOOR_DBM_PER_HZ = -174.0

# Standard noise temperature T0 to which noise figures are referred (IEEE).
NOISE_REFERENCE_TEMPERATURE_K = 290.0


def db_to_linear(value_db: float) -> float:
    """Power ratio from dB."""
    return 10.0 ** (value_db / 10.0)


def dbm_to_watts(power_dbm: float) -> float:
    return 1e-3 * 10.0 ** (power_dbm / 10.0)


def watts_to_dbm(power_w: float) -> float:
    if power_w <= 0.0 or math.isnan(power_w):
        raise ValueError(f"power must be positive and finite, got {power_w!r}")
    return 10.0 * math.log10(power_w / 1e-3)


def wavelength_nm_to_hz(wavelength_nm: float) -> float:
    """Optical carrier frequency for a vacuum wavelength in nm."""
    if wavelength_nm <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength_nm!r}")
    return SPEED_OF_LIGHT_M_S / (wavelength_nm * 1e-9)


def power_sum_db(terms_db: Iterable[float]) -> float:
    """Sum dB terms in the linear power domain; -inf for an empty sum. The
    loop adds left to right: ``sum()`` compensates from Python 3.12 on."""
    total = 0.0
    for t in terms_db:
        total += db_to_linear(t)
    return sum_to_db(total)


def sum_to_db(total: float) -> float:
    """dB of a sum of power ratios; -inf for a sum of zero."""
    if total <= 0.0:
        return -math.inf
    return 10.0 * math.log10(total)
