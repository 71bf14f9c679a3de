"""Design-space enumeration, ordinal power/size/weight scoring, requirement
compliance and the ranked build recommendation.

The power/size/weight comparisons form a partial order, not scores:
incomparable variants tie, and ranks are the longest-chain depth over the
known strict pairs. The recommendation sorts lexicographically by requirement
compliance first, then power, size and weight ranks.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .components import GratingTech, Modulation
from .digitalpath import GroupCapacity
from .errors import AnalysisError
from .frozen import NamedTuple
from .linkbudget import LinkMetrics
from .scenario import (
    ALL_VARIANTS,
    DesignVariant,
    Integration,
    RequirementSet,
    VariantOutcome,
    is_feasible,
)
from .units import THERMAL_FLOOR_DBM_PER_HZ


def enumerate_variants() -> list[tuple[DesignVariant, bool]]:
    """All eight modulation x grating x integration combinations with their
    feasibility; exactly six are feasible."""
    return [(v, is_feasible(v)) for v in ALL_VARIANTS]


class OrdinalScore(NamedTuple):
    """1 = best; equal ranks are explicit ties under the partial order."""

    power_rank: int
    size_rank: int
    weight_rank: int
    notes: tuple[str, ...] = ()


def _power_predecessors(v: DesignVariant) -> list[DesignVariant]:
    """Variants strictly better than v on power draw.

    Direct modulation draws less than external at equal grating; Bragg-grating
    designs draw less than waveguide-grating ones at equal modulation. The
    comparisons do not involve the integration technology.
    """
    better = []
    for candidate in ALL_VARIANTS:
        if not is_feasible(candidate) or candidate == v:
            continue
        same_grating = candidate.grating is v.grating
        same_mod = candidate.modulation is v.modulation
        if same_grating and candidate.modulation is Modulation.DIRECT \
                and v.modulation is Modulation.EXTERNAL:
            better.append(candidate)
        elif same_mod and candidate.grating is GratingTech.VBG \
                and v.grating is GratingTech.AWG:
            better.append(candidate)
    return better


def _size_weight_predecessors(v: DesignVariant) -> list[DesignVariant]:
    """Variants strictly smaller/lighter than v.

    Within III-V integration the Bragg-grating design wins at equal
    modulation; direct modulation wins at equal grating and integration. The
    silicon-specific preference is vacuous because its Bragg case is
    infeasible, and is flagged as such in recommendation notes.
    """
    better = []
    for candidate in ALL_VARIANTS:
        if not is_feasible(candidate) or candidate == v:
            continue
        if (candidate.integration is Integration.HIP
                and v.integration is Integration.HIP
                and candidate.modulation is v.modulation
                and candidate.grating is GratingTech.VBG
                and v.grating is GratingTech.AWG):
            better.append(candidate)
        elif (candidate.grating is v.grating
                and candidate.integration is v.integration
                and candidate.modulation is Modulation.DIRECT
                and v.modulation is Modulation.EXTERNAL):
            better.append(candidate)
    return better


def _depth_rank(variant: DesignVariant,
                predecessors: Callable[[DesignVariant], list[DesignVariant]],
                _memo: dict | None = None) -> int:
    memo = _memo if _memo is not None else {}
    if variant in memo:
        return memo[variant]
    preds = predecessors(variant)
    rank = 1 if not preds else 1 + max(
        _depth_rank(p, predecessors, memo) for p in preds)
    memo[variant] = rank
    return rank


def score_variant(variant: DesignVariant) -> OrdinalScore:
    """Ordinal power/size/weight ranks (1 = best) for a feasible variant."""
    if not is_feasible(variant):
        raise AnalysisError(f"variant {variant.label} is infeasible")
    notes: list[str] = []
    if variant.grating is GratingTech.AWG \
            and variant.modulation is Modulation.EXTERNAL:
        notes.append("size assumes analog channels packaged separately with "
                     "their output fibers combined ahead of the external mux")
    size = _depth_rank(variant, _size_weight_predecessors)
    return OrdinalScore(
        power_rank=_depth_rank(variant, _power_predecessors),
        size_rank=size,
        weight_rank=size,
        notes=tuple(notes),
    )


class RequirementCheck(NamedTuple):
    """One requirement's value, bound, verdict and margin."""

    requirement: str
    value: float | None
    bound: str
    unit: str
    passed: bool
    margin: float | None
    note: str = ""


class ComplianceReport(NamedTuple):
    """The requirement checks of one design variant."""

    checks: tuple[RequirementCheck, ...]

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def passed_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)


def _check_at_most(name: str, value: float | None, bound: float, unit: str,
                   note: str = "") -> RequirementCheck:
    # Missing metrics fail closed.
    if value is None:
        return RequirementCheck(name, None, f"<= {bound:g}", unit, False, None,
                                "not evaluated")
    return RequirementCheck(name, value, f"<= {bound:g}", unit,
                            value <= bound, bound - value, note)


def _check_at_least(name: str, value: float | None, bound: float, unit: str,
                    note: str = "") -> RequirementCheck:
    if value is None:
        return RequirementCheck(name, None, f">= {bound:g}", unit, False, None,
                                "not evaluated")
    return RequirementCheck(name, value, f">= {bound:g}", unit,
                            value >= bound, value - bound, note)


def check_requirements(
    metrics: LinkMetrics,
    requirements: RequirementSet,
    *,
    wavelengths_nm: Sequence[float] = (),
    digital_groups: Sequence[GroupCapacity] = (),
    analysis_bandwidth_hz: float | None = None,
) -> ComplianceReport:
    """Compare the computed metric bundle against every requirement bound.

    The noise-figure degradation is classified against the strict and relaxed
    thresholds separately; both boundaries are inclusive. Missing metrics are
    reported as not evaluated and fail closed.
    """
    checks: list[RequirementCheck] = []

    checks.append(_check_at_least(
        "rf_bandwidth", metrics.effective_bandwidth_hz,
        requirements.rf_freq_max_hz, "Hz",
        f"link must pass {requirements.rf_freq_min_hz:g}-"
        f"{requirements.rf_freq_max_hz:g} Hz"))

    # Weak-signal end: the per-Hz noise density referred to the RF input must
    # sit below the weakest specified receive level.
    floor_density = THERMAL_FLOOR_DBM_PER_HZ + metrics.noise_figure_db
    checks.append(_check_at_most(
        "rx_weak_signal_floor", floor_density, requirements.rx_power_min_dbm,
        "dBm/Hz", "input-referred noise density vs weakest receive level"))

    # Strong-signal end: the detector must keep headroom at the carrier power.
    checks.append(_check_at_least(
        "rx_strong_signal_headroom", metrics.detector_saturation_margin_db,
        0.0, "dB",
        f"detector headroom with receive levels up to "
        f"{requirements.rx_power_max_dbm:g} dBm"))

    if wavelengths_nm:
        worst = min(
            min(nm - requirements.wavelength_min_nm,
                requirements.wavelength_max_nm - nm)
            for nm in wavelengths_nm)
        checks.append(_check_at_least(
            "wavelength_window", worst, 0.0, "nm",
            f"distance inside [{requirements.wavelength_min_nm:g}, "
            f"{requirements.wavelength_max_nm:g}] nm"))
    else:
        checks.append(RequirementCheck(
            "wavelength_window", None, "within band", "nm", False, None,
            "not evaluated"))

    checks.append(_check_at_most(
        "nf_degradation_strict", metrics.nf_degradation_db,
        requirements.nf_degradation_strict_db, "dB", "boundary inclusive"))
    checks.append(_check_at_most(
        "nf_degradation_relaxed", metrics.nf_degradation_db,
        requirements.nf_degradation_relaxed_db, "dB", "boundary inclusive"))

    checks.append(_check_at_most(
        "phase_noise_degradation", metrics.phase_noise_degradation_db,
        requirements.phase_spur_degradation_db, "dB",
        "worst offset of the configured profile"))

    note = ""
    if analysis_bandwidth_hz is not None \
            and analysis_bandwidth_hz != requirements.sfdr_bandwidth_hz:
        note = (f"evaluated in {analysis_bandwidth_hz:g} Hz, bar stated for "
                f"{requirements.sfdr_bandwidth_hz:g} Hz")
    checks.append(_check_at_least(
        "sfdr", metrics.sfdr_db, requirements.sfdr_min_db, "dB", note))

    if digital_groups:
        worst_margin = min(g.margin_bytes_per_s for g in digital_groups)
        check = _check_at_least(
            "return_throughput", worst_margin, 0.0, "byte/s",
            "worst group margin vs the scaled payload bar")
        # A group whose ADC demand exceeds its payload fails whatever its
        # margin over the bar.
        failing = [g.group_id for g in digital_groups if not g.passed]
        if failing:
            check = check._replace(passed=False, note=(
                f"{len(failing)} of {len(digital_groups)} groups fail, "
                f"first {failing[0]}"))
        checks.append(check)
    else:
        checks.append(RequirementCheck(
            "return_throughput", None, ">= bar", "byte/s", False, None,
            "not evaluated"))

    return ComplianceReport(tuple(checks))


class Recommendation(NamedTuple):
    """The ranked variants and the reasons for the top choice."""

    ranking: tuple[VariantOutcome, ...]
    rationale: tuple[str, ...]
    notes: tuple[str, ...] = ()


def _sort_key(outcome: VariantOutcome) -> tuple:
    return (
        -outcome.compliance.passed_count,
        outcome.score.power_rank,
        outcome.score.size_rank,
        outcome.score.weight_rank,
        ALL_VARIANTS.index(outcome.variant),
    )


def recommend(outcomes: Sequence[VariantOutcome]) -> Recommendation:
    """Deterministic ranking of evaluated variants with per-pair rationale."""
    if not outcomes:
        raise AnalysisError("recommendation needs at least one evaluated variant")
    ordered = sorted(outcomes, key=_sort_key)
    rationale: list[str] = []
    for upper, lower in zip(ordered, ordered[1:]):
        # The levels of ``_sort_key``; the first that differs is the reason.
        hi, lo = upper.score, lower.score
        levels = (("more requirements met", upper.compliance.passed_count,
                   lower.compliance.passed_count),
                  ("lower power rank", hi.power_rank, lo.power_rank),
                  ("lower size rank", hi.size_rank, lo.size_rank),
                  ("lower weight rank", hi.weight_rank, lo.weight_rank))
        reason = next((f"{why} ({x} vs {y})" for why, x, y in levels if x != y),
                      "tie broken by enumeration order")
        rationale.append(f"{upper.variant.label} over {lower.variant.label}: {reason}")
    notes = ["silicon-specific size preference is vacuous: the Bragg-grating "
             "silicon combination is infeasible"]
    for outcome in ordered:
        notes.extend(outcome.score.notes)
    return Recommendation(tuple(ordered), tuple(rationale), tuple(dict.fromkeys(notes)))
