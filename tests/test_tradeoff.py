"""Design-space feasibility, ordinal scoring, compliance and recommendation."""

import math
import random

import pytest

from photonlink.components import GratingTech, Modulation
from photonlink.errors import AnalysisError
from photonlink.linkbudget import AnalysisConfig, Modulation as _M, analyze_path
from photonlink.tradeoff import (
    ALL_VARIANTS,
    DesignVariant,
    Integration,
    RequirementSet,
    VariantOutcome,
    check_requirements,
    enumerate_variants,
    is_feasible,
    recommend,
    score_variant,
)

from conftest import make_path, mk_laser, mk_mod_direct, mk_mux, mk_pd

DM, EM = Modulation.DIRECT, Modulation.EXTERNAL
VBG, AWG = GratingTech.VBG, GratingTech.AWG
SI, HIP = Integration.SILICON, Integration.HIP


def variant(m, g, i):
    return DesignVariant(m, g, i)


class TestEnumeration:
    def test_eight_total_six_feasible(self):
        table = enumerate_variants()
        assert len(table) == 8
        assert sum(1 for _, ok in table if ok) == 6

    def test_bragg_on_silicon_is_infeasible(self):
        assert not is_feasible(variant(DM, VBG, SI))
        assert not is_feasible(variant(EM, VBG, SI))

    def test_waveguide_on_silicon_is_feasible(self):
        assert is_feasible(variant(EM, AWG, SI))

    def test_labels_round_trip(self):
        for v in ALL_VARIANTS:
            assert DesignVariant.from_label(v.label) == v


class TestScoring:
    def test_power_composes_both_rules(self):
        best = score_variant(variant(DM, VBG, HIP))
        worst = score_variant(variant(EM, AWG, HIP))
        assert best.power_rank < worst.power_rank

    def test_size_bragg_beats_waveguide_in_iii_v(self):
        for m in (DM, EM):
            assert score_variant(variant(m, VBG, HIP)).size_rank \
                < score_variant(variant(m, AWG, HIP)).size_rank
            assert score_variant(variant(m, VBG, HIP)).weight_rank \
                < score_variant(variant(m, AWG, HIP)).weight_rank

    def test_direct_modulation_beats_external_everywhere(self):
        for g, i in ((VBG, HIP), (AWG, HIP), (AWG, SI)):
            dm_score = score_variant(variant(DM, g, i))
            em_score = score_variant(variant(EM, g, i))
            assert dm_score.power_rank < em_score.power_rank
            assert dm_score.size_rank < em_score.size_rank
            assert dm_score.weight_rank < em_score.weight_rank

    def test_every_stated_power_pair_holds(self):
        # within each grating DM < EM; within each modulation VBG < AWG
        for g in (VBG, AWG):
            for i in (SI, HIP):
                a, b = variant(DM, g, i), variant(EM, g, i)
                if is_feasible(a) and is_feasible(b):
                    assert score_variant(a).power_rank < score_variant(b).power_rank
        for m in (DM, EM):
            for i_a in (SI, HIP):
                for i_b in (SI, HIP):
                    a, b = variant(m, VBG, i_a), variant(m, AWG, i_b)
                    if is_feasible(a) and is_feasible(b):
                        assert score_variant(a).power_rank \
                            < score_variant(b).power_rank

    def test_incomparable_pairs_tie(self):
        # external+Bragg vs direct+waveguide: no stated rule orders them
        a = score_variant(variant(EM, VBG, HIP))
        b = score_variant(variant(DM, AWG, HIP))
        assert a.power_rank == b.power_rank

    def test_infeasible_variant_rejected(self):
        with pytest.raises(AnalysisError, match="infeasible"):
            score_variant(variant(DM, VBG, SI))


def make_metrics(**overrides):
    path = make_path(mk_laser(), mk_mod_direct(), mk_mux(loss=3.0),
                     mk_mux(loss=0.0), mk_pd())
    config = AnalysisConfig(
        iip3_dbm=20.0, carrier_power_dbm=10.0,
        phase_noise_profile=((1e4, -100.0),),
        front_end_gain_db=50.0, front_end_noise_figure_db=3.0,
        edfa_autogain=False)
    metrics = analyze_path(path, _M.DIRECT, config)
    return metrics._replace(**overrides)


class TestCompliance:
    def test_strict_and_relaxed_nf_classification(self):
        req = RequirementSet()
        passing = check_requirements(make_metrics(nf_degradation_db=0.9), req)
        failing = check_requirements(make_metrics(nf_degradation_db=1.8), req)
        by_name = lambda rep: {c.requirement: c.passed for c in rep.checks}
        assert by_name(passing)["nf_degradation_strict"] is True
        assert by_name(passing)["nf_degradation_relaxed"] is True
        assert by_name(failing)["nf_degradation_strict"] is False
        assert by_name(failing)["nf_degradation_relaxed"] is True

    @pytest.mark.parametrize("field", ["nf_degradation_strict_db",
                                       "nf_degradation_relaxed_db"])
    @pytest.mark.parametrize("value", [None, math.nan, 10 ** 400],
                             ids=["null", "nan", "huge-int"])
    def test_bad_nf_bound_is_listed_not_raised(self, field, value):
        problems = RequirementSet(**{field: value}).problems()
        assert problems == [f"requirements.{field}: must be finite, got {value!r}"]

    def test_exactly_one_db_passes_strict(self):
        report = check_requirements(make_metrics(nf_degradation_db=1.0),
                                    RequirementSet())
        strict = next(c for c in report.checks
                      if c.requirement == "nf_degradation_strict")
        assert strict.passed and strict.margin == 0.0

    def test_sfdr_margin_reported(self):
        report = check_requirements(
            make_metrics(sfdr_db=62.666666666666664), RequirementSet())
        row = next(c for c in report.checks if c.requirement == "sfdr")
        assert row.passed
        assert row.margin == pytest.approx(7.666666666666664)

    def test_missing_metric_fails_closed(self):
        report = check_requirements(
            make_metrics(phase_noise_degradation_db=None), RequirementSet())
        row = next(c for c in report.checks
                   if c.requirement == "phase_noise_degradation")
        assert not row.passed
        assert row.note == "not evaluated"

    def test_verdict_is_conjunction_of_rows(self):
        report = check_requirements(
            make_metrics(nf_degradation_db=0.5, sfdr_db=60.0),
            RequirementSet(),
            wavelengths_nm=[1550.0],
        )
        assert report.verdict == all(c.passed for c in report.checks)


def outcome(v, passed_count, power, size, weight):
    checks = tuple(
        check_requirements(make_metrics(), RequirementSet()).checks[0]._replace(
            requirement=f"r{i}", passed=i < passed_count)
        for i in range(9))
    compliance = check_requirements(
        make_metrics(), RequirementSet())._replace(checks=checks)
    from photonlink.tradeoff import OrdinalScore
    return VariantOutcome(v, OrdinalScore(power, size, weight), compliance)


class TestRecommendation:
    def test_compliance_count_dominates_ranks(self):
        winner = outcome(variant(EM, AWG, HIP), 9, power=3, size=3, weight=3)
        loser = outcome(variant(DM, VBG, HIP), 8, power=1, size=1, weight=1)
        result = recommend([loser, winner])
        assert result.ranking[0].variant == winner.variant
        assert "more requirements met" in result.rationale[0]

    @pytest.mark.parametrize("lower_scores, reason", [
        ((8, 1, 1, 1), "more requirements met (9 vs 8)"),
        ((9, 3, 1, 1), "lower power rank (2 vs 3)"),
        ((9, 2, 4, 1), "lower size rank (2 vs 4)"),
        ((9, 2, 2, 5), "lower weight rank (2 vs 5)"),
        ((9, 2, 2, 2), "tie broken by enumeration order"),
    ], ids=["requirements", "power", "size", "weight", "tie"])
    def test_rationale_names_the_first_level_that_differs(self, lower_scores,
                                                          reason):
        upper = outcome(variant(DM, VBG, HIP), 9, power=2, size=2, weight=2)
        lower = outcome(variant(EM, AWG, HIP), *lower_scores)
        result = recommend([lower, upper])
        assert [o.variant for o in result.ranking] == [upper.variant, lower.variant]
        assert result.rationale == (
            f"{upper.variant.label} over {lower.variant.label}: {reason}",)

    def test_single_variant_is_recommended(self):
        only = outcome(variant(DM, AWG, SI), 5, power=9, size=9, weight=9)
        result = recommend([only])
        assert result.ranking[0].variant == only.variant

    def test_rank_relabeling_does_not_change_order(self):
        """Only ordinal comparisons matter: a strictly monotone re-labeling of
        the rank integers leaves the recommendation unchanged."""
        rng = random.Random(8)
        base = [
            outcome(variant(DM, VBG, HIP), 9, 1, 1, 1),
            outcome(variant(DM, AWG, HIP), 9, 2, 2, 2),
            outcome(variant(EM, AWG, HIP), 9, 3, 3, 3),
        ]
        order_before = [o.variant for o in recommend(base).ranking]
        for _ in range(10):
            offset = rng.randint(0, 5)
            scale = rng.randint(1, 4)
            relabeled = [
                o._replace(
                    score=o.score._replace(
                        power_rank=o.score.power_rank * scale + offset,
                        size_rank=o.score.size_rank * scale + offset,
                        weight_rank=o.score.weight_rank * scale + offset))
                for o in base
            ]
            order_after = [o.variant for o in recommend(relabeled).ranking]
            assert order_after == order_before

    def test_silicon_rule_flagged_as_vacuous(self):
        result = recommend([outcome(variant(DM, VBG, HIP), 9, 1, 1, 1)])
        assert any("vacuous" in n for n in result.notes)
