"""SLA class vocabulary: floors, violation rule, mix draws."""

import numpy as np
import pytest

from repro.core.sla import (
    DEFAULT_SLA,
    SLA_CLASSES,
    SLA_FLOOR_ATOL,
    SLA_NAMES,
    draw_sla_classes,
    sla_floor,
    sla_floors,
    violates_floor,
)


class TestFloors:
    def test_class_floors(self):
        assert sla_floor("gold") == 0.5
        assert sla_floor("silver") == 0.25
        assert sla_floor("best-effort") == 0.0

    def test_default_is_floorless(self):
        assert sla_floor(DEFAULT_SLA) == 0.0

    def test_unknown_class_raises(self):
        with pytest.raises(ValueError, match="unknown SLA class"):
            sla_floor("platinum")

    def test_floor_vector_matches_order(self):
        vec = sla_floors(("gold", "best-effort", "silver"))
        assert vec.tolist() == [0.5, 0.0, 0.25]

    def test_names_cover_classes(self):
        assert set(SLA_NAMES) == set(SLA_CLASSES)


class TestViolationRule:
    def test_exact_floor_is_not_violated(self):
        assert not violates_floor(0.5, sla_floor("gold"))

    def test_float_noise_on_the_floor_is_tolerated(self):
        assert not violates_floor(0.5 - SLA_FLOOR_ATOL / 2, sla_floor("gold"))
        assert not violates_floor(0.5 - SLA_FLOOR_ATOL, sla_floor("gold"))

    def test_just_past_the_slack_violates(self):
        assert violates_floor(0.5 - 2 * SLA_FLOOR_ATOL, sla_floor("gold"))

    def test_clearly_below_floor_violates(self):
        assert violates_floor(0.4, sla_floor("gold"))
        assert violates_floor(0.0, sla_floor("silver"))

    def test_best_effort_never_violates(self):
        assert not violates_floor(0.0, sla_floor("best-effort"))

    def test_arrays_match_the_scalar_rule(self):
        floors = sla_floors(("gold", "gold", "gold", "silver",
                             "best-effort"))
        achieved = np.array([0.5, 0.5 - SLA_FLOOR_ATOL / 2,
                             0.5 - 2 * SLA_FLOOR_ATOL, 0.0, 0.0])
        got = violates_floor(achieved, floors)
        assert got.dtype == bool
        assert got.tolist() == [violates_floor(float(a), float(f))
                                for a, f in zip(achieved, floors)]
        assert got.tolist() == [False, False, True, True, False]


class TestMixDraws:
    def test_deterministic_given_seed(self):
        mix = {"gold": 0.3, "best-effort": 0.7}
        a = draw_sla_classes(50, mix, np.random.default_rng(5))
        b = draw_sla_classes(50, mix, np.random.default_rng(5))
        assert a == b

    def test_single_class_mix(self):
        picks = draw_sla_classes(10, {"silver": 1.0},
                                 np.random.default_rng(0))
        assert picks == ("silver",) * 10

    def test_unknown_class_in_mix(self):
        with pytest.raises(ValueError, match="unknown SLA class"):
            draw_sla_classes(5, {"bronze": 1.0}, np.random.default_rng(0))

    def test_empty_and_degenerate_mixes(self):
        with pytest.raises(ValueError):
            draw_sla_classes(5, {}, np.random.default_rng(0))
        with pytest.raises(ValueError):
            draw_sla_classes(5, {"gold": 0.0}, np.random.default_rng(0))
