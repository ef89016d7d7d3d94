"""Tests for instance scaling and the end-to-end scenario generator."""

import dataclasses

import numpy as np
import pytest

from repro.workloads import (
    ScenarioConfig,
    generate_base_instance,
    generate_instance,
    normalize_cpu_needs,
    scale_cpu_needs,
    scale_memory_to_slack,
)

CPU, MEM = 0, 1


def config(**kw):
    defaults = dict(hosts=16, services=40, cov=0.5, slack=0.5, seed=123)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestMemorySlack:
    @pytest.mark.parametrize("slack", [0.1, 0.3, 0.5, 0.9])
    def test_target_slack_achieved(self, slack):
        inst = scale_memory_to_slack(generate_base_instance(config()), slack)
        total_req = inst.services.req_agg[:, MEM].sum()
        total_cap = inst.nodes.aggregate[:, MEM].sum()
        assert total_req / total_cap == pytest.approx(1.0 - slack)

    def test_cpu_untouched(self):
        base = generate_base_instance(config())
        scaled = scale_memory_to_slack(base, 0.3)
        np.testing.assert_allclose(scaled.services.req_agg[:, CPU],
                                   base.services.req_agg[:, CPU])
        np.testing.assert_allclose(scaled.services.need_agg,
                                   base.services.need_agg)

    def test_elem_and_agg_scale_together(self):
        inst = scale_memory_to_slack(generate_base_instance(config()), 0.4)
        np.testing.assert_allclose(inst.services.req_elem[:, MEM],
                                   inst.services.req_agg[:, MEM])

    def test_invalid_slack_rejected(self):
        base = generate_base_instance(config())
        with pytest.raises(ValueError):
            scale_memory_to_slack(base, 1.0)
        with pytest.raises(ValueError):
            scale_memory_to_slack(base, -0.1)


class TestCpuNormalization:
    def test_total_needs_equal_total_capacity(self):
        inst = normalize_cpu_needs(generate_base_instance(config()))
        assert inst.services.need_agg[:, CPU].sum() == pytest.approx(
            inst.nodes.aggregate[:, CPU].sum())

    def test_elementary_proportion_preserved(self):
        base = generate_base_instance(config())
        scaled = normalize_cpu_needs(base)
        old = base.services.need_elem[:, CPU] / base.services.need_agg[:, CPU]
        new = (scaled.services.need_elem[:, CPU]
               / scaled.services.need_agg[:, CPU])
        np.testing.assert_allclose(new, old)

    def test_memory_untouched(self):
        base = generate_base_instance(config())
        scaled = normalize_cpu_needs(base)
        np.testing.assert_allclose(scaled.services.req_agg[:, MEM],
                                   base.services.req_agg[:, MEM])

    def test_a_fixed_factor_scales_only_the_cpu_needs(self):
        """The live managers' scaling (``cpu_need_scale``): both CPU need
        columns times the factor, bit for bit; nothing else moves."""
        base = generate_base_instance(config()).services
        scaled = scale_cpu_needs(base, 0.08)
        for name in ("need_elem", "need_agg"):
            old, new = getattr(base, name), getattr(scaled, name)
            assert new[:, CPU].tobytes() == (old[:, CPU] * 0.08).tobytes()
            assert new[:, MEM].tobytes() == old[:, MEM].tobytes()
        assert scaled.req_elem.tobytes() == base.req_elem.tobytes()
        assert scaled.req_agg.tobytes() == base.req_agg.tobytes()
        assert scaled.names == base.names


class TestPaperStatistics:
    """§6.2 reports mean CPU needs 0.317 / 0.127 / 0.063 for 100 / 250 /
    500 services on 64 hosts — exactly total-capacity / J.  Our pipeline
    must reproduce those numbers."""

    @pytest.mark.parametrize("services,expected", [
        (100, 0.32), (250, 0.128), (500, 0.064)])
    def test_mean_cpu_need(self, services, expected):
        cfg = config(hosts=64, services=services, cov=0.0)
        inst = generate_instance(cfg)
        mean_need = inst.services.need_agg[:, CPU].mean()
        # With CoV 0 capacity is exactly 0.5/host: mean need = 64*0.5/J.
        assert mean_need == pytest.approx(expected, rel=1e-12)


class TestScenarioGeneration:
    def test_generate_instance_applies_both_scalings(self):
        inst = generate_instance(config(slack=0.3))
        total_mem = inst.nodes.aggregate[:, MEM].sum()
        assert inst.services.req_agg[:, MEM].sum() == pytest.approx(
            0.7 * total_mem)
        assert inst.services.need_agg[:, CPU].sum() == pytest.approx(
            inst.nodes.aggregate[:, CPU].sum())

    def test_deterministic_per_config(self):
        a = generate_instance(config())
        b = generate_instance(config())
        np.testing.assert_array_equal(a.services.req_agg, b.services.req_agg)
        np.testing.assert_array_equal(a.nodes.aggregate, b.nodes.aggregate)

    def test_instance_index_varies_draws(self):
        a = generate_instance(config())
        b = generate_instance(dataclasses.replace(config(), instance_index=1))
        assert not np.array_equal(a.nodes.aggregate, b.nodes.aggregate)

    def test_changing_services_keeps_platform(self):
        a = generate_instance(config(services=40))
        b = generate_instance(config(services=80))
        np.testing.assert_array_equal(a.nodes.aggregate, b.nodes.aggregate)

    def test_homogeneity_flags_propagate(self):
        inst = generate_instance(config(cov=0.9, cpu_homogeneous=True))
        np.testing.assert_allclose(inst.nodes.aggregate[:, CPU], 0.5)

    def test_label(self):
        cfg = config(cpu_homogeneous=True)
        assert "cpu-hom" in cfg.label()
        assert "J40" in cfg.label()

    def test_solvable_by_metahvp_light(self):
        """Moderate-slack instances should be solvable end to end."""
        from repro.algorithms import metahvp_light
        inst = generate_instance(config(services=24, hosts=8, slack=0.7))
        alloc = metahvp_light()(inst)
        assert alloc is not None
        alloc.validate()
        assert 0.0 <= alloc.minimum_yield() <= 1.0
