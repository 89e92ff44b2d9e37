import math

import numpy as np
import pytest

from prunesearch.metric import (
    MAGNITUDE,
    Coeff,
    Magnitude,
    MetricConfig,
    SubModuleStats,
    Transform,
    activation_coefficient,
    mask_equivalence_key,
    parse_kind,
    preset,
    score,
    transform_activations,
    transform_weights,
    weight_coefficient,
)
from prunesearch.prune import Unstructured, build_mask
from prunesearch.search import all_configs


def stats_for(v, l1=None, tokens=4):
    v = np.asarray(v, dtype=np.float64)
    l1 = v.copy() if l1 is None else np.asarray(l1, dtype=np.float64)
    return SubModuleStats(v=v, l1=l1, token_count=tokens)


W = np.array([[1.0, 2.0], [3.0, 4.0]])


class TestCoefficients:
    def test_uniform_is_ones(self):
        assert np.array_equal(weight_coefficient(W, Coeff.UNIFORM), np.ones((2, 2)))
        assert np.array_equal(activation_coefficient(stats_for([3.0, 4.0]), Coeff.UNIFORM), [1.0, 1.0])

    def test_global_sum_weight(self):
        np.testing.assert_allclose(weight_coefficient(W, Coeff.GLOBAL_SUM), np.full((2, 2), 0.1), rtol=1e-12)

    def test_relative_weight_hand_value(self):
        c = weight_coefficient(W, Coeff.RELATIVE)
        assert c[0, 0] == pytest.approx(1.0 / 3.0 + 1.0 / 4.0, rel=1e-12)
        assert c[1, 1] == pytest.approx(1.0 / 7.0 + 1.0 / 6.0, rel=1e-12)

    def test_row_and_col_wise_weight(self):
        rows = weight_coefficient(W, Coeff.ROW_WISE)
        cols = weight_coefficient(W, Coeff.COL_WISE)
        np.testing.assert_allclose(rows, [[1 / 3, 1 / 3], [1 / 7, 1 / 7]], rtol=1e-12)
        np.testing.assert_allclose(cols, [[1 / 4, 1 / 6], [1 / 4, 1 / 6]], rtol=1e-12)

    def test_global_mean_weight(self):
        np.testing.assert_allclose(weight_coefficient(W, Coeff.GLOBAL_MEAN), np.full((2, 2), 0.4), rtol=1e-12)

    def test_frobenius_activation(self):
        c = activation_coefficient(stats_for([3.0, 4.0]), Coeff.FROBENIUS)
        np.testing.assert_allclose(c, [0.2, 0.2], rtol=1e-12)

    def test_global_sum_activation(self):
        c = activation_coefficient(stats_for([3.0, 4.0]), Coeff.GLOBAL_SUM)
        np.testing.assert_allclose(c, [1 / 7, 1 / 7], rtol=1e-12)

    def test_row_wise_activation_uses_l1(self):
        c = activation_coefficient(stats_for([3.0, 4.0], l1=[2.0, 8.0]), Coeff.ROW_WISE)
        np.testing.assert_allclose(c, [0.5, 0.125], rtol=1e-12)

    def test_col_wise_activation_is_global_l1(self):
        c = activation_coefficient(stats_for([3.0, 4.0], l1=[2.0, 8.0]), Coeff.COL_WISE)
        np.testing.assert_allclose(c, [0.1, 0.1], rtol=1e-12)

    def test_relative_activation(self):
        c = activation_coefficient(stats_for([3.0, 4.0]), Coeff.RELATIVE)
        np.testing.assert_allclose(c, [1 / 7 + 1 / 3, 1 / 7 + 1 / 4], rtol=1e-12)

    def test_zero_denominators_stay_finite(self):
        z = np.zeros((2, 3))
        for coeff in Coeff:
            assert np.isfinite(weight_coefficient(z, coeff)).all()
            assert np.isfinite(activation_coefficient(stats_for([0.0, 0.0]), coeff)).all()


class TestTransforms:
    def test_sqrt(self):
        np.testing.assert_allclose(transform_activations(np.array([4.0, 9.0]), Transform.SQRT), [2.0, 3.0])

    def test_exp_neg_at_zero(self):
        assert transform_activations(np.array([0.0]), Transform.EXP_NEG)[0] == 1.0

    def test_softmax_symmetric_column(self):
        out = transform_weights(np.array([[0.0], [0.0]]), Transform.SOFTMAX)
        np.testing.assert_allclose(out, [[0.5], [0.5]], rtol=1e-12)

    def test_softmax_weight_columns_sum_to_one(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(5, 4))
        out = transform_weights(w, Transform.SOFTMAX)
        np.testing.assert_allclose(out.sum(axis=0), np.ones(4), atol=1e-6)

    def test_softmax_activation_sums_to_one(self):
        rng = np.random.default_rng(1)
        v = np.abs(rng.normal(size=9))
        out = transform_activations(v, Transform.SOFTMAX)
        assert out.sum() == pytest.approx(1.0, abs=1e-6)

    def test_elementwise_on_magnitudes(self):
        w = np.array([[-4.0, 9.0]])
        np.testing.assert_allclose(transform_weights(w, Transform.SQRT), [[2.0, 3.0]])
        np.testing.assert_allclose(transform_weights(w, Transform.SQUARE), [[16.0, 81.0]])
        np.testing.assert_allclose(transform_weights(w, Transform.LOG1P), np.log1p([[4.0, 9.0]]))
        sig = transform_weights(w, Transform.SIGMOID)
        np.testing.assert_allclose(sig, 1.0 / (1.0 + np.exp([[-4.0, -9.0]])))


class TestScore:
    def test_wanda_preset_hand_example(self):
        w = np.array([[1.0, -2.0], [0.0, 3.0]])
        s = score(w, stats_for([2.0, 1.0]), preset("wanda"))
        assert np.array_equal(s, [[2.0, 2.0], [0.0, 3.0]])

    def test_magnitude_ignores_stats(self):
        w = np.array([[1.0, -2.0], [0.0, 3.0]])
        s = score(w, stats_for([2.0, 1.0]), MAGNITUDE)
        assert np.array_equal(s, [[1.0, 2.0], [0.0, 3.0]])

    def test_l2_gsm8k_preset_worked_example(self):
        # Frobenius weight normalization with identity transform, global-sum
        # activation normalization with square root: every entry hand-derived.
        v = np.array([4.0, 9.0])
        s = score(W, stats_for(v), preset("optishear-l2-gsm8k"))
        fro = math.sqrt(30.0)
        act = [math.sqrt(4.0) / 13.0, math.sqrt(9.0) / 13.0]  # sqrt(v)/sum(v)
        expected = [[1.0 / fro * act[0], 2.0 / fro * act[1]], [3.0 / fro * act[0], 4.0 / fro * act[1]]]
        np.testing.assert_allclose(s, expected, rtol=1e-9)
        assert s[0, 0] == pytest.approx(0.0280883363, rel=1e-8)

    def test_l3_gsm8k_preset_worked_example(self):
        v = np.array([4.0, 9.0])
        s = score(W, stats_for(v), preset("optishear-l3-gsm8k"))
        mean_inv = 4.0 / 10.0  # mn / sum|W|
        act = [2.0 / 13.0, 3.0 / 13.0]
        expected = [[mean_inv * 1.0 * act[0], mean_inv * 2.0 * act[1]],
                    [mean_inv * 3.0 * act[0], mean_inv * 4.0 * act[1]]]
        np.testing.assert_allclose(s, expected, rtol=1e-9)

    def test_wanda_equals_direct_row_scaling_exactly(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(6, 5))
        v = np.abs(rng.normal(size=5))
        s = score(w, stats_for(v), preset("wanda"))
        assert np.array_equal(s, np.abs(w) * v[None, :])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            score(W, stats_for([1.0, 2.0, 3.0]), preset("wanda"))

    def test_all_configs_finite(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 8))
        w[0, 0] = 0.0
        stats = stats_for(np.abs(rng.normal(size=8)) * [1, 0, 1, 1, 1, 0, 1, 1], tokens=16)
        for cfg in all_configs():
            assert np.isfinite(score(w, stats, cfg)).all(), str(cfg)


class TestPresets:
    @pytest.mark.parametrize(
        "name,codes",
        [
            ("wanda", (0, 0, 0, 0)),
            ("ria", (6, 0, 0, 2)),
            ("optishear-l2-gsm8k", (2, 1, 0, 2)),
            ("optishear-l3-gsm8k", (3, 1, 0, 2)),
        ],
    )
    def test_preset_codes(self, name, codes):
        assert preset(name).codes == codes

    def test_magnitude_preset(self):
        assert isinstance(preset("magnitude"), Magnitude)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("optishear")

    def test_parse_custom_names_and_codes(self):
        cfg = parse_kind("custom:frobenius,global_sum,identity,sqrt")
        assert cfg == preset("optishear-l2-gsm8k")
        assert MetricConfig.from_string("2,1,0,2") == cfg

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            MetricConfig.from_string("2,1,0")
        with pytest.raises(ValueError):
            MetricConfig.from_string("2,1,0,9")
        with pytest.raises(ValueError):
            MetricConfig.from_string("frobenius,nope,identity,sqrt")

    def test_string_round_trip(self):
        cfg = preset("ria")
        assert MetricConfig.from_string(str(cfg)) == cfg


class TestMaskProperties:
    def test_mask_invariant_under_activation_rescaling(self):
        # Configs whose activation part is a globally scaled monotone map of v
        # must build identical masks when v is doubled.
        rng = np.random.default_rng(4)
        w = rng.normal(size=(6, 8))
        v = np.abs(rng.normal(size=8)) + 0.1
        l1 = np.abs(rng.normal(size=8)) + 0.1
        spec = Unstructured(0.5)
        betas = (Coeff.UNIFORM, Coeff.GLOBAL_SUM, Coeff.FROBENIUS, Coeff.GLOBAL_MEAN)
        f2s = (Transform.IDENTITY, Transform.SQUARE, Transform.SQRT)
        for alpha in Coeff:
            for f1 in (Transform.IDENTITY, Transform.SQRT, Transform.SOFTMAX):
                for beta in betas:
                    for f2 in f2s:
                        cfg = MetricConfig(alpha, beta, f1, f2)
                        base = build_mask(score(w, SubModuleStats(v, l1, 4), cfg), spec)
                        doubled = build_mask(score(w, SubModuleStats(2.0 * v, l1, 4), cfg), spec)
                        assert np.array_equal(base, doubled), str(cfg)

    def test_mask_equivalence_key_is_sound(self):
        # Equal keys promise bit-identical masks on any stats and weights.
        rng = np.random.default_rng(5)
        w = rng.normal(size=(5, 8))
        stats = stats_for(np.abs(rng.normal(size=8)) + 0.05, l1=np.abs(rng.normal(size=8)) + 0.05)
        spec = Unstructured(0.5)
        by_key = {}
        for cfg in all_configs():
            bits = build_mask(score(w, stats, cfg), spec)
            key = mask_equivalence_key(cfg)
            if key in by_key:
                assert np.array_equal(by_key[key], bits), str(cfg)
            else:
                by_key[key] = bits
        assert len(by_key) == 3 * 3 * 7 * 7
