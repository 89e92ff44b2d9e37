import json
import math

import numpy as np
import pytest

from prunesearch.analysis import (
    AlignmentReport,
    alignment_discrepancy,
    distribution_summary,
    emit_report,
)
from prunesearch.metric import MAGNITUDE, Coeff, MetricConfig, SubModuleStats, Transform, preset
from prunesearch.model import (
    SUB_MODULES,
    ModelConfig,
    ModelWeights,
    sub_module_key,
    sub_module_shapes,
    tensor_shapes,
)


def flat_model(matrix, n_layers=1):
    """All 7 sub-modules of every layer share one 2x2 weight matrix."""
    config = ModelConfig(vocab_size=4, d_model=2, n_layers=n_layers, n_heads=1, d_ff=2, max_seq_len=4)
    w = np.asarray(matrix, dtype=np.float64)
    sub_modules = sub_module_shapes(config)
    tensors = {
        name: w.copy() if name in sub_modules else np.ones(shape) if len(shape) == 1 else np.zeros(shape)
        for name, shape in tensor_shapes(config).items()
    }
    return ModelWeights(config, tensors)


def flat_stats(model, v):
    v = np.asarray(v, dtype=np.float64)
    return {
        sub_module_key(i, name): SubModuleStats(v=v.copy(), l1=v.copy(), token_count=4)
        for i in range(model.config.n_layers)
        for name in SUB_MODULES
    }


def test_wanda_hand_example():
    model = flat_model([[1.0, 1.0], [1.0, 1.0]])
    stats = flat_stats(model, [1.0, 1.0])
    report = alignment_discrepancy(model, stats, preset("wanda"))
    entry = report.layers[0][0]
    assert entry.weight_sum == 4.0
    assert entry.activation_sum == 2.0
    assert entry.difference == 2.0
    # identical sub-modules: the per-layer mean equals the common difference
    assert report.per_layer == (2.0,)
    assert report.model_mean == 2.0


def test_softmax_both_sides():
    model = flat_model([[1.0, 2.0], [0.5, 1.5]])
    stats = flat_stats(model, [0.3, 0.9])
    cfg = MetricConfig(Coeff.UNIFORM, Coeff.UNIFORM, Transform.SOFTMAX, Transform.SOFTMAX)
    report = alignment_discrepancy(model, stats, cfg)
    entry = report.layers[0][0]
    assert entry.weight_sum == pytest.approx(2.0, rel=1e-12)  # one per column
    assert entry.activation_sum == pytest.approx(1.0, rel=1e-12)
    assert entry.difference == pytest.approx(1.0, rel=1e-12)


def test_magnitude_is_rejected(mini_weights, mini_stats):
    with pytest.raises(ValueError):
        alignment_discrepancy(mini_weights, mini_stats, MAGNITUDE)


def test_model_mean_is_mean_of_layer_means(mini_weights, mini_stats):
    report = alignment_discrepancy(mini_weights, mini_stats, preset("ria"))
    assert report.model_mean == pytest.approx(np.mean(report.per_layer), rel=1e-12)
    for layer_entries, layer_mean in zip(report.layers, report.per_layer):
        assert layer_mean == pytest.approx(
            np.mean([e.difference for e in layer_entries]), rel=1e-12
        )


def _naive_sums(w_oi, stats, cfg):
    """Independent reimplementation with plain loops, straight from the
    coefficient and transformation definitions."""
    a = np.abs(w_oi)
    m, n = a.shape
    row = a.sum(axis=1)
    col = a.sum(axis=0)
    total = a.sum()
    fro = math.sqrt((w_oi**2).sum())

    def alpha_at(i, j):
        return {
            Coeff.UNIFORM: 1.0,
            Coeff.GLOBAL_SUM: 1.0 / total,
            Coeff.FROBENIUS: 1.0 / fro,
            Coeff.GLOBAL_MEAN: m * n / total,
            Coeff.ROW_WISE: 1.0 / row[i],
            Coeff.COL_WISE: 1.0 / col[j],
            Coeff.RELATIVE: 1.0 / row[i] + 1.0 / col[j],
        }[cfg.alpha]

    def f1_at(i, j):
        x = a[i, j]
        if cfg.f1 is Transform.SOFTMAX:
            column = a[:, j]
            e = np.exp(column - column.max())
            return e[i] / e.sum()
        return {
            Transform.IDENTITY: x,
            Transform.SQUARE: x * x,
            Transform.SQRT: math.sqrt(x),
            Transform.LOG1P: math.log1p(x),
            Transform.EXP_NEG: math.exp(-x),
            Transform.SIGMOID: 1.0 / (1.0 + math.exp(-x)),
        }[cfg.f1]

    v = stats.v
    v_total = v.sum()
    v_fro = math.sqrt((v**2).sum())
    l1 = stats.l1

    def beta_at(j):
        return {
            Coeff.UNIFORM: 1.0,
            Coeff.GLOBAL_SUM: 1.0 / v_total,
            Coeff.FROBENIUS: 1.0 / v_fro,
            Coeff.GLOBAL_MEAN: v.size / v_total,
            Coeff.ROW_WISE: 1.0 / l1[j],
            Coeff.COL_WISE: 1.0 / l1.sum(),
            Coeff.RELATIVE: 1.0 / v_total + 1.0 / v[j],
        }[cfg.beta]

    def f2_at(j):
        x = v[j]
        if cfg.f2 is Transform.SOFTMAX:
            e = np.exp(v - v.max())
            return e[j] / e.sum()
        return {
            Transform.IDENTITY: x,
            Transform.SQUARE: x * x,
            Transform.SQRT: math.sqrt(x),
            Transform.LOG1P: math.log1p(x),
            Transform.EXP_NEG: math.exp(-x),
            Transform.SIGMOID: 1.0 / (1.0 + math.exp(-x)),
        }[cfg.f2]

    weight_sum = sum(alpha_at(i, j) * f1_at(i, j) for i in range(m) for j in range(n))
    activation_sum = sum(beta_at(j) * f2_at(j) for j in range(n))
    return weight_sum, activation_sum


@pytest.mark.parametrize(
    "kind",
    [
        preset("wanda"),
        preset("ria"),
        preset("optishear-l2-gsm8k"),
        MetricConfig(Coeff.COL_WISE, Coeff.ROW_WISE, Transform.SOFTMAX, Transform.SIGMOID),
    ],
    ids=str,
)
def test_alignment_matches_naive_double_loop(mini_weights, mini_stats, kind):
    report = alignment_discrepancy(mini_weights, mini_stats, kind)
    for i, entries in enumerate(report.layers):
        for name, entry in zip(SUB_MODULES, entries):
            key = sub_module_key(i, name)
            w_sum, a_sum = _naive_sums(mini_weights.tensors[key].T, mini_stats[key], kind)
            assert entry.weight_sum == pytest.approx(w_sum, rel=1e-9)
            assert entry.activation_sum == pytest.approx(a_sum, rel=1e-9)


def test_distribution_hand_values():
    model = flat_model([[1.0, -2.0], [3.0, 4.0]], n_layers=2)
    stats = flat_stats(model, [1.0, 1.0])
    report = distribution_summary(model, stats)
    assert report.weight_l1 == (10.0, 10.0)  # every sub-module has L1 = 10
    assert report.activation_l2 == (2.0, 2.0)


def test_distribution_zero_weights():
    model = flat_model([[0.0, 0.0], [0.0, 0.0]])
    stats = flat_stats(model, [0.5, 0.5])
    report = distribution_summary(model, stats)
    assert report.weight_l1 == (0.0,)


def test_emit_json_round_trip(tmp_path, mini_weights, mini_stats):
    report = alignment_discrepancy(mini_weights, mini_stats, preset("wanda"))
    path = tmp_path / "align.json"
    emit_report(report, path)
    doc = json.loads(path.read_text())
    assert doc["model_mean"] == report.model_mean
    for layer in doc["layers"]:
        assert layer["mean_difference"] == report.per_layer[layer["layer"]]
        for sub, entry in zip(layer["sub_modules"], report.layers[layer["layer"]]):
            assert sub["weight_sum"] == entry.weight_sum
            assert sub["activation_sum"] == entry.activation_sum


def test_emit_csv_row_count(tmp_path, mini_weights, mini_stats):
    report = alignment_discrepancy(mini_weights, mini_stats, preset("wanda"))
    for name in ("align.csv", "align.CSV"):
        path = tmp_path / name
        emit_report(report, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == mini_weights.config.n_layers + 1
        assert lines[0] == "layer,mean_difference"


def test_emit_empty_report_is_header_only(tmp_path):
    empty = AlignmentReport(metric="wanda", layers=(), per_layer=(), model_mean=0.0)
    path = tmp_path / "empty.csv"
    emit_report(empty, path)
    assert path.read_text() == "layer,mean_difference\n"


def test_emit_writes_json_for_any_other_suffix(tmp_path, mini_weights, mini_stats):
    report = distribution_summary(mini_weights, mini_stats)
    for name in ("dist.json", "dist.txt", "dist"):
        emit_report(report, tmp_path / name)
        assert json.loads((tmp_path / name).read_text()) == report.to_dict()
