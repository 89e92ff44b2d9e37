import json
import math

import numpy as np
import pytest

from prunesearch.analysis import alignment_discrepancy, distribution_summary, emit_report
from prunesearch.metric import MAGNITUDE, Coeff, MetricConfig, SubModuleStats, Transform, preset
from prunesearch.model import (
    SUB_MODULES,
    ModelConfig,
    ModelWeights,
    init_model,
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
    entry = report["layers"][0]["sub_modules"][0]
    assert entry["weight_sum"] == 4.0
    assert entry["activation_sum"] == 2.0
    assert entry["difference"] == 2.0
    # identical sub-modules: the per-layer mean equals the common difference
    assert [layer["mean_difference"] for layer in report["layers"]] == [2.0]
    assert report["model_mean"] == 2.0


def test_softmax_both_sides():
    model = flat_model([[1.0, 2.0], [0.5, 1.5]])
    stats = flat_stats(model, [0.3, 0.9])
    cfg = MetricConfig(Coeff.UNIFORM, Coeff.UNIFORM, Transform.SOFTMAX, Transform.SOFTMAX)
    report = alignment_discrepancy(model, stats, cfg)
    entry = report["layers"][0]["sub_modules"][0]
    assert entry["weight_sum"] == pytest.approx(2.0, rel=1e-12)  # one per column
    assert entry["activation_sum"] == pytest.approx(1.0, rel=1e-12)
    assert entry["difference"] == pytest.approx(1.0, rel=1e-12)


def test_magnitude_is_rejected(mini_weights, mini_stats):
    with pytest.raises(ValueError):
        alignment_discrepancy(mini_weights, mini_stats, MAGNITUDE)


def test_model_mean_is_mean_of_layer_means(mini_weights, mini_stats):
    report = alignment_discrepancy(mini_weights, mini_stats, preset("ria"))
    layers = report["layers"]
    assert report["model_mean"] == pytest.approx(
        np.mean([layer["mean_difference"] for layer in layers]), rel=1e-12
    )
    for layer in layers:
        assert layer["mean_difference"] == pytest.approx(
            np.mean([e["difference"] for e in layer["sub_modules"]]), rel=1e-12
        )


def _naive_sums(w_oi, stats, cfg):
    """Independent reimplementation with plain loops, straight from the
    coefficient and transformation definitions, in float64 as the metric
    computes whatever the weights' dtype."""
    w_oi = np.asarray(w_oi, dtype=np.float64)
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
    for i, layer in enumerate(report["layers"]):
        for name, entry in zip(SUB_MODULES, layer["sub_modules"]):
            key = sub_module_key(i, name)
            assert entry["name"] == key
            w_sum, a_sum = _naive_sums(mini_weights.tensors[key].T, mini_stats[key], kind)
            assert entry["weight_sum"] == pytest.approx(w_sum, rel=1e-9)
            assert entry["activation_sum"] == pytest.approx(a_sum, rel=1e-9)


def test_distribution_hand_values():
    model = flat_model([[1.0, -2.0], [3.0, 4.0]], n_layers=2)
    stats = flat_stats(model, [1.0, 1.0])
    report = distribution_summary(model, stats)
    # every sub-module has L1 = 10
    assert [layer["weight_l1_mean"] for layer in report["layers"]] == [10.0, 10.0]
    assert [layer["activation_l2_mean"] for layer in report["layers"]] == [2.0, 2.0]


def test_distribution_zero_weights():
    model = flat_model([[0.0, 0.0], [0.0, 0.0]])
    stats = flat_stats(model, [0.5, 0.5])
    report = distribution_summary(model, stats)
    assert [layer["weight_l1_mean"] for layer in report["layers"]] == [0.0]


def test_float32_weights_report_like_their_float64_copy():
    # gate, up and down hold 256 x 1024 weights, past numpy's 8192-element
    # reduction buffer: a sum that reads float32 in buffered chunks, as
    # sum(dtype=np.float64) does, gives other bits than the widened sum.
    # Seed 2 draws weights on which that moves the layer mean.
    config = ModelConfig(vocab_size=4, d_model=256, n_layers=1, n_heads=1, d_ff=1024, max_seq_len=4)
    drawn = init_model(config, 2)
    narrow, wide = (ModelWeights(config, {name: w.astype(dtype) for name, w in drawn.tensors.items()})
                    for dtype in (np.float32, np.float64))
    rng = np.random.default_rng(5)
    stats = {}
    for key, (inputs, _) in sub_module_shapes(config).items():
        v = rng.random(inputs) + 0.1
        stats[key] = SubModuleStats(v=v, l1=v, token_count=4)
    report = distribution_summary(narrow, stats)
    assert report == distribution_summary(wide, stats)
    chunked = [float(abs(narrow.tensors[sub_module_key(0, name)]).sum(dtype=np.float64)) for name in SUB_MODULES]
    assert report["layers"][0]["weight_l1_mean"] != sum(chunked) / len(chunked)
    for kind in (preset("optishear-l2-gsm8k"), preset("ria")):
        assert alignment_discrepancy(narrow, stats, kind) == alignment_discrepancy(wide, stats, kind)


def test_emit_json_round_trip(tmp_path, mini_weights, mini_stats):
    report = alignment_discrepancy(mini_weights, mini_stats, preset("wanda"))
    path = tmp_path / "align.json"
    emit_report(report, path)
    # floats survive the decimal round trip exactly
    assert json.loads(path.read_text()) == report


def test_emit_csv_row_count(tmp_path, mini_weights, mini_stats):
    report = alignment_discrepancy(mini_weights, mini_stats, preset("wanda"))
    for name in ("align.csv", "align.CSV"):
        path = tmp_path / name
        emit_report(report, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == mini_weights.config.n_layers + 1
        assert lines[0] == "layer,mean_difference"


def test_emit_empty_report_is_header_only(tmp_path):
    empty = {"kind": "alignment", "layers": []}
    path = tmp_path / "empty.csv"
    emit_report(empty, path)
    assert path.read_text() == "layer,mean_difference\n"


def test_emit_writes_json_for_any_other_suffix(tmp_path, mini_weights, mini_stats):
    report = distribution_summary(mini_weights, mini_stats)
    for name in ("dist.json", "dist.txt", "dist"):
        emit_report(report, tmp_path / name)
        assert json.loads((tmp_path / name).read_text()) == report


ALIGN_JSON = """\
{
  "kind": "alignment",
  "layers": [
    {
      "layer": 0,
      "mean_difference": 2.0,
      "sub_modules": [
        {
          "activation_sum": 2.0,
          "difference": 2.0,
          "name": "layer.0.q",
          "weight_sum": 4.0
        },
        {
          "activation_sum": 2.0,
          "difference": 2.0,
          "name": "layer.0.k",
          "weight_sum": 4.0
        },
        {
          "activation_sum": 2.0,
          "difference": 2.0,
          "name": "layer.0.v",
          "weight_sum": 4.0
        },
        {
          "activation_sum": 2.0,
          "difference": 2.0,
          "name": "layer.0.o",
          "weight_sum": 4.0
        },
        {
          "activation_sum": 2.0,
          "difference": 2.0,
          "name": "layer.0.gate",
          "weight_sum": 4.0
        },
        {
          "activation_sum": 2.0,
          "difference": 2.0,
          "name": "layer.0.up",
          "weight_sum": 4.0
        },
        {
          "activation_sum": 2.0,
          "difference": 2.0,
          "name": "layer.0.down",
          "weight_sum": 4.0
        }
      ]
    }
  ],
  "metric": "uniform,uniform,identity,identity",
  "model_mean": 2.0
}
"""

DIST_JSON = """\
{
  "kind": "distribution",
  "layers": [
    {
      "activation_l2_mean": 2.0,
      "layer": 0,
      "weight_l1_mean": 10.0
    },
    {
      "activation_l2_mean": 2.0,
      "layer": 1,
      "weight_l1_mean": 10.0
    }
  ]
}
"""


def test_report_bytes_pinned(tmp_path):
    # Every value is exact in binary, so these bytes hold on any CPU and BLAS.
    model = flat_model([[1.0, 1.0], [1.0, 1.0]])
    align = alignment_discrepancy(model, flat_stats(model, [1.0, 1.0]), preset("wanda"))
    model = flat_model([[1.0, -2.0], [3.0, 4.0]], n_layers=2)
    dist = distribution_summary(model, flat_stats(model, [1.0, 1.0]))
    expected = {
        "align.json": ALIGN_JSON,
        "align.csv": "layer,mean_difference\n0,2.0\n",
        "dist.json": DIST_JSON,
        "dist.csv": "layer,weight_l1_mean,activation_l2_mean\n0,10.0,2.0\n1,10.0,2.0\n",
    }
    for name, text in expected.items():
        emit_report(align if name.startswith("align") else dist, tmp_path / name)
        assert (tmp_path / name).read_bytes() == text.encode()


def test_report_means_are_summed_in_order():
    # Summed in order, 1e16 + 1.0 rounds back to 1e16 at every step; a
    # compensated sum (builtin sum from Python 3.12 on) keeps the six ones.
    model = flat_model([[1.0, 1.0], [1.0, 1.0]])
    stats = flat_stats(model, [1.0, 0.0])
    stats["layer.0.q"] = SubModuleStats(v=np.array([1e16, 0.0]), l1=np.array([1e16, 0.0]), token_count=4)
    assert distribution_summary(model, stats)["layers"][0]["activation_l2_mean"] == 1428571428571428.5
