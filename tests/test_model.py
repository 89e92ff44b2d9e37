import numpy as np
import pytest

from prunesearch import model
from prunesearch.model import (
    ModelConfig,
    ModelWeights,
    final_hidden_batch,
    forward,
    init_model,
    rmsnorm,
    silu,
    softmax_rows,
    sub_module_key,
    sub_module_shapes,
)
from prunesearch.objective import CalibrationSet, collect_activation_stats


def _weight_bytes(weights):
    return b"".join(array.tobytes() for array in weights.tensors.values())


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=8, d_model=30, n_layers=1, n_heads=4, d_ff=8, max_seq_len=8)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=0, d_model=8, n_layers=1, n_heads=2, d_ff=8, max_seq_len=8)


def test_init_deterministic(mini_config):
    a = init_model(mini_config, 42)
    b = init_model(mini_config, 42)
    assert _weight_bytes(a) == _weight_bytes(b)


def test_init_seed_changes_weights(mini_config):
    a = init_model(mini_config, 42)
    b = init_model(mini_config, 43)
    assert _weight_bytes(a) != _weight_bytes(b)


def test_init_rounds_every_tensor_to_float32(mini_weights):
    assert all(array.dtype == np.float32 for array in mini_weights.tensors.values())


def test_init_norm_gains_are_ones(mini_weights):
    assert np.array_equal(mini_weights.tensors["final_norm"], np.ones(mini_weights.config.d_model))
    for i in range(mini_weights.config.n_layers):
        gain = mini_weights.tensors[sub_module_key(i, "attn_norm")]
        assert np.array_equal(gain, np.ones_like(gain))


def test_forward_deterministic(mini_weights, mini_calib):
    seq = mini_calib.sequences[0]
    a = forward(mini_weights, seq)
    b = forward(mini_weights, seq)
    assert a.tobytes() == b.tobytes()


def test_forward_validates_tokens(mini_weights):
    vocab = mini_weights.config.vocab_size
    with pytest.raises(ValueError):
        forward(mini_weights, [vocab])
    with pytest.raises(ValueError):
        forward(mini_weights, [-1])
    with pytest.raises(ValueError):
        forward(mini_weights, [])
    with pytest.raises(ValueError):
        forward(mini_weights, [0] * (mini_weights.config.max_seq_len + 1))


def _observed(weights, tokens):
    """forward's output and its observe calls, as (keys, block) in call order."""
    calls = []
    return forward(weights, tokens, observe=lambda keys, block: calls.append((keys, block))), calls


def _inputs(calls):
    """Sub-module key -> the block observed for it, in call order."""
    return {key: block for keys, block in calls for key in keys}


def test_observe_counts(mini_weights, mini_calib):
    _, calls = _observed(mini_weights, mini_calib.sequences[0])
    inputs = _inputs(calls)
    assert len(inputs) == 7 * mini_weights.config.n_layers
    t = len(mini_calib.sequences[0])
    assert inputs[sub_module_key(0, "q")].shape == (t, mini_weights.config.d_model)
    assert inputs[sub_module_key(0, "down")].shape == (t, mini_weights.config.d_ff)
    # One call per distinct block, with every key that reads it.
    assert [keys for keys, _ in calls] == [
        tuple(sub_module_key(i, name) for name in names)
        for i in range(mini_weights.config.n_layers)
        for names in (("q", "k", "v"), ("o",), ("gate", "up"), ("down",))
    ]


def test_observe_does_not_change_output(mini_weights, mini_calib):
    seq = mini_calib.sequences[0]
    observed, _ = _observed(mini_weights, seq)
    assert forward(mini_weights, seq).tobytes() == observed.tobytes()


def test_attention_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 6, 6))
    future = np.triu(np.ones((6, 6), dtype=bool), k=1)
    masked = np.where(future, -np.inf, logits)
    before = masked.copy()
    probs = softmax_rows(masked)
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones((3, 6)), atol=1e-9)
    assert (probs[:, 0, 1:] == 0.0).all()  # masked positions get zero weight
    assert masked.tobytes() == before.tobytes()  # the argument is not written to


def _reference_attention(q, k, v, n_heads):
    # The plain formulation: write -inf over the future, exp every entry,
    # divide by the row sums.
    t, d = q.shape
    hd = d // n_heads
    qh, kh, vh = (a.reshape(t, n_heads, hd).transpose(1, 0, 2) for a in (q, k, v))
    logits = qh @ kh.transpose(0, 2, 1) / np.sqrt(hd)
    future = np.triu(np.ones((t, t), dtype=bool), k=1)
    logits = np.where(future, -np.inf, logits)
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=-1, keepdims=True)
    return (probs @ vh).transpose(1, 0, 2).reshape(t, d)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "t, d, heads, scale",
    [(1, 8, 2, 1.0), (5, 12, 3, 1.0), (16, 16, 2, 1.0), (37, 32, 4, 1.0), (64, 32, 4, 1.0),
     (64, 32, 4, 30.0), (23, 24, 1, 30.0), (64, 64, 8, 30.0),
     # Above model.ATTENTION_ROWS the heads run in groups, the last one short.
     (65, 64, 8, 1.0), (128, 64, 8, 30.0), (200, 64, 8, 1.0), (256, 256, 8, 1.0)],
)
def test_causal_attention_is_bit_identical_to_reference(t, d, heads, scale):
    rng = np.random.default_rng(t * 1000 + d + heads)
    q, k, v = (rng.normal(size=(t, d)) for _ in range(3))
    q *= scale  # logits scaled too
    expected = _reference_attention(q, k, v, heads)
    assert model._causal_attention(q, k, v, heads).tobytes() == expected.tobytes()


def _assert_forward_matches_reference_attention(weights, t, monkeypatch):
    tokens = np.random.default_rng(t).integers(0, weights.config.vocab_size, size=t)
    actual, actual_calls = _observed(weights, tokens)
    monkeypatch.setattr(model, "_causal_attention", _reference_attention)
    expected, expected_calls = _observed(weights, tokens)
    assert actual.tobytes() == expected.tobytes()
    actual_inputs = _inputs(actual_calls)
    for key, value in _inputs(expected_calls).items():
        assert actual_inputs[key].tobytes() == value.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1, 9, 16])
def test_forward_is_bit_identical_to_reference_attention(mini_weights, monkeypatch, t):
    _assert_forward_matches_reference_attention(mini_weights, t, monkeypatch)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [65, 130, 160])
def test_long_forward_is_bit_identical_to_reference_attention(monkeypatch, t):
    # 8 heads over sequences past ATTENTION_ROWS: 7, 3 and 3 heads per group.
    weights = init_model(ModelConfig(vocab_size=64, d_model=32, n_layers=2, n_heads=8, d_ff=48, max_seq_len=160), 5)
    _assert_forward_matches_reference_attention(weights, t, monkeypatch)


@pytest.mark.parametrize("config, t", [
    (None, 16),  # the mini fixture
    (ModelConfig(vocab_size=128, d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=64), 64),
    (ModelConfig(vocab_size=64, d_model=32, n_layers=2, n_heads=8, d_ff=48, max_seq_len=160), 130),
], ids=["mini", "acceptance", "long-8-heads"])
def test_float32_forward_is_bit_identical_to_its_float64_copy(mini_weights, config, t):
    drawn = mini_weights if config is None else init_model(config, 42)
    weights, wide = (ModelWeights(drawn.config, {name: w.astype(dtype) for name, w in drawn.tensors.items()})
                     for dtype in (np.float32, np.float64))
    tokens = np.random.default_rng(t).integers(0, weights.config.vocab_size, size=t)
    actual, actual_calls = _observed(weights, tokens)
    expected, expected_calls = _observed(wide, tokens)
    assert actual.dtype == np.float64
    assert actual.tobytes() == expected.tobytes()
    actual_inputs = _inputs(actual_calls)
    assert list(actual_inputs) == list(_inputs(expected_calls))
    for key, value in _inputs(expected_calls).items():
        assert actual_inputs[key].tobytes() == value.tobytes()


@pytest.mark.parametrize("t, heads, groups", [(64, 8, [8]), (65, 8, [7, 1]), (256, 8, [2, 2, 2, 2]), (256, 2, [1, 1])])
def test_attention_holds_the_logits_of_a_head_group_at_a_time(monkeypatch, t, heads, groups):
    # At most n_heads x ATTENTION_ROWS x t logits at once, as many as
    # ATTENTION_ROWS query rows of every head.
    seen = []
    monkeypatch.setattr(model, "softmax_rows", lambda logits: seen.append(logits.shape) or softmax_rows(logits))
    q = np.random.default_rng(t).normal(size=(t, 8 * heads))
    model._causal_attention(q, q, q, heads)
    assert seen == [(g, t, t) for g in groups]


@pytest.mark.filterwarnings("error")
def test_huge_linear_weights_run_without_a_warning(mini_weights, mini_calib):
    # Linear weights x1e10 (a flipped float32 exponent bit gets that far) push
    # silu's exp(-x) past float64; x / (1 + inf) is the exact limit -0.0.
    huge = ModelWeights(mini_weights.config, {
        name: w * 1e10 if name in sub_module_shapes(mini_weights.config) else w
        for name, w in mini_weights.tensors.items()
    })
    assert np.isfinite(forward(huge, mini_calib.sequences[0])).all()
    stats = collect_activation_stats(huge, mini_calib)
    assert all(np.isfinite(entry.v).all() and np.isfinite(entry.l1).all() for entry in stats.values())
    x = np.array([-1e9, -710.0, -1.0, 0.0, 1.0, 1e9])
    with np.errstate(over="ignore"):
        expected = x / (1.0 + np.exp(-x))
    assert silu(x).tobytes() == expected.tobytes()


def test_rmsnorm_unit_gain_property():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 16))
    y = rmsnorm(x, np.ones(16))
    rms = np.sqrt((y * y).mean(axis=-1))
    np.testing.assert_allclose(rms, np.ones(10), atol=1e-6)


def test_causal_masking_exact(mini_weights):
    rng = np.random.default_rng(4)
    vocab = mini_weights.config.vocab_size
    tokens = rng.integers(0, vocab, size=12)
    altered = tokens.copy()
    altered[8:] = (altered[8:] + 1) % vocab
    a = forward(mini_weights, tokens)
    b = forward(mini_weights, altered)
    assert np.array_equal(a[:8], b[:8])
    assert not np.array_equal(a[8:], b[8:])


def test_final_hidden_batch_order(mini_weights, mini_calib):
    hidden = final_hidden_batch(mini_weights, mini_calib)
    assert len(hidden) == len(mini_calib.sequences)
    reordered = CalibrationSet(sequences=tuple(reversed(mini_calib.sequences)))
    flipped = final_hidden_batch(mini_weights, reordered)
    for a, b in zip(hidden, reversed(flipped)):
        assert np.array_equal(a, b)
