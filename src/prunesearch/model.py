"""Minimal decoder-only transformer with per-sub-module input capture.

Each block computes x <- x + Attn(RMSNorm(x)); x <- x + MLP(RMSNorm(x)) with
causal softmax attention and a SwiGLU MLP. Positions use learned absolute
embeddings. The seven linear maps per block (q, k, v, o, gate, up, down) are
the prunable sub-modules; embeddings, norm gains, and the tied output head are
never pruned. Weight matrices are stored input x output and applied as x @ W.

Forward passes are pure functions of (weights, tokens); weights are treated as
immutable after construction.
"""

import functools
from dataclasses import dataclass

import numpy as np

RMSNORM_EPS = 1e-6
INIT_STD = 0.02

# Prunable linear maps inside one block, in canonical order.
SUB_MODULES = ("q", "k", "v", "o", "gate", "up", "down")


def sub_module_key(layer: int, name: str) -> str:
    return f"layer.{layer}.{name}"


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    max_seq_len: int

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )


@dataclass(eq=False)
class LayerWeights:
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    o: np.ndarray
    gate: np.ndarray
    up: np.ndarray
    down: np.ndarray
    attn_norm: np.ndarray
    mlp_norm: np.ndarray


@dataclass(eq=False)
class ModelWeights:
    """The in-memory model; tensor_shapes gives every tensor's name and shape."""

    config: ModelConfig
    token_embedding: np.ndarray  # also the tied output head
    position_embedding: np.ndarray
    layers: list[LayerWeights]
    final_norm: np.ndarray


@dataclass(eq=False)
class ForwardTrace:
    final_hidden: np.ndarray  # T x d_model, taken after the final norm, before the head
    captured_inputs: dict[str, np.ndarray] | None  # sub-module key -> T x in_features


@functools.lru_cache(maxsize=8)
def _layout(config: ModelConfig) -> tuple[tuple[str, int | None, str, tuple[int, ...]], ...]:
    """(name, layer index or None, attribute, stored shape) of every model
    tensor, in file order.

    This is the one description of the model layout: embeddings, then per
    layer the seven sub-modules (input x output) and the two norm gains, then
    the final norm. Initialisation draws in this order too. It is built once
    per config, so the functions below walk it without formatting or parsing
    a tensor name.
    """
    d, f = config.d_model, config.d_ff
    layer = {"q": (d, d), "k": (d, d), "v": (d, d), "o": (d, d),
             "gate": (d, f), "up": (d, f), "down": (f, d), "attn_norm": (d,), "mlp_norm": (d,)}
    return (
        ("token_embedding", None, "token_embedding", (config.vocab_size, d)),
        ("position_embedding", None, "position_embedding", (config.max_seq_len, d)),
        *((sub_module_key(i, attr), i, attr, shape)
          for i in range(config.n_layers) for attr, shape in layer.items()),
        ("final_norm", None, "final_norm", (d,)),
    )


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> stored shape of every model tensor, in file order."""
    return {name: shape for name, _, _, shape in _layout(config)}


def sub_module_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """The prunable entries of tensor_shapes: key -> (inputs, outputs)."""
    return {name: shape for name, _, attr, shape in _layout(config) if attr in SUB_MODULES}


def model_tensors(weights: ModelWeights) -> dict[str, np.ndarray]:
    """Every tensor of the model under its tensor_shapes name, in file order."""
    return {
        name: getattr(weights if layer is None else weights.layers[layer], attr)
        for name, layer, attr, _ in _layout(weights.config)
    }


def model_from_tensors(config: ModelConfig, tensors: dict[str, np.ndarray]) -> ModelWeights:
    """The inverse of model_tensors; the arrays are shared, not copied."""
    top: dict[str, np.ndarray] = {}
    layers: list[dict[str, np.ndarray]] = [{} for _ in range(config.n_layers)]
    for name, layer, attr, _ in _layout(config):
        (top if layer is None else layers[layer])[attr] = tensors[name]
    return ModelWeights(config=config, layers=[LayerWeights(**layer) for layer in layers], **top)


def init_model(config: ModelConfig, seed: int) -> ModelWeights:
    """Draw every embedding/linear weight i.i.d. from N(0, 0.02^2), seeded.

    Norm gains start at 1. Identical (config, seed) pairs produce bit-identical
    weights; matrices are drawn in tensor_shapes order.
    """
    rng = np.random.default_rng(seed)
    tensors = {
        name: rng.normal(0.0, INIT_STD, size=shape) if len(shape) == 2 else np.ones(shape)
        for name, shape in tensor_shapes(config).items()
    }
    return model_from_tensors(config, tensors)


def rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + RMSNORM_EPS) * gain


def silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, max-subtracted for stability.

    Rows may contain -inf (masked positions); those get probability exactly
    zero without taking exp of them. The argument is not written to.
    """
    keep = logits != -np.inf
    probs = np.zeros_like(logits)
    np.subtract(logits, logits.max(axis=-1, keepdims=True), out=probs, where=keep)
    np.exp(probs, out=probs, where=keep)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


@functools.lru_cache(maxsize=64)
def _future_mask(t: int) -> np.ndarray:
    # True above the diagonal: the keys each query of a length-t sequence must
    # not see. Read-only and kept for the 64 most recently used lengths, t*t
    # bytes each (about 1 MB for 32 lengths up to 256).
    future = np.triu(np.ones((t, t), dtype=bool), k=1)
    future.flags.writeable = False
    return future


def _causal_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int) -> np.ndarray:
    t, d = q.shape
    hd = d // n_heads
    # (T, d) -> (H, T, hd)
    qh = q.reshape(t, n_heads, hd).transpose(1, 0, 2)
    kh = k.reshape(t, n_heads, hd).transpose(1, 0, 2)
    vh = v.reshape(t, n_heads, hd).transpose(1, 0, 2)
    logits = qh @ kh.transpose(0, 2, 1)
    logits /= np.sqrt(hd)
    np.copyto(logits, -np.inf, where=_future_mask(t))
    probs = softmax_rows(logits)
    mixed = probs @ vh  # (H, T, hd)
    return mixed.transpose(1, 0, 2).reshape(t, d)


def forward(weights: ModelWeights, tokens, capture: bool = False) -> ForwardTrace:
    """Run one sequence through the model.

    With capture=True the exact input matrix fed to each prunable sub-module is
    recorded under its "layer.L.name" key (q, k and v share one input block, as
    do gate and up). Capturing does not change the computation.
    """
    cfg = weights.config
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("tokens must be a non-empty 1-D sequence of ids")
    if ids.size > cfg.max_seq_len:
        raise ValueError(f"sequence length {ids.size} exceeds max_seq_len {cfg.max_seq_len}")
    if (ids < 0).any() or (ids >= cfg.vocab_size).any():
        raise ValueError(f"token id out of range [0, {cfg.vocab_size})")

    t = ids.size
    x = weights.token_embedding[ids] + weights.position_embedding[:t]
    captured: dict[str, np.ndarray] | None = {} if capture else None

    for i, layer in enumerate(weights.layers):
        h = rmsnorm(x, layer.attn_norm)
        if captured is not None:
            for name in ("q", "k", "v"):
                captured[sub_module_key(i, name)] = h
        mixed = _causal_attention(h @ layer.q, h @ layer.k, h @ layer.v, cfg.n_heads)
        if captured is not None:
            captured[sub_module_key(i, "o")] = mixed
        x = x + mixed @ layer.o

        h = rmsnorm(x, layer.mlp_norm)
        if captured is not None:
            captured[sub_module_key(i, "gate")] = h
            captured[sub_module_key(i, "up")] = h
        inner = silu(h @ layer.gate) * (h @ layer.up)
        if captured is not None:
            captured[sub_module_key(i, "down")] = inner
        x = x + inner @ layer.down

    return ForwardTrace(final_hidden=rmsnorm(x, weights.final_norm), captured_inputs=captured)


def final_hidden_batch(weights: ModelWeights, calib) -> list[np.ndarray]:
    """Final hidden states for every calibration sequence, in input order."""
    sequences = list(calib.sequences)
    if not sequences:
        raise ValueError("empty calibration set")
    return [forward(weights, seq).final_hidden for seq in sequences]
