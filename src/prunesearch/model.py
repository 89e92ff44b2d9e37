"""Minimal decoder-only transformer with per-sub-module input capture.

Each block computes x <- x + Attn(RMSNorm(x)); x <- x + MLP(RMSNorm(x)) with
causal softmax attention and a SwiGLU MLP. Positions use learned absolute
embeddings. The seven linear maps per block (q, k, v, o, gate, up, down) are
the prunable sub-modules; embeddings, norm gains, and the tied output head are
never pruned. Weight matrices are stored input x output and applied as x @ W.

Forward passes are pure functions of (weights, tokens); weights are treated as
immutable after construction.
"""

import collections
import functools
from dataclasses import dataclass

import numpy as np

RMSNORM_EPS = 1e-6
INIT_STD = 0.02
# Attention works on about this many query rows of every head at once.
ATTENTION_ROWS = 64

# Prunable linear maps inside one block, in canonical order.
SUB_MODULES = ("q", "k", "v", "o", "gate", "up", "down")
# Every tensor of one block, in file order: the sub-modules, then the gains
# of the attention and MLP norms.
BLOCK_TENSORS = (*SUB_MODULES, "attn_norm", "mlp_norm")
_Block = collections.namedtuple("_Block", BLOCK_TENSORS)


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
class ModelWeights:
    """The in-memory model: its config and every tensor as a float64 array
    under its tensor_shapes name, in file order ("token_embedding",
    "position_embedding", "layer.L.q" ... "layer.L.mlp_norm", "final_norm").
    The token embedding is also the tied output head."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]


@dataclass(eq=False)
class ForwardTrace:
    final_hidden: np.ndarray  # T x d_model, taken after the final norm, before the head
    captured_inputs: dict[str, np.ndarray] | None  # sub-module key -> T x in_features


@functools.lru_cache(maxsize=8)
def _block_keys(config: ModelConfig) -> tuple[_Block, ...]:
    """Per layer, the tensor name of each BLOCK_TENSORS entry. Built once per
    config, so forward and the layout functions format no name per call."""
    return tuple(
        _Block(*(sub_module_key(i, name) for name in BLOCK_TENSORS)) for i in range(config.n_layers)
    )


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> stored shape of every model tensor, in file order.

    This is the one description of the model layout: the embeddings, then per
    layer its BLOCK_TENSORS (the sub-modules stored input x output, then the
    two norm gains), then the final norm. Initialisation draws in this order.
    """
    d, f = config.d_model, config.d_ff
    block = _Block(q=(d, d), k=(d, d), v=(d, d), o=(d, d), gate=(d, f), up=(d, f), down=(f, d),
                   attn_norm=(d,), mlp_norm=(d,))
    return {
        "token_embedding": (config.vocab_size, d),
        "position_embedding": (config.max_seq_len, d),
        **{key: shape for keys in _block_keys(config) for key, shape in zip(keys, block)},
        "final_norm": (d,),
    }


def sub_module_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """The prunable entries of tensor_shapes: key -> (inputs, outputs)."""
    shapes = tensor_shapes(config)
    return {key: shapes[key] for keys in _block_keys(config) for key in keys[:len(SUB_MODULES)]}


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
    return ModelWeights(config, tensors)


def rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + RMSNORM_EPS) * gain


def silu(x: np.ndarray) -> np.ndarray:
    # One temporary: 1 + exp(-x) is formed in place and x divided into it.
    # exp(-x) overflows to inf below x of about -709, and x / (1 + inf) is
    # then -0.0, the exact limit: the overflow is expected, not reported.
    out = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(x, out, out=out)


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
    future = _future_mask(t)
    mixed = np.empty((t, n_heads, hd))
    # Heads in groups, so that the logits and probabilities held at once are
    # at most n_heads x ATTENTION_ROWS x t entries each; up to ATTENTION_ROWS
    # tokens all heads are one group. Every head is its own matrix product,
    # softmax and mix in any grouping, so the bits do not depend on it.
    group = max(1, n_heads * ATTENTION_ROWS // t)
    for first in range(0, n_heads, group):
        heads = slice(first, first + group)
        logits = qh[heads] @ kh[heads].transpose(0, 2, 1)
        logits /= np.sqrt(hd)
        np.copyto(logits, -np.inf, where=future)
        mixed[:, heads] = (softmax_rows(logits) @ vh[heads]).transpose(1, 0, 2)
    return mixed.reshape(t, d)


def token_ids(config: ModelConfig, tokens) -> np.ndarray:
    """tokens as a 1-D int64 array; ValueError unless it is non-empty, at most
    max_seq_len long and every id is in [0, vocab_size)."""
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("tokens must be a non-empty 1-D sequence of ids")
    if ids.size > config.max_seq_len:
        raise ValueError(f"sequence length {ids.size} exceeds max_seq_len {config.max_seq_len}")
    if (ids < 0).any() or (ids >= config.vocab_size).any():
        raise ValueError(f"token id out of range [0, {config.vocab_size})")
    return ids


def forward(weights: ModelWeights, tokens, capture: bool = False) -> ForwardTrace:
    """Run one sequence through the model.

    With capture=True the exact input matrix fed to each prunable sub-module is
    recorded under its "layer.L.name" key (q, k and v share one input block, as
    do gate and up). Capturing does not change the computation.
    """
    cfg = weights.config
    ids = token_ids(cfg, tokens)
    t = ids.size
    tensors = weights.tensors
    x = tensors["token_embedding"][ids] + tensors["position_embedding"][:t]
    captured: dict[str, np.ndarray] | None = {} if capture else None

    for keys in _block_keys(cfg):
        w = _Block(*(tensors[name] for name in keys))
        h = rmsnorm(x, w.attn_norm)
        if captured is not None:
            captured[keys.q] = captured[keys.k] = captured[keys.v] = h
        mixed = _causal_attention(h @ w.q, h @ w.k, h @ w.v, cfg.n_heads)
        if captured is not None:
            captured[keys.o] = mixed
        x = x + mixed @ w.o

        h = rmsnorm(x, w.mlp_norm)
        if captured is not None:
            captured[keys.gate] = captured[keys.up] = h
        inner = silu(h @ w.gate)
        inner *= h @ w.up
        if captured is not None:
            captured[keys.down] = inner
        x = x + inner @ w.down

    return ForwardTrace(final_hidden=rmsnorm(x, tensors["final_norm"]), captured_inputs=captured)


def final_hidden_batch(weights: ModelWeights, calib) -> list[np.ndarray]:
    """Final hidden states for every calibration sequence, in input order."""
    sequences = list(calib.sequences)
    if not sequences:
        raise ValueError("empty calibration set")
    return [forward(weights, seq).final_hidden for seq in sequences]
