"""Minimal decoder-only transformer that shows each sub-module input as it is made.

Each block computes x <- x + Attn(RMSNorm(x)); x <- x + MLP(RMSNorm(x)) with
causal softmax attention and a SwiGLU MLP. Positions use learned absolute
embeddings. The seven linear maps per block (q, k, v, o, gate, up, down) are
the prunable sub-modules; embeddings, norm gains, and the tied output head are
never pruned. Weight matrices are stored input x output and applied as x @ W.

Forward passes are pure functions of (weights, tokens); weights are treated as
immutable after construction. A forward hands each sub-module input block to
an optional observer as soon as the block exists, and keeps none of them.
"""

import collections
import contextlib
import functools
from collections.abc import Callable, Iterator
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
    """The in-memory model: its config and every tensor as an array under its
    tensor_shapes name, in file order ("token_embedding",
    "position_embedding", "layer.L.q" ... "layer.L.mlp_norm", "final_norm").
    The token embedding is also the tied output head.

    Tensors are float32, as in the file, from init_model and read_model
    alike; arithmetic widens them to float64 where it reads them, which is
    exact, so a float64 copy of a model gives the same bits everywhere."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]


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
    weights; matrices are drawn in float64 in tensor_shapes order and rounded
    to float32, so a model built here equals its file copy bit for bit.
    """
    rng = np.random.default_rng(seed)
    tensors = {
        name: (rng.normal(0.0, INIT_STD, size=shape) if len(shape) == 2 else np.ones(shape)).astype(np.float32)
        for name, shape in tensor_shapes(config).items()
    }
    return ModelWeights(config, tensors)


def rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    # The sum over the width is what ndarray.mean sums, and the same division
    # by the width follows, without mean's Python-level bookkeeping. The
    # squares' buffer then takes the output: one temporary of x's size.
    out = x * x
    scale = np.add.reduce(out, axis=-1, keepdims=True)
    scale /= x.shape[-1]
    scale += RMSNORM_EPS
    np.sqrt(scale, out=scale)
    np.divide(x, scale, out=out)
    out *= gain
    return out


@contextlib.contextmanager
def overflow_is_an_error(what: str) -> Iterator[None]:
    """Float64 overflow inside the block raises a ValueError naming `what`,
    at the first operation that overflows, in place of numpy's warning and an
    inf that a later step can turn into a plausible number (x / inf is 0).
    Numpy checks the floating-point flags after every operation anyway, so
    the block runs at the same speed; a nested errstate, as in silu, still
    decides for its own operations."""
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise ValueError(f"{what} overflows float64 ({exc}): the model's values are too large") from None


def silu(x: np.ndarray) -> np.ndarray:
    # One temporary: 1 + exp(-x) is formed in place and x divided into it.
    # exp(-x) overflows to inf below x of about -709, and x / (1 + inf) is
    # then -0.0, the exact limit: the overflow is expected, not reported.
    out = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(x, out, out=out)


def softmax_rows(logits: np.ndarray, future: np.ndarray) -> np.ndarray:
    """Causal row-wise softmax over the last axis, max-subtracted for
    stability, written over `logits`, which is returned.

    future is _future_mask(t) for logits of t keys, broadcast over the
    leading axes: True above the diagonal, at the keys a query must not see.
    Those entries get probability exactly +0.0; neither the row max nor exp
    reads or writes them before they are zeroed.
    """
    visible = _visible_mask(future.shape[-1])
    top = np.maximum.reduce(logits, axis=-1, keepdims=True, where=visible, initial=-np.inf)
    np.subtract(logits, top, out=logits, where=visible)
    np.exp(logits, out=logits, where=visible)
    np.copyto(logits, 0.0, where=future)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits


@functools.lru_cache(maxsize=64)
def _future_mask(t: int) -> np.ndarray:
    # True above the diagonal: the keys each query of a length-t sequence must
    # not see. Read-only and kept for the 64 most recently used lengths, t*t
    # bytes each (about 1 MB for 32 lengths up to 256), as is _visible_mask.
    future = np.triu(np.ones((t, t), dtype=bool), k=1)
    future.flags.writeable = False
    return future


@functools.lru_cache(maxsize=64)
def _visible_mask(t: int) -> np.ndarray:
    # The complement of _future_mask(t): the diagonal and below.
    visible = ~_future_mask(t)
    visible.flags.writeable = False
    return visible


def _causal_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int) -> np.ndarray:
    t, d = q.shape
    hd = d // n_heads
    # (T, d) -> (H, T, hd)
    qh = q.reshape(t, n_heads, hd).transpose(1, 0, 2)
    kh = k.reshape(t, n_heads, hd).transpose(1, 0, 2)
    vh = v.reshape(t, n_heads, hd).transpose(1, 0, 2)
    future = _future_mask(t)
    mixed = np.empty((t, n_heads, hd))
    # Heads in groups, so that the logits (turned into probabilities in
    # place) held at once are at most n_heads x ATTENTION_ROWS x t entries;
    # up to ATTENTION_ROWS tokens all heads are one group. Every head is its
    # own matrix product, softmax and mix in any grouping, so the bits do not
    # depend on it.
    group = max(1, n_heads * ATTENTION_ROWS // t)
    for first in range(0, n_heads, group):
        heads = slice(first, first + group)
        logits = qh[heads] @ kh[heads].transpose(0, 2, 1)
        logits /= np.sqrt(hd)
        mixed[:, heads] = (softmax_rows(logits, future) @ vh[heads]).transpose(1, 0, 2)
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


def forward(weights: ModelWeights, tokens,
            observe: Callable[[tuple[str, ...], np.ndarray], None] = lambda keys, block: None) -> np.ndarray:
    """The T x d_model final hidden states of one sequence, after the final
    norm, before the head.

    observe(keys, block) is called as soon as each distinct input block of the
    prunable sub-modules exists: per layer the keys (q, k, v), (o,), (gate, up)
    and (down,), as "layer.L.name", each with the exact T x in_features matrix
    they read, which observe must not write to. Observing does not change the
    computation. A float64 overflow in the pass, observe included, is a
    ValueError (overflow_is_an_error).
    """
    cfg = weights.config
    ids = token_ids(cfg, tokens)
    t = ids.size
    tensors = weights.tensors
    with overflow_is_an_error("the forward pass"):
        # The only sum of two weight tensors: widened first. Everywhere else a
        # float64 activation meets the weights, and numpy widens them exactly.
        x = tensors["token_embedding"][ids].astype(np.float64) + tensors["position_embedding"][:t]

        for keys in _block_keys(cfg):
            w = _Block(*(tensors[name] for name in keys))
            h = rmsnorm(x, w.attn_norm)
            observe((keys.q, keys.k, keys.v), h)
            mixed = _causal_attention(h @ w.q, h @ w.k, h @ w.v, cfg.n_heads)
            observe((keys.o,), mixed)
            x = x + mixed @ w.o

            h = rmsnorm(x, w.mlp_norm)
            observe((keys.gate, keys.up), h)
            inner = silu(h @ w.gate)
            inner *= h @ w.up
            observe((keys.down,), inner)
            x = x + inner @ w.down

        return rmsnorm(x, tensors["final_norm"])


def final_hidden_batch(weights: ModelWeights, calib) -> list[np.ndarray]:
    """Final hidden states for every calibration sequence, in input order."""
    return [forward(weights, seq) for seq in calib.sequences]
