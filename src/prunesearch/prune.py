"""Mask construction under sparsity constraints and mask application.

Score matrices and masks are laid out output x input: row i collects the
weights feeding output neuron i, and selection happens within each row, or
within each aligned group of m consecutive columns for n:m patterns. Ties are
broken toward the lower column index, so masks are deterministic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .metric import MetricKind, check_stats, score
from .model import ModelWeights, model_from_tensors, model_tensors, sub_module_shapes


@dataclass(frozen=True)
class Unstructured:
    ratio: float

    def __post_init__(self):
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"sparsity ratio must lie in [0, 1], got {self.ratio}")


@dataclass(frozen=True)
class SemiStructured:
    n: int
    m: int

    def __post_init__(self):
        if not 0 < self.n <= self.m:
            raise ValueError(f"n:m pattern requires 0 < n <= m, got {self.n}:{self.m}")

    @property
    def ratio(self) -> float:
        return 1.0 - self.n / self.m


SparsitySpec = Unstructured | SemiStructured


def parse_sparsity(text: str) -> SparsitySpec:
    """Parse "0.5" (unstructured ratio) or "2:4" (n:m semi-structured)."""
    if ":" in text:
        left, _, right = text.partition(":")
        try:
            n, m = int(left), int(right)
        except ValueError:
            raise ValueError(f"bad n:m sparsity {text!r}") from None
        return SemiStructured(n, m)
    try:
        ratio = float(text)
    except ValueError:
        raise ValueError(f"bad sparsity {text!r}; expected a ratio in [0, 1] or n:m") from None
    return Unstructured(ratio)


@dataclass(eq=False)
class Mask:
    bits: np.ndarray  # bool, output x input; True = keep

    def __post_init__(self):
        if self.bits.ndim != 2 or self.bits.dtype != np.bool_:
            raise ValueError("mask bits must be a 2-D boolean array")

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]


MaskSet = dict[str, Mask]


def build_mask(scores: np.ndarray, spec: SparsitySpec) -> Mask:
    """Keep the highest-scoring entries allowed by the sparsity constraint.

    Unstructured: per row, drop floor(ratio*cols) entries, where ratio*cols is
    first snapped to the nearest integer when it lies within 1e-9 of it, so
    float error cannot change the count (0.29*100 is 28.999999999999996 and
    drops 29). n:m: per aligned group of m consecutive columns, keep the n
    largest. Equal scores keep the lower column index (stable descending sort).
    """
    rows, cols = scores.shape
    if isinstance(spec, Unstructured):
        drop = spec.ratio * cols
        if abs(drop - round(drop)) <= 1e-9:
            drop = round(drop)
        keep = cols - int(math.floor(drop))
        order = np.argsort(-scores, axis=1, kind="stable")
        bits = np.zeros((rows, cols), dtype=bool)
        if keep > 0:
            np.put_along_axis(bits, order[:, :keep], True, axis=1)
        return Mask(bits=bits)
    if cols % spec.m != 0:
        raise ValueError(f"columns ({cols}) not divisible by group size {spec.m}")
    grouped = scores.reshape(rows, cols // spec.m, spec.m)
    order = np.argsort(-grouped, axis=2, kind="stable")
    bits = np.zeros(grouped.shape, dtype=bool)
    np.put_along_axis(bits, order[:, :, : spec.n], True, axis=2)
    return Mask(bits=bits.reshape(rows, cols))


def apply_mask(w: np.ndarray, mask: Mask) -> np.ndarray:
    """Copy kept entries exactly; dropped entries become exactly zero."""
    if w.shape != mask.bits.shape:
        raise ValueError(f"shape mismatch: weights {w.shape} vs mask {mask.bits.shape}")
    return np.where(mask.bits, w, 0.0)


def sparsity_of(mask: Mask) -> float:
    """Fraction of dropped entries."""
    return 1.0 - float(np.count_nonzero(mask.bits)) / mask.bits.size


def prune_model(
    weights: ModelWeights,
    stats: dict,
    kind: MetricKind,
    spec: SparsitySpec,
) -> tuple[ModelWeights, MaskSet]:
    """Score and mask every prunable sub-module independently.

    Returns a pruned copy (the input weights stay untouched) plus the masks in
    output x input orientation. Embeddings and norm gains are shared, never
    pruned.
    """
    shapes = sub_module_shapes(weights.config)
    check_stats(stats, shapes)
    tensors = model_tensors(weights)
    masks: MaskSet = {}
    for key in shapes:
        # Stored layout is input x output; score and mask rows compare the
        # weights feeding one output neuron.
        w_oi = tensors[key].T
        masks[key] = mask = build_mask(score(w_oi, stats[key], kind), spec)
        tensors[key] = np.ascontiguousarray(apply_mask(w_oi, mask).T)
    return model_from_tensors(weights.config, tensors), masks
