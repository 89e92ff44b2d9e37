"""Mask construction under sparsity constraints and mask application.

Score matrices and masks are laid out output x input: row i collects the
weights feeding output neuron i. A sparsity spec splits each row into aligned
groups of `width` consecutive columns and keeps `keep` entries of each group:
an unstructured ratio is one group per row, an n:m pattern is groups of m that
keep n. Ties are broken toward the lower column index, so masks are
deterministic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .metric import MetricKind, check_stats, score
from .model import ModelWeights, model_from_tensors, model_tensors, sub_module_shapes


@dataclass(frozen=True)
class Unstructured:
    """Drop a fraction `ratio` of each row: one group of width cols per row."""

    ratio: float

    def __post_init__(self):
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"sparsity ratio must lie in [0, 1], got {self.ratio}")

    def groups(self, cols: int) -> tuple[int, int]:
        """(cols, cols - floor(ratio*cols)), where ratio*cols is first snapped
        to the nearest integer when it lies within 1e-9 of it, so float error
        cannot change the count (0.29*100 is 28.999999999999996 and drops 29)."""
        drop = self.ratio * cols
        if abs(drop - round(drop)) <= 1e-9:
            drop = round(drop)
        return cols, cols - math.floor(drop)


@dataclass(frozen=True)
class SemiStructured:
    """Keep n of every aligned group of m consecutive columns (n:m)."""

    n: int
    m: int

    def __post_init__(self):
        if not 0 < self.n <= self.m:
            raise ValueError(f"n:m pattern requires 0 < n <= m, got {self.n}:{self.m}")

    def groups(self, cols: int) -> tuple[int, int]:
        """(m, n); cols must be a multiple of m."""
        if cols % self.m != 0:
            raise ValueError(f"columns ({cols}) not divisible by group size {self.m}")
        return self.m, self.n


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


MaskSet = dict[str, Mask]


def build_mask(scores: np.ndarray, spec: SparsitySpec) -> Mask:
    """Keep the highest-scoring entries allowed by the sparsity constraint.

    spec.groups(cols) gives (width, keep): each row of the 2-D scores is split
    into aligned groups of `width` consecutive columns, and each group keeps
    its `keep` largest entries. Equal scores keep the lower column index
    (stable descending sort).
    """
    rows, cols = scores.shape
    width, keep = spec.groups(cols)
    grouped = scores.reshape(-1, width)
    order = np.argsort(-grouped, axis=1, kind="stable")
    bits = np.zeros(grouped.shape, dtype=bool)
    np.put_along_axis(bits, order[:, :keep], True, axis=1)
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
