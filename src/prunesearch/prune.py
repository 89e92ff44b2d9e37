"""Mask construction under sparsity constraints and mask application.

Score matrices and masks are laid out output x input: row i collects the
weights feeding output neuron i. A sparsity spec splits each row into aligned
groups of `width` consecutive columns and keeps `keep` entries of each group:
an unstructured ratio is one group per row, an n:m pattern is groups of m that
keep n. Ties are broken toward the lower column index, so masks are
deterministic. A NaN score ranks below every number, so it is dropped first,
and among NaNs the lower column is kept first; -0.0 and 0.0 tie.
"""

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .metric import Magnitude, MetricKind, SubModuleStats, activation_factor, check_stats, score, weight_factor
from .model import ModelConfig, ModelWeights, sub_module_shapes, tensor_shapes

# Most scores one build_mask call of packed_mask_sets sorts, unless a single
# matrix is larger. A group's stack of score matrices is masked in slices of
# this size, so the stack stays about 1 MB at any model width: a whole
# 49-config group at the 2-layer fixture (64 x 32 at most), one config per
# call at d_ff 1024 x d_model 256.
MAX_SCORES_PER_CALL = 1 << 17


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
    if not text.isascii() or "_" in text:  # int() and float() would read "1_0" and "٠.5"
        raise ValueError(f"bad sparsity {text!r}; expected ASCII digits without underscores, as in 0.5 or 2:4")
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
    """Keep flags of one sub-module, output x input; True = keep.

    A Mask holds exactly one 2-D mask: the masks of a pruned model, and the
    masks a file holds. A stack of masks (build_mask's bits for a stack of
    score matrices) is a plain array, never a Mask.
    """

    bits: np.ndarray

    def __post_init__(self):
        if self.bits.ndim != 2 or self.bits.dtype != np.bool_:
            raise ValueError(f"mask bits must be a 2-D boolean array, got a {self.bits.ndim}-D {self.bits.dtype} array")


MaskSet = dict[str, Mask]


def build_mask(scores: np.ndarray, spec: SparsitySpec) -> np.ndarray:
    """Bool keep flags (True = keep) of the highest-scoring entries allowed
    by the sparsity constraint, shaped like the scores.

    spec.groups(cols) gives (width, keep): each row of the output x input
    scores is split into aligned groups of `width` consecutive columns, and
    each group keeps its `keep` largest entries. Equal scores keep the lower
    column index. A NaN score ranks below every number, so it is dropped
    first, and among NaNs the lower column is kept first; -0.0 and 0.0 tie.
    Scores may carry leading batch axes (a stack of matrices): every group is
    masked on its own, so the bits of a stack equal build_mask on each of its
    slices. The scores are not modified and the bits are a new array.

    A group keeps the entries that score at least its keep-th largest score,
    read from a value sort. That set is the answer unless the keep-th and the
    next score tie or the keep-th is NaN; only such groups are masked again
    by a stable descending argsort, which applies the tie and NaN order
    above.
    """
    if scores.ndim < 2:
        raise ValueError(f"scores must be output x input, got shape {scores.shape}")
    width, keep = spec.groups(scores.shape[-1])
    neg = -scores.reshape(-1, width)
    if keep in (0, width):
        return np.full(scores.shape, keep == width)
    ranked = np.sort(neg, axis=1)
    last, first_out = ranked[:, keep - 1], ranked[:, keep]
    bits = neg <= last[:, None]
    tied = np.flatnonzero((last == first_out) | np.isnan(last))
    if tied.size:
        order = np.argsort(neg[tied], axis=1, kind="stable")
        stable = np.zeros((tied.size, width), dtype=bool)
        np.put_along_axis(stable, order[:, :keep], True, axis=1)
        bits[tied] = stable
    return bits.reshape(scores.shape)


def apply_mask(w: np.ndarray, mask: Mask) -> np.ndarray:
    """Copy kept entries exactly; dropped entries become exactly zero."""
    if w.shape != mask.bits.shape:
        raise ValueError(f"shape mismatch: weights {w.shape} vs mask {mask.bits.shape}")
    return np.where(mask.bits, w, 0.0)


def packed_mask_sets(
    weights: ModelWeights,
    stats: dict[str, SubModuleStats],
    kinds: Sequence[MetricKind],
    spec: SparsitySpec,
) -> Iterator[tuple[int, bytes]]:
    """(index into kinds, packed mask set) for every kind, one weight side at
    a time. A packed mask set is np.packbits of each sub-module's mask in
    sub-module order: it identifies the mask set exactly for the model's
    shapes, and unpack_mask_set turns it back into masks.

    Kinds are grouped by (alpha, f1); magnitude is a group of its own. Per
    group and sub-module the weight factor is computed once and multiplied by
    the stacked activation factors of the members (each computed once per
    sub-module and (beta, f2)), and the stack is masked by build_mask calls of
    at most MAX_SCORES_PER_CALL scores. Every score is the product that
    `score` forms from the same two operands, so each mask set is bit for bit
    the one build_mask(score(...)) gives. Only the packed bits of one group
    are kept: params/8 bytes per member.
    """
    shapes = sub_module_shapes(weights.config)
    check_stats(stats, shapes)
    # Stored layout is input x output; score and mask rows compare the
    # weights feeding one output neuron.
    w_oi = {key: weights.tensors[key].T for key in shapes}
    groups: dict[object, list[int]] = {}
    for i, kind in enumerate(kinds):
        # Magnitude ignores the activation side and is a group of its own.
        weight_side = kind if isinstance(kind, Magnitude) else (kind.alpha, kind.f1)
        groups.setdefault(weight_side, []).append(i)
    act: dict[tuple, np.ndarray] = {}
    for members in groups.values():
        lead = kinds[members[0]]
        packed = []
        for key, w in w_oi.items():
            if isinstance(lead, Magnitude):
                # |W| times a unit activation side: x * 1.0 is exactly x.
                factor = score(w, stats[key], lead)
                side = np.ones((len(members), w.shape[1]))
            else:
                factor = weight_factor(w, lead)
                for cfg in (kinds[i] for i in members):
                    if (key, cfg.beta, cfg.f2) not in act:
                        act[key, cfg.beta, cfg.f2] = activation_factor(stats[key], cfg)
                side = np.array([act[key, kinds[i].beta, kinds[i].f2] for i in members])
            # w is a transposed view, so the factor comes out F-ordered; a
            # C-ordered factor makes C-ordered score stacks, which build_mask
            # reshapes without a copy.
            factor = np.ascontiguousarray(factor)
            per_call = max(1, MAX_SCORES_PER_CALL // w.size)
            slices = []
            for start in range(0, len(members), per_call):
                bits = build_mask(factor * side[start:start + per_call, None, :], spec)
                slices.append(np.packbits(bits.reshape(len(bits), -1), axis=1))
            packed.append(np.concatenate(slices))
        for i, row in zip(members, np.concatenate(packed, axis=1)):
            yield i, row.tobytes()


def unpack_mask_set(packed: bytes, config: ModelConfig) -> MaskSet:
    """The masks of one packed mask set of a model with this config."""
    shapes = sub_module_shapes(config)
    sizes = [-(-inputs * outputs // 8) for inputs, outputs in shapes.values()]
    if len(packed) != sum(sizes):
        raise ValueError(f"packed mask set holds {len(packed)} bytes, the model needs {sum(sizes)}")
    flags = np.unpackbits(np.frombuffer(packed, np.uint8)).view(np.bool_)
    masks: MaskSet = {}
    offset = 0
    for (key, (inputs, outputs)), size in zip(shapes.items(), sizes):
        masks[key] = Mask(bits=flags[offset:offset + inputs * outputs].reshape(outputs, inputs))
        offset += 8 * size
    return masks


def pruned_tensors(weights: ModelWeights, masks: MaskSet) -> Iterator[tuple[str, np.ndarray]]:
    """(name, tensor) of the pruned copy, in file order (tensor_shapes): each
    masked sub-module keeps its kept entries exactly and zeroes the rest, and
    is made only when it is reached, so a consumer that drops each one holds
    at most one. Embeddings, norm gains and unmasked sub-modules are the
    input's arrays, which stay untouched."""
    for name in tensor_shapes(weights.config):
        w = weights.tensors[name]
        yield name, w if name not in masks else np.ascontiguousarray(apply_mask(w.T, masks[name]).T)


def apply_masks(weights: ModelWeights, masks: MaskSet) -> ModelWeights:
    """The pruned copy of pruned_tensors, held whole."""
    return ModelWeights(weights.config, dict(pruned_tensors(weights, masks)))


def prune_masks(weights: ModelWeights, stats: dict, kind: MetricKind, spec: SparsitySpec) -> MaskSet:
    """The masks of every prunable sub-module under one config, in output x
    input orientation. They come from packed_mask_sets, the rule that search
    and the exhaustive oracle use."""
    [(_, packed)] = packed_mask_sets(weights, stats, [kind], spec)
    return unpack_mask_set(packed, weights.config)


def prune_model(
    weights: ModelWeights,
    stats: dict,
    kind: MetricKind,
    spec: SparsitySpec,
) -> tuple[ModelWeights, MaskSet]:
    """Score and mask every prunable sub-module independently.

    Returns a pruned copy (the input weights stay untouched) plus the masks of
    prune_masks. Embeddings and norm gains are shared, never pruned.
    """
    masks = prune_masks(weights, stats, kind, spec)
    return apply_masks(weights, masks), masks
