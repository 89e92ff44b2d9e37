"""Composite weight-activation importance scores and the discrete config space.

A config picks one coefficient per side and one transformation per side:

    S_ij = [alpha(|W|)_ij * F1(|W|)_ij] * [beta(v)_j * F2(v)_j]

where W is laid out output x input (row i holds the weights feeding output
neuron i), and v_j is the L2 norm of input feature j accumulated over all
calibration tokens. Seven coefficient choices times seven transformations on
each side give 7^4 = 2401 configs. All denominators are guarded with a 1e-12
floor so every config yields finite scores.
"""

import itertools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

EPS = 1e-12

N_COEFFS = 7
N_TRANSFORMS = 7
SPACE_SIZE = N_COEFFS * N_COEFFS * N_TRANSFORMS * N_TRANSFORMS  # 2401
# The codes (alpha, beta, f1, f2) of every config, in lexicographic order.
ALL_CODES = tuple(itertools.product(range(N_COEFFS), range(N_COEFFS), range(N_TRANSFORMS), range(N_TRANSFORMS)))


class Coeff(IntEnum):
    UNIFORM = 0
    GLOBAL_SUM = 1
    FROBENIUS = 2
    GLOBAL_MEAN = 3
    ROW_WISE = 4
    COL_WISE = 5
    RELATIVE = 6


class Transform(IntEnum):
    IDENTITY = 0
    SQUARE = 1
    SQRT = 2
    LOG1P = 3
    EXP_NEG = 4
    SIGMOID = 5
    SOFTMAX = 6


def _parse_field(text: str, enum_cls):
    # ASCII only, and a code is plain digits: int() would also read "0_0" and
    # other scripts' digits ("٢"), and str.upper() maps "ı" to "I".
    token = text.strip().lower()
    if text.isascii() and token.isdigit():
        code = int(token)
        if code < 7:
            return enum_cls(code)
        raise ValueError(f"{enum_cls.__name__.lower()} code {code} out of range 0..6")
    if text.isascii() and token.upper() in enum_cls.__members__:
        return enum_cls[token.upper()]
    names = ", ".join(member.name.lower() for member in enum_cls)
    raise ValueError(f"unknown {enum_cls.__name__.lower()} {text!r}; expected one of {names} or a code 0..6")


@dataclass(frozen=True)
class MetricConfig:
    """One point of the config space: (alpha, beta, f1, f2)."""

    alpha: Coeff
    beta: Coeff
    f1: Transform
    f2: Transform

    @property
    def codes(self) -> tuple[int, int, int, int]:
        return (int(self.alpha), int(self.beta), int(self.f1), int(self.f2))

    @classmethod
    def from_codes(cls, codes) -> "MetricConfig":
        a, b, f1, f2 = codes
        return cls(Coeff(a), Coeff(b), Transform(f1), Transform(f2))

    @classmethod
    def from_string(cls, text: str) -> "MetricConfig":
        """Parse "a,b,f1,f2" where each field is a canonical name or code 0..6.

        Example: "frobenius,global_sum,identity,sqrt" or "2,1,0,2".
        """
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected 4 comma-separated fields, got {len(parts)}: {text!r}")
        return cls(
            _parse_field(parts[0], Coeff),
            _parse_field(parts[1], Coeff),
            _parse_field(parts[2], Transform),
            _parse_field(parts[3], Transform),
        )

    def __str__(self) -> str:
        return ",".join(
            (self.alpha.name.lower(), self.beta.name.lower(), self.f1.name.lower(), self.f2.name.lower())
        )


@dataclass(frozen=True)
class Magnitude:
    """Plain absolute-value scoring; activation statistics are ignored."""

    def __str__(self) -> str:
        return "magnitude"


MAGNITUDE = Magnitude()

MetricKind = MetricConfig | Magnitude


@dataclass(eq=False)
class SubModuleStats:
    """Per-input-feature activation statistics for one linear sub-module,
    checked when made: a bad field raises a ValueError that names it."""

    v: np.ndarray  # ||X_j||_2 over all calibration tokens
    l1: np.ndarray  # sum_t |X_tj| over all calibration tokens
    token_count: int

    def __post_init__(self):
        for field in ("v", "l1"):
            values = getattr(self, field)
            if not isinstance(values, np.ndarray) or values.ndim != 1 or values.dtype.kind != "f":
                raise ValueError(f"{field}: must be a 1-D float array")
            if not (np.isfinite(values) & (values >= 0.0)).all():
                raise ValueError(f"{field}: activation statistics must be finite and nonnegative")
        if self.l1.size != self.v.size:
            raise ValueError(f"l1: {self.l1.size} values, but v has {self.v.size}")
        if type(self.token_count) is not int or self.token_count < 0:  # bool is an int subclass
            raise ValueError("token_count: must be a nonnegative integer")


def weight_coefficient(w: np.ndarray, coeff: Coeff) -> np.ndarray:
    """Per-element normalizing coefficient computed from A = |w| (m x n)."""
    a = np.abs(w)
    m, n = a.shape
    if coeff is Coeff.UNIFORM:
        return np.ones_like(a)
    if coeff is Coeff.GLOBAL_SUM:
        return np.full_like(a, 1.0 / max(a.sum(), EPS))
    if coeff is Coeff.FROBENIUS:
        return np.full_like(a, 1.0 / max(float(np.sqrt((w * w).sum())), EPS))
    if coeff is Coeff.GLOBAL_MEAN:
        return np.full_like(a, (m * n) / max(a.sum(), EPS))
    row_inv = 1.0 / np.maximum(a.sum(axis=1), EPS)
    col_inv = 1.0 / np.maximum(a.sum(axis=0), EPS)
    if coeff is Coeff.ROW_WISE:
        return np.broadcast_to(row_inv[:, None], a.shape)
    if coeff is Coeff.COL_WISE:
        return np.broadcast_to(col_inv[None, :], a.shape)
    if coeff is Coeff.RELATIVE:
        return row_inv[:, None] + col_inv[None, :]
    raise ValueError(f"unknown coefficient: {coeff!r}")


def activation_coefficient(stats: SubModuleStats, coeff: Coeff) -> np.ndarray:
    """Per-feature normalizing coefficient computed from v_j = ||X_j||_2.

    ROW_WISE normalizes each feature by its own L1 mass; COL_WISE applies the
    global L1 normalizer (a per-token factor cannot multiply into a score that
    is indexed by feature only).
    """
    v = stats.v
    if coeff is Coeff.UNIFORM:
        return np.ones_like(v)
    if coeff is Coeff.GLOBAL_SUM:
        return np.full_like(v, 1.0 / max(v.sum(), EPS))
    if coeff is Coeff.FROBENIUS:
        return np.full_like(v, 1.0 / max(float(np.sqrt((v * v).sum())), EPS))
    if coeff is Coeff.GLOBAL_MEAN:
        return np.full_like(v, v.size / max(v.sum(), EPS))
    if coeff is Coeff.ROW_WISE:
        return 1.0 / np.maximum(stats.l1, EPS)
    if coeff is Coeff.COL_WISE:
        return np.full_like(v, 1.0 / max(stats.l1.sum(), EPS))
    if coeff is Coeff.RELATIVE:
        return 1.0 / max(v.sum(), EPS) + 1.0 / np.maximum(v, EPS)
    raise ValueError(f"unknown coefficient: {coeff!r}")


def _elementwise(a: np.ndarray, transform: Transform) -> np.ndarray:
    if transform is Transform.IDENTITY:
        return a
    if transform is Transform.SQUARE:
        return a * a
    if transform is Transform.SQRT:
        return np.sqrt(a)
    if transform is Transform.LOG1P:
        return np.log1p(a)
    if transform is Transform.EXP_NEG:
        return np.exp(-a)
    if transform is Transform.SIGMOID:
        return 1.0 / (1.0 + np.exp(-a))
    raise ValueError(f"unknown transform: {transform!r}")


def transform_weights(w: np.ndarray, transform: Transform) -> np.ndarray:
    """Transform A = |w|; SOFTMAX normalizes over rows within each column."""
    a = np.abs(w)
    if transform is Transform.SOFTMAX:
        z = a - a.max(axis=0, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=0, keepdims=True)
    return _elementwise(a, transform)


def transform_activations(v: np.ndarray, transform: Transform) -> np.ndarray:
    """Transform the nonnegative norm vector; SOFTMAX normalizes over features."""
    if transform is Transform.SOFTMAX:
        z = v - v.max()
        e = np.exp(z)
        return e / e.sum()
    return _elementwise(v, transform)


def weight_factor(w: np.ndarray, config: MetricConfig) -> np.ndarray:
    """The weight side alpha(|W|) * F1(|W|), output x input, in float64
    whatever the dtype of w."""
    w = np.asarray(w, dtype=np.float64)
    return weight_coefficient(w, config.alpha) * transform_weights(w, config.f1)


def activation_factor(stats: SubModuleStats, config: MetricConfig) -> np.ndarray:
    """The activation side beta(v) * F2(v), one value per input feature."""
    return activation_coefficient(stats, config.beta) * transform_activations(stats.v, config.f2)


def check_stats(stats: dict, shapes: dict[str, tuple[int, int]]) -> None:
    """Reject stats of another model. `shapes` maps each sub-module key to its
    stored (inputs, outputs) shape (model.sub_module_shapes): every key needs
    an entry covering its input width, and no entry may name another key."""
    for key, (inputs, _) in shapes.items():
        if key not in stats:
            raise ValueError(f"missing activation stats for sub-module {key}")
        if stats[key].v.size != inputs:
            raise ValueError(
                f"stats of sub-module {key} cover {stats[key].v.size} input features "
                f"but the model's weight matrix has {inputs} inputs"
            )
    extra = sorted(set(stats) - set(shapes))
    if extra:
        raise ValueError(f"activation stats for sub-modules the model lacks: {', '.join(extra)}")


def score(w: np.ndarray, stats: SubModuleStats, kind: MetricKind) -> np.ndarray:
    """Importance scores for an output x input weight matrix, in float64
    whatever the dtype of w.

    The stats must cover every input column for every kind, magnitude
    included, so stats from a different model are rejected.
    """
    if stats.v.size != w.shape[1]:
        raise ValueError(
            f"stats cover {stats.v.size} input features but weight matrix has {w.shape[1]} columns"
        )
    if isinstance(kind, Magnitude):
        return np.abs(np.asarray(w, dtype=np.float64))
    return weight_factor(w, kind) * activation_factor(stats, kind)[None, :]


_PRESETS: dict[str, MetricKind] = {
    "magnitude": MAGNITUDE,
    # |W_ij| * ||X_j||_2
    "wanda": MetricConfig(Coeff.UNIFORM, Coeff.UNIFORM, Transform.IDENTITY, Transform.IDENTITY),
    # (|W_ij|/rowsum_i + |W_ij|/colsum_j) * sqrt(||X_j||_2)
    "ria": MetricConfig(Coeff.RELATIVE, Coeff.UNIFORM, Transform.IDENTITY, Transform.SQRT),
    # |W_ij|/||W||_F * sqrt(||X_j||_2)/sum_j ||X_j||_2
    "optishear-l2-gsm8k": MetricConfig(
        Coeff.FROBENIUS, Coeff.GLOBAL_SUM, Transform.IDENTITY, Transform.SQRT
    ),
    # mn*|W_ij|/sum|W| * sqrt(||X_j||_2)/sum_j ||X_j||_2
    "optishear-l3-gsm8k": MetricConfig(
        Coeff.GLOBAL_MEAN, Coeff.GLOBAL_SUM, Transform.IDENTITY, Transform.SQRT
    ),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> MetricKind:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset: {name!r}; expected one of {', '.join(PRESET_NAMES)}") from None


def parse_kind(text: str) -> MetricKind:
    """Parse a preset name or "custom:a,b,f1,f2" (canonical names or codes)."""
    if text.startswith("custom:"):
        return MetricConfig.from_string(text[len("custom:"):])
    return preset(text)


# Coefficients that only rescale scores by a positive per-row or global factor
# cannot change the per-row (or per-group) ranking, so configs differing only
# in such coefficients produce identical masks and identical fitness.
_ALPHA_RANK_NEUTRAL = frozenset(
    {Coeff.UNIFORM, Coeff.GLOBAL_SUM, Coeff.FROBENIUS, Coeff.GLOBAL_MEAN, Coeff.ROW_WISE}
)
_BETA_RANK_NEUTRAL = frozenset(
    {Coeff.UNIFORM, Coeff.GLOBAL_SUM, Coeff.FROBENIUS, Coeff.GLOBAL_MEAN, Coeff.COL_WISE}
)


def mask_equivalence_key(codes: tuple[int, int, int, int]) -> tuple:
    """Canonical key of config codes (alpha, beta, f1, f2) that provably build identical masks.

    On the weight side, global scalings and per-row normalization leave every
    row's ranking untouched; on the activation side, global scalings do. Only
    feature-dependent coefficients (column-wise or relative weights, row-wise
    or relative activations) and the transformations can change rankings.
    """
    alpha, beta, f1, f2 = codes
    return (-1 if alpha in _ALPHA_RANK_NEUTRAL else alpha, -1 if beta in _BETA_RANK_NEUTRAL else beta, f1, f2)


# The codes of each mask class's lexicographically first config, in code order.
CLASS_CODES = tuple(sorted({mask_equivalence_key(codes): codes for codes in reversed(ALL_CODES)}.values()))
MASK_CLASS_COUNT = len(CLASS_CODES)  # 441
