"""Calibration data, activation statistics, and the divergence fitness.

The fitness of a pruned model is the mean over calibration sequences of the
per-token-averaged squared L2 distance between dense and pruned final hidden
states. Any positive normalization preserves the ranking of configs; this one
keeps values comparable across calibration sizes.
"""

import contextlib
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .metric import MetricKind, SubModuleStats
from .model import ModelWeights, final_hidden_batch, forward
from .prune import SparsitySpec, apply_masks, packed_mask_sets, unpack_mask_set

if TYPE_CHECKING:
    from concurrent.futures import Executor

ActivationStats = dict[str, SubModuleStats]

# New mask sets scored per dispatch of evaluate_configs. A batch holds its
# packed sets (params/8 bytes each) until it is scored, so the memory a call
# holds stays bounded however many configs it is given.
SCORE_BATCH = 32


@dataclass(frozen=True)
class CalibrationSet:
    sequences: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        normalized = tuple(tuple(int(t) for t in seq) for seq in self.sequences)
        object.__setattr__(self, "sequences", normalized)
        if not self.sequences:
            raise ValueError("empty calibration set")
        if any(len(seq) == 0 for seq in self.sequences):
            raise ValueError("calibration sequences must be non-empty")


def synthetic_calibration(vocab_size: int, n_sequences: int, seq_len: int, seed: int) -> CalibrationSet:
    """Uniform random token ids; the desk-scale stand-in for sampled text."""
    if vocab_size < 1 or n_sequences < 1 or seq_len < 1:
        raise ValueError("vocab_size, n_sequences and seq_len must all be >= 1")
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab_size, size=(n_sequences, seq_len))
    return CalibrationSet(sequences=tuple(tuple(int(t) for t in row) for row in ids))


def collect_activation_stats(weights: ModelWeights, calib: CalibrationSet) -> ActivationStats:
    """Accumulate per-feature sums of squares and absolute sums over all tokens.

    v_j is the L2 norm of input feature j across every token of every
    calibration sequence (running sum of squares, square-rooted at the end).
    """
    sumsq: dict[str, np.ndarray] = {}
    l1: dict[str, np.ndarray] = {}
    tokens = 0
    for seq in calib.sequences:
        trace = forward(weights, seq, capture=True)
        tokens += len(seq)
        for key, block in trace.captured_inputs.items():
            if key in sumsq:
                sumsq[key] += (block * block).sum(axis=0)
                l1[key] += np.abs(block).sum(axis=0)
            else:
                sumsq[key] = (block * block).sum(axis=0)
                l1[key] = np.abs(block).sum(axis=0)
    return {
        key: SubModuleStats(v=np.sqrt(sumsq[key]), l1=l1[key], token_count=tokens)
        for key in sumsq
    }


@dataclass(frozen=True)
class Fitness:
    l_div: float

    def __post_init__(self):
        if not np.isfinite(self.l_div) or self.l_div < 0.0:
            raise ValueError("divergence must be finite and nonnegative")


def token_mean_sqdist(a: np.ndarray, b: np.ndarray) -> float:
    """Per-token mean of the squared L2 distance between two T x d blocks."""
    diff = a - b
    return float((diff * diff).sum(axis=1).mean())


def divergence(dense_hidden: list[np.ndarray], pruned: ModelWeights, calib: CalibrationSet) -> Fitness:
    """Mean over sequences of the per-token mean squared hidden-state distance.

    dense_hidden must come from the same calibration set in the same order.
    """
    if len(dense_hidden) != len(calib.sequences):
        raise ValueError(
            f"cache holds {len(dense_hidden)} sequences, calibration has {len(calib.sequences)}"
        )
    total = 0.0
    for ref, seq in zip(dense_hidden, calib.sequences):
        h = forward(pruned, seq).final_hidden
        if h.shape != ref.shape:
            raise ValueError(f"cached hidden shape {ref.shape} does not match forward {h.shape}")
        total += token_mean_sqdist(ref, h)
    return Fitness(l_div=total / len(calib.sequences))


@dataclass(frozen=True, eq=False)
class EvalContext:
    """Shared inputs for scoring candidate configs.

    The dense hidden cache and activation stats are computed once and reused
    for every candidate. `fitness_by_masks` maps a packed mask set (the
    packed bits of each mask in sub-module order) to its fitness, so the pruned copy and its
    divergence are computed once per distinct mask set per context. It holds
    about params/8 bytes (one bit per prunable weight) per distinct mask set
    and lives as long as the context. `workers`, set only inside
    scoring_workers, is the process pool that scores new mask sets; without
    it they are scored in this process.
    """

    weights: ModelWeights
    stats: ActivationStats
    dense_hidden: list[np.ndarray]
    calib: CalibrationSet
    spec: SparsitySpec
    fitness_by_masks: dict[bytes, Fitness] = field(default_factory=dict)
    workers: "Executor | None" = None


def make_context(weights: ModelWeights, calib: CalibrationSet, spec: SparsitySpec) -> EvalContext:
    return EvalContext(
        weights=weights,
        stats=collect_activation_stats(weights, calib),
        dense_hidden=final_hidden_batch(weights, calib),
        calib=calib,
        spec=spec,
    )


def worker_count(jobs: int, usable_cpus: int) -> int:
    """Worker processes for `jobs` requested: never more than the usable CPUs."""
    return max(1, min(jobs, usable_cpus))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def scoring_workers(ctx: EvalContext, jobs: int) -> Iterator[EvalContext]:
    """ctx, with its new mask sets scored on worker_count(jobs, usable CPUs)
    processes while the block runs.

    With one worker ctx itself is yielded: nothing is forked and
    multiprocessing is not imported. Otherwise the yielded context shares
    ctx's inputs and fitness cache, and a process pool of the `fork` start
    method scores the new mask sets of each evaluate_configs batch. The
    workers inherit ctx when they are forked (at the first batch), so it is
    never pickled: each task is one packed mask set, each result one Fitness.
    The pool forks all its workers before it starts a thread of its own, so
    a caller that runs one thread, as the CLI does, forks a one-thread
    process. A worker's exception is raised again in the caller, and the
    pool is shut down and its processes joined when the block exits.
    """
    workers = worker_count(jobs, _usable_cpus())
    if workers == 1:
        yield ctx
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker, initargs=(ctx,),
    )
    with pool:
        yield replace(ctx, workers=pool)


_worker_ctx: EvalContext | None = None  # set in each worker process by _init_worker


def _init_worker(ctx: EvalContext) -> None:
    global _worker_ctx
    _worker_ctx = ctx


def _score_in_worker(packed: bytes) -> Fitness:
    return _score(_worker_ctx, packed)


def _score(ctx: EvalContext, packed: bytes) -> Fitness:
    """The fitness of one mask set: its pruned copy run through divergence."""
    pruned = apply_masks(ctx.weights, unpack_mask_set(packed, ctx.weights.config))
    return divergence(ctx.dense_hidden, pruned, ctx.calib)


def _score_batch(ctx: EvalContext, batch: list[bytes]) -> list[Fitness]:
    """The fitness of each new mask set of a batch, in batch order."""
    if ctx.workers is None or len(batch) == 1:
        return [_score(ctx, packed) for packed in batch]
    return list(ctx.workers.map(_score_in_worker, batch))


def evaluate_configs(ctx: EvalContext, kinds: Sequence[MetricKind]) -> list[Fitness]:
    """Fitness of each kind, in input order; pure in (ctx, kinds).

    The distinct kinds are masked together by packed_mask_sets (one weight
    factor and a few stacked build_mask calls per (alpha, f1) group and
    sub-module). A mask set the context has seen takes its cached fitness;
    only a new one is unpacked, applied to a pruned copy and run through
    divergence. New mask sets are scored in batches of SCORE_BATCH, on the
    context's workers when it has them, and enter the cache in batch order.
    Identical masks give identical pruned weights, so a cached fitness, or
    one computed in a worker, is bit-identical to a recomputed one. Search
    budgets count configs, not forwards.
    """
    distinct = list(dict.fromkeys(kinds))
    fitness: dict[MetricKind, Fitness] = {}
    pending: dict[bytes, list[MetricKind]] = {}

    def flush():
        for (packed, waiting), fit in zip(pending.items(), _score_batch(ctx, list(pending))):
            ctx.fitness_by_masks[packed] = fit
            for kind in waiting:
                fitness[kind] = fit
        pending.clear()

    for i, packed in packed_mask_sets(ctx.weights, ctx.stats, distinct, ctx.spec):
        fit = ctx.fitness_by_masks.get(packed)
        if fit is not None:
            fitness[distinct[i]] = fit
            continue
        pending.setdefault(packed, []).append(distinct[i])
        if len(pending) == SCORE_BATCH:
            flush()
    flush()
    return [fitness[kind] for kind in kinds]


def evaluate_config(ctx: EvalContext, kind: MetricKind) -> Fitness:
    """Score -> mask -> (pruned copy -> divergence on a new mask set) for one
    kind: evaluate_configs(ctx, [kind])[0]."""
    return evaluate_configs(ctx, [kind])[0]
