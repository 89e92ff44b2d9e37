"""Calibration data, activation statistics, and the divergence fitness.

The fitness of a pruned model is the mean over calibration sequences of the
per-token-averaged squared L2 distance between dense and pruned final hidden
states. Any positive normalization preserves the ranking of configs; this one
keeps values comparable across calibration sizes.
"""

import contextlib
import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .metric import MetricKind, SubModuleStats
from .model import ModelWeights, final_hidden_batch, forward, sub_module_shapes, token_ids
from .prune import SparsitySpec, apply_masks, packed_mask_sets, unpack_mask_set

if TYPE_CHECKING:
    from concurrent.futures import Executor

ActivationStats = dict[str, SubModuleStats]

# A calibration pass of fewer multiply-adds (calibration tokens x prunable
# weights) runs in this process: forking a pool costs about 30 ms, more than
# the whole stats pass of the 2-layer fixture (about 1e7, 11 ms).
POOL_MIN_MACS = 2**30


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
    for partials in _per_sequence(_stats_partials, calib, weights):
        for key, (sq, ab) in partials.items():
            if key in sumsq:
                sumsq[key] += sq
                l1[key] += ab
            else:
                sumsq[key], l1[key] = sq, ab
    tokens = sum(map(len, calib.sequences))
    return {
        key: SubModuleStats(v=np.sqrt(sumsq[key]), l1=l1[key], token_count=tokens)
        for key in sumsq
    }


def _stats_partials(weights: ModelWeights, seq: tuple[int, ...]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per sub-module, the sum of squares and the abs sum of its inputs over one sequence."""
    captured = forward(weights, seq, capture=True).captured_inputs
    return {key: ((block * block).sum(axis=0), np.abs(block).sum(axis=0)) for key, block in captured.items()}


def token_mean_sqdist(a: np.ndarray, b: np.ndarray) -> float:
    """Per-token mean of the squared L2 distance between two T x d blocks."""
    diff = a - b
    return float((diff * diff).sum(axis=1).mean())


def divergence(dense_hidden: list[np.ndarray], pruned: ModelWeights, calib: CalibrationSet) -> float:
    """Mean over sequences of the per-token mean squared hidden-state distance.

    dense_hidden must come from the same calibration set in the same order.
    This float is the fitness; one that is not finite and nonnegative raises.
    """
    if len(dense_hidden) != len(calib.sequences):
        raise ValueError(
            f"cache holds {len(dense_hidden)} sequences, calibration has {len(calib.sequences)}"
        )
    terms = []
    for ref, seq in zip(dense_hidden, calib.sequences):
        h = forward(pruned, seq).final_hidden
        if h.shape != ref.shape:
            raise ValueError(f"cached hidden shape {ref.shape} does not match forward {h.shape}")
        terms.append(token_mean_sqdist(ref, h))
    return _mean_fitness(terms)


def model_divergence(dense: ModelWeights, pruned: ModelWeights, calib: CalibrationSet) -> float:
    """divergence(final_hidden_batch(dense, calib), pruned, calib), with each
    sequence run through both models in one task. A pruned model whose config
    differs from the dense model's raises before any forward."""
    if pruned.config != dense.config:
        raise ValueError(f"pruned model config {pruned.config} differs from the dense model's {dense.config}")
    return _mean_fitness(list(_per_sequence(_sequence_sqdist, calib, dense, pruned)))


def _sequence_sqdist(dense: ModelWeights, pruned: ModelWeights, seq: tuple[int, ...]) -> float:
    return token_mean_sqdist(forward(dense, seq).final_hidden, forward(pruned, seq).final_hidden)


def _mean_fitness(terms: list[float]) -> float:
    """The mean of the terms, summed in order; one not finite and nonnegative raises."""
    total = 0.0
    for term in terms:
        total += term
    l_div = total / len(terms)
    if not np.isfinite(l_div) or l_div < 0.0:
        raise ValueError("divergence must be finite and nonnegative")
    return l_div


@dataclass(frozen=True, eq=False)
class EvalContext:
    """Shared inputs for scoring candidate configs.

    The dense hidden cache and activation stats are computed once and reused
    for every candidate. `fitness_by_masks` maps a packed mask set (the packed
    bits of each mask in sub-module order) to its fitness, the float
    divergence gives, so the pruned copy and its divergence are computed once
    per distinct mask set per context. It holds about params/8 bytes (one bit
    per prunable weight) per distinct mask set and lives as long as the
    context. `workers`, set only inside scoring_workers, is the process pool
    that scores new mask sets; without it they are scored in this process.
    """

    weights: ModelWeights
    stats: ActivationStats
    dense_hidden: list[np.ndarray]
    calib: CalibrationSet
    spec: SparsitySpec
    fitness_by_masks: dict[bytes, float] = field(default_factory=dict)
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
def _fork_pool(role: str, workers: int, task) -> Iterator["Executor"]:
    """A pool of `workers` processes of the `fork` start method, whose _run_task
    calls `task`. The workers inherit `task` when they are forked, all at the
    first map and before the pool starts a thread, so a one-thread caller (the
    CLI) forks one-thread processes and only arguments and results are
    pickled. A worker's exception is raised again in the caller, a worker that
    dies is an OSError naming `role`, and the processes are joined on exit.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker, initargs=(task,),
    )
    with pool:
        try:
            yield pool
        except BrokenProcessPool as exc:
            raise OSError(f"a {role} worker died: {exc}") from None


_worker_task = None  # the task of a _fork_pool, set in each of its workers by _init_worker


def _init_worker(task) -> None:
    global _worker_task
    _worker_task = task


def _run_task(arg):
    return _worker_task(arg)


def _per_sequence(task, calib: CalibrationSet, *models: ModelWeights) -> Iterable:
    """task(*models, seq) for each calibration sequence, in input order.

    Every sequence is checked against the first model's config at once. A pass
    of at least POOL_MIN_MACS multiply-adds maps the sequences, longest first,
    over a _fork_pool of the usable CPUs (at most one per sequence); any other
    runs lazily in this process.
    """
    sequences = calib.sequences
    for seq in sequences:
        token_ids(models[0].config, seq)
    macs = sum(map(len, sequences)) * sum(i * o for i, o in sub_module_shapes(models[0].config).values())
    workers = min(_usable_cpus(), len(sequences))
    if macs < POOL_MIN_MACS or workers == 1:
        return (task(*models, seq) for seq in sequences)
    order = sorted(range(len(sequences)), key=lambda i: -len(sequences[i]))
    with _fork_pool("calibration", workers, lambda i: task(*models, sequences[i])) as pool:
        done = dict(zip(order, pool.map(_run_task, order)))
    return [done[i] for i in range(len(sequences))]


@contextlib.contextmanager
def scoring_workers(ctx: EvalContext, jobs: int) -> Iterator[EvalContext]:
    """ctx, with its new mask sets scored on worker_count(jobs, usable CPUs)
    processes while the block runs.

    With one worker ctx itself is yielded: nothing is forked and
    multiprocessing is not imported. Otherwise the yielded context shares
    ctx's inputs and fitness cache, and a _fork_pool, whose workers inherit
    ctx, scores the new mask sets of each evaluate_configs call: each task is
    one packed mask set, each result one float.
    """
    workers = worker_count(jobs, _usable_cpus())
    if workers == 1:
        yield ctx
        return
    with _fork_pool("scoring", workers, lambda packed: _score(ctx, packed)) as pool:
        yield replace(ctx, workers=pool)


def _score(ctx: EvalContext, packed: bytes) -> float:
    """The fitness of one mask set: its pruned copy run through divergence."""
    pruned = apply_masks(ctx.weights, unpack_mask_set(packed, ctx.weights.config))
    return divergence(ctx.dense_hidden, pruned, ctx.calib)


def _score_batch(ctx: EvalContext, batch: list[bytes]) -> list[float]:
    """The fitness of each new mask set of a batch, in batch order."""
    if ctx.workers is None or len(batch) == 1:
        return [_score(ctx, packed) for packed in batch]
    return list(ctx.workers.map(_run_task, batch))


def evaluate_configs(ctx: EvalContext, kinds: Sequence[MetricKind]) -> list[float]:
    """Fitness (the float divergence gives) of each kind, in input order;
    pure in (ctx, kinds).

    The distinct kinds are masked together by packed_mask_sets (one weight
    factor and a few stacked build_mask calls per (alpha, f1) group and
    sub-module). A mask set the context has seen takes its cached fitness;
    only a new one is unpacked, applied to a pruned copy and run through
    divergence. The new mask sets of a call are scored in one batch, on the
    context's workers when it has them, and enter the cache in batch order.
    Every new packed set stays in the cache anyway, so the batch holds no
    memory the cache would not. Identical masks give identical pruned
    weights, so a cached fitness, or one computed in a worker, is
    bit-identical to a recomputed one. Search budgets count configs, not
    forwards.
    """
    distinct = list(dict.fromkeys(kinds))
    fitness: dict[MetricKind, float] = {}
    new: dict[bytes, list[MetricKind]] = {}
    for i, packed in packed_mask_sets(ctx.weights, ctx.stats, distinct, ctx.spec):
        if packed in ctx.fitness_by_masks:
            fitness[distinct[i]] = ctx.fitness_by_masks[packed]
        else:
            new.setdefault(packed, []).append(distinct[i])
    for (packed, waiting), fit in zip(new.items(), _score_batch(ctx, list(new))):
        ctx.fitness_by_masks[packed] = fit
        for kind in waiting:
            fitness[kind] = fit
    return [fitness[kind] for kind in kinds]


def evaluate_config(ctx: EvalContext, kind: MetricKind) -> float:
    """Score -> mask -> (pruned copy -> divergence on a new mask set) for one
    kind: evaluate_configs(ctx, [kind])[0]."""
    return evaluate_configs(ctx, [kind])[0]
