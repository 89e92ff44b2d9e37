"""Calibration data, activation statistics, and the divergence fitness.

The fitness of a pruned model is the mean over calibration sequences of the
per-token-averaged squared L2 distance between dense and pruned final hidden
states. Any positive normalization preserves the ranking of configs; this one
keeps values comparable across calibration sizes. The dense side is a cache
of final hidden states (tokens x d_model), made once; the dense model is not
needed while a pruned one is scored against it.
"""

import contextlib
import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .metric import Magnitude, MetricKind, SubModuleStats, mask_equivalence_key
from .model import (
    ModelConfig,
    ModelWeights,
    final_hidden_batch,
    forward,
    overflow_is_an_error,
    sub_module_shapes,
    token_ids,
)
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
    A float64 overflow in a forward, its reductions or their sums is a
    ValueError.
    """
    sumsq: dict[str, np.ndarray] = {}
    l1: dict[str, np.ndarray] = {}
    sequences = calib.sequences
    with overflow_is_an_error("the sum of the activation statistics"):
        for partials in _per_sequence(lambda i: _stats_partials(weights, sequences[i]), calib, weights.config):
            for key, (sq, ab) in partials.items():
                # Not in place: keys that read one input block share its partials.
                sumsq[key] = sumsq.get(key, 0.0) + sq
                l1[key] = l1.get(key, 0.0) + ab
    tokens = sum(map(len, calib.sequences))
    return {
        key: SubModuleStats(v=np.sqrt(sumsq[key]), l1=l1[key], token_count=tokens)
        for key in sumsq
    }


def _stats_partials(weights: ModelWeights, seq: tuple[int, ...]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per sub-module, the sum of squares and the abs sum of its inputs over one
    sequence. Each input block is reduced once, as the forward makes it (q, k
    and v share one, as do gate and up), so no more than one layer's blocks are
    held at a time."""
    partials: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def reduce(keys: tuple[str, ...], block: np.ndarray) -> None:
        partials.update(dict.fromkeys(keys, ((block * block).sum(axis=0), np.abs(block).sum(axis=0))))

    forward(weights, seq, observe=reduce)
    return partials


def token_mean_sqdist(a: np.ndarray, b: np.ndarray) -> float:
    """Per-token mean of the squared L2 distance between two T x d blocks."""
    diff = a - b
    return float((diff * diff).sum(axis=1).mean())


def dense_hidden_cache(dense: ModelWeights, calib: CalibrationSet) -> list[np.ndarray]:
    """final_hidden_batch(dense, calib), one _per_sequence task per sequence:
    the first pass of `eval`, whose workers send back hidden states."""
    sequences = calib.sequences
    return list(_per_sequence(lambda i: forward(dense, sequences[i]), calib, dense.config))


def divergence(dense_hidden: list[np.ndarray], pruned: ModelWeights, calib: CalibrationSet) -> float:
    """Mean over sequences of the per-token mean squared hidden-state distance.

    dense_hidden must come from the same calibration set in the same order.
    Each sequence is one _per_sequence task, which sends back its term, and
    the terms are summed in sequence order. This float is the fitness; one
    that is not finite and nonnegative raises.
    """
    sequences = calib.sequences
    if len(dense_hidden) != len(sequences):
        raise ValueError(f"cache holds {len(dense_hidden)} sequences, calibration has {len(sequences)}")
    l_div = ordered_mean(list(_per_sequence(
        lambda i: _divergence_term(dense_hidden[i], pruned, sequences[i]), calib, pruned.config)))
    if not np.isfinite(l_div) or l_div < 0.0:
        raise ValueError("divergence must be finite and nonnegative")
    return l_div


def _divergence_term(ref: np.ndarray, pruned: ModelWeights, seq: tuple[int, ...]) -> float:
    h = forward(pruned, seq)
    if h.shape != ref.shape:
        raise ValueError(f"cached hidden shape {ref.shape} does not match forward {h.shape}")
    return token_mean_sqdist(ref, h)


def ordered_mean(values: Sequence[float]) -> float:
    """The mean summed left to right: builtin sum is compensated from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


@dataclass(frozen=True, eq=False)
class EvalContext:
    """Shared inputs for scoring candidate configs, made once and never
    written: the dense hidden cache and activation stats are reused for every
    candidate, and no fitness is stored here (evaluate_configs keeps its mask
    sets for one call only). `workers`, set only inside scoring_workers, is
    the process pool that masks and scores the configs, in at most `shards`
    (its worker count) shards per evaluate_configs call. Without workers the
    configs are masked and scored in this process. `weights` is the model
    widened to float64 once by make_context: the context runs a forward per
    sequence per mask set scored, and each forward of float32 weights would
    widen every matrix it multiplies.
    """

    weights: ModelWeights
    stats: ActivationStats
    dense_hidden: list[np.ndarray]
    calib: CalibrationSet
    spec: SparsitySpec
    workers: "Executor | None" = None
    shards: int = 1


def make_context(weights: ModelWeights, calib: CalibrationSet, spec: SparsitySpec) -> EvalContext:
    weights = ModelWeights(weights.config, {name: t.astype(np.float64) for name, t in weights.tensors.items()})
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
    first submit and before the pool starts a thread, so a one-thread caller
    (the CLI) forks one-thread processes and only arguments and results are
    pickled. A worker's exception is raised again in the caller, a worker that
    dies is an OSError naming `role`, and the processes are joined on exit;
    tasks not yet started when the block raises are cancelled.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker, initargs=(task,),
    )
    try:
        yield pool
    except BrokenProcessPool as exc:
        raise OSError(f"a {role} worker died: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


_worker_task = None  # the task of a _fork_pool, set in each of its workers by _init_worker


def _init_worker(task) -> None:
    global _worker_task
    _worker_task = task


def _run_task(arg):
    return _worker_task(arg)


def _per_sequence(task, calib: CalibrationSet, config: ModelConfig) -> Iterable:
    """task(i) for the index i of each calibration sequence, in input order.

    A pass of at least POOL_MIN_MACS multiply-adds checks every sequence
    against config, then maps the sequences, longest first, over a _fork_pool
    of the usable CPUs (at most one per sequence). Any other pass runs lazily
    in this process, where each forward checks its own sequence, and so does
    any pass in a pool's worker, so that a scoring worker forks no pool of
    its own.
    """
    sequences = calib.sequences
    macs = sum(map(len, sequences)) * sum(i * o for i, o in sub_module_shapes(config).values())
    workers = worker_count(len(sequences), _usable_cpus())
    if macs < POOL_MIN_MACS or workers == 1 or _worker_task is not None:
        return map(task, range(len(sequences)))
    for seq in sequences:
        token_ids(config, seq)
    order = sorted(range(len(sequences)), key=lambda i: -len(sequences[i]))
    with _fork_pool("calibration", workers, task) as pool:
        done = dict(zip(order, pool.map(_run_task, order)))
    return [done[i] for i in range(len(sequences))]


@contextlib.contextmanager
def scoring_workers(ctx: EvalContext, jobs: int) -> Iterator[EvalContext]:
    """ctx, with its configs masked and scored on worker_count(jobs, usable
    CPUs) processes while the block runs.

    With one worker ctx itself is yielded, and each mask set scored forks a
    calibration pool if its divergence pass holds POOL_MIN_MACS multiply-adds
    (below that nothing is forked). Otherwise the yielded context shares ctx's
    inputs and carries a _fork_pool and its worker count. The workers inherit
    ctx, and each task is one shard of an evaluate_configs call, a list of
    kinds that the worker masks and scores with evaluate_configs on its own
    copy of ctx; each result is one float per kind. A task depends only on
    ctx and its shard: a worker keeps nothing from one task to the next, and
    the parent masks nothing. A worker runs the divergence passes of its
    tasks itself: _per_sequence forks no pool inside a pool.
    """
    workers = worker_count(jobs, _usable_cpus())
    if workers == 1:
        yield ctx
        return
    with _fork_pool("scoring", workers, lambda shard: evaluate_configs(ctx, shard)) as pool:
        yield replace(ctx, workers=pool, shards=workers)


def _score(ctx: EvalContext, packed: bytes) -> float:
    """The fitness of one mask set: its pruned copy run through divergence."""
    pruned = apply_masks(ctx.weights, unpack_mask_set(packed, ctx.weights.config))
    return divergence(ctx.dense_hidden, pruned, ctx.calib)


def _deal(kinds: Sequence[MetricKind], shards: int) -> list[list[MetricKind]]:
    """kinds dealt into at most `shards` lists as whole mask classes
    (mask_equivalence_key of the codes; magnitude is a class of its own),
    round-robin in order of first appearance."""
    classes: dict[object, list[MetricKind]] = {}
    for kind in kinds:
        key = kind if isinstance(kind, Magnitude) else mask_equivalence_key(kind.codes)
        classes.setdefault(key, []).append(kind)
    dealt: list[list[MetricKind]] = [[] for _ in range(min(shards, len(classes)))]
    for i, members in enumerate(classes.values()):
        dealt[i % shards].extend(members)
    return dealt


def evaluate_configs(ctx: EvalContext, kinds: Sequence[MetricKind]) -> list[float]:
    """Fitness (the float divergence gives) of each kind, in input order;
    pure in (ctx, kinds).

    On a context with workers the distinct kinds are dealt by _deal into
    one shard per worker at most, and each worker runs this function on its
    shard in its own process; nothing is masked here.
    Otherwise the distinct kinds are masked together by packed_mask_sets
    (one weight factor and a few stacked build_mask calls per (alpha, f1)
    group and sub-module) and grouped by their packed mask set. Once masking
    ends, so the masking stacks are gone before the first forward, each set
    is unpacked, applied to a pruned copy and run through divergence: one
    divergence per distinct mask set per call, and nothing outlives the
    call. Identical masks give identical pruned weights, so a mask set
    scored again, in a later call or in another worker's shard, gives the
    same float. Search budgets count configs, not forwards.
    """
    distinct = list(dict.fromkeys(kinds))
    fitness: dict[MetricKind, float] = {}
    if ctx.workers is not None:
        shards = _deal(distinct, ctx.shards)
        for shard, fits in zip(shards, ctx.workers.map(_run_task, shards)):
            fitness.update(zip(shard, fits))
        return [fitness[kind] for kind in kinds]
    by_set: dict[bytes, list[MetricKind]] = {}
    for i, packed in packed_mask_sets(ctx.weights, ctx.stats, distinct, ctx.spec):
        by_set.setdefault(packed, []).append(distinct[i])
    for packed, members in by_set.items():
        fitness.update(dict.fromkeys(members, _score(ctx, packed)))
    return [fitness[kind] for kind in kinds]


def evaluate_config(ctx: EvalContext, kind: MetricKind) -> float:
    """Score -> mask -> pruned copy -> divergence for one kind:
    evaluate_configs(ctx, [kind])[0]."""
    return evaluate_configs(ctx, [kind])[0]
