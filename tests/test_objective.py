import functools
import multiprocessing
import os
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from prunesearch import objective, prune
from prunesearch.metric import SPACE_SIZE, Magnitude, mask_equivalence_key, preset
from prunesearch.model import ModelConfig, ModelWeights, final_hidden_batch, forward, init_model, sub_module_shapes
from prunesearch.objective import (
    CalibrationSet,
    collect_activation_stats,
    divergence,
    evaluate_config,
    evaluate_configs,
    make_context,
    scoring_workers,
    synthetic_calibration,
    token_mean_sqdist,
    worker_count,
)
from prunesearch.prune import SemiStructured, Unstructured, prune_model
from prunesearch.search import all_configs, exhaustive_search


def test_calibration_set_validation():
    with pytest.raises(ValueError):
        CalibrationSet(sequences=())
    with pytest.raises(ValueError):
        CalibrationSet(sequences=((1, 2), ()))


@pytest.mark.parametrize("token", [1.7, 2.0, "3", True, False, None, np.float64(4.0), np.bool_(True)])
def test_calibration_set_refuses_a_token_that_is_not_an_integer(token):
    # Truncating 1.7, parsing "3" or reading True as 1 would change the
    # calibration text unseen.
    with pytest.raises(ValueError, match=re.escape(f"token {token!r} ")):
        CalibrationSet(sequences=((1, 2), (5, token)))


def test_calibration_set_takes_any_integer_type_as_a_plain_int():
    calib = CalibrationSet(sequences=((np.int64(3), np.uint8(4), 5),))
    assert calib.sequences == ((3, 4, 5),)
    assert all(type(t) is int for t in calib.sequences[0])


def test_synthetic_calibration_deterministic():
    a = synthetic_calibration(64, 4, 16, seed=3)
    b = synthetic_calibration(64, 4, 16, seed=3)
    assert a.sequences == b.sequences
    assert len(a.sequences) == 4
    assert all(len(s) == 16 for s in a.sequences)
    assert all(0 <= t < 64 for s in a.sequences for t in s)
    assert a.sequences != synthetic_calibration(64, 4, 16, seed=4).sequences


def _observed_blocks(weights, seq):
    """(keys, block) for each block forward(weights, seq) hands to its observer."""
    calls = []
    forward(weights, seq, observe=lambda keys, block: calls.append((keys, block)))
    return calls


def test_stats_match_independent_recomputation(mini_weights, mini_calib, mini_stats):
    # Oracle: concatenate every observed block and reduce with plain loops.
    blocks: dict[str, list[np.ndarray]] = {}
    for seq in mini_calib.sequences:
        for keys, block in _observed_blocks(mini_weights, seq):
            for key in keys:
                blocks.setdefault(key, []).append(block)
    assert set(blocks) == set(mini_stats)
    for key, parts in blocks.items():
        stacked = np.vstack(parts)
        v = np.sqrt((stacked**2).sum(axis=0))
        l1 = np.abs(stacked).sum(axis=0)
        np.testing.assert_allclose(mini_stats[key].v, v, rtol=1e-12)
        np.testing.assert_allclose(mini_stats[key].l1, l1, rtol=1e-12)
        assert mini_stats[key].token_count == stacked.shape[0]


def test_stats_bytes_equal_a_reduction_of_whole_observed_blocks(mini_weights, mini_calib, mini_stats):
    # The reduction as it ran on blocks kept until the forward returned: each
    # whole block reduced once, its sums added per key in sequence order.
    sumsq: dict[str, np.ndarray] = {}
    l1: dict[str, np.ndarray] = {}
    for seq in mini_calib.sequences:
        for keys, block in _observed_blocks(mini_weights, seq):
            sq, ab = (block * block).sum(axis=0), np.abs(block).sum(axis=0)
            for key in keys:
                sumsq[key] = sumsq.get(key, 0.0) + sq
                l1[key] = l1.get(key, 0.0) + ab
    assert list(mini_stats) == list(sumsq)
    for key, entry in mini_stats.items():
        assert entry.v.tobytes() == np.sqrt(sumsq[key]).tobytes()
        assert entry.l1.tobytes() == l1[key].tobytes()
        assert entry.token_count == sum(map(len, mini_calib.sequences))


def test_stats_of_a_sequence_hold_no_more_than_a_plain_forward():
    # Each layer's input blocks are reduced as the forward makes them, so the
    # stats of one sequence peak where its plain forward does. The blocks of
    # all 4 layers, kept to the end, would come to 3.7 MB at T 128.
    weights = init_model(ModelConfig(vocab_size=64, d_model=128, n_layers=4, n_heads=4, d_ff=512, max_seq_len=128), 1)
    seq = tuple(int(t) for t in np.random.default_rng(0).integers(0, 64, size=128))
    forward(weights, seq)  # fills the per-length and per-config caches

    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn(weights, seq)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(objective._stats_partials) <= traced_peak(forward) + 2**20


def test_stats_hand_example_arithmetic():
    block = np.array([[3.0, 0.0], [4.0, 0.0]])
    v = np.sqrt((block**2).sum(axis=0))
    l1 = np.abs(block).sum(axis=0)
    assert np.array_equal(v, [5.0, 0.0])
    assert np.array_equal(l1, [7.0, 0.0])


def test_doubling_calibration_scales_v_by_sqrt2(mini_weights, mini_calib, mini_stats):
    doubled = CalibrationSet(sequences=mini_calib.sequences + mini_calib.sequences)
    stats2 = collect_activation_stats(mini_weights, doubled)
    for key in mini_stats:
        np.testing.assert_allclose(
            stats2[key].v, np.sqrt(2.0) * mini_stats[key].v, rtol=1e-15, atol=0.0
        )
        np.testing.assert_allclose(stats2[key].l1, 2.0 * mini_stats[key].l1, rtol=1e-15, atol=0.0)


def test_token_mean_sqdist_hand_example():
    assert token_mean_sqdist(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])) == 1.0


def test_divergence_zero_for_identical_model(mini_weights, mini_calib, mini_stats):
    dense = final_hidden_batch(mini_weights, mini_calib)
    pruned, _ = prune_model(mini_weights, mini_stats, preset("wanda"), Unstructured(0.0))
    assert divergence(dense, pruned, mini_calib) == 0.0


def test_divergence_positive_for_real_pruning(mini_ctx):
    assert evaluate_config(mini_ctx, preset("wanda")) > 0.0


def test_divergence_matches_plain_recomputation(mini_weights, mini_calib, mini_stats):
    dense = final_hidden_batch(mini_weights, mini_calib)
    pruned, _ = prune_model(mini_weights, mini_stats, preset("ria"), Unstructured(0.5))
    fit = divergence(dense, pruned, mini_calib)
    per_seq = []
    for ref, seq in zip(dense, mini_calib.sequences):
        h = forward(pruned, seq)
        per_seq.append(((ref - h) ** 2).sum(axis=1).mean())
    assert fit == pytest.approx(np.mean(per_seq), rel=1e-15)


def test_divergence_invariant_under_sequence_permutation(mini_weights, mini_calib, mini_stats):
    dense = final_hidden_batch(mini_weights, mini_calib)
    pruned, _ = prune_model(mini_weights, mini_stats, preset("wanda"), Unstructured(0.5))
    base = divergence(dense, pruned, mini_calib)
    order = [2, 0, 3, 1]
    flipped = CalibrationSet(sequences=tuple(mini_calib.sequences[i] for i in order))
    permuted = divergence([dense[i] for i in order], pruned, flipped)
    assert permuted == pytest.approx(base, rel=1e-15)


def test_divergence_cache_mismatch_errors(mini_weights, mini_calib, mini_stats):
    dense = final_hidden_batch(mini_weights, mini_calib)
    pruned, _ = prune_model(mini_weights, mini_stats, preset("wanda"), Unstructured(0.5))
    with pytest.raises(ValueError):
        divergence(dense[:-1], pruned, mini_calib)
    with pytest.raises(ValueError):
        divergence([h[:-1] for h in dense], pruned, mini_calib)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_sum_of_activation_statistics_is_a_value_error(mini_weights, mini_calib, monkeypatch):
    # Each sequence's partial sums are finite; their sum over 4 sequences is not.
    monkeypatch.setattr(objective, "_stats_partials", lambda weights, seq: {"k": (np.full(3, 1e308), np.ones(3))})
    with pytest.raises(ValueError, match="the sum of the activation statistics overflows float64"):
        collect_activation_stats(mini_weights, mini_calib)


def test_dense_cache_matches_fresh_recomputation(mini_ctx, mini_weights, mini_calib):
    fresh = final_hidden_batch(mini_weights, mini_calib)
    for cached, again in zip(mini_ctx.dense_hidden, fresh):
        assert cached.tobytes() == again.tobytes()


def test_evaluate_config_deterministic(mini_weights, mini_calib):
    ctx = make_context(mini_weights, mini_calib, Unstructured(0.5))
    a = evaluate_config(ctx, preset("wanda"))
    b = evaluate_config(ctx, preset("wanda"))
    assert type(a) is float and a == b


def test_zero_ratio_context_gives_zero_for_every_kind(mini_weights, mini_calib):
    ctx = make_context(mini_weights, mini_calib, Unstructured(0.0))
    for name in ("magnitude", "wanda", "ria", "optishear-l2-gsm8k"):
        assert evaluate_config(ctx, preset(name)) == 0.0


def test_identical_masks_give_bit_identical_divergence(mini_ctx):
    # Frobenius and global-mean weight scalings cannot change per-row ranking,
    # so these two presets build the same masks and must tie exactly.
    a = evaluate_config(mini_ctx, preset("optishear-l2-gsm8k"))
    b = evaluate_config(mini_ctx, preset("optishear-l3-gsm8k"))
    assert a == b


@pytest.mark.parametrize("spec", [Unstructured(0.5), SemiStructured(2, 4)], ids=["0.5", "2:4"])
def test_exhaustive_runs_one_divergence_per_distinct_mask_set(mini_weights, mini_calib, spec, monkeypatch):
    ctx = make_context(mini_weights, mini_calib, spec)
    # Every config through the per-config path, prune_model then divergence.
    # The divergence of a pruned copy depends only on its masks, so the
    # reference runs it once per distinct mask set.
    reference = {}
    by_mask_set = {}
    for cfg in all_configs():
        pruned, masks = prune_model(ctx.weights, ctx.stats, cfg, spec)
        mask_set = tuple(m.bits.tobytes() for m in masks.values())
        if mask_set not in by_mask_set:
            by_mask_set[mask_set] = divergence(ctx.dense_hidden, pruned, ctx.calib)
        reference[cfg] = by_mask_set[mask_set]

    calls = []

    def counting_divergence(*args):
        calls.append(1)
        return divergence(*args)

    monkeypatch.setattr(objective, "divergence", counting_divergence)
    result = exhaustive_search(functools.partial(evaluate_configs, ctx))
    assert len(calls) == len(by_mask_set) < SPACE_SIZE
    assert {cfg: value for _, cfg, value in result.trials} == reference  # bit for bit


def test_exhaustive_masks_once_per_group_and_copies_once_per_mask_set(mini_weights, mini_calib, monkeypatch):
    ctx = make_context(mini_weights, mini_calib, Unstructured(0.5))
    build_calls, copies = [], []
    build_mask, apply_masks = prune.build_mask, prune.apply_masks

    def counting_build_mask(scores, spec):
        build_calls.append(scores.shape)
        return build_mask(scores, spec)

    def counting_apply_masks(weights, masks):
        copies.append(1)
        return apply_masks(weights, masks)

    monkeypatch.setattr(prune, "build_mask", counting_build_mask)
    monkeypatch.setattr(objective, "apply_masks", counting_apply_masks)
    exhaustive_search(functools.partial(evaluate_configs, ctx))
    # 49 (alpha, f1) groups x 14 sub-modules; no group is split at this width.
    assert len(build_calls) == 49 * 7 * mini_weights.config.n_layers
    assert all(shape[0] == 49 for shape in build_calls)
    assert len(copies) == _distinct_mask_sets(ctx, all_configs()) < SPACE_SIZE


def _distinct_mask_sets(ctx, kinds):
    return len({packed for _, packed in prune.packed_mask_sets(ctx.weights, ctx.stats, kinds, ctx.spec)})


def test_evaluate_configs_keeps_input_order_and_duplicates(mini_weights, mini_calib):
    kinds = [preset("ria"), preset("magnitude"), preset("wanda"), preset("ria"), preset("magnitude")]
    grouped = evaluate_configs(make_context(mini_weights, mini_calib, Unstructured(0.5)), kinds)
    one_by_one = make_context(mini_weights, mini_calib, Unstructured(0.5))
    assert grouped == [evaluate_config(one_by_one, kind) for kind in kinds]
    assert grouped[0] is grouped[3] and grouped[1] is grouped[4]
    assert evaluate_configs(one_by_one, []) == []


@pytest.mark.parametrize("spec", [Unstructured(0.5), SemiStructured(2, 4)], ids=["0.5", "2:4"])
def test_worker_scores_are_bit_identical_to_in_process(mini_weights, mini_calib, spec, monkeypatch):
    # The first 300 configs repeat mask sets (rank-neutral alphas and betas)
    # and hold more than 32 new mask sets, all in one call; the tail repeats
    # kinds.
    kinds = all_configs()[:300]
    kinds += kinds[:40]
    local = make_context(mini_weights, mini_calib, spec)
    expected = evaluate_configs(local, kinds)
    assert 32 < _distinct_mask_sets(local, kinds) < len(set(kinds))

    monkeypatch.setattr(objective, "_usable_cpus", lambda: 2)
    with scoring_workers(make_context(mini_weights, mini_calib, spec), jobs=2) as pooled:
        got = pooled(kinds)
        assert len(multiprocessing.active_children()) == 2
    assert multiprocessing.active_children() == []
    assert got == expected


def _class_of(kind):
    return kind if isinstance(kind, Magnitude) else mask_equivalence_key(kind.codes)


@pytest.mark.parametrize("per_call", [prune.MAX_SCORES_PER_CALL, 1000], ids=["whole-groups", "split-groups"])
@pytest.mark.parametrize("workers", [2, 3])
def test_workers_mask_and_score_whole_class_shards(mini_weights, mini_calib, monkeypatch, workers, per_call):
    kinds = [preset("magnitude"), *all_configs()[:300]]
    kinds += kinds[:40]
    expected = evaluate_configs(make_context(mini_weights, mini_calib, Unstructured(0.5)), kinds)

    # Set before the fork, so the workers mask with it: at most 3 configs
    # per build_mask call at this width, far fewer than a shard's groups hold.
    monkeypatch.setattr(prune, "MAX_SCORES_PER_CALL", per_call)
    monkeypatch.setattr(objective, "_usable_cpus", lambda: workers)
    sent, deal = [], objective._deal

    def recording_deal(distinct, shards):
        dealt = deal(distinct, shards)
        sent.extend(dealt)
        return dealt

    monkeypatch.setattr(objective, "_deal", recording_deal)
    with scoring_workers(make_context(mini_weights, mini_calib, Unstructured(0.5)), jobs=workers) as pooled:
        got = pooled(kinds)
    assert got == expected

    assert 1 < len(sent) <= workers
    dealt = [kind for shard in sent for kind in shard]
    assert len(dealt) == len(set(dealt)) and set(dealt) == set(kinds)
    classes = [{_class_of(kind) for kind in shard} for shard in sent]
    assert sum(map(len, classes)) == len(set().union(*classes))  # no class in two shards
    assert max(map(len, classes)) - min(map(len, classes)) <= 1
    groups = Counter((kind.alpha, kind.f1) for kind in sent[0] if not isinstance(kind, Magnitude))
    assert max(groups.values()) > 3


def test_a_pooled_exhaustive_search_holds_no_mask_set_in_the_parent(monkeypatch):
    # The acceptance fixture's shapes: 2.5 KB per packed mask set, 434 of
    # them at 0.5. Short calibration sequences keep the forwards cheap.
    config = ModelConfig(vocab_size=128, d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=64)
    calib = synthetic_calibration(config.vocab_size, 2, 16, seed=7)
    monkeypatch.setattr(objective, "_usable_cpus", lambda: 2)
    with scoring_workers(make_context(init_model(config, seed=42), calib, Unstructured(0.5)), jobs=2) as pooled:
        pooled([preset("magnitude")])  # forks the workers before tracing starts
        tracemalloc.start()
        try:
            result = exhaustive_search(pooled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # The trial log and the pickled shards take about 1.1 MB. Holding the new
    # mask sets (434 x 2.5 KB) and the masking stacks here took 5.6 MB.
    assert peak < 2_000_000, f"{peak / 1e6:.2f} MB"
    assert len(result.trials) == SPACE_SIZE


def test_a_context_retains_nothing_after_a_search():
    # 32 KiB per packed mask set at this width, and about 435 distinct sets:
    # a context that kept them would hold about 14 MB, and so would a call
    # that keyed its sets by their bits (21 MB peak, against 8 MB with
    # 16-byte digests and each new set scored as it is built).
    config = ModelConfig(vocab_size=128, d_model=64, n_layers=4, n_heads=4, d_ff=256, max_seq_len=64)
    calib = synthetic_calibration(config.vocab_size, 2, 16, seed=7)
    ctx = make_context(init_model(config, seed=42), calib, Unstructured(0.5))
    tracemalloc.start()
    try:
        result = exhaustive_search(functools.partial(evaluate_configs, ctx))
        assert len(result.trials) == SPACE_SIZE
        del result
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000, f"{retained / 1e6:.2f} MB"
    assert peak < 12_000_000, f"{peak / 1e6:.2f} MB"


def test_one_worker_forks_nothing(mini_ctx, monkeypatch):
    monkeypatch.setattr(objective, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(objective, "_fork_pool", lambda role, *args: pytest.fail(f"forked a {role} pool"))
    with scoring_workers(mini_ctx, jobs=1) as evaluate:
        assert evaluate.func is evaluate_configs and evaluate.args == (mini_ctx,) and not evaluate.keywords
        assert evaluate(all_configs()[:60]) == evaluate_configs(mini_ctx, all_configs()[:60])
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs, cpus, expected", [(1, 64, 1), (4, 2, 2), (2, 2, 2), (3, 8, 3), (10**9, 8, 8), (5, 1, 1)])
def test_worker_count_is_capped_by_the_usable_cpus(jobs, cpus, expected):
    assert worker_count(jobs, cpus) == expected


def _force_calibration_pool(monkeypatch):
    monkeypatch.setattr(objective, "POOL_MIN_MACS", 0)
    monkeypatch.setattr(objective, "_usable_cpus", lambda: 2)


def test_pooled_passes_are_bit_identical_to_the_serial_ones(mini_weights, mini_stats, mini_calib, monkeypatch):
    # eval's two passes: the dense hidden cache, then the pruned model's
    # divergence against it, each sequence sent back from a worker; then
    # make_context's two: the activation stats, then the dense hidden cache.
    pruned, _ = prune_model(mini_weights, mini_stats, preset("ria"), Unstructured(0.5))
    serial_cache = [forward(mini_weights, seq) for seq in mini_calib.sequences]
    serial = divergence(serial_cache, pruned, mini_calib)
    assert [h.tobytes() for h in final_hidden_batch(mini_weights, mini_calib)] == [h.tobytes() for h in serial_cache]
    serial_ctx = make_context(mini_weights, mini_calib, Unstructured(0.5))
    _force_calibration_pool(monkeypatch)
    pools, fork_pool = [], objective._fork_pool
    monkeypatch.setattr(objective, "_fork_pool", lambda role, *args: pools.append(role) or fork_pool(role, *args))
    cache = final_hidden_batch(mini_weights, mini_calib)
    assert [h.tobytes() for h in cache] == [h.tobytes() for h in serial_cache]
    assert divergence(cache, pruned, mini_calib) == serial > 0.0
    assert pools == ["calibration", "calibration"] and multiprocessing.active_children() == []
    pools.clear()
    ctx = make_context(mini_weights, mini_calib, Unstructured(0.5))
    assert pools == ["calibration", "calibration"] and multiprocessing.active_children() == []
    assert [h.tobytes() for h in ctx.dense_hidden] == [h.tobytes() for h in serial_ctx.dense_hidden]
    assert ctx.stats.keys() == serial_ctx.stats.keys()
    for key, entry in ctx.stats.items():
        expected = serial_ctx.stats[key]
        assert entry.v.tobytes() == expected.v.tobytes() and entry.l1.tobytes() == expected.l1.tobytes()
        assert entry.token_count == expected.token_count


def test_a_scoring_worker_forks_no_pool_of_its_own(mini_weights, mini_calib, monkeypatch):
    kinds = all_configs()[:60]
    expected = evaluate_configs(make_context(mini_weights, mini_calib, Unstructured(0.5)), kinds)
    ctx = make_context(mini_weights, mini_calib, Unstructured(0.5))
    parent, fork_pool = os.getpid(), objective._fork_pool

    def in_the_parent_only(role, *args):
        assert os.getpid() == parent, f"a worker forked a {role} pool"
        return fork_pool(role, *args)

    # Every divergence is now large enough for a calibration pool.
    _force_calibration_pool(monkeypatch)
    monkeypatch.setattr(objective, "_fork_pool", in_the_parent_only)
    with scoring_workers(ctx, jobs=2) as pooled:
        assert pooled(kinds) == expected
    assert multiprocessing.active_children() == []


def test_divergence_rejects_a_non_finite_fitness(mini_weights, mini_calib):
    # A NaN weight in the final norm makes every pruned hidden state NaN.
    tensors = dict(mini_weights.tensors, final_norm=np.full_like(mini_weights.tensors["final_norm"], np.nan))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        divergence(final_hidden_batch(mini_weights, mini_calib), ModelWeights(mini_weights.config, tensors), mini_calib)


def test_zero_weight_model_still_produces_finite_stats(mini_weights, mini_calib):
    # Embeddings propagate even when every prunable matrix is zeroed.
    zeroed = ModelWeights(mini_weights.config, {
        name: np.zeros_like(w) if name in sub_module_shapes(mini_weights.config) else w
        for name, w in mini_weights.tensors.items()
    })
    stats = collect_activation_stats(zeroed, mini_calib)
    assert len(stats) == 7 * mini_weights.config.n_layers
    for entry in stats.values():
        assert np.isfinite(entry.v).all()
        assert np.isfinite(entry.l1).all()
    # attention norm inputs still carry embedding signal
    assert stats["layer.0.q"].v.sum() > 0.0
