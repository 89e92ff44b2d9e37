import math

import numpy as np
import pytest

from prunesearch import prune
from prunesearch.metric import MAGNITUDE, Coeff, Transform, preset, score
from prunesearch.model import ModelConfig, forward, init_model, sub_module_key, sub_module_shapes
from prunesearch.objective import collect_activation_stats, synthetic_calibration
from prunesearch.prune import (
    MAX_SCORES_PER_CALL,
    Mask,
    SemiStructured,
    Unstructured,
    apply_mask,
    build_mask,
    packed_mask_sets,
    parse_sparsity,
    prune_model,
    sparsity_of,
    unpack_mask_set,
)
from prunesearch.search import all_configs


def test_spec_validation():
    with pytest.raises(ValueError):
        Unstructured(1.5)
    with pytest.raises(ValueError):
        Unstructured(-0.1)
    with pytest.raises(ValueError):
        SemiStructured(5, 4)
    with pytest.raises(ValueError):
        SemiStructured(0, 4)


def test_spec_groups():
    assert Unstructured(0.5).groups(10) == (10, 5)
    assert Unstructured(0.29).groups(100) == (100, 71)  # 28.999999999999996 snaps to 29
    assert Unstructured(0.0).groups(7) == (7, 7)
    assert Unstructured(1.0).groups(7) == (7, 0)
    assert SemiStructured(2, 4).groups(8) == (4, 2)
    with pytest.raises(ValueError, match="not divisible"):
        SemiStructured(2, 4).groups(6)


def test_parse_sparsity():
    assert parse_sparsity("0.5") == Unstructured(0.5)
    assert parse_sparsity("2:4") == SemiStructured(2, 4)
    with pytest.raises(ValueError):
        parse_sparsity("half")
    with pytest.raises(ValueError):
        parse_sparsity("2:x")


def test_build_mask_tie_keeps_lower_column():
    mask = build_mask(np.array([[2.0, 2.0], [0.0, 3.0]]), Unstructured(0.5))
    assert np.array_equal(mask.bits, [[True, False], [False, True]])


def test_build_mask_2_of_4_hand_example():
    mask = build_mask(np.array([[5.0, 1.0, 4.0, 2.0]]), SemiStructured(2, 4))
    assert np.array_equal(mask.bits, [[True, False, True, False]])


def test_build_mask_ratio_zero_keeps_all():
    scores = np.arange(12.0).reshape(3, 4)
    assert build_mask(scores, Unstructured(0.0)).bits.all()


def test_build_mask_ratio_one_drops_all():
    scores = np.arange(12.0).reshape(3, 4)
    assert not build_mask(scores, Unstructured(1.0)).bits.any()


def test_build_mask_group_misalignment():
    with pytest.raises(ValueError):
        build_mask(np.ones((2, 6)), SemiStructured(2, 4))


def test_nm_groups_keep_exactly_n():
    rng = np.random.default_rng(0)
    for n, m in ((2, 4), (4, 8)):
        scores = rng.normal(size=(16, 32))
        mask = build_mask(scores, SemiStructured(n, m))
        groups = mask.bits.reshape(16, 32 // m, m)
        assert (groups.sum(axis=2) == n).all()


def test_unstructured_row_counts_exact():
    rng = np.random.default_rng(1)
    # 0.29 * 100 evaluates to 28.999999999999996; it snaps to 29 before the floor.
    for ratio, cols, dropped in ((0.25, 10, 2), (0.5, 10, 5), (0.75, 10, 7), (0.3, 10, 3), (0.29, 100, 29)):
        scores = rng.normal(size=(8, cols))
        mask = build_mask(scores, Unstructured(ratio))
        assert (mask.bits.sum(axis=1) == cols - dropped).all()


def _two_branch_build_mask(scores, spec):
    """build_mask as it was before the one-path rewrite: a per-row sort for a
    ratio and a per-group sort for n:m."""
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
        return bits
    grouped = scores.reshape(rows, cols // spec.m, spec.m)
    order = np.argsort(-grouped, axis=2, kind="stable")
    bits = np.zeros(grouped.shape, dtype=bool)
    np.put_along_axis(bits, order[:, :, : spec.n], True, axis=2)
    return bits.reshape(rows, cols)


@pytest.mark.parametrize(
    "spec, cols",
    [
        (Unstructured(0.0), 40),
        (Unstructured(0.25), 40),
        (Unstructured(0.29), 100),
        (Unstructured(0.5), 40),
        (Unstructured(1.0), 40),
        (SemiStructured(1, 4), 40),
        (SemiStructured(2, 4), 40),
        (SemiStructured(4, 8), 40),
    ],
    ids=str,
)
def test_build_mask_matches_two_branch_reference(spec, cols):
    # Small integer scores tie heavily, so the tie order is exercised too.
    rng = np.random.default_rng(12)
    for levels in (2, 3, 1000):
        for rows in (1, 7, 16):
            scores = rng.integers(0, levels, size=(rows, cols)).astype(np.float64)
            mask = build_mask(scores, spec)
            assert mask.bits.tobytes() == _two_branch_build_mask(scores, spec).tobytes()
            assert mask.bits.shape == (rows, cols)


@pytest.mark.parametrize(
    "spec", [Unstructured(0.0), Unstructured(0.29), Unstructured(0.5), Unstructured(1.0),
             SemiStructured(2, 4), SemiStructured(4, 8)],
    ids=str,
)
def test_build_mask_on_a_stack_equals_each_slice(spec):
    # Two and three score levels tie heavily, so the tie order is exercised.
    rng = np.random.default_rng(21)
    for levels in (2, 3, 1000):
        for shape in ((5, 7, 40), (2, 3, 1, 40)):
            scores = rng.integers(0, levels, size=shape).astype(np.float64)
            stack = build_mask(scores, spec)
            assert stack.bits.shape == shape
            for index in np.ndindex(shape[:-2]):
                assert stack.bits[index].tobytes() == build_mask(scores[index], spec).bits.tobytes()


def test_mask_rejects_bits_below_two_dimensions():
    with pytest.raises(ValueError):
        Mask(bits=np.ones(4, dtype=bool))
    with pytest.raises(ValueError):
        build_mask(np.ones(4), Unstructured(0.5))


def _per_config_masks(weights, stats, kind, spec):
    return {
        key: build_mask(score(weights.tensors[key].T, stats[key], kind), spec).bits
        for key in sub_module_shapes(weights.config)
    }


@pytest.mark.parametrize("spec", [Unstructured(0.5), SemiStructured(2, 4)], ids=["0.5", "2:4"])
def test_packed_mask_sets_match_per_config_score_and_mask(mini_weights, mini_stats, spec):
    kinds = [*all_configs(), MAGNITUDE]
    seen = []
    for i, packed in packed_mask_sets(mini_weights, mini_stats, kinds, spec):
        seen.append(i)
        masks = unpack_mask_set(packed, mini_weights.config)
        reference = _per_config_masks(mini_weights, mini_stats, kinds[i], spec)
        assert list(masks) == list(reference)
        for key, mask in masks.items():
            assert mask.bits.tobytes() == reference[key].tobytes(), (kinds[i], key)
        assert packed == b"".join(np.packbits(bits).tobytes() for bits in reference.values())
    assert sorted(seen) == list(range(len(kinds)))


def test_packed_mask_sets_split_by_the_cap_give_the_same_bits(monkeypatch):
    # d_ff 128 x d_model 32 is 4096 scores per matrix, so a 49-config group
    # of gate, up or down is cut into slices of MAX_SCORES_PER_CALL // 4096.
    config = ModelConfig(vocab_size=32, d_model=32, n_layers=1, n_heads=2, d_ff=128, max_seq_len=8)
    weights = init_model(config, seed=4)
    stats = collect_activation_stats(weights, synthetic_calibration(32, 2, 8, seed=5))
    group = [cfg for cfg in all_configs() if (cfg.alpha, cfg.f1) == (Coeff.RELATIVE, Transform.SQRT)]
    shapes = sub_module_shapes(config)
    expected_calls = sum(-(-len(group) // max(1, MAX_SCORES_PER_CALL // (i * o))) for i, o in shapes.values())
    assert expected_calls > len(shapes)

    calls = []

    def counting_build_mask(scores, spec):
        calls.append(scores.shape)
        return build_mask(scores, spec)

    monkeypatch.setattr(prune, "build_mask", counting_build_mask)
    for spec in (Unstructured(0.5), SemiStructured(2, 4)):
        calls.clear()
        for i, packed in packed_mask_sets(weights, stats, group, spec):
            reference = _per_config_masks(weights, stats, group[i], spec)
            for key, mask in unpack_mask_set(packed, config).items():
                assert mask.bits.tobytes() == reference[key].tobytes(), (group[i], key)
        assert len(calls) == expected_calls
        assert all(np.prod(shape) <= MAX_SCORES_PER_CALL for shape in calls)


def test_unpack_mask_set_checks_the_length(mini_weights, mini_stats):
    [(_, packed)] = packed_mask_sets(mini_weights, mini_stats, [preset("wanda")], Unstructured(0.5))
    _, masks = prune_model(mini_weights, mini_stats, preset("wanda"), Unstructured(0.5))
    unpacked = unpack_mask_set(packed, mini_weights.config)
    assert all(unpacked[key].bits.tobytes() == masks[key].bits.tobytes() for key in masks)
    for damaged in (packed[:-1], packed + b"\0"):
        with pytest.raises(ValueError, match="packed mask set"):
            unpack_mask_set(damaged, mini_weights.config)


def test_mask_depends_only_on_order():
    rng = np.random.default_rng(2)
    for spec in (Unstructured(0.5), SemiStructured(2, 4)):
        scores = rng.normal(size=(6, 8))
        base = build_mask(scores, spec)
        mapped = build_mask(scores**3 + 1.0, spec)
        assert np.array_equal(base.bits, mapped.bits)


def test_apply_mask():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = Mask(bits=np.array([[True, False], [False, True]]))
    assert np.array_equal(apply_mask(w, mask), [[1.0, 0.0], [0.0, 4.0]])
    assert np.array_equal(apply_mask(w, Mask(bits=np.ones((2, 2), dtype=bool))), w)
    assert np.array_equal(apply_mask(w, Mask(bits=np.zeros((2, 2), dtype=bool))), np.zeros((2, 2)))


def test_apply_mask_shape_mismatch():
    with pytest.raises(ValueError):
        apply_mask(np.ones((2, 3)), Mask(bits=np.ones((2, 2), dtype=bool)))


def test_sparsity_of():
    assert sparsity_of(Mask(bits=np.ones((2, 2), dtype=bool))) == 0.0
    assert sparsity_of(Mask(bits=np.zeros((2, 2), dtype=bool))) == 1.0
    assert sparsity_of(Mask(bits=np.array([[True, False], [False, True]]))) == 0.5


def test_prune_model_ratio_zero_is_identity(mini_weights, mini_stats, mini_calib):
    pruned, masks = prune_model(mini_weights, mini_stats, preset("wanda"), Unstructured(0.0))
    for seq in mini_calib.sequences:
        a = forward(mini_weights, seq).final_hidden
        b = forward(pruned, seq).final_hidden
        assert a.tobytes() == b.tobytes()
    assert all(sparsity_of(m) == 0.0 for m in masks.values())


def test_prune_model_structure(mini_weights, mini_stats):
    pruned, masks = prune_model(mini_weights, mini_stats, preset("wanda"), Unstructured(0.5))
    assert len(masks) == 7 * mini_weights.config.n_layers
    for mask in masks.values():
        assert (mask.bits.sum(axis=1) * 2 == mask.bits.shape[1]).all()
    # untouched tensors are shared, pruned copies are new
    assert pruned.tensors["token_embedding"] is mini_weights.tensors["token_embedding"]
    assert pruned.tensors["layer.0.q"] is not mini_weights.tensors["layer.0.q"]


def test_prune_model_preserves_original(mini_weights, mini_stats):
    before = mini_weights.tensors["layer.0.q"].copy()
    prune_model(mini_weights, mini_stats, preset("ria"), Unstructured(0.5))
    assert np.array_equal(mini_weights.tensors["layer.0.q"], before)


def test_prune_model_2_4_constraint(mini_weights, mini_stats):
    _, masks = prune_model(mini_weights, mini_stats, preset("wanda"), SemiStructured(2, 4))
    for mask in masks.values():
        rows, cols = mask.bits.shape
        groups = mask.bits.reshape(rows, cols // 4, 4)
        assert (groups.sum(axis=2) == 2).all()


def test_prune_model_missing_stats(mini_weights, mini_stats):
    partial = {k: v for k, v in mini_stats.items() if k != sub_module_key(1, "down")}
    with pytest.raises(ValueError, match="layer.1.down"):
        prune_model(mini_weights, partial, preset("wanda"), Unstructured(0.5))


def test_remasking_pruned_weights_is_stable():
    # Whatever metric built the first mask, re-scoring the pruned matrix with
    # magnitude and re-masking at the same ratio keeps the same kept set as
    # long as the kept entries are nonzero.
    from prunesearch.metric import SubModuleStats, score

    rng = np.random.default_rng(3)
    w = rng.normal(size=(6, 8)) + np.sign(rng.normal(size=(6, 8))) * 0.1
    stats = SubModuleStats(
        v=np.abs(rng.normal(size=8)) + 0.1, l1=np.abs(rng.normal(size=8)) + 0.1, token_count=4
    )
    for name in ("magnitude", "wanda", "ria", "optishear-l2-gsm8k"):
        first = build_mask(score(w, stats, preset(name)), Unstructured(0.5))
        pruned = apply_mask(w, first)
        second = build_mask(np.abs(pruned), Unstructured(0.5))
        assert np.array_equal(first.bits, second.bits), name
