import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    bits = build_mask(np.array([[2.0, 2.0], [0.0, 3.0]]), Unstructured(0.5))
    assert np.array_equal(bits, [[True, False], [False, True]])


def test_build_mask_2_of_4_hand_example():
    bits = build_mask(np.array([[5.0, 1.0, 4.0, 2.0]]), SemiStructured(2, 4))
    assert np.array_equal(bits, [[True, False, True, False]])


def test_build_mask_ratio_zero_keeps_all():
    scores = np.arange(12.0).reshape(3, 4)
    assert build_mask(scores, Unstructured(0.0)).all()


def test_build_mask_ratio_one_drops_all():
    scores = np.arange(12.0).reshape(3, 4)
    assert not build_mask(scores, Unstructured(1.0)).any()


def test_build_mask_group_misalignment():
    with pytest.raises(ValueError):
        build_mask(np.ones((2, 6)), SemiStructured(2, 4))


def test_nm_groups_keep_exactly_n():
    rng = np.random.default_rng(0)
    for n, m in ((2, 4), (4, 8)):
        scores = rng.normal(size=(16, 32))
        bits = build_mask(scores, SemiStructured(n, m))
        groups = bits.reshape(16, 32 // m, m)
        assert (groups.sum(axis=2) == n).all()


def test_unstructured_row_counts_exact():
    rng = np.random.default_rng(1)
    # 0.29 * 100 evaluates to 28.999999999999996; it snaps to 29 before the floor.
    for ratio, cols, dropped in ((0.25, 10, 2), (0.5, 10, 5), (0.75, 10, 7), (0.3, 10, 3), (0.29, 100, 29)):
        scores = rng.normal(size=(8, cols))
        bits = build_mask(scores, Unstructured(ratio))
        assert (bits.sum(axis=1) == cols - dropped).all()


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
            bits = build_mask(scores, spec)
            assert bits.tobytes() == _two_branch_build_mask(scores, spec).tobytes()
            assert bits.shape == (rows, cols)


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
            assert stack.shape == shape
            for index in np.ndindex(shape[:-2]):
                assert stack[index].tobytes() == build_mask(scores[index], spec).tobytes()


def _stable_sort_build_mask(scores, spec):
    """build_mask as it was before the value sort: a stable argsort of every
    negated group, whose first `keep` positions are kept."""
    width, keep = spec.groups(scores.shape[-1])
    grouped = scores.reshape(-1, width)
    order = np.argsort(-grouped, axis=1, kind="stable")
    bits = np.zeros(grouped.shape, dtype=bool)
    np.put_along_axis(bits, order[:, :keep], True, axis=1)
    return bits.reshape(scores.shape)


def _assert_matches_stable_sort(scores, spec):
    bits = build_mask(scores, spec)
    assert type(bits) is np.ndarray and bits.shape == scores.shape and bits.dtype == np.bool_
    assert bits.tobytes() == _stable_sort_build_mask(scores, spec).tobytes()


_NAN, _INF = np.nan, np.inf
_HAND_ROWS = {
    "one NaN": ([[3.0, _NAN, 1.0, 2.0]], Unstructured(0.5)),
    "all NaN": ([[_NAN, _NAN, _NAN, _NAN]], Unstructured(0.5)),
    "NaN at the keep boundary": ([[_NAN, 1.0, _NAN, _NAN]], Unstructured(0.5)),
    "NaN just past the boundary": ([[1.0, _NAN, 2.0, _NAN]], Unstructured(0.5)),
    "NaN and a tie": ([[1.0, _NAN, 1.0, 1.0, _NAN, 0.0]], SemiStructured(2, 3)),
    "+inf and -inf": ([[_INF, 1.0, -_INF, 0.0], [-_INF, -_INF, 2.0, _INF]], Unstructured(0.5)),
    "+inf tied at the boundary": ([[_INF, _INF, _INF, 0.0]], Unstructured(0.5)),
    "-inf tied at the boundary": ([[-_INF, 5.0, -_INF, -_INF]], Unstructured(0.5)),
    "-0.0 and 0.0": ([[-0.0, 0.0, 0.0, -0.0], [0.0, -0.0, 1.0, -1.0]], Unstructured(0.5)),
    "-0.0 and 0.0 at 1:4": ([[0.0, -0.0, -0.0, 0.0], [-0.0, 0.0, 0.0, -0.0]], SemiStructured(1, 4)),
    "tie at the boundary": ([[1.0, 2.0, 2.0, 0.0], [4.0, 4.0, 4.0, 4.0]], SemiStructured(1, 4)),
    "tie inside the kept set": ([[5.0, 5.0, 1.0, 2.0], [0.0, 7.0, 7.0, 7.0]], SemiStructured(2, 4)),
    "keep 0": ([[3.0, _NAN, 1.0, 2.0]], Unstructured(1.0)),
    "keep 1": ([[3.0, 3.0, 1.0, 2.0, _NAN, 0.0, 3.0, -_INF]], Unstructured(0.875)),
    "keep width - 1": ([[3.0, 3.0, 1.0, 1.0, _NAN, 0.0, _NAN, -_INF]], SemiStructured(7, 8)),
    "keep width": ([[3.0, _NAN, 1.0, 2.0]], SemiStructured(4, 4)),
}


@pytest.mark.parametrize("rows, spec", _HAND_ROWS.values(), ids=_HAND_ROWS.keys())
def test_build_mask_matches_stable_sort_on_hand_rows(rows, spec):
    _assert_matches_stable_sort(np.array(rows), spec)


_SPECS = [Unstructured(0.0), Unstructured(0.29), Unstructured(0.5), Unstructured(1.0),
          SemiStructured(1, 4), SemiStructured(2, 4), SemiStructured(4, 8)]


@pytest.mark.parametrize("spec", _SPECS, ids=str)
@pytest.mark.parametrize("cols", [8, 32, 64, 104, 1024])
def test_build_mask_matches_stable_sort_at_every_width(spec, cols):
    # Two and three levels tie at the boundary in most rows, 1000 levels and
    # normal draws in few; some rows also carry NaN, +-inf and -0.0.
    rng = np.random.default_rng(cols)
    for levels in (2, 3, 1000, None):
        shape = (9, cols)
        scores = rng.normal(size=shape) if levels is None else rng.integers(0, levels, size=shape) * 1.0
        _assert_matches_stable_sort(scores, spec)
        for value, share in ((_NAN, 0.1), (_INF, 0.05), (-_INF, 0.05), (-0.0, 0.1)):
            scores[rng.random(shape) < share] = value
        _assert_matches_stable_sort(scores, spec)


@pytest.mark.parametrize("spec", _SPECS, ids=str)
@pytest.mark.parametrize("shape", [(5, 7, 40), (2, 3, 1, 40), (0, 40), (3, 0, 40)], ids=str)
def test_build_mask_matches_stable_sort_on_stacks_and_empty_inputs(spec, shape):
    rng = np.random.default_rng(5)
    for levels in (2, 1000):
        _assert_matches_stable_sort(rng.integers(0, levels, size=shape) * 1.0, spec)


def _rows_tied_at_the_boundary(scores, spec):
    """Which groups hold a tie or a NaN at the keep boundary."""
    width, keep = spec.groups(scores.shape[-1])
    ranked = np.sort(-scores.reshape(-1, width), axis=1)
    return (ranked[:, keep - 1] == ranked[:, keep]) | np.isnan(ranked[:, keep - 1])


@pytest.mark.parametrize("spec", [Unstructured(0.5), SemiStructured(2, 4)], ids=str)
def test_build_mask_one_call_mixes_tied_and_untied_rows(spec):
    rng = np.random.default_rng(8)
    scores = rng.normal(size=(12, 16))
    scores[::3] = rng.integers(0, 2, size=(4, 16))
    scores[1, 3] = _NAN
    tied = _rows_tied_at_the_boundary(scores, spec)
    assert tied.any() and not tied.all()
    _assert_matches_stable_sort(scores, spec)
    bits = build_mask(scores, spec)
    width, keep = spec.groups(16)
    assert (bits.reshape(-1, width).sum(axis=1) == keep).all()


_SCORE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, _NAN, _INF, -_INF]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    spec=st.sampled_from(_SPECS),
    scores=hnp.arrays(np.float64, st.tuples(st.integers(0, 4), st.sampled_from([8, 16, 24])), elements=_SCORE_VALUES),
)
def test_build_mask_matches_stable_sort_on_any_float64(spec, scores):
    _assert_matches_stable_sort(scores, spec)


@pytest.mark.parametrize("spec", [Unstructured(0.5), SemiStructured(2, 4), Unstructured(1.0), Unstructured(0.0)], ids=str)
def test_build_mask_leaves_scores_untouched_and_shares_no_memory(spec):
    rng = np.random.default_rng(9)
    untied = rng.normal(size=(2, 6, 16))
    tied = rng.integers(0, 2, size=(2, 6, 16)) * 1.0
    tied[0, 0, :3] = _NAN
    width, keep = spec.groups(16)
    if 0 < keep < width:
        assert not _rows_tied_at_the_boundary(untied, spec).any()
        assert _rows_tied_at_the_boundary(tied, spec).any()
    for scores in (untied, tied, untied[:, ::2, :], np.asfortranarray(tied)):
        before = scores.tobytes()
        scores.flags.writeable = False
        bits = build_mask(scores, spec)
        assert scores.tobytes() == before
        assert not np.shares_memory(bits, scores)
        assert bits.flags.writeable


def test_mask_rejects_bits_below_two_dimensions():
    with pytest.raises(ValueError):
        Mask(bits=np.ones(4, dtype=bool))
    with pytest.raises(ValueError):
        build_mask(np.ones(4), Unstructured(0.5))


def _per_config_masks(weights, stats, kind, spec):
    return {
        key: build_mask(score(weights.tensors[key].T, stats[key], kind), spec)
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


def test_packed_mask_sets_mask_c_ordered_score_stacks(monkeypatch, mini_weights, mini_stats):
    # build_mask reshapes its scores into groups; a C-ordered stack is
    # reshaped in place, any other order is first copied whole.
    orders = []

    def recording_build_mask(scores, spec):
        orders.append(scores.flags.c_contiguous)
        return build_mask(scores, spec)

    monkeypatch.setattr(prune, "build_mask", recording_build_mask)
    kinds = [preset("wanda"), preset("ria"), MAGNITUDE]
    assert len(list(packed_mask_sets(mini_weights, mini_stats, kinds, SemiStructured(2, 4)))) == 3
    assert orders and all(orders)


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
        assert np.array_equal(base, mapped)


def test_apply_mask():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = Mask(bits=np.array([[True, False], [False, True]]))
    assert np.array_equal(apply_mask(w, mask), [[1.0, 0.0], [0.0, 4.0]])
    assert np.array_equal(apply_mask(w, Mask(bits=np.ones((2, 2), dtype=bool))), w)
    assert np.array_equal(apply_mask(w, Mask(bits=np.zeros((2, 2), dtype=bool))), np.zeros((2, 2)))


def test_apply_mask_shape_mismatch():
    with pytest.raises(ValueError):
        apply_mask(np.ones((2, 3)), Mask(bits=np.ones((2, 2), dtype=bool)))


def test_prune_model_ratio_zero_is_identity(mini_weights, mini_stats, mini_calib):
    pruned, masks = prune_model(mini_weights, mini_stats, preset("wanda"), Unstructured(0.0))
    for seq in mini_calib.sequences:
        a = forward(mini_weights, seq)
        b = forward(pruned, seq)
        assert a.tobytes() == b.tobytes()
    assert all(m.bits.all() for m in masks.values())


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
        pruned = apply_mask(w, Mask(bits=first))
        second = build_mask(np.abs(pruned), Unstructured(0.5))
        assert np.array_equal(first, second), name
