import numpy as np
import pytest

from prunesearch.metric import mask_equivalence_key
from prunesearch.objective import make_context
from prunesearch.prune import Unstructured
from prunesearch.search import (
    GENE_MAX,
    SearchParams,
    _class_key,
    all_configs,
    decode,
    environmental_selection,
    exhaustive_search,
    nsga2_search,
    polynomial_mutation,
    random_search,
    sbx_crossover,
)


class FakeRng:
    """Replays a fixed sequence of uniform draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestDecode:
    def test_zero_genome(self):
        assert decode([0.0, 0.0, 0.0, 0.0]).codes == (0, 0, 0, 0)

    def test_boundary_clamp(self):
        assert decode([0.999, 0.999, 0.999, 0.999]).codes == (6, 6, 6, 6)

    def test_midpoint(self):
        assert decode([0.5, 0.0, 0.0, 0.0]).codes == (3, 0, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            decode([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            decode([-0.1, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            decode([0.1, 0.2, 0.3])


def test_class_key_matches_decoded_key_for_every_code_tuple():
    # The search's fast key must name the same mask class as decoding the
    # genome, mid-cell and on both sides of every cell edge k/7; and both
    # share one gene-to-code rule, so that rule is checked against a
    # vectorised reference too.
    def gene_choices(code):
        edge = code / 7.0
        top = GENE_MAX if code == 6 else np.nextafter((code + 1) / 7.0, 0.0)
        return (edge, np.nextafter(edge, 1.0), (code + 0.5) / 7.0, np.nextafter(edge, 0.0), top)

    for cfg in all_configs():
        for position in range(5):
            genes = np.array([gene_choices(c)[position] for c in cfg.codes])
            assert _class_key(genes) == mask_equivalence_key(decode(genes)), genes.tolist()
            reference = np.minimum((genes * 7).astype(np.int64), 6)
            assert decode(genes).codes == tuple(reference.tolist()), genes.tolist()


class TestSbx:
    def test_u_half_returns_parents(self):
        p1 = np.array([0.1, 0.2, 0.3, 0.4])
        p2 = np.array([0.5, 0.6, 0.7, 0.8])
        c1, c2 = sbx_crossover(p1, p2, 15.0, FakeRng([0.5] * 4))
        np.testing.assert_allclose(c1, p1, rtol=1e-12)
        np.testing.assert_allclose(c2, p2, rtol=1e-12)

    def test_children_sum_to_parent_sum(self):
        # Mid-range parents keep the children inside [0,1), so no clipping.
        p1 = np.array([0.40, 0.45, 0.50, 0.55])
        p2 = np.array([0.60, 0.55, 0.50, 0.45])
        rng = np.random.default_rng(0)
        for _ in range(50):
            c1, c2 = sbx_crossover(p1, p2, 15.0, rng)
            np.testing.assert_allclose(c1 + c2, p1 + p2, rtol=1e-10)

    def test_equal_parents_fixed_point(self):
        p = np.array([0.3, 0.3, 0.3, 0.3])
        c1, c2 = sbx_crossover(p, p, 15.0, np.random.default_rng(1))
        np.testing.assert_allclose(c1, p, rtol=1e-12)
        np.testing.assert_allclose(c2, p, rtol=1e-12)

    def test_children_stay_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p1 = rng.random(4)
            p2 = rng.random(4)
            c1, c2 = sbx_crossover(p1, p2, 15.0, rng)
            for child in (c1, c2):
                assert (child >= 0.0).all() and (child < 1.0).all()


class TestMutation:
    def test_zero_probability_is_identity(self):
        g = np.array([0.1, 0.4, 0.6, 0.9])
        out = polynomial_mutation(g, 20.0, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, g)

    def test_u_half_gives_zero_delta(self):
        g = np.array([0.25, 0.25, 0.25, 0.25])
        # Gene 0 mutates with u=0.5 (delta 0); the rest never trigger.
        rng = FakeRng([0.0, 0.5, 0.9, 0.9, 0.9])
        out = polynomial_mutation(g, 20.0, 0.25, rng)
        np.testing.assert_allclose(out, g, rtol=1e-12)

    def test_outputs_stay_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = rng.random(4)
            out = polynomial_mutation(g, 20.0, 1.0, rng)
            assert (out >= 0.0).all() and (out < 1.0).all()


def test_environmental_selection_is_plain_fitness_sort():
    fits = [0.5, 0.1, 0.9, 0.1, 0.3]
    order = environmental_selection(fits, 3)
    assert order == [1, 3, 4]  # stable sort keeps first of the tied pair first
    assert order == sorted(range(len(fits)), key=lambda i: (fits[i], i))[:3]


def test_all_configs_enumerates_space():
    configs = all_configs()
    assert len(configs) == 2401
    assert len(set(configs)) == 2401
    assert configs[0].codes == (0, 0, 0, 0)
    assert configs[-1].codes == (6, 6, 6, 6)


def test_params_validation():
    with pytest.raises(ValueError):
        SearchParams(population=7)
    with pytest.raises(ValueError):
        SearchParams(population=24, budget=23)


class TestNsga2:
    def test_budget_equals_population_runs_one_generation(self, mini_ctx):
        params = SearchParams(population=8, budget=8, seed=5)
        result = nsga2_search(mini_ctx, params)
        assert len(result.trials) == 8
        assert result.evaluations_used == 8
        assert result.distinct_configs_evaluated == 8

    def test_same_seed_same_result(self, mini_ctx):
        a = nsga2_search(mini_ctx, SearchParams(population=8, budget=40, seed=9))
        b = nsga2_search(mini_ctx, SearchParams(population=8, budget=40, seed=9))
        assert a.trials == b.trials
        assert a.best_config == b.best_config
        assert a.best_l_div == b.best_l_div

    def test_accounting_invariants(self, mini_ctx):
        result = nsga2_search(mini_ctx, SearchParams(population=8, budget=60, seed=2))
        assert result.evaluations_used <= 60
        assert result.distinct_configs_evaluated == result.evaluations_used
        assert result.best_l_div == min(t[2] for t in result.trials)
        assert result.best_l_div <= result.trials[0][2]
        # trial indices are consecutive
        assert [t[0] for t in result.trials] == list(range(len(result.trials)))

    def test_warm_context_gives_the_same_search(self, mini_weights, mini_calib):
        params = SearchParams(population=8, budget=60, seed=2)
        warm = make_context(mini_weights, mini_calib, Unstructured(0.5))
        exhaustive_search(warm)
        cached = len(warm.fitness_by_masks)
        a = nsga2_search(warm, params)
        b = nsga2_search(make_context(mini_weights, mini_calib, Unstructured(0.5)), params)
        assert len(warm.fitness_by_masks) == cached  # every mask set was already known
        assert a.trials == b.trials
        assert (a.best_config, a.best_l_div) == (b.best_config, b.best_l_div)
        assert a.evaluations_used == b.evaluations_used

    def test_memoized_duplicates_are_bit_identical(self, mini_ctx):
        result = nsga2_search(mini_ctx, SearchParams(population=8, budget=60, seed=2))
        by_config = {}
        for _, cfg, l_div in result.trials:
            if cfg in by_config:
                assert by_config[cfg] == l_div
            by_config[cfg] = l_div


class TestRandomSearch:
    def test_deterministic(self, mini_ctx):
        a = random_search(mini_ctx, budget=20, seed=4)
        b = random_search(mini_ctx, budget=20, seed=4)
        assert a.trials == b.trials

    def test_duplicates_do_not_consume_budget(self, mini_ctx):
        result = random_search(mini_ctx, budget=120, seed=0)
        configs = [cfg for _, cfg, _ in result.trials]
        assert len(result.trials) > result.evaluations_used  # dup draws were logged
        assert result.evaluations_used == len(set(configs)) == 120
        seen = {}
        for _, cfg, l_div in result.trials:
            if cfg in seen:
                assert seen[cfg] == l_div
            seen[cfg] = l_div

    def test_running_best_non_increasing(self, mini_ctx):
        result = random_search(mini_ctx, budget=40, seed=1)
        best = float("inf")
        mins = []
        for _, _, l_div in result.trials:
            best = min(best, l_div)
            mins.append(best)
        assert mins == sorted(mins, reverse=True)

    def test_without_replacement_all_distinct(self, mini_ctx):
        result = random_search(mini_ctx, budget=50, seed=6, without_replacement=True)
        configs = [cfg for _, cfg, _ in result.trials]
        assert len(set(configs)) == len(configs) == 50

    def test_budget_validation(self, mini_ctx):
        with pytest.raises(ValueError):
            random_search(mini_ctx, budget=0, seed=0)


def test_exhaustive_is_sorted_and_complete(mini_ctx):
    from prunesearch.metric import preset

    oracle = exhaustive_search(mini_ctx)
    assert len(oracle.trials) == 2401
    values = [v for _, _, v in oracle.trials]
    assert values == sorted(values)
    assert oracle.best_l_div == values[0]
    by_config = {cfg: v for _, cfg, v in oracle.trials}
    assert len(by_config) == 2401
    # named presets appear in the table and cannot beat the table minimum
    for name in ("wanda", "ria", "optishear-l2-gsm8k", "optishear-l3-gsm8k"):
        assert preset(name) in by_config
        assert oracle.best_l_div <= by_config[preset(name)]
    # nsga2 can never beat the oracle
    result = nsga2_search(mini_ctx, SearchParams(population=8, budget=40, seed=3))
    assert result.best_l_div >= oracle.best_l_div
    # mask-equivalent configs tie exactly in the oracle table
    by_key = {}
    for _, cfg, v in oracle.trials:
        key = mask_equivalence_key(cfg)
        if key in by_key:
            assert by_key[key] == v
        by_key[key] = v
