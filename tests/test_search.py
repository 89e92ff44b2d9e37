import numpy as np
import pytest

from prunesearch.metric import MASK_CLASS_COUNT, MetricConfig, mask_equivalence_key
from prunesearch.objective import make_context
from prunesearch.prune import Unstructured
from prunesearch.search import (
    GENE_COUNT,
    P_MUTATION,
    SearchParams,
    _escape_duplicate,
    _initial_population,
    all_configs,
    environmental_selection,
    exhaustive_search,
    nsga2_search,
    random_search,
    resample_mutation,
    uniform_crossover,
)


def _random_genome(rng) -> tuple:
    return tuple(rng.integers(0, 7, size=GENE_COUNT).tolist())


def test_uniform_crossover_children_are_complementary():
    # Each slot of the first child comes from one parent and the second child
    # holds the other parent's code there.
    rng = np.random.default_rng(4)
    for _ in range(300):
        p1, p2 = _random_genome(rng), _random_genome(rng)
        c1, c2 = uniform_crossover(p1, p2, rng)
        for slot in range(GENE_COUNT):
            assert (c1[slot], c2[slot]) in {(p1[slot], p2[slot]), (p2[slot], p1[slot])}


def test_uniform_crossover_of_equal_parents_returns_them():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = _random_genome(rng)
        assert uniform_crossover(p, p, rng) == (p, p)


def test_uniform_crossover_swaps_the_slots_of_its_one_draw():
    # One rng.random(4) draw decides the swaps: child 1 takes the second
    # parent's code where the draw is below 1/2.
    p1, p2 = (0, 1, 2, 3), (6, 5, 4, 3)
    for seed in range(40):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        swap = reference.random(GENE_COUNT) < 0.5
        c1, c2 = uniform_crossover(p1, p2, rng)
        assert c1 == tuple(b if s else a for a, b, s in zip(p1, p2, swap))
        assert c2 == tuple(a if s else b for a, b, s in zip(p1, p2, swap))
        assert rng.bit_generator.state == reference.bit_generator.state


def test_uniform_crossover_swaps_each_slot_half_the_time():
    rng = np.random.default_rng(6)
    swaps = np.zeros(GENE_COUNT)
    trials = 4000
    for _ in range(trials):
        c1, _ = uniform_crossover((0, 0, 0, 0), (1, 1, 1, 1), rng)
        swaps += np.array(c1)
    assert np.all(np.abs(swaps / trials - 0.5) < 0.03), swaps / trials


class TestResampleMutation:
    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            genome = _random_genome(rng)
            assert resample_mutation(genome, 0.0, rng) == genome

    def test_probability_one_reaches_every_other_code(self):
        rng = np.random.default_rng(1)
        reached = {(slot, code): set() for slot in range(GENE_COUNT) for code in range(7)}
        for _ in range(2000):
            genome = _random_genome(rng)
            out = resample_mutation(genome, 1.0, rng)
            for slot, (old, new) in enumerate(zip(genome, out)):
                assert new != old and 0 <= new <= 6
                reached[slot, old].add(new)
        assert all(codes == set(range(7)) - {old} for (_, old), codes in reached.items())

    def test_replays_its_draw_order(self):
        # Per slot in order: one random() against p, then, on a hit, one
        # integers(0, 6) that skips the old code.
        class ReplayRng:
            def __init__(self, uniforms, ints):
                self.uniforms, self.ints = list(uniforms), list(ints)

            def random(self):
                return self.uniforms.pop(0)

            def integers(self, low, high):
                assert (low, high) == (0, 6)
                return self.ints.pop(0)

        rng = ReplayRng([0.1, 0.2, 0.7, 0.4], [2, 3, 5])
        assert resample_mutation((3, 3, 3, 0), 0.5, rng) == (2, 4, 3, 6)
        assert rng.uniforms == [] and rng.ints == []

    @pytest.mark.parametrize("p", [0.25, 0.5])
    def test_outputs_are_valid_genomes(self, p):
        rng = np.random.default_rng(2)
        for _ in range(500):
            out = resample_mutation(_random_genome(rng), p, rng)
            assert isinstance(out, tuple) and len(out) == GENE_COUNT
            assert all(isinstance(code, int) and 0 <= code <= 6 for code in out)

    def test_each_slot_mutates_with_probability_p(self):
        rng = np.random.default_rng(3)
        changed = np.zeros(GENE_COUNT)
        trials = 4000
        for _ in range(trials):
            genome = _random_genome(rng)
            out = resample_mutation(genome, P_MUTATION, rng)
            changed += np.array(out) != np.array(genome)
        assert np.all(np.abs(changed / trials - P_MUTATION) < 0.03), changed / trials

    def test_new_code_is_uniform_over_the_other_six(self):
        rng = np.random.default_rng(7)
        counts = np.zeros(7)
        for _ in range(3000):
            for code in resample_mutation((3, 3, 3, 3), 1.0, rng):
                counts[code] += 1
        assert counts[3] == 0
        share = np.delete(counts, 3) / counts.sum()
        assert np.all(np.abs(share - 1 / 6) < 0.015), share


class TestInitialPopulation:
    def test_draws_four_codes_per_try_and_skips_known_classes(self):
        # The reference redraws exactly as the search should: one
        # integers(0, 7, size=4) per try, kept when its mask class is new.
        for seed, population in ((0, 2), (1, 24), (2, 200)):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            expected, seen = [], set()
            while len(expected) < population:
                genome = tuple(int(c) for c in reference.integers(0, 7, size=GENE_COUNT))
                if mask_equivalence_key(genome) not in seen:
                    seen.add(mask_equivalence_key(genome))
                    expected.append(genome)
            assert _initial_population(rng, population) == expected
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_fills_all_but_one_mask_class(self):
        genomes = _initial_population(np.random.default_rng(4), MASK_CLASS_COUNT - 1)
        assert len({mask_equivalence_key(g) for g in genomes}) == MASK_CLASS_COUNT - 1
        assert all(isinstance(g, tuple) and len(g) == GENE_COUNT for g in genomes)
        assert all(isinstance(c, int) and 0 <= c <= 6 for g in genomes for c in g)


def _escape_duplicate_reference(child, taken, population):
    """The duplicate escape written the plain way: one list copy per
    single-slot variant, keyed through its config. Returns the genome and the
    stage that produced it."""
    def free(codes):
        return mask_equivalence_key(MetricConfig.from_codes(codes).codes) not in taken

    if free(child):
        return child, "child"
    for genome in population:
        for slot in range(GENE_COUNT):
            for code in range(7):
                candidate = list(genome)
                candidate[slot] = code
                if free(candidate):
                    return tuple(candidate), "elite sweep"
    return child, "unchanged"


def test_escape_duplicate_matches_the_copy_per_variant_reference():
    # Same genome over seeded populations, children and taken subsets of the
    # 441 mask classes, dense enough that every stage of the escape fires. A
    # free child comes back as the very object passed in.
    keys = sorted({mask_equivalence_key(cfg.codes) for cfg in all_configs()})
    cases = np.random.default_rng(11)
    stages = set()
    for case in range(600):
        density = (0.0, 0.5, 0.9, 0.97, 0.995, 1.0)[case % 6]
        taken = {key for key in keys if cases.random() < density}
        population = [_random_genome(cases) for _ in range(int(cases.integers(1, 25)))]
        child = _random_genome(cases)
        expected, stage = _escape_duplicate_reference(child, taken, population)
        got = _escape_duplicate(child, taken, population)
        assert got == expected, (case, stage)
        if stage == "child":
            assert got is child
        stages.add(stage)
    assert stages == {"child", "elite sweep", "unchanged"}


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
    # The first generation needs one config per distinct mask class.
    assert MASK_CLASS_COUNT == len({mask_equivalence_key(cfg.codes) for cfg in all_configs()}) == 441
    SearchParams(population=440, budget=441)
    with pytest.raises(ValueError, match="mask classes"):
        SearchParams(population=442, budget=442)


class TestNsga2:
    def test_budget_equals_population_runs_one_generation(self, mini_ctx):
        params = SearchParams(population=8, budget=8, seed=5)
        result = nsga2_search(mini_ctx, params)
        assert len(result.trials) == 8
        assert result.evaluations_used == 8

    def test_same_seed_same_result(self, mini_ctx):
        a = nsga2_search(mini_ctx, SearchParams(population=8, budget=40, seed=9))
        b = nsga2_search(mini_ctx, SearchParams(population=8, budget=40, seed=9))
        assert a.trials == b.trials
        assert a.best_config == b.best_config
        assert a.best_l_div == b.best_l_div

    def test_accounting_invariants(self, mini_ctx):
        result = nsga2_search(mini_ctx, SearchParams(population=8, budget=60, seed=2))
        assert result.evaluations_used <= 60
        assert result.best_l_div == min(t[2] for t in result.trials)
        assert result.best_l_div <= result.trials[0][2]
        # trial indices are consecutive
        assert [t[0] for t in result.trials] == list(range(len(result.trials)))

    def test_warm_context_gives_the_same_search(self, mini_weights, mini_calib):
        params = SearchParams(population=8, budget=60, seed=2)
        warm = make_context(mini_weights, mini_calib, Unstructured(0.5))
        exhaustive_search(warm)
        a = nsga2_search(warm, params)
        b = nsga2_search(make_context(mini_weights, mini_calib, Unstructured(0.5)), params)
        assert a.trials == b.trials
        assert (a.best_config, a.best_l_div) == (b.best_config, b.best_l_div)
        assert a.evaluations_used == b.evaluations_used

    @pytest.mark.parametrize("seed, budget", [(2, 60), (3, 60), (3, 2401)])
    def test_every_evaluation_is_a_new_mask_class(self, mini_ctx, seed, budget):
        # The initial draw and the duplicate escape keep the search off mask
        # classes it has already paid for while unexplored ones are at hand.
        result = nsga2_search(mini_ctx, SearchParams(population=8, budget=budget, seed=seed))
        if budget > MASK_CLASS_COUNT:  # the stall stop, not the budget, ends the run
            assert result.evaluations_used < MASK_CLASS_COUNT
        evaluated = {cfg for _, cfg, _ in result.trials}
        assert len(evaluated) == result.evaluations_used
        assert len({mask_equivalence_key(cfg.codes) for cfg in evaluated}) == len(evaluated)

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

    @pytest.mark.parametrize("budget", [1, 50, 441, 2401])
    def test_every_trial_is_a_new_mask_class(self, mini_ctx, budget):
        result = random_search(mini_ctx, budget=budget, seed=6)
        classes = [mask_equivalence_key(cfg.codes) for _, cfg, _ in result.trials]
        assert len(set(classes)) == len(classes)
        assert result.evaluations_used == len(result.trials) == min(budget, MASK_CLASS_COUNT)
        # Each class is tried as its lexicographically first config.
        first = {}
        for cfg in all_configs():
            first.setdefault(mask_equivalence_key(cfg.codes), cfg)
        assert all(first[key] == cfg for key, (_, cfg, _) in zip(classes, result.trials))

    def test_running_best_non_increasing(self, mini_ctx):
        result = random_search(mini_ctx, budget=40, seed=1)
        best = float("inf")
        mins = []
        for _, _, l_div in result.trials:
            best = min(best, l_div)
            mins.append(best)
        assert mins == sorted(mins, reverse=True)

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
        key = mask_equivalence_key(cfg.codes)
        if key in by_key:
            assert by_key[key] == v
        by_key[key] = v
