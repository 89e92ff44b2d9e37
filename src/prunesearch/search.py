"""Evolutionary, random, and exhaustive search over the 2401-config space.

A genome is a config's four codes (alpha, beta, f1, f2), each one of 7
unordered choices, so variation is categorical: uniform crossover swaps whole
slots between parents, and mutation resamples a slot to one of its 6 other
codes. Fitness values are memoized by config: serving a duplicate from the
memo never consumes budget, but every candidate considered is logged, so the
trial log may contain repeated configs with bit-identical fitness.
"""

from dataclasses import dataclass

import numpy as np

from .metric import ALL_CODES, CLASS_CODES, MASK_CLASS_COUNT, SPACE_SIZE, MetricConfig, mask_equivalence_key
from .objective import EvalContext, evaluate_configs

GENE_COUNT = 4

# Genetic operator settings of nsga2_search.
P_CROSSOVER = 0.9
P_MUTATION = 0.25  # per slot
PATIENCE = 5  # generations without a new best before stopping


@dataclass(frozen=True)
class SearchParams:
    population: int = 24
    budget: int = 350
    seed: int = 0

    def __post_init__(self):
        if self.population < 2 or self.population % 2 != 0:
            raise ValueError(f"population must be even and >= 2, got {self.population}")
        if self.budget < self.population:
            raise ValueError(f"budget ({self.budget}) must be >= population ({self.population})")
        if self.population > MASK_CLASS_COUNT:
            # The first generation draws one config from each of `population`
            # distinct mask classes.
            raise ValueError(
                f"population ({self.population}) exceeds the {MASK_CLASS_COUNT} distinct mask classes"
            )


@dataclass
class SearchResult:
    algorithm: str
    trials: list[tuple[int, MetricConfig, float]]  # (trial index, config, l_div)
    best_config: MetricConfig
    best_l_div: float
    evaluations_used: int
    seed: int | None  # None for the exhaustive oracle
    budget: int


def uniform_crossover(p1, p2, rng) -> tuple[tuple, tuple]:
    """Uniform crossover over slots: each slot of the first child comes from
    either parent with probability 1/2, and the second child takes the other
    parent's code in that slot."""
    swap = rng.random(GENE_COUNT) < 0.5
    c1 = tuple(b if s else a for a, b, s in zip(p1, p2, swap))
    c2 = tuple(a if s else b for a, b, s in zip(p1, p2, swap))
    return c1, c2


def resample_mutation(genome, p: float, rng) -> tuple:
    """Each slot, in order, with probability p takes one of its 6 other codes,
    drawn uniformly."""
    out = list(genome)
    for slot in range(GENE_COUNT):
        if rng.random() < p:
            r = int(rng.integers(0, 6))
            out[slot] = r + (r >= out[slot])
    return tuple(out)


def environmental_selection(fitnesses: list[float], keep: int) -> list[int]:
    """Indices of the `keep` best candidates; with one objective this is a
    plain stable sort by fitness (rank dominates, crowding is degenerate)."""
    order = np.argsort(np.asarray(fitnesses), kind="stable")
    return [int(i) for i in order[:keep]]


def all_configs() -> list[MetricConfig]:
    """All 2401 configs in lexicographic code order."""
    return [MetricConfig.from_codes(codes) for codes in ALL_CODES]


class _TrialLog:
    """Budget accounting shared by all search algorithms."""

    def __init__(self, ctx: EvalContext, budget: int):
        self.ctx = ctx
        self.budget = budget
        self.memo: dict[MetricConfig, float] = {}
        self.trials: list[tuple[int, MetricConfig, float]] = []

    @property
    def evaluations_used(self) -> int:
        return len(self.memo)

    @property
    def remaining(self) -> int:
        return self.budget - len(self.memo)

    def resolve(self, configs: list[MetricConfig]) -> list[float | None]:
        """Fitness per config, evaluating unseen ones in order while budget remains.

        The distinct configs the memo has not seen, in candidate order and cut
        to the remaining budget, go through one evaluate_configs call. Every
        config with a known fitness is then appended to the trial log, memo
        hits included. Returns None for configs left unevaluated because the
        budget ran out.
        """
        unseen = [cfg for cfg in dict.fromkeys(configs) if cfg not in self.memo][: self.remaining]
        if unseen:
            self.memo.update(zip(unseen, evaluate_configs(self.ctx, unseen)))
        out = [self.memo.get(cfg) for cfg in configs]
        for cfg, value in zip(configs, out):
            if value is not None:
                self.trials.append((len(self.trials), cfg, value))
        return out

    def result(self, algorithm: str, seed: int | None) -> SearchResult:
        if not self.trials:
            raise ValueError("no trials were evaluated")
        best_index = min(range(len(self.trials)), key=lambda i: (self.trials[i][2], i))
        _, best_config, best_l_div = self.trials[best_index]
        return SearchResult(
            algorithm=algorithm,
            trials=self.trials,
            best_config=best_config,
            best_l_div=best_l_div,
            evaluations_used=self.evaluations_used,
            seed=seed,
            budget=self.budget,
        )


def _initial_population(rng, population: int) -> list[tuple]:
    # Sampled uniformly but rejecting mask-equivalent duplicates, so the first
    # generation consumes exactly `population` informative evaluations.
    genomes: list[tuple] = []
    seen: set[tuple] = set()
    while len(genomes) < population:
        genome = tuple(rng.integers(0, 7, size=GENE_COUNT).tolist())
        key = mask_equivalence_key(genome)
        if key in seen:
            continue
        seen.add(key)
        genomes.append(genome)
    return genomes


def _tournament(fitnesses: list[float], rng) -> int:
    a, b = rng.integers(0, len(fitnesses), size=2)
    if fitnesses[a] <= fitnesses[b]:
        return int(a)
    return int(b)


def _escape_duplicate(child: tuple, taken: set, population: list[tuple]) -> tuple:
    """Steer a child that duplicates an already-evaluated mask class toward an
    unexplored one.

    Duplicates would be served from the memo for free and teach the search
    nothing, so such a child is replaced by the first unexplored single-slot
    variant of the population, which nsga2_search keeps in fitness order
    (best-first sweep). The child is returned unchanged if everything
    collides. On the quality grid (tests/search_quality.py) this sweep hits
    the oracle in 168 of 180 runs with 36,375 evaluations; adding two
    re-mutations of the child ahead of a sweep of the best 12 individuals
    reads 160 with 36,695.
    """
    if mask_equivalence_key(child) not in taken:
        return child
    for genome in population:
        for slot in range(GENE_COUNT):
            for code in range(7):
                candidate = genome[:slot] + (code,) + genome[slot + 1:]
                if mask_equivalence_key(candidate) not in taken:
                    return candidate
    return child


def nsga2_search(ctx: EvalContext, params: SearchParams) -> SearchResult:
    """Elitist genetic search on config codes: binary tournaments, uniform
    crossover, resampling mutation, (mu+lambda) survivor selection, memoized
    fitness, early stop on stall.

    The population is kept in fitness order, so its first member is the best
    config found so far. Deterministic given params.seed. On the quality grid
    (tests/search_quality.py: models 42-50 x {0.5, 2:4} x seeds 1-10, budget
    350) it hits the oracle in 168 of 180 runs with 36,375 evaluations, where
    a uniform draw of as many distinct mask classes would hit in 87.4.
    """
    rng = np.random.default_rng(params.seed)
    log = _TrialLog(ctx, params.budget)

    genomes = _initial_population(rng, params.population)
    first = log.resolve([MetricConfig.from_codes(g) for g in genomes])
    order = environmental_selection(first, params.population)
    population = [genomes[i] for i in order]
    fitnesses = [first[i] for i in order]
    taken = {mask_equivalence_key(g) for g in population}
    stall = 0

    while log.remaining > 0 and stall < PATIENCE:
        parents = [population[_tournament(fitnesses, rng)] for _ in range(params.population)]
        offspring: list[tuple] = []
        for i in range(0, params.population, 2):
            if rng.random() < P_CROSSOVER:
                c1, c2 = uniform_crossover(parents[i], parents[i + 1], rng)
            else:
                c1, c2 = parents[i], parents[i + 1]
            for child in (c1, c2):
                child = resample_mutation(child, P_MUTATION, rng)
                child = _escape_duplicate(child, taken, population)
                taken.add(mask_equivalence_key(child))
                offspring.append(child)

        child_fits = log.resolve([MetricConfig.from_codes(g) for g in offspring])
        pool_genomes = list(population)
        pool_fits = list(fitnesses)
        for genome, fit in zip(offspring, child_fits):
            if fit is not None:  # None: budget ran out before this child
                pool_genomes.append(genome)
                pool_fits.append(fit)

        survivors = environmental_selection(pool_fits, params.population)
        stall = 0 if pool_fits[survivors[0]] < fitnesses[0] else stall + 1
        population = [pool_genomes[i] for i in survivors]
        fitnesses = [pool_fits[i] for i in survivors]

    return log.result("nsga2", params.seed)


def random_search(ctx: EvalContext, budget: int, seed: int) -> SearchResult:
    """A seeded permutation of the mask classes (metric.CLASS_CODES) cut to the
    budget, in one resolve call: a budget of 441 or more reaches the oracle."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    order = np.random.default_rng(seed).permutation(MASK_CLASS_COUNT)[:budget]
    log = _TrialLog(ctx, budget)
    log.resolve([MetricConfig.from_codes(CLASS_CODES[i]) for i in order])
    return log.result("random", seed)


def exhaustive_search(ctx: EvalContext) -> SearchResult:
    """Evaluate every config once; the trial log is the full table sorted by
    ascending fitness (ties stay in lexicographic code order). This is the
    ground-truth optimum the other algorithms are checked against.

    All 2401 configs go through one _TrialLog.resolve, the budget accounting
    of every search, and so through one evaluate_configs call: 49 (alpha, f1)
    groups, each masked with one weight factor and one build_mask call per
    sub-module (more only where MAX_SCORES_PER_CALL splits a group). A pruned
    copy and its divergence are computed once per distinct mask set of the
    call (434 of the 2401 configs at the 2-layer fixture at 0.5), while the
    budget counts all 2401 configs. The call holds about params/8 bytes per
    distinct mask set until its last set is scored, and the context keeps
    none. On a context with workers the 2401 configs are dealt as whole mask
    classes into one shard per worker, each worker masks and scores its
    shard and holds those bytes for its own sets, and this process masks
    nothing.
    """
    log = _TrialLog(ctx, SPACE_SIZE)
    log.resolve(all_configs())
    ranked = sorted(log.trials, key=lambda trial: trial[2])
    log.trials = [(i, cfg, value) for i, (_, cfg, value) in enumerate(ranked)]
    return log.result("exhaustive", None)
