"""Evolutionary, random, and exhaustive search over the 2401-config space.

Genomes are 4 reals in [0, 1); floor-decoding maps each gene onto one of the
7 choices per slot, so the real-coded variation operators (simulated binary
crossover and polynomial mutation) apply to the categorical space unchanged.
Fitness values are memoized by decoded config: serving a duplicate from the
memo never consumes budget, but every candidate considered is logged, so the
trial log may contain repeated configs with bit-identical fitness.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .metric import MASK_CLASS_COUNT, N_COEFFS, N_TRANSFORMS, SPACE_SIZE, MetricConfig, mask_equivalence_key
from .objective import EvalContext, evaluate_configs

GENE_COUNT = 4
GENE_MAX = 1.0 - 1e-9  # genes stay in [0, 1) so floor-decoding never overflows

# Genetic operator settings of nsga2_search.
ETA_C = 15.0  # SBX distribution index
ETA_M = 20.0  # polynomial mutation distribution index
P_CROSSOVER = 0.9
P_MUTATION = 0.25  # per gene
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
    distinct_configs_evaluated: int
    seed: int | None  # None for the exhaustive oracle
    budget: int


def decode(genes) -> MetricConfig:
    """Map 4 genes in [0, 1) onto a config: index = min(floor(gene*7), 6)."""
    g = np.asarray(genes, dtype=np.float64)
    if g.shape != (GENE_COUNT,):
        raise ValueError(f"genome must hold exactly {GENE_COUNT} genes")
    if (g < 0.0).any() or (g >= 1.0).any():
        raise ValueError("genes must lie in [0, 1)")
    return MetricConfig.from_codes(_codes(g))


def _codes(genes: np.ndarray) -> tuple[int, int, int, int]:
    """The code of each gene in [0, 1): min(floor(gene*7), 6)."""
    return tuple(min(int(g * 7), 6) for g in genes.tolist())


@functools.cache
def _key_for_codes(codes: tuple[int, int, int, int]) -> tuple:
    return mask_equivalence_key(MetricConfig.from_codes(codes))


def _class_key(genes: np.ndarray) -> tuple:
    """mask_equivalence_key(decode(genes)) for genes already in [0, 1), from
    the four codes alone: one cached key per code tuple (at most 2401)."""
    return _key_for_codes(_codes(genes))


def sbx_crossover(p1, p2, eta_c: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover with distribution index eta_c.

    Per gene, with u drawn uniformly:
        beta = (2u)^(1/(eta_c+1))            if u <= 0.5
             = (1/(2(1-u)))^(1/(eta_c+1))    otherwise
        c1 = 0.5*((1+beta)*p1 + (1-beta)*p2)
        c2 = 0.5*((1-beta)*p1 + (1+beta)*p2)
    Children are clipped back into [0, 1).
    """
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    c1 = np.empty(GENE_COUNT)
    c2 = np.empty(GENE_COUNT)
    exponent = 1.0 / (eta_c + 1.0)
    for g in range(GENE_COUNT):
        u = rng.random()
        if u <= 0.5:
            beta = (2.0 * u) ** exponent
        else:
            beta = (1.0 / (2.0 * (1.0 - u))) ** exponent
        c1[g] = 0.5 * ((1.0 + beta) * p1[g] + (1.0 - beta) * p2[g])
        c2[g] = 0.5 * ((1.0 - beta) * p1[g] + (1.0 + beta) * p2[g])
    return np.clip(c1, 0.0, GENE_MAX), np.clip(c2, 0.0, GENE_MAX)


def polynomial_mutation(genome, eta_m: float, p_mutation: float, rng) -> np.ndarray:
    """Polynomial mutation with distribution index eta_m.

    Each gene mutates independently with probability p_mutation:
        delta = (2u)^(1/(eta_m+1)) - 1       if u < 0.5
              = 1 - (2(1-u))^(1/(eta_m+1))   otherwise
    and the gene is clipped back into [0, 1).
    """
    out = np.asarray(genome, dtype=np.float64).copy()
    exponent = 1.0 / (eta_m + 1.0)
    for g in range(GENE_COUNT):
        if rng.random() < p_mutation:
            u = rng.random()
            if u < 0.5:
                delta = (2.0 * u) ** exponent - 1.0
            else:
                delta = 1.0 - (2.0 * (1.0 - u)) ** exponent
            out[g] = min(max(out[g] + delta, 0.0), GENE_MAX)
    return out


def environmental_selection(fitnesses: list[float], keep: int) -> list[int]:
    """Indices of the `keep` best candidates; with one objective this is a
    plain stable sort by fitness (rank dominates, crowding is degenerate)."""
    order = np.argsort(np.asarray(fitnesses), kind="stable")
    return [int(i) for i in order[:keep]]


def all_configs() -> list[MetricConfig]:
    """All 2401 configs in lexicographic code order."""
    return [
        MetricConfig.from_codes((a, b, f1, f2))
        for a in range(N_COEFFS)
        for b in range(N_COEFFS)
        for f1 in range(N_TRANSFORMS)
        for f2 in range(N_TRANSFORMS)
    ]


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
            distinct_configs_evaluated=len(self.memo),
            seed=seed,
            budget=self.budget,
        )


def _initial_population(rng, population: int) -> list[np.ndarray]:
    # Sampled uniformly but rejecting mask-equivalent duplicates, so the first
    # generation consumes exactly `population` informative evaluations.
    genomes: list[np.ndarray] = []
    seen: set[tuple] = set()
    while len(genomes) < population:
        genes = np.clip(rng.random(GENE_COUNT), 0.0, GENE_MAX)
        key = _class_key(genes)
        if key in seen:
            continue
        seen.add(key)
        genomes.append(genes)
    return genomes


def _tournament(fitnesses: list[float], rng) -> int:
    a, b = rng.integers(0, len(fitnesses), size=2)
    if fitnesses[a] <= fitnesses[b]:
        return int(a)
    return int(b)


def _gene_for_code(code: int) -> float:
    # Mid-cell gene value decoding back to `code`.
    return (code + 0.5) / 7.0


def _escape_duplicate(
    child: np.ndarray,
    taken: set,
    elites: list[np.ndarray],
    rng,
) -> np.ndarray:
    """Steer a child that duplicates an already-evaluated mask class toward an
    unexplored one.

    Duplicates would be served from the memo for free and teach the search
    nothing, so they are replaced: first by re-mutations of the child, then by
    the first unexplored single-slot variant of the best current individuals
    (best-first sweep), then by uniform restarts. The child is returned
    unchanged if everything collides. Every stage is needed: no simpler
    fallback finds the oracle optimum on 4 of 5 seeds at both 0.5 and 2:4.
    """
    if _class_key(child) not in taken:
        return child
    for _ in range(2):
        candidate = polynomial_mutation(child, ETA_M, 1.0, rng)
        if _class_key(candidate) not in taken:
            return candidate
    for elite in elites:
        for slot in range(GENE_COUNT):
            for code in range(7):
                candidate = elite.copy()
                candidate[slot] = _gene_for_code(code)
                if _class_key(candidate) not in taken:
                    return candidate
    for _ in range(8):
        candidate = np.clip(rng.random(GENE_COUNT), 0.0, GENE_MAX)
        if _class_key(candidate) not in taken:
            return candidate
    return child


def nsga2_search(ctx: EvalContext, params: SearchParams) -> SearchResult:
    """Elitist genetic search: binary tournaments, SBX, polynomial mutation,
    (mu+lambda) survivor selection, memoized fitness, early stop on stall.

    Deterministic given params.seed.
    """
    rng = np.random.default_rng(params.seed)
    log = _TrialLog(ctx, params.budget)

    population = _initial_population(rng, params.population)
    fitnesses = [f for f in log.resolve([decode(g) for g in population]) if f is not None]
    best = min(fitnesses)
    stall = 0

    while log.remaining > 0 and stall < PATIENCE:
        parents = [population[_tournament(fitnesses, rng)] for _ in range(params.population)]
        elite_order = environmental_selection(fitnesses, min(12, len(population)))
        elites = [population[i] for i in elite_order]
        offspring: list[np.ndarray] = []
        taken = {mask_equivalence_key(cfg) for cfg in log.memo}
        for i in range(0, params.population, 2):
            if rng.random() < P_CROSSOVER:
                c1, c2 = sbx_crossover(parents[i], parents[i + 1], ETA_C, rng)
            else:
                c1, c2 = parents[i].copy(), parents[i + 1].copy()
            for child in (c1, c2):
                child = polynomial_mutation(child, ETA_M, P_MUTATION, rng)
                child = _escape_duplicate(child, taken, elites, rng)
                taken.add(_class_key(child))
                offspring.append(child)

        child_fits = log.resolve([decode(g) for g in offspring])
        pool_genomes = list(population)
        pool_fits = list(fitnesses)
        for genome, fit in zip(offspring, child_fits):
            if fit is not None:  # None: budget ran out before this child
                pool_genomes.append(genome)
                pool_fits.append(fit)

        survivors = environmental_selection(pool_fits, params.population)
        population = [pool_genomes[i] for i in survivors]
        fitnesses = [pool_fits[i] for i in survivors]

        generation_best = min(pool_fits)
        if generation_best < best:
            best = generation_best
            stall = 0
        else:
            stall += 1

    return log.result("nsga2", params.seed)


def random_search(
    ctx: EvalContext,
    budget: int,
    seed: int,
    without_replacement: bool = False,
) -> SearchResult:
    """Uniform random config sampling under the same budget accounting.

    The default draws configs i.i.d. (duplicates are logged but free); the
    without-replacement mode walks a seeded permutation of the whole space, so
    a budget of 2401 reproduces the exhaustive optimum.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    log = _TrialLog(ctx, budget)
    if without_replacement:
        table = all_configs()
        order = rng.permutation(SPACE_SIZE)[: min(budget, SPACE_SIZE)]
        log.resolve([table[int(i)] for i in order])
    else:
        while log.remaining > 0 and len(log.memo) < SPACE_SIZE:
            codes = rng.integers(0, N_COEFFS, size=GENE_COUNT)
            log.resolve([MetricConfig.from_codes(tuple(int(c) for c in codes))])
    return log.result("random", seed)


def exhaustive_search(ctx: EvalContext) -> SearchResult:
    """Evaluate every config once; the trial log is the full table sorted by
    ascending fitness (ties stay in lexicographic code order). This is the
    ground-truth optimum the other algorithms are checked against.

    All 2401 configs go through one _TrialLog.resolve, the budget accounting
    of every search, and so through one evaluate_configs call: 49 (alpha, f1)
    groups, each masked with one weight factor and one build_mask call per
    sub-module (more only where MAX_SCORES_PER_CALL splits a group). A pruned
    copy and its divergence are computed once per distinct mask set per
    context (434 of the 2401 configs at the 2-layer fixture at 0.5), while the
    budget counts all 2401 configs. The context keeps about params/8 bytes per
    distinct mask set for its lifetime.
    """
    log = _TrialLog(ctx, SPACE_SIZE)
    log.resolve(all_configs())
    ranked = sorted(log.trials, key=lambda trial: trial[2])
    log.trials = [(i, cfg, value) for i, (_, cfg, value) in enumerate(ranked)]
    return log.result("exhaustive", None)
