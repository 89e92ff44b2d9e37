"""Evolutionary, random, and exhaustive search over the 2401-config space.

A genome is a config's four codes (alpha, beta, f1, f2), each one of 7
unordered choices, so variation is categorical: uniform crossover swaps whole
slots between parents, and mutation resamples a slot to one of its 6 other
codes. Every search takes its fitness function, `evaluate`, which maps a
list of configs to one float each (objective.scoring_workers yields the
divergence one; a table of known values serves as well). Fitness values are
memoized by config: serving a duplicate from the memo never consumes budget,
but every candidate considered is logged, so the trial log may contain
repeated configs with bit-identical fitness.

Search draws come from _Pcg64, a pure-Python PCG64 whose stream equals
numpy's default_rng(seed) for the three draws the search makes, so a search
process never loads numpy.random (about 5.5 MB of resident memory) and its
configs do not move with numpy's Generator algorithms.
"""

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .metric import ALL_CODES, CLASS_CODES, MASK_CLASS_COUNT, SPACE_SIZE, MetricConfig, mask_equivalence_key

Fitness = Callable[[Sequence[MetricConfig]], list[float]]

GENE_COUNT = 4

# Genetic operator settings of nsga2_search.
P_CROSSOVER = 0.9
P_MUTATION = 0.25  # per slot
PATIENCE = 5  # generations without a new best before stopping

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _check_int(name: str, value, minimum: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")


def _seed_sequence_state(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(8, np.uint32): the seed's
    32-bit words, least significant first, hash-mixed into a pool of four."""
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state


class _Pcg64:
    """numpy's default_rng(seed) for random(), scalar integers(low, high) and
    permutation(n): the same PCG64 (XSL-RR) stream, seeding and draw
    algorithms, so these calls return the same values and consume the stream
    alike."""

    def __init__(self, seed: int):
        words = _seed_sequence_state(seed)
        s_hi, s_lo, inc_hi, inc_lo = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
        self._inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        self._state = 0
        self._next64()
        self._state = (self._state + (s_hi << 64 | s_lo)) & _MASK128
        self._next64()
        self._high: int | None = None  # the unused half of the last 64-bit output

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        value, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
        return (value >> rot | value << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._high is not None:
            value, self._high = self._high, None
            return value
        value = self._next64()
        self._high = value >> 32
        return value & _MASK32

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """Lemire's bounded draw on 32-bit outputs, for 0 < high - low < 2**32."""
        n = high - low
        if n == 1:
            return low
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return low + (m >> 32)

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates from the end, each index a masked-rejection 32-bit draw."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            out[i], out[j] = out[j], out[i]
        return out


@dataclass(frozen=True)
class SearchParams:
    population: int = 24
    budget: int = 350
    seed: int = 0

    def __post_init__(self):
        _check_int("seed", self.seed, 0)
        _check_int("population", self.population, 2)
        if self.population % 2 != 0:
            raise ValueError(f"population must be even, got {self.population}")
        _check_int("budget", self.budget, self.population)
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
    swap = [rng.random() < 0.5 for _ in range(GENE_COUNT)]
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

    def __init__(self, evaluate: Fitness, budget: int):
        self.evaluate = evaluate
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
        to the remaining budget, go through one evaluate call, which must
        return one value per config (a ValueError otherwise). Every config
        with a known fitness is then appended to the trial log, memo hits
        included. Returns None for configs left unevaluated because the
        budget ran out.
        """
        unseen = [cfg for cfg in dict.fromkeys(configs) if cfg not in self.memo][: self.remaining]
        if unseen:
            self.memo.update(zip(unseen, self.evaluate(unseen), strict=True))
        out = [self.memo.get(cfg) for cfg in configs]
        for cfg, value in zip(configs, out):
            if value is not None:
                self.trials.append((len(self.trials), cfg, value))
        return out

    def result(self, algorithm: str, seed: int | None) -> SearchResult:
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
        genome = tuple(int(rng.integers(0, 7)) for _ in range(GENE_COUNT))
        key = mask_equivalence_key(genome)
        if key in seen:
            continue
        seen.add(key)
        genomes.append(genome)
    return genomes


def _tournament(fitnesses: list[float], rng) -> int:
    a = int(rng.integers(0, len(fitnesses)))
    b = int(rng.integers(0, len(fitnesses)))
    return a if fitnesses[a] <= fitnesses[b] else b


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


def nsga2_search(evaluate: Fitness, params: SearchParams) -> SearchResult:
    """Elitist genetic search on config codes: binary tournaments, uniform
    crossover, resampling mutation, (mu+lambda) survivor selection, memoized
    fitness, early stop on stall. Each generation's unseen configs go through
    one evaluate call.

    The population is kept in fitness order, so its first member is the best
    config found so far. Deterministic given params.seed and a pure evaluate.
    On the quality grid (tests/search_quality.py: models 42-50 x {0.5, 2:4} x
    seeds 1-10, budget 350) it hits the oracle in 168 of 180 runs with 36,375
    evaluations, where a uniform draw of as many distinct mask classes would
    hit in 87.4.

    The draws come from the package's own PCG64 (_Pcg64), whose stream equals
    numpy's default_rng(params.seed) for these draws, so the search process
    does not load numpy.random.
    """
    rng = _Pcg64(params.seed)
    log = _TrialLog(evaluate, params.budget)

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


def random_search(evaluate: Fitness, budget: int, seed: int) -> SearchResult:
    """A seeded permutation of the mask classes (metric.CLASS_CODES) cut to the
    budget, in one resolve call: a budget of 441 or more reaches the oracle.

    The permutation comes from the package's own PCG64 (_Pcg64) and equals
    numpy's default_rng(seed).permutation(441), so the search process does
    not load numpy.random. Budget and seed are ints, >= 1 and >= 0.
    """
    _check_int("budget", budget, 1)
    _check_int("seed", seed, 0)
    order = _Pcg64(seed).permutation(MASK_CLASS_COUNT)[:budget]
    log = _TrialLog(evaluate, budget)
    log.resolve([MetricConfig.from_codes(CLASS_CODES[i]) for i in order])
    return log.result("random", seed)


def exhaustive_search(evaluate: Fitness) -> SearchResult:
    """Evaluate every config once; the trial log is the full table sorted by
    ascending fitness (ties stay in lexicographic code order). This is the
    ground-truth optimum the other algorithms are checked against.

    All 2401 configs go through one _TrialLog.resolve, the budget accounting
    of every search, and so through one evaluate call, and the budget counts
    all 2401 configs.
    """
    log = _TrialLog(evaluate, SPACE_SIZE)
    log.resolve(all_configs())
    ranked = sorted(log.trials, key=lambda trial: trial[2])
    log.trials = [(i, cfg, value) for i, (_, cfg, value) in enumerate(ranked)]
    return log.result("exhaustive", None)
