"""Search quality grid: how often nsga2 finds the oracle optimum, and at what cost.

    PYTHONPATH=src python tests/search_quality.py

Not a pytest module (pytest does not collect it). For each model seed 42-50
and sparsity 0.5 and 2:4, on the acceptance fixture's shape with calibration
seed 7, the exhaustive oracle is computed once, and every search of the cell
is served from the oracle's table: the search takes its fitness as a
function, and the table gives the floats the context would. nsga2 runs at
population 24 and budgets 96, 192 and 350, for search seeds 1-10 and for
seeds 11-20, which are held out. A run hits when its best l_div is within
1.001x of the oracle's. Each row gives one cell at one budget: per seed set,
the hits, the evaluations the ten runs used and the random column, the hits
expected from a uniform draw of as many distinct mask classes: with k of the
441 classes within 1.001x of the oracle, a run of b evaluations adds
1 - C(441-k, b)/C(441, b). The last rows give the totals per budget and the
run time of the oracles and of the searches.

Exits 1 when the total hits of a budget and seed set fall below their total
random expectation, and 0 otherwise.
"""

import functools
import time
from math import comb

from prunesearch.metric import MASK_CLASS_COUNT, mask_equivalence_key
from prunesearch.model import ModelConfig, init_model
from prunesearch.objective import evaluate_configs, make_context, synthetic_calibration
from prunesearch.prune import parse_sparsity
from prunesearch.search import SearchParams, exhaustive_search, nsga2_search

CONFIG = ModelConfig(vocab_size=128, d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=64)
MODEL_SEEDS = range(42, 51)
SPARSITIES = ("0.5", "2:4")
SEED_SETS = {"seeds 1-10": range(1, 11), "seeds 11-20 (held out)": range(11, 21)}
BUDGETS = (96, 192, 350)
CALIB_SEED = 7
HIT_RATIO = 1.001


def _served_from(oracle):
    """The fitness function of the oracle's context, read from its table."""
    table = {cfg: l_div for _, cfg, l_div in oracle.trials}
    return lambda configs: [table[cfg] for cfg in configs]


def _runs(evaluate, target: float, k: int, budget: int, seeds) -> tuple[int, int, float]:
    """Hits, evaluations and random expectation of nsga2 over `seeds`."""
    hits = evals = 0
    random = 0.0
    for seed in seeds:
        result = nsga2_search(evaluate, SearchParams(population=24, budget=budget, seed=seed))
        b = result.evaluations_used
        hits += result.best_l_div <= target
        evals += b
        random += 1 - comb(MASK_CLASS_COUNT - k, b) / comb(MASK_CLASS_COUNT, b)
    return hits, evals, random


def _columns(hits: int, runs: int, evals: int, random: float) -> str:
    return f"{hits:>4}/{runs:<3} {evals:>11,} {random:>6.1f}"


def main() -> int:
    calib = synthetic_calibration(CONFIG.vocab_size, 8, 64, seed=CALIB_SEED)
    print(f"{'':>22}" + "".join(f"{name:>30}" for name in SEED_SETS))
    columns = f"{'hits':>11} {'evaluations':>11} {'random':>6}"
    print(f"{'model':>5} {'sparsity':>8} {'budget':>6}" + columns * len(SEED_SETS))
    totals = {(budget, name): [0, 0, 0, 0.0] for budget in BUDGETS for name in SEED_SETS}
    oracle_s = search_s = 0.0
    for model_seed in MODEL_SEEDS:
        weights = init_model(CONFIG, seed=model_seed)
        for sparsity in SPARSITIES:
            start = time.perf_counter()
            ctx = make_context(weights, calib, parse_sparsity(sparsity))
            oracle = exhaustive_search(functools.partial(evaluate_configs, ctx))
            oracle_s += time.perf_counter() - start
            evaluate = _served_from(oracle)
            target = oracle.best_l_div * HIT_RATIO
            k = len({mask_equivalence_key(cfg.codes) for _, cfg, l_div in oracle.trials if l_div <= target})
            start = time.perf_counter()
            for budget in BUDGETS:
                row = f"{model_seed:>5} {sparsity:>8} {budget:>6}"
                for name, seeds in SEED_SETS.items():
                    hits, evals, random = _runs(evaluate, target, k, budget, seeds)
                    row += f"{'':>4}" + _columns(hits, len(seeds), evals, random)
                    total = totals[budget, name]
                    total[0] += hits
                    total[1] += len(seeds)
                    total[2] += evals
                    total[3] += random
                print(row, flush=True)
            search_s += time.perf_counter() - start
    for budget in BUDGETS:
        row = "".join(f"{'':>4}" + _columns(*totals[budget, name]) for name in SEED_SETS)
        print(f"{'total':>5} {'':>8} {budget:>6}" + row)
    print(f"oracles {oracle_s:.1f} s, searches {search_s:.1f} s")
    below = [f"budget {budget}, {name}" for (budget, name), (hits, _, _, random) in totals.items() if hits < random]
    for where in below:
        print(f"below random: {where}")
    return 1 if below else 0


if __name__ == "__main__":
    raise SystemExit(main())
