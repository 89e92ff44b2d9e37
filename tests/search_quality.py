"""Search quality grid: how often nsga2 finds the oracle optimum, and at what cost.

    PYTHONPATH=src python tests/search_quality.py

Not a pytest module (pytest does not collect it); it prints a table and exits 0.
For each model seed 42-50 and sparsity 0.5 and 2:4, on the acceptance
fixture's shape with calibration seed 7, the exhaustive oracle is computed
once, then nsga2 runs at population 24 and budget 350 for search seeds 1-10.
A run hits when its best l_div is within 1.001x of the oracle's. Each row
gives the hits and the evaluations the ten runs used, and the last row the
totals. The random column is the hits expected from a uniform draw of as
many distinct mask classes: with k of the 441 classes within 1.001x of the
oracle, a run of b evaluations adds 1 - C(441-k, b)/C(441, b). It is
reported, not gated. The context keeps no fitness between calls, so each
search masks and scores its own configs again, including those the oracle
already scored; the cost column counts those evaluations all the same.
"""

from math import comb

from prunesearch.metric import MASK_CLASS_COUNT, mask_equivalence_key
from prunesearch.model import ModelConfig, init_model
from prunesearch.objective import make_context, synthetic_calibration
from prunesearch.prune import parse_sparsity
from prunesearch.search import SearchParams, exhaustive_search, nsga2_search

CONFIG = ModelConfig(vocab_size=128, d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=64)
MODEL_SEEDS = range(42, 51)
SPARSITIES = ("0.5", "2:4")
SEARCH_SEEDS = range(1, 11)
CALIB_SEED = 7
HIT_RATIO = 1.001


def main() -> int:
    calib = synthetic_calibration(CONFIG.vocab_size, 8, 64, seed=CALIB_SEED)
    print(f"{'model':>5} {'sparsity':>8} {'hits':>6} {'evaluations':>11} {'random':>6}")
    total_hits = total_runs = total_evals = total_random = 0
    for model_seed in MODEL_SEEDS:
        weights = init_model(CONFIG, seed=model_seed)
        for sparsity in SPARSITIES:
            ctx = make_context(weights, calib, parse_sparsity(sparsity))
            oracle = exhaustive_search(ctx)
            target = oracle.best_l_div * HIT_RATIO
            k = len({mask_equivalence_key(cfg.codes) for _, cfg, l_div in oracle.trials if l_div <= target})
            hits = evals = random = 0
            for seed in SEARCH_SEEDS:
                result = nsga2_search(ctx, SearchParams(population=24, budget=350, seed=seed))
                b = result.evaluations_used
                hits += result.best_l_div <= target
                evals += b
                random += 1 - comb(MASK_CLASS_COUNT - k, b) / comb(MASK_CLASS_COUNT, b)
            print(f"{model_seed:>5} {sparsity:>8} {hits:>3}/{len(SEARCH_SEEDS):<2} {evals:>11,} {random:>6.1f}", flush=True)
            total_hits += hits
            total_runs += len(SEARCH_SEEDS)
            total_evals += evals
            total_random += random
    print(f"{'total':>5} {'':>8} {total_hits}/{total_runs} {total_evals:>11,} {total_random:>6.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
