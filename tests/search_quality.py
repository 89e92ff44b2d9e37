"""Search quality grid: how often nsga2 finds the oracle optimum, and at what cost.

    PYTHONPATH=src python tests/search_quality.py

Not a pytest module (pytest does not collect it); it prints a table and exits 0.
For each model seed 42-50 and sparsity 0.5 and 2:4, on the acceptance
fixture's shape with calibration seed 7, the exhaustive oracle is computed
once, then nsga2 runs at population 24 and budget 350 for search seeds 1-10.
A run hits when its best l_div is within 1.001x of the oracle's. Each row
gives the hits and the evaluations the ten runs used, and the last row the
totals. The oracle fills the context's divergence cache, so the searches
only mask; their results are the same as on a cold context.
"""

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
    print(f"{'model':>5} {'sparsity':>8} {'hits':>6} {'evaluations':>11}")
    total_hits = total_runs = total_evals = 0
    for model_seed in MODEL_SEEDS:
        weights = init_model(CONFIG, seed=model_seed)
        for sparsity in SPARSITIES:
            ctx = make_context(weights, calib, parse_sparsity(sparsity))
            target = exhaustive_search(ctx).best_l_div * HIT_RATIO
            hits = evals = 0
            for seed in SEARCH_SEEDS:
                result = nsga2_search(ctx, SearchParams(population=24, budget=350, seed=seed))
                hits += result.best_l_div <= target
                evals += result.evaluations_used
            print(f"{model_seed:>5} {sparsity:>8} {hits:>3}/{len(SEARCH_SEEDS):<2} {evals:>11,}", flush=True)
            total_hits += hits
            total_runs += len(SEARCH_SEEDS)
            total_evals += evals
    print(f"{'total':>5} {'':>8} {total_hits}/{total_runs} {total_evals:>11,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
