"""Command-line surface tying the stages into reproducible pipelines.

Every subcommand is a thin adapter over the library: it parses flags, reads
and writes files, and prints a short human summary. Exit codes: 0 success,
1 usage error, 2 data/validation error. All randomness flows from explicit
--seed flags.
"""

import argparse
import sys
from pathlib import Path

from . import io as storage
from .analysis import alignment_discrepancy, distribution_summary, emit_report
from .metric import PRESET_NAMES, MetricKind, parse_kind
from .model import ModelConfig, init_model
from .objective import (
    collect_activation_stats,
    dense_hidden_cache,
    divergence,
    make_context,
    scoring_workers,
    synthetic_calibration,
)
from .prune import SparsitySpec, parse_sparsity, prune_masks
from .search import SearchParams, exhaustive_search, nsga2_search, random_search

_METRIC_HELP = (
    "metric preset (" + ", ".join(PRESET_NAMES) + ") or custom:a,b,f1,f2 "
    "with canonical names or codes 0..6"
)
_SPARSITY_HELP = "sparsity: a ratio in [0,1] (e.g. 0.5) or an N:M pattern (e.g. 4:8, 2:4)"
_JOBS_HELP = (
    "worker processes that mask and score the configs, each a shard of whole mask classes "
    "of every evaluation call (>= 1; at most the usable CPUs); "
    "results are byte-identical for every value"
)
_RESULTS_HELP = "results JSON path, not ending in .csv (any case); a sibling .csv is written too"


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; argparse's default of 2 is reserved for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _metric_arg(text: str) -> MetricKind:
    try:
        return parse_kind(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _sparsity_arg(text: str) -> SparsitySpec:
    try:
        return parse_sparsity(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(minimum: int):
    """An argparse type for an integer >= minimum; argparse names the flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _results_path(text: str) -> str:
    """--out of search and enumerate: its .csv sibling must be another file."""
    if Path(text).suffix.lower() == ".csv":
        raise argparse.ArgumentTypeError(f"{text!r} ends in .csv, the suffix of its CSV sibling")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prunesearch",
        description="Pruning-metric discovery pipeline on a small decoder-only transformer.",
        epilog=f"{_METRIC_HELP}; {_SPARSITY_HELP}",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-model", help="generate a seeded random model")
    p.add_argument("--d-model", type=int, default=32)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--d-ff", type=int, default=64)
    p.add_argument("--vocab", type=int, default=128)
    p.add_argument("--max-seq", type=int, default=64)
    p.add_argument("--seed", type=_int_at_least(0), default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_model)

    p = sub.add_parser("gen-calib", help="generate a synthetic calibration set")
    p.add_argument("--vocab", type=int, default=128)
    p.add_argument("--seqs", type=int, default=8)
    p.add_argument("--len", type=int, default=64, dest="seq_len")
    p.add_argument("--seed", type=_int_at_least(0), default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_calib)

    p = sub.add_parser("stats", help="collect activation statistics")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("prune", help="prune a model with a metric and sparsity")
    p.add_argument("--model", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--metric", type=_metric_arg, required=True, help=_METRIC_HELP)
    p.add_argument("--sparsity", type=_sparsity_arg, required=True, help=_SPARSITY_HELP)
    p.add_argument("--out", required=True)
    p.add_argument("--masks-out", help="also write the masks to this path, which must differ from --out")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("eval", help="print the divergence between dense and pruned models")
    p.add_argument("--dense", required=True)
    p.add_argument("--pruned", required=True)
    p.add_argument("--calib", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("search", help="search the config space for the lowest divergence")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--sparsity", type=_sparsity_arg, required=True, help=_SPARSITY_HELP)
    p.add_argument("--algo", choices=("nsga2", "random"), default="nsga2")
    p.add_argument("--budget", type=int, default=350)
    p.add_argument("--pop", type=int, default=24)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help=_JOBS_HELP)
    p.add_argument("--out", type=_results_path, required=True, help=_RESULTS_HELP)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("enumerate", help="evaluate all 2401 configs (the exact oracle)")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--sparsity", type=_sparsity_arg, required=True, help=_SPARSITY_HELP)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help=_JOBS_HELP)
    p.add_argument("--out", type=_results_path, required=True, help=_RESULTS_HELP)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("align", help="report weight-activation alignment gaps")
    p.add_argument("--model", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--metric", type=_metric_arg, required=True, help=_METRIC_HELP)
    p.add_argument("--out", required=True, help="report path; .csv extension selects CSV, else JSON")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("dist", help="report per-layer weight/activation distribution summaries")
    p.add_argument("--model", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--out", required=True, help="report path; .csv extension selects CSV, else JSON")
    p.set_defaults(func=_cmd_dist)

    return parser


def _csv_sibling(out: str) -> Path:
    return Path(out).with_suffix(".csv")


def _cmd_gen_model(args) -> int:
    config = ModelConfig(
        vocab_size=args.vocab,
        d_model=args.d_model,
        n_layers=args.layers,
        n_heads=args.heads,
        d_ff=args.d_ff,
        max_seq_len=args.max_seq,
    )
    storage.write_model(args.out, init_model(config, args.seed))
    print(f"wrote model ({config.n_layers} layers, d_model {config.d_model}) to {args.out}")
    return 0


def _cmd_gen_calib(args) -> int:
    calib = synthetic_calibration(args.vocab, args.seqs, args.seq_len, args.seed)
    storage.write_calib(args.out, calib)
    print(f"wrote {len(calib.sequences)} sequences of length {args.seq_len} to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    weights = storage.read_model(args.model)
    calib = storage.read_calib(args.calib)
    stats = collect_activation_stats(weights, calib)
    storage.write_stats(args.out, stats)
    tokens = next(iter(stats.values())).token_count
    print(f"wrote stats for {len(stats)} sub-modules over {tokens} tokens to {args.out}")
    return 0


def _cmd_prune(args) -> int:
    if args.masks_out and Path(args.masks_out).resolve() == Path(args.out).resolve():
        print(f"prunesearch prune: error: --masks-out names the --out file {args.out}", file=sys.stderr)
        return 1
    weights = storage.read_model(args.model)
    stats = storage.read_stats(args.stats)
    masks = prune_masks(weights, stats, args.metric, args.sparsity)
    storage.write_model(args.out, weights, masks)
    if args.masks_out:
        storage.write_masks(args.masks_out, masks)
    # The mean over sub-modules of the fraction of weights each mask drops.
    overall = sum(1.0 - float(m.bits.sum()) / m.bits.size for m in masks.values()) / len(masks)
    print(f"pruned {len(masks)} sub-modules (mean sparsity {overall:.4f}) to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    # One model at a time: the dense pass makes the hidden cache, and only
    # then is the pruned model read. Its config is checked before any forward.
    dense = storage.read_model(args.dense)
    pruned_config = storage.read_model_config(args.pruned)
    calib = storage.read_calib(args.calib)
    if pruned_config != dense.config:
        raise ValueError(f"pruned model config {pruned_config} differs from the dense model's {dense.config}")
    hidden = dense_hidden_cache(dense, calib)
    del dense
    print(divergence(hidden, storage.read_model(args.pruned), calib))
    return 0


def _scored(args, search):
    """search(ctx) on the context of --model, --calib and --sparsity, scored on
    --jobs workers; the context is freed on return, before results are written."""
    ctx = make_context(storage.read_model(args.model), storage.read_calib(args.calib), args.sparsity)
    with scoring_workers(ctx, args.jobs) as ctx:
        return search(ctx)


def _cmd_search(args) -> int:
    def search(ctx):
        if args.algo == "nsga2":
            return nsga2_search(ctx, SearchParams(population=args.pop, budget=args.budget, seed=args.seed))
        return random_search(ctx, args.budget, args.seed)

    result = _scored(args, search)
    storage.write_results(result, args.out, _csv_sibling(args.out))
    print(
        f"{result.algorithm}: best {result.best_config} l_div {result.best_l_div!r} "
        f"({result.evaluations_used} evaluations)"
    )
    return 0


def _cmd_enumerate(args) -> int:
    result = _scored(args, exhaustive_search)
    storage.write_results(result, args.out, _csv_sibling(args.out))
    print(f"exhaustive: best {result.best_config} l_div {result.best_l_div!r}")
    return 0


def _cmd_align(args) -> int:
    weights = storage.read_model(args.model)
    stats = storage.read_stats(args.stats)
    report = alignment_discrepancy(weights, stats, args.metric)
    emit_report(report, args.out)
    print(f"model mean alignment gap {report['model_mean']!r} written to {args.out}")
    return 0


def _cmd_dist(args) -> int:
    weights = storage.read_model(args.model)
    stats = storage.read_stats(args.stats)
    report = distribution_summary(weights, stats)
    emit_report(report, args.out)
    print(f"distribution summary for {len(report['layers'])} layers written to {args.out}")
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
