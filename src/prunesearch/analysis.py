"""Weight-activation alignment gaps and per-layer distribution summaries.

Reports are plot-ready tables; rendering is left to downstream tooling. Each
builder returns the report document itself: the dict that `emit_report`
writes as JSON, and whose per-layer summary it writes as CSV. Every mean is
an objective.ordered_mean, summed in order.
"""

import csv
import json
from pathlib import Path

import numpy as np

from .metric import Magnitude, MetricKind, activation_factor, check_stats, weight_factor
from .model import SUB_MODULES, ModelWeights, sub_module_key, sub_module_shapes
from .objective import ordered_mean

# The per-layer columns each kind of report writes as CSV.
_CSV_COLUMNS = {
    "alignment": ("layer", "mean_difference"),
    "distribution": ("layer", "weight_l1_mean", "activation_l2_mean"),
}


def alignment_discrepancy(weights: ModelWeights, stats: dict, kind: MetricKind) -> dict:
    """Per sub-module, sum the transformed weight side (alpha(|W|)*F1(|W|))
    and the transformed activation side (beta(v)*F2(v)) of the score, and
    report the absolute gap between them, its mean per layer, and the mean of
    the per-layer means."""
    if isinstance(kind, Magnitude):
        raise ValueError("magnitude scoring has no activation component to align")
    check_stats(stats, sub_module_shapes(weights.config))
    layers = []
    for i in range(weights.config.n_layers):
        sub_modules = []
        for name in SUB_MODULES:
            key = sub_module_key(i, name)
            w_oi = weights.tensors[key].T
            weight_sum = float(weight_factor(w_oi, kind).sum())
            activation_sum = float(activation_factor(stats[key], kind).sum())
            sub_modules.append({
                "name": key,
                "weight_sum": weight_sum,
                "activation_sum": activation_sum,
                "difference": abs(weight_sum - activation_sum),
            })
        mean_difference = ordered_mean([entry["difference"] for entry in sub_modules])
        layers.append({"layer": i, "mean_difference": mean_difference, "sub_modules": sub_modules})
    return {
        "kind": "alignment",
        "metric": str(kind),
        "model_mean": ordered_mean([layer["mean_difference"] for layer in layers]),
        "layers": layers,
    }


def distribution_summary(weights: ModelWeights, stats: dict) -> dict:
    """Per layer, average the sub-module weight L1 norms (sum |W|) and the
    sub-module sums of per-feature activation L2 norms (sum_j v_j)."""
    check_stats(stats, sub_module_shapes(weights.config))
    layers = []
    for i in range(weights.config.n_layers):
        w_totals = []
        a_totals = []
        for name in SUB_MODULES:
            key = sub_module_key(i, name)
            # Widened before the sum: sum(dtype=np.float64) of float32
            # reduces in buffered chunks, which changes the bits.
            w_totals.append(float(abs(weights.tensors[key].astype(np.float64)).sum()))
            a_totals.append(float(stats[key].v.sum()))
        layers.append({
            "layer": i,
            "weight_l1_mean": ordered_mean(w_totals),
            "activation_l2_mean": ordered_mean(a_totals),
        })
    return {"kind": "distribution", "layers": layers}


def emit_report(report: dict, path) -> None:
    """Write a report as CSV (per-layer summary rows) when the path ends in
    .csv, any case, else as JSON (full detail)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        columns = _CSV_COLUMNS[report["kind"]]
        with path.open("w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([layer[col] for col in columns] for layer in report["layers"])
    else:
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
