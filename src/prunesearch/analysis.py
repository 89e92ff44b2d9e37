"""Weight-activation alignment gaps and per-layer distribution summaries.

Reports are plot-ready tables; rendering is left to downstream tooling.
"""

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from .metric import Magnitude, MetricKind, activation_factor, check_stats, weight_factor
from .model import SUB_MODULES, ModelWeights, sub_module_key, sub_module_shapes


@dataclass(frozen=True)
class AlignmentEntry:
    name: str
    weight_sum: float  # sum over the sub-module of alpha(|W|)*F1(|W|)
    activation_sum: float  # sum over features of beta(v)*F2(v)
    difference: float  # |weight_sum - activation_sum|


@dataclass(frozen=True)
class AlignmentReport:
    metric: str
    layers: tuple[tuple[AlignmentEntry, ...], ...]
    per_layer: tuple[float, ...]  # mean difference over each layer's sub-modules
    model_mean: float  # mean of the per-layer means

    def to_dict(self) -> dict:
        return {
            "kind": "alignment",
            "metric": self.metric,
            "model_mean": self.model_mean,
            "layers": [
                {
                    "layer": i,
                    "mean_difference": self.per_layer[i],
                    "sub_modules": [
                        {
                            "name": e.name,
                            "weight_sum": e.weight_sum,
                            "activation_sum": e.activation_sum,
                            "difference": e.difference,
                        }
                        for e in entries
                    ],
                }
                for i, entries in enumerate(self.layers)
            ],
        }

    csv_header = ("layer", "mean_difference")

    def csv_rows(self):
        return [(i, repr(value)) for i, value in enumerate(self.per_layer)]


@dataclass(frozen=True)
class DistributionReport:
    weight_l1: tuple[float, ...]  # per layer: mean over sub-modules of sum |W|
    activation_l2: tuple[float, ...]  # per layer: mean over sub-modules of sum_j v_j

    def to_dict(self) -> dict:
        return {
            "kind": "distribution",
            "layers": [
                {"layer": i, "weight_l1_mean": w, "activation_l2_mean": a}
                for i, (w, a) in enumerate(zip(self.weight_l1, self.activation_l2))
            ],
        }

    csv_header = ("layer", "weight_l1_mean", "activation_l2_mean")

    def csv_rows(self):
        return [
            (i, repr(w), repr(a))
            for i, (w, a) in enumerate(zip(self.weight_l1, self.activation_l2))
        ]


def alignment_discrepancy(weights: ModelWeights, stats: dict, kind: MetricKind) -> AlignmentReport:
    """Per sub-module, sum the transformed weight side and the transformed
    activation side of the score, and report the absolute gap between them."""
    if isinstance(kind, Magnitude):
        raise ValueError("magnitude scoring has no activation component to align")
    check_stats(stats, sub_module_shapes(weights.config))
    layers: list[tuple[AlignmentEntry, ...]] = []
    per_layer: list[float] = []
    for i in range(weights.config.n_layers):
        entries = []
        for name in SUB_MODULES:
            key = sub_module_key(i, name)
            w_oi = weights.tensors[key].T
            weight_sum = float(weight_factor(w_oi, kind).sum())
            activation_sum = float(activation_factor(stats[key], kind).sum())
            entries.append(
                AlignmentEntry(
                    name=key,
                    weight_sum=weight_sum,
                    activation_sum=activation_sum,
                    difference=abs(weight_sum - activation_sum),
                )
            )
        layers.append(tuple(entries))
        per_layer.append(sum(e.difference for e in entries) / len(entries))
    model_mean = sum(per_layer) / len(per_layer) if per_layer else 0.0
    return AlignmentReport(
        metric=str(kind),
        layers=tuple(layers),
        per_layer=tuple(per_layer),
        model_mean=model_mean,
    )


def distribution_summary(weights: ModelWeights, stats: dict) -> DistributionReport:
    """Per layer, average the sub-module weight L1 norms and the sub-module
    sums of per-feature activation L2 norms."""
    check_stats(stats, sub_module_shapes(weights.config))
    weight_l1: list[float] = []
    activation_l2: list[float] = []
    for i in range(weights.config.n_layers):
        w_totals = []
        a_totals = []
        for name in SUB_MODULES:
            key = sub_module_key(i, name)
            w_totals.append(float(abs(weights.tensors[key]).sum()))
            a_totals.append(float(stats[key].v.sum()))
        weight_l1.append(sum(w_totals) / len(w_totals))
        activation_l2.append(sum(a_totals) / len(a_totals))
    return DistributionReport(weight_l1=tuple(weight_l1), activation_l2=tuple(activation_l2))


def emit_report(report, path) -> None:
    """Write a report as CSV (per-layer summary rows) when the path ends in
    .csv, any case, else as JSON (full detail)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with path.open("w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(report.csv_header)
            writer.writerows(report.csv_rows())
    else:
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
