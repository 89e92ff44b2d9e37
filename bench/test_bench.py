"""Tests for the benchmark's own logic: span arithmetic, percentile choice,
output checks and the tracer's install/uninstall.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import copy
import itertools
import math

import numpy as np
import pytest

import checks
import tracing
from tracing import Span


def _span(sid, start, end, parent=None, name="x", thread=0):
    return Span(sid, name, start, end, parent, thread)


def test_self_time_subtracts_children_once_and_nests():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 2.0, 5.0, parent=1),  # overlaps span 2 (thread pool): union is 1..5
        _span(4, 2.5, 3.0, parent=3),
        _span(5, 7.0, 12.0, parent=1),  # runs past its parent: only 7..10 counts
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 3.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0 - 0.5)
    assert selfs[4] == pytest.approx(0.5)
    assert selfs[5] == pytest.approx(5.0)


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([], 0, 1) == 0.0
    assert tracing.covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert tracing.covered_length([(-5, 2), (8, 20)], 0, 10) == pytest.approx(4.0)


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (2401, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tracing.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 99) == 99
    assert tracing.percentile([3.0], 99) == 3.0


def _table():
    coeffs = ["uniform", "global_sum", "frobenius", "global_mean", "row_wise", "col_wise", "relative"]
    transforms = ["identity", "square", "sqrt", "log1p", "exp_neg", "sigmoid", "softmax"]
    rows = [
        {"alpha": a, "beta": b, "f1": f1, "f2": f2}
        for a, b, f1, f2 in itertools.product(coeffs, coeffs, transforms, transforms)
    ]
    for i, row in enumerate(rows):
        row.update(trial=i, l_div=0.1 + i * 1e-4)
    best = dict(rows[0], trial=None)
    return {"trials": rows, "best": best, "evaluations_used": checks.SPACE_SIZE}


def test_check_table_accepts_a_valid_table():
    doc = _table()
    ref = {"top10": [[t[k] for k in ("alpha", "beta", "f1", "f2")] for t in doc["trials"][:10]]}
    assert checks.check_table(doc, ref) == []


@pytest.mark.parametrize("corrupt", ["swap", "nan", "duplicate", "truncate", "best", "reference"])
def test_check_table_rejects_a_corrupted_table(corrupt):
    doc = copy.deepcopy(_table())
    ref = {"top10": [[t[k] for k in ("alpha", "beta", "f1", "f2")] for t in doc["trials"][:10]]}
    trials = doc["trials"]
    if corrupt == "swap":
        trials[5]["l_div"], trials[6]["l_div"] = trials[6]["l_div"], trials[5]["l_div"]
    elif corrupt == "nan":
        trials[100]["l_div"] = math.nan
    elif corrupt == "duplicate":
        trials[7].update({k: trials[8][k] for k in ("alpha", "beta", "f1", "f2")})
    elif corrupt == "truncate":
        trials.pop()
    elif corrupt == "best":
        doc["best"]["l_div"] = 0.05
    else:
        ref["top10"][3], ref["top10"][4] = ref["top10"][4], ref["top10"][3]
    assert checks.check_table(doc, ref)


def test_check_search_budget_and_minimum():
    trials = [{"alpha": "uniform", "beta": "uniform", "f1": "identity", "f2": str(i),
               "l_div": v} for i, v in enumerate([0.3, 0.2, 0.25])]
    doc = {"trials": trials, "evaluations_used": 3, "best": dict(trials[1], trial=None)}
    assert checks.check_search(doc, budget=3) == []
    assert checks.check_search(dict(doc, evaluations_used=4), budget=3)
    assert checks.check_search(dict(doc, best=dict(trials[0], trial=None)), budget=3)


def test_check_masks_exact_keep_counts():
    rng = np.random.default_rng(0)
    scores = rng.random((4, 8))
    keep_half = scores >= np.sort(scores, axis=1)[:, [4]]
    grouped = scores.reshape(4, 2, 4)
    keep_2of4 = (grouped >= np.sort(grouped, axis=2)[:, :, [2]]).reshape(4, 8)
    shapes = {"m": (4, 8)}
    assert checks.check_masks({"m": keep_half}, shapes, "0.5") == []
    assert checks.check_masks({"m": keep_2of4}, shapes, "2:4") == []
    broken = keep_2of4.copy()
    broken[0, :4] = True
    assert checks.check_masks({"m": broken}, shapes, "2:4")
    assert checks.check_masks({"m": keep_half}, {"m": (4, 8), "n": (2, 2)}, "0.5")


def test_check_eval_output():
    assert checks.check_eval_output("0.25\n") == []
    assert checks.check_eval_output("nan\n")
    assert checks.check_eval_output("-1.0\n")
    assert checks.check_eval_output("")


def test_tracer_wraps_every_binding_and_restores_them():
    from prunesearch import model, objective, prune

    original = objective.forward
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert model.forward is objective.forward is not original
        weights = model.init_model(model.ModelConfig(16, 8, 1, 2, 8, 8), seed=0)
        calib = objective.synthetic_calibration(16, 2, 4, seed=0)
        with tracer.command("test"):
            objective.make_context(weights, calib, prune.Unstructured(0.5))
    finally:
        tracer.uninstall()
    assert objective.forward is original and model.forward is original
    names = [s.name for s in tracer.spans]
    assert names.count("model.forward") == 4  # 2 sequences for stats + 2 for the dense cache
    assert names.count("model.softmax_rows") == 4
    assert tracer.tokens == 16  # 4 forwards x 4 tokens
    by_id = {s.id: s for s in tracer.spans}
    cache = next(s for s in tracer.spans if s.name == "model.final_hidden_batch")
    assert by_id[cache.parent].name == "objective.make_context"
    assert by_id[by_id[cache.parent].parent].name == "cli.test"
