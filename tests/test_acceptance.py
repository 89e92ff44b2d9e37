"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The fixture is the standard
toy setup: 2 layers, d_model 32, 4 heads, d_ff 64, vocab 128, model seed 42,
calibration 8 sequences x 64 tokens (seed 7), unstructured 0.5 unless a
criterion says otherwise.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from prunesearch.cli import run
from prunesearch.analysis import alignment_discrepancy
from prunesearch.metric import SubModuleStats, preset, score
from prunesearch.model import SUB_MODULES, ModelConfig, forward, init_model, sub_module_key
from prunesearch.objective import (
    collect_activation_stats,
    divergence,
    evaluate_configs,
    make_context,
    synthetic_calibration,
)
from prunesearch.prune import SemiStructured, Unstructured, build_mask, prune_model
from prunesearch.search import SPACE_SIZE, random_search

FIXTURE_CONFIG = ModelConfig(
    vocab_size=128, d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=64
)

_timings: dict[str, float] = {}


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def fixture_weights():
    return init_model(FIXTURE_CONFIG, seed=42)


@pytest.fixture(scope="module")
def fixture_calib():
    return synthetic_calibration(FIXTURE_CONFIG.vocab_size, 8, 64, seed=7)


@pytest.fixture(scope="module")
def fixture_stats(fixture_weights, fixture_calib):
    return collect_activation_stats(fixture_weights, fixture_calib)


@pytest.fixture(scope="module")
def fixture_ctx(fixture_weights, fixture_calib):
    return make_context(fixture_weights, fixture_calib, Unstructured(0.5))


@pytest.fixture(scope="session")
def oracle(tmp_path_factory):
    """The fixture's model and calibration files, made by gen-model and
    gen-calib, and the table `enumerate --jobs 2` writes for them at 0.5:
    made once, for criterion 1 through the subcommands and for criterion 9."""
    work = tmp_path_factory.mktemp("oracle")
    model, calib, table = work / "model.opsh", work / "calib.jsonl", work / "table.json"
    start = time.perf_counter()
    assert run(["gen-model", "--seed", "42", "--out", str(model)]) == 0
    assert run(["gen-calib", "--seed", "7", "--out", str(calib)]) == 0
    assert run(["enumerate", "--model", str(model), "--calib", str(calib),
                "--sparsity", "0.5", "--jobs", "2", "--out", str(table)]) == 0
    return {"model": model, "calib": calib, "table": json.loads(table.read_text()),
            "seconds": time.perf_counter() - start}


def test_criterion_1_oracle_optimum_recovery(tmp_path, oracle):
    # Driven through the actual subcommands: enumerate provides the exact
    # optimum, then five seeded searches at the standard 350-trial budget.
    # The runtime counts the oracle's enumerate too.
    start = time.perf_counter() - oracle["seconds"]
    model, calib, oracle_doc = oracle["model"], oracle["calib"], oracle["table"]
    assert len(oracle_doc["trials"]) == SPACE_SIZE
    oracle_min = oracle_doc["best"]["l_div"]

    hits = 0
    for seed in (1, 2, 3, 4, 5):
        out = tmp_path / f"search_{seed}.json"
        assert run(["search", "--model", str(model), "--calib", str(calib),
                    "--sparsity", "0.5", "--algo", "nsga2", "--budget", "350",
                    "--pop", "24", "--seed", str(seed), "--out", str(out)]) == 0
        if json.loads(out.read_text())["best"]["l_div"] <= 1.001 * oracle_min:
            hits += 1
    elapsed = time.perf_counter() - start
    detail = (
        f"{hits}/5 seeds within 1.001x of oracle minimum {oracle_min:.6e}; "
        f"runtime {elapsed:.0f}s (< 900s)"
    )
    _report(1, "oracle-optimum recovery", hits >= 4 and elapsed < 900.0, detail)


def test_criterion_2_preset_fidelity(fixture_weights, fixture_stats):
    spec = Unstructured(0.5)
    checked = 0
    ok = True
    for i in range(fixture_weights.config.n_layers):
        for name in SUB_MODULES:
            key = sub_module_key(i, name)
            w_oi = fixture_weights.tensors[key].T
            stats = fixture_stats[key]
            a = np.abs(w_oi)
            v = stats.v

            wanda_direct = a * v[None, :]
            wanda_mask = build_mask(score(w_oi, stats, preset("wanda")), spec)
            ok &= np.array_equal(wanda_mask, build_mask(wanda_direct, spec))

            ria_direct = (
                a / a.sum(axis=1, keepdims=True) + a / a.sum(axis=0, keepdims=True)
            ) * np.sqrt(v)[None, :]
            ria_mask = build_mask(score(w_oi, stats, preset("ria")), spec)
            ok &= np.array_equal(ria_mask, build_mask(ria_direct, spec))
            checked += 1
    _report(2, "preset fidelity", ok, f"wanda and ria masks exact on {checked} sub-modules")


def test_criterion_3_worked_example_scores():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    stats = SubModuleStats(v=np.array([4.0, 9.0]), l1=np.array([4.0, 9.0]), token_count=1)
    fro = math.sqrt(30.0)
    act = np.array([2.0 / 13.0, 3.0 / 13.0])  # sqrt(v) / sum(v)

    s2 = score(w, stats, preset("optishear-l2-gsm8k"))
    expected2 = (w / fro) * act[None, :]
    s3 = score(w, stats, preset("optishear-l3-gsm8k"))
    expected3 = (0.4 * w) * act[None, :]

    ok = np.allclose(s2, expected2, rtol=1e-9, atol=0.0) and np.allclose(
        s3, expected3, rtol=1e-9, atol=0.0
    )
    _report(3, "worked-example numeric check", ok,
            f"entry (0,0): {s2[0, 0]:.9e} vs hand value {expected2[0, 0]:.9e} (rtol 1e-9)")


def test_criterion_4_zero_sparsity_identity(fixture_weights, fixture_stats, fixture_calib, fixture_ctx):
    pruned, _ = prune_model(fixture_weights, fixture_stats, preset("wanda"), Unstructured(0.0))
    bitwise = all(
        forward(pruned, seq).tobytes() == dense.tobytes()
        for seq, dense in zip(fixture_calib.sequences, fixture_ctx.dense_hidden)
    )
    l_div = divergence(fixture_ctx.dense_hidden, pruned, fixture_calib)
    _report(4, "zero-sparsity identity", bitwise and l_div == 0.0,
            f"l_div == {l_div!r} exactly, forward outputs bit-identical: {bitwise}")


def test_criterion_5_nm_constraint_suite():
    rng = np.random.default_rng(55)
    groups_checked = 0
    ok = True
    for n, m in ((4, 8), (2, 4)):
        for _ in range(100):
            rows = int(rng.integers(1, 12))
            cols = int(rng.integers(1, 6)) * m
            scores = rng.normal(size=(rows, cols))
            bits = build_mask(scores, SemiStructured(n, m))
            counts = bits.reshape(rows, cols // m, m).sum(axis=2)
            ok &= bool((counts == n).all())
            groups_checked += counts.size
    _report(5, "n:m constraint suite", ok,
            f"{groups_checked} groups across 4:8 and 2:4 all keep exactly n entries")


def test_criterion_6_alignment_ordering(fixture_weights, fixture_stats):
    d_found = alignment_discrepancy(fixture_weights, fixture_stats, preset("optishear-l2-gsm8k"))
    d_wanda = alignment_discrepancy(fixture_weights, fixture_stats, preset("wanda"))
    ok = d_found["model_mean"] < d_wanda["model_mean"]
    _report(6, "alignment ordering", ok,
            f"d(optishear-l2-gsm8k) = {d_found['model_mean']:.3f} < d(wanda) = {d_wanda['model_mean']:.3f}")


def test_criterion_7_pipeline_determinism(tmp_path):
    def pipeline(workdir, jobs):
        workdir.mkdir()
        model = workdir / "model.opsh"
        calib = workdir / "calib.jsonl"
        stats = workdir / "stats.json"
        result = workdir / "search.json"
        assert run(["gen-model", "--seed", "42", "--out", str(model)]) == 0
        assert run(["gen-calib", "--seed", "7", "--out", str(calib)]) == 0
        assert run(["stats", "--model", str(model), "--calib", str(calib), "--out", str(stats)]) == 0
        assert run([
            "search", "--model", str(model), "--calib", str(calib), "--sparsity", "0.5",
            "--algo", "nsga2", "--budget", "48", "--pop", "24", "--seed", "3",
            "--jobs", str(jobs), "--out", str(result),
        ]) == 0
        return [model, calib, stats, result, workdir / "search.csv"]

    first = pipeline(tmp_path / "a", jobs=1)
    second = pipeline(tmp_path / "b", jobs=1)
    parallel = pipeline(tmp_path / "c", jobs=4)
    same_rerun = all(x.read_bytes() == y.read_bytes() for x, y in zip(first, second))
    same_jobs = all(x.read_bytes() == y.read_bytes() for x, y in zip(first, parallel))
    _report(7, "pipeline determinism", same_rerun and same_jobs,
            f"rerun byte-identical: {same_rerun}, --jobs 4 byte-identical: {same_jobs}")


def test_criterion_8_monotone_invariance():
    rng = np.random.default_rng(88)
    ok = True
    for i in range(1000):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 5)) * 4
        scores = rng.normal(size=(rows, cols)) * float(rng.uniform(0.1, 10.0))
        spec = (Unstructured(0.5), Unstructured(0.25), SemiStructured(2, 4))[i % 3]
        base = build_mask(scores, spec)
        mapped = build_mask(scores**3 + 1.0, spec)
        ok &= bool(np.array_equal(base, mapped))
    _report(8, "monotone invariance", ok, "x -> x^3 + 1 left 1000 random masks unchanged")


def test_criterion_9_budget_accounting(fixture_ctx, oracle):
    evaluate = functools.partial(evaluate_configs, fixture_ctx)
    sweep = random_search(evaluate, budget=SPACE_SIZE, seed=9)
    # The table holds repr(l_div), which reads back as the same float.
    exact_min = sweep.best_l_div == oracle["table"]["best"]["l_div"]

    partial = random_search(evaluate, budget=80, seed=9)
    configs = [cfg for _, cfg, _ in partial.trials]
    no_dup_budget = partial.evaluations_used == len(set(configs)) == 80

    bounded = all(
        r.evaluations_used <= min(r.budget, SPACE_SIZE) for r in (sweep, partial)
    )
    _report(9, "budget accounting", exact_min and no_dup_budget and bounded,
            f"random class sweep min {sweep.best_l_div:.6e} == oracle min exactly: {exact_min}; "
            f"budget 80 evaluated {partial.evaluations_used} distinct configs")
