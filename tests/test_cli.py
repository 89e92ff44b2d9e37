import contextlib
import gc
import io
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prunesearch
from prunesearch import io as storage
from prunesearch import objective
from prunesearch.analysis import distribution_summary, emit_report
from prunesearch.cli import build_parser, run
from prunesearch.metric import PRESET_NAMES
from prunesearch.model import ModelWeights
from prunesearch.objective import collect_activation_stats

MICRO = [
    "--d-model", "8", "--layers", "1", "--heads", "2", "--d-ff", "8",
    "--vocab", "32", "--max-seq", "8",
]


@pytest.fixture()
def micro_files(tmp_path):
    model = tmp_path / "model.opsh"
    calib = tmp_path / "calib.jsonl"
    stats = tmp_path / "stats.json"
    assert run(["gen-model", *MICRO, "--seed", "1", "--out", str(model)]) == 0
    assert run(["gen-calib", "--vocab", "32", "--seqs", "2", "--len", "8", "--seed", "2", "--out", str(calib)]) == 0
    assert run(["stats", "--model", str(model), "--calib", str(calib), "--out", str(stats)]) == 0
    return {"model": model, "calib": calib, "stats": stats, "dir": tmp_path}


def test_usage_errors_exit_1(capsys):
    assert run(["no-such-command"]) == 1
    assert run(["gen-model", "--bogus-flag", "x"]) == 1
    assert run([]) == 1
    capsys.readouterr()


def test_help_exits_0_and_lists_presets(capsys):
    assert run(["--help"]) == 0
    text = capsys.readouterr().out
    for name in PRESET_NAMES:
        assert name in text
    assert "N:M" in text

    assert run(["prune", "--help"]) == 0
    text = capsys.readouterr().out
    for name in PRESET_NAMES:
        assert name in text


def test_bad_metric_and_sparsity_are_usage_errors(micro_files, capsys):
    base = [
        "prune", "--model", str(micro_files["model"]), "--stats", str(micro_files["stats"]),
        "--out", str(micro_files["dir"] / "p.opsh"),
    ]
    assert run([*base, "--metric", "nope", "--sparsity", "0.5"]) == 1
    assert run([*base, "--metric", "wanda", "--sparsity", "garbage"]) == 1
    inputs = ["--model", str(micro_files["model"]), "--calib", str(micro_files["calib"]),
              "--sparsity", "0.5", "--out", str(micro_files["dir"] / "r.json")]
    assert run(["search", *inputs, "--jobs", "-3"]) == 1
    assert run(["enumerate", *inputs, "--jobs", "0"]) == 1
    capsys.readouterr()
    # numpy would reject a negative seed too, but with a message that does not name the flag.
    assert run(["search", *inputs, "--seed", "-1"]) == 1
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, accepted", [
    ("--sparsity", "0.5", True),
    ("--sparsity", "2:4", True),
    ("--metric", "custom:2,1,0,2", True),
    ("--metric", "custom:frobenius,global_sum,identity,sqrt", True),
    # int() and float() would read each of these: 10:20, 0.25, 0.5, 2:4, code 0, code 2.
    ("--sparsity", "1_0:2_0", False),
    ("--sparsity", "0.2_5", False),
    ("--sparsity", "\u0660.5", False),
    ("--sparsity", "\uff12:\uff14", False),
    ("--metric", "custom:0_0,0,0,0", False),
    ("--metric", "custom:\u0662,1,0,2", False),
])
def test_number_flags_take_ascii_digits_without_underscores(tmp_path, capsys, flag, value, accepted):
    flags = {"--metric": "wanda", "--sparsity": "0.5", flag: value}
    argv = ["prune", "--model", "m.opsh", "--stats", "s.json", "--out", str(tmp_path / "p.opsh")]
    for name, text in flags.items():
        argv += [name, text]
    if accepted:
        build_parser().parse_args(argv)
        return
    assert run(argv) == 1
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "p.opsh").exists()


def test_population_above_the_mask_classes_exits_2(micro_files, capsys):
    code = run(["search", "--model", str(micro_files["model"]), "--calib", str(micro_files["calib"]),
                "--sparsity", "0.5", "--pop", "442", "--budget", "442", "--out", str(micro_files["dir"] / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "441" in err


@pytest.mark.parametrize(
    "argv",
    [["gen-model", "--vocab", "1000000000000"], ["gen-calib", "--seqs", "100000000000000"],
     ["gen-calib", "--len", "100000000000000"]],
    ids=["vocab", "seqs", "len"],
)
def test_allocation_beyond_memory_exits_2(tmp_path, capsys, argv):
    # Hundreds of TiB at least: malloc refuses at once, nothing is touched.
    assert run([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def _search_argv(files, out, jobs):
    return ["search", "--model", str(files["model"]), "--calib", str(files["calib"]), "--sparsity", "0.5",
            "--budget", "40", "--pop", "8", "--seed", "2", "--jobs", str(jobs), "--out", str(out)]


def _enumerate_argv(files, out, jobs):
    return ["enumerate", "--model", str(files["model"]), "--calib", str(files["calib"]), "--sparsity", "0.5",
            "--jobs", str(jobs), "--out", str(out)]


def _no_read(*args):
    raise AssertionError("an input was read")


@pytest.mark.parametrize("name", ["res.csv", "res.CSV"])
@pytest.mark.parametrize("argv", [_search_argv, _enumerate_argv], ids=["search", "enumerate"])
def test_a_results_path_ending_in_csv_is_a_usage_error(micro_files, monkeypatch, capsys, argv, name):
    # Its .csv sibling is the same name (or, on a case-insensitive file
    # system, the same file), so the CSV would overwrite the results JSON.
    monkeypatch.setattr(storage, "read_model", _no_read)
    before = sorted(micro_files["dir"].iterdir())
    assert run(argv(micro_files, micro_files["dir"] / name, 1)) == 1
    assert f"argument --out: '{micro_files['dir'] / name}' ends in .csv" in capsys.readouterr().err
    assert sorted(micro_files["dir"].iterdir()) == before


@pytest.mark.parametrize("masks_out", ["p.opsh", "sub/../p.opsh"])
def test_prune_outputs_naming_one_file_are_a_usage_error(micro_files, monkeypatch, capsys, masks_out):
    monkeypatch.chdir(micro_files["dir"])
    monkeypatch.setattr(storage, "read_model", _no_read)
    argv = ["prune", "--model", str(micro_files["model"]), "--stats", str(micro_files["stats"]),
            "--metric", "wanda", "--sparsity", "0.5", "--out", str(micro_files["dir"] / "p.opsh")]
    assert run([*argv, "--masks-out", masks_out]) == 1
    assert "--masks-out names the --out file" in capsys.readouterr().err
    assert not (micro_files["dir"] / "p.opsh").exists()


def test_search_with_workers_matches_one_worker_and_leaves_no_process(micro_files, monkeypatch, capsys):
    monkeypatch.setattr(objective, "_usable_cpus", lambda: 3)
    one = micro_files["dir"] / "one.json"
    assert run(_search_argv(micro_files, one, 1)) == 0
    for jobs in (2, 3):
        pooled = micro_files["dir"] / f"jobs{jobs}.json"
        assert run(_search_argv(micro_files, pooled, jobs)) == 0
        assert multiprocessing.active_children() == []
        assert one.read_bytes() == pooled.read_bytes()
        assert one.with_suffix(".csv").read_bytes() == pooled.with_suffix(".csv").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("error", [ValueError, MemoryError, pytest.param(None, id="os._exit")])
def test_error_in_a_worker_exits_2_with_one_line(micro_files, monkeypatch, capsys, error):
    parent, divergence = os.getpid(), objective.divergence

    def failing_in_worker(*args):
        if os.getpid() != parent:
            if error is None:
                os._exit(1)  # the worker dies without a result or an exception
            raise error("divergence failed in a worker")
        return divergence(*args)

    monkeypatch.setattr(objective, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(objective, "divergence", failing_in_worker)
    outs = [micro_files["dir"] / "r.json", micro_files["dir"] / "t.json"]
    for argv in (_search_argv(micro_files, outs[0], 2), _enumerate_argv(micro_files, outs[1], 2)):
        assert run(argv) == 2
        err = capsys.readouterr().err
        expected = "a scoring worker died" if error is None else "failed in a worker"
        assert err.startswith("error: ") and err.count("\n") == 1 and expected in err
        assert multiprocessing.active_children() == []
    assert not any(out.exists() for out in outs)


def test_enumerate_with_workers_matches_one_worker_and_leaves_no_process(micro_files, monkeypatch, capsys):
    def no_fork():
        raise AssertionError("enumerate --jobs 1 forked a process")

    monkeypatch.setattr(objective, "_usable_cpus", lambda: 3)
    one = micro_files["dir"] / "one.json"
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", no_fork)
        assert run(_enumerate_argv(micro_files, one, 1)) == 0
    for jobs in (2, 3):
        pooled = micro_files["dir"] / f"jobs{jobs}.json"
        forks, fork = [], os.fork
        with monkeypatch.context() as patch:
            patch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
            assert run(_enumerate_argv(micro_files, pooled, jobs)) == 0
        assert len(forks) == jobs
        assert multiprocessing.active_children() == []
        assert one.read_bytes() == pooled.read_bytes()
        assert one.with_suffix(".csv").read_bytes() == pooled.with_suffix(".csv").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("jobs", [1, 2])
def test_scoring_commands_free_their_context_before_writing(micro_files, monkeypatch, capsys, jobs):
    # The context holds a float64 copy of the model and the dense hidden
    # cache: writing the results must not add its own peak on top of them.
    def live_contexts():
        return {id(o) for o in gc.get_objects() if isinstance(o, objective.EvalContext)}

    write_results = storage.write_results

    def checked_write(*args):
        assert live_contexts() <= before
        return write_results(*args)

    monkeypatch.setattr(objective, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(storage, "write_results", checked_write)
    out = micro_files["dir"] / "r.json"
    for argv in (_search_argv(micro_files, out, jobs), _enumerate_argv(micro_files, out, jobs)):
        before = live_contexts()
        assert run(argv) == 0
    capsys.readouterr()


def _force_calibration_pool(monkeypatch):
    monkeypatch.setattr(objective, "POOL_MIN_MACS", 0)
    monkeypatch.setattr(objective, "_usable_cpus", lambda: 2)


def _stats_and_eval(files, tag):
    """Run stats, and eval of the model against its pruned copy; return the stats path and both exit codes."""
    out = files["dir"] / f"stats-{tag}.json"
    codes = [
        run(["stats", "--model", str(files["model"]), "--calib", str(files["calib"]), "--out", str(out)]),
        run(["eval", "--dense", str(files["model"]), "--pruned", str(files["pruned"]), "--calib", str(files["calib"])]),
    ]
    return out, codes


@pytest.fixture()
def ragged_files(micro_files):
    calib = objective.CalibrationSet(((3, 1, 4), tuple(range(8)), (31,), (2, 7, 1, 8, 2), tuple(range(31, 23, -1)), (5, 9)))
    storage.write_calib(micro_files["calib"], calib)
    pruned = micro_files["dir"] / "pruned.opsh"
    assert run(["prune", "--model", str(micro_files["model"]), "--stats", str(micro_files["stats"]),
                "--metric", "ria", "--sparsity", "0.5", "--out", str(pruned)]) == 0
    return {**micro_files, "pruned": pruned}


def test_calibration_pool_is_byte_identical_to_the_serial_pass(ragged_files, monkeypatch, capsys):
    serial_stats, codes = _stats_and_eval(ragged_files, "serial")
    assert codes == [0, 0]
    serial_out = capsys.readouterr().out
    _force_calibration_pool(monkeypatch)
    pools, fork_pool = [], objective._fork_pool
    monkeypatch.setattr(objective, "_fork_pool", lambda role, *args: pools.append(role) or fork_pool(role, *args))
    pooled_stats, codes = _stats_and_eval(ragged_files, "pooled")
    # One pool for stats, two for eval: its dense pass, then its pruned pass.
    assert codes == [0, 0] and pools == ["calibration"] * 3
    assert capsys.readouterr().out == serial_out.replace("stats-serial", "stats-pooled")
    assert pooled_stats.read_bytes() == serial_stats.read_bytes()
    assert multiprocessing.active_children() == []


def test_calibration_below_the_threshold_stays_in_process(tmp_path):
    # The acceptance fixture (2 layers, d_model 32, 8 x 64 tokens) holds about
    # 1e7 multiply-adds: stats and eval fork nothing and never import
    # multiprocessing, however many CPUs are usable.
    script = """if True:
        import sys
        from prunesearch import objective
        from prunesearch.cli import run
        objective._usable_cpus = lambda: 2
        for argv in (["gen-model", "--out", "m.opsh"], ["gen-calib", "--out", "c.jsonl"],
                     ["stats", "--model", "m.opsh", "--calib", "c.jsonl", "--out", "s.json"],
                     ["prune", "--model", "m.opsh", "--stats", "s.json", "--metric", "ria", "--sparsity", "0.5",
                      "--out", "p.opsh"],
                     ["eval", "--dense", "m.opsh", "--pruned", "p.opsh", "--calib", "c.jsonl"]):
            assert run(argv) == 0, argv
        assert "multiprocessing" not in sys.modules
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(Path(prunesearch.__file__).parent.parent),
                                                                     os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_calibration_worker_that_dies_exits_2_with_one_line(ragged_files, monkeypatch, capsys):
    parent, forward = os.getpid(), objective.forward

    def dying_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return forward(*args, **kwargs)

    _force_calibration_pool(monkeypatch)
    monkeypatch.setattr(objective, "forward", dying_in_worker)
    capsys.readouterr()
    out, codes = _stats_and_eval(ragged_files, "dead")
    assert codes == [2, 2]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: a calibration worker died") for line in err)
    assert multiprocessing.active_children() == []
    assert not out.exists()


@pytest.mark.parametrize("tokens, diagnostic", [((3, 32, 1), "token id out of range [0, 32)"),
                                               (tuple(range(9)), "sequence length 9 exceeds max_seq_len 8")])
def test_calibration_is_checked_before_any_fork(ragged_files, monkeypatch, capsys, tokens, diagnostic):
    bad = objective.CalibrationSet((*storage.read_calib(ragged_files["calib"]).sequences, tokens))
    storage.write_calib(ragged_files["calib"], bad)
    capsys.readouterr()
    assert _stats_and_eval(ragged_files, "serial")[1] == [2, 2]
    serial_err = capsys.readouterr().err
    assert serial_err == f"error: {diagnostic}\n" * 2

    def no_fork():
        raise AssertionError("a calibration pass forked before its inputs were checked")

    _force_calibration_pool(monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _stats_and_eval(ragged_files, "pooled")[1] == [2, 2]
    assert capsys.readouterr().err == serial_err


@pytest.mark.parametrize("flags", [["--layers", "3"], ["--heads", "8"]], ids=["3-layers", "8-heads"])
def test_eval_rejects_a_pruned_model_of_another_config(tmp_path, monkeypatch, capsys, flags):
    dense, other, calib = tmp_path / "dense.opsh", tmp_path / "other.opsh", tmp_path / "calib.jsonl"
    assert run(["gen-model", "--out", str(dense)]) == 0
    assert run(["gen-model", *flags, "--out", str(other)]) == 0
    assert run(["gen-calib", "--out", str(calib)]) == 0

    def no_forward(*args, **kwargs):
        raise AssertionError("eval ran a forward on mismatched models")

    monkeypatch.setattr(objective, "forward", no_forward)
    capsys.readouterr()
    assert run(["eval", "--dense", str(dense), "--pruned", str(other), "--calib", str(calib)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: pruned model config") and err.count("\n") == 1


def test_missing_file_is_data_error(tmp_path, capsys):
    code = run(["stats", "--model", str(tmp_path / "nope.opsh"), "--calib", str(tmp_path / "c"), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "error" in capsys.readouterr().err


_DEEP = b"[" * 100000 + b"]" * 100000
_MODEL_CONFIG = b'{"d_ff":8,"d_model":8,"max_seq_len":8,"n_heads":2,"n_layers":100000,"vocab_size":32}'


@pytest.mark.parametrize(
    "command, damaged, content",
    [
        ("stats", "calib", b'{"tokens":[1000000000000000000000000000000]}\n'),
        ("stats", "calib", b'{"tokens":[1]}\n\n{"tokens":[2]}\n'),
        ("stats", "calib", b'{"tokens":[1],"ids":[2]}\n'),
        ("eval", "calib", _DEEP + b"\n"),
        ("eval", "calib", b'{"tokens":[1,\xff]}\n'),
        ("dist", "stats", _DEEP),
        ("dist", "stats", b'{"layer.0.q":\xff}'),
        ("eval", "model", b"OPSH\x01\x00\x00\x00" + len(_DEEP).to_bytes(4, "little") + _DEEP + bytes(4)),
        ("eval", "model", b"OPSH\x01\x00\x00\x00" + (len(_MODEL_CONFIG) + 26).to_bytes(4, "little")
         + b'{"config":' + _MODEL_CONFIG + b',"kind":"model"}' + bytes(4)),
    ],
    ids=["token-beyond-int64", "calib-blank-line", "calib-extra-key", "deep-calib", "calib-not-utf8", "deep-stats", "stats-not-utf8",
         "deep-model-header", "header-of-100000-layers"],
)
def test_damaged_inputs_exit_2_with_one_line_error(micro_files, capsys, command, damaged, content):
    micro_files[damaged].write_bytes(content)
    files = {"model": micro_files["model"], "calib": micro_files["calib"], "stats": micro_files["stats"]}
    argv = {
        "stats": ["--model", files["model"], "--calib", files["calib"], "--out", micro_files["dir"] / "s.json"],
        "eval": ["--dense", files["model"], "--pruned", files["model"], "--calib", files["calib"]],
        "dist": ["--model", files["model"], "--stats", files["stats"], "--out", micro_files["dir"] / "d.json"],
    }[command]
    capsys.readouterr()
    assert run([command, *map(str, argv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 500, err[:500]


def test_prune_group_misalignment_exits_2(tmp_path, capsys):
    model = tmp_path / "model.opsh"
    calib = tmp_path / "calib.jsonl"
    stats = tmp_path / "stats.json"
    # d_model 6 is not divisible by 4, so 2:4 masks cannot align
    assert run(["gen-model", "--d-model", "6", "--layers", "1", "--heads", "2", "--d-ff", "8",
                "--vocab", "16", "--max-seq", "8", "--seed", "1", "--out", str(model)]) == 0
    assert run(["gen-calib", "--vocab", "16", "--seqs", "2", "--len", "8", "--seed", "2", "--out", str(calib)]) == 0
    assert run(["stats", "--model", str(model), "--calib", str(calib), "--out", str(stats)]) == 0
    code = run(["prune", "--model", str(model), "--stats", str(stats), "--metric", "wanda",
                "--sparsity", "2:4", "--out", str(tmp_path / "p.opsh")])
    assert code == 2
    assert "divisible" in capsys.readouterr().err


def test_magnitude_prune_rejects_stats_of_another_width(micro_files, capsys):
    # Magnitude pruning, align and dist never read v for scores but must still
    # refuse stats of another model: the 8-wide stats with a 16-wide model, and
    # the stats of a 2-layer model with the 1-layer model of the same widths.
    wide = micro_files["dir"] / "wide.opsh"
    deep = micro_files["dir"] / "deep.opsh"
    deep_stats = micro_files["dir"] / "deep_stats.json"
    assert run(["gen-model", "--d-model", "16", "--layers", "1", "--heads", "2", "--d-ff", "8",
                "--vocab", "32", "--max-seq", "8", "--seed", "1", "--out", str(wide)]) == 0
    assert run(["gen-model", "--d-model", "8", "--layers", "2", "--heads", "2", "--d-ff", "8",
                "--vocab", "32", "--max-seq", "8", "--seed", "1", "--out", str(deep)]) == 0
    assert run(["stats", "--model", str(deep), "--calib", str(micro_files["calib"]), "--out", str(deep_stats)]) == 0
    capsys.readouterr()
    for model, stats, diagnostic in (
        (wide, micro_files["stats"], "input features"),
        (micro_files["model"], deep_stats, "layer.1.q"),
    ):
        inputs = ["--model", str(model), "--stats", str(stats)]
        for command in (
            ["prune", *inputs, "--metric", "magnitude", "--sparsity", "0.5", "--out", str(micro_files["dir"] / "p.opsh")],
            ["align", *inputs, "--metric", "wanda", "--out", str(micro_files["dir"] / "a.json")],
            ["dist", *inputs, "--out", str(micro_files["dir"] / "d.json")],
        ):
            assert run(command) == 2, (command[0], diagnostic)
            assert diagnostic in capsys.readouterr().err
    assert not (micro_files["dir"] / "p.opsh").exists()
    assert not (micro_files["dir"] / "a.json").exists()
    assert not (micro_files["dir"] / "d.json").exists()


def test_prune_and_eval_zero_divergence_for_ratio_zero(micro_files, capsys):
    pruned = micro_files["dir"] / "pruned.opsh"
    masks = micro_files["dir"] / "masks.opsh"
    assert run(["prune", "--model", str(micro_files["model"]), "--stats", str(micro_files["stats"]),
                "--metric", "wanda", "--sparsity", "0.0", "--out", str(pruned), "--masks-out", str(masks)]) == 0
    capsys.readouterr()
    assert run(["eval", "--dense", str(micro_files["model"]), "--pruned", str(pruned),
                "--calib", str(micro_files["calib"])]) == 0
    assert capsys.readouterr().out.strip() == "0.0"
    assert storage.read_masks(masks)  # masks file parses


@pytest.mark.parametrize("sparsity, mean", [("0.0", 0.0), ("0.3", 0.25), ("2:4", 0.5), ("1.0", 1.0)])
def test_prune_prints_the_mean_sparsity_of_its_masks(micro_files, capsys, sparsity, mean):
    # Every micro sub-module has 8 inputs: 0.3 drops floor(2.4) = 2 of them.
    pruned, masks = micro_files["dir"] / "pruned.opsh", micro_files["dir"] / "masks.opsh"
    capsys.readouterr()
    assert run(["prune", "--model", str(micro_files["model"]), "--stats", str(micro_files["stats"]),
                "--metric", "wanda", "--sparsity", sparsity, "--out", str(pruned), "--masks-out", str(masks)]) == 0
    assert capsys.readouterr().out == f"pruned 7 sub-modules (mean sparsity {mean:.4f}) to {pruned}\n"
    dropped = [1.0 - m.bits.mean() for m in storage.read_masks(masks).values()]
    assert sum(dropped) / len(dropped) == mean


def test_prune_with_custom_metric(micro_files, capsys):
    pruned = micro_files["dir"] / "pruned.opsh"
    assert run(["prune", "--model", str(micro_files["model"]), "--stats", str(micro_files["stats"]),
                "--metric", "custom:frobenius,global_sum,identity,sqrt", "--sparsity", "4:8",
                "--out", str(pruned)]) == 0
    capsys.readouterr()
    loaded = storage.read_model(pruned)
    q = loaded.tensors["layer.0.q"].T  # output x input
    groups = (q != 0.0).reshape(q.shape[0], q.shape[1] // 8, 8).sum(axis=2)
    assert (groups == 4).all()


def test_search_writes_results(micro_files, capsys):
    out = micro_files["dir"] / "search.json"
    assert run(["search", "--model", str(micro_files["model"]), "--calib", str(micro_files["calib"]),
                "--sparsity", "0.5", "--algo", "nsga2", "--budget", "8", "--pop", "4",
                "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["algorithm"] == "nsga2"
    assert doc["evaluations_used"] <= 8
    assert (micro_files["dir"] / "search.csv").exists()


def test_search_random_algo(micro_files, capsys):
    out = micro_files["dir"] / "random.json"
    assert run(["search", "--model", str(micro_files["model"]), "--calib", str(micro_files["calib"]),
                "--sparsity", "0.5", "--algo", "random", "--budget", "6", "--seed", "3",
                "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["algorithm"] == "random"


def test_align_and_dist_are_thin_adapters(micro_files, capsys):
    # CLI output must equal the library path called on the same files.
    out_cli = micro_files["dir"] / "dist_cli.json"
    assert run(["dist", "--model", str(micro_files["model"]), "--stats", str(micro_files["stats"]),
                "--out", str(out_cli)]) == 0
    capsys.readouterr()

    weights = storage.read_model(micro_files["model"])
    stats = storage.read_stats(micro_files["stats"])
    out_lib = micro_files["dir"] / "dist_lib.json"
    emit_report(distribution_summary(weights, stats), out_lib)
    assert out_cli.read_bytes() == out_lib.read_bytes()


def test_align_csv_output(micro_files, capsys):
    out = micro_files["dir"] / "align.csv"
    assert run(["align", "--model", str(micro_files["model"]), "--stats", str(micro_files["stats"]),
                "--metric", "optishear-l2-gsm8k", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "layer,mean_difference"
    assert len(lines) == 2  # one layer


def test_align_rejects_magnitude(micro_files, capsys):
    code = run(["align", "--model", str(micro_files["model"]), "--stats", str(micro_files["stats"]),
                "--metric", "magnitude", "--out", str(micro_files["dir"] / "x.json")])
    assert code == 2
    capsys.readouterr()


def test_stats_cli_matches_library(micro_files, tmp_path, capsys):
    # The CLI stats path is byte-identical to collecting from the same files.
    weights = storage.read_model(micro_files["model"])
    calib = storage.read_calib(micro_files["calib"])
    lib_path = tmp_path / "stats_lib.json"
    storage.write_stats(lib_path, collect_activation_stats(weights, calib))
    assert lib_path.read_bytes() == micro_files["stats"].read_bytes()
    capsys.readouterr()


# Damage to one input file: a truncation at any length or one to three
# flipped bits anywhere (header, payload or JSON text). Positions come from a
# seeded Random so that they spread over the whole file.
_INPUT_DAMAGE = st.tuples(
    st.sampled_from(("model", "calib", "stats")),
    st.sampled_from(("truncate", "flip")),
    st.randoms(use_true_random=False),
)


@pytest.fixture(scope="module")
def clean_micro_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("clean")
    files = {"model": tmp / "model.opsh", "calib": tmp / "calib.jsonl", "stats": tmp / "stats.json",
             "pruned": tmp / "pruned.opsh"}
    assert run(["gen-model", *MICRO, "--seed", "1", "--out", str(files["model"])]) == 0
    assert run(["gen-calib", "--vocab", "32", "--seqs", "2", "--len", "8", "--seed", "2",
                "--out", str(files["calib"])]) == 0
    assert run(["stats", "--model", str(files["model"]), "--calib", str(files["calib"]),
                "--out", str(files["stats"])]) == 0
    assert run(["prune", "--model", str(files["model"]), "--stats", str(files["stats"]),
                "--metric", "wanda", "--sparsity", "0.5", "--out", str(files["pruned"])]) == 0
    return files


def _json_numbers(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from _json_numbers(item)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(damage=_INPUT_DAMAGE)
def test_every_command_on_a_damaged_input_exits_with_a_code(clean_micro_files, tmp_path_factory, damage):
    work = tmp_path_factory.mktemp("damaged")
    files = {name: shutil.copy(path, work / path.name) for name, path in clean_micro_files.items()}
    target, how, rnd = damage
    data = bytearray(files[target].read_bytes())
    if how == "truncate":
        del data[rnd.randrange(len(data)):]
    else:
        for bit in rnd.sample(range(8 * len(data)), rnd.randint(1, 3)):
            data[bit // 8] ^= 1 << (bit % 8)
    files[target].write_bytes(bytes(data))
    model, calib, stats = (str(files[name]) for name in ("model", "calib", "stats"))
    commands = [
        ["stats", "--model", model, "--calib", calib, "--out", str(work / "s.json")],
        ["prune", "--model", model, "--stats", stats, "--metric", "wanda", "--sparsity", "0.5",
         "--out", str(work / "p.opsh")],
        ["eval", "--dense", model, "--pruned", str(files["pruned"]), "--calib", calib],
        ["align", "--model", model, "--stats", stats, "--metric", "wanda", "--out", str(work / "a.json")],
        ["dist", "--model", model, "--stats", stats, "--out", str(work / "d.json")],
        ["search", "--model", model, "--calib", calib, "--sparsity", "0.5", "--budget", "4",
         "--pop", "4", "--seed", "1", "--out", str(work / "r.json")],
    ]
    for argv in commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run(argv)
        assert code in (0, 1, 2), argv[0]
        # Exit 0 promises finite output: the number eval prints and every
        # number in a JSON report.
        if code == 0 and argv[0] == "eval":
            assert math.isfinite(float(stdout.getvalue())), argv[0]
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        if code == 0 and out is not None and out.suffix == ".json":
            assert all(math.isfinite(x) for x in _json_numbers(json.loads(out.read_text()))), argv[0]


_SRC = Path(prunesearch.__file__).resolve().parents[1]


def _cli_exit(argv) -> tuple[int, str]:
    """Exit code and stderr of the CLI run in a fresh process; a run that does
    not end within 60 s raises TimeoutExpired, so a hang fails the test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", "from prunesearch.cli import main; main()", *map(str, argv)],
                          capture_output=True, text=True, timeout=60, env=env)
    return done.returncode, done.stderr


@pytest.mark.parametrize("command", ["stats", "search", "enumerate", "enumerate-jobs-2", "eval", "eval-dense", "eval-pruned"])
def test_overflowing_activations_exit_2_and_write_nothing(micro_files, command):
    # Every tensor +-3e38 is valid float32, but the activations overflow
    # float64 within the first layer. Unchecked, the final norm's x * x
    # overflows to inf and x / inf makes every hidden state 0, so eval would
    # print a plausible divergence. The CLI runs in its own process, so its
    # stderr is all there is: numpy's warnings are errors under pytest.
    weights = storage.read_model(micro_files["model"])
    huge = {name: np.where(t >= 0, np.float32(3e38), np.float32(-3e38)) for name, t in weights.tensors.items()}
    model = micro_files["dir"] / "huge.opsh"
    storage.write_model(model, ModelWeights(weights.config, huge))
    out = micro_files["dir"] / "out.json"
    inputs = ["--model", model, "--calib", micro_files["calib"], "--out", out]
    normal = micro_files["model"]
    argv = {"stats": ["stats", *inputs],
            "search": ["search", *inputs, "--sparsity", "0.5", "--budget", "8", "--pop", "8"],
            "enumerate": ["enumerate", *inputs, "--sparsity", "0.5"],
            "enumerate-jobs-2": ["enumerate", *inputs, "--sparsity", "0.5", "--jobs", "2"],
            "eval": ["eval", "--dense", model, "--pruned", model, "--calib", micro_files["calib"]],
            "eval-dense": ["eval", "--dense", model, "--pruned", normal, "--calib", micro_files["calib"]],
            "eval-pruned": ["eval", "--dense", normal, "--pruned", model, "--calib", micro_files["calib"]]}[command]
    code, err = _cli_exit(argv)
    assert code == 2, err
    [line] = err.splitlines()
    assert line.startswith("error: the forward pass overflows float64 ("), err
    assert not out.exists() and not out.with_suffix(".csv").exists()


def _assert_ends_in_a_code(argv, seed: int) -> None:
    code, err = _cli_exit(argv)
    assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err[-500:])
    if seed < 0:
        assert code == 1 and "argument --seed" in err, (argv, err)


# Sizes stay small: the largest micro model is a few hundred KB. Negative
# values of any size are safe, since nothing is allocated for them.
_SIZE = st.one_of(st.integers(1, 16), st.integers(-3, 0), st.integers(-(2**63), -1))
_SEED = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63))


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(sizes=st.tuples(*[_SIZE] * 6), seed=_SEED)
@example(sizes=(0, 0, 0, 0, 0, 0), seed=0)
@example(sizes=(8, 1, 2, 8, 32, 8), seed=-1)
@example(sizes=(8, 1, 2, 8, 32, 8), seed=2**63)
@example(sizes=(9, 1, 2, 8, 32, 8), seed=0)  # heads do not divide d_model
def test_gen_model_integer_flags_end_in_a_code(tmp_path_factory, sizes, seed):
    flags = ["--d-model", "--layers", "--heads", "--d-ff", "--vocab", "--max-seq"]
    argv = ["gen-model", *[x for pair in zip(flags, sizes) for x in pair], "--seed", seed,
            "--out", tmp_path_factory.mktemp("gen") / "m.opsh"]
    _assert_ends_in_a_code(argv, seed)


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(sizes=st.tuples(*[_SIZE] * 3), seed=_SEED)
@example(sizes=(0, 0, 0), seed=0)
@example(sizes=(32, 2, 8), seed=-1)
def test_gen_calib_integer_flags_end_in_a_code(tmp_path_factory, sizes, seed):
    argv = ["gen-calib", "--vocab", sizes[0], "--seqs", sizes[1], "--len", sizes[2], "--seed", seed,
            "--out", tmp_path_factory.mktemp("gen") / "c.jsonl"]
    _assert_ends_in_a_code(argv, seed)


@settings(max_examples=14, deadline=None, database=None, derandomize=True)
@given(
    budget=st.one_of(st.integers(-3, 30), st.integers(2400, 2403)),
    pop=st.one_of(st.integers(-3, 13), st.sampled_from([441, 442])),
    seed=_SEED,
    jobs=st.sampled_from([1, 2]),
)
@example(budget=0, pop=0, seed=0, jobs=1)
@example(budget=4, pop=8, seed=1, jobs=1)  # budget below the population
@example(budget=2402, pop=7, seed=2, jobs=2)  # odd population, budget above the space
@example(budget=2402, pop=12, seed=3, jobs=2)
@example(budget=442, pop=442, seed=0, jobs=1)  # more than the 441 mask classes
@example(budget=30, pop=8, seed=-1, jobs=2)
def test_search_integer_flags_end_in_a_code(clean_micro_files, tmp_path_factory, budget, pop, seed, jobs):
    argv = ["search", "--model", clean_micro_files["model"], "--calib", clean_micro_files["calib"],
            "--sparsity", "0.5", "--budget", budget, "--pop", pop, "--seed", seed, "--jobs", jobs,
            "--out", tmp_path_factory.mktemp("search") / "r.json"]
    _assert_ends_in_a_code(argv, seed)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _python(args, cwd, openblas_threads=None):
    """`python ARGS` in a fresh process whose environment holds none of the
    BLAS thread variables but OPENBLAS_NUM_THREADS=openblas_threads, if given.
    This process imported prunesearch, so its own environment holds the pin."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def _assert_runs_the_cli(module, cwd):
    """`python -m module` exits 1 with usage on a bogus flag and runs gen-model."""
    bogus = _python(["-m", module, "--bogus"], cwd)
    assert bogus.returncode == 1 and bogus.stderr.startswith("usage: prunesearch"), bogus.stderr
    done = _python(["-m", module, "gen-model", "--out", "m.opsh"], cwd)
    assert done.returncode == 0, done.stderr
    assert storage.read_model(cwd / "m.opsh").config.n_layers == 2


def test_module_entry_point_runs_the_cli(tmp_path):
    _assert_runs_the_cli("prunesearch.cli", tmp_path)


def test_package_entry_point_runs_the_cli(tmp_path):
    _assert_runs_the_cli("prunesearch", tmp_path)


def test_stats_bytes_do_not_depend_on_the_blas_thread_setting(tmp_path):
    # One 255-token sequence through a d_model-256 layer: products that
    # OpenBLAS splits over threads, and whose bits change when it does.
    for argv in (
        ["gen-model", "--layers", "1", "--d-model", "256", "--heads", "8", "--d-ff", "64", "--vocab", "128",
         "--max-seq", "256", "--seed", "1", "--out", "m.opsh"],
        ["gen-calib", "--vocab", "128", "--seqs", "1", "--len", "255", "--seed", "0", "--out", "c.jsonl"],
    ):
        done = _python(["-m", "prunesearch.cli", *argv], tmp_path)
        assert done.returncode == 0, done.stderr
    written = set()
    for threads in (None, "1", "2", "4"):
        done = _python(["-m", "prunesearch.cli", "stats", "--model", "m.opsh", "--calib", "c.jsonl",
                        "--out", "s.json"], tmp_path, threads)
        assert done.returncode == 0, done.stderr
        written.add((tmp_path / "s.json").read_bytes())
    assert len(written) == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_importing_the_package_pins_blas_to_one_thread(tmp_path):
    script = ("import os, prunesearch, numpy as np; a = np.ones((512, 512)); a @ a; "
              "print(len(os.listdir('/proc/self/task')))")
    done = _python(["-c", script], tmp_path, "4")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"
