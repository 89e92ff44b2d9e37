import hashlib
import json
import math
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunesearch import io as storage
from prunesearch.cli import run
from prunesearch.metric import SPACE_SIZE, preset
from prunesearch.model import ModelConfig, ModelWeights, forward, init_model, sub_module_shapes, tensor_shapes
from prunesearch.objective import CalibrationSet, collect_activation_stats, synthetic_calibration
from prunesearch.prune import Mask, SemiStructured, apply_masks, parse_sparsity, prune_masks, prune_model
from prunesearch.search import SearchParams, SearchResult, all_configs, nsga2_search


def test_model_round_trip_is_stable(tmp_path, mini_weights):
    first = tmp_path / "model.opsh"
    second = tmp_path / "model2.opsh"
    storage.write_model(first, mini_weights)
    loaded = storage.read_model(first)
    storage.write_model(second, loaded)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.config == mini_weights.config
    # values survive at 32-bit precision
    np.testing.assert_allclose(loaded.tensors["layer.0.q"], mini_weights.tensors["layer.0.q"], atol=1e-6)


def test_read_model_returns_the_float32_tensors_init_model_built(tmp_path, mini_weights):
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    loaded = storage.read_model(path)
    assert list(loaded.tensors) == list(mini_weights.tensors)
    for name, array in loaded.tensors.items():
        assert array.dtype == np.float32
        assert array.tobytes() == mini_weights.tensors[name].tobytes()


def test_model_file_lists_expected_tensors(tmp_path, mini_weights):
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    header, tensors = storage._read_container(path)
    assert header["kind"] == "model"
    d = mini_weights.config.d_model
    assert tensors["layer.0.q"].shape == (d, d)
    assert tensors["layer.0.gate"].shape == (d, mini_weights.config.d_ff)


def test_fixture_model_bytes_are_pinned(tmp_path):
    # The bytes of `gen-model --seed 42`: they change if the init draw order,
    # the tensor order in the file or the container layout changes.
    path = tmp_path / "model.opsh"
    storage.write_model(path, init_model(ModelConfig(128, 32, 2, 4, 64, 64), 42))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "3858e7577ec14e76be905cadbe603722f1b3b28c281c0cbf1ab3e70b5dcace30"


def test_read_model_rejects_bad_magic(tmp_path, mini_weights):
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(storage.FormatError, match="magic"):
        storage.read_model(path)


def test_read_model_rejects_bad_version(tmp_path, mini_weights):
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(data))
    with pytest.raises(storage.FormatError, match="version"):
        storage.read_model(path)


def test_read_model_rejects_truncation(tmp_path, mini_weights):
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 7])
    with pytest.raises(storage.FormatError, match="truncated"):
        storage.read_model(path)


def test_read_model_rejects_trailing_bytes(tmp_path, mini_weights):
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(storage.FormatError, match="trailing"):
        storage.read_model(path)


def test_container_rejects_payload_larger_than_file(tmp_path):
    # A 2^31 x 2^31 uint8 tensor declared in a 60-byte file.
    header = b"{}"
    name = b"m"
    data = (storage.MAGIC + struct.pack("<II", storage.VERSION, len(header)) + header
            + struct.pack("<I", 1) + struct.pack("<H", len(name)) + name
            + struct.pack("<BII", 2, 2**31, 2**31) + struct.pack("<B", storage.DTYPE_U8) + b"\x00" * 8)
    path = tmp_path / "huge.opsh"
    path.write_bytes(data)
    with pytest.raises(storage.FormatError, match="payload of m"):
        storage._read_container(path)


def test_read_model_rejects_non_finite_weights(tmp_path, mini_weights):
    q = mini_weights.tensors["layer.0.q"].copy()
    q[0, 0] = np.nan
    bad = ModelWeights(mini_weights.config, {**mini_weights.tensors, "layer.0.q": q})
    path = tmp_path / "model.opsh"
    storage.write_model(path, bad)
    with pytest.raises(storage.FormatError, match="layer.0.q"):
        storage.read_model(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 1, 511, 1023])
def test_read_model_rejects_each_non_finite_value_anywhere(tmp_path, mini_weights, value, index):
    emb = mini_weights.tensors["token_embedding"].copy()  # 64 x 16
    emb.reshape(-1)[index] = value
    path = tmp_path / "model.opsh"
    storage.write_model(path, ModelWeights(mini_weights.config, {**mini_weights.tensors, "token_embedding": emb}))
    with pytest.raises(storage.FormatError, match="'token_embedding' holds non-finite values"):
        storage.read_model(path)


def _write_model_with_nan_and_a_renamed_tensor(path, weights):
    # layer.0.q holds a NaN and comes first in the file; layer.0.k, after it,
    # is stored under another name.
    tensors = []
    for name, array in weights.tensors.items():
        if name == "layer.0.q":
            array = array.copy()
            array[0, 0] = np.nan
        tensors.append(("layer.0.key" if name == "layer.0.k" else name, array, storage.DTYPE_F32))
    storage._write_container(path, {"kind": "model", "config": asdict(weights.config)}, tensors)


def test_read_model_reports_the_layout_before_non_finite_values(tmp_path, mini_weights):
    # A reader that converts tensors as it reads them still checks the
    # tensor set first: a file with both faults names the set, not the NaN.
    path = tmp_path / "model.opsh"
    _write_model_with_nan_and_a_renamed_tensor(path, mini_weights)
    with pytest.raises(storage.FormatError, match=r"tensor set mismatch: missing \['layer.0.k'\]") as info:
        storage.read_model(path)
    assert "non-finite" not in str(info.value)


def test_read_model_rejects_a_tensor_not_stored_as_float32(tmp_path, mini_weights, mini_calib, capsys):
    # layer.0.q stored as uint8 flags, with the right name and shape.
    tensors = [(name, (array != 0).astype(np.uint8) if name == "layer.0.q" else array,
                storage.DTYPE_U8 if name == "layer.0.q" else storage.DTYPE_F32)
               for name, array in mini_weights.tensors.items()]
    path = tmp_path / "model.opsh"
    storage._write_container(path, {"kind": "model", "config": asdict(mini_weights.config)}, tensors)
    with pytest.raises(storage.FormatError, match="'layer.0.q': expected float32, got uint8"):
        storage.read_model(path)
    calib = tmp_path / "calib.jsonl"
    storage.write_calib(calib, mini_calib)
    assert run(["stats", "--model", str(path), "--calib", str(calib), "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model tensor 'layer.0.q'") and err.count("\n") == 1


def test_damaged_model_gives_one_error_line_and_exit_2(tmp_path, mini_weights, mini_calib, capsys):
    bad = tmp_path / "bad.opsh"
    _write_model_with_nan_and_a_renamed_tensor(bad, mini_weights)
    calib = tmp_path / "calib.jsonl"
    storage.write_calib(calib, mini_calib)
    good = tmp_path / "good.opsh"
    storage.write_model(good, mini_weights)
    assert run(["eval", "--dense", str(good), "--pruned", str(bad), "--calib", str(calib)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model tensor set mismatch") and err.count("\n") == 1
    assert "Traceback" not in err


def test_readers_check_the_kind_before_reading_tensors(tmp_path, mini_weights):
    # A truncated model file read as masks: its tensors are never reached.
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(storage.FormatError, match="expected a masks container, got kind='model'"):
        storage.read_masks(path)


def _with_a_repeated_header_key(path) -> None:
    """Rewrite the container at path with "kind" named twice in its header:
    first as "masks", then as the writer's own kind, which a last-wins
    parser would keep."""
    data = path.read_bytes()
    (header_len,) = struct.unpack("<I", data[8:12])
    header = b'{"kind":"masks",' + data[12:12 + header_len][1:]
    path.write_bytes(data[:8] + struct.pack("<I", len(header)) + header + data[12 + header_len:])


def test_container_header_rejects_a_repeated_key(tmp_path, mini_weights):
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    _with_a_repeated_header_key(path)
    for read in (storage.read_model, storage.read_model_config):
        with pytest.raises(storage.FormatError, match="bad container header: duplicate key 'kind'"):
            read(path)


# Large enough that the float32 payloads of the whole file (9.5 MB) dwarf
# the largest tensor (the 4 MB token embedding) and the 1 MB of slack.
_MEMORY_CONFIG = ModelConfig(vocab_size=4096, d_model=256, n_layers=2, n_heads=4, d_ff=512, max_seq_len=64)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _memory_model(tmp_path):
    sizes = [math.prod(shape) for shape in tensor_shapes(_MEMORY_CONFIG).values()]
    return init_model(_MEMORY_CONFIG, 3), tmp_path / "model.opsh", 4 * sum(sizes), 4 * max(sizes)


def test_write_model_holds_one_float32_copy_at_a_time(tmp_path):
    weights, path, _, largest_float32 = _memory_model(tmp_path)
    assert _traced_peak(storage.write_model, path, weights) <= largest_float32 + 2**18


def test_write_model_converts_a_float64_model_one_tensor_at_a_time(tmp_path):
    # A float64 model, such as the one make_context widens, is written from
    # one float32 copy at a time, as the file holds it.
    weights, path, _, largest_float32 = _memory_model(tmp_path)
    wide = ModelWeights(weights.config, {name: w.astype(np.float64) for name, w in weights.tensors.items()})
    assert _traced_peak(storage.write_model, path, wide) <= largest_float32 + 2**18
    storage.write_model(tmp_path / "narrow.opsh", weights)
    assert path.read_bytes() == (tmp_path / "narrow.opsh").read_bytes()


def test_write_model_with_masks_holds_one_pruned_sub_module_at_a_time(tmp_path):
    weights, path, _, _ = _memory_model(tmp_path)
    stats = collect_activation_stats(weights, CalibrationSet(((1, 2, 3, 4),)))
    masks = prune_masks(weights, stats, preset("ria"), SemiStructured(2, 4))
    largest = 4 * max(math.prod(shape) for shape in sub_module_shapes(_MEMORY_CONFIG).values())
    # The masked sub-module and its transposed C-ordered copy, nothing held
    # from the sub-module written before.
    assert _traced_peak(storage.write_model, path, weights, masks) <= 2 * largest + 2**18


def test_read_model_holds_one_float32_payload_at_a_time(tmp_path):
    weights, path, float32_total, _ = _memory_model(tmp_path)
    storage.write_model(path, weights)
    del weights
    # The model is its float32 payloads, kept as read: no copy of any size.
    assert _traced_peak(storage.read_model, path) <= float32_total + 2**20


def test_prune_model_holds_float32_weights_and_one_float64_sub_module(tmp_path):
    weights, path, _, _ = _memory_model(tmp_path)
    storage.write_model(path, weights)
    weights = storage.read_model(path)
    stats = collect_activation_stats(weights, CalibrationSet(sequences=((1, 2, 3, 4, 5, 6, 7, 8),)))
    sizes = [math.prod(shape) for shape in sub_module_shapes(_MEMORY_CONFIG).values()]
    # The result is a float32 pruned copy of the sub-modules (the rest is
    # shared) and its masks, one byte per weight; beside them scoring may
    # hold one sub-module widened to float64, and 1 MiB of smaller arrays.
    bound = 4 * sum(sizes) + sum(sizes) + 8 * max(sizes) + 2**20
    assert _traced_peak(prune_model, weights, stats, preset("ria"), SemiStructured(2, 4)) <= bound


def test_eval_holds_one_model_and_the_dense_hidden_cache(tmp_path):
    weights, dense, float32_total, _ = _memory_model(tmp_path)
    calib = synthetic_calibration(_MEMORY_CONFIG.vocab_size, 4, _MEMORY_CONFIG.max_seq_len, seed=1)
    pruned, _ = prune_model(weights, collect_activation_stats(weights, calib), preset("ria"), SemiStructured(2, 4))
    storage.write_model(dense, weights)
    storage.write_model(tmp_path / "pruned.opsh", pruned)
    storage.write_calib(tmp_path / "calib.jsonl", calib)
    # One forward's own temporaries, the float64 copy of each matrix it
    # multiplies included, traced on the longest sequence.
    forward_peak = _traced_peak(forward, weights, calib.sequences[0])
    del weights, pruned
    cache = 8 * _MEMORY_CONFIG.d_model * sum(map(len, calib.sequences))
    argv = ["eval", "--dense", str(dense), "--pruned", str(tmp_path / "pruned.opsh"),
            "--calib", str(tmp_path / "calib.jsonl")]
    # Two models held at once would need float32_total more.
    assert _traced_peak(run, argv) <= float32_total + cache + forward_peak + 2**20


@pytest.mark.parametrize("metric, sparsity", [("magnitude", "0.5"), ("ria", "2:4")])
def test_prune_holds_no_pruned_copy_of_the_model(tmp_path, capsys, metric, sparsity):
    weights, path, float32_total, _ = _memory_model(tmp_path)
    storage.write_model(path, weights)
    storage.write_stats(tmp_path / "stats.json", collect_activation_stats(weights, CalibrationSet(((1, 2, 3, 4),))))
    del weights
    prunable = sum(math.prod(shape) for shape in sub_module_shapes(_MEMORY_CONFIG).values())
    argv = ["prune", "--model", str(path), "--stats", str(tmp_path / "stats.json"), "--metric", metric,
            "--sparsity", sparsity, "--out", str(tmp_path / "pruned.opsh")]
    # Below the model, its masks (one byte per weight) and a float32 pruned
    # copy of the sub-modules, held together.
    assert _traced_peak(run, argv) < float32_total + prunable + 4 * prunable


@pytest.mark.parametrize("metric", ["magnitude", "ria"])
@pytest.mark.parametrize("sparsity", ["0.5", "2:4"])
def test_prune_writes_the_file_of_the_whole_pruned_copy(tmp_path, mini_weights, mini_stats, capsys, metric, sparsity):
    storage.write_model(tmp_path / "model.opsh", mini_weights)
    storage.write_stats(tmp_path / "stats.json", mini_stats)
    assert run(["prune", "--model", str(tmp_path / "model.opsh"), "--stats", str(tmp_path / "stats.json"),
                "--metric", metric, "--sparsity", sparsity, "--out", str(tmp_path / "streamed.opsh")]) == 0
    masks = prune_masks(mini_weights, mini_stats, preset(metric), parse_sparsity(sparsity))
    storage.write_model(tmp_path / "whole.opsh", apply_masks(mini_weights, masks))
    assert (tmp_path / "streamed.opsh").read_bytes() == (tmp_path / "whole.opsh").read_bytes()


def test_read_model_rejects_a_tensor_name_that_is_not_utf8(tmp_path, mini_weights):
    path = tmp_path / "model.opsh"
    storage.write_model(path, mini_weights)
    data = bytearray(path.read_bytes())
    data[data.index(b"token_embedding")] |= 0x80  # 't' becomes a bare lead byte
    path.write_bytes(bytes(data))
    with pytest.raises(storage.FormatError, match="tensor name"):
        storage.read_model(path)


def test_read_model_counts_tensors_before_building_the_layout(tmp_path):
    # A header that claims 100000 layers over no tensors: the error must say
    # so briefly instead of naming 900003 missing tensors.
    config = {"vocab_size": 4, "d_model": 2, "n_layers": 100000, "n_heads": 1, "d_ff": 2, "max_seq_len": 2}
    path = tmp_path / "forged.opsh"
    storage._write_container(path, {"kind": "model", "config": config}, [])
    with pytest.raises(storage.FormatError, match="900003 tensors") as info:
        storage.read_model(path)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("field, value", [("n_layers", "1"), ("d_model", 2.0), ("n_heads", True)])
def test_read_model_rejects_config_fields_that_are_not_integers(tmp_path, field, value):
    config = {"vocab_size": 4, "d_model": 2, "n_layers": 1, "n_heads": 1, "d_ff": 2, "max_seq_len": 2}
    path = tmp_path / "model.opsh"
    storage._write_container(path, {"kind": "model", "config": config | {field: value}}, [])
    with pytest.raises(storage.FormatError, match=rf"{field} must be an integer"):
        storage.read_model(path)


def _container_with_header(path, header: bytes) -> None:
    path.write_bytes(storage.MAGIC + struct.pack("<II", storage.VERSION, len(header)) + header
                     + struct.pack("<I", 0))


@pytest.mark.parametrize(
    "name, write, read",
    [
        ("model.opsh", _container_with_header, storage.read_model),
        ("stats.json", lambda path, doc: path.write_bytes(doc), storage.read_stats),
        ("calib.jsonl", lambda path, doc: path.write_bytes(doc + b"\n"), storage.read_calib),
    ],
    ids=["opsh-header", "stats", "calib"],
)
@pytest.mark.parametrize(
    "doc",
    [b"[" * 100000 + b"]" * 100000, b'{"tokens":[1], "x": "\xff"}', b'{"tokens":[' + b"9" * 5000 + b"]}"],
    ids=["nested-100000-deep", "invalid-utf8", "int-beyond-digit-limit"],
)
def test_json_readers_turn_any_parse_failure_into_format_error(tmp_path, name, write, read, doc):
    path = tmp_path / name
    write(path, doc)
    with pytest.raises(storage.FormatError) as info:
        read(path)
    assert "\n" not in str(info.value)


def test_read_calib_rejects_tokens_beyond_int64(tmp_path):
    path = tmp_path / "calib.jsonl"
    for token in (2**63, -(2**63) - 1, 10**30):
        path.write_text(json.dumps({"tokens": [1, token]}) + "\n")
        with pytest.raises(storage.FormatError, match="int64"):
            storage.read_calib(path)
    path.write_text(json.dumps({"tokens": [2**63 - 1, -(2**63)]}) + "\n")
    assert storage.read_calib(path).sequences == ((2**63 - 1, -(2**63)),)


def test_read_calib_rejects_a_repeated_key(tmp_path):
    # A last-wins parser would read this line as the sequence (4, 5).
    path = tmp_path / "calib.jsonl"
    path.write_text('{"tokens": [9]}\n{"tokens":[1,2,3],"tokens":[4,5]}\n')
    with pytest.raises(storage.FormatError, match="calib.jsonl:2: .*duplicate key 'tokens'"):
        storage.read_calib(path)


# A 1-layer model small enough that names, shapes and the header make up most
# of the file, so random damage often lands outside the weight payloads.
_TINY_MODEL = init_model(ModelConfig(4, 2, 1, 1, 2, 2), seed=5)
_TINY_CALIB = synthetic_calibration(4, 2, 2, seed=5)

_DAMAGE = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(lambda n: ("truncate", n)),
    st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=3, unique=True)
    .map(lambda bits: ("flip", bits)),
)


def _damage(path, damage) -> None:
    data = bytearray(path.read_bytes())
    how, where = damage
    if how == "truncate":
        del data[where % len(data):]
    else:
        for bit in {b % (8 * len(data)) for b in where}:
            data[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(data))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(damage=_DAMAGE)
def test_read_model_damaged_file_raises_only_format_error(tmp_path_factory, damage):
    path = tmp_path_factory.mktemp("damaged") / "model.opsh"
    storage.write_model(path, _TINY_MODEL)
    _damage(path, damage)
    try:
        storage.read_model(path)
    except storage.FormatError:
        pass  # a flipped mantissa bit can leave a valid model; any other error fails


@pytest.mark.parametrize(
    "name, write, read",
    [
        ("stats.json", lambda path: storage.write_stats(path, collect_activation_stats(_TINY_MODEL, _TINY_CALIB)),
         storage.read_stats),
        ("calib.jsonl", lambda path: storage.write_calib(path, _TINY_CALIB), storage.read_calib),
    ],
    ids=["stats", "calib"],
)
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(damage=_DAMAGE)
def test_read_json_damaged_file_raises_only_format_error(tmp_path_factory, name, write, read, damage):
    path = tmp_path_factory.mktemp("damaged") / name
    write(path)
    _damage(path, damage)
    try:
        read(path)
    except storage.FormatError:
        pass  # a flipped digit can leave a valid file; any other error fails


def test_container_rejects_duplicate_names(tmp_path):
    path = tmp_path / "dup.opsh"
    tensor = np.zeros((1, 1))
    storage._write_container(path, {"kind": "masks"}, [("a", tensor, 1), ("a", tensor, 1)])
    with pytest.raises(storage.FormatError, match="duplicate"):
        storage._read_container(path)


def test_calib_round_trip(tmp_path, mini_calib):
    path = tmp_path / "calib.jsonl"
    storage.write_calib(path, mini_calib)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(mini_calib.sequences)
    loaded = storage.read_calib(path)
    assert loaded.sequences == mini_calib.sequences


def test_read_calib_rejects_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(storage.FormatError, match="empty calibration set"):
        storage.read_calib(path)


def test_read_calib_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"tokens": [1, 2]}\nnot json\n')
    with pytest.raises(storage.FormatError, match="bad.jsonl:2"):
        storage.read_calib(path)
    path.write_text('{"ids": [1]}\n')
    with pytest.raises(storage.FormatError, match="tokens"):
        storage.read_calib(path)
    # no writer leaves a blank line or a key beside "tokens"; both are damage
    path.write_text('{"tokens": [1, 2]}\n\n{"tokens": [3]}\n')
    with pytest.raises(storage.FormatError, match="bad.jsonl:2"):
        storage.read_calib(path)
    path.write_text('{"tokens": [1, 2]}\n{"tokens": [3], "ids": [4]}\n')
    with pytest.raises(storage.FormatError, match="bad.jsonl:2: .*only a 'tokens'"):
        storage.read_calib(path)
    # CalibrationSet rejects an empty sequence too, but could not name the line.
    path.write_text('{"tokens": [1, 2]}\n{"tokens": []}\n')
    with pytest.raises(storage.FormatError, match="bad.jsonl:2: 'tokens' must be a non-empty array"):
        storage.read_calib(path)


def test_stats_round_trip_exact(tmp_path, mini_stats):
    path = tmp_path / "stats.json"
    storage.write_stats(path, mini_stats)
    loaded = storage.read_stats(path)
    assert set(loaded) == set(mini_stats)
    for key in mini_stats:
        # decimal round trip is lossless for 64-bit floats
        assert np.array_equal(loaded[key].v, mini_stats[key].v)
        assert np.array_equal(loaded[key].l1, mini_stats[key].l1)
        assert loaded[key].token_count == mini_stats[key].token_count


def test_read_stats_reports_key_path(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps({"layer.0.q": {"v": [1.0], "l1": []}}))
    with pytest.raises(storage.FormatError, match="layer.0.q"):
        storage.read_stats(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("v", float("nan")),
        ("v", -1.0),
        ("l1", float("inf")),
        pytest.param("v", 10**400, id="v-int-beyond-float64"),
        pytest.param("v", "1.0", id="v-string"),
        pytest.param("l1", True, id="l1-bool"),
        pytest.param("token_count", True, id="token_count-bool"),
        pytest.param("token_count", 1.0, id="token_count-float"),
    ],
)
def test_read_stats_rejects_non_finite_or_negative(tmp_path, mini_stats, field, value):
    # Each case replaces the first element of an array field, or a scalar field.
    path = tmp_path / "stats.json"
    storage.write_stats(path, mini_stats)
    doc = json.loads(path.read_text())
    entry = doc["layer.0.q"]
    if isinstance(entry[field], list):
        entry[field][0] = value
    else:
        entry[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(storage.FormatError, match=rf"layer.0.q.*{field}"):
        storage.read_stats(path)


def test_read_stats_rejects_an_extra_field(tmp_path, mini_stats):
    path = tmp_path / "stats.json"
    storage.write_stats(path, mini_stats)
    doc = json.loads(path.read_text())
    doc["layer.0.q"]["mean"] = 1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(storage.FormatError, match=r"stats\['layer.0.q'\]: expected an object with exactly v, l1"):
        storage.read_stats(path)


def test_read_stats_names_the_field_the_record_rejects(tmp_path, mini_stats):
    path = tmp_path / "stats.json"
    storage.write_stats(path, mini_stats)
    doc = json.loads(path.read_text())
    doc["layer.0.q"]["l1"].append(1.0)
    path.write_text(json.dumps(doc))
    with pytest.raises(storage.FormatError, match=r"^stats\['layer.0.q'\]\.l1: "):
        storage.read_stats(path)


def _json_object(pairs) -> str:
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in pairs) + "}"


@pytest.mark.parametrize("where", ["sub-module", "field"])
def test_read_stats_rejects_a_repeated_key(tmp_path, mini_stats, where):
    # A sub-module named twice, or a field named twice in one entry: a
    # last-wins parser would drop the first silently.
    path = tmp_path / "stats.json"
    storage.write_stats(path, mini_stats)
    doc = json.loads(path.read_text())
    entries = [(key, json.dumps(entry)) for key, entry in doc.items()]
    if where == "sub-module":
        entries.append(entries[0])
        repeated = entries[0][0]
    else:
        entry = doc[entries[0][0]]
        fields = [(field, json.dumps(value)) for field, value in entry.items()]
        entries[0] = (entries[0][0], _json_object(fields + [("token_count", "1")]))
        repeated = "token_count"
    path.write_text(_json_object(entries))
    with pytest.raises(storage.FormatError, match=f"malformed stats JSON: duplicate key '{repeated}'"):
        storage.read_stats(path)


@pytest.mark.parametrize("field", ["v", "l1"])
def test_read_stats_rejects_nested_arrays(tmp_path, mini_stats, field):
    path = tmp_path / "stats.json"
    storage.write_stats(path, mini_stats)
    doc = json.loads(path.read_text())
    doc["layer.0.q"][field] = [[x] for x in doc["layer.0.q"][field]]
    path.write_text(json.dumps(doc))
    with pytest.raises(storage.FormatError, match=rf"layer.0.q.*{field}"):
        storage.read_stats(path)


def test_masks_round_trip(tmp_path, mini_weights, mini_stats):
    _, masks = prune_model(mini_weights, mini_stats, preset("wanda"), SemiStructured(2, 4))
    path = tmp_path / "masks.opsh"
    storage.write_masks(path, masks)
    loaded = storage.read_masks(path)
    assert set(loaded) == set(masks)
    for key in masks:
        assert loaded[key].bits.dtype == np.bool_ and np.array_equal(loaded[key].bits, masks[key].bits)
    again = tmp_path / "masks2.opsh"
    storage.write_masks(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_write_masks_rejects_a_stacked_mask_before_writing(tmp_path):
    # A Mask is 2-D, so a stack of masks is rejected before write_masks runs.
    path = tmp_path / "masks.opsh"
    with pytest.raises(ValueError, match="2-D"):
        storage.write_masks(path, {"layer.0.q": Mask(bits=np.ones((2, 4, 4), dtype=bool))})
    assert not path.exists()


def test_read_masks_rejects_non_binary(tmp_path):
    path = tmp_path / "masks.opsh"
    storage._write_container(path, {"kind": "masks"}, [("m", np.array([[0, 2]], dtype=np.uint8), 1)])
    with pytest.raises(storage.FormatError, match="0 or 1"):
        storage.read_masks(path)


def test_results_files(tmp_path, mini_fitness):
    result = nsga2_search(mini_fitness, SearchParams(population=8, budget=16, seed=1))
    json_path = tmp_path / "result.json"
    csv_path = tmp_path / "result.csv"
    storage.write_results(result, json_path, csv_path)

    doc = json.loads(json_path.read_text())
    assert doc["algorithm"] == "nsga2"
    assert doc["evaluations_used"] == result.evaluations_used
    assert len(doc["trials"]) == len(result.trials)
    assert doc["best"]["l_div"] == result.best_l_div

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trial,alpha,beta,f1,f2,l_div"
    assert len(lines) == len(result.trials) + 1

    # byte-identical on rewrite
    json2 = tmp_path / "r2.json"
    csv2 = tmp_path / "r2.csv"
    storage.write_results(result, json2, csv2)
    assert json2.read_bytes() == json_path.read_bytes()
    assert csv2.read_bytes() == csv_path.read_bytes()


@pytest.mark.parametrize("configs", [
    pytest.param(all_configs(), id="full-table"),
    pytest.param(all_configs()[5:6], id="one-trial"),
    pytest.param(all_configs()[:3] * 3 + all_configs()[100:101] * 2, id="repeated-configs"),
    pytest.param([], id="no-trials"),
])
def test_results_json_is_the_one_shot_dump_of_its_document(tmp_path, configs):
    # Awkward floats: the streamed JSON must be byte for byte what json.dumps
    # gives for the same document, and the CSV must hold the same rows.
    values = np.random.default_rng(5).lognormal(0.0, 30.0, len(configs)).tolist()
    values[:3] = [0.0, 0.1 + 0.2, 5e-324][:len(configs)]
    trials = [(i, cfg, value) for i, (cfg, value) in enumerate(zip(configs, values))]
    result = SearchResult("exhaustive", trials, all_configs()[7], 0.5, len(trials), None, SPACE_SIZE)
    json_path, csv_path = tmp_path / "result.json", tmp_path / "result.csv"
    # One row is held at a time: the 2401 row dicts of the whole table took 1.4 MB.
    assert _traced_peak(storage.write_results, result, json_path, csv_path) < 500_000
    written = json_path.read_bytes()
    doc = json.loads(written)
    assert len(doc["trials"]) == len(trials)
    assert written == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    rows = csv_path.read_text().splitlines()[1:]
    assert rows == [",".join(str(row[col]) for col in storage.RESULT_CSV_COLUMNS) for row in doc["trials"]]


def test_calibration_ids_checked_at_use_time(tmp_path, mini_weights):
    path = tmp_path / "calib.jsonl"
    storage.write_calib(path, CalibrationSet(sequences=((9999,),)))
    loaded = storage.read_calib(path)  # reading is fine
    from prunesearch.model import forward

    with pytest.raises(ValueError, match="out of range"):
        forward(mini_weights, loaded.sequences[0])
